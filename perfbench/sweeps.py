"""The three sweep workloads: fixed point lists run through ``SweepRunner``.

A workload is a list of :class:`Part` s, each a registered scenario narrowed
to a few grid points.  One *cycle* runs every part once, in one process
(``SweepRunner(workers=1)``), streaming each part to a JSONL artifact; on
``sweep-eager`` each part is streamed as two shards and merged.  A run repeats
whole cycles until its time is up.  Every cycle must reproduce the first
cycle's canonical records, and on the default seed the committed digests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import repro.experiments as experiments
from repro.cluster import _ckernels

import checks
from hostspeed import HostSpeed
from outcome import Outcome
from spec import DEFAULT_SEED


@dataclass(frozen=True)
class Part:
    scenario: str
    grid: Dict[str, List[Any]]
    overrides: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepPlan:
    """Parts of one cycle.  Each part runs once per scenario seed of the
    cycle's group: cycle ``k`` runs group ``g = k mod groups``, and a run's
    ``--seed`` S gives that group the seeds ``(S * groups + g) * seeds + j``
    for ``j < seeds``."""

    parts: Tuple[Part, ...]
    shards: int = 1
    seeds: int = 1
    groups: int = 1
    #: Substrate packages the adapters import lazily; set-up imports them so
    #: their cost counts in ``setup_s``, not in the first point.
    modules: Tuple[str, ...] = ()


PLANS: Dict[str, SweepPlan] = {
    # Eager, static points: the vectorised cluster paths, the C FIFO kernel,
    # the pipeline fast path, artifact write and shard merge.
    "sweep-eager": SweepPlan(
        parts=(
            Part("paper-database-ec2", {"load": [0.1, 0.3], "copies": [1, 2]}),
            Part("memcached-load-sweep", {"load": [0.1, 0.2, 0.3, 0.45], "copies": [1, 2]}),
            Part("queueing-load-sweep", {"load": [0.1, 0.4], "copies": [1, 2]}),
            Part(
                "standard-pipeline-stragglers",
                {"policy": ["none", "k2", "k3"], "num_chunks": [16, 64],
                 "straggler_alpha": [1.2]},
            ),
        ),
        shards=2,
        modules=("repro.cluster", "repro.queueing", "repro.pipeline"),
    ),
    # The same substrates hedged and under churn: the cancellation engine,
    # the hedged FIFO pass, per-request plans, scalar storage servers, churn.
    # Points are half their registered size so that a run repeats each one
    # about fifteen times.
    "sweep-hedged": SweepPlan(
        parts=(
            Part(
                "standard-db-hedging",
                {"load": [0.4], "policy": ["hedge:20ms", "hedge:p95"]},
                overrides={"num_requests": 5_000},
            ),
            Part(
                "standard-memcached-hedging",
                {"load": [0.3], "policy": ["hedge:400us", "hedge:p95"]},
                overrides={"num_requests": 10_000},
            ),
            Part(
                "standard-queueing-policy-ablation",
                {"load": [0.4], "policy": ["hedge:500ms", "hedge:p95"]},
                overrides={"num_requests": 10_000},
            ),
            Part(
                "standard-db-rebalance",
                {"migration_rate": [50.0], "policy": ["k2", "hedge:p95"]},
            ),
            Part(
                "standard-memcached-failover",
                {"migration_rate": [2000.0], "policy": ["k2", "hedge:p95"]},
            ),
            Part(
                "standard-pipeline-dag",
                {"policy": ["k2", "hedge:p95"], "fail_prob": [0.04]},
                overrides={"num_jobs": 60},
            ),
        ),
        modules=("repro.cluster", "repro.queueing", "repro.pipeline"),
    ),
    # Packet-fidelity fat-tree: the only sweep that reaches sim.engine.  A
    # point's event count follows its few elephant flows, so one seed's work
    # varies by a fifth.  Each cycle runs the next two seeds of a pool of
    # sixteen, so a run averages over all the seeds its cycles reach.
    "sweep-packet": SweepPlan(
        parts=(
            Part(
                "standard-fattree-policy",
                {"load": [0.4], "policy": ["none", "k2", "hedge:100us"]},
                overrides={"num_flows": 200},
            ),
            Part(
                "paper-fattree-k6",
                {"load": [0.6], "policy": ["none", "k2", "hedge:100us"]},
                overrides={"num_flows": 150},
            ),
        ),
        seeds=2,
        groups=8,
        modules=("repro.network",),
    ),
}


class SweepWorkload:
    """Set-up state and measurement loop of one sweep workload."""

    def __init__(self, name: str, seed: int, workdir: str) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.plan = PLANS[name]
        for module in self.plan.modules:
            importlib.import_module(module)
        self.ckernels_loaded = _ckernels.load() is not None
        self.scenarios = [
            dataclasses.replace(
                experiments.get_scenario(part.scenario),
                grid=experiments.ParameterGrid(part.grid),
            )
            for part in self.plan.parts
        ]
        self.cycles: List[Dict[str, Any]] = []
        self.speed = HostSpeed()

    # ------------------------------------------------------------------ #

    def _run_part(
        self, index: int, copy: int, point_times: Dict[str, float]
    ) -> Tuple[List[str], int]:
        """One part: stream (or shard + merge) its artifact; return lines, bytes.

        Each point's host time is the gap between two progress callbacks
        (one point per chunk), less the reference kernel that each callback
        runs; it lands in ``point_times`` under a key that names the same
        point in every cycle.
        """
        part = self.plan.parts[index]
        runner = experiments.SweepRunner(workers=1, chunk_size=1)
        seed = self.seed * self.plan.seeds * self.plan.groups + copy

        def run(out: str, shard: Optional[Tuple[int, int]]) -> None:
            marks: List[Tuple[float, float]] = []  # (point ends, next point starts)

            def progress(_done: int, _total: int) -> None:
                ended = time.perf_counter()
                self.speed.sample()
                marks.append((ended, time.perf_counter()))

            runner.run(
                self.scenarios[index],
                overrides=part.overrides or None,
                seed=seed,
                out=out,
                progress=progress,
                shard=shard,
            )
            label = f"{part.scenario}@{copy}/{shard[0] if shard else 1}"
            for position, ((_, begin), (end, _)) in enumerate(zip(marks, marks[1:])):
                point_times[f"{label}/{position}"] = end - begin

        out = os.path.join(self.workdir, f"part{index}-{copy}.jsonl")
        if self.plan.shards == 1:
            run(out, None)
            written = [out]
        else:
            written = [f"{out}.shard{shard}" for shard in range(1, self.plan.shards + 1)]
            for shard, path in enumerate(written, start=1):
                run(path, (shard, self.plan.shards))
            experiments.merge_artifacts(out, written)
            written.append(out)
        with open(out, encoding="utf-8") as handle:
            lines = handle.read().splitlines()[1:]  # drop the header record
        return lines, sum(os.path.getsize(path) for path in written)

    def run_cycle(self, reference: Optional[Dict[str, str]], group: int = 0) -> Dict[str, Any]:
        """Run every part once on ``group``'s seeds; return timings and checks.

        A point fails when its part raised, a conservation check fails, or
        its canonical record differs from ``reference`` (when given; only
        the group's entries of it are compared).
        """
        started = time.perf_counter()
        since = self.speed.mark()
        self.speed.sample()
        point_times: Dict[str, float] = {}
        digests: Dict[str, str] = {}
        problems: List[str] = []
        failed: set = set()
        requests = 0
        artifact_bytes = 0
        records: List[Tuple[str, Dict[str, Any]]] = []
        copies = range(group * self.plan.seeds, (group + 1) * self.plan.seeds)
        runs = [(i, copy) for i in range(len(self.plan.parts)) for copy in copies]
        for index, copy in runs:
            name = f"{self.plan.parts[index].scenario}@{copy}"
            scenario = self.scenarios[index]
            try:
                lines, size = self._run_part(index, copy, point_times)
            except Exception as exc:  # a crashing part fails all its points
                problems.append(f"{name}: {type(exc).__name__}: {exc}")
                failed.update(f"{name}#{i}" for i in range(len(scenario.grid)))
                continue
            artifact_bytes += size
            for line in lines:
                record = checks.parse_record(line)
                key = f"{name}#{record['index']}"
                digests[key] = hashlib.sha256(line.encode("utf-8")).hexdigest()
                issues = checks.check_point(scenario.entry_point, record)
                if issues:
                    failed.add(key)
                    problems.extend(f"{key}: {issue}" for issue in issues)
                requests += checks.point_requests(record)
                records.append((scenario.entry_point, record))
        if reference is not None:
            names = {f"{self.plan.parts[i].scenario}@{copy}" for i, copy in runs}
            expected = {k: v for k, v in reference.items() if k.rsplit("#", 1)[0] in names}
            for key in checks.digest_mismatches(expected, digests):
                failed.add(key)
                problems.append(f"{key}: canonical record digest mismatch")
        return {
            "elapsed_s": time.perf_counter() - started - self.speed.spent_s(since),
            "scale": self.speed.scale(since),
            "points": self.plan.seeds * sum(len(s.grid) for s in self.scenarios),
            "failed": len(failed),
            "point_times": point_times,
            "digests": digests,
            "problems": problems,
            "requests": requests,
            "artifact_bytes": artifact_bytes,
            "records": records,
        }

    def measure(self, seconds: float, committed: Dict[str, Dict[str, str]]) -> Outcome:
        """Run whole cycles for ``seconds``; every cycle is checked.

        On the default seed each cycle is held to the committed digests; on
        any other seed, a group's later cycles to its first.  Rates and
        latency use each point's median normalised time over its cycles
        (hostspeed.py), averaged over every point the run reached.
        """
        known = committed.get(self.name) if self.seed == DEFAULT_SEED else None
        reference: Dict[str, str] = dict(known or {})
        deadline = time.perf_counter() + seconds
        cycles: List[Dict[str, Any]] = []
        while not cycles or time.perf_counter() < deadline:
            first_pass = known is None and len(cycles) < self.plan.groups
            cycle = self.run_cycle(None if first_pass else reference,
                                   len(cycles) % self.plan.groups)
            if first_pass:
                reference.update(cycle["digests"])
            cycles.append(cycle)
        self.cycles = cycles
        attempted = sum(c["points"] for c in cycles)
        failed = sum(c["failed"] for c in cycles)
        samples: Dict[str, List[float]] = {}
        for cycle in cycles:
            for key, seconds_taken in cycle["point_times"].items():
                samples.setdefault(key, []).append(seconds_taken * cycle["scale"])
        point_s = [statistics.median(times) for times in samples.values()]
        # Work outside the points (merging, reading artifacts back) counts too.
        between = statistics.median(
            (c["elapsed_s"] - sum(c["point_times"].values())) * c["scale"] / c["points"]
            for c in cycles
        )
        mean_point_s = statistics.fmean(point_s) + max(0.0, between)
        requests_per_point = sum(c["requests"] for c in cycles) / attempted
        points = cycles[0]["points"]
        return Outcome(
            metrics={
                "throughput_per_s": 1.0 / mean_point_s,
                "requests_per_s": requests_per_point / mean_point_s,
                "latency_ms": mean_point_s * 1000.0,
            },
            details={
                "points_per_s": 1.0 / mean_point_s,
                "sim_req_per_s": requests_per_point / mean_point_s,
                "point_p50_ms": statistics.median(point_s) * 1000.0,
                "points_per_s_host": attempted / sum(c["elapsed_s"] for c in cycles),
                "host_slowdown": statistics.median(1.0 / c["scale"] for c in cycles),
                "failed_frac": failed / attempted,
                "cycles": len(cycles),
                "points_per_cycle": points,
            },
            attempted=attempted,
            failed=failed,
            problems=[p for c in cycles for p in c["problems"]],
            digests=cycles[0]["digests"],
            cost_s=mean_point_s * points,
            cycles=len(cycles),
        )

    def layer_counts(self) -> Dict[str, float]:
        """Per-layer counts that come from the outputs rather than spans."""
        cycle = self.cycles[0]
        counts = checks.model_counts(cycle["records"])
        counts["experiments.artifact.bytes"] = float(cycle["artifact_bytes"])
        counts["cluster._ckernels.loaded"] = 1.0 if self.ckernels_loaded else 0.0
        return counts
