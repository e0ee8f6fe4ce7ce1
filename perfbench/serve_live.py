"""The ``serve-live`` workload: ``RedundancyProxy`` under open-loop traffic.

The pool is 8 infinite-server ``SimBackend`` s with 1 ms exponential service
over 10,000 keys, so the proxy's own dispatch cost is what is measured.  All
real-clock parts share one asyncio loop in this one process:

* **race reference** — ``hedge:p95`` at a fixed 2,000 req/s.  Each request
  is timed from the moment it was due, so a stall in the loop delays the
  requests behind it and shows; the generator's own lateness is reported.
* **race ladder** — the same at rising fixed rates; the highest rate whose
  p99 meets :data:`P99_LIMIT_MS` with no growing backlog is ``max_rate_rps``.
* **batch** — ``k2`` at an offered rate far above capacity, so every arrival
  is due at once and the vectorised dispatch path runs saturated.
* **virtual** — a fixed ``hedge:p95`` run on the virtual clock, timed in
  host seconds.  Its report is canonical, so its digest is checked.
"""

from __future__ import annotations

import asyncio
import hashlib
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from repro.distributions import Exponential
from repro.serve import (
    BackendError,
    LoadGenConfig,
    RealClock,
    RedundancyProxy,
    SimBackend,
    VirtualClock,
    run_load,
)
from repro.sim.rng import substream
from repro.workloads.arrivals import PoissonArrivals

import checks
import hostspeed
from hostspeed import HostSpeed
from outcome import Outcome
from spec import DEFAULT_SEED

BACKENDS = 8
SERVICE_MEAN_S = 0.001
KEYSPACE = 10_000
RACE_POLICY = "hedge:p95"
BATCH_POLICY = "k2"
REFERENCE_RATE = 2000.0
LADDER = (3000.0, 4000.0, 5000.0, 6000.0, 8000.0, 10000.0, 13000.0)
P99_LIMIT_MS = 25.0
BATCH_REQUESTS = 400_000
VIRTUAL_REQUESTS = 5_000
VIRTUAL_RATE = 2000.0

#: Seconds of offered traffic per ladder step and per reference segment.
LADDER_STEP_S = 0.5
SEGMENT_S = 1.0
#: Distinct seeded reference segments drawn at set-up; rounds reuse them.
SEGMENTS = 16
#: Batch runs per traced cycle (an untraced round makes one).
TRACED_BATCH_RUNS = 2
#: Reference-kernel passes after each timed batch or virtual-clock run.
SPEED_SAMPLES = 4


@dataclass
class RaceResult:
    issued: int
    completed: int
    failed: int
    p99_ms: float
    lag_p99_ms: float
    in_flight_max: int
    backlog: int
    counters: Dict[str, Any]
    latency_ms: np.ndarray
    lag_ms: np.ndarray


class ServeWorkload:
    """Set-up state and measurement phases of ``serve-live``."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self._service = Exponential(mean=SERVICE_MEAN_S)
        self.reference = [
            self.traffic(REFERENCE_RATE, SEGMENT_S, f"reference-{i}") for i in range(SEGMENTS)
        ]
        self.race_proxy = self.proxy(RealClock(), RACE_POLICY)
        self.last_virtual: Optional[Dict[str, Any]] = None
        self.last_race: Optional[RaceResult] = None
        self.virtual_digest: Optional[str] = None
        self.speed = HostSpeed()

    # ------------------------------------------------------------------ #
    # Inputs

    def traffic(self, rate: float, seconds: float, label: str) -> Tuple[np.ndarray, np.ndarray]:
        """Seeded Poisson arrival offsets and uniform keys for one phase."""
        count = max(1, int(rate * seconds))
        arrivals = PoissonArrivals(rate, substream(self.seed, "perfbench", label, rate))
        keys = substream(self.seed, "perfbench-keys", label, rate)
        return arrivals.times_count(count), keys.integers(0, KEYSPACE, size=count)

    def proxy(self, clock: Any, policy: str, prepare: bool = True) -> Any:
        pool = [
            SimBackend(i, clock, seed=self.seed, service=self._service, queueing=False)
            for i in range(BACKENDS)
        ]
        proxy = RedundancyProxy(pool, clock, policy=policy)
        if prepare:
            proxy.prepare_keyspace(KEYSPACE, BACKENDS)
        return proxy

    # ------------------------------------------------------------------ #
    # Phases

    async def race(
        self, proxy: Any, traffic: Tuple[np.ndarray, np.ndarray], backlog_limit: int = 0
    ) -> RaceResult:
        """Open-loop race-path traffic on the real clock, timed from due time.

        With a ``backlog_limit``, issuing stops once more requests than that
        are in flight: the rate is already lost, and the pile-up would only
        cost memory.
        """
        clock = proxy.clock
        offsets, keys = traffic
        count = len(offsets)
        latency = np.full(count, np.nan)
        lag = np.zeros(count)
        failures = 0
        in_flight_max = 0

        async def one(index: int, due: float) -> None:
            nonlocal failures
            try:
                await proxy.request(int(keys[index]))
            except BackendError:
                failures += 1
                return
            latency[index] = clock.now() - due

        before = proxy.counters()
        tasks = []
        start = clock.now()
        index = 0
        while index < count:
            now = clock.now()
            wait = start + offsets[index] - now
            if wait > 0:
                await clock.sleep(wait)
                now = clock.now()
            while index < count and start + offsets[index] <= now:
                due = start + offsets[index]
                lag[index] = now - due
                tasks.append(asyncio.ensure_future(one(index, due)))
                index += 1
            in_flight_max = max(in_flight_max, proxy.in_flight)
            if backlog_limit and proxy.in_flight > backlog_limit:
                break
        backlog = proxy.in_flight
        await asyncio.gather(*tasks)
        await proxy.drain()
        done = latency[~np.isnan(latency)] * 1e3
        return RaceResult(
            issued=index,
            completed=len(done),
            failed=failures,
            p99_ms=float(np.percentile(done, 99)) if len(done) else 0.0,
            lag_p99_ms=float(np.percentile(lag[:index], 99)) * 1e3,
            in_flight_max=in_flight_max,
            backlog=backlog,
            counters={k: v - before[k] for k, v in proxy.counters().items()},
            latency_ms=done,
            lag_ms=lag[:index] * 1e3,
        )

    async def batch(self) -> Tuple[float, Dict[str, Any]]:
        """One saturated ``k2`` run through ``run_load``; (normalised s, report)."""
        clock = RealClock()
        proxy = self.proxy(clock, BATCH_POLICY, prepare=False)
        config = LoadGenConfig(
            rate=1e9, num_requests=BATCH_REQUESTS, seed=self.seed, keyspace=KEYSPACE,
            resolution=0.05,
        )
        started = time.perf_counter()
        report = await run_load(proxy, clock, config)
        return self._normalised(time.perf_counter() - started), report.to_dict()

    def virtual(self) -> Tuple[float, Dict[str, Any], str]:
        """One fixed ``hedge:p95`` virtual-clock run; (normalised s, report, digest)."""
        clock = VirtualClock()
        proxy = self.proxy(clock, RACE_POLICY, prepare=False)
        config = LoadGenConfig(
            rate=VIRTUAL_RATE, num_requests=VIRTUAL_REQUESTS, seed=self.seed, keyspace=KEYSPACE
        )
        started = time.perf_counter()
        report = clock.run(run_load(proxy, clock, config))
        elapsed = self._normalised(time.perf_counter() - started)
        text = report.to_json()
        self.last_virtual = report.to_dict()
        return elapsed, self.last_virtual, hashlib.sha256(text.encode("utf-8")).hexdigest()

    def _normalised(self, host_s: float) -> float:
        """``host_s`` scaled by the reference kernel timed right after it."""
        since = self.speed.mark()
        self.speed.sample(SPEED_SAMPLES)
        return host_s * self.speed.scale(since)

    # ------------------------------------------------------------------ #
    # Checks

    def _expected_digest(self, committed: Dict[str, Dict[str, str]]) -> Optional[str]:
        if self.seed != DEFAULT_SEED:
            return None
        return committed.get(self.name, {}).get("virtual")

    def _check_race(self, result: RaceResult, label: str, tally: "_Tally") -> None:
        problems = []
        if result.completed + result.failed != result.issued:
            problems.append(
                f"{label}: completed {result.completed} + failed {result.failed} "
                f"!= issued {result.issued}"
            )
        if result.counters["requests"] != result.issued:
            problems.append(f"{label}: proxy counted {result.counters['requests']} requests")
        if result.counters["copies_launched"] < result.completed:
            problems.append(f"{label}: fewer copies launched than requests served")
        tally.add(result.issued, result.failed if not problems else result.issued, problems)

    def _virtual_runs(self, runs: int, deadline: float, expected: Optional[str],
                      tally: "_Tally") -> List[float]:
        times = []
        while len(times) < runs or time.perf_counter() < deadline:
            seconds, report, digest = self.virtual()
            times.append(seconds)
            problems = checks.serve_conservation(report)
            if expected is None:
                expected = digest
            elif digest != expected:
                problems.append("virtual-clock report digest mismatch")
            failed = report["counters"]["failed_requests"]
            tally.add(VIRTUAL_REQUESTS, VIRTUAL_REQUESTS if problems else failed, problems)
        self.virtual_digest = expected
        return times

    def _batch_check(self, report: Dict[str, Any], tally: "_Tally") -> None:
        problems = checks.serve_conservation(report, eager_copies=2)
        failed = report["counters"]["failed_requests"]
        tally.add(BATCH_REQUESTS, BATCH_REQUESTS if problems else failed, problems)

    # ------------------------------------------------------------------ #
    # Runs

    def _round(self, loop: asyncio.AbstractEventLoop, proxy: Any,
               traffic: Tuple[np.ndarray, np.ndarray], batch_runs: int,
               expected: Optional[str], tally: "_Tally"):
        """One race segment, ``batch_runs`` batch runs, one virtual run."""
        race = loop.run_until_complete(self.race(proxy, traffic))
        self._check_race(race, "reference", tally)
        batch_times = []
        for _ in range(batch_runs):
            seconds, report = loop.run_until_complete(self.batch())
            batch_times.append(seconds)
            self._batch_check(report, tally)
        virtual_s = self._virtual_runs(1, 0.0, expected, tally)[0]
        return race, batch_times, virtual_s

    def measure(self, seconds: float, committed: Dict[str, Dict[str, str]]) -> Outcome:
        """The untraced run: the ladder, then rounds until ``seconds`` are up.

        Rounds interleave the three paths so that each is sampled across the
        whole run, not in one stretch that a busy neighbour could cover.
        """
        tally = _Tally()
        expected = self._expected_digest(committed)
        deadline = time.perf_counter() + seconds
        loop = asyncio.new_event_loop()
        try:
            max_rate = loop.run_until_complete(self._ladder(tally))
            segments: List[RaceResult] = []
            batch_times: List[float] = []
            virtual_times: List[float] = []
            while not segments or time.perf_counter() < deadline:
                traffic = self.reference[len(segments) % len(self.reference)]
                race, batch, virtual = self._round(
                    loop, self.race_proxy, traffic, 1, expected, tally
                )
                segments.append(race)
                batch_times += batch
                virtual_times.append(virtual)
        finally:
            loop.close()
        self.last_race = segments[0]
        latency = np.concatenate([s.latency_ms for s in segments])
        lag = np.concatenate([s.lag_ms for s in segments])
        p50_ms = float(np.percentile(latency, 50)) if len(latency) else 0.0
        # Host-time rates use the median normalised repetition (hostspeed.py).
        race_req_per_s = VIRTUAL_REQUESTS / statistics.median(virtual_times)
        batch_req_per_s = BATCH_REQUESTS / statistics.median(batch_times)
        return Outcome(
            metrics={
                "throughput_per_s": race_req_per_s,
                "requests_per_s": batch_req_per_s,
                "latency_ms": p50_ms,
            },
            details={
                "race_req_per_s": race_req_per_s,
                "batch_req_per_s": batch_req_per_s,
                "host_slowdown": 1.0 / self.speed.scale(),
                "max_rate_rps": max_rate,
                "race_p99_ms": float(np.percentile(latency, 99)) if len(latency) else 0.0,
                "race_samples": len(latency),
                "lag_p99_ms": float(np.percentile(lag, 99)),
                "failed_frac": tally.failed / tally.attempted,
                "rounds": len(segments),
            },
            attempted=tally.attempted,
            failed=tally.failed,
            problems=tally.problems,
            digests={"virtual": self.virtual_digest},
            cost_s=statistics.median(virtual_times),
        )

    async def _ladder(self, tally: "_Tally") -> float:
        """Highest ladder rate meeting the p99 limit (0 if the reference fails)."""
        max_rate = 0.0
        for rate in (REFERENCE_RATE,) + LADDER:
            step = await self.race(
                self.proxy(RealClock(), RACE_POLICY),
                self.traffic(rate, LADDER_STEP_S, "ladder"),
                backlog_limit=_backlog_limit(rate),
            )
            self._check_race(step, f"ladder {rate:g}", tally)
            if not _meets_limit(step, rate):
                break
            max_rate = rate
        return max_rate

    def calibrate(self, seconds: float, committed: Dict[str, Dict[str, str]]) -> Outcome:
        """Untraced virtual-clock runs: the base the tracing overhead is priced on."""
        tally = _Tally()
        times = self._virtual_runs(
            1, time.perf_counter() + seconds, self._expected_digest(committed), tally
        )
        return Outcome(
            metrics={},
            details={},
            attempted=tally.attempted,
            failed=tally.failed,
            problems=tally.problems,
            cost_s=statistics.median(times),
        )

    def measure_cycles(self, seconds: float, committed: Dict[str, Dict[str, str]]) -> Outcome:
        """The traced run: whole cycles of set-up and one round each."""
        tally = _Tally()
        expected = self._expected_digest(committed)
        virtual_times: List[float] = []
        deadline = time.perf_counter() + seconds
        loop = asyncio.new_event_loop()
        try:
            while not virtual_times or time.perf_counter() < deadline:
                traffic = self.traffic(REFERENCE_RATE, SEGMENT_S, "reference-0")
                proxy = self.proxy(RealClock(), RACE_POLICY)
                race, _batch, virtual = self._round(
                    loop, proxy, traffic, TRACED_BATCH_RUNS, expected, tally
                )
                if not virtual_times:
                    self.last_race = race
                virtual_times.append(virtual)
        finally:
            loop.close()
        return Outcome(
            metrics={},
            details={"failed_frac": tally.failed / tally.attempted},
            attempted=tally.attempted,
            failed=tally.failed,
            problems=tally.problems,
            cost_s=statistics.median(virtual_times),
            cycles=len(virtual_times),
        )

    def layer_counts(self) -> Dict[str, float]:
        counters = self.last_virtual["counters"]
        consumed = counters["service_consumed_s"]
        race = self.last_race
        return {
            "core.copies_per_request": counters["copies_launched"] / counters["requests"],
            "core.copies_cancelled": float(counters["copies_cancelled"]),
            "serve.proxy.useful_ratio": counters["useful_service_s"] / consumed,
            "serve.proxy.hedges_fired": float(counters["hedges_fired"]),
            "serve.loadgen.lag_p99_ms": race.lag_p99_ms,
            "serve.proxy.in_flight_max": float(race.in_flight_max),
        }


def _backlog_limit(rate: float) -> int:
    """Requests in flight beyond which the latency limit is already lost.

    By Little's law an open loop holding more than ``rate x limit`` requests
    in flight has a mean latency above the limit.
    """
    return int(rate * P99_LIMIT_MS / 1e3)


def _meets_limit(result: RaceResult, rate: float) -> bool:
    """p99 within the limit, nothing failed, and no backlog left growing."""
    return (
        result.failed == 0
        and result.p99_ms <= P99_LIMIT_MS
        and result.backlog <= _backlog_limit(rate)
    )


class _Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, attempted: int, failed: int, problems: List[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)
