"""What the benchmark measures: workloads, metrics, bounds and traced layers.

This module is the single source of the names ``BENCHMARK.json`` lists;
``tests/check_spec.py`` keeps the two in agreement.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Tuple

#: Seed whose per-point canonical-record digests are committed in
#: ``digests.json``.  Other seeds get the conservation checks only.
DEFAULT_SEED = 0

#: Setup is measured in this many fresh processes per run; the median counts,
#: normalised by reference-kernel passes run before each probe and after the
#: last (hostspeed.py).
SETUP_PROBES = 11
SETUP_SPEED_SAMPLES = 4

#: Share of a traced run spent untraced first, to price the tracing overhead.
CALIBRATION_SHARE = 0.4

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

WORKLOADS = ("sweep-eager", "sweep-hedged", "sweep-packet", "serve-live")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" or "lower"
    bound: float = 0.0  # end-to-end only: tolerated worsening, share of median


#: End-to-end metrics, printed by every workload with ``--trace 0``.  The
#: two rates and the latency mean different things on sweeps and on the
#: live proxy; README.md has the table.
END_TO_END: Tuple[Metric, ...] = (
    Metric("throughput_per_s", "1/s", "higher", 0.25),
    Metric("requests_per_s", "1/s", "higher", 0.25),
    Metric("latency_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("setup_s", "s", "lower", 0.25),
)

#: Workload-specific headline figures: printed in the table and saved with
#: ``--out`` for ``compare``, but not part of the result line.
DETAIL: Tuple[Metric, ...] = (
    Metric("points_per_s", "1/s", "higher", 0.25),
    Metric("sim_req_per_s", "1/s", "higher", 0.25),
    Metric("race_req_per_s", "1/s", "higher", 0.25),
    Metric("batch_req_per_s", "1/s", "higher", 0.25),
    Metric("max_rate_rps", "1/s", "higher", 0.25),
    Metric("point_p50_ms", "ms", "lower", 0.25),
    Metric("race_p99_ms", "ms", "lower", 0.5),
    Metric("failed_frac", "share", "lower", 0.0),
)

#: Traced layers: metric stem -> canonical ``module:qualname`` definition.
#: A method is wrapped on its class; a function at its definition and in
#: every loaded ``repro`` module that imported it by name.
LAYERS: Dict[str, str] = {
    "experiments.runner.run": "repro.experiments.runner:SweepRunner.run",
    "experiments.sharding.merge_artifacts": "repro.experiments.sharding:merge_artifacts",
    "cluster.database.DatabaseClusterExperiment.__init__":
        "repro.cluster.database:DatabaseClusterExperiment.__init__",
    "cluster.draws.exact_disk_services": "repro.cluster.draws:exact_disk_services",
    "cluster.lru_kernel.lru_hit_flags": "repro.cluster.lru_kernel:lru_hit_flags",
    "cluster.draws.sequential_finish_times": "repro.cluster.draws:sequential_finish_times",
    "pipeline.fastpath.run_stage_fast": "repro.pipeline.fastpath:run_stage_fast",
    "queueing.replication_model.run_fast":
        "repro.queueing.replication_model:ReplicatedQueueingModel.run_fast",
    "core.cancellation.simulate_cancelling_arrivals":
        "repro.core.cancellation:simulate_cancelling_arrivals",
    "core.policy.simulate_hedged_arrivals": "repro.core.policy:simulate_hedged_arrivals",
    "core.policy.PolicyDriver.plan_for": "repro.core.policy:PolicyDriver.plan_for",
    "cluster.storage_server.probe": "repro.cluster.storage_server:StorageServerModel.probe",
    "cluster.storage_server.serve": "repro.cluster.storage_server:StorageServerModel.serve",
    "cluster.churn.plan_migrations": "repro.cluster.churn:plan_migrations",
    "cluster.consistent_hash.primary_for_many":
        "repro.cluster.consistent_hash:ConsistentHashRing.primary_for_many",
    "cluster.consistent_hash.replica_table":
        "repro.cluster.consistent_hash:ConsistentHashRing.replica_table",
    "pipeline.executor.run_stage_event": "repro.pipeline.executor:run_stage_event",
    "sim.engine.Simulator.run": "repro.sim.engine:Simulator.run",
    "sim.engine.Simulator.run_until": "repro.sim.engine:Simulator.run_until",
    "serve.proxy.RedundancyProxy.request": "repro.serve.proxy:RedundancyProxy.request",
    "serve.backends.SimBackend.handle": "repro.serve.backends:SimBackend.handle",
    "serve.proxy.submit_batch": "repro.serve.proxy:RedundancyProxy.submit_batch",
    "serve.backends.SimBackend.submit_many": "repro.serve.backends:SimBackend.submit_many",
    "serve.proxy.prepare_keyspace": "repro.serve.proxy:RedundancyProxy.prepare_keyspace",
    "workloads.arrivals.PoissonArrivals.times_count":
        "repro.workloads.arrivals:PoissonArrivals.times_count",
    "metrics.recorder.LatencyRecorder.record_many":
        "repro.metrics.recorder:LatencyRecorder.record_many",
    "metrics.recorder.LatencyRecorder.summary":
        "repro.metrics.recorder:LatencyRecorder.summary",
}

#: Per-layer figures that are not a span: counts made at a layer boundary,
#: model counts that a pure speed-up leaves unchanged, load-generator health.
LAYER_COUNTS: Tuple[Metric, ...] = (
    Metric("experiments.artifact.bytes", "count", "lower"),
    Metric("cluster._ckernels.loaded", "count", "higher"),
    Metric("sim.engine.events", "count", "lower"),
    Metric("sim.engine.events_per_s", "1/s", "higher"),
    Metric("sim.engine.calendar_migrations", "count", "lower"),
    Metric("cluster.cache_hit_ratio", "share", "higher"),
    Metric("core.copies_per_request", "ratio", "lower"),
    Metric("core.copies_cancelled", "count", "lower"),
    Metric("pipeline.wasted_work_fraction", "share", "lower"),
    Metric("serve.proxy.useful_ratio", "share", "higher"),
    Metric("serve.proxy.hedges_fired", "count", "lower"),
    Metric("serve.loadgen.lag_p99_ms", "ms", "lower"),
    Metric("serve.proxy.in_flight_max", "count", "lower"),
    Metric("trace.overhead_frac", "share", "lower"),
)


def per_layer() -> Tuple[Metric, ...]:
    """Every per-layer metric, in ``BENCHMARK.json`` order.

    Spans are reported per cycle of the workload (one pass over its fixed
    work list), so a count repeats exactly and a time compares across
    commits however many cycles a run completed.
    """
    spans = []
    for stem in LAYERS:
        spans.append(Metric(f"{stem}.calls", "count", "lower"))
        spans.append(Metric(f"{stem}.self_s", "s", "lower"))
    return tuple(spans) + LAYER_COUNTS


def metric_table() -> Dict[str, Metric]:
    """Every metric the benchmark can report, by name."""
    return {m.name: m for m in END_TO_END + DETAIL + per_layer()}
