"""Points/sec of the vectorised fast paths vs the legacy event-loop paths.

The fast paths (pre-drawn numpy batches in the database/memcached substrates,
the flow-level fat-tree fidelity, the calendar event queue) exist purely for
sweep throughput — the batched draw paths are byte-identical to the legacy
loops and the flow fidelity is a documented approximation with its own
scenario.  This benchmark measures the claim directly: points/sec on
scaled-down twins of the two slowest paper scenarios (``paper-database-ec2``
and ``paper-fattree-k6``), before vs after, and asserts conservative floors
on the speedups.

The committed ``BENCH_sim_speed.json`` next to this file is a record, not an
output: it holds the one-off paper-scale measurements behind the
EXPERIMENTS.md "Making sweeps fast" table plus one ``bench_scale`` block.
Neither way of running this module rewrites it.  Under pytest it only
measures and asserts; run directly, it prints the measured ``bench_scale``
block and, given ``--out PATH``, writes the committed record with that block
replaced to ``PATH``::

    PYTHONPATH=src python benchmarks/bench_sim_speed.py --out /tmp/BENCH_sim_speed.json
"""

import argparse
import json
import os
import time

import pytest

from repro.experiments import get_scenario
from repro.experiments.runner import SweepRunner

ARTIFACT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_sim_speed.json")

#: Scaled-down sweep sizes: same grids as the paper scenarios, smaller
#: workloads, so the before/after ratio is measurable in suite time.
DATABASE_OVERRIDES = {"num_requests": 4_000, "num_files": 8_000}
FATTREE_OVERRIDES = {"num_flows": 400}

#: Conservative floors for the measured speedups at bench scale (the full
#: paper-scale ratios are larger; see EXPERIMENTS.md).  Loose enough for CI
#: jitter, tight enough that losing a fast path fails the bench.
MIN_DATABASE_SPEEDUP = 3.0
MIN_FATTREE_SPEEDUP = 4.0


def _points_per_sec(scenario_name, overrides, env=None):
    """Run a sweep once and return (points, elapsed_s, points_per_sec)."""
    scenario = get_scenario(scenario_name)
    saved = {}
    for key, value in (env or {}).items():
        saved[key] = os.environ.get(key)
        os.environ[key] = value
    try:
        started = time.perf_counter()
        result = SweepRunner(workers=1).run(scenario, overrides=overrides)
        elapsed = time.perf_counter() - started
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    points = len(result.points)
    return points, elapsed, points / elapsed


def measure():
    """Measure all before/after pairs; returns the bench_scale record."""
    db_pts, db_legacy_s, db_legacy_rate = _points_per_sec(
        "paper-database-ec2", DATABASE_OVERRIDES, env={"REPRO_DRAWS": "legacy"}
    )
    _, db_fast_s, db_fast_rate = _points_per_sec(
        "paper-database-ec2", DATABASE_OVERRIDES, env={"REPRO_DRAWS": "batched"}
    )
    ft_pts, ft_packet_s, ft_packet_rate = _points_per_sec(
        "paper-fattree-k6", FATTREE_OVERRIDES
    )
    _, ft_flow_s, ft_flow_rate = _points_per_sec(
        "paper-fattree-k6-flow", FATTREE_OVERRIDES
    )
    return {
        "database_ec2": {
            "overrides": DATABASE_OVERRIDES,
            "points": db_pts,
            "legacy_s": round(db_legacy_s, 3),
            "batched_s": round(db_fast_s, 3),
            "legacy_points_per_sec": round(db_legacy_rate, 3),
            "batched_points_per_sec": round(db_fast_rate, 3),
            "speedup": round(db_legacy_rate and db_fast_rate / db_legacy_rate, 2),
        },
        "fattree_k6": {
            "overrides": FATTREE_OVERRIDES,
            "points": ft_pts,
            "packet_s": round(ft_packet_s, 3),
            "flow_s": round(ft_flow_s, 3),
            "packet_points_per_sec": round(ft_packet_rate, 3),
            "flow_points_per_sec": round(ft_flow_rate, 3),
            "speedup": round(ft_packet_rate and ft_flow_rate / ft_packet_rate, 2),
        },
    }


def write_artifact(bench_scale, path):
    """Write the committed record, with ``bench_scale`` replaced, to ``path``."""
    record = {}
    if os.path.exists(ARTIFACT_PATH):
        with open(ARTIFACT_PATH) as handle:
            record = json.load(handle)
    record["bench_scale"] = bench_scale
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return record


@pytest.fixture(scope="module")
def speed_record():
    return measure()


def test_database_batched_draws_speedup(speed_record):
    entry = speed_record["database_ec2"]
    assert entry["speedup"] >= MIN_DATABASE_SPEEDUP, entry


def test_fattree_flow_fidelity_speedup(speed_record):
    entry = speed_record["fattree_k6"]
    assert entry["speedup"] >= MIN_FATTREE_SPEEDUP, entry


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the updated record here (never in place)")
    args = parser.parse_args()
    bench = measure()
    if args.out:
        write_artifact(bench, args.out)
    print(json.dumps(bench, indent=2, sort_keys=True))
