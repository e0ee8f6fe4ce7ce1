"""Points/sec of the flow-level fat-tree fidelity vs the packet event loop.

The flow fidelity exists purely for sweep throughput; it is a documented
approximation with its own scenario.  This benchmark measures the claim
directly: points/sec on a scaled-down twin of ``paper-fattree-k6``, packet
vs flow fidelity, and asserts a conservative floor on the speedup.

The committed ``BENCH_sim_speed.json`` next to this file is a record, not an
output: it holds the one-off paper-scale measurements behind the
EXPERIMENTS.md "Making sweeps fast" table plus one ``bench_scale`` block
(its ``database_ec2`` entries time a scalar draw path that no longer
exists).
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

#: Scaled-down sweep size: same grid as the paper scenario, smaller
#: workload, so the packet/flow ratio is measurable in suite time.
FATTREE_OVERRIDES = {"num_flows": 400}

#: Conservative floor for the measured speedup at bench scale (the full
#: paper-scale ratio is larger; see EXPERIMENTS.md).  Loose enough for CI
#: jitter, tight enough that losing the fast path fails the bench.
MIN_FATTREE_SPEEDUP = 4.0


def _points_per_sec(scenario_name, overrides):
    """Run a sweep once and return (points, elapsed_s, points_per_sec)."""
    scenario = get_scenario(scenario_name)
    started = time.perf_counter()
    result = SweepRunner(workers=1).run(scenario, overrides=overrides)
    elapsed = time.perf_counter() - started
    points = len(result.points)
    return points, elapsed, points / elapsed


def measure():
    """Measure the packet/flow pair; returns the bench_scale record."""
    ft_pts, ft_packet_s, ft_packet_rate = _points_per_sec(
        "paper-fattree-k6", FATTREE_OVERRIDES
    )
    _, ft_flow_s, ft_flow_rate = _points_per_sec(
        "paper-fattree-k6-flow", FATTREE_OVERRIDES
    )
    return {
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
