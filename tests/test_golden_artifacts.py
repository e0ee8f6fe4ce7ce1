"""Frozen golden bytes for the cluster, hedged, cancelling and churn paths.

Each checked-in artifact under ``tests/data/`` is a smoke-scale run of one
registered scenario.  A fresh run with the same overrides must reproduce it
byte for byte, so any change to the hedging engines
(:mod:`repro.core.cancellation`, :func:`repro.core.policy.simulate_hedged_arrivals`),
plan resolution, ring placement, the batched eager kernels or churn that
moves a single output byte fails here.  Together the goldens reach every
policy family (none, eager ``k2``, fixed-delay and percentile hedges, with
and without cancel-on-win, with and without background migration traffic)
on the queueing, database, memcached and pipeline substrates, and the
database's equal-size LRU kernel as well as its byte-sized LRU fallback
(``database-pareto-files``).  The two fat-tree goldens pin the packet
simulator and its event queue (:mod:`repro.sim.engine`): TCP retransmission
timers that are cancelled on ACK, eager first-packet replication and the
deferred ``hedge:100us`` duplicates.

To regenerate goldens after a deliberate output change::

    PYTHONPATH=src python tests/test_golden_artifacts.py standard-db-hedging ...
"""

import dataclasses
import os
import sys

import pytest

from repro.experiments import ParameterGrid, SweepRunner, get_scenario

DATA = os.path.join(os.path.dirname(__file__), "data")

#: Golden name -> (scenario, the overrides that shrink it to smoke scale,
#: replacement grid).  A grid of ``None`` keeps the registered one; the
#: ``-nocancel`` goldens re-grid a churn scenario onto the no-cancel hedged
#: path, which no registered grid reaches.  About 6 s in total.
GOLDEN = {
    "database-ec2": ("database-ec2", {"num_requests": 2000, "num_files": 4000}, None),
    "database-pareto-files": (
        "database-pareto-files", {"num_requests": 2000, "num_files": 4000}, None
    ),
    "memcached-load-sweep": ("memcached-load-sweep", {"num_requests": 3000}, None),
    "standard-db-hedging": (
        "standard-db-hedging", {"num_requests": 1500, "num_files": 4000}, None
    ),
    "standard-memcached-hedging": ("standard-memcached-hedging", {"num_requests": 3000}, None),
    "standard-queueing-policy-ablation": (
        "standard-queueing-policy-ablation", {"num_requests": 1000}, None
    ),
    "standard-db-rebalance": (
        "standard-db-rebalance", {"num_requests": 600, "num_files": 4000}, None
    ),
    "standard-db-rebalance-nocancel": (
        "standard-db-rebalance",
        {"num_requests": 600, "num_files": 4000},
        {"migration_rate": [50.0], "policy": ["hedge:p95:nocancel"]},
    ),
    "standard-memcached-failover": ("standard-memcached-failover", {"num_requests": 600}, None),
    "standard-memcached-failover-nocancel": (
        "standard-memcached-failover",
        {"num_requests": 600},
        {"migration_rate": [2000.0], "policy": ["hedge:p95:nocancel"]},
    ),
    "standard-pipeline-dag": ("standard-pipeline-dag", {"num_jobs": 10}, None),
    "fattree-short-flows": ("fattree-short-flows", {"num_flows": 150}, None),
    "standard-fattree-policy": ("standard-fattree-policy", {"num_flows": 100}, None),
}


def golden_path(name: str) -> str:
    return os.path.join(DATA, f"golden-{name}.json")


def golden_sweep(name: str):
    scenario_name, overrides, grid = GOLDEN[name]
    scenario = get_scenario(scenario_name)
    if grid is not None:
        scenario = dataclasses.replace(scenario, grid=ParameterGrid(grid))
    return SweepRunner(workers=1).run(scenario, overrides=overrides)


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_fresh_run_reproduces_golden_bytes(scenario):
    fresh = golden_sweep(scenario)
    assert all(point.status == "ok" for point in fresh.points)
    with open(golden_path(scenario), encoding="utf-8") as handle:
        assert fresh.to_json() == handle.read()


if __name__ == "__main__":
    for name in sys.argv[1:]:
        with open(golden_path(name), "w", encoding="utf-8") as handle:
            handle.write(golden_sweep(name).to_json())
