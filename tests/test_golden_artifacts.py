"""Frozen golden bytes for the hedged, cancelling and churn paths.

Each checked-in artifact under ``tests/data/`` is a smoke-scale run of one
registered scenario.  A fresh run with the same overrides must reproduce it
byte for byte, so any change to the hedging engines
(:mod:`repro.core.cancellation`, :func:`repro.core.policy.simulate_hedged_arrivals`),
plan resolution, ring placement or churn that moves a single output byte
fails here.  Together the six scenarios reach every policy family (none,
eager ``k2``, fixed-delay and percentile hedges, with and without
background migration traffic) on the queueing, database, memcached and
pipeline substrates.

To regenerate one after a deliberate output change::

    PYTHONPATH=src python -m repro.experiments run standard-db-hedging \\
        --set num_requests=1500 --set num_files=4000 --quiet \\
        --out tests/data/golden-standard-db-hedging.json
"""

import os

import pytest

from repro.experiments import SweepRunner, get_scenario

DATA = os.path.join(os.path.dirname(__file__), "data")

#: Scenario -> the overrides that shrink it to smoke scale (about 1.5 s total).
GOLDEN_OVERRIDES = {
    "standard-db-hedging": {"num_requests": 1500, "num_files": 4000},
    "standard-memcached-hedging": {"num_requests": 3000},
    "standard-queueing-policy-ablation": {"num_requests": 1000},
    "standard-db-rebalance": {"num_requests": 600, "num_files": 4000},
    "standard-memcached-failover": {"num_requests": 600},
    "standard-pipeline-dag": {"num_jobs": 10},
}


def golden_path(scenario: str) -> str:
    return os.path.join(DATA, f"golden-{scenario}.json")


@pytest.mark.parametrize("scenario", sorted(GOLDEN_OVERRIDES))
def test_fresh_run_reproduces_golden_bytes(scenario):
    fresh = SweepRunner(workers=1).run(
        get_scenario(scenario), overrides=GOLDEN_OVERRIDES[scenario]
    )
    assert all(point.status == "ok" for point in fresh.points)
    with open(golden_path(scenario), encoding="utf-8") as handle:
        assert fresh.to_json() == handle.read()
