"""Tiny-size smoke runs of every workload, correctness checks included."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import helpers

import checks
import hostspeed
import run
import serve_live
import spec
from sweeps import SweepWorkload

COMMITTED = run._load_digests()


def _narrowed(name, index, tmp_path, seed=spec.DEFAULT_SEED, overrides=None):
    """The workload restricted to one of its parts (optionally resized)."""
    workload = SweepWorkload(name, seed, str(tmp_path))
    part = workload.plan.parts[index]
    if overrides is not None:
        part = dataclasses.replace(part, overrides=overrides)
    workload.plan = dataclasses.replace(workload.plan, parts=(part,))
    workload.scenarios = workload.scenarios[index : index + 1]
    return workload


def _committed_subset(name, scenario):
    prefix = scenario + "@0#"
    return {k: v for k, v in COMMITTED[name].items() if k.startswith(prefix)}


@pytest.mark.parametrize(
    "name, index",
    [("sweep-eager", 1), ("sweep-hedged", 4)],  # memcached parts: fast
)
def test_sweep_part_matches_committed_digests(name, index, tmp_path):
    workload = _narrowed(name, index, tmp_path)
    reference = _committed_subset(name, workload.plan.parts[0].scenario)
    assert reference
    cycle = workload.run_cycle(reference)
    assert cycle["problems"] == [] and cycle["failed"] == 0
    assert cycle["points"] == len(reference)
    assert len(cycle["point_times"]) == cycle["points"]


def test_a_changed_record_counts_as_failed(tmp_path):
    workload = _narrowed("sweep-eager", 1, tmp_path)
    reference = _committed_subset("sweep-eager", "memcached-load-sweep")
    key = sorted(reference)[0]
    reference[key] = "0" * 64
    cycle = workload.run_cycle(reference)
    assert cycle["failed"] == 1
    assert cycle["problems"] == [f"{key}: canonical record digest mismatch"]


def test_host_speed_scale_is_nominal_over_the_median_kernel_time():
    speed = hostspeed.HostSpeed()
    speed.samples = [0.001, 0.004, 0.002, 0.003]
    assert speed.scale() == hostspeed.NOMINAL_S / 0.0025
    since = speed.mark()
    speed.sample(3)
    assert len(speed.samples) == 7 and speed.spent_s(since) == sum(speed.samples[4:])
    assert speed.scale(since) == hostspeed.NOMINAL_S / sorted(speed.samples[4:])[1]


def test_conservation_check_catches_lost_copies():
    record = {
        "status": "ok", "index": 0, "scalars": {},
        "params": {"num_requests": 100, "copies": 2},
        "metrics": {"requests": 100, "copies_launched": 99},
    }
    assert checks.check_point("memcached", record)
    record["metrics"]["copies_launched"] = 200
    assert checks.check_point("memcached", record) == []


def test_packet_sweep_smoke_is_deterministic(tmp_path):
    workload = _narrowed("sweep-packet", 0, tmp_path, seed=3, overrides={"num_flows": 30})
    outcome = workload.measure(0.01, COMMITTED)
    assert outcome.cycles == 1 and outcome.failed == 0
    second = workload.run_cycle(outcome.digests)
    assert second["failed"] == 0
    assert set(outcome.metrics) == {"throughput_per_s", "requests_per_s", "latency_ms"}
    assert all(value > 0 for value in outcome.metrics.values())


@pytest.fixture
def small_serve(monkeypatch):
    monkeypatch.setattr(serve_live, "BATCH_REQUESTS", 20_000)
    monkeypatch.setattr(serve_live, "LADDER", (3000.0,))


def test_serve_live_smoke(small_serve):
    workload = serve_live.ServeWorkload("serve-live", spec.DEFAULT_SEED)
    outcome = workload.measure(0.6, COMMITTED)
    assert outcome.problems == [] and outcome.failed == 0
    assert outcome.digests["virtual"] == COMMITTED["serve-live"]["virtual"]
    assert all(value > 0 for value in outcome.metrics.values())
    assert outcome.details["max_rate_rps"] >= serve_live.REFERENCE_RATE


def test_serve_live_digest_mismatch_fails(small_serve):
    workload = serve_live.ServeWorkload("serve-live", spec.DEFAULT_SEED)
    outcome = workload.measure(0.3, {"serve-live": {"virtual": "0" * 64}})
    assert outcome.failed >= serve_live.VIRTUAL_REQUESTS
    assert "virtual-clock report digest mismatch" in outcome.problems


def _cli(*args, cwd=helpers.ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_cli_prints_every_metric_on_the_last_line(tmp_path):
    out = tmp_path / "results.jsonl"
    done = _cli("--workload", "sweep-eager", "--seed", "0", "--seconds", "0.2",
                "--trace", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m.name for m in spec.per_layer()]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["experiments.sharding.merge_artifacts.calls"] == 4
    assert metrics["core.cancellation.simulate_cancelling_arrivals.calls"] == 0
    assert metrics["sim.engine.Simulator.run_until.calls"] == 0
    record = json.loads(out.read_text().splitlines()[-1])
    assert set(record["fingerprint"]) == {"nproc", "cpu", "python", "numpy", "ckernels",
                                          "repro_env"}


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(helpers.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(helpers.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _cli("--workload", "serve-live", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
