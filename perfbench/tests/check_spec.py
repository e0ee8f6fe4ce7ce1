"""Metric names, ``BENCHMARK.json`` agreement, and the traced layer sites."""

from __future__ import annotations

import importlib
import json
import os
import re

import helpers

import spec

UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json():
    with open(os.path.join(helpers.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_metric_names_and_units_are_valid_and_unique():
    names = [m.name for m in spec.END_TO_END + spec.DETAIL + spec.per_layer()]
    assert len(names) == len(set(names))
    for metric in spec.END_TO_END + spec.DETAIL + spec.per_layer():
        assert spec.METRIC_NAME.match(metric.name), metric.name
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric.name), metric.name
        assert UNIT.match(metric.unit), metric.unit
        assert metric.better in ("higher", "lower")


def test_benchmark_json_matches_the_spec():
    bench = _benchmark_json()
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in spec.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spec.per_layer()
    ]
    setup = [m for m in spec.END_TO_END if m.name == "setup_s"]
    assert setup and setup[0].unit == "s" and setup[0].better == "lower"
    assert all(m.bound <= setup[0].bound <= 0.25 for m in spec.END_TO_END)


def test_every_layer_target_exists():
    for stem, target in spec.LAYERS.items():
        module_name, qualname = target.split(":")
        owner = importlib.import_module(module_name)
        for part in qualname.split("."):
            owner = getattr(owner, part)
        assert callable(owner), stem
