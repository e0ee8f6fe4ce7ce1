"""The ``compare`` verdicts, quartiles and fingerprint refusal."""

from __future__ import annotations

import io

import helpers  # noqa: F401  (import paths)

import compare


def _pairs(parent, change):
    return list(zip(parent, change))


def test_quartiles_match_statistics_quantiles():
    assert compare.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert compare.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_better_needs_nine_tenths_of_ten_pairs_and_a_gap_beyond_the_spread():
    parent = [100.0 + i * 0.1 for i in range(10)]
    change = [110.0 + i * 0.1 for i in range(10)]
    assert compare.verdict("higher", 0.1, parent, change, _pairs(parent, change)) == "better"
    # Same medians for a lower-is-better metric: the change is worse by 10%.
    assert compare.verdict("lower", 0.05, parent, change, _pairs(parent, change)) == "worse"


def test_too_few_pairs_is_never_better():
    parent = [100.0, 101.0, 102.0]
    change = [120.0, 121.0, 122.0]
    assert compare.verdict("higher", 0.1, parent, change, _pairs(parent, change)) == "no worse"


def test_ties_count_for_neither_side():
    parent = [100.0] * 10
    change = [100.0] * 2 + [130.0] * 8
    # Eight wins out of ten pairs is below nine tenths.
    assert compare.verdict("higher", 0.1, parent, change, _pairs(parent, change)) == "no worse"


def test_gain_within_the_parent_spread_is_not_better():
    parent = [80.0, 90.0, 100.0, 110.0, 120.0] * 2
    change = [p + 1.0 for p in parent]
    result = compare.verdict("higher", 0.5, parent, change, _pairs(parent, change))
    assert result == "no worse"


def test_worse_beyond_the_bound():
    parent = [10.0] * 10
    change = [11.5] * 10
    assert compare.verdict("lower", 0.1, parent, change, _pairs(parent, change)) == "worse"
    assert compare.verdict("lower", 0.2, parent, change, _pairs(parent, change)) == "no worse"


def test_wide_spread_is_unresolved_unless_every_change_run_is_better():
    parent = [50.0, 100.0, 150.0, 100.0, 60.0, 140.0]
    change = [55.0, 100.0, 145.0, 100.0, 65.0, 135.0]
    assert compare.verdict("higher", 0.1, parent, change, _pairs(parent, change)) == "unresolved"
    parent = [10.0, 20.0, 30.0]
    change = [31.0, 41.0, 51.0]
    assert compare.verdict("higher", 0.1, parent, change, _pairs(parent, change)) == "no worse"


def test_zero_median_metric():
    zeros = [0.0] * 10
    assert compare.verdict("lower", 0.0, zeros, zeros, _pairs(zeros, zeros)) == "no worse"
    some = [0.0] * 9 + [0.01]
    assert compare.verdict("lower", 0.0, zeros, [0.01] * 10, _pairs(zeros, some)) == "worse"


def _record(workload, seed, value, cpu="x", trace=0):
    return {
        "workload": workload, "seed": seed, "trace": trace, "attempted": 10, "failed": 0,
        "correct": True, "details": {},
        "fingerprint": {"nproc": 2, "cpu": cpu, "python": "3", "numpy": "2",
                        "ckernels": True, "repro_env": {}},
        "metrics": {"throughput_per_s": {"value": value, "unit": "1/s"},
                    "setup_s": {"value": 0.5, "unit": "s"}},
    }


def test_mismatched_fingerprints_are_refused():
    parent = [_record("sweep-eager", s, 10.0) for s in range(3)]
    change = [_record("sweep-eager", s, 10.0, cpu="y") for s in range(3)]
    assert compare.compare(parent, change, out=io.StringIO()) == 2


def test_rows_per_workload_and_exit_status():
    parent = [_record("sweep-eager", s, 10.0 + s * 0.01) for s in range(10)]
    better = [_record("sweep-eager", s, 12.0 + s * 0.01) for s in range(10)]
    out = io.StringIO()
    assert compare.compare(parent, better, out=out) == 0
    rows = [line for line in out.getvalue().splitlines() if line.startswith("sweep-eager")]
    assert any("throughput_per_s" in row and row.endswith("better") for row in rows)
    assert any("failed_frac" in row and row.endswith("no worse") for row in rows)
    assert "base 10" in out.getvalue()
    worse = [_record("sweep-eager", s, 5.0) for s in range(10)]
    assert compare.compare(parent, worse, out=io.StringIO()) == 1
