#!/usr/bin/env python3
"""Compare two benchmark result sets: parent commit against a change.

Usage::

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds runs appended by ``perfbench/run.py --out``.  Runs of the same
workload and seed on the two sides form a pair.  For every workload and
end-to-end metric (and each workload-specific headline figure) one row gives
each side's median and quartiles, the pairs the change won, and a verdict:

* ``better`` — the change won at least nine tenths of at least ten pairs
  (ties count for neither) and its median beats the parent's by more than
  the parent's own quartile spread;
* ``worse`` — the change's median is worse than the parent's by more than
  the metric's bound;
* ``unresolved`` — not worse by the bound, but either side's quartile spread
  is wider than the bound, unless every change run beats every parent run;
* ``no worse`` — otherwise.

Per-layer deltas from traced runs follow, every ratio with its base.  Result
sets whose machine fingerprints differ are refused (exit 2); any ``worse``
verdict exits 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import spec

MIN_PAIRS = 10
WIN_SHARE = 0.9

Runs = Dict[Tuple[str, int], Dict[int, dict]]  # (workload, trace) -> seed -> record


def load(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def fingerprint_mismatch(parent: List[dict], change: List[dict]) -> Optional[str]:
    """A description of the first differing fingerprint, or None."""
    records = parent + change
    if not records:
        return "both result sets are empty"
    reference = records[0]["fingerprint"]
    for record in records[1:]:
        for key in sorted(set(reference) | set(record["fingerprint"])):
            if reference.get(key) != record["fingerprint"].get(key):
                return (f"fingerprint field {key!r} differs: "
                        f"{reference.get(key)!r} vs {record['fingerprint'].get(key)!r}")
    return None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) by ``statistics.quantiles(n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _relative(amount: float, base: float) -> float:
    if base == 0:
        return 0.0 if amount == 0 else float("inf")
    return amount / abs(base)


def verdict(
    better: str,
    bound: float,
    parent: Sequence[float],
    change: Sequence[float],
    pairs: Sequence[Tuple[float, float]],
) -> str:
    """``better`` / ``worse`` / ``unresolved`` / ``no worse`` (see module doc)."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (c_med - p_med)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > p_q3 - p_q1:
        return "better"
    if _relative(-gain, p_med) > bound:
        return "worse"
    spread = max(_relative(p_q3 - p_q1, p_med), _relative(c_q3 - c_q1, c_med))
    worst_change = min(sign * c for c in change)
    best_parent = max(sign * p for p in parent)
    if spread > bound and not worst_change > best_parent:
        return "unresolved"
    return "no worse"


def _value(record: dict, name: str) -> Optional[float]:
    if name == "failed_frac":
        return record["failed"] / record["attempted"]
    if name in record.get("metrics", {}):
        return float(record["metrics"][name]["value"])
    value = record.get("details", {}).get(name)
    return None if value is None else float(value)


def _group(records: List[dict]) -> Runs:
    runs: Runs = {}
    for record in records:
        runs.setdefault((record["workload"], record["trace"]), {})[record["seed"]] = record
    return runs


def _series(runs: Dict[int, dict], name: str) -> Dict[int, float]:
    values = {seed: _value(record, name) for seed, record in runs.items()}
    return {seed: value for seed, value in values.items() if value is not None}


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def _print_rows(rows: List[Tuple[str, ...]], out) -> None:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip(), file=out)


def _ratio(change: float, parent: float) -> str:
    return f"{change / parent:.3f} (base {_fmt(parent)})" if parent else "n/a (base 0)"


def compare(parent: List[dict], change: List[dict], out=sys.stdout) -> int:
    """Print the comparison; 0, or 1 if any verdict is ``worse``, 2 on mismatch."""
    mismatch = fingerprint_mismatch(parent, change)
    if mismatch:
        print(f"compare: refusing to compare: {mismatch}", file=sys.stderr)
        return 2
    table = spec.metric_table()
    before, after = _group(parent), _group(change)
    verdicts = []
    rows = [("workload", "metric", "unit", "parent median [q1, q3]",
             "change median [q1, q3]", "change/parent", "wins", "verdict")]
    for workload in spec.WORKLOADS:
        p_runs, c_runs = before.get((workload, 0), {}), after.get((workload, 0), {})
        for metric in spec.END_TO_END + spec.DETAIL:
            p_vals, c_vals = _series(p_runs, metric.name), _series(c_runs, metric.name)
            if not p_vals or not c_vals:
                continue
            pairs = [(p_vals[s], c_vals[s]) for s in sorted(set(p_vals) & set(c_vals))]
            result = verdict(metric.better, metric.bound,
                             list(p_vals.values()), list(c_vals.values()), pairs)
            verdicts.append(result)
            sign = 1.0 if metric.better == "higher" else -1.0
            wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
            p_q1, p_med, p_q3 = quartiles(list(p_vals.values()))
            c_q1, c_med, c_q3 = quartiles(list(c_vals.values()))
            rows.append((
                workload, metric.name, metric.unit,
                f"{_fmt(p_med)} [{_fmt(p_q1)}, {_fmt(p_q3)}]",
                f"{_fmt(c_med)} [{_fmt(c_q1)}, {_fmt(c_q3)}]",
                _ratio(c_med, p_med), f"{wins}/{len(pairs)}", result,
            ))
    _print_rows(rows, out)
    rows = [("workload", "per-layer metric (per cycle)", "unit", "parent median",
             "change median", "delta", "change/parent")]
    for workload in spec.WORKLOADS:
        p_runs, c_runs = before.get((workload, 1), {}), after.get((workload, 1), {})
        for metric in spec.per_layer():
            p_vals, c_vals = _series(p_runs, metric.name), _series(c_runs, metric.name)
            if not p_vals or not c_vals:
                continue
            p_med = statistics.median(p_vals.values())
            c_med = statistics.median(c_vals.values())
            if p_med == 0 and c_med == 0:
                continue
            rows.append((workload, metric.name, table[metric.name].unit, _fmt(p_med),
                         _fmt(c_med), _fmt(c_med - p_med), _ratio(c_med, p_med)))
    if len(rows) > 1:
        print(file=out)
        _print_rows(rows, out)
    return 1 if "worse" in verdicts else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="result set (JSONL) of the parent commit")
    parser.add_argument("change", help="result set (JSONL) of the change")
    args = parser.parse_args(argv)
    return compare(load(args.parent), load(args.change))


if __name__ == "__main__":
    sys.exit(main())
