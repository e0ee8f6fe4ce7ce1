"""Correctness checks on the program's outputs, and the model counts.

Two kinds of check.  On the default seed every canonical point record (and
the virtual-clock serve report) must hash to the digest committed in
``digests.json``.  On every seed the records must conserve work: each
request is counted once, every dispatched copy is accounted for, and a
request never launches fewer than one copy or more than its policy allows.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Tuple

from repro.core.policy import parse_policy

#: The counter each substrate uses for the unit of work it simulates, and
#: the point parameter that fixes how many there must be.
_UNIT = {
    "queueing": ("requests", "num_requests"),
    "database": ("requests", "num_requests"),
    "memcached": ("requests", "num_requests"),
    "pipeline": ("jobs", "num_jobs"),
    "fattree": ("flows", "num_flows"),
}


def parse_record(line: str) -> Dict[str, Any]:
    return json.loads(line)


def digest_mismatches(expected: Mapping[str, str], actual: Mapping[str, str]) -> List[str]:
    """Keys whose digests differ or that only one side has, sorted."""
    keys = set(expected) | set(actual)
    return sorted(k for k in keys if expected.get(k) != actual.get(k))


def point_requests(record: Dict[str, Any]) -> int:
    """Requests (chunks, flows) one point simulated."""
    metrics = record.get("metrics") or {}
    for counter in ("requests", "chunks", "flows"):
        if counter in metrics:
            return int(metrics[counter])
    return 0


def _max_copies(params: Dict[str, Any]) -> int:
    if "policy" in params:
        return int(parse_policy(params["policy"]).max_copies)
    if "replication" in params:
        return 2 if params["replication"] else 1
    return int(params.get("copies", 1))


def check_point(entry_point: str, record: Dict[str, Any]) -> List[str]:
    """Conservation problems of one canonical point record (empty if none)."""
    if record.get("status") != "ok":
        return [f"status {record.get('status')!r}: {record.get('error')}"]
    params = record["params"]
    metrics = record.get("metrics") or {}
    problems: List[str] = []
    counter, param = _UNIT[entry_point]
    if int(metrics.get(counter, -1)) != int(params[param]):
        problems.append(f"{counter}={metrics.get(counter)} but {param}={params[param]}")
    requests = int(metrics.get(counter, 0))
    if entry_point == "fattree":
        completed = int(metrics.get("flows_completed", -1))
        if not 0 <= completed <= requests:
            problems.append(f"flows_completed={completed} of {requests} flows")
        summary = record.get("summary") or {}
        if summary and summary.get("count") != record["scalars"].get("short_flows_completed"):
            problems.append("short-flow summary count != short_flows_completed")
        return problems
    if entry_point == "pipeline":
        chunks = int(metrics.get("chunks", 0))
        launched = int(metrics.get("copies_launched", 0))
        cancelled = int(metrics.get("copies_cancelled", 0))
        completions = int((metrics.get("job_completion") or {}).get("count", -1))
        if completions != requests:
            problems.append(f"{completions} job completions for {requests} jobs")
        if launched < chunks:
            problems.append(f"copies_launched={launched} < chunks={chunks}")
        if not 0 <= cancelled <= launched:
            problems.append(f"copies_cancelled={cancelled} of {launched} launched")
        return problems
    launched = int(metrics.get("copies_launched", 0))
    ceiling = requests * _max_copies(params)
    if not requests <= launched <= ceiling:
        problems.append(f"copies_launched={launched} outside [{requests}, {ceiling}]")
    latency = metrics.get("latency")
    if isinstance(latency, dict) and int(latency.get("count", 0)) > requests:
        problems.append(f"{latency['count']} latency samples for {requests} requests")
    if "cache_hits" in metrics:
        lookups = int(metrics["cache_hits"]) + int(metrics["cache_misses"])
        reads = launched + int(metrics.get("migration_jobs", 0))
        if lookups != reads:
            problems.append(f"cache hits+misses={lookups} != copies+migrations={reads}")
    return problems


def serve_conservation(report: Dict[str, Any], eager_copies: int = 0) -> List[str]:
    """Conservation problems of one serve run report (as a dict)."""
    counters = report["counters"]
    requests = int(counters["requests"])
    completed = int(report["latency"]["count"])
    failed = int(counters["failed_requests"])
    problems = []
    if completed + failed != requests:
        problems.append(f"completed {completed} + failed {failed} != requests {requests}")
    launched = int(counters["copies_launched"])
    if launched < requests - failed:
        problems.append(f"copies_launched={launched} < served requests")
    if eager_copies and launched != eager_copies * requests:
        problems.append(f"copies_launched={launched} != {eager_copies} x {requests}")
    return problems


def model_counts(records: Iterable[Tuple[str, Dict[str, Any]]]) -> Dict[str, float]:
    """Model counts over one cycle's records; a pure speed-up keeps them."""
    hits = lookups = launched = requests = 0
    useful = wasted = 0.0
    for entry_point, record in records:
        metrics = record.get("metrics") or {}
        if "cache_hits" in metrics:
            hits += int(metrics["cache_hits"])
            lookups += int(metrics["cache_hits"]) + int(metrics["cache_misses"])
        if "copies_launched" in metrics:
            launched += int(metrics["copies_launched"])
            requests += point_requests(record)
        if entry_point == "pipeline":
            useful += float(record["scalars"]["useful_work_s"])
            wasted += float(record["scalars"]["wasted_work_s"])
    return {
        "cluster.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "core.copies_per_request": launched / requests if requests else 0.0,
        "pipeline.wasted_work_fraction": wasted / (useful + wasted) if useful + wasted else 0.0,
    }
