#!/usr/bin/env python3
"""Run one benchmark workload against the repository's ``src/`` tree.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep-eager --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` first runs
untraced to price the tracing, then wraps the program's layer boundaries and
prints every per-layer metric plus ``trace.overhead_frac``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--out FILE`` also appends the run, with a machine fingerprint,
to a JSONL result set for ``perfbench/compare.py``.

Build outputs (the C kernels' shared library, sweep artifacts) go under
``.bench_build/`` in the repository root and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
DIGESTS = os.path.join(HERE, "digests.json")

import spec  # noqa: E402  (the benchmark's own modules sit beside this file)
from hostspeed import HostSpeed  # noqa: E402


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append this run to a JSONL result set")
    parser.add_argument(
        "--record-digests", default=None, metavar="FILE",
        help="run one cycle per seed group on the default seed and write its digests to FILE",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _use_checkout() -> None:
    """Import ``repro`` from this checkout and keep every write inside it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program to measure: {SRC}/repro is missing")
    scratch = os.path.join(BUILD, "tmp")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _workload(name: str, seed: int, workdir: str) -> Any:
    """Import and set up one workload: everything before its first timed step."""
    if name == "serve-live":
        from serve_live import ServeWorkload

        return ServeWorkload(name, seed)
    from sweeps import SweepWorkload

    return SweepWorkload(name, seed, workdir)


def _load_digests() -> Dict[str, Dict[str, str]]:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def _setup_seconds(args: argparse.Namespace) -> Tuple[float, float]:
    """Median seconds, over fresh processes, from start to ready.

    Returns the normalised figure (hostspeed.py; the reference kernel runs
    in this process between probes) and the raw host figure.
    """
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    speed = HostSpeed()
    samples = []
    for _ in range(spec.SETUP_PROBES):
        speed.sample(spec.SETUP_SPEED_SAMPLES)
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as probe:
            line = probe.stdout.readline()
            ready = time.perf_counter()
            probe.stdout.read()
            if probe.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed (exit {probe.returncode})")
        samples.append(ready - started)
    speed.sample(spec.SETUP_SPEED_SAMPLES)
    host_s = statistics.median(samples)
    return host_s * speed.scale(), host_s


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint() -> Dict[str, Any]:
    """What a result set is comparable across: machine, runtime, flags."""
    import platform

    import numpy

    from repro.cluster import _ckernels

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ckernels": _ckernels.load() is not None,
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


# --------------------------------------------------------------------------- #
# Tracing


def _install_layers(tracer: Any, counts: Dict[str, float]) -> None:
    """Wrap every layer in :data:`spec.LAYERS` where its consumers look it up."""
    import importlib

    def cancelled(_args: tuple, result: Any, _before: Any) -> None:
        counts["core.copies_cancelled"] += float(result[2].sum())

    def backend(args: tuple) -> str:
        return args[0].queue_backend

    def events(args: tuple, result: Any, before: str) -> None:
        counts["sim.engine.events"] += float(result)
        if before == "heap" and args[0].queue_backend == "calendar":
            counts["sim.engine.calendar_migrations"] += 1.0

    hooks = {
        "core.cancellation.simulate_cancelling_arrivals": (None, cancelled),
        "sim.engine.Simulator.run": (backend, events),
        "sim.engine.Simulator.run_until": (backend, events),
    }
    for stem, target in spec.LAYERS.items():
        module_name, qualname = target.split(":")
        module = importlib.import_module(module_name)
        pre, post = hooks.get(stem, (None, None))
        if "." in qualname:
            tracer.wrap(stem, target, pre, post)
            continue
        original = getattr(module, qualname)
        consumers = sorted(
            name for name, mod in list(sys.modules.items())
            if (name == "repro" or name.startswith("repro."))
            and getattr(mod, qualname, None) is original
        )
        for consumer in consumers:
            tracer.wrap(stem, f"{consumer}:{qualname}", pre, post)


def _traced_run(workload: Any, args: argparse.Namespace, committed: Dict[str, Dict[str, str]]):
    from tracer import Tracer

    untraced_seconds = args.seconds * spec.CALIBRATION_SHARE
    traced_seconds = args.seconds - untraced_seconds
    base = getattr(workload, "calibrate", workload.measure)(untraced_seconds, committed)
    counts = {"core.copies_cancelled": 0.0, "sim.engine.events": 0.0,
              "sim.engine.calendar_migrations": 0.0}
    with Tracer() as tracer:
        _install_layers(tracer, counts)
        run = getattr(workload, "measure_cycles", workload.measure)
        outcome = run(traced_seconds, committed)
    cycles = outcome.cycles
    metrics = {m.name: 0.0 for m in spec.LAYER_COUNTS}
    for stem in spec.LAYERS:
        stat = tracer.stat(stem)
        metrics[f"{stem}.calls"] = stat.calls / cycles
        metrics[f"{stem}.self_s"] = stat.self_s / cycles
    engine_s = tracer.stat("sim.engine.Simulator.run").total_s + tracer.stat(
        "sim.engine.Simulator.run_until").total_s
    metrics["sim.engine.events"] = counts["sim.engine.events"] / cycles
    if engine_s:
        metrics["sim.engine.events_per_s"] = counts["sim.engine.events"] / engine_s
    metrics["sim.engine.calendar_migrations"] = counts["sim.engine.calendar_migrations"] / cycles
    metrics["core.copies_cancelled"] = counts["core.copies_cancelled"] / cycles
    metrics.update(workload.layer_counts())
    metrics["trace.overhead_frac"] = outcome.cost_s / base.cost_s - 1.0
    outcome.metrics = {m.name: metrics[m.name] for m in spec.per_layer()}
    outcome.details.update(traced_cycles=cycles, untraced_cycle_s=base.cost_s,
                           traced_cycle_s=outcome.cost_s)
    outcome.attempted += base.attempted
    outcome.failed += base.failed
    outcome.problems += base.problems
    return outcome


# --------------------------------------------------------------------------- #


def _print_table(outcome: Any, table: Dict[str, spec.Metric]) -> None:
    for name, value in list(outcome.metrics.items()) + list(outcome.details.items()):
        unit = table[name].unit if name in table else ""
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<60} {shown:>14} {unit}")
    for problem in outcome.problems[:20]:
        print(f"  FAILED {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    _use_checkout()
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=BUILD)
    try:
        if args.setup_probe:
            _workload(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        if args.record_digests:
            return _record_digests(args, workdir)
        workload = _workload(args.workload, args.seed, workdir)
        committed = _load_digests()
        setup_s, setup_host_s = _setup_seconds(args)
        if args.trace:
            outcome = _traced_run(workload, args, committed)
        else:
            outcome = workload.measure(args.seconds, committed)
            outcome.metrics["peak_rss_mb"] = _peak_rss_mb()
            outcome.metrics["setup_s"] = setup_s
            outcome.details["setup_s_host"] = setup_host_s
            outcome.metrics = {m.name: outcome.metrics[m.name] for m in spec.END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    table = spec.metric_table()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    _print_table(outcome, table)
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": value, "unit": table[name].unit}
            for name, value in outcome.metrics.items()
        },
    }
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, fingerprint=fingerprint(),
                      details={k: v for k, v in outcome.details.items()
                               if isinstance(v, (int, float))})
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def _record_digests(args: argparse.Namespace, workdir: str) -> int:
    """Write every workload's default-seed digests to ``args.record_digests``."""
    digests: Dict[str, Dict[str, str]] = {}
    for name in spec.WORKLOADS:
        workload = _workload(name, spec.DEFAULT_SEED, workdir)
        if name == "serve-live":
            _seconds, _report, digest = workload.virtual()
            digests[name] = {"virtual": digest}
        else:
            digests[name] = {}
            for group in range(workload.plan.groups):
                cycle = workload.run_cycle(None, group)
                if cycle["problems"]:
                    raise SystemExit("\n".join(cycle["problems"]))
                digests[name].update(cycle["digests"])
    with open(args.record_digests, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
