"""Span aggregation of the tracer: nesting, coroutines, clean removal."""

from __future__ import annotations

import asyncio
import sys
import time
import types

import helpers  # noqa: F401  (import paths)

from tracer import Tracer


def _module():
    module = types.ModuleType("perfbench_probe")

    def inner(seconds):
        time.sleep(seconds)
        return seconds

    def outer(seconds):
        time.sleep(seconds)
        return module.inner(seconds)

    class Thing:
        async def work(self, seconds):
            time.sleep(seconds)  # host time inside a step counts
            await asyncio.sleep(0.05)  # suspended time does not
            time.sleep(seconds)
            return "done"

    module.inner, module.outer, module.Thing = inner, outer, Thing
    sys.modules[module.__name__] = module
    return module


def test_self_time_excludes_traced_children():
    module = _module()
    with Tracer() as tracer:
        tracer.wrap("inner", "perfbench_probe:inner")
        tracer.wrap("outer", "perfbench_probe:outer")
        assert module.outer(0.02) == 0.02
    inner, outer = tracer.stat("inner"), tracer.stat("outer")
    assert inner.calls == outer.calls == 1
    assert 0.015 < outer.self_s < 0.035
    assert outer.total_s >= outer.self_s + inner.self_s - 1e-6


def test_coroutine_self_time_counts_only_running_steps():
    module = _module()
    with Tracer() as tracer:
        tracer.wrap("work", "perfbench_probe:Thing.work")
        assert asyncio.run(module.Thing().work(0.01)) == "done"
    stat = tracer.stat("work")
    assert stat.calls == 1
    assert 0.015 < stat.self_s < 0.045


def test_coroutine_cancellation_reaches_the_wrapped_coroutine():
    module = _module()
    with Tracer() as tracer:
        tracer.wrap("work", "perfbench_probe:Thing.work")

        async def main():
            task = asyncio.ensure_future(module.Thing().work(0.0))
            await asyncio.sleep(0.01)
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                return "cancelled"
            return "finished"

        assert asyncio.run(main()) == "cancelled"


def test_uninstall_restores_every_site():
    module = _module()
    originals = (module.inner, module.outer, module.Thing.__dict__["work"])
    with Tracer() as tracer:
        tracer.wrap("inner", "perfbench_probe:inner")
        tracer.wrap("work", "perfbench_probe:Thing.work")
        assert module.inner is not originals[0]
    assert (module.inner, module.outer, module.Thing.__dict__["work"]) == originals
