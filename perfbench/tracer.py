"""Per-layer call counts and self time, recorded from outside the program.

A :class:`Tracer` replaces a public function or method with a wrapper at the
place where its consumer looks it up: a module global for a function that a
module imported by name, or the class attribute for a method.  Nothing in the
program changes, and an untraced run installs no wrapper at all.

Self time is a span's duration minus the part covered by traced spans it
caused.  Synchronous spans nest on one stack.  A coroutine is timed step by
step: each resumption of the wrapped coroutine is one span on the same
stack, so its self time is the host time spent running its own code, not the
time it spent suspended.
"""

from __future__ import annotations

import importlib
import inspect
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


@dataclass
class LayerStat:
    """Aggregated spans of one layer boundary."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


class _Frame:
    __slots__ = ("child_s",)

    def __init__(self) -> None:
        self.child_s = 0.0


def resolve(path: str) -> Tuple[Any, str]:
    """``"pkg.mod:Attr.sub"`` -> (owner object, final attribute name)."""
    module_name, _, attr_path = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Installs wrappers, aggregates spans, and removes every wrapper on exit.

    Hooks receive ``(args, result, before)`` after each synchronous call,
    where ``before`` is what the optional ``pre(args)`` returned; they let
    the benchmark count work (events processed, copies cancelled) at the
    same boundary the span is recorded.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStat] = {}
        self._stack: List[_Frame] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def stat(self, name: str) -> LayerStat:
        return self.stats.setdefault(name, LayerStat())

    # ------------------------------------------------------------------ #

    def wrap(
        self,
        name: str,
        site: str,
        pre: Optional[Callable[[tuple], Any]] = None,
        post: Optional[Callable[[tuple, Any, Any], None]] = None,
    ) -> None:
        """Wrap the callable at ``site`` (``"module:attr"``) as layer ``name``."""
        owner, attr = resolve(site)
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{site}: static and class methods are not traced")
        stat = self.stat(name)
        if inspect.iscoroutinefunction(original):
            wrapper = self._async_wrapper(original, stat)
        else:
            wrapper = self._sync_wrapper(original, stat, pre, post)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _close_span(self, stat: LayerStat, frame: _Frame, started: float) -> None:
        elapsed = _clock() - started
        self._stack.pop()
        stat.self_s += elapsed - frame.child_s
        stat.total_s += elapsed
        if self._stack:
            self._stack[-1].child_s += elapsed

    def _sync_wrapper(self, original, stat, pre, post):
        tracer = self

        def traced(*args, **kwargs):
            before = pre(args) if pre is not None else None
            frame = _Frame()
            tracer._stack.append(frame)
            started = _clock()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close_span(stat, frame, started)
                stat.calls += 1
            if post is not None:
                post(args, result, before)
            return result

        traced.__wrapped__ = original
        return traced

    def _async_wrapper(self, original, stat):
        tracer = self

        async def traced(*args, **kwargs):
            stat.calls += 1
            return await _TimedAwaitable(tracer, stat, original(*args, **kwargs))

        traced.__wrapped__ = original
        return traced


class _TimedAwaitable:
    """Drives a coroutine, recording each of its steps as one span."""

    __slots__ = ("_tracer", "_stat", "_coro")

    def __init__(self, tracer: Tracer, stat: LayerStat, coro: Any) -> None:
        self._tracer = tracer
        self._stat = stat
        self._coro = coro

    def __await__(self):
        coro = self._coro
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            frame = _Frame()
            self._tracer._stack.append(frame)
            started = _clock()
            try:
                if error is not None:
                    yielded = coro.throw(error)
                else:
                    yielded = coro.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                error = None
                self._tracer._close_span(self._stat, frame, started)
            try:
                value = yield yielded
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # delivered into the coroutine
                error = exc
                value = None
