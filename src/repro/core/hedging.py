"""Asyncio execution of redundant requests.

"Initiate an operation multiple times, using as diverse resources as possible,
and use the first result which completes" — this module is that sentence as
code.  Copies are launched according to a :class:`~repro.core.policy.ReplicationPolicy`
(eagerly, or hedged after a delay), the first successful completion wins, and
the losing copies are cancelled.

This is the *live* (asyncio) executor of the shared policy currency; the same
policies drive every simulator substrate and the scenario-sweep ``policy``
axis — see the :mod:`repro.core.policy` module docstring for the full list of
consumers.  One executor-specific caveat: here loser cancellation is
controlled by the ``cancel_losers`` argument (default on, Google-style)
rather than by the policy's ``cancel_on_win`` flag, which the event-driven
simulators honour.

The functions are transport-agnostic: a "backend" is any zero-argument
callable returning an awaitable, so the same client wraps DNS lookups, HTTP
fetches, database reads or anything else.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, Generic, List, Optional, Sequence, TypeVar

from repro.core.policy import KCopies, ReplicationPolicy
from repro.core.selection import SelectionStrategy, UniformRandom
from repro.exceptions import ConfigurationError
from repro.metrics import MetricsRegistry, SlidingWindow

T = TypeVar("T")

RequestFactory = Callable[[], Awaitable[T]]


@dataclass
class HedgedResult(Generic[T]):
    """Outcome of a hedged call.

    Attributes:
        value: The value returned by the winning copy.
        winner: Index (into the launched copies) of the copy that won.
        copies_launched: How many backend calls were actually started.  A
            hedge whose task was cancelled while still waiting out its delay —
            even if, by the time the winner was timed, that delay had
            numerically expired — is not counted: only copies that reached
            their backend call are.  With ``cancel_losers=False`` the count is
            taken when the winner completes, so a straggler hedge that fires
            its backend call later is not included.
        elapsed: Wall-clock seconds from the first launch to the winning
            completion.
        errors: Exceptions raised by copies that failed before the winner
            completed (empty when everything succeeded).
        copies_cancelled: How many started copies were cancelled after their
            backend call began (the cost Google's "cancel outstanding
            requests" machinery pays).
    """

    value: T
    winner: int
    copies_launched: int
    elapsed: float
    errors: List[BaseException]
    copies_cancelled: int = 0


async def first_completed(
    awaitables: Sequence[Awaitable[T]],
    cancel_losers: bool = True,
) -> T:
    """Return the result of the first awaitable to complete successfully.

    Failed copies are tolerated as long as at least one succeeds; if every
    copy fails, the exception of the last failure is raised.

    Args:
        awaitables: Non-empty sequence of awaitables to race.
        cancel_losers: Cancel the still-pending copies once a winner is found
            (the redundant-operation analogue of the paper's note that Google
            cancels outstanding partially-completed requests).

    Raises:
        ConfigurationError: If ``awaitables`` is empty.
        BaseException: The last copy's exception if all copies fail.
    """
    if not awaitables:
        raise ConfigurationError("first_completed needs at least one awaitable")
    tasks = [asyncio.ensure_future(a) for a in awaitables]
    pending = set(tasks)
    last_error: Optional[BaseException] = None
    try:
        while pending:
            done, pending = await asyncio.wait(pending, return_when=asyncio.FIRST_COMPLETED)
            for task in done:
                if task.cancelled():
                    continue
                error = task.exception()
                if error is None:
                    return task.result()
                last_error = error
        assert last_error is not None
        raise last_error
    finally:
        if cancel_losers:
            for task in tasks:
                if not task.done():
                    task.cancel()
            # Give cancelled tasks a chance to unwind so no "Task exception was
            # never retrieved" warnings leak out of the library.
            await asyncio.gather(*tasks, return_exceptions=True)


async def hedged_call(
    factories: Sequence[RequestFactory[T]],
    policy: Optional[ReplicationPolicy] = None,
    cancel_losers: bool = True,
) -> HedgedResult[T]:
    """Run redundant copies of an operation according to ``policy``.

    Args:
        factories: One zero-argument coroutine factory per *potential* copy;
            ``factories[i]`` is used for the ``i``-th launched copy.  Provide
            as many factories as the policy's ``max_copies`` (extra factories
            are ignored; too few is an error).
        policy: The replication policy; defaults to eager 2-copy replication
            (:class:`~repro.core.policy.KCopies` with ``copies=2``), the
            paper's canonical scheme.
        cancel_losers: Cancel outstanding copies once a winner completes.

    Returns:
        A :class:`HedgedResult` describing the winner.

    Raises:
        ConfigurationError: If there are fewer factories than copies.
        BaseException: If every launched copy fails, the last failure.
    """
    if policy is None:
        policy = KCopies(2)
    delays = policy.launch_delays()
    if len(factories) < len(delays):
        raise ConfigurationError(
            f"policy wants up to {len(delays)} copies but only "
            f"{len(factories)} request factories were provided"
        )

    start = time.perf_counter()
    errors: List[BaseException] = []
    launched: List[asyncio.Task] = []
    started: List[int] = []
    winner_index: Optional[int] = None
    winner_value: Optional[T] = None

    async def launch(index: int, delay: float) -> tuple[int, T]:
        if delay > 0:
            await asyncio.sleep(delay)
        # Only copies that get past their hedge delay reach the backend; the
        # append is what copies_launched counts, so a task cancelled during
        # its sleep is never mistaken for a launched copy.
        started.append(index)
        value = await factories[index]()
        return index, value

    tasks = [asyncio.ensure_future(launch(i, d)) for i, d in enumerate(delays)]
    launched.extend(tasks)
    pending = set(tasks)
    try:
        while pending and winner_index is None:
            done, pending = await asyncio.wait(pending, return_when=asyncio.FIRST_COMPLETED)
            for task in done:
                if task.cancelled():
                    continue
                error = task.exception()
                if error is not None:
                    errors.append(error)
                    continue
                winner_index, winner_value = task.result()
                break
        if winner_index is None:
            raise errors[-1]
    finally:
        if cancel_losers:
            for task in launched:
                if not task.done():
                    task.cancel()
            await asyncio.gather(*launched, return_exceptions=True)

    elapsed = time.perf_counter() - start
    started_set = set(started)
    copies_cancelled = sum(
        1 for i, task in enumerate(launched) if task.cancelled() and i in started_set
    )
    policy.record_latency(elapsed)
    return HedgedResult(
        value=winner_value,  # type: ignore[arg-type]
        winner=winner_index,
        copies_launched=len(started_set),
        elapsed=elapsed,
        errors=errors,
        copies_cancelled=copies_cancelled,
    )


class RedundantClient(Generic[T]):
    """Issue requests redundantly across a set of backends.

    A backend is a callable ``backend(key) -> awaitable``; the client picks
    which backends receive copies (via a
    :class:`~repro.core.selection.SelectionStrategy`), launches the copies
    according to its policy, returns the first completion and records the
    observed latency for adaptive policies.

    Example:
        >>> import asyncio
        >>> async def backend_a(key): return ("a", key)
        >>> async def backend_b(key): return ("b", key)
        >>> client = RedundantClient([backend_a, backend_b])
        >>> asyncio.run(client.request("x")).value[1]
        'x'
    """

    def __init__(
        self,
        backends: Sequence[Callable[..., Awaitable[T]]],
        policy: Optional[ReplicationPolicy] = None,
        selection: Optional[SelectionStrategy] = None,
        seed: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        """Create a client over ``backends``.

        Args:
            backends: Non-empty sequence of backend callables.
            policy: Replication policy (default: eager 2 copies, capped at the
                number of backends).
            selection: Backend selection strategy (default: uniform random
                distinct backends, the Section 2.1 model).
            seed: Seed for the selection strategy's randomness.
            metrics: Registry the client records into (``requests``,
                ``failed_requests``, ``copies_launched``, ``copies_cancelled``,
                ``errors`` counters and a streaming ``latency`` histogram); a
                private registry is created when omitted.
        """
        if not backends:
            raise ConfigurationError("RedundantClient needs at least one backend")
        self.backends = list(backends)
        if policy is None:
            policy = KCopies(min(2, len(self.backends)))
        self.policy = policy
        self.selection = selection or UniformRandom(seed=seed)
        self.metrics = metrics if metrics is not None else MetricsRegistry("redundant_client")
        # Cached: request() touches these per call; keep the hot path at a
        # bare increment instead of a registry lookup each time.
        self._requests = self.metrics.counter("requests")
        self._failed_requests = self.metrics.counter("failed_requests")
        self._copies_launched = self.metrics.counter("copies_launched")
        self._copies_cancelled = self.metrics.counter("copies_cancelled")
        self._errors = self.metrics.counter("errors")
        self._latency = self.metrics.histogram("latency")
        #: The most recent request latencies, in seconds.
        self.tracker = SlidingWindow(10_000)

    async def request(self, *args, key: Optional[object] = None, **kwargs) -> HedgedResult[T]:
        """Issue one redundant request.

        Args:
            *args: Positional arguments forwarded to each backend call.
            key: Optional request key.  It is used by key-aware selection
                strategies (e.g. consistent-hash primary/secondary placement)
                and, when provided, is passed to the backend as its first
                positional argument.
            **kwargs: Keyword arguments forwarded to each backend call.

        Returns:
            The :class:`HedgedResult` of the winning copy.
        """
        delays = self.policy.launch_delays()
        copies = min(len(delays), len(self.backends))
        chosen = self.selection.choose(len(self.backends), copies, key=key)
        call_args = args if key is None else (key, *args)
        factories: List[RequestFactory[T]] = [
            (lambda b=self.backends[index]: b(*call_args, **kwargs)) for index in chosen
        ]
        # Cap the policy's plan at the number of available backends, keeping
        # the launch schedule (a 3-copy policy over 2 backends degrades to a
        # 2-copy one rather than erroring).
        effective_policy: ReplicationPolicy = (
            self.policy if copies == len(delays) else _FixedDelays(delays[:copies], self.policy)
        )
        self._requests.increment()
        try:
            result = await hedged_call(factories, policy=effective_policy)
        except BaseException:
            # Fully-failed requests still show up in the registry; without
            # this an operator would read a failing client as idle.
            self._failed_requests.increment()
            raise
        self.tracker.record(result.elapsed)
        self._copies_launched.increment(result.copies_launched)
        self._copies_cancelled.increment(result.copies_cancelled)
        self._errors.increment(len(result.errors))
        self._latency.record(result.elapsed)
        return result


class _FixedDelays(ReplicationPolicy):
    """Internal adapter: a fixed launch schedule that forwards latency feedback."""

    def __init__(self, delays: Sequence[float], parent: ReplicationPolicy) -> None:
        self._delays = list(delays)
        self._parent = parent

    def launch_delays(self) -> List[float]:
        return list(self._delays)

    def record_latency(self, latency: float) -> None:
        self._parent.record_latency(latency)
