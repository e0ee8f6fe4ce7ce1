"""Event-driven hedged dispatch with cancel-on-win across FIFO servers.

:func:`simulate_hedged_arrivals` (the substrates' default hedged engine)
exploits the FIFO property that a copy's completion time is known the moment
it is dispatched.  Cancellation breaks that property *retroactively*: pulling
a queued copy out of a server shifts the start of everything queued behind
it.  This module provides the general engine for that case — a global event
loop over per-server cancellable queues:

* events are processed in ``(time, kind, seq)`` order with a fixed kind
  priority (disk completion < win < backup launch < arrival), so runs are
  deterministic for a given seed;
* a copy *in service* always runs to completion, matching
  ``sim.resources.Server.cancel`` and the paper's observation that
  cancellation saves queueing, not work already under way;
* when the first copy of a request completes ("win"), its still-**queued**
  sibling copies are removed from their servers' queues (if the policy says
  cancel-on-win), giving the capacity back to later arrivals;
* backups are suppressed exactly as in the default engine: a backup whose
  request has already completed never launches;
* adaptive-policy feedback goes through :class:`PolicyDriver`, released
  once a request has completed and no backup decision is still pending.
  This is **not** the default engine's contract: there a copy's completion
  is final the moment it is dispatched, while here a copy still queued at
  release time can later finish earlier than the latency already fed back,
  so ``hedge:p*`` policies can learn a stale latency (pinned as an expected
  failure in ``tests/test_cancellation_engine.py``).  Static policies get no
  feedback, and on them the two engines agree exactly when nothing is
  cancelled.

Substrates plug in via two callbacks: ``server_of(request, copy)`` names the
FIFO station a copy queues at, and ``begin(request, copy, at)`` performs the
dispatch-time work (cache access, service-time draw — in event order, like
the default engine) and returns either ``("done", finish_time)`` for work
that bypasses the queue (a cache hit served from memory) or
``("service", service_s, tail_s)`` for a queued job whose completion is
``entry_into_service + service_s + tail_s`` (``tail_s`` being queue-free
post-processing such as the memory copy after a disk read).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import defaultdict, deque
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.policy import PolicyDriver, ReplicationPolicy, static_launch_delays

__all__ = ["simulate_cancelling_arrivals"]

#: Event kind priorities at equal timestamps.  Background (migration) jobs
#: slot between wins and backup launches so that, at equal timestamps, they
#: join their station before any foreground dispatch — matching the "flush
#: due migration work, then serve" order of the non-cancelling engines.
_POP, _WIN, _BG, _BACKUP, _ARRIVAL = 0, 1, 2, 3, 4

#: Queue-entry states.
_QUEUED, _IN_SERVICE, _CANCELLED = 0, 1, 2

BeginResult = Union[Tuple[str, float], Tuple[str, float, float]]


def simulate_cancelling_arrivals(
    policy: ReplicationPolicy,
    arrival_times,
    max_copies: int,
    server_of: Callable[[int, int], int],
    begin: Callable[[int, int, float], BeginResult],
    on_copy_resolved: Optional[Callable[[int, int, str, float, float], None]] = None,
    background_jobs: Optional[List[Tuple[float, int, int]]] = None,
    begin_background: Optional[Callable[[int, float], BeginResult]] = None,
):
    """Drive FIFO servers through ``policy`` with cancel-on-win honoured.

    Args:
        policy: The replication policy (shared state across requests).
        arrival_times: 1-D array of request arrival times, non-decreasing.
        max_copies: Cap on copies per request; plans are truncated to it.
        server_of: ``server_of(request, copy) -> station id`` for the queue
            the copy joins.
        begin: Dispatch-time callback; see the module docstring.
        on_copy_resolved: Optional per-copy accounting hook, called the
            moment a copy's fate is sealed (in deterministic event order):
            ``on_copy_resolved(request, copy, outcome, work_s, finish_s)``
            with ``outcome`` one of ``"finished"`` (the copy enters service —
            FIFO completion is known then; ``work_s`` is its station-busy
            seconds, ``finish_s`` its absolute completion including any
            tail), ``"done"`` (queue-bypassing work; ``work_s`` is 0.0) or
            ``"cancelled"`` (withdrawn while queued; ``work_s`` is 0.0 and
            ``finish_s`` the cancellation time).  Copies whose launch was
            suppressed never reach the hook.
        background_jobs: Optional ``(time, station, job)`` triples, ascending
            in time: non-request work (e.g. churn migration reads) injected
            into station FIFOs.  Background jobs compete for service exactly
            like copies but are never cancelled, complete no request, and
            appear in none of the returned accounting arrays.  Omitting them
            leaves the engine byte-identical to earlier releases.
        begin_background: Dispatch-time callback for background jobs,
            ``begin_background(job, at) -> BeginResult`` with the same
            contract as ``begin``.  Required when ``background_jobs`` is
            non-empty.

    Returns:
        ``(finish_at, copies_launched, copies_cancelled)`` per-request
        arrays: earliest absolute completion, dispatched copies, and copies
        cancelled while still queued.
    """
    times = np.asarray(arrival_times, dtype=float)
    arrivals = times.tolist()
    num_requests = len(arrivals)
    # A static policy's schedule is resolved once; only adaptive policies
    # need per-request plans and latency feedback through the driver.
    fixed = static_launch_delays(policy, max_copies)
    driver = None if fixed is not None else PolicyDriver(policy)
    backups = () if fixed is None else tuple(enumerate(fixed[1:], start=1))
    last_plan = None
    cancel_on_win = policy.cancel_on_win
    inf = math.inf
    finish_at = [inf] * num_requests
    launched = [0] * num_requests
    cancelled = [0] * num_requests
    outstanding = [0] * num_requests
    won = [False] * num_requests
    fed_back = [False] * num_requests
    queued_entries: Dict[int, List[list]] = {}
    # Stations, keyed by id: whether a job is in service, and the queue of
    # entries ``[request, copy, service, tail, state]`` (request -1 marks a
    # background job).
    busy: Dict[int, bool] = {}
    queues: Dict[int, deque] = defaultdict(deque)

    # Events are ``(time, kind, seq, a, b)``; ``seq`` is unique, so ties are
    # broken by push order and the payload ``a, b`` is never compared.
    # Arrivals stay out of the heap: they are taken in ``(time, index)``
    # order, and since ``_ARRIVAL`` is the largest kind an arrival goes
    # after every heap event at its timestamp — exactly the order the
    # events ``(time, _ARRIVAL, index)`` would pop in, from a smaller heap.
    order = np.argsort(times, kind="stable").tolist()
    order.append(num_requests)
    arrivals.append(inf)  # sentinel: once reached, only the heap remains
    heap = []
    next_seq = itertools.count().__next__
    if background_jobs:
        if begin_background is None:
            raise ValueError("background_jobs requires begin_background")
        for when, station, job in background_jobs:
            heap.append((float(when), _BG, next_seq(), station, job))
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop

    def enter_service(station, entry: list, at: float) -> None:
        request, copy, service, tail = entry[0], entry[1], entry[2], entry[3]
        entry[4] = _IN_SERVICE
        busy[station] = True
        finish = at + service
        if request >= 0:
            done = finish + tail
            if on_copy_resolved is not None:
                on_copy_resolved(request, copy, "finished", service, done)
            if done < finish_at[request]:
                finish_at[request] = done
                heappush(heap, (done, _WIN, next_seq(), request, 0))
        heappush(heap, (finish, _POP, next_seq(), station, 0))

    def dispatch(request: int, copy: int, at: float) -> None:
        launched[request] += 1
        result = begin(request, copy, at)
        if result[0] == "done":
            done = result[1]
            if on_copy_resolved is not None:
                on_copy_resolved(request, copy, "done", 0.0, done)
            if done < finish_at[request]:
                finish_at[request] = done
                heappush(heap, (done, _WIN, next_seq(), request, 0))
            return
        _kind, service, tail = result
        station = server_of(request, copy)
        entry = [request, copy, service, tail, _QUEUED]
        if busy.get(station):
            queues[station].append(entry)
            if cancel_on_win:
                queued_entries.setdefault(request, []).append(entry)
        else:
            enter_service(station, entry, at)

    position = 0
    while True:
        a = order[position]
        at = arrivals[a]
        if heap and heap[0][0] <= at:
            at, kind, _, a, b = heappop(heap)
        elif a < num_requests:
            kind = _ARRIVAL
            position += 1
        else:
            break
        if kind == _POP:  # station ``a`` finished its in-service job
            busy[a] = False
            queue = queues[a]
            while queue:
                entry = queue.popleft()
                if entry[4] == _QUEUED:
                    enter_service(a, entry, at)
                    break
            continue
        request = a
        if kind == _WIN:
            if won[request] or finish_at[request] != at:
                continue  # a faster copy already claimed the win
            won[request] = True
            if cancel_on_win:
                for entry in queued_entries.pop(request, ()):
                    if entry[4] == _QUEUED:
                        entry[4] = _CANCELLED
                        cancelled[request] += 1
                        if on_copy_resolved is not None:
                            on_copy_resolved(request, entry[1], "cancelled", 0.0, at)
        elif kind == _ARRIVAL:
            if driver is not None:
                plan = driver.plan_for(at)
                if plan is not last_plan:
                    last_plan = plan
                    backups = tuple(enumerate(plan.launch_delays[1:max_copies], start=1))
            dispatch(request, 0, at)
            for copy, delay in backups:
                heappush(heap, (at + delay, _BACKUP, next_seq(), request, copy))
            outstanding[request] = len(backups)
        elif kind == _BACKUP:
            outstanding[request] -= 1
            if finish_at[request] > at:  # still pending: the hedge fires
                dispatch(request, b, at)
        else:  # _BG: background job ``b`` joins station ``a``
            result = begin_background(b, at)
            if result[0] != "done":
                _kind, service, tail = result
                entry = [-1, b, service, tail, _QUEUED]
                if busy.get(a):
                    queues[a].append(entry)
                else:
                    enter_service(a, entry, at)
            continue
        # Release adaptive feedback once the request completed and no backup
        # decision is still pending.
        if (
            driver is not None
            and not outstanding[request]
            and not fed_back[request]
            and finish_at[request] < inf
        ):
            fed_back[request] = True
            finish = finish_at[request]
            driver.complete(finish, finish - arrivals[request])

    return (
        np.array(finish_at, dtype=float),
        np.array(launched, dtype=np.int64),
        np.array(cancelled, dtype=np.int64),
    )
