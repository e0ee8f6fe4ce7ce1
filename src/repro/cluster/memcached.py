"""The Section 2.3 memcached experiment.

Same setup as the disk-backed database but with the store entirely in memory:
service times are a fraction of a millisecond and not very variable, so the
client-side cost of processing a second response (measured in the paper at
>= 9% of the mean service time via a "stub" build whose memcached calls are
no-ops) eats the benefit of replication.  The paper's findings reproduced
here:

* replication worsens overall performance at every load from 10% to 90%
  (Figure 12);
* at a very low (0.1%) load, replication roughly breaks even in the real build
  (the paper measures a slight benefit there), while the stub build isolates
  the pure client-side overhead (Figure 13);
* hence the threshold load is small - well below 10%.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.stats import LatencySummary
from repro.cluster.churn import (
    ChurnTimeline,
    migration_schedule,
    parse_churn,
    place_by_epoch,
    server_streams,
    spike_metrics,
    with_background,
)
from repro.cluster.consistent_hash import ConsistentHashRing
from repro.cluster.draws import sequential_finish_times
from repro.core.cancellation import simulate_cancelling_arrivals
from repro.core.policy import (
    PolicyDriver,
    PolicyLike,
    ReplicationPolicy,
    resolve_run_policy,
    run_policy_spec,
    simulate_hedged_arrivals,
)
from repro.exceptions import CapacityError, ConfigurationError
from repro.metrics import MetricsRegistry
from repro.sim.rng import substream


@dataclass(frozen=True)
class MemcachedConfig:
    """Configuration of the memcached experiment.

    Attributes:
        num_servers: Number of memcached servers.
        mean_service_s: Mean server-side service time (the paper measures
            ≈0.18 ms).
        service_spread: Half-width of the uniform body of the service time,
            as a fraction of the mean (the distribution is deliberately
            low-variance: the paper notes >99.9% of the mass lies within 4x of
            the mean).
        outlier_probability: Probability that a request hits a server-side
            outlier (GC pause, scheduling blip).
        outlier_scale_s: Mean of the exponential extra delay of an outlier.
        client_base_s: Client-side processing time for an unreplicated request
            (request serialisation, kernel, NIC).
        client_extra_copy_s: Additional client-side time per extra copy — the
            paper's stub measurement puts this at ≈0.016 ms, i.e. ≈9% of the
            mean service time.
        unmeasured_extra_copy_s: Additional per-extra-copy cost that the stub
            build cannot observe (network and kernel processing of the second
            response); the paper notes its stub figure "is an underestimate of
            the true client-side overhead" for exactly this reason.  Charged
            only in real (non-stub) runs.
        copies: Replication factor when replication is on.
        seed: Base random seed.
    """

    num_servers: int = 4
    mean_service_s: float = 0.00018
    service_spread: float = 0.3
    outlier_probability: float = 0.0005
    outlier_scale_s: float = 0.002
    client_base_s: float = 0.00004
    client_extra_copy_s: float = 0.000016
    unmeasured_extra_copy_s: float = 0.000006
    copies: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_servers < 2:
            raise ConfigurationError("need at least 2 servers to replicate across")
        if self.mean_service_s <= 0:
            raise ConfigurationError("mean_service_s must be positive")
        if not 0.0 <= self.service_spread < 1.0:
            raise ConfigurationError("service_spread must be in [0, 1)")
        if not 0.0 <= self.outlier_probability <= 1.0:
            raise ConfigurationError("outlier_probability must be in [0, 1]")
        if (
            self.outlier_scale_s < 0
            or self.client_base_s < 0
            or self.client_extra_copy_s < 0
            or self.unmeasured_extra_copy_s < 0
        ):
            raise ConfigurationError("latency parameters must be non-negative")
        if not 1 <= self.copies <= self.num_servers:
            raise ConfigurationError(
                f"copies must be in [1, {self.num_servers}], got {self.copies!r}"
            )

    def overhead_fraction(self) -> float:
        """Client overhead per extra copy as a fraction of the mean service time."""
        return self.client_extra_copy_s / self.mean_service_s

    def expected_service_s(self) -> float:
        """Mean server-side service time including the outlier contribution."""
        return self.mean_service_s + self.outlier_probability * self.outlier_scale_s


@dataclass(frozen=True)
class MemcachedRunResult:
    """Result of one (load, copies) memcached run.

    Attributes:
        load: Offered load (fraction of unreplicated capacity).
        copies: Copies per request.
        stub: Whether the run used the stub build (server calls replaced by
            no-ops, isolating client-side latency).
        response_times: Per-request response times in seconds.
        summary: Latency summary of ``response_times``.
        metrics: Snapshot of the run's metrics registry (``requests`` and
            ``copies_launched`` counters and the ``latency`` summary row).
        policy_spec: Canonical spec of the replication policy used (``None``
            for policies the spec language cannot express).
        copies_launched: Total copies actually issued (warmup included);
            under hedging, backups suppressed by a fast first response never
            launch.
        copies_cancelled: Copies cancelled while still queued after another
            copy won (warmup included); ``None`` unless the policy cancels
            on win (the event-driven cancellation engine ran).
        spike: Before/during/after p99 quantification of the membership-event
            latency spike (see :func:`repro.cluster.churn.spike_metrics`);
            ``None`` unless the run had a churn timeline.
    """

    load: float
    copies: int
    stub: bool
    response_times: np.ndarray
    summary: LatencySummary
    metrics: Optional[Dict[str, object]] = None
    policy_spec: Optional[str] = None
    copies_launched: Optional[int] = None
    copies_cancelled: Optional[int] = None
    spike: Optional[Dict[str, float]] = None

    @property
    def mean(self) -> float:
        """Mean response time in seconds."""
        return self.summary.mean


def _cold_until(
    replicas: np.ndarray,
    key_ids: np.ndarray,
    num_keys: int,
    mig_times: np.ndarray,
    mig_servers: np.ndarray,
    mig_keys: np.ndarray,
) -> np.ndarray:
    """Until when each copy's ``(server, key)`` pair is cold (``-inf``: never).

    A pair is cold from the membership event until its migration SET is
    scheduled; the earliest schedule wins if several events move it (the
    migration stream is in time order, so that is the first occurrence).
    """
    cold_until = np.full(replicas.shape, -np.inf)
    if not len(mig_times):
        return cold_until
    pairs, first = np.unique(mig_servers * num_keys + mig_keys, return_index=True)
    wanted = replicas * num_keys + key_ids[:, None]
    index = np.minimum(np.searchsorted(pairs, wanted), len(pairs) - 1)
    found = pairs[index] == wanted
    cold_until[found] = mig_times[first[index[found]]]
    return cold_until


class MemcachedExperiment:
    """Drives the in-memory store model across loads and copy counts."""

    def __init__(self, config: Optional[MemcachedConfig] = None) -> None:
        """Create the experiment (default configuration = the paper's)."""
        self.config = config or MemcachedConfig()

    def _sample_service(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw server-side service times: a narrow uniform body plus rare outliers."""
        config = self.config
        spread = config.mean_service_s * config.service_spread
        body = rng.uniform(config.mean_service_s - spread, config.mean_service_s + spread, count)
        outliers = rng.random(count) < config.outlier_probability
        extra = rng.exponential(config.outlier_scale_s, count) * outliers
        return body + extra

    def run(
        self,
        load: float,
        copies: Optional[int] = None,
        stub: bool = False,
        num_requests: int = 50_000,
        warmup_fraction: float = 0.1,
        policy: Optional[PolicyLike] = None,
        churn: Optional[Union[str, ChurnTimeline]] = None,
        migration_rate: float = 2000.0,
        num_keys: int = 20_000,
        cold_penalty_s: float = 0.002,
    ) -> MemcachedRunResult:
        """Simulate the memcached cluster at one load.

        A static run is a run with one epoch and no migration SETs; it keeps
        its own random placement (each request picks ``k`` distinct servers
        uniformly).  Eager runs go through a batched per-server FIFO kernel,
        cancel-on-win hedges through
        :func:`~repro.core.cancellation.simulate_cancelling_arrivals`, and
        other hedges through :func:`~repro.core.policy.simulate_hedged_arrivals`.

        Args:
            load: Offered load as a fraction of unreplicated capacity.
            copies: Eager copies per request (defaults to the config's value);
                mutually exclusive with ``policy``.
            stub: Run the stub build: server calls return immediately, so the
                response time is pure client-side processing (Figure 13).
            num_requests: Requests to simulate.
            warmup_fraction: Leading fraction of requests discarded.
            policy: A :class:`~repro.core.policy.ReplicationPolicy` or spec
                string.  Eager policies are the same run as ``copies``.
                Under hedging, a backup GET launches only if
                the first response is still outstanding after the hedge delay
                — in the stub build the call returns in tens of microseconds,
                so hedged backups are almost always suppressed and the run
                isolates how little of the stub overhead a hedging client
                would actually pay.
            churn: A membership-event timeline — a
                :class:`~repro.cluster.churn.ChurnTimeline` or spec string
                like ``"crash:1@0.4"`` (times are fractions of the arrival
                horizon).  Churn runs place keys on a consistent-hash ring
                over a ``num_keys`` keyspace (instead of the static runs'
                random placement): keys re-home per the live ring each
                epoch, migration SETs compete with foreground GETs in the
                gaining servers' FIFOs, and a GET served by a gaining server
                before its key's migration SET is scheduled pays
                ``cold_penalty_s`` (fetch-through from a surviving replica).
                Remove and crash are identical here (fail-stop, no drain), so
                crash-at-t is byte-identical to remove-at-t.
            migration_rate: Migration SETs per second per gaining server.
            num_keys: Keyspace size of churn runs.
            cold_penalty_s: Server-side cost of a pre-migration cold read.

        Raises:
            CapacityError: If the offered load saturates the servers.
            ConfigurationError: If ``churn`` is combined with ``stub`` (the
                stub build has no servers to re-home keys across).
        """
        config = self.config
        hedged, k = resolve_run_policy(policy, copies, default_copies=config.copies)
        if not 1 <= k <= config.num_servers:
            raise ConfigurationError(f"copies must be in [1, {config.num_servers}], got {k!r}")
        if load <= 0:
            raise ConfigurationError(f"load must be positive, got {load!r}")
        eager_util = load if hedged is not None else k * load
        if not stub and eager_util >= 0.98:
            raise CapacityError(
                f"load {load:.2f} with {k} copies saturates the servers"
            )
        if num_keys < 1:
            raise ConfigurationError(f"num_keys must be >= 1, got {num_keys!r}")
        if cold_penalty_s < 0:
            raise ConfigurationError(
                f"cold_penalty_s must be >= 0, got {cold_penalty_s!r}"
            )

        timeline = parse_churn(churn)
        if timeline:
            if stub:
                raise ConfigurationError("churn is not meaningful in the stub build")
            rings = timeline.epoch_rings(config.num_servers)
            server_ids = timeline.all_servers(config.num_servers)
            min_live = min(ring.num_servers for ring in rings)
            if k > min_live:
                raise ConfigurationError(
                    f"copies={k} exceeds the {min_live} servers live in the "
                    f"smallest epoch of churn {timeline.spec()!r}"
                )
        else:
            rings = []
            server_ids = list(range(config.num_servers))

        arrivals_rng = substream(config.seed, "arrivals", load, k, stub)
        service_rng = substream(config.seed, "service", load, k, stub)
        total_rate = config.num_servers * load / config.expected_service_s()
        arrival_times = np.cumsum(arrivals_rng.exponential(1.0 / total_rate, num_requests))
        event_times = timeline.event_times(float(arrival_times[-1])) if timeline else np.empty(0)
        real_extra_s = config.client_extra_copy_s + config.unmeasured_extra_copy_s

        total_cancelled: Optional[int] = None
        num_migrations = 0
        if stub:
            response, total_launched = self._stub(hedged, k, arrival_times, service_rng)
        else:
            service_times = self._sample_service(service_rng, num_requests * k).reshape(
                num_requests, k
            )
            replicas, migrations, cold_until = self._placement(
                load, k, arrival_times, rings, event_times, num_keys, migration_rate
            )
            mig_times, mig_servers, mig_services = migrations
            num_migrations = len(mig_times)

            if hedged is None:
                finish = self._eager(
                    replicas, arrival_times, service_times, migrations, server_ids
                )
                elapsed = finish - arrival_times[:, None]
                if cold_until is not None:
                    # The fetch-through from a surviving replica is time the
                    # *client* waits, not time the gaining server is busy:
                    # it adds to the copy's completion but does not occupy
                    # the FIFO (so a failover cannot saturate the pool
                    # through the penalty alone).
                    elapsed += np.where(arrival_times[:, None] < cold_until, cold_penalty_s, 0.0)
                response = elapsed.min(axis=1) + (config.client_base_s + real_extra_s * (k - 1))
                total_launched = num_requests * k
            else:

                def cold_tail(request: int, copy: int, at: float) -> float:
                    if cold_until is not None and at < cold_until.item(request, copy):
                        return cold_penalty_s
                    return 0.0

                if hedged.cancel_on_win:
                    # Cancellation retroactively shifts queued starts, so the
                    # known-completion FIFO engine cannot express it; run the
                    # event-driven cancellable engine.  Service times stay
                    # pre-drawn per (request, copy), so the two engines agree
                    # on what each copy would have cost.
                    def server_index(request: int, copy: int) -> int:
                        return replicas.item(request, copy)

                    def begin(request: int, copy: int, at: float):
                        service = service_times.item(request, copy)
                        return ("service", service, cold_tail(request, copy, at))

                    def begin_background(job: int, at: float):
                        return ("service", float(mig_services[job]), 0.0)

                    finish_at, launched_arr, cancelled_arr = simulate_cancelling_arrivals(
                        hedged,
                        arrival_times,
                        k,
                        server_index,
                        begin,
                        background_jobs=[
                            (float(mig_times[j]), int(mig_servers[j]), j)
                            for j in range(num_migrations)
                        ],
                        begin_background=begin_background,
                    )
                    # Cancelled copies never return a response, so they carry
                    # no per-copy client combining overhead.
                    billable = launched_arr - cancelled_arr
                    total_cancelled = int(cancelled_arr.sum())
                else:
                    free_at = {server_id: 0.0 for server_id in server_ids}
                    # simulate_hedged_arrivals calls launch in global time
                    # order, so serving the migration SETs due by each
                    # dispatch first keeps every FIFO in time order.
                    pending = deque(
                        zip(mig_times.tolist(), mig_servers.tolist(), mig_services.tolist())
                    )

                    def launch(request: int, copy: int, at: float) -> float:
                        while pending and pending[0][0] <= at:
                            when, server, service = pending.popleft()
                            start = free_at[server] if free_at[server] > when else when
                            free_at[server] = start + service
                        server = replicas.item(request, copy)
                        start = free_at[server] if free_at[server] > at else at
                        finish = start + service_times.item(request, copy)
                        free_at[server] = finish
                        return finish + cold_tail(request, copy, at)

                    finish_at, launched_arr = simulate_hedged_arrivals(
                        hedged, arrival_times, k, launch
                    )
                    billable = launched_arr
                response = (
                    (finish_at - arrival_times)
                    + config.client_base_s
                    + real_extra_s * (billable - 1)
                )
                total_launched = int(launched_arr.sum())

        start_index = int(num_requests * warmup_fraction)
        retained = response[start_index:]
        registry = MetricsRegistry("memcached")
        registry.counter("requests").increment(num_requests)
        registry.counter("copies_launched").increment(total_launched)
        if timeline:
            registry.counter("migration_jobs").increment(num_migrations)
        recorder = registry.recorder("latency")
        recorder.record_many(retained)
        return MemcachedRunResult(
            load=float(load),
            copies=k,
            stub=stub,
            response_times=retained,
            summary=recorder.summary(),
            metrics=registry.snapshot(),
            policy_spec=run_policy_spec(hedged, k),
            copies_launched=total_launched,
            copies_cancelled=total_cancelled,
            spike=(
                spike_metrics(arrival_times[start_index:], retained, event_times)
                if timeline
                else None
            ),
        )

    def _placement(
        self,
        load: float,
        k: int,
        arrival_times: np.ndarray,
        rings: Sequence[ConsistentHashRing],
        event_times: np.ndarray,
        num_keys: int,
        migration_rate: float,
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray, np.ndarray], Optional[np.ndarray]]:
        """Replica servers of every request, and the run's migration SETs.

        A static run (no ``rings``) sends each request to ``k`` distinct
        servers drawn uniformly at random and migrates nothing.  A churn run
        draws a key per request from a ``num_keys`` keyspace and sends it to
        the replica set of the ring live at its arrival.

        Returns:
            ``(replicas, (mig_times, mig_servers, mig_services), cold_until)``:
            the ``(n, k)`` server of every copy, the migration SETs in time
            order, and until when each copy's ``(server, key)`` pair is cold
            (``None`` for a static run).
        """
        config = self.config
        num_requests = len(arrival_times)
        if not rings:
            placement_rng = substream(config.seed, "placement", load, k, False)
            replicas = self._choose_servers(placement_rng, num_requests, k)
            empty = np.empty(0)
            return replicas, (empty, np.empty(0, dtype=np.int64), empty), None
        keys_rng = substream(config.seed, "keys", load, k)
        key_ids = keys_rng.integers(0, num_keys, size=num_requests)
        epoch_of = np.searchsorted(event_times, arrival_times, side="right")
        replicas = place_by_epoch(
            np.empty((num_requests, k), dtype=np.int64), rings, epoch_of, key_ids
        )
        horizon = float(arrival_times[-1])
        mig_times, mig_servers, mig_keys = migration_schedule(
            rings, event_times, num_keys, migration_rate, horizon
        )
        migration_rng = substream(config.seed, "migration", load, k)
        mig_services = self._sample_service(migration_rng, len(mig_times))
        cold_until = _cold_until(replicas, key_ids, num_keys, mig_times, mig_servers, mig_keys)
        return replicas, (mig_times, mig_servers, mig_services), cold_until

    def _stub(
        self,
        hedged: Optional[ReplicationPolicy],
        k: int,
        arrival_times: np.ndarray,
        service_rng: np.random.Generator,
    ) -> Tuple[np.ndarray, int]:
        """Response times and copies launched of the stub build.

        The memcached call is a no-op, so the response time is client
        processing only (plus its own small jitter).
        """
        config = self.config
        num_requests = len(arrival_times)
        jitter = service_rng.uniform(0.8, 1.2, num_requests)
        if hedged is None:
            client_time = config.client_base_s + config.client_extra_copy_s * (k - 1)
            return client_time * jitter, num_requests * k
        driver = PolicyDriver(hedged)
        response = np.empty(num_requests)
        total_launched = 0
        base = config.client_base_s
        for i in range(num_requests):
            plan = driver.plan_for(arrival_times[i])
            first = base * jitter[i]
            extras = sum(1 for d in plan.launch_delays[1:k] if d < first)
            value = (base + config.client_extra_copy_s * extras) * jitter[i]
            response[i] = value
            total_launched += 1 + extras
            driver.complete(arrival_times[i] + value, value)
        return response, total_launched

    def _eager(
        self,
        replicas: np.ndarray,
        arrival_times: np.ndarray,
        service_times: np.ndarray,
        migrations: Tuple[np.ndarray, np.ndarray, np.ndarray],
        server_ids: Sequence[int],
    ) -> np.ndarray:
        """Finish time of every eager copy, bit-for-bit the scalar FIFO loop.

        Each copy (and each migration SET) touches exactly one server's FIFO
        queue, so the busy-period recursion over each server's stream
        (:func:`~repro.cluster.churn.server_streams`) reproduces serving
        every access one by one in arrival order.

        Args:
            replicas: ``(n, k)`` server of every copy.
            arrival_times: Request arrival times.
            service_times: ``(n, k)`` service time of every copy.
            migrations: ``(times, servers, services)`` of the migration SETs.
            server_ids: Every server live at any point of the run.

        Returns:
            ``(n, k)`` absolute finish times.
        """
        n, k = replicas.shape
        mig_times, mig_servers, mig_services = migrations
        num_migrations = len(mig_times)
        servers = with_background(mig_servers, replicas.ravel())
        times = with_background(mig_times, np.repeat(arrival_times, k))
        services = with_background(mig_services, service_times.ravel())
        finish = np.empty(len(times))
        for _server, pos in server_streams(servers, times, num_migrations, server_ids):
            finish[pos] = sequential_finish_times(times[pos], services[pos])
        return finish[num_migrations:].reshape(n, k)

    def _choose_servers(
        self, rng: np.random.Generator, num_requests: int, copies: int
    ) -> np.ndarray:
        if copies == 1:
            return rng.integers(0, self.config.num_servers, size=(num_requests, 1))
        scores = rng.random((num_requests, self.config.num_servers))
        return np.argpartition(scores, copies - 1, axis=1)[:, :copies]

    def sweep(
        self,
        loads: Sequence[float],
        copies_list: Sequence[int] = (1, 2),
        num_requests: int = 50_000,
    ) -> Dict[int, List[MemcachedRunResult]]:
        """Load sweep per copy count, skipping saturated points (Figure 12)."""
        results: Dict[int, List[MemcachedRunResult]] = {}
        for k in copies_list:
            per_copy: List[MemcachedRunResult] = []
            for load in loads:
                try:
                    per_copy.append(self.run(load, copies=k, num_requests=num_requests))
                except CapacityError:
                    continue
            results[int(k)] = per_copy
        return results

    def stub_comparison(
        self, load: float = 0.001, num_requests: int = 50_000
    ) -> Dict[str, MemcachedRunResult]:
        """The Figure 13 comparison: real vs stub builds, 1 vs 2 copies, at low load.

        Returns:
            A dict with keys ``"real_1"``, ``"real_2"``, ``"stub_1"``, ``"stub_2"``.
        """
        return {
            "real_1": self.run(load, copies=1, stub=False, num_requests=num_requests),
            "real_2": self.run(load, copies=2, stub=False, num_requests=num_requests),
            "stub_1": self.run(load, copies=1, stub=True, num_requests=num_requests),
            "stub_2": self.run(load, copies=2, stub=True, num_requests=num_requests),
        }
