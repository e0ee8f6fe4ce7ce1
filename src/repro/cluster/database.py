"""The Section 2.2 disk-backed database experiment.

A set of storage servers hosts a static collection of files placed by
consistent hashing, with the replica of every file on the successor server.
Open-loop Poisson clients read files chosen uniformly at random; in the
replicated configuration every read is sent to both the primary and the
secondary and the first response wins, at the price of the client processing
two responses.

The experiment driver reproduces the paper's configurations (Figures 5-11) via
named constructors on :class:`DatabaseClusterConfig` and reports the same
quantities the figures plot: mean and 99.9th-percentile response time versus
load, and the response-time CDF at 20% load.

Replication is expressed as a :class:`~repro.core.policy.ReplicationPolicy`:
``run(load, policy="hedge:10ms")`` defers the secondary read until the primary
has been outstanding for 10 ms, while ``copies=k`` (the paper's eager scheme)
stays supported as sugar for ``policy="k<N>"``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.stats import LatencySummary
from repro.cluster.cache import LRUByteCache
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
from repro.cluster.draws import exact_disk_services, sequential_finish_times
from repro.cluster.lru_kernel import equal_item_capacity, lru_hit_flags
from repro.core.cancellation import simulate_cancelling_arrivals
from repro.core.policy import (
    PolicyLike,
    resolve_run_policy,
    run_policy_spec,
    simulate_hedged_arrivals,
)
from repro.metrics import MetricsRegistry
from repro.cluster.disk import DiskModel
from repro.cluster.storage_server import StorageServerModel
from repro.distributions.base import Distribution
from repro.exceptions import CapacityError, ConfigurationError
from repro.sim.rng import substream
from repro.workloads.filesets import FileSet


@dataclass(frozen=True)
class DatabaseClusterConfig:
    """Configuration of the disk-backed database experiment.

    The defaults are the paper's base configuration (Figure 5): 4 servers,
    10 clients, deterministic 4 KB files, cache:data ratio 0.1, dedicated
    hardware.  Named constructors produce the variations of Figures 6-11.

    Attributes:
        num_servers: Number of storage servers.
        num_clients: Number of client nodes (affects only how the aggregate
            arrival rate is split; clients are open-loop).
        num_files: Number of files in the collection (the simulation keeps the
            cache:data *ratio* of the paper rather than its absolute sizes).
        mean_file_bytes: Mean file size.
        file_size_distribution: Distribution of file sizes (``None`` =
            deterministic, the base configuration).
        cache_to_data_ratio: Aggregate cache capacity divided by aggregate
            data-set size (0.1 base, 0.01 in Figure 8, 2 in Figure 11).
        disk: Disk service-time model.
        memory_service_s: Service time of a cache hit.
        noise_probability: Probability of noisy-neighbour interference on a
            disk access (0 on dedicated hardware, > 0 for the EC2 config).
        noise_multiplier_mean: Mean exponential multiplier for interfered
            accesses.
        client_cpu_overhead_s: Fixed client-side CPU/kernel cost per *extra*
            response processed.
        client_bandwidth_bytes_per_s: Client access-link bandwidth, charging
            each extra response's transfer against the client.
        copies: Replication factor when replication is on (the paper uses 2).
        seed: Base random seed.
    """

    num_servers: int = 4
    num_clients: int = 10
    num_files: int = 100_000
    mean_file_bytes: float = 4_000.0
    file_size_distribution: Optional[Distribution] = None
    cache_to_data_ratio: float = 0.1
    disk: DiskModel = field(default_factory=DiskModel)
    memory_service_s: float = 0.0002
    noise_probability: float = 0.0
    noise_multiplier_mean: float = 8.0
    client_cpu_overhead_s: float = 0.00003
    client_bandwidth_bytes_per_s: float = 125e6
    copies: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_servers < 2:
            raise ConfigurationError("need at least 2 servers for primary/secondary placement")
        if self.num_clients < 1:
            raise ConfigurationError("need at least 1 client")
        if self.num_files < 1:
            raise ConfigurationError("need at least 1 file")
        if self.mean_file_bytes <= 0:
            raise ConfigurationError("mean_file_bytes must be positive")
        if self.cache_to_data_ratio <= 0:
            raise ConfigurationError("cache_to_data_ratio must be positive")
        if self.copies < 1 or self.copies > self.num_servers:
            raise ConfigurationError(
                f"copies must be in [1, {self.num_servers}], got {self.copies!r}"
            )

    # --------------------------- paper configurations --------------------- #

    @classmethod
    def base(cls, **overrides) -> "DatabaseClusterConfig":
        """Figure 5: the base configuration."""
        return cls(**overrides)

    @classmethod
    def small_files(cls, **overrides) -> "DatabaseClusterConfig":
        """Figure 6: mean file size 0.04 KB instead of 4 KB."""
        return cls(mean_file_bytes=40.0, **overrides)

    @classmethod
    def pareto_files(cls, **overrides) -> "DatabaseClusterConfig":
        """Figure 7: Pareto file-size distribution instead of deterministic."""
        from repro.distributions.standard import Pareto

        return cls(file_size_distribution=Pareto(alpha=2.1, mean=1.0), **overrides)

    @classmethod
    def small_cache(cls, **overrides) -> "DatabaseClusterConfig":
        """Figure 8: cache:data ratio 0.01 (more accesses hit disk)."""
        return cls(cache_to_data_ratio=0.01, **overrides)

    @classmethod
    def ec2(cls, **overrides) -> "DatabaseClusterConfig":
        """Figure 9: shared (EC2-like) servers with noisy-neighbour interference."""
        return cls(noise_probability=0.05, noise_multiplier_mean=8.0, **overrides)

    @classmethod
    def large_files(cls, **overrides) -> "DatabaseClusterConfig":
        """Figure 10: mean file size 400 KB (client overhead becomes significant)."""
        return cls(mean_file_bytes=400_000.0, **overrides)

    @classmethod
    def all_cached(cls, **overrides) -> "DatabaseClusterConfig":
        """Figure 11: cache:data ratio 2 (the whole data set fits in memory)."""
        return cls(cache_to_data_ratio=2.0, **overrides)

    # ----------------------------- derived values ------------------------- #

    @property
    def total_data_bytes(self) -> float:
        """Aggregate size of the file collection."""
        return self.num_files * self.mean_file_bytes

    @property
    def cache_bytes_per_server(self) -> float:
        """Per-server page-cache capacity implied by the cache:data ratio."""
        return self.cache_to_data_ratio * self.total_data_bytes / self.num_servers

    def expected_hit_ratio(self, copies: int) -> float:
        """Rough steady-state cache hit ratio for load calibration.

        With uniform popularity and LRU, a server's hit ratio is approximately
        its cache capacity divided by the size of the data it actually serves:
        its primary share when queries are unreplicated, primary plus secondary
        share when every query is replicated.
        """
        served_fraction = min(copies, 2) / self.num_servers
        served_bytes = served_fraction * self.total_data_bytes
        return min(1.0, self.cache_bytes_per_server / served_bytes)

    def expected_service_time(self, copies: int = 1) -> float:
        """Expected per-request service time at the bottleneck resource.

        Used to convert the paper's "load" axis into an arrival rate: load is
        defined as (arrival rate per server) x (expected unreplicated service
        time per request).
        """
        hit = self.expected_hit_ratio(copies)
        miss_service = self.disk.mean_service_time(self.mean_file_bytes) * (
            1.0 + self.noise_probability * self.noise_multiplier_mean
        )
        return hit * self.memory_service_s + (1.0 - hit) * miss_service

    def client_overhead_per_extra_copy(self) -> float:
        """Client-side latency cost of processing one extra response."""
        return (
            self.client_cpu_overhead_s
            + self.mean_file_bytes / self.client_bandwidth_bytes_per_s
        )


@dataclass(frozen=True)
class DatabaseRunResult:
    """Result of one (load, copies) run of the database experiment.

    Attributes:
        load: Offered load (fraction of unreplicated capacity).
        copies: Number of copies each read was sent to.
        response_times: Per-request response times in seconds (warmup removed).
        summary: Latency summary of ``response_times``.
        cache_hit_ratio: Aggregate cache hit ratio observed across servers.
        metrics: Snapshot of the run's metrics registry (``requests``,
            ``cache_hits``, ``cache_misses`` counters and the ``latency``
            summary row).
        policy_spec: Canonical spec of the replication policy used (``None``
            for policies the spec language cannot express).
        copies_launched: Total reads actually dispatched (warmup included);
            smaller than ``copies * num_requests`` under hedging because
            suppressed backups never launch.
        copies_cancelled: Reads cancelled while still queued after another
            copy won (warmup included); ``None`` unless the policy cancels
            on win (the event-driven cancellation engine ran).
        spike: Before/during/after p99 quantification of the membership-event
            latency spike (see :func:`repro.cluster.churn.spike_metrics`);
            ``None`` unless the run had a churn timeline.
    """

    load: float
    copies: int
    response_times: np.ndarray
    summary: LatencySummary
    cache_hit_ratio: float
    metrics: Optional[Dict[str, object]] = None
    policy_spec: Optional[str] = None
    copies_launched: Optional[int] = None
    copies_cancelled: Optional[int] = None
    spike: Optional[Dict[str, float]] = None

    @property
    def mean(self) -> float:
        """Mean response time in seconds."""
        return self.summary.mean

    @property
    def p999(self) -> float:
        """99.9th percentile response time in seconds."""
        return self.summary.p999


# Initial-ring placement memo shared across experiment instances, keyed by
# (num_servers, virtual_nodes, num_files, copies).  Entries are read-only.
_PLACEMENT_CACHE: Dict[Tuple[int, int, int, int], np.ndarray] = {}


class DatabaseClusterExperiment:
    """Drives the disk-backed database model across loads and copy counts."""

    def __init__(self, config: DatabaseClusterConfig) -> None:
        """Create an experiment for ``config``."""
        self.config = config
        self._ring = ConsistentHashRing(config.num_servers)
        self._fileset = self._build_fileset()

    # ------------------------------------------------------------------ #

    def _build_fileset(self) -> FileSet:
        config = self.config
        if config.file_size_distribution is None:
            sizes = np.full(config.num_files, float(config.mean_file_bytes))
        else:
            rng = substream(config.seed, "file-sizes")
            scaled = config.file_size_distribution.scaled_to_mean(config.mean_file_bytes)
            sizes = np.maximum(np.asarray(scaled.sample(rng, config.num_files), dtype=float), 1.0)
        return FileSet(sizes_bytes=sizes)

    def _static_replicas(self, copies: int) -> np.ndarray:
        """``(num_files, copies)`` replica sets of every file on the initial ring.

        The placement depends only on the ring geometry, the file count and
        the copy count, so it is memoised at module level (a sweep re-creates
        the experiment per point, and re-hashing 100k file ids per point is
        pure overhead).
        """
        config = self.config
        key = (config.num_servers, self._ring.virtual_nodes, config.num_files, copies)
        table = _PLACEMENT_CACHE.get(key)
        if table is None:
            table = self._ring.replica_table(range(config.num_files), copies)
            _PLACEMENT_CACHE[key] = table
        return table

    def _server(self, server_id: int, run_seed: Tuple[int, ...]) -> StorageServerModel:
        config = self.config
        return StorageServerModel(
            server_id=server_id,
            cache_bytes=config.cache_bytes_per_server,
            disk=config.disk,
            memory_service_s=config.memory_service_s,
            noise_probability=config.noise_probability,
            noise_multiplier_mean=config.noise_multiplier_mean,
            rng=substream(config.seed, "server", server_id, *run_seed),
        )

    def _warm_orders(self, copies: int) -> List[np.ndarray]:
        """Cache-warm file order of each initial server, by server id.

        Every cache starts pre-filled with a random sample of the files its
        server holds under the initial placement (its primaries, plus its
        secondaries when reads are replicated).  Skipping the cold-start
        transient keeps short runs representative of steady state (the paper
        measures a long-running warmed system).  Servers added mid-run are
        not listed: they start cold.
        """
        config = self.config
        rng = substream(config.seed, "cache-warm")
        held = self._static_replicas(copies).T[:2]
        orders = []
        for server_id in range(config.num_servers):
            mask = held[0] == server_id
            for column in held[1:]:
                mask |= column == server_id
            candidates = np.flatnonzero(mask)
            if candidates.size:
                rng.shuffle(candidates)
            orders.append(candidates)
        return orders

    # ------------------------------------------------------------------ #

    def run(
        self,
        load: float,
        copies: Optional[int] = None,
        num_requests: int = 40_000,
        warmup_fraction: float = 0.2,
        policy: Optional[PolicyLike] = None,
        churn: Optional[Union[str, ChurnTimeline]] = None,
        migration_rate: float = 50.0,
    ) -> DatabaseRunResult:
        """Simulate the cluster at one load.

        A static run is a run with one epoch: the initial ring and no
        migration reads.  Eager runs go through a batched per-server kernel,
        cancel-on-win hedges through
        :func:`~repro.core.cancellation.simulate_cancelling_arrivals`, and
        other hedges through :func:`~repro.core.policy.simulate_hedged_arrivals`
        with one :class:`~repro.cluster.storage_server.StorageServerModel` per
        server.

        Args:
            load: Offered load as a fraction of unreplicated capacity, in
                ``(0, 1)``; with ``copies`` eager copies the bottleneck
                utilisation is roughly ``copies * load``, so replicated runs
                are only stable below ``1 / copies``.
            copies: Eager copies per request (defaults to the config's value);
                mutually exclusive with ``policy``.
            num_requests: Number of client requests to simulate.
            warmup_fraction: Leading fraction of requests discarded.
            policy: A :class:`~repro.core.policy.ReplicationPolicy` or spec
                string (``"none"``, ``"k2"``, ``"hedge:10ms"``,
                ``"hedge:p95"``).  Eager policies are the same run as
                ``copies``; hedging policies defer the secondary read and
                suppress it when the primary answered first, charging client
                overhead only for responses actually processed.
            churn: A membership-event timeline — a
                :class:`~repro.cluster.churn.ChurnTimeline` or spec string
                like ``"remove:2@0.4"`` (times are fractions of the arrival
                horizon).  Keys are re-homed per the live ring each epoch,
                migration reads compete with foreground requests on the
                gaining servers' disks (and warm their LRU caches), and
                servers added mid-run start cold.  Remove and crash are
                identical here (fail-stop, no drain).  An empty timeline is
                exactly the static run.
            migration_rate: Migration reads per second per gaining server.

        Returns:
            A :class:`DatabaseRunResult`.

        Raises:
            CapacityError: If the replicated load would saturate the disks.
        """
        config = self.config
        hedged, k = resolve_run_policy(policy, copies, default_copies=config.copies)
        if not 1 <= k <= config.num_servers:
            raise ConfigurationError(f"copies must be in [1, {config.num_servers}], got {k!r}")
        if load <= 0:
            raise ConfigurationError(f"load must be positive, got {load!r}")
        if hedged is None:
            effective_load = (
                load * k * config.expected_service_time(k) / config.expected_service_time(1)
            )
        else:
            # Hedged backups launch only for slow requests, so only the
            # unconditional baseline utilisation can be rejected up front.
            effective_load = load
        if effective_load >= 0.98:
            raise CapacityError(
                f"load {load:.2f} with {k} copies gives bottleneck utilisation "
                f"~{effective_load:.2f}; the system has no steady state there"
            )
        if num_requests < 100:
            raise ConfigurationError(f"num_requests must be >= 100, got {num_requests!r}")

        timeline = parse_churn(churn)
        if timeline:
            rings = timeline.epoch_rings(config.num_servers, self._ring.virtual_nodes)
            server_ids = timeline.all_servers(config.num_servers)
            min_live = min(ring.num_servers for ring in rings)
            if k > min_live:
                raise ConfigurationError(
                    f"copies={k} exceeds the {min_live} servers live in the "
                    f"smallest epoch of churn {timeline.spec()!r}"
                )
        else:
            rings = [self._ring]
            server_ids = list(range(config.num_servers))

        arrivals_rng = substream(config.seed, "arrivals", load)
        keys_rng = substream(config.seed, "keys", load)
        total_rate = config.num_servers * load / config.expected_service_time(1)
        arrival_times = np.cumsum(arrivals_rng.exponential(1.0 / total_rate, num_requests))
        file_ids = keys_rng.integers(0, config.num_files, size=num_requests)
        sizes = self._fileset.sizes_bytes[file_ids]

        horizon = float(arrival_times[-1])
        event_times = timeline.event_times(horizon) if timeline else np.empty(0)
        epoch_of = np.searchsorted(event_times, arrival_times, side="right")
        replicas = np.take(self._static_replicas(k), file_ids, axis=0)
        place_by_epoch(replicas, rings, epoch_of, file_ids, first_epoch=1)
        mig_times, mig_servers, mig_files = migration_schedule(
            rings, event_times, config.num_files, migration_rate, horizon
        )
        mig_sizes = self._fileset.sizes_bytes[mig_files]
        num_migrations = len(mig_times)

        run_seed = (k, hash(round(load, 6)) & 0xFFFF)
        warm = self._warm_orders(k)
        overhead_unit = config.client_overhead_per_extra_copy()
        total_cancelled: Optional[int] = None
        if hedged is None:
            best, hits, misses = self._eager(
                replicas, arrival_times, file_ids, (mig_times, mig_servers, mig_files),
                server_ids, warm, run_seed,
            )
            response = best + overhead_unit * (k - 1)
            total_launched = num_requests * k
        else:
            all_sizes = self._fileset.sizes_bytes
            servers = {server_id: self._server(server_id, run_seed) for server_id in server_ids}
            for server_id, order in enumerate(warm):
                servers[server_id].cache.warm_with((int(f), float(all_sizes[f])) for f in order)
            jobs = list(
                zip(mig_times.tolist(), mig_servers.tolist(), mig_files.tolist(), mig_sizes.tolist())
            )

            if hedged.cancel_on_win:
                # Cancellation retroactively shifts queued starts, so the
                # known-completion FIFO engine cannot express it; run the
                # event-driven cancellable engine instead.
                def server_index(request: int, copy: int) -> int:
                    return replicas.item(request, copy)

                def begin(request: int, copy: int, at: float):
                    return servers[replicas.item(request, copy)].probe(
                        at, file_ids.item(request), sizes.item(request)
                    )

                def begin_background(job: int, at: float):
                    _, server_id, file_id, size = jobs[job]
                    return servers[server_id].probe(at, file_id, size)

                finish_at, launched, cancelled = simulate_cancelling_arrivals(
                    hedged,
                    arrival_times,
                    k,
                    server_index,
                    begin,
                    background_jobs=[(job[0], job[1], j) for j, job in enumerate(jobs)],
                    begin_background=begin_background,
                )
                # Cancelled copies never produce a response for the client
                # to combine, so they carry no per-copy client overhead.
                billable = launched - cancelled
                total_cancelled = int(cancelled.sum())
            else:
                # simulate_hedged_arrivals calls launch in global time order,
                # so serving the migration reads due by each dispatch first
                # keeps every disk FIFO in per-server time order.
                pending = deque(jobs)

                def launch(request: int, copy: int, at: float) -> float:
                    while pending and pending[0][0] <= at:
                        when, server_id, file_id, size = pending.popleft()
                        servers[server_id].serve(when, file_id, size)
                    completion, _hit = servers[replicas.item(request, copy)].serve(
                        at, file_ids.item(request), sizes.item(request)
                    )
                    return completion

                finish_at, launched = simulate_hedged_arrivals(hedged, arrival_times, k, launch)
                billable = launched
            response = (finish_at - arrival_times) + overhead_unit * (billable - 1)
            total_launched = int(launched.sum())
            hits = sum(s.cache.hits for s in servers.values())
            misses = sum(s.cache.misses for s in servers.values())

        start = int(num_requests * warmup_fraction)
        retained = response[start:]
        registry = MetricsRegistry("database")
        registry.counter("requests").increment(num_requests)
        registry.counter("copies_launched").increment(total_launched)
        registry.counter("cache_hits").increment(hits)
        registry.counter("cache_misses").increment(misses)
        if timeline:
            registry.counter("migration_jobs").increment(num_migrations)
        recorder = registry.recorder("latency")
        recorder.record_many(retained)
        accesses = hits + misses
        return DatabaseRunResult(
            load=float(load),
            copies=k,
            response_times=retained,
            summary=recorder.summary(),
            cache_hit_ratio=hits / accesses if accesses else 0.0,
            metrics=registry.snapshot(),
            policy_spec=run_policy_spec(hedged, k),
            copies_launched=total_launched,
            copies_cancelled=total_cancelled,
            spike=(
                spike_metrics(arrival_times[start:], retained, event_times)
                if timeline
                else None
            ),
        )

    def _eager(
        self,
        replicas: np.ndarray,
        arrival_times: np.ndarray,
        file_ids: np.ndarray,
        migrations: Tuple[np.ndarray, np.ndarray, np.ndarray],
        server_ids: Sequence[int],
        warm: List[np.ndarray],
        run_seed: Tuple[int, ...],
    ) -> Tuple[np.ndarray, int, int]:
        """Eager replication, byte-identical to serving copies one by one.

        The scalar model serves, in arrival order, the migration reads due by
        each arrival and then the request's copies, each through
        :meth:`~repro.cluster.storage_server.StorageServerModel.serve`.  Each
        access touches exactly one server, and servers share no state — the
        cache, the FIFO disk queue, and the service-time rng are all per
        server — so each server's stream (:func:`~repro.cluster.churn.server_streams`)
        is processed on its own with three batched kernels:

        * cache warming plus hit/miss classification via
          :func:`~repro.cluster.lru_kernel.lru_hit_flags` (warm inserts are
          prepended to the access stream as virtual accesses — ``warm_with``
          has precisely LRU-insert semantics for distinct keys), falling back
          to :meth:`~repro.cluster.cache.LRUByteCache.access_many` when file
          sizes are not all equal;
        * disk service times for the misses via
          :func:`~repro.cluster.draws.exact_disk_services`, consuming the
          server substream in the scalar order;
        * the FIFO disk queue via
          :func:`~repro.cluster.draws.sequential_finish_times`.

        Args:
            replicas: ``(n, k)`` server of every copy.
            arrival_times: Request arrival times.
            file_ids: Requested file per request.
            migrations: ``(times, servers, files)`` of the migration reads.
            server_ids: Every server live at any point of the run.
            warm: Warm order of each initial server (:meth:`_warm_orders`).
            run_seed: Suffix of the per-server substream keys.

        Returns:
            ``(best_elapsed, cache_hits, cache_misses)`` where ``best_elapsed``
            is the per-request fastest-copy response time before client
            overhead; the cache counts include migration reads.
        """
        config = self.config
        n, k = replicas.shape
        mig_times, mig_servers, mig_files = migrations
        num_migrations = len(mig_times)
        servers = with_background(mig_servers, replicas.ravel())
        keys = with_background(mig_files, np.repeat(file_ids, k))
        times = with_background(mig_times, np.repeat(arrival_times, k))
        all_sizes = self._fileset.sizes_bytes
        key_sizes = all_sizes[keys]
        completion = np.empty(len(times))

        capacity = config.cache_bytes_per_server
        item_capacity = (
            equal_item_capacity(capacity, float(config.mean_file_bytes))
            if config.file_size_distribution is None
            else None
        )
        cold = np.empty(0, dtype=np.int64)
        hits_total = 0
        for server_id, pos in server_streams(servers, times, num_migrations, server_ids):
            warm_keys = warm[server_id] if server_id < len(warm) else cold
            if item_capacity is not None:
                stream = np.concatenate([warm_keys, keys[pos]])
                flags = lru_hit_flags(stream, item_capacity)[warm_keys.size :]
            else:
                cache = LRUByteCache(capacity)
                cache.warm_with((int(f), float(all_sizes[f])) for f in warm_keys)
                flags = cache.access_many(keys[pos], key_sizes[pos])
            hits_total += int(np.count_nonzero(flags))
            done = times[pos] + config.memory_service_s
            miss = ~flags
            if np.any(miss):
                rng = substream(config.seed, "server", server_id, *run_seed)
                services = exact_disk_services(
                    config.disk,
                    key_sizes[pos][miss],
                    rng,
                    config.noise_probability,
                    config.noise_multiplier_mean,
                )
                done[miss] = (
                    sequential_finish_times(times[pos][miss], services) + config.memory_service_s
                )
            completion[pos] = done

        elapsed = completion[num_migrations:].reshape(n, k) - arrival_times[:, None]
        return elapsed.min(axis=1), hits_total, len(times) - hits_total

    def sweep(
        self,
        loads: Sequence[float],
        copies_list: Sequence[int] = (1, 2),
        num_requests: int = 40_000,
    ) -> Dict[int, List[DatabaseRunResult]]:
        """Run a load sweep for each copy count (skipping saturated points).

        Returns:
            Mapping from copy count to the list of results, one per feasible
            load in ``loads`` (loads that would saturate the replicated system
            are skipped, mirroring how the paper's 2-copy curves stop short of
            full load).
        """
        results: Dict[int, List[DatabaseRunResult]] = {}
        for k in copies_list:
            per_copy: List[DatabaseRunResult] = []
            for load in loads:
                try:
                    per_copy.append(self.run(load, copies=k, num_requests=num_requests))
                except CapacityError:
                    continue
            results[int(k)] = per_copy
        return results

    def threshold_load(
        self,
        loads: Sequence[float],
        num_requests: int = 30_000,
    ) -> float:
        """Largest probed load at which replication still improves mean latency.

        This mirrors how the paper reads the threshold off Figure 5 (≈30% in
        the base configuration) rather than running a bisection, because each
        cluster simulation point is comparatively expensive.
        """
        best = 0.0
        for load in sorted(loads):
            try:
                baseline = self.run(load, copies=1, num_requests=num_requests)
                replicated = self.run(load, copies=2, num_requests=num_requests)
            except CapacityError:
                break
            if replicated.mean < baseline.mean:
                best = float(load)
            else:
                break
        return best
