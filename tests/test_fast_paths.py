"""Tests for the vectorised hot paths behind the sweep-throughput work.

Byte-identity is the contract: the batched draw paths, the LRU batch kernel,
the FIFO finish-time kernel, the eager per-server kernels of the cluster
substrates, and the optional compiled kernels must all be bitwise
indistinguishable from the scalar reference implementations they replace.  The flow-level fat-tree fidelity is the one documented
approximation, so it is pinned with delta bounds rather than equality.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster import _ckernels
from repro.cluster.cache import LRUByteCache
from repro.cluster.database import DatabaseClusterConfig, DatabaseClusterExperiment
from repro.cluster.disk import DiskModel
from repro.cluster.draws import exact_disk_services, sequential_finish_times
from repro.cluster.lru_kernel import (
    equal_item_capacity,
    lru_hit_flags,
    previous_and_next_occurrence,
)
from repro.cluster.memcached import MemcachedConfig, MemcachedExperiment
from repro.core.policy import KCopies
from repro.network.fattree_sim import FatTreeExperiment, FatTreeExperimentConfig
from repro.network.flow_fidelity import uncontended_fct
from repro.network.tcp import TcpConfig


def reference_lru_flags(keys, capacity_items):
    """Replay ``keys`` through the reference byte cache with unit items."""
    cache = LRUByteCache(float(capacity_items)) if capacity_items > 0 else None
    flags = np.zeros(len(keys), dtype=bool)
    if cache is None:
        return flags
    for t, key in enumerate(keys):
        flags[t] = cache.access(int(key), 1.0)
    return flags


class TestLruKernel:
    def test_matches_reference_cache_across_regimes(self):
        rng = np.random.default_rng(7)
        for case in range(12):
            n = int(rng.integers(1, 4000))
            num_keys = int(rng.integers(1, 600))
            capacity = int(rng.integers(1, num_keys + 50))
            if rng.random() < 0.5:
                keys = rng.integers(0, num_keys, size=n)
            else:  # skewed stream: hot keys exercise the ambiguous band
                keys = (rng.zipf(1.5, size=n) - 1) % num_keys
            expected = reference_lru_flags(keys, capacity)
            got = lru_hit_flags(keys, capacity)
            assert np.array_equal(got, expected), (case, n, num_keys, capacity)

    def test_chunk_size_does_not_change_results(self):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 200, size=3000)
        expected = reference_lru_flags(keys, 64)
        for chunk in (1, 16, 37, 256, 4096):
            assert np.array_equal(lru_hit_flags(keys, 64, chunk=chunk), expected)

    def test_large_stream_triggers_chunk_cap(self):
        # > 1024 default chunks: exercises the boundary-matrix footprint cap.
        rng = np.random.default_rng(13)
        keys = rng.integers(0, 900, size=300_000)
        got = lru_hit_flags(keys, 500)
        assert np.array_equal(got, reference_lru_flags(keys, 500))

    def test_edge_cases(self):
        assert lru_hit_flags(np.array([], dtype=np.int64), 10).shape == (0,)
        assert not lru_hit_flags(np.array([1, 1, 1]), 0).any()
        assert np.array_equal(
            lru_hit_flags(np.array([5, 5, 5]), 1), np.array([False, True, True])
        )

    def test_previous_and_next_occurrence(self):
        keys = np.array([3, 1, 3, 3, 1, 2])
        prev, nxt = previous_and_next_occurrence(keys)
        assert prev.tolist() == [-1, -1, 0, 2, 1, -1]
        assert nxt.tolist() == [2, 4, 3, 6, 6, 6]

    def test_equal_item_capacity(self):
        assert equal_item_capacity(1000.0, 10.0) == 100
        assert equal_item_capacity(999.0, 10.0) == 99
        assert equal_item_capacity(5.0, 10.0) == 0
        assert equal_item_capacity(1000.0, 10.5) is None  # non-integer items
        assert equal_item_capacity(2.0**53, 1.0) is None  # float-exactness lost
        assert equal_item_capacity(1000.0, 0.0) is None


def scalar_disk_services(disk, sizes, rng, noise_probability, noise_multiplier_mean):
    """The per-miss draw sequence of ``StorageServerModel.serve``, verbatim."""
    out = []
    for size in sizes:
        service = disk.sample_service_time(size, rng)
        if noise_probability > 0 and rng.random() < noise_probability:
            service *= 1.0 + rng.exponential(noise_multiplier_mean)
        out.append(service)
    return np.asarray(out)


class TestExactDiskServices:
    @pytest.mark.parametrize(
        "slow_p,noise_p",
        [(0.015, 0.0), (0.0, 0.25), (0.015, 0.25), (0.0, 0.0), (0.10, 0.05)],
    )
    def test_bitwise_equal_to_scalar_path(self, slow_p, noise_p):
        disk = DiskModel(slow_access_probability=slow_p)
        rng = np.random.default_rng(42)
        sizes = rng.uniform(1e3, 1e6, size=5000)
        batched = exact_disk_services(
            disk, sizes, np.random.default_rng(99), noise_p, 8.0
        )
        scalar = scalar_disk_services(disk, sizes, np.random.default_rng(99), noise_p, 8.0)
        assert np.array_equal(batched, scalar)

    def test_generator_parked_at_scalar_position(self):
        # Mid-sweep interchangeability: after the batch the generator must be
        # exactly where the scalar loop would have left it.
        disk = DiskModel()
        sizes = np.full(2000, 1e5)
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        exact_disk_services(disk, sizes, rng_a, 0.25, 8.0)
        scalar_disk_services(disk, sizes, rng_b, 0.25, 8.0)
        assert rng_a.random() == rng_b.random()

    def test_empty_stream(self):
        disk = DiskModel()
        out = exact_disk_services(disk, np.empty(0), np.random.default_rng(0), 0.1, 8.0)
        assert out.shape == (0,)


def scalar_finish_times(arrivals, services):
    finish = np.empty(len(arrivals))
    free = 0.0
    for i in range(len(arrivals)):
        if free <= arrivals[i]:
            free = arrivals[i]
        free = free + services[i]
        finish[i] = free
    return finish


class TestSequentialFinishTimes:
    def test_matches_scalar_recursion(self):
        rng = np.random.default_rng(3)
        arrivals = np.sort(rng.uniform(0, 100, size=10_000))
        services = rng.exponential(0.009, size=10_000)  # util ~0.9: long chains
        got = sequential_finish_times(arrivals, services)
        assert np.array_equal(got, scalar_finish_times(arrivals, services))

    def test_compiled_and_python_paths_bitwise_equal(self, monkeypatch):
        if _ckernels.load() is None:
            pytest.skip("no C compiler available")
        rng = np.random.default_rng(8)
        arrivals = np.sort(rng.uniform(0, 50, size=4000))
        services = rng.exponential(0.02, size=4000)
        with_c = sequential_finish_times(arrivals, services)
        monkeypatch.setenv(_ckernels.CKERNELS_ENV_VAR, "0")
        assert _ckernels.load() is None
        without_c = sequential_finish_times(arrivals, services)
        assert np.array_equal(with_c, without_c)


class TestCompiledLruKernel:
    def test_compiled_and_python_paths_identical(self, monkeypatch):
        if _ckernels.load() is None:
            pytest.skip("no C compiler available")
        rng = np.random.default_rng(21)
        for _ in range(6):
            keys = (rng.zipf(1.4, size=5000) - 1) % 400
            capacity = int(rng.integers(2, 300))
            with_c = lru_hit_flags(keys, capacity)
            monkeypatch.setenv(_ckernels.CKERNELS_ENV_VAR, "0")
            without_c = lru_hit_flags(keys, capacity)
            monkeypatch.delenv(_ckernels.CKERNELS_ENV_VAR)
            assert np.array_equal(with_c, without_c)
            assert np.array_equal(with_c, reference_lru_flags(keys, capacity))


class ScalarKCopies(KCopies):
    """Eager ``k`` copies that the substrates cannot recognise as eager.

    ``is_static = False`` routes a run through
    :func:`~repro.core.policy.simulate_hedged_arrivals` and the scalar
    ``StorageServerModel.serve`` / FIFO path that hedged policies keep: every
    copy launches at its request's arrival and none is suppressed, so this is
    the eager run served one copy at a time.
    """

    is_static = False


DATABASE_VARIANTS = {
    "base": DatabaseClusterConfig.base,
    "pareto": DatabaseClusterConfig.pareto_files,
    "ec2": DatabaseClusterConfig.ec2,
    "noisy": lambda **kw: DatabaseClusterConfig(
        noise_probability=0.25,
        disk=dataclasses.replace(DiskModel(), slow_access_probability=0.10),
        **kw,
    ),
}


class TestEagerKernelMatchesScalarPath:
    """The batched eager kernels against the kept scalar serve path, static
    runs and runs under churn (migration reads merged into the streams)."""

    @pytest.mark.parametrize(
        "churn", ["", "add:4@0.4", "crash:2@0.4"], ids=["static", "add", "crash"]
    )
    @pytest.mark.parametrize("copies", [1, 2, 3])
    @pytest.mark.parametrize("variant", sorted(DATABASE_VARIANTS))
    def test_database_bitwise(self, variant, copies, churn):
        config = DATABASE_VARIANTS[variant](num_files=4000, seed=321)
        kwargs = dict(load=0.2, num_requests=1500, churn=churn)
        eager = DatabaseClusterExperiment(config).run(copies=copies, **kwargs)
        scalar = DatabaseClusterExperiment(config).run(
            policy=ScalarKCopies(copies), **kwargs
        )
        assert np.array_equal(eager.response_times, scalar.response_times)
        assert eager.cache_hit_ratio == scalar.cache_hit_ratio
        assert eager.copies_launched == scalar.copies_launched
        assert eager.spike == scalar.spike

    @pytest.mark.parametrize(
        "churn",
        ["", "crash:1@0.4", "add:4@0.3,remove:0@0.6"],
        ids=["static", "crash", "add-remove"],
    )
    @pytest.mark.parametrize("copies", [1, 2, 3])
    def test_memcached(self, copies, churn):
        # Equal up to rounding: the scalar path adds the client time and the
        # cold-read tail in a different order than the kernel does.
        kwargs = dict(load=0.15, num_requests=2000, num_keys=3000, churn=churn)
        eager = MemcachedExperiment(MemcachedConfig(seed=5)).run(copies=copies, **kwargs)
        scalar = MemcachedExperiment(MemcachedConfig(seed=5)).run(
            policy=ScalarKCopies(copies), **kwargs
        )
        np.testing.assert_allclose(
            eager.response_times, scalar.response_times, rtol=0, atol=1e-12
        )
        assert eager.copies_launched == scalar.copies_launched
        assert eager.metrics.get("migration_jobs") == scalar.metrics.get("migration_jobs")


class TestFlowFidelity:
    def test_uncontended_fct_matches_packet_sim_shape(self):
        # The closed form must reproduce the dominant terms: serialisation of
        # the whole flow plus one propagation round per window growth epoch.
        tcp = TcpConfig()
        rate = 10e9 / 8.0
        small = uncontended_fct(float(tcp.mss_bytes), 6, 10e9, 2e-6, tcp)
        # One segment: 6 store-and-forward hops + the ACK's return path.
        wire = (tcp.mss_bytes + tcp.header_bytes) / rate
        expected = 6 * (wire + 2e-6) + 6 * (2e-6 + tcp.ack_bytes / rate)
        assert small == pytest.approx(expected, rel=1e-12)
        # FCT must be monotone in flow size.
        sizes = [1e3, 1e4, 1e5, 1e6]
        fcts = [uncontended_fct(s, 6, 10e9, 2e-6, tcp) for s in sizes]
        assert all(a < b for a, b in zip(fcts, fcts[1:]))

    def test_flow_fidelity_close_to_packet_at_low_load(self):
        cfg_packet = FatTreeExperimentConfig(k=4, num_flows=300, load=0.2, seed=9)
        cfg_flow = dataclasses.replace(cfg_packet, fidelity="flow")
        packet = FatTreeExperiment(cfg_packet).run()
        flow = FatTreeExperiment(cfg_flow).run()
        # Same flow population (sizes/arrivals are drawn identically) ...
        assert len(packet.records) == len(flow.records)
        assert [r.size_bytes for r in packet.records] == [
            r.size_bytes for r in flow.records
        ]
        # ... and medians agree within the documented approximation band.
        med_packet = float(np.median(packet.fcts()))
        med_flow = float(np.median(flow.fcts()))
        assert med_flow == pytest.approx(med_packet, rel=0.35)


class TestRingDistributionFastPath:
    """The vectorised ConsistentHashRing.distribution() against the
    historical per-key scalar loop — bitwise, including churned rings."""

    @staticmethod
    def scalar_distribution(ring, keys):
        members = list(ring.servers)
        counts = [0] * len(members)
        for key in keys:
            counts[members.index(ring.primary_for(key))] += 1
        return counts

    @pytest.mark.parametrize("num_servers", [1, 2, 5, 8])
    def test_bitwise_equal_to_scalar_loop(self, num_servers):
        from repro.cluster.consistent_hash import ConsistentHashRing

        ring = ConsistentHashRing(num_servers, virtual_nodes=32)
        keys = list(range(4000))
        assert ring.distribution(keys) == self.scalar_distribution(ring, keys)

    def test_bitwise_equal_after_churn(self):
        from repro.cluster.consistent_hash import ConsistentHashRing

        ring = ConsistentHashRing(6, virtual_nodes=32)
        ring.remove_server(2)
        ring.add_server(9)
        keys = list(range(4000))
        counts = ring.distribution(keys)
        assert counts == self.scalar_distribution(ring, keys)
        # Counts are ordered like ring.servers and cover every key once.
        assert len(counts) == len(ring.servers)
        assert sum(counts) == len(keys)

    def test_empty_keys(self):
        from repro.cluster.consistent_hash import ConsistentHashRing

        assert ConsistentHashRing(4).distribution([]) == [0, 0, 0, 0]
