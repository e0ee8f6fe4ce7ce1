"""Tests for replication/hedging policies."""

import pytest

from repro.core import HedgeAfterDelay, HedgeOnPercentile, KCopies, NoReplication
from repro.core.policy import static_launch_delays
from repro.exceptions import ConfigurationError


class TestNoReplication:
    def test_single_immediate_copy(self):
        assert NoReplication().launch_delays() == [0.0]
        assert NoReplication().max_copies == 1


class TestKCopies:
    def test_all_copies_immediate(self):
        assert KCopies(3).launch_delays() == [0.0, 0.0, 0.0]

    def test_default_is_two_copies(self):
        assert KCopies().max_copies == 2

    def test_invalid_copies(self):
        with pytest.raises(ConfigurationError):
            KCopies(0)
        with pytest.raises(ConfigurationError):
            KCopies(2.5)

    def test_record_latency_is_a_noop(self):
        policy = KCopies(2)
        policy.record_latency(1.0)  # must not raise
        assert policy.launch_delays() == [0.0, 0.0]


class TestHedgeAfterDelay:
    def test_backups_staggered(self):
        policy = HedgeAfterDelay(delay=0.01, extra_copies=2)
        assert policy.launch_delays() == pytest.approx([0.0, 0.01, 0.02])

    def test_single_backup_default(self):
        assert HedgeAfterDelay(0.05).launch_delays() == [0.0, 0.05]

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            HedgeAfterDelay(-0.1)
        with pytest.raises(ConfigurationError):
            HedgeAfterDelay(0.1, extra_copies=0)


class TestHedgeOnPercentile:
    def test_uses_initial_delay_before_data(self):
        policy = HedgeOnPercentile(percentile=95.0, initial_delay=0.2)
        assert policy.launch_delays() == [0.0, 0.2]

    def test_adapts_to_recorded_latencies(self):
        policy = HedgeOnPercentile(percentile=90.0, initial_delay=1.0)
        for i in range(100):
            policy.record_latency(0.001 * (i + 1))
        delay = policy.current_delay()
        assert 0.08 <= delay <= 0.1
        assert policy.launch_delays()[1] == pytest.approx(delay)

    def test_window_bounds_memory(self):
        policy = HedgeOnPercentile(window=50)
        for _ in range(200):
            policy.record_latency(1.0)
        assert len(policy._latencies) == 50

    def test_percentile_uses_numpy_interpolation(self):
        import numpy as np

        policy = HedgeOnPercentile(percentile=95.0, window=100)
        values = [float(i + 1) for i in range(20)]
        for value in values:
            policy.record_latency(value)
        # Linear interpolation between order statistics, matching
        # numpy.percentile (the pre-metrics code selected the nearest sample
        # at or above the rank, i.e. 20.0 here).
        assert policy.current_delay() == pytest.approx(float(np.percentile(values, 95.0)))
        assert policy.current_delay() == pytest.approx(19.05)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            HedgeOnPercentile(percentile=0.0)
        with pytest.raises(ConfigurationError):
            HedgeOnPercentile(initial_delay=-1.0)
        with pytest.raises(ConfigurationError):
            HedgeOnPercentile(window=0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            HedgeOnPercentile().record_latency(-1.0)

    def test_plan_is_reused_until_the_next_observation(self):
        policy = HedgeOnPercentile(percentile=50.0, initial_delay=0.2)
        first = policy.plan()
        assert policy.plan() is first
        for i in range(10):
            policy.record_latency(float(i + 1))
        second = policy.plan()
        assert second is not first
        assert second.launch_delays == (0.0, policy.current_delay())
        assert second.launch_delays == (0.0, 5.5)


class TestStaticLaunchDelays:
    def test_static_policies_resolve_one_truncated_schedule(self):
        assert static_launch_delays(HedgeAfterDelay(0.01, extra_copies=2), 2) == (0.0, 0.01)
        assert static_launch_delays(KCopies(3), 5) == (0.0, 0.0, 0.0)
        assert static_launch_delays(NoReplication(), 2) == (0.0,)

    def test_adaptive_or_listening_policies_need_per_request_plans(self):
        class Listening(KCopies):
            def record_latency(self, latency):
                pass

        assert static_launch_delays(HedgeOnPercentile(), 2) is None
        assert static_launch_delays(Listening(2), 2) is None
