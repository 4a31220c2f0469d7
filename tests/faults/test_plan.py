"""Unit tests for the deterministic fault plan and its configuration."""

import pickle

import pytest

from repro.errors import FaultInjectionError
from repro.faults import FAULT_MODES, DegradationReport, FaultConfig, FaultPlan


class TestFaultConfig:
    def test_default_injects_nothing(self):
        config = FaultConfig()
        assert not config.any_faults()

    def test_uniform_drives_every_probability_field(self):
        config = FaultConfig.uniform(0.3)
        assert config.trace_drop_rate == 0.3
        assert config.hop_anon_rate == 0.3
        assert config.lg_failure_rate == 0.3
        assert config.feed_outage_rate == 0.3
        assert config.igp_delay_rate == 0.3
        assert config.any_faults()

    def test_uniform_zero_is_no_faults(self):
        assert not FaultConfig.uniform(0.0).any_faults()

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_rates_outside_unit_interval_rejected(self, bad):
        with pytest.raises(FaultInjectionError):
            FaultConfig(trace_drop_rate=bad)

    def test_negative_lg_budget_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultConfig(lg_query_budget=-1)

    def test_lg_budget_alone_counts_as_faults(self):
        assert FaultConfig(lg_query_budget=3).any_faults()

    def test_five_fault_modes_documented(self):
        assert len(FAULT_MODES) == 5
        assert set(FAULT_MODES) == {
            "traceroute", "sensor", "lg", "bgp-feed", "igp-feed",
        }


class TestFaultPlanDeterminism:
    def test_same_seed_same_decisions(self):
        config = FaultConfig.uniform(0.5)
        a, b = FaultPlan(7, config), FaultPlan("7", config)
        for dst in range(50):
            key = ("s", f"d{dst}", "T-")
            assert a.drop_trace(*key) == b.drop_trace(*key)
            assert a.anonymize_hop(*key, dst) == b.anonymize_hop(*key, dst)
            assert a.sensor_down(f"10.0.{dst}.1") == b.sensor_down(
                f"10.0.{dst}.1"
            )

    def test_decisions_are_call_order_independent(self):
        config = FaultConfig.uniform(0.5)
        keys = [("s", f"d{i}", "T+") for i in range(40)]
        plan = FaultPlan(3, config)
        forward = [plan.drop_trace(*key) for key in keys]
        # A fresh plan queried in reverse must reproduce every decision.
        plan2 = FaultPlan(3, config)
        backward = [plan2.drop_trace(*key) for key in reversed(keys)]
        assert forward == list(reversed(backward))

    def test_different_seeds_differ_somewhere(self):
        config = FaultConfig.uniform(0.5)
        a, b = FaultPlan(1, config), FaultPlan(2, config)
        keys = [("s", f"d{i}", "T-") for i in range(100)]
        assert [a.drop_trace(*k) for k in keys] != [
            b.drop_trace(*k) for k in keys
        ]

    def test_rate_zero_never_fires_rate_one_always_fires(self):
        never = FaultPlan(0, FaultConfig())
        always = FaultPlan(0, FaultConfig.uniform(1.0))
        for index in range(20):
            key = ("src", f"dst{index}", "T-")
            assert not never.drop_trace(*key)
            assert not never.feed_outage()
            assert always.drop_trace(*key)
            assert always.sensor_down(f"10.1.{index}.1")
        assert always.feed_outage()

    def test_truncate_keeps_a_nonempty_strict_prefix(self):
        plan = FaultPlan(5, FaultConfig(trace_truncate_rate=1.0))
        for n_hops in range(2, 12):
            keep = plan.truncate_trace("s", f"d{n_hops}", "T-", n_hops)
            assert keep is not None
            assert 1 <= keep <= n_hops - 1

    def test_truncate_needs_at_least_two_hops(self):
        plan = FaultPlan(5, FaultConfig(trace_truncate_rate=1.0))
        assert plan.truncate_trace("s", "d", "T-", 1) is None
        assert plan.truncate_trace("s", "d", "T-", 0) is None

    def test_intermediate_rate_fires_sometimes(self):
        plan = FaultPlan(11, FaultConfig.uniform(0.5))
        fired = [
            plan.drop_trace("s", f"d{i}", "T-") for i in range(200)
        ]
        assert any(fired) and not all(fired)
        # Crude binomial sanity: 200 draws at p=0.5 land well inside.
        assert 60 <= sum(fired) <= 140

    def test_scoped_plans_are_independent_but_deterministic(self):
        config = FaultConfig.uniform(0.5)
        plan = FaultPlan(9, config)
        a, b = plan.scoped("link-1/1"), plan.scoped("link-1/2")
        keys = [("s", f"d{i}", "T-") for i in range(60)]
        assert [a.drop_trace(*k) for k in keys] != [
            b.drop_trace(*k) for k in keys
        ]
        again = FaultPlan(9, config).scoped("link-1/1")
        assert [a.drop_trace(*k) for k in keys] == [
            again.drop_trace(*k) for k in keys
        ]

    def test_pickle_round_trip_preserves_decisions(self):
        plan = FaultPlan(13, FaultConfig.uniform(0.4))
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        keys = [("s", f"d{i}", "T+") for i in range(30)]
        assert [plan.drop_trace(*k) for k in keys] == [
            clone.drop_trace(*k) for k in keys
        ]


class TestDegradationReport:
    def test_fresh_report_is_clean(self):
        report = DegradationReport()
        assert not report.is_degraded()
        assert sum(report.as_dict().values()) == 0

    def test_counters_mark_degraded(self):
        report = DegradationReport()
        report.probes_dropped += 1
        assert report.is_degraded()

    def test_diagnoser_errors_tracked_per_label(self):
        report = DegradationReport()
        report.record_diagnoser_error("nd-edge")
        report.record_diagnoser_error("nd-edge")
        report.record_diagnoser_error("tomo")
        assert report.degraded_diagnoses == 3
        assert report.diagnoser_errors == {"nd-edge": 2, "tomo": 1}
        assert report.is_degraded()
