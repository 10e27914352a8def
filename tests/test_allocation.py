"""Unit tests for the allocation policies (SA / DA / Rule)."""
import pytest

from repro.cluster.allocation import (
    DynamicAllocation,
    PredictiveRule,
    StaticAllocation,
)


def view(time=0.0, pending=0, running=0, live=0, e_c=4):
    """Arguments of ``target`` for a simulator state."""
    return time, pending, running, live, e_c


class TestStaticAllocation:
    def test_constant_target(self):
        p = StaticAllocation(12)
        assert p.initial_target() == 12
        assert p.target(*view(pending=1000)) == 12
        assert p.target(*view()) == 12

    def test_no_idle_removal(self):
        assert StaticAllocation(4).remove_idle is False

    def test_instant_initial(self):
        assert StaticAllocation(4).instant_initial is True

    def test_name(self):
        assert StaticAllocation(25).name == "SA(25)"

    def test_no_executor_rejected(self):
        # SA(0) would queue every task forever and return an unfinished run
        with pytest.raises(ValueError):
            StaticAllocation(0)


class TestDynamicAllocation:
    def test_starts_at_min(self):
        assert DynamicAllocation(1, 48).initial_target() == 1

    def test_no_growth_before_backlog_timeout(self):
        p = DynamicAllocation(1, 48)
        assert p.target(*view(time=0.0, pending=100)) == 1
        assert p.target(*view(time=0.5, pending=100)) == 1  # < 1s sustained

    def test_exponential_growth_under_sustained_backlog(self):
        p = DynamicAllocation(1, 48)
        targets = [p.target(*view(time=float(t), pending=500)) for t in range(10)]
        # batches 1,2,4,... → strictly growing until cap
        growing = [b - a for a, b in zip(targets, targets[1:]) if b != a]
        assert growing and all(g > 0 for g in growing)
        assert targets[-1] > targets[0]

    def test_capped_by_max(self):
        p = DynamicAllocation(1, 8)
        for t in range(30):
            tgt = p.target(*view(time=float(t), pending=10_000))
        assert tgt == 8

    def test_capped_by_need(self):
        p = DynamicAllocation(1, 48)
        for t in range(30):
            tgt = p.target(*view(time=float(t), pending=4, running=0))
        assert tgt <= 2  # 2 × 4 tasks / 4 cores = 2 executors

    def test_overshoot_inflates_need(self):
        p = DynamicAllocation(1, 48)
        for t in range(30):
            tgt = p.target(*view(time=float(t), pending=8, running=0))
        assert tgt == 4

    def test_reset_when_backlog_clears(self):
        p = DynamicAllocation(1, 48)
        for t in range(6):
            p.target(*view(time=float(t), pending=500))
        assert p.target(*view(time=10.0, pending=0, live=2)) == 2
        # growth restarts from a batch of 1
        assert p._next_add == 1

    def test_idle_removal_enabled(self):
        assert DynamicAllocation().remove_idle is True

    def test_name(self):
        assert DynamicAllocation(1, 48).name == "DA(1,48)"

    @pytest.mark.parametrize("min_n, max_n", [(0, 0), (-1, 4), (5, 4)])
    def test_bounds_that_never_finish_rejected(self, min_n, max_n):
        # DA(0, 0) never gets an executor, and its ticks keep the run alive
        with pytest.raises(ValueError):
            DynamicAllocation(min_n, max_n)

    def test_scale_up_from_zero_allowed(self):
        assert DynamicAllocation(0, 4).initial_target() == 0


class TestPredictiveRule:
    def test_initial_before_rule_time(self):
        p = PredictiveRule(n_predicted=30)
        assert p.target(*view(time=2.0, pending=999)) == 5

    def test_predicted_after_rule_time(self):
        p = PredictiveRule(n_predicted=30)
        assert p.target(*view(time=7.5)) == 30

    def test_no_reactive_scale_up(self):
        """§4.6: backlog does not raise the target beyond the prediction."""
        p = PredictiveRule(n_predicted=10)
        assert p.target(*view(time=100.0, pending=100_000)) == 10

    def test_idle_removal_enabled(self):
        assert PredictiveRule(n_predicted=10).remove_idle is True

    def test_name(self):
        assert PredictiveRule(n_predicted=25).name == "Rule(25)"

    def test_no_executor_rejected(self):
        with pytest.raises(ValueError):
            PredictiveRule(n_predicted=0)
