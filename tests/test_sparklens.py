"""Unit tests for the Sparklens reimplementation (§3.2)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.allocation import StaticAllocation
from repro.cluster.simulator import simulate
from repro.cluster.sparklens import SparklensReport, analyze
from repro.cluster.taskgraph import build_task_graph
from repro.core.features import PlanNode
from tests.test_simulator import task_graphs


def make_graph(fact_bytes=6_000_000, query="q"):
    fact = PlanNode("LogicalRelation", fact_bytes, 6, [])
    dim = PlanNode("LogicalRelation", 70_000, 4, [])
    join = PlanNode("Join", fact_bytes, 8, [fact, dim])
    agg = PlanNode("Aggregate", 100_000, 3, [join])
    sort = PlanNode("Sort", 100_000, 3, [agg])
    return build_task_graph(query, sort)


@pytest.fixture(scope="module")
def report():
    g = make_graph()
    run = simulate(g, StaticAllocation(16), seed=3)
    return analyze(run), g, run


class TestSparklens:
    def test_monotone_nonincreasing(self, report):
        """§3.1 reason 3: Sparklens estimates never increase with n."""
        rep, _, _ = report
        est = [rep.estimate(n) for n in range(1, 49)]
        assert all(a >= b for a, b in zip(est, est[1:]))

    def test_saturates(self, report):
        rep, _, _ = report
        assert rep.estimate(1000) == pytest.approx(rep.estimate(10_000))

    def test_estimate_at_observed_n_close_to_actual(self, report):
        rep, _, run = report
        assert rep.estimate(16) == pytest.approx(run.elapsed, rel=0.35)

    def test_estimates_dict(self, report):
        rep, _, _ = report
        d = rep.estimates([1, 3, 8])
        assert set(d) == {1, 3, 8}
        assert d[1] >= d[8]

    def test_cross_n_estimates_track_simulation(self):
        """Estimates from an n=16 run track the simulated t(n) shape."""
        g = make_graph(8_000_000)
        rep = analyze(simulate(g, StaticAllocation(16), seed=5))
        for n in (3, 8, 32):
            actual = np.mean(
                [simulate(g, StaticAllocation(n), seed=s).elapsed for s in range(3)]
            )
            assert rep.estimate(n) == pytest.approx(actual, rel=0.5)

    def test_driver_time_positive(self, report):
        rep, g, _ = report
        assert rep.driver_time > 0
        # must be in the ballpark of startup + per-stage overheads
        assert rep.driver_time < 3 * g.serial_time

    def test_deterministic(self):
        g = make_graph()
        r1 = analyze(simulate(g, StaticAllocation(16), seed=9))
        r2 = analyze(simulate(g, StaticAllocation(16), seed=9))
        assert r1.estimate(4) == r2.estimate(4)

    def test_concurrent_stages_grouped(self):
        """Two scans that overlapped must share a concurrency cluster."""
        g = make_graph()
        run = simulate(g, StaticAllocation(16), seed=1)
        rep = analyze(run)
        assert len(rep.cluster_work) < len(
            [l for l in run.stage_logs if l.task_durations]
        )

    def test_report_fields(self, report):
        rep, _, _ = report
        assert isinstance(rep, SparklensReport)
        assert rep.e_c == 4
        for total, crit in rep.cluster_work:
            assert total >= crit > 0


positive = st.floats(0.0, 1e5, allow_nan=False)


@given(
    driver=positive,
    clusters=st.lists(st.tuples(positive, positive), max_size=8),
    e_c=st.integers(1, 8),
)
@settings(max_examples=200, deadline=None)
def test_estimate_nonincreasing_in_n(driver, clusters, e_c):
    """§3.1 reason 3 for any report, not only simulated ones."""
    rep = SparklensReport(
        query="q", driver_time=driver, cluster_work=clusters, e_c=e_c
    )
    est = [rep.estimate(n) for n in range(1, 49)]
    assert all(a >= b for a, b in zip(est, est[1:]))


def covered_time(intervals: list[tuple[float, float]]) -> float:
    """Measure of the union of intervals, by a sweep over elementary segments."""
    points = sorted({t for iv in intervals for t in iv})
    return sum(
        b - a for a, b in zip(points, points[1:]) if any(s <= a and b <= e for s, e in intervals)
    )


@given(task_graphs(), st.integers(1, 48), st.sampled_from([1, 2, 4, 8]), st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_driver_time_is_time_outside_stages(graph, n, e_c, seed):
    """Driver time is the run's time with no stage active; every stage's
    work lands in exactly one concurrency cluster."""
    run = simulate(graph, StaticAllocation(n), e_c=e_c, seed=seed)
    rep = analyze(run)
    busy = covered_time([(l.start, l.end) for l in run.stage_logs])
    assert rep.driver_time == pytest.approx(max(0.0, run.elapsed - busy), rel=1e-9, abs=1e-9)
    total = sum(sum(l.task_durations) for l in run.stage_logs)
    assert sum(t for t, _ in rep.cluster_work) == pytest.approx(total, rel=1e-9)
