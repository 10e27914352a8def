"""Unit tests for the event-driven cluster simulator."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.allocation import (
    DynamicAllocation,
    PredictiveRule,
    StaticAllocation,
)
from repro.cluster.simulator import core_efficiency, simulate
from repro.cluster.taskgraph import Stage, TaskGraph, build_task_graph
from repro.core.features import PlanNode
from repro.experiments.common import ground_truth_times, sparklens_times
from tests.snapshot import snapshot_records, snapshot_skeletons


def make_graph(fact_bytes=4_000_000, query="q"):
    fact = PlanNode("LogicalRelation", fact_bytes, 6, [])
    dim = PlanNode("LogicalRelation", 60_000, 4, [])
    join = PlanNode("Join", fact_bytes, 8, [fact, dim])
    agg = PlanNode("Aggregate", 100_000, 3, [join])
    return build_task_graph(query, agg)


@pytest.fixture(scope="module")
def graph():
    return make_graph()


class TestStaticAllocation:
    def test_monotone_nonincreasing_mean_times(self, graph):
        """t(n) decreases with n up to saturation (averaged over seeds)."""
        means = []
        for n in (1, 3, 8, 16, 48):
            ts = [simulate(graph, StaticAllocation(n), seed=s).elapsed for s in range(5)]
            means.append(np.mean(ts))
        assert all(a >= b * 0.97 for a, b in zip(means, means[1:]))

    def test_max_executors_matches_request(self, graph):
        r = simulate(graph, StaticAllocation(7), seed=0)
        assert r.max_executors == 7

    def test_deterministic_given_seed(self, graph):
        a = simulate(graph, StaticAllocation(8), seed=42)
        b = simulate(graph, StaticAllocation(8), seed=42)
        assert a.elapsed == b.elapsed
        assert a.auc == b.auc

    def test_seed_varies_runtime(self, graph):
        ts = {simulate(graph, StaticAllocation(8), seed=s).elapsed for s in range(6)}
        assert len(ts) > 1

    def test_run_to_run_cov_in_paper_band(self):
        """§5.1 reports ~4–7 % CoV; ours should be single-digit percent."""
        g = make_graph(8_000_000)
        ts = [simulate(g, StaticAllocation(8), seed=s).elapsed for s in range(12)]
        cov = np.std(ts) / np.mean(ts)
        assert 0.005 < cov < 0.15

    def test_all_stages_complete(self, graph):
        r = simulate(graph, StaticAllocation(4), seed=0)
        assert len(r.stage_logs) == len(graph.stages)
        for log, stage in zip(r.stage_logs, graph.stages):
            assert len(log.task_durations) == stage.num_tasks

    def test_elapsed_exceeds_serial_time(self, graph):
        r = simulate(graph, StaticAllocation(48), seed=0)
        assert r.elapsed > graph.app_startup_sec * 0.8


class TestAUCAccounting:
    def test_static_auc_close_to_n_times_t(self, graph):
        r = simulate(graph, StaticAllocation(6), seed=1)
        assert r.auc == pytest.approx(6 * r.elapsed, rel=0.02)

    def test_auc_equals_skyline_integral(self, graph):
        r = simulate(graph, DynamicAllocation(1, 48), seed=1)
        integral = 0.0
        for (t0, n0), (t1, _) in zip(r.skyline, r.skyline[1:]):
            integral += n0 * (t1 - t0)
        assert r.auc == pytest.approx(integral, rel=1e-6)

    def test_skyline_starts_at_zero_and_ends_at_zero(self, graph):
        r = simulate(graph, DynamicAllocation(1, 48), seed=0)
        assert r.skyline[0] == (0.0, 0)
        assert r.skyline[-1][1] == 0


class TestDynamicAllocation:
    def test_ramps_up_under_backlog(self):
        g = make_graph(12_000_000)
        r = simulate(g, DynamicAllocation(1, 48), seed=0)
        assert r.max_executors > 8

    def test_respects_max(self):
        g = make_graph(12_000_000)
        r = simulate(g, DynamicAllocation(1, 6), seed=0)
        assert r.max_executors <= 6

    def test_small_query_stays_small(self):
        g = make_graph(50_000)
        r = simulate(g, DynamicAllocation(1, 48), seed=0)
        assert r.max_executors <= 16

    def test_da_uses_less_auc_than_sa48(self):
        g = make_graph(8_000_000)
        da = simulate(g, DynamicAllocation(1, 48), seed=0)
        sa = simulate(g, StaticAllocation(48), seed=0)
        assert da.auc < sa.auc

    def test_da_slower_than_sa48(self):
        """The ramp-up lag costs time — the §5.4 DA vs SA(48) effect."""
        g = make_graph(8_000_000)
        da = np.mean([simulate(g, DynamicAllocation(1, 48), seed=s).elapsed for s in range(3)])
        sa = np.mean([simulate(g, StaticAllocation(48), seed=s).elapsed for s in range(3)])
        assert da > sa


class TestPredictiveRule:
    def test_allocates_predicted_count(self):
        g = make_graph(8_000_000)
        r = simulate(g, PredictiveRule(n_predicted=20), seed=0)
        assert r.max_executors == 20

    def test_starts_small(self):
        g = make_graph(8_000_000)
        r = simulate(g, PredictiveRule(n_predicted=20), seed=0)
        # before rule time only 5 executors were requested; skyline must
        # pass through a 5-executor plateau before 20
        counts = [n for _, n in r.skyline]
        assert 5 in counts and max(counts) == 20

    def test_rule_auc_below_sa_same_n(self):
        """Fig 12: Rule(n) occupies less than SA(n) (late arrival)."""
        g = make_graph(8_000_000)
        rule = simulate(g, PredictiveRule(n_predicted=16), seed=0)
        sa = simulate(g, StaticAllocation(16), seed=0)
        assert rule.auc < sa.auc


class TestRunCounters:
    def test_sa_processes_fewer_events_than_da(self, graph):
        """Only DA runs the 1 s backlog timer; SA wakes for no tick after t=0."""
        sa = simulate(graph, StaticAllocation(8), seed=0)
        da = simulate(graph, DynamicAllocation(1, 48), seed=0)
        assert sa.events < da.events

    @pytest.mark.parametrize("n", [1, 3, 8, 48])
    def test_sa_pops_one_event_per_task_stage_arrival_and_first_tick(self, graph, n):
        """SA(n) never removes an executor, so it schedules no idle check."""
        r = simulate(graph, StaticAllocation(n), seed=0)
        tasks = sum(s.num_tasks for s in graph.stages)
        assert r.events == tasks + len(graph.stages) + n + 1


@st.composite
def task_graphs(draw):
    """Random DAGs: 1–8 stages, parents among earlier stages, 1–40 tasks each."""
    stages = []
    for sid in range(draw(st.integers(1, 8))):
        parents = draw(st.sets(st.integers(0, sid - 1), max_size=3)) if sid else set()
        durations = draw(
            st.lists(st.floats(0.1, 30.0, allow_nan=False), min_size=1, max_size=40)
        )
        stages.append(Stage(sid, tuple(sorted(parents)), tuple(durations)))
    return TaskGraph(
        query=f"g{draw(st.integers(0, 999))}",
        stages=stages,
        stage_overhead_sec=draw(st.floats(0.0, 3.0)),
        app_startup_sec=draw(st.floats(0.0, 25.0)),
    )


policies = st.one_of(
    st.integers(1, 48).map(StaticAllocation),
    st.integers(1, 48).map(lambda m: DynamicAllocation(1, m)),
    st.integers(1, 48).map(lambda n: PredictiveRule(n_predicted=n)),
)


class TestRandomGraphInvariants:
    @settings(max_examples=150, deadline=None)
    @given(task_graphs(), policies, st.sampled_from([1, 2, 4, 8]), st.integers(0, 2**16))
    def test_run_invariants(self, graph, policy, e_c, seed):
        r = simulate(graph, policy, e_c=e_c, seed=seed)
        logs = r.stage_logs
        assert [len(log.task_durations) for log in logs] == [
            s.num_tasks for s in graph.stages
        ]
        # critical path: no stage finishes before its longest task has run
        path: list[float] = []
        for s, log in zip(graph.stages, logs):
            path.append(max(log.task_durations) + max((path[q] for q in s.parents), default=0.0))
        assert r.elapsed >= max(path)
        for s, log in zip(graph.stages, logs):
            assert all(log.start >= logs[q].end for q in s.parents)
        total = sum(sum(log.task_durations) for log in logs)
        assert r.elapsed >= total / (r.max_executors * e_c)
        integral = sum(n0 * (t1 - t0) for (t0, n0), (t1, _) in zip(r.skyline, r.skyline[1:]))
        assert integral == pytest.approx(r.auc, rel=1e-9)
        if isinstance(policy, StaticAllocation):
            assert r.auc == pytest.approx(policy.n * r.elapsed, rel=1e-9)
        tasks = sum(s.num_tasks for s in graph.stages)
        assert r.events >= tasks + len(graph.stages)  # every task end and stage start
        assert max(s.num_tasks for s in graph.stages) <= r.peak_pending <= tasks


class TestCoreEfficiency:
    def test_default_ec_is_exact(self):
        assert core_efficiency("any", 4) == 1.0

    def test_other_ec_within_band(self):
        vals = [core_efficiency(f"q{i}", e) for i in range(50) for e in (2, 6, 8)]
        assert all(0.8 < v < 1.35 for v in vals)

    def test_deterministic(self):
        assert core_efficiency("q1", 8) == core_efficiency("q1", 8)

    def test_total_cores_dominates(self):
        """Same k with different e_c lands near the e_c=4 time (Fig 5)."""
        g = make_graph(8_000_000, query="qk")
        t_ec4 = simulate(g, StaticAllocation(16), seed=0).elapsed
        t_ec8 = simulate(g, StaticAllocation(8), e_c=8, seed=0).elapsed
        assert abs(t_ec8 - t_ec4) / t_ec4 < 0.35


@pytest.fixture(scope="module")
def snapshot():
    """Every query record of the sf=0.1 snapshot with its task graph."""
    skeletons = snapshot_skeletons()
    return [(r, build_task_graph(r.name, skeletons[r.name])) for r in snapshot_records()]


@pytest.fixture(scope="module")
def snapshot_slice(snapshot):
    """Every 10th query of the snapshot."""
    return snapshot[::10]


_PINNED_POLICIES = {
    "SA(1)": lambda: StaticAllocation(1),
    "SA(8)": lambda: StaticAllocation(8),
    "SA(48)": lambda: StaticAllocation(48),
    "DA(1,48)": lambda: DynamicAllocation(1, 48),
    "Rule(8)": lambda: PredictiveRule(n_predicted=8),
    "Rule(20)": lambda: PredictiveRule(n_predicted=20),
}

#: sha256 over every run's (elapsed, auc, max_executors, skyline, stage
#: logs) for e_c in (2, 4, 8) on the snapshot slice; a changed schedule,
#: noise draw or float anywhere in the simulator changes them.
PINNED_RUNS_SHA256 = {
    "SA(1)": "0651505ade06a9c447f198ab26044e4d28dc53243771b6ae54abf05187d40e4f",
    "SA(8)": "be677f7e4641cb8e422e6b110f1e1578c0f8d6c2a3f0e75e41e18b2adc3f8c1f",
    "SA(48)": "31f25bde198b40ee86094a21e05e33ebf6adb527e19d3e66eb7c0f8229288fd5",
    "DA(1,48)": "fea952459fc98c351bbc922f49336f59fa285e9b8b3054b46b76bbc300de9f0e",
    "Rule(8)": "577c058ef7c970038806cbd37783ea461387652edcf61abbed05f6a900c4f83c",
    "Rule(20)": "15e30eda6938e5968c65156c8e8624546c9e69a8f408a79d69fad92871b68e37",
}


def _run_bytes(r) -> bytes:
    logs = [(log.start, log.end, log.task_durations) for log in r.stage_logs]
    return repr((r.elapsed, r.auc, r.max_executors, r.skyline, logs)).encode()


def _runs_digest(make_policy, graphs) -> str:
    h = hashlib.sha256()
    seed = 0
    for e_c in (2, 4, 8):
        for g in graphs:
            h.update(_run_bytes(simulate(g, make_policy(), e_c=e_c, seed=seed)))
            seed += 1
    return h.hexdigest()


@pytest.mark.parametrize("policy", sorted(PINNED_RUNS_SHA256))
def test_pinned_runs(policy, snapshot_slice):
    """Simulated runs on the snapshot slice are bit-identical to the recorded ones."""
    graphs = [g for _, g in snapshot_slice]
    assert _runs_digest(_PINNED_POLICIES[policy], graphs) == PINNED_RUNS_SHA256[policy]


def _random_cases(n=200):
    """Seeded random graphs and policies that reach the scheduler's rare orders.

    Every 4th graph has no stage overhead (a child becomes runnable at the
    instant its last parent task ends) and every 8th starts at t=0 (stages,
    arrivals and the first tick tie). Long tasks and single-task stages
    leave executors idle past the idle timeout, so DA(1, m) with small
    ``m`` and Rule(n < 5) remove executors and request them again.
    """
    rng = np.random.default_rng(12)
    cases = []
    for i in range(n):
        stages = []
        for sid in range(int(rng.integers(1, 9))):
            k = int(rng.integers(0, min(sid, 3) + 1))
            parents = tuple(sorted(rng.choice(sid, size=k, replace=False).tolist())) if k else ()
            n_tasks = 1 if rng.random() < 0.3 else int(rng.integers(1, 41))
            longest = 150.0 if rng.random() < 0.3 else 30.0
            stages.append(Stage(sid, parents, tuple(rng.uniform(0.1, longest, n_tasks).tolist())))
        graph = TaskGraph(
            query=f"r{i}",
            stages=stages,
            stage_overhead_sec=0.0 if i % 4 == 0 else float(rng.uniform(0.0, 3.0)),
            app_startup_sec=0.0 if i % 8 == 0 else float(rng.uniform(0.0, 25.0)),
        )
        n = int(rng.integers(1, 5)) if i % 2 else int(rng.integers(1, 49))
        policy = (StaticAllocation, lambda m: DynamicAllocation(1, m), PredictiveRule)[i % 3](n)
        cases.append((graph, policy, (1, 1, 2, 4, 8)[i % 5], i))
    return cases


#: sha256 over the same fields as :data:`PINNED_RUNS_SHA256` for every run
#: of :func:`_random_cases`
PINNED_RANDOM_SHA256 = "69d0d82a25d831bd80a169ebfd8c48d85a2f77d27aa01e60e456d01a1b5e2638"


def test_pinned_random_runs():
    """Runs that tie events in time and remove and re-add executors are bit-identical."""
    h = hashlib.sha256()
    for graph, policy, e_c, seed in _random_cases():
        h.update(_run_bytes(simulate(graph, policy, e_c=e_c, seed=seed)))
    assert h.hexdigest() == PINNED_RANDOM_SHA256


def test_snapshot_ground_truth_and_sparklens_exact(snapshot):
    """Ground truth and Sparklens estimates reproduce the snapshot exactly."""
    assert len(snapshot) == 103
    for r, g in snapshot:
        assert ground_truth_times(g) == r.actual_times, r.name
        assert sparklens_times(g) == r.sparklens_times, r.name
