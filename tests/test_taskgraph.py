"""Unit tests for the Catalyst-skeleton → task-graph builder."""
import pytest

from repro.cluster import taskgraph
from repro.cluster.taskgraph import Stage, TaskGraph, build_task_graph
from repro.core.features import PlanNode


def leaf(size=1_000_000, name="LogicalRelation", width=5):
    return PlanNode(name=name, size_bytes=size, width=width, children=[])


def node(name, *children, size=500_000, width=4):
    return PlanNode(name=name, size_bytes=size, width=width, children=list(children))


@pytest.fixture
def star_skeleton():
    # Aggregate(Join(Join(Filter(fact), dim1), dim2))
    return node(
        "Aggregate",
        node(
            "Join",
            node("Join", node("Filter", leaf(4_000_000)), leaf(50_000)),
            leaf(80_000),
        ),
    )


class TestBuildTaskGraph:
    def test_scan_only(self):
        g = build_task_graph("q", leaf())
        # scan stage + result stage
        assert len(g.stages) == 2
        assert g.stages[0].parents == ()
        assert g.stages[1].parents == (0,)

    def test_star_structure(self, star_skeleton):
        g = build_task_graph("q", star_skeleton)
        # 3 scans + 2 join shuffles + 1 agg shuffle + result = 7
        assert len(g.stages) == 7
        sinks = [s for s in g.stages if not any(s.stage_id in t.parents for t in g.stages)]
        assert len(sinks) == 1  # single result stage

    def test_dag_is_acyclic_and_parents_precede(self, star_skeleton):
        g = build_task_graph("q", star_skeleton)
        for s in g.stages:
            assert all(p < s.stage_id for p in s.parents)

    def test_deterministic(self, star_skeleton):
        g1 = build_task_graph("q", star_skeleton)
        g2 = build_task_graph("q", star_skeleton)
        for s1, s2 in zip(g1.stages, g2.stages):
            assert s1.task_durations == s2.task_durations

    def test_query_name_changes_skew(self, star_skeleton):
        g1 = build_task_graph("qa", star_skeleton)
        g2 = build_task_graph("qb", star_skeleton)
        assert any(
            s1.task_durations != s2.task_durations
            for s1, s2 in zip(g1.stages, g2.stages)
        )

    def test_work_scales_with_input_size(self):
        small = build_task_graph("q", node("Aggregate", leaf(1_000_000)))
        big = build_task_graph("q", node("Aggregate", leaf(10_000_000)))
        assert big.total_work > 5 * small.total_work

    def test_task_count_scales_with_size(self):
        small = build_task_graph("q", leaf(100_000))
        big = build_task_graph("q", leaf(10_000_000))
        assert big.stages[0].num_tasks > small.stages[0].num_tasks
        assert big.stages[0].num_tasks <= taskgraph.MAX_TASKS

    def test_union_children_feed_consumer_directly(self):
        g = build_task_graph(
            "q", node("Aggregate", node("Union", leaf(), leaf(), leaf()))
        )
        agg = g.stages[3]  # after the three scans
        assert set(agg.parents) == {0, 1, 2}

    def test_pipelined_ops_do_not_add_stages(self):
        plain = build_task_graph("q", leaf())
        piped = build_task_graph(
            "q", node("Project", node("Filter", leaf()))
        )
        assert len(plain.stages) == len(piped.stages)
        # ... but they do scale the scan cost up
        assert piped.stages[0].total_work > plain.stages[0].total_work

    def test_min_task_duration_floor(self):
        g = build_task_graph("q", leaf(10))
        assert all(
            d >= taskgraph.MIN_TASK_SEC for s in g.stages for d in s.task_durations
        )

    def test_serial_time_components(self, star_skeleton):
        g = build_task_graph("q", star_skeleton)
        assert g.serial_time == pytest.approx(
            taskgraph.APP_STARTUP_SEC + taskgraph.STAGE_OVERHEAD_SEC * len(g.stages)
        )

    def test_skew_bounded(self, star_skeleton):
        g = build_task_graph("q", star_skeleton)
        for s in g.stages:
            if s.num_tasks >= 4:
                mean = s.total_work / s.num_tasks
                assert s.critical_task <= mean * (1 + taskgraph.SKEW_FACTOR) * 1.2

    def test_graph_properties(self, star_skeleton):
        g = build_task_graph("q", star_skeleton)
        assert isinstance(g, TaskGraph)
        assert g.total_work > 0


def test_stage_without_tasks_rejected():
    """A stage with no tasks could never finish; it is refused on creation."""
    with pytest.raises(ValueError, match="no tasks"):
        Stage(stage_id=1, parents=(0,), task_durations=())
