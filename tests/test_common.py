"""Tests for the experiment infrastructure (dataset build + caching)."""
import json

import numpy as np
import pytest

from repro.cluster.taskgraph import build_task_graph
from repro.core.features import PlanNode
from repro.experiments import common


class TestIqrMean:
    def test_plain_mean_without_outliers(self):
        assert common.iqr_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_outlier_discarded(self):
        vals = [10.0, 10.5, 9.5, 10.2, 9.8, 100.0]
        assert common.iqr_mean(vals) == pytest.approx(np.mean(vals[:-1]), rel=0.01)

    def test_all_equal(self):
        assert common.iqr_mean([5.0] * 4) == 5.0


class TestStableSeed:
    def test_deterministic(self):
        assert common.stable_seed("a", 1) == common.stable_seed("a", 1)

    def test_distinct_inputs_distinct_seeds(self):
        seeds = {common.stable_seed("q", n) for n in range(50)}
        assert len(seeds) == 50


def _graph():
    fact = PlanNode("LogicalRelation", 3_000_000, 5, [])
    agg = PlanNode("Aggregate", 10_000, 2, [fact])
    return build_task_graph("gt", agg)


class TestGroundTruth:
    def test_grid_keys(self):
        times = common.ground_truth_times(_graph(), runs=2)
        assert sorted(times) == [1, 3, 8, 16, 32, 48]

    def test_broadly_nonincreasing(self):
        times = common.ground_truth_times(_graph(), runs=3)
        assert times[1] > times[48]

    def test_sparklens_full_range(self):
        sl = common.sparklens_times(_graph())
        assert sorted(sl) == list(range(1, 49))
        assert all(sl[n] >= sl[n + 1] for n in range(1, 48))


class TestSkeletonSerialization:
    def test_roundtrip(self):
        node = PlanNode(
            "Aggregate", 5, 2, [PlanNode("LogicalRelation", 100, 3, [])]
        )
        back = common._skeleton_from_json(common._skeleton_to_json(node))
        assert back.name == "Aggregate"
        assert back.children[0].size_bytes == 100


class _FakeSpark:
    """Stands in for a session: ``sql`` hands the query text to the
    patched plan walk, which makes a one-scan skeleton of it."""

    def sql(self, text):
        return text


@pytest.fixture
def fake_spark(monkeypatch):
    monkeypatch.setattr(common, "materialize", lambda spark, **kw: {})
    monkeypatch.setattr(
        common,
        "extract_skeleton",
        lambda sql: PlanNode("Aggregate", 10, 2, [PlanNode("LogicalRelation", 1000 * len(sql), 4, [])]),
    )
    return _FakeSpark()


class TestDatasetCache:
    def test_sf_mapping(self):
        assert common.SF_MAP == {10: 0.01, 100: 0.1}

    def test_build_then_load_round_trip(self, tmp_path, fake_spark):
        """A missing file is recorded with one session, then served without one."""
        sessions = []

        def session():
            sessions.append(fake_spark)
            return fake_spark

        built = common.load_dataset(0.1, session, root=str(tmp_path))
        assert len(sessions) == 1
        assert [r.name for r in built.records] == [q.name for q in common.QUERIES]
        doc = json.loads((tmp_path / "dataset_sf0.1.json").read_text())
        assert set(doc) == {"sf", "queries"}
        assert set(doc["queries"][0]) == {"name", "skeleton"}
        loaded = common.load_dataset(0.1, session, root=str(tmp_path))
        assert len(sessions) == 1
        assert loaded.records == built.records

    def test_interrupted_build_leaves_no_file(self, tmp_path, fake_spark, monkeypatch):
        """A write that fails half way leaves nothing a later run would read."""

        def interrupted(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(common.json, "dump", interrupted)
        with pytest.raises(OSError):
            common.load_dataset(0.1, lambda: fake_spark, root=str(tmp_path))
        assert not (tmp_path / "dataset_sf0.1.json").exists()
