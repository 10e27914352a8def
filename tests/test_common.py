"""Tests for the experiment infrastructure (dataset build + caching)."""
import dataclasses
import json
import shutil
from functools import partial

import numpy as np
import pytest

from repro import synth_data
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


class TestDatasetKey:
    def test_deterministic_and_per_sf(self):
        assert common.dataset_key(0.1) == common.dataset_key(0.1)
        assert common.dataset_key(0.1) != common.dataset_key(0.01)

    def test_changes_with_one_query_sql(self, monkeypatch):
        before = common.dataset_key(0.1)
        queries = list(common.QUERIES)
        queries[7] = dataclasses.replace(queries[7], sql=queries[7].sql + " ")
        monkeypatch.setattr(common, "QUERIES", queries)
        assert common.dataset_key(0.1) != before

    def test_changes_with_one_hashed_source_file(self, monkeypatch, tmp_path):
        before = common.dataset_key(0.1)
        copy = tmp_path / "synth_data.py"
        shutil.copy(synth_data.__file__, copy)
        monkeypatch.setattr(synth_data, "__file__", str(copy))
        assert common.dataset_key(0.1) == before  # the content counts, not the path
        copy.write_text(copy.read_text() + "\n# edited\n")
        assert common.dataset_key(0.1) != before


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
    def test_missing_cache_returns_none(self, tmp_path):
        assert common.load_cached_dataset(0.12345, cache_root=str(tmp_path)) is None

    def test_sf_mapping(self):
        assert common.SF_MAP == {10: 0.01, 100: 0.1}

    def test_build_then_load_round_trip(self, tmp_path, fake_spark):
        built = common.build_dataset(fake_spark, sf=0.1, cache_root=str(tmp_path))
        loaded = common.load_cached_dataset(0.1, cache_root=str(tmp_path))
        assert [r.name for r in loaded.records] == [q.name for q in common.QUERIES]
        assert loaded.records == built.records
        with open(tmp_path / "dataset_sf0.1.json") as f:
            doc = json.load(f)
        assert doc["key"] == common.dataset_key(0.1)
        assert set(doc["queries"][0]) == {"name", "skeleton"}

    def test_wrong_key_is_rebuilt_not_served(self, tmp_path, fake_spark, monkeypatch):
        root = str(tmp_path)
        monkeypatch.setattr(common, "load_cached_dataset", partial(common.load_cached_dataset, cache_root=root))
        monkeypatch.setattr(common, "build_dataset", partial(common.build_dataset, cache_root=root))
        stale_leaf = common._skeleton_to_json(PlanNode("LogicalRelation", 7, 1, []))
        path = tmp_path / "dataset_sf0.1.json"
        path.write_text(json.dumps({
            "sf": 0.1,
            "key": "0" * 64,
            "queries": [{"name": q.name, "skeleton": stale_leaf} for q in common.QUERIES],
        }))
        sessions = []

        def session():
            sessions.append(fake_spark)
            return fake_spark

        ds = common.dataset_for_paper_sf(100, session)
        assert len(sessions) == 1  # the stale file made it rebuild
        assert ds.skeletons[common.QUERIES[0].name].size_bytes == 10
        assert json.loads(path.read_text())["key"] == common.dataset_key(0.1)
        again = common.dataset_for_paper_sf(100, session)
        assert len(sessions) == 1  # now served from the cache
        assert again.records == ds.records
