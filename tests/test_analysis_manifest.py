"""Tests for the provenance manifest (RunRecord / RunManifest)."""

import json

import numpy as np
import pytest

from repro import perf
from repro.analysis import Comparison, ExperimentResult, Series
from repro.analysis.manifest import (
    RunManifest,
    RunRecord,
    current_git_sha,
)
from repro.errors import ParameterError


@pytest.fixture()
def record():
    return RunRecord(
        experiment_id="fig0",
        title="A synthetic figure",
        wall_time_s=0.125,
        perf_counters={"poisson.solves": 7, "cache.device.hits": 3},
        git_sha="deadbeef" * 5,
        schema_hash="0123456789abcdef",
        comparisons=(
            Comparison(claim="holds", paper_value=1.0, measured_value=1.1,
                       unit="V", holds=True),
            Comparison(claim="fails", paper_value=2.0, measured_value=9.0,
                       holds=False, note="off"),
        ),
        n_series=1,
        n_rows=4,
    )


class TestRunRecord:
    def test_claim_counts(self, record):
        assert record.claims_total == 2
        assert record.claims_held == 1
        assert not record.all_hold()

    def test_round_trip(self, record):
        assert RunRecord.from_dict(record.to_dict()) == record

    def test_dict_is_json_safe(self, record):
        text = json.dumps(record.to_dict(), sort_keys=True)
        assert RunRecord.from_dict(json.loads(text)) == record

    def test_needs_id(self):
        with pytest.raises(ParameterError):
            RunRecord(experiment_id="", title="t", wall_time_s=0.0,
                      perf_counters={}, git_sha="x", schema_hash="y")

    def test_rejects_negative_wall_time(self):
        with pytest.raises(ParameterError):
            RunRecord(experiment_id="x", title="t", wall_time_s=-1.0,
                      perf_counters={}, git_sha="x", schema_hash="y")

    def test_kind_checked(self, record):
        payload = record.to_dict()
        payload["kind"] = "banana"
        with pytest.raises(ParameterError):
            RunRecord.from_dict(payload)

    def test_schema_checked(self, record):
        payload = record.to_dict()
        payload["schema"] = 99
        with pytest.raises(ParameterError):
            RunRecord.from_dict(payload)


class TestCapture:
    def test_record_runs_and_stamps(self):
        manifest = RunManifest(git_sha="testsha")
        result, record = manifest.record("table1")
        assert result.experiment_id == "table1"
        assert record.experiment_id == "table1"
        assert record.title == "Generalized scaling rules (Table 1)"
        assert record.git_sha == "testsha"
        assert record.schema_hash  # digest of the model sources
        assert record.wall_time_s >= 0.0
        assert record.comparisons == result.comparisons
        assert record.n_rows == len(result.rows)
        assert len(manifest) == 1

    def test_perf_counters_attributed(self):
        # eq3 sweeps a VTC -> its batched VTC solves must be attributed
        # to this run, not inherited from earlier ones.
        perf.bump("synthetic.preexisting", 5)
        manifest = RunManifest(git_sha="testsha")
        _result, record = manifest.record("eq3")
        assert "synthetic.preexisting" not in record.perf_counters
        assert any(name.startswith("circuit.vtc_batch_")
                   for name in record.perf_counters)
        assert all(isinstance(v, int) and v > 0
                   for v in record.perf_counters.values())

    def test_add_external_result(self):
        manifest = RunManifest(git_sha="testsha")
        result = ExperimentResult(
            experiment_id="table1", title="ignored: registry title wins",
            series=(Series(label="s", x=np.array([1.0, 2.0]),
                           y=np.array([3.0, 4.0])),),
        )
        record = manifest.add(result, wall_time_s=1.5,
                              perf_counters={"poisson.solves": 2})
        assert record.title == "Generalized scaling rules (Table 1)"
        assert record.wall_time_s == 1.5
        assert record.n_series == 1


class TestJsonl:
    def test_round_trip(self, tmp_path, record):
        manifest = RunManifest(git_sha="testsha")
        manifest.record("table1")
        path = tmp_path / "trace" / "manifest.jsonl"
        manifest.write_jsonl(path)
        restored = RunManifest.read_jsonl(path)
        assert restored == manifest.records

    def test_append_accumulates(self, tmp_path):
        manifest = RunManifest(git_sha="testsha")
        manifest.record("table1")
        path = tmp_path / "manifest.jsonl"
        manifest.write_jsonl(path)
        manifest.write_jsonl(path)
        assert len(RunManifest.read_jsonl(path)) == 2

    def test_overwrite_mode(self, tmp_path):
        manifest = RunManifest(git_sha="testsha")
        manifest.record("table1")
        path = tmp_path / "manifest.jsonl"
        manifest.write_jsonl(path)
        manifest.write_jsonl(path, append=False)
        assert len(RunManifest.read_jsonl(path)) == 1


class TestResultsPayload:
    def test_payload_structure(self):
        manifest = RunManifest(git_sha="testsha")
        manifest.record("table1")
        manifest.record("eq3")
        payload = manifest.results_payload()
        assert payload["kind"] == "results"
        assert payload["git_sha"] == "testsha"
        assert payload["schema_hash"] == manifest.schema_hash
        assert sorted(payload["experiments"]) == ["eq3", "table1"]
        entry = payload["experiments"]["table1"]
        assert entry["claims_total"] == entry["claims_held"]
        assert "perf_counters" in entry
        assert "wall_time_s" in entry

    def test_save_results_json(self, tmp_path):
        manifest = RunManifest(git_sha="testsha")
        manifest.record("table1")
        path = tmp_path / "results.json"
        manifest.save_results_json(path)
        payload = json.loads(path.read_text())
        assert payload["experiments"]["table1"]["n_rows"] > 0


class TestGitSha:
    def test_inside_repo(self):
        sha = current_git_sha()
        assert sha == "unknown" or len(sha) == 40

    def test_outside_repo(self, tmp_path):
        assert current_git_sha(tmp_path) == "unknown"
