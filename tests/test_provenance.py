"""Tests for the verdict flight recorder, trace export, and run diffing.

The load-bearing property: a ``workers=4`` run's provenance store
serializes **byte-identically** to the serial run's — durations are
content-keyed hashes, never wall-clock, and both paths insert records
in workload order.
"""

import json
import threading

import pytest

from repro import MalwareSlumsStudy, StudyConfig
from repro.cli import main as cli_main
from repro.crawler import CrawlPipeline, PipelineOptions
from repro.obs import (
    DiffConfig,
    ProvenanceStore,
    RunObserver,
    StageRecord,
    VerdictProvenance,
    build_chrome_trace,
    build_run_report,
    diff_reports,
    render_provenance,
)
from repro.obs.provenance import (
    STAGE_AGGREGATE,
    STAGE_BLACKLISTS,
    STAGE_CRAWL,
    STAGE_ENGINE_PREFIX,
    STAGE_SANDBOX,
    STAGE_STATICJS,
)


# ----------------------------------------------------------------------
# data model round-trips
# ----------------------------------------------------------------------
def _sample_record(url="http://evil.example/", malicious=True):
    return VerdictProvenance(url=url, malicious=malicious, stages=[
        StageRecord(name=STAGE_CRAWL, outcome="page", duration=0.05,
                    evidence={"exchange": "10KHits"}),
        StageRecord(name=STAGE_ENGINE_PREFIX + "AegisAV", outcome="detected",
                    duration=0.002, evidence={"label": "Trojan.Gen"}),
        StageRecord(name=STAGE_AGGREGATE, outcome="malicious",
                    duration=0.001, evidence={"flagged_by": ["virustotal"]}),
    ])


def test_provenance_round_trips_through_json():
    record = _sample_record()
    clone = VerdictProvenance.from_dict(json.loads(record.to_json()))
    assert clone == record
    assert clone.total_duration == pytest.approx(0.053)
    assert clone.stage_names() == ["crawl", "engine:AegisAV", "aggregate"]
    assert clone.stage(STAGE_CRAWL).evidence["exchange"] == "10KHits"
    assert clone.stage("nonexistent") is None
    assert [s.name for s in clone.engine_stages()] == ["engine:AegisAV"]


def test_provenance_store_round_trips_and_aggregates():
    store = ProvenanceStore()
    store.add(_sample_record("http://a.example/"))
    store.add(_sample_record("http://b.example/", malicious=False))
    assert len(store) == 2
    assert "http://a.example/" in store
    assert store.urls() == ["http://a.example/", "http://b.example/"]
    assert store.stage_mix() == {"aggregate": 2, "crawl": 2,
                                 "engine:AegisAV": 2}
    assert store.mean_stages() == pytest.approx(3.0)

    clone = ProvenanceStore.from_jsonl(store.to_jsonl())
    assert clone.to_jsonl() == store.to_jsonl()
    assert clone.get("http://b.example/").malicious is False

    assert len(ProvenanceStore.from_jsonl("")) == 0
    assert ProvenanceStore().mean_stages() == 0.0


def test_render_provenance_folds_clean_engines():
    record = _sample_record()
    record.stages.insert(2, StageRecord(
        name=STAGE_ENGINE_PREFIX + "QuietAV", outcome="clean", duration=0.002))
    folded = render_provenance(record)
    assert "MALICIOUS" in folded
    assert "engine:(clean)" in folded and "QuietAV" in folded
    assert "engine:QuietAV " not in folded
    expanded = render_provenance(record, include_clean_engines=True)
    assert "engine:QuietAV" in expanded and "engine:(clean)" not in expanded


# ----------------------------------------------------------------------
# recorded runs
# ----------------------------------------------------------------------
def _recorded_pipeline(workers=1, observer=None):
    study = MalwareSlumsStudy(StudyConfig(seed=5, scale=0.005))
    web = study.generate_web()
    pipeline = CrawlPipeline(web, PipelineOptions(
        seed=66, observer=observer, workers=workers, record_provenance=True))
    return pipeline, pipeline.run()


@pytest.fixture(scope="module")
def recorded_run():
    return _recorded_pipeline(observer=RunObserver())


def test_recorded_run_covers_every_verdict(recorded_run):
    pipeline, outcome = recorded_run
    store = outcome.provenance
    assert store is pipeline.provenance_store
    assert len(store) == len(outcome.verdicts)
    assert store.urls() == list(outcome.verdicts)
    assert pipeline.observer.metrics.counter_total("provenance.records") == len(store)


def test_recorded_chain_is_complete(recorded_run):
    _pipeline, outcome = recorded_run
    flagged = next(r for r in outcome.provenance if r.malicious)
    names = flagged.stage_names()
    # the full life of a crawled page, front to back
    assert names[0] == STAGE_CRAWL
    for required in (STAGE_STATICJS, STAGE_SANDBOX, "tool:virustotal",
                     "tool:quttera", STAGE_BLACKLISTS):
        assert required in names, required
    assert names[-1] == STAGE_AGGREGATE
    assert flagged.engine_stages(), "VT engine sub-verdicts missing"
    aggregate = flagged.stage(STAGE_AGGREGATE)
    assert aggregate.outcome == "malicious"
    assert aggregate.evidence["flagged_by"]
    assert flagged.total_duration > 0.0


def test_provenance_bit_identical_across_worker_counts(recorded_run):
    _pipeline, serial = recorded_run
    _p4, parallel = _recorded_pipeline(workers=4)
    assert parallel.provenance.to_jsonl() == serial.provenance.to_jsonl()


def test_study_config_plumbs_record_provenance():
    study = MalwareSlumsStudy(StudyConfig(seed=5, scale=0.005,
                                          record_provenance=True))
    outcome = study.crawl_and_scan()
    assert outcome.provenance is not None and len(outcome.provenance) > 0
    off = MalwareSlumsStudy(StudyConfig(seed=5, scale=0.005))
    assert off.crawl_and_scan().provenance is None


# ----------------------------------------------------------------------
# explain CLI
# ----------------------------------------------------------------------
def test_explain_cli_from_stored_jsonl(tmp_path, capsys, recorded_run):
    _pipeline, outcome = recorded_run
    path = tmp_path / "provenance.jsonl"
    path.write_text(outcome.provenance.to_jsonl(), encoding="utf-8")
    url = outcome.provenance.urls()[0]

    assert cli_main(["explain", url, "--from", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Verdict provenance: %s" % url in out
    assert "crawl" in out and "aggregate" in out

    assert cli_main(["explain", url, "--from", str(path), "--json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["url"] == url and parsed["stages"]


def test_explain_cli_unknown_url_exits_2(tmp_path, capsys, recorded_run):
    _pipeline, outcome = recorded_run
    path = tmp_path / "provenance.jsonl"
    path.write_text(outcome.provenance.to_jsonl(), encoding="utf-8")
    assert cli_main(["explain", "http://nope.example/", "--from", str(path)]) == 2
    captured = capsys.readouterr()
    assert "no verdict recorded" in captured.err


# ----------------------------------------------------------------------
# chrome trace export
# ----------------------------------------------------------------------
def test_chrome_trace_structure(recorded_run):
    pipeline, _outcome = recorded_run
    trace = build_chrome_trace(pipeline.observer)
    events = trace["traceEvents"]
    assert events and trace["displayTimeUnit"] == "ms"
    for event in events:
        assert event["ph"] in ("X", "B", "E", "M")
        assert event["pid"] == 1
        if event["ph"] == "X":
            assert event["ts"] >= 0 and event["dur"] >= 0
    begins = [e for e in events if e["ph"] == "B"]
    ends = [e for e in events if e["ph"] == "E"]
    assert len(begins) == len(ends)
    # metadata names the process and the main track
    labels = {e["name"]: e["args"]["name"] for e in events if e["ph"] == "M"
              if e["tid"] == 0}
    assert labels["process_name"] == "repro pipeline"
    assert labels["thread_name"] == "main"
    # the whole trace is JSON-serializable
    json.dumps(trace)


# ----------------------------------------------------------------------
# run diffing
# ----------------------------------------------------------------------
def test_diff_reports_identical_is_ok():
    report = {"scan": {"malicious": 10, "benign": 90}, "flags": [1, 2]}
    result = diff_reports(report, json.loads(json.dumps(report)))
    assert result.ok and not result.regressions and not result.tolerated
    assert "no regression" in result.render_text()


def test_diff_reports_finds_numeric_drift_and_tolerance():
    base = {"scan": {"malicious": 100}}
    cand = {"scan": {"malicious": 97}}
    strict = diff_reports(base, cand)
    assert not strict.ok
    entry = strict.regressions[0]
    assert entry.path == "scan.malicious" and entry.kind == "changed"
    assert entry.rel_change == pytest.approx(-0.03)
    assert "-3.00%" in entry.render()

    loose = diff_reports(base, cand, DiffConfig(rel_tol=0.05))
    assert loose.ok and loose.tolerated[0].path == "scan.malicious"


def test_diff_reports_structural_findings():
    base = {"a": {"x": 1, "gone": 2}, "lst": [1, 2], "t": "text", "b": True}
    cand = {"a": {"x": 1, "new": 3}, "lst": [1, 2, 3], "t": 5, "b": False}
    result = diff_reports(base, cand)
    kinds = {entry.path: entry.kind for entry in result.regressions}
    assert kinds["a.gone"] == "removed"
    assert kinds["a.new"] == "added"
    assert kinds["lst.length"] == "changed"
    assert kinds["t"] == "type"
    # bools are exact values, never tolerated as numeric drift
    assert kinds["b"] == "changed"
    tolerant = diff_reports(base, cand, DiffConfig(rel_tol=10.0))
    assert {e.path: e.kind for e in tolerant.regressions}["b"] == "changed"


def test_diff_reports_default_ignores_volatile_paths():
    base = {"metrics": {"x": 1}, "events": {"emitted": 5, "tail": [1]},
            "scan": {"malicious": 1}}
    cand = {"metrics": {"x": 99}, "events": {"emitted": 5, "tail": [1, 2]},
            "scan": {"malicious": 1}}
    assert diff_reports(base, cand).ok
    # ... but an explicit empty ignore list sees everything
    result = diff_reports(base, cand, DiffConfig(ignore=()))
    assert not result.ok


def test_obs_diff_cli_exit_codes(tmp_path, capsys):
    base = tmp_path / "base.json"
    good = tmp_path / "good.json"
    bad = tmp_path / "bad.json"
    base.write_text(json.dumps({"scan": {"malicious": 10}}), encoding="utf-8")
    good.write_text(json.dumps({"scan": {"malicious": 10}}), encoding="utf-8")
    bad.write_text(json.dumps({"scan": {"malicious": 7}}), encoding="utf-8")

    assert cli_main(["obs-diff", str(base), str(good)]) == 0
    assert cli_main(["obs-diff", str(base), str(bad)]) == 1
    assert "scan.malicious" in capsys.readouterr().out
    # tolerance turns the same drift into a pass
    assert cli_main(["obs-diff", str(base), str(bad), "--rel-tol", "0.5"]) == 0


def test_baseline_report_matches_freshly_built_sections():
    """The committed baseline stays reproducible from its pinned command."""
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                        "baseline_report.json")
    with open(path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    study = MalwareSlumsStudy(StudyConfig(seed=2016, scale=0.01))
    observer = RunObserver()
    pipeline = CrawlPipeline(study.generate_web(), PipelineOptions(
        seed=2016 + 61, observer=observer, workers=1, record_provenance=True))
    outcome = pipeline.run()
    report = json.loads(json.dumps(build_run_report(pipeline, outcome)))
    assert diff_reports(baseline, report).ok


# ----------------------------------------------------------------------
# observer thread guard
# ----------------------------------------------------------------------
def test_run_observer_rejects_cross_thread_mutation():
    observer = RunObserver()
    observer.count("warmup")  # binds ownership to this thread
    failures = []

    def mutate():
        try:
            observer.count("cross-thread")
        except RuntimeError as error:
            failures.append(str(error))

    thread = threading.Thread(target=mutate)
    thread.start()
    thread.join()
    assert failures and "RecordingObserver" in failures[0]
    assert observer.metrics.counter_total("cross-thread") == 0
    # the owning thread keeps working
    observer.count("warmup")
    assert observer.metrics.counter_total("warmup") == 2


def test_run_observer_thread_guard_opt_out():
    observer = RunObserver(thread_guard=False)
    observer.count("warmup")
    errors = []

    def mutate():
        try:
            observer.event("elsewhere")
        except RuntimeError as error:  # pragma: no cover - should not happen
            errors.append(error)

    thread = threading.Thread(target=mutate)
    thread.start()
    thread.join()
    assert not errors


# ----------------------------------------------------------------------
# crash-safe JSON-lines sink (ProvenanceStore close semantics)
# ----------------------------------------------------------------------
def test_store_sink_writes_through_and_close_is_idempotent(tmp_path):
    path = tmp_path / "provenance.jsonl"
    with ProvenanceStore(path=str(path)) as store:
        store.add(_sample_record("http://a.example/"))
        # flushed per record: visible on disk before close
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["url"] == "http://a.example/"
        store.add(_sample_record("http://b.example/", malicious=False))
    store.close()  # second close is a no-op
    on_disk = ProvenanceStore.from_jsonl(path.read_text(encoding="utf-8"))
    assert on_disk.to_jsonl() == store.to_jsonl()
    # the in-memory store keeps working after close
    store.add(_sample_record("http://c.example/"))
    assert len(store) == 3


def test_pipeline_flushes_completed_records_when_scan_raises(tmp_path):
    """A crash mid-scan must leave every completed chain on disk."""
    path = tmp_path / "provenance.jsonl"
    study = MalwareSlumsStudy(StudyConfig(seed=5, scale=0.005))
    # workers=1 pins the serial loop so the patched service method below
    # is the one the scan actually calls
    pipeline = CrawlPipeline(study.generate_web(), PipelineOptions(
        seed=66, workers=1, provenance_path=str(path)))
    assert pipeline.record_provenance  # implied by the sink path
    pipeline.crawl()
    service = pipeline.build_detection()
    budget = {"left": 25}
    original = service.verdict

    def failing_verdict(url, **kwargs):
        if budget["left"] <= 0:
            raise RuntimeError("scanner died mid-run")
        budget["left"] -= 1
        return original(url, **kwargs)

    service.verdict = failing_verdict
    with pytest.raises(RuntimeError, match="scanner died"):
        pipeline.scan()
    # the sink was closed by the pipeline's finally and holds exactly
    # the verdicts that completed before the crash
    assert pipeline.provenance_store._sink is None
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 25
    for line in lines:
        record = VerdictProvenance.from_dict(json.loads(line))
        assert record.stage_names()[0] == STAGE_CRAWL


def test_pipeline_sink_matches_in_memory_store(tmp_path):
    path = tmp_path / "provenance.jsonl"
    study = MalwareSlumsStudy(StudyConfig(seed=5, scale=0.005))
    pipeline = CrawlPipeline(study.generate_web(), PipelineOptions(
        seed=66, provenance_path=str(path)))
    outcome = pipeline.run()
    store = outcome.provenance
    assert store is not None and len(store) == len(outcome.verdicts)
    assert (path.read_text(encoding="utf-8").strip()
            == store.to_jsonl().strip())
