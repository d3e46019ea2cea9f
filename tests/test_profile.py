"""Tests for repro.obs.profile: work ledger, memory ledger, budget gate.

The load-bearing property is determinism: the work ledger of a
``workers=4`` run must serialize byte-identically to the serial run's,
which is what lets a committed perf budget gate CI on "did this change
make the pipeline do more work" independent of runner speed.
"""

import json

import pytest

from repro import MalwareSlumsStudy, StudyConfig
from repro.cli import main as cli_main
from repro.crawler import CrawlPipeline, PipelineOptions
from repro.obs import (
    MemoryLedger,
    RunObserver,
    WorkLedger,
    WorkProfiler,
    build_budget,
    build_run_report,
    check_budget,
    render_budget_table,
    render_run_report_markdown,
    render_work_table,
)


# ----------------------------------------------------------------------
# WorkLedger
# ----------------------------------------------------------------------
def test_ledger_add_merge_and_totals():
    ledger = WorkLedger()
    ledger.add(("scan", "verdict"), "js.interp.steps", 100)
    ledger.add(("scan", "verdict"), "js.interp.steps", 50)
    ledger.add(("crawl",), "http.requests", 7)
    other = WorkLedger()
    other.add(("scan", "verdict"), "js.interp.steps", 25)
    ledger.merge(other)
    assert ledger.total("js.interp.steps") == 175
    assert ledger.totals_by_kind() == {"http.requests": 7.0,
                                       "js.interp.steps": 175.0}
    assert len(ledger) == 2 and bool(ledger)
    assert not WorkLedger()


def test_ledger_hot_paths_rank_by_units():
    ledger = WorkLedger()
    ledger.add(("a",), "small", 1)
    ledger.add(("b",), "big", 1000)
    ledger.add(("c",), "mid", 10)
    paths = ledger.hot_paths(top=2)
    assert paths == [(("b",), "big", 1000.0), (("c",), "mid", 10.0)]


def test_ledger_json_round_trip_is_canonical():
    ledger = WorkLedger()
    ledger.add(("scan", "verdict", "sandbox"), "js.interp.steps", 42)
    ledger.add((), "root.units", 3)
    clone = WorkLedger.from_dict(json.loads(ledger.to_json()))
    assert clone.to_json() == ledger.to_json()
    assert clone.cells == ledger.cells


def test_ledger_collapsed_stack_export():
    ledger = WorkLedger()
    ledger.add(("scan", "exchange:My Site;x"), "js.tokens", 12)
    lines = ledger.to_collapsed().splitlines()
    assert lines == ["scan;exchange:My_Site:x;js.tokens 12"]


def test_ledger_speedscope_export_is_valid_sampled_profile():
    ledger = WorkLedger()
    ledger.add(("scan", "verdict"), "js.interp.steps", 100)
    ledger.add(("scan",), "detect.scan_units", 5)
    doc = ledger.to_speedscope()
    profile = doc["profiles"][0]
    assert profile["type"] == "sampled"
    assert len(profile["samples"]) == len(profile["weights"]) == 2
    assert profile["endValue"] == sum(profile["weights"]) == 105
    frames = doc["shared"]["frames"]
    for sample in profile["samples"]:
        assert all(0 <= index < len(frames) for index in sample)
    json.dumps(doc)  # JSON-serializable as a whole


def test_profiler_frame_stack_nesting_and_unwind_on_raise():
    profiler = WorkProfiler()
    with profiler.frame("outer"):
        profiler.add("units", 1)
        with pytest.raises(RuntimeError):
            with profiler.frame("inner"):
                profiler.add("units", 2)
                raise RuntimeError("boom")
        # the raised frame was popped; attribution continues at "outer"
        profiler.add("units", 4)
    assert profiler.stack == ()
    assert profiler.ledger.cells == {
        (("outer",), "units"): 5.0,
        (("outer", "inner"), "units"): 2.0,
    }


# ----------------------------------------------------------------------
# observer hooks
# ----------------------------------------------------------------------
def test_observer_profile_disabled_is_inert_and_allocation_free():
    observer = RunObserver()
    assert observer.profiler is None
    observer.work("js.interp.steps", 100)  # no-op, no error
    # the disabled frame path returns one shared null context: no
    # per-call allocation on the hot loops
    assert observer.frame("a") is observer.frame("b")
    with observer.frame("a"):
        observer.work("units")
    observer.frame_push("x")
    observer.frame_pop()


def test_observer_profile_enabled_routes_to_ledger():
    observer = RunObserver(profile=True)
    with observer.frame("scan"):
        observer.work("units", 3)
        observer.frame_push("inner")
        observer.work("units", 2)
        observer.frame_pop()
    assert observer.profiler is not None
    assert observer.profiler.ledger.cells == {
        (("scan",), "units"): 3.0,
        (("scan", "inner"), "units"): 2.0,
    }


# ----------------------------------------------------------------------
# memory ledger
# ----------------------------------------------------------------------
def test_memory_ledger_records_phases_and_objects():
    with MemoryLedger() as memory:
        with memory.phase("grow"):
            blob = [list(range(100)) for _ in range(100)]
        memory.count_objects("blobs", len(blob))
        record = memory.phases["grow"]
        assert record.peak_bytes > 0
        assert memory.peak_bytes >= record.peak_bytes
        assert memory.objects == {"blobs": 100}
        doc = memory.to_dict()
        assert doc["phases"]["grow"]["peak_bytes"] == record.peak_bytes
        json.dumps(doc)


def test_memory_ledger_records_phase_even_when_body_raises():
    memory = MemoryLedger()
    with pytest.raises(ValueError):
        with memory.phase("doomed"):
            _junk = list(range(10_000))
            raise ValueError("boom")
    assert memory.phases["doomed"].peak_bytes > 0
    memory.close()
    memory.close()  # idempotent


def test_memory_ledger_does_not_stop_foreign_tracing():
    import tracemalloc

    tracemalloc.start()
    try:
        memory = MemoryLedger()
        with memory.phase("p"):
            pass
        memory.close()
        assert tracemalloc.is_tracing()  # ledger never started it
    finally:
        tracemalloc.stop()


# ----------------------------------------------------------------------
# budget gate
# ----------------------------------------------------------------------
def test_check_budget_statuses_and_gate_decision():
    budget = build_budget({"steps": 1000, "tokens": 500, "gone": 10},
                          meta={"seed": 1}, tolerance=0.10)
    assert budget["budgets"] == {"gone": 10, "steps": 1000, "tokens": 500}
    measured = {"steps": 1200,     # > 1000 * 1.10 -> over
                "tokens": 520,     # within ±10%   -> ok
                "fresh": 33}       # not budgeted  -> unbudgeted
    result = check_budget(measured, budget)
    by_kind = {entry.kind: entry.status for entry in result.entries}
    assert by_kind == {"steps": "over", "tokens": "ok",
                       "fresh": "unbudgeted", "gone": "absent"}
    assert not result.ok and [e.kind for e in result.regressions] == ["steps"]
    # shrinking work is "under": flagged for a budget refresh, not a failure
    under = check_budget({"steps": 500, "tokens": 500, "gone": 10}, budget)
    assert {e.kind: e.status for e in under.entries}["steps"] == "under"
    assert under.ok
    table = render_budget_table(result)
    assert "1 REGRESSION(S)" in table and "over" in table


def test_check_budget_rejects_malformed_document():
    with pytest.raises(ValueError):
        check_budget({}, {"budgets": "nope"})


def test_render_work_table_names_hot_loops_and_handles_empty():
    assert "no work recorded" in render_work_table(WorkLedger())
    ledger = WorkLedger()
    ledger.add(("scan", "verdict", "sandbox"), "js.interp.steps", 999)
    ledger.add(("scan", "verdict"), "htmlparse.tokens", 111)
    table = render_work_table(ledger, top=5)
    assert "js.interp.steps" in table and "htmlparse.tokens" in table
    assert "scan;verdict;sandbox" in table
    assert "Totals by kind" in table


# ----------------------------------------------------------------------
# end-to-end: the pipeline's ledger
# ----------------------------------------------------------------------
def _profiled_run(workers=1, scale=0.005, seed=5):
    study = MalwareSlumsStudy(StudyConfig(seed=seed, scale=scale))
    web = study.generate_web()
    observer = RunObserver(profile=True)
    with MemoryLedger() as memory:  # stops its tracemalloc session after the run
        pipeline = CrawlPipeline(web, PipelineOptions(
            seed=66, observer=observer, workers=workers, memory_ledger=memory))
        outcome = pipeline.run()
    return pipeline, outcome, observer, memory


@pytest.fixture(scope="module")
def profiled_run():
    return _profiled_run()


def test_profiled_run_counts_every_subsystem(profiled_run):
    _pipeline, _outcome, observer, _memory = profiled_run
    totals = observer.profiler.ledger.totals_by_kind()
    for kind in ("js.interp.steps", "js.tokens", "htmlparse.tokens",
                 "htmlparse.nodes", "http.requests", "http.bytes",
                 "staticjs.ast_nodes", "detect.scan_units"):
        assert totals.get(kind, 0) > 0, kind


def test_profiled_run_frame_tree_shape(profiled_run):
    _pipeline, _outcome, observer, _memory = profiled_run
    stacks = {stack for stack, _kind in observer.profiler.ledger.cells}
    assert any(stack and stack[0] == "crawl" and len(stack) == 2
               and stack[1].startswith("exchange:") for stack in stacks)
    assert ("scan", "verdict", "sandbox") in stacks
    assert ("scan", "verdict", "staticjs") in stacks
    # the profiler unwound cleanly: nothing left on the stack
    assert observer.profiler.stack == ()


def test_profiled_run_memory_ledger_populated(profiled_run):
    pipeline, outcome, _observer, memory = profiled_run
    assert set(memory.phases) == {"crawl", "scan"}
    assert memory.peak_bytes > 0
    assert memory.objects["crawl.records"] == len(pipeline.dataset.records)
    assert memory.objects["scan.verdicts"] == len(outcome.verdicts)
    assert memory.objects["simweb.sites"] == len(pipeline.web.registry)


def test_work_ledger_bit_identical_serial_vs_parallel(profiled_run):
    """The acceptance gate: workers=4 serializes byte-identically."""
    _pipeline, _outcome, observer, _memory = profiled_run
    serial = observer.profiler.ledger
    _p, _o, par_observer, _m = _profiled_run(workers=4)
    parallel = par_observer.profiler.ledger
    assert parallel.to_json() == serial.to_json()
    assert parallel.cells == serial.cells


def test_profiling_does_not_change_verdicts(profiled_run):
    _pipeline, profiled, _observer, _memory = profiled_run
    study = MalwareSlumsStudy(StudyConfig(seed=5, scale=0.005))
    plain = CrawlPipeline(study.generate_web(), PipelineOptions(seed=66)).run()
    assert set(plain.verdicts) == set(profiled.verdicts)
    for url, verdict in plain.verdicts.items():
        assert profiled.verdicts[url].malicious == verdict.malicious


def test_run_report_gains_work_and_memory_sections(profiled_run):
    pipeline, outcome, observer, _memory = profiled_run
    report = json.loads(json.dumps(build_run_report(pipeline, outcome)))
    assert report["work"]["totals"]["js.interp.steps"] > 0
    assert report["work"]["cells"] > 0
    assert report["work"]["hot_paths"]
    assert report["memory"]["phases"]["scan"]["peak_bytes"] > 0
    # per-script interpreter-step distribution (not only the run max)
    op_dist = report["js"]["op_count_distribution"]
    assert op_dist["count"] == observer.metrics.counter_total(
        "js.scripts_executed")
    assert 0 < op_dist["p50"] <= op_dist["max"]
    markdown = render_run_report_markdown(report)
    assert "## Work profile" in markdown
    assert "## Memory ledger" in markdown
    assert "Interpreter steps per script" in markdown


def test_profiled_study_stops_the_tracing_it_started():
    # a tracemalloc session left running slows everything after it
    import tracemalloc

    assert not tracemalloc.is_tracing()
    web = MalwareSlumsStudy(StudyConfig(seed=5, scale=0.0005)).generate_web()
    with MemoryLedger() as memory:
        CrawlPipeline(web, PipelineOptions(
            seed=66, observer=RunObserver(profile=True),
            memory_ledger=memory)).run()
        assert tracemalloc.is_tracing()
    assert not tracemalloc.is_tracing()
    assert set(memory.phases) == {"crawl", "scan"}
    assert memory.peak_bytes > 0


def test_unprofiled_report_has_no_work_section():
    study = MalwareSlumsStudy(StudyConfig(seed=5, scale=0.005))
    pipeline = CrawlPipeline(study.generate_web(), PipelineOptions(
        seed=66, observer=RunObserver()))
    report = build_run_report(pipeline, pipeline.run())
    assert "work" not in report and "memory" not in report


def test_empty_profiled_run_renders_cleanly():
    study = MalwareSlumsStudy(StudyConfig(seed=5, scale=0.005))
    observer = RunObserver(profile=True)
    pipeline = CrawlPipeline(study.generate_web(), PipelineOptions(
        seed=66, observer=observer, memory_ledger=MemoryLedger()))
    report = build_run_report(pipeline)  # no crawl, no scan
    assert report["work"]["totals"] == {}
    assert report["work"]["hot_paths"] == []
    assert report["memory"]["phases"] == {}
    json.dumps(report)
    render_run_report_markdown(report)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_profile_cli_table_names_hot_loops(capsys):
    assert cli_main(["profile", "--scale", "0.005", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "Work profile" in out
    assert "js.interp.steps" in out
    assert "htmlparse.tokens" in out
    assert "Memory ledger" in out


def test_profile_cli_exports_and_budget_gate(tmp_path, capsys):
    budget = tmp_path / "budget.json"
    collapsed = tmp_path / "work.collapsed"
    speedscope = tmp_path / "work.speedscope.json"
    bench = tmp_path / "BENCH_profile.json"
    argv = ["profile", "--scale", "0.005", "--seed", "5",
            "--write-budget", str(budget),
            "--collapsed-out", str(collapsed),
            "--speedscope-out", str(speedscope),
            "--bench-out", str(bench)]
    assert cli_main(argv) == 0
    capsys.readouterr()

    doc = json.loads(budget.read_text(encoding="utf-8"))
    assert doc["tolerance"] == 0.10 and doc["budgets"]
    for line in collapsed.read_text(encoding="utf-8").strip().splitlines():
        stack, units = line.rsplit(" ", 1)
        assert stack and int(units) >= 0
    scope = json.loads(speedscope.read_text(encoding="utf-8"))
    assert scope["profiles"][0]["type"] == "sampled"
    artifact = json.loads(bench.read_text(encoding="utf-8"))
    assert artifact["work_totals"] and artifact["memory"]["objects"]

    # the identical run passes its own freshly written budget...
    assert cli_main(["profile", "--scale", "0.005", "--seed", "5",
                     "--budget", str(budget)]) == 0
    assert "Perf budget" in capsys.readouterr().out
    # ...and a tightened budget fails the gate with exit 1
    doc["budgets"] = {kind: amount / 2 for kind, amount in doc["budgets"].items()}
    budget.write_text(json.dumps(doc), encoding="utf-8")
    assert cli_main(["profile", "--scale", "0.005", "--seed", "5",
                     "--budget", str(budget)]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_bench_out_is_reproducible(tmp_path, capsys):
    """Two runs of identical code write byte-identical bench artifacts:
    the memory section keeps only object counts (tracemalloc's bytes
    move between runs)."""
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        assert cli_main(["profile", "--scale", "0.005", "--seed", "2016",
                         "--workers", "1", "--bench-out", str(path)]) == 0
    capsys.readouterr()
    first, second = (path.read_bytes() for path in paths)
    assert first == second
    assert set(json.loads(first)["memory"]) == {"objects"}


def test_budget_from_another_seed_or_scale_stops_before_running(capsys):
    """A budget holds only at the seed and scale it was recorded at; a run
    at another one exits 2 naming both values instead of printing drift."""
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                        "perf_budget.json")
    assert cli_main(["profile", "--scale", "0.005", "--seed", "2016",
                     "--budget", path]) == 2
    captured = capsys.readouterr()
    assert "scale 0.01" in captured.err and "scale 0.005" in captured.err
    assert "Perf budget" not in captured.out
    assert cli_main(["profile", "--scale", "0.01", "--seed", "7",
                     "--budget", path]) == 2
    captured = capsys.readouterr()
    assert "seed 2016" in captured.err and "seed 7" in captured.err


def test_committed_budget_matches_pinned_run(capsys):
    """benchmarks/perf_budget.json stays reproducible from its pinned
    parameters — the budget-update procedure in README/DESIGN."""
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                        "perf_budget.json")
    with open(path, "r", encoding="utf-8") as handle:
        budget = json.load(handle)
    meta = budget["meta"]
    argv = ["profile", "--scale", str(meta["scale"]),
            "--seed", str(meta["seed"]),
            "--workers", str(meta["workers"]),
            "--budget", path]
    assert cli_main(argv) == 0, capsys.readouterr().out
    assert "Perf budget" in capsys.readouterr().out
