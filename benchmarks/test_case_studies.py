"""E12 — Section V case studies: drill-down analyses on flagged URLs."""

from repro.analysis import (
    deceptive_download_case,
    flash_case_study,
    identify_false_positives,
    iframe_case_studies,
)


def test_iframe_injection_case_studies(benchmark, study, dataset, outcome):
    cases = benchmark(iframe_case_studies, dataset, outcome, 100,
                      compile_cache=study.pipeline.compile_cache)
    assert cases
    mechanisms = {c.mechanism for c in cases}
    print("\niframe mechanisms observed:", sorted(mechanisms))
    # the paper's three categories: barely-visible, invisible, JS-injected
    assert mechanisms & {"tiny", "transparency", "visibility"}
    assert any(c.injected_by_js for c in cases)
    assert any(c.exfiltrates_query for c in cases)


def test_deceptive_download_case(benchmark, dataset, outcome):
    case = benchmark.pedantic(deceptive_download_case, args=(dataset, outcome),
                              rounds=1, iterations=1)
    assert case is not None
    print("\ndeceptive download: %s -> %s (%s)"
          % (case.url, case.payload_url, case.payload_name))
    assert case.payload_name.lower().endswith(".exe")
    assert case.triggered_by_click


def test_external_interface_case(benchmark, dataset, outcome):
    case = benchmark.pedantic(flash_case_study, args=(dataset, outcome),
                              rounds=1, iterations=1)
    assert case is not None
    print("\nflash case: external calls =", case.external_calls)
    assert case.invisible_overlay          # covers the page, invisible
    assert case.allows_any_domain          # Security.allowDomain("*")
    assert case.popups_after_click         # click -> popup ad
    assert "ExternalInterface.call" in case.decompiled_source


def test_false_positive_identification(benchmark, study, dataset, outcome):
    fps = benchmark(identify_false_positives, dataset, outcome,
                    compile_cache=study.pipeline.compile_cache)
    print("\nfalse positives identified: %d" % len(fps))
    for fp in fps[:5]:
        print("  %s (%s)" % (fp.url, fp.reason))
    # the drill-down only ever blames the two benign platform patterns
    assert all(fp.reason in ("google-oauth-relay", "google-analytics") for fp in fps)
