"""Tests for the repro.staticjs abstract interpreter and the
effect-replay sandbox skip.

The contract under test is *verdict-set preservation*: any page the
page-level skip decision approves must produce a ContentAnalysis
field-for-field identical to the one the real sandbox would have
produced, because downstream engines consume those fields directly.
"""

from dataclasses import fields

import pytest

from repro.detection.heuristics import (
    _page_skip_decision,
    analyze_html,
)
from repro.jsengine import run_script_in_page
from repro.staticjs import (
    EVENT_PHASES,
    PAGE_STEP_BUDGET,
    analyze_script,
    interpret_script,
)


def _page(*scripts: str) -> str:
    body = "".join("<script>%s</script>" % s for s in scripts)
    return "<html><body>%shello world</body></html>" % body


def _assert_equivalent(html: str) -> "tuple":
    """Run analyze_html with the prefilter on and off; fields must match."""
    on = analyze_html(html, static_prefilter=True)
    off = analyze_html(html, static_prefilter=False)
    for f in fields(type(on)):
        if f.name == "sandbox_skipped" or f.name.startswith("static_"):
            continue
        a, b = getattr(on, f.name), getattr(off, f.name)
        if f.name == "hidden_iframes":
            a = [vars(x) for x in a]
            b = [vars(x) for x in b]
        assert a == b, "field %r differs: prefilter=%r sandbox=%r" % (
            f.name, a, b)
    return on, off


class TestAbstractMachine:
    def test_straight_line_is_complete(self):
        effects = interpret_script("var a = 1 + 2;")
        assert effects.complete
        assert effects.steps > 0
        assert effects.redirect_targets == ()

    def test_division_by_negative_zero_matches_sandbox(self):
        # concrete operators run on the sandbox's evaluate_binary
        effects = interpret_script('eval("" + (1 / -0));')
        assert effects.eval_sources == ("-Infinity",)

    def test_redirect_target_recovered_through_concat(self):
        effects = interpret_script(
            "var u = 'http://x/' + 'y'; window.location = u;")
        assert effects.complete
        assert effects.redirect_targets == ("http://x/y",)

    def test_eval_payload_recovered_through_decoder(self):
        effects = interpret_script(
            "eval(unescape('%61%6c%65%72%74%28%31%29'))")
        assert effects.complete
        assert effects.eval_sources == ("alert(1)",)
        assert "unescape" in effects.decoders_used

    def test_atob_decoding_reaches_document_write(self):
        effects = interpret_script(
            "var s = atob('aGVsbG8='); document.write(s);")
        assert effects.complete
        assert "atob" in effects.decoders_used
        script_phase = effects.phase("script")
        assert script_phase.document_writes == (("hello", True),)

    def test_event_phase_effects_are_bucketed(self):
        effects = interpret_script(
            "document.onload = function(){"
            "  new Image().src = 'http://t/p.gif'; };")
        assert effects.complete
        assert effects.doc_handler_events == ("load",)
        assert effects.phase("load").beacons == ("http://t/p.gif",)
        assert effects.phase("script").beacons == ()

    def test_opaque_handler_read_aborts(self):
        effects = interpret_script("var h = document.body.onclick;")
        assert not effects.complete
        assert "opaque-handler-read" in effects.reasons

    def test_cookie_access_is_tracked(self):
        effects = interpret_script(
            "document.cookie = 'a=1'; var c = document.cookie;")
        assert effects.complete
        assert effects.cookie_read and effects.cookie_written

    def test_created_element_listener_is_not_opaque(self):
        effects = interpret_script(
            "var d = document.createElement('div');"
            "d.onclick = function(){};"
            "document.body.appendChild(d);")
        assert effects.complete
        assert effects.element_handler_events == ("click",)
        assert effects.opaque_element_handler_events == ()

    def test_top_level_control_transfer_errors_match_sandbox(self):
        # the machine runs the sandbox's evaluator, so a `return` or
        # `break` outside any function or loop escapes as the same error
        for source in ("return 5;", "break;"):
            sandbox = run_script_in_page(_page(source)).log.errors
            assert list(interpret_script(source).phase("script").errors) == sandbox

    def test_written_script_src_is_requested(self):
        effects = interpret_script(
            "document.write('<scr'+'ipt src=\"http://r/x.js\">"
            "</scr'+'ipt>');")
        assert effects.complete
        assert effects.phase("script").requested_scripts == ("http://r/x.js",)

    @pytest.mark.parametrize("source", [
        'var d = document.createElement("div"); '
        'd.appendChild(document.createElement("span"), 1); document.write("after");',
        'var e = document.createElement("a"); document.write(e.getAttribute("href", 2));',
        'var d = new Date(); document.write(d.getTime(1));',
        'var x = new XMLHttpRequest(1); document.write("x");',
        'document.write("" + Image);',
    ])
    def test_host_functions_behave_as_in_the_sandbox(self, source):
        # the machine runs the sandbox's host objects, so a call with the
        # wrong arity fails with the sandbox's error (and stops the
        # script there), and host objects stringify alike
        host = run_script_in_page(_page(source))
        script = interpret_script(source).phase("script")
        assert (list(script.document_writes), list(script.errors)) == (
            [(markup, True) for markup in host.log.document_writes], host.log.errors)


class TestPageSkipDecision:
    def _reports(self, *sources: str):
        return [analyze_script(source) for source in sources]

    def test_independent_scripts_may_skip(self):
        ok, blockers = _page_skip_decision(self._reports(
            "var u = 'http://x/'; window.location = u;",
            "document.write('<b>hi</b>');"))
        assert ok and blockers == []

    def test_incomplete_script_blocks(self):
        ok, blockers = _page_skip_decision(self._reports(
            "var h = document.body.onclick;"))
        assert not ok
        assert blockers == ["incomplete:opaque-handler-read"]

    def test_global_interference_blocks(self):
        ok, blockers = _page_skip_decision(self._reports(
            "var shared = 5;",
            "if (window.shared) { window.location = 'http://z/'; }"))
        assert not ok
        assert any(b.startswith("global-interference") for b in blockers)

    def test_cookie_interference_blocks(self):
        ok, blockers = _page_skip_decision(self._reports(
            "document.cookie = 'a=1';",
            "var c = document.cookie;"))
        assert not ok
        assert "cookie-interference" in blockers

    def test_two_document_handlers_block(self):
        ok, blockers = _page_skip_decision(self._reports(
            "document.onload = function(){};",
            "document.onload = function(){};"))
        assert not ok
        assert "doc-handler-conflict:load" in blockers

    def test_single_document_handler_is_fine(self):
        ok, blockers = _page_skip_decision(self._reports(
            "document.onload = function(){};",
            "var a = 1;"))
        assert ok and blockers == []

    def test_budget_guard_uses_page_constant(self):
        # a completeness sanity anchor: the page budget must stay below
        # the sandbox budget the executed path passes (200k)
        assert PAGE_STEP_BUDGET < 200_000
        assert EVENT_PHASES == ("load", "click", "mousemove")


def _count_html_parses(monkeypatch, html: str):
    """analyze_html with an observer, counting the page parses it makes."""
    from repro.detection import heuristics
    from repro.obs.observer import RunObserver

    parses = []
    original = heuristics.parse

    def counting(markup, observer=None):
        parses.append(markup)
        return original(markup, observer=observer)

    monkeypatch.setattr(heuristics, "parse", counting)
    observer = RunObserver()
    analysis = analyze_html(html, observer=observer)
    skips = observer.metrics.counter_total("staticjs.sandbox.skipped_pages")
    return analysis, len(parses), skips


class TestEffectReplayEquivalence:
    def test_replay_without_attached_writes_parses_once(self, monkeypatch):
        html = _page("window.location = 'http://tds.example/door';")
        analysis, parses, skips = _count_html_parses(monkeypatch, html)
        assert skips == 1
        assert analysis.navigations == ["http://tds.example/door"]
        assert parses == 1

    def test_replay_with_attached_write_reparses(self, monkeypatch):
        html = _page(
            "document.write('<iframe src=\"http://bad/\" width=\"1\" "
            "height=\"1\"></iframe>');")
        analysis, parses, skips = _count_html_parses(monkeypatch, html)
        assert skips == 1
        assert parses == 2
        assert [f.injected_by_js for f in analysis.hidden_iframes] == [True]

    def test_static_redirect_page(self):
        html = _page("window.location = 'http://tds.example/door';")
        on, _ = _assert_equivalent(html)
        assert on.sandbox_skipped
        assert on.navigations == ["http://tds.example/door"]

    def test_hidden_iframe_written_at_runtime(self):
        html = _page(
            "document.write('<iframe src=\"http://bad/\" width=\"1\" "
            "height=\"1\"></iframe>');")
        on, _ = _assert_equivalent(html)
        assert on.sandbox_skipped
        assert len(on.hidden_iframes) == 1
        assert on.hidden_iframes[0].injected_by_js

    def test_layered_deobfuscation_payload(self):
        # eval(unescape(...)) resolving to a navigation
        html = _page(
            "eval(unescape('%77%69%6e%64%6f%77%2e%6c%6f%63%61%74%69%6f"
            "%6e%3d%22%68%74%74%70%3a%2f%2f%65%76%69%6c%2f%22'))")
        on, _ = _assert_equivalent(html)
        assert on.sandbox_skipped
        assert on.navigations == ["http://evil/"]

    def test_fingerprinting_listeners_replayed(self):
        html = _page(
            "document.onmousemove = function(e){"
            "  new Image().src = 'http://t/b.gif'; };")
        on, _ = _assert_equivalent(html)
        assert on.sandbox_skipped
        assert on.fingerprinting_listeners == 1

    def test_multi_script_page(self):
        html = _page(
            "var u = 'http://' + 'tds.example/go'; window.location = u;",
            "document.write('<b>seo text</b>');")
        on, _ = _assert_equivalent(html)
        assert on.sandbox_skipped
        assert on.document_writes == 1

    def test_interfering_page_still_executes(self):
        html = _page(
            "var shared = 5;",
            "if (window.shared) { window.location = 'http://z/'; }")
        on, _ = _assert_equivalent(html)
        assert not on.sandbox_skipped
        # the sandbox sees the cross-script value flow
        assert on.navigations == ["http://z/"]

    def test_event_phase_requests_replayed(self):
        html = _page(
            "document.onload = function(){"
            "  var s = document.createElement('script');"
            "  s.src = 'http://late.example/x.js'; };")
        on, _ = _assert_equivalent(html)
        assert "http://late.example/x.js" in on.remote_scripts

    def test_benign_pages_skip_by_replay(self):
        on, _ = _assert_equivalent(_page("var a = 1 + 2;"))
        assert on.sandbox_skipped

    def test_static_redirect_targets_surface(self):
        html = _page("window.location = 'http://tds.example/door';")
        on = analyze_html(html, static_prefilter=True)
        assert on.static_redirect_targets == ["http://tds.example/door"]
        assert (on.static_evidence()["redirect_targets"]
                == ["http://tds.example/door"])


#: sha256 of the summaries of every distinct non-empty inline script of
#: the seed-2016 scale-0.005 web (see :func:`corpus_digest`)
CORPUS_DIGEST = "a1b56aa15c684aabfcee10c37af2d985f574354903a06623b09050c0bc4aa9fe"
CORPUS_SCRIPTS = 649


def corpus_sources():
    """Every distinct non-empty inline script of the seed-2016
    scale-0.005 web, in sorted order."""
    from repro import MalwareSlumsStudy, StudyConfig
    from repro.htmlparse import parse, select

    web = MalwareSlumsStudy(StudyConfig(seed=2016, scale=0.005)).generate_web()
    return sorted({
        script.text_content()
        for site in web.registry for page in site.pages.values()
        for script in select(parse(page.html), "script")
        if not script.get("src") and script.text_content().strip()})


def corpus_digest():
    """(script count, sha256 of each summary's sorted-key JSON, in
    sorted source order)."""
    import hashlib
    import json

    sources = corpus_sources()
    digest = hashlib.sha256()
    for source in sources:
        digest.update(json.dumps(interpret_script(source).to_dict(), sort_keys=True).encode())
    return len(sources), digest.hexdigest()


def test_corpus_summaries_are_pinned():
    """The corpus summaries are the sandbox skip's input: a refactor of
    the abstract machine or the browser host must leave every one of
    them unchanged.  A change that moves them on purpose says why and
    regenerates the digest with::

        PYTHONPATH=src python -c "from tests.test_absint import corpus_digest; print(corpus_digest())"
    """
    assert corpus_digest() == (CORPUS_SCRIPTS, CORPUS_DIGEST)
