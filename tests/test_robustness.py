"""Failure-injection and fuzz tests.

The crawl encounters adversarial input by construction; the substrates
must degrade, never crash:

* the HTML parser accepts arbitrary bytes-as-text,
* the SWF parser raises SwfError (only) on corrupt containers,
* the scanners return verdicts for garbage submissions,
* the sandbox survives hostile scripts.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.detection import QutteraSim, Submission, VirusTotalSim, analyze_content, analyze_html
from repro.flashsim import SwfError, SwfFile
from repro.htmlparse import parse, serialize
from repro.jsengine import LexError, ParseError, run_script_in_page
from repro.jsengine.lexer import tokenize
from repro.jsengine.parser import parse as parse_js
from repro.staticjs import analyze_script


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
