"""Tests for de-obfuscation and the obfuscation toolchain round trip."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.jsengine import LexError, deobfuscate, looks_obfuscated
from repro.jsengine.hostenv import run_script_in_page
from repro.jsengine.lexer import tokenize
from repro.malware.obfuscation import (
    ALL_LAYERS,
    layer_atob,
    layer_eval_wrap,
    layer_fromcharcode,
    layer_reverse,
    layer_string_split,
    layer_unescape,
    obfuscate,
    random_layers,
)

PAYLOAD = "window.location.href = 'http://evil.example.com/x';"


class TestStaticDeobfuscation:
    def test_unescape_literal(self):
        result = deobfuscate('eval(unescape("%61%6c%65%72%74"))')
        assert result.layers == 1
        assert "alert" in result.source

    def test_fromcharcode(self):
        result = deobfuscate("eval(String.fromCharCode(104, 105))")
        assert "hi" in result.decoded_strings

    def test_atob(self):
        result = deobfuscate('eval(atob("aGVsbG8="))')
        assert "hello" in result.source

    def test_concat_folding(self):
        result = deobfuscate("document.write('<ifr' + 'ame src=\"u\">');")
        assert "<iframe" in result.source

    def test_reverse_idiom(self):
        payload = "alert(1)"
        source = "eval('%s'.split('').reverse().join(''));" % payload[::-1]
        result = deobfuscate(source)
        assert "alert(1)" in result.decoded_strings

    def test_clean_source_zero_layers(self):
        result = deobfuscate("var a = 1 + 2;")
        assert result.layers == 0
        assert not result.was_obfuscated

    def test_multi_layer_peeling(self):
        rng = random.Random(3)
        packed = obfuscate(PAYLOAD, [layer_unescape, layer_atob], rng)
        result = deobfuscate(packed)
        assert result.layers >= 2
        assert "evil.example.com" in result.source


#: pieces of a string literal's body: plain characters (no quote,
#: backslash or newline, and nothing another peeler pass matches) and
#: escapes, some of which the lexer rejects (a short ``\\x``/``\\u``)
_BODY_PIECES = st.one_of(
    st.sampled_from(list("ab1 %\t\r'")),
    st.builds("\\{}{}".format, st.sampled_from(list("xubfnrtv0'\"\\a1\r")),
              st.text(alphabet="0123456789abcdefg", max_size=4)),
)


class TestPeelerDecodesLikeTheLexer:
    @given(st.lists(_BODY_PIECES, max_size=8).map("".join))
    @settings(max_examples=300, deadline=None)
    def test_eval_literal_decodes_to_the_token_value(self, body):
        literal = '"%s"' % body
        source = "eval(%s)" % literal
        result = deobfuscate(source)
        try:
            token = tokenize(literal)[0]
        except LexError:
            # a literal the lexer rejects stays as it is
            assert result.source == source and result.decoded_strings == []
            return
        assert result.decoded_strings[0] == token.value

    @pytest.mark.parametrize("literal, value", [
        (r'"a\bc"', "a\x08c"), (r'"x\0"', "x\x00"), (r'"p\vq"', "p\x0bq"),
        (r'"\x41\u0042\'"', "AB'"),
    ])
    def test_escapes_decode_as_the_lexer_does(self, literal, value):
        assert deobfuscate("eval(%s)" % literal).decoded_strings[0] == value

    def test_rejected_literal_is_left_alone(self):
        source = r'document.write("\x4g" + "b"); eval("\x4g");'
        assert deobfuscate(source).source == source


class TestLooksObfuscated:
    def test_percent_runs(self):
        assert looks_obfuscated("eval(unescape('%69%66%72%61%6d%65%20%73%72%63'))")

    def test_plain_code(self):
        assert not looks_obfuscated("function add(a, b) { return a + b; }")

    def test_short_input(self):
        assert not looks_obfuscated("x")


class TestExecutableRoundTrip:
    """Every obfuscation layer must produce *runnable* code whose
    behaviour matches the original — the property the whole detection
    pipeline rests on."""

    @pytest.mark.parametrize("layer", ALL_LAYERS, ids=lambda l: l.__name__)
    def test_single_layer_executes(self, layer):
        rng = random.Random(7)
        packed = layer(PAYLOAD, rng)
        host = run_script_in_page("<html><body><script>%s</script></body></html>" % packed)
        assert host.log.navigations == ["http://evil.example.com/x"], host.log.errors

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**30), st.integers(min_value=1, max_value=3))
    def test_random_stacks_execute(self, seed, depth):
        rng = random.Random(seed)
        packed = obfuscate(PAYLOAD, random_layers(rng, depth), rng)
        host = run_script_in_page("<html><body><script>%s</script></body></html>" % packed)
        assert host.log.navigations == ["http://evil.example.com/x"], host.log.errors

    def test_deep_stack_behaviour_preserved(self):
        rng = random.Random(11)
        layers = [layer_fromcharcode, layer_string_split, layer_reverse, layer_eval_wrap]
        packed = obfuscate(PAYLOAD, layers, rng)
        host = run_script_in_page("<html><body><script>%s</script></body></html>" % packed)
        assert host.log.navigations == ["http://evil.example.com/x"]
