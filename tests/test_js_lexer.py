"""Tests for repro.jsengine.lexer."""

import pytest

from repro.jsengine.lexer import LexError, tokenize


def values(source):
    return [(t.kind, t.value) for t in tokenize(source) if t.kind != "eof"]


class TestNumbers:
    def test_integer(self):
        assert tokenize("42")[0].number == 42.0

    def test_float(self):
        assert tokenize("3.14")[0].number == pytest.approx(3.14)

    def test_leading_dot(self):
        assert tokenize(".5")[0].number == 0.5

    def test_hex(self):
        assert tokenize("0xFF")[0].number == 255.0

    def test_exponent(self):
        assert tokenize("1e3")[0].number == 1000.0
        assert tokenize("2.5e-2")[0].number == pytest.approx(0.025)

    def test_bad_hex(self):
        with pytest.raises(LexError):
            tokenize("0x")


class TestStrings:
    @pytest.mark.parametrize("source,expected", [
        ('"hello"', "hello"),
        ("'hi'", "hi"),
        (r'"a\nb"', "a\nb"),
        (r'"a\tb"', "a\tb"),
        (r'"\x41"', "A"),
        (r'"A"', "A"),
        (r'"\\"', "\\"),
        (r'"\""', '"'),
        (r'"%u9090"', "%u9090"),
    ])
    def test_escapes(self, source, expected):
        assert tokenize(source)[0].value == expected

    def test_unterminated(self):
        with pytest.raises(LexError):
            tokenize('"never ends')

    def test_newline_in_string(self):
        with pytest.raises(LexError):
            tokenize('"a\nb"')


class TestIdentifiersKeywords:
    def test_keyword(self):
        token = tokenize("function")[0]
        assert token.kind == "keyword"

    def test_identifier_with_dollar(self):
        token = tokenize("_0x1a$b")[0]
        assert token.kind == "identifier"
        assert token.value == "_0x1a$b"

    def test_keyword_prefix_is_identifier(self):
        assert tokenize("functional")[0].kind == "identifier"


class TestOperatorsComments:
    def test_longest_match(self):
        ops = [t.value for t in tokenize("=== == = >>> >> >") if t.kind == "punct"]
        assert ops == ["===", "==", "=", ">>>", ">>", ">"]

    def test_line_comment(self):
        assert values("a // comment\nb") == [("identifier", "a"), ("identifier", "b")]

    def test_block_comment(self):
        assert values("a /* x */ b") == [("identifier", "a"), ("identifier", "b")]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never")

    def test_unexpected_char(self):
        with pytest.raises(LexError):
            tokenize("a @ b")

    def test_eof_token(self):
        assert tokenize("")[-1].kind == "eof"


class TestHostileInput:
    """The lexer fails only with LexError (never ValueError/OverflowError)."""

    @pytest.mark.parametrize("source,message,position", [
        (r'"\xZZ"', "bad \\x escape", 3),
        (r'"\uZZZZ"', "bad \\u escape", 3),
        # int(..., 16) strips spaces and signs: these once lexed as "\x0f"
        (r'"\x f"', "bad \\x escape", 3),
        (r'"\x+f"', "bad \\x escape", 3),
        (r'"\u 0ff"', "bad \\u escape", 3),
        (r'"\u0x1f"', "bad \\u escape", 3),
        # a non-ASCII hex "digit" is not a hex digit
        ('"\\x\u0663\u0663"', "bad \\x escape", 3),
        # an escape cut short by the end of input or of the literal
        (r'"\x4', "bad \\x escape", 3),
        (r'"\x4"', "bad \\x escape", 3),
        (r'"\u12"+"34"', "bad \\u escape", 3),
    ])
    def test_bad_escapes(self, source, message, position):
        with pytest.raises(LexError) as info:
            tokenize(source)
        assert str(info.value) == "%s at offset %d" % (message, position)
        assert info.value.position == position

    @pytest.mark.parametrize("source,char,position", [
        ("\u00b2", "\u00b2", 0),           # superscript two: float() rejected it
        ("1\u00b2", "\u00b2", 1),
        ("\u0663", "\u0663", 0),           # Arabic-Indic three: once lexed as 3.0
        ("x = 1\u0663;", "\u0663", 5),
        ("a.\u0663", "\u0663", 2),
    ])
    def test_non_ascii_digits_are_unexpected(self, source, char, position):
        with pytest.raises(LexError) as info:
            tokenize(source)
        assert str(info.value) == "unexpected character %r at offset %d" % (char, position)

    def test_numbers_take_ascii_digits_only(self):
        # the exponent needs ASCII digits; "e٣" is then an identifier
        assert values("1e\u0663") == [("number", "1"), ("identifier", "e\u0663")]
        # identifiers keep Unicode letters and digits after the first char
        assert values("caf\u00e9\u00b2") == [("identifier", "caf\u00e9\u00b2")]

    def test_huge_hex_literal_is_infinity(self):
        assert tokenize("0x" + "f" * 300)[0].number == float("inf")

    def test_valid_escapes(self):
        assert tokenize(r'"\x41\u0042\0\01\v\
c"')[0].value == "AB\x0001\x0bc"

    def test_unterminated_forms(self):
        for source, message, position in [
            ('"abc', "unterminated string", 0),
            ('"ab\ncd"', "unterminated string", 0),
            ('"ab\\', "unterminated escape", 3),
            ("a /* b", "unterminated comment", 2),
        ]:
            with pytest.raises(LexError) as info:
                tokenize(source)
            assert str(info.value) == "%s at offset %d" % (message, position)

    def test_whitespace_and_comments_between_tokens(self):
        assert values("a/**/b//c\n/ d /* x\n y */ . e") == [
            ("identifier", "a"), ("identifier", "b"), ("punct", "/"),
            ("identifier", "d"), ("punct", "."), ("identifier", "e")]
        assert values(".5 .x") == [("number", ".5"), ("punct", "."), ("identifier", "x")]
