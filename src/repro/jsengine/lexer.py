"""JavaScript lexer.

Tokenizes the JavaScript subset that in-the-wild malware on traffic
exchanges uses (Section IV-A1, V): string/number literals with the full
escape repertoire obfuscators rely on (``\\xNN``, ``\\uNNNN``, octal),
identifiers, keywords, comments, and the operator set of ES5 minus
regular-expression literals (none of the analyzed samples need them —
a ``/`` is always division here).

One compiled master regex does the scanning: each match skips any
whitespace and comments, then matches one token, and :func:`tokenize`
dispatches on the match's ``lastgroup``.  Only string literals that
contain a backslash take a second, per-escape pass.

Malware pages are hostile input, so the lexer fails only with
:class:`LexError`: ``\\x`` and ``\\u`` escapes need exactly 2 and 4
ASCII hex digits, numeric literals take ASCII ``0-9`` only (a token that
starts with any other digit is an unexpected character), and a hex
literal too large for a double is ``Infinity``, as in JavaScript.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

__all__ = ["Token", "LexError", "tokenize", "KEYWORDS"]

KEYWORDS = {
    "var", "function", "return", "if", "else", "while", "for", "do",
    "break", "continue", "new", "delete", "typeof", "instanceof", "in",
    "this", "null", "true", "false", "undefined", "try", "catch",
    "finally", "throw", "switch", "case", "default", "void",
}

# Longest-match-first operator table.
_PUNCTUATORS = [
    ">>>=", "===", "!==", ">>>", "<<=", ">>=", "**",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
    "{", "}", "(", ")", "[", "]", ";", ",", "<", ">", "+", "-", "*",
    "/", "%", "&", "|", "^", "!", "~", "?", ":", "=", ".",
]

_MASTER = re.compile(
    # whitespace, line comments and closed block comments before a token
    r"(?:[ \t\r\n\f\v]+|//[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)*"
    r"(?:(?P<punct>"
    + "|".join(re.escape(p) for p in _PUNCTUATORS if p not in (".", "/"))
    + r"|\.(?![0-9])|/(?!\*))"  # ".5" is a number, "/*" a comment
    r"|(?P<word>(?:[^\W\d]|\$)[\w$]*)"
    r"|(?P<hex>0[xX][0-9a-fA-F]*)"
    r"|(?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r'|(?P<string>"[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*"'
    r"|'[^'\\\n]*(?:\\[\s\S][^'\\\n]*)*')"
    r"|(?P<quote>[\"'])"  # a string literal the pattern above cannot close
    r"|(?P<comment>/\*)"  # a block comment that never closes
    r"|(?P<end>\Z)"
    r"|(?P<other>[\s\S]))"
)

_ESCAPE = re.compile(r"\\(?:x([0-9a-fA-F]{2})|u([0-9a-fA-F]{4})|([\s\S]))")
_HEX_DIGITS = {"x": re.compile(r"[0-9a-fA-F]{2}"), "u": re.compile(r"[0-9a-fA-F]{4}")}
_SIMPLE_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f",
                   "v": "\v", "\n": ""}


class LexError(ValueError):
    """Raised on input the lexer cannot tokenize."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__("%s at offset %d" % (message, position))
        self.reason = message
        self.position = position

    def __reduce__(self) -> "tuple[type, tuple[str, int]]":
        # copy and pickle rebuild the error from its arguments
        return type(self), (self.reason, self.position)


@dataclass(frozen=True)
class Token:
    """A lexical token: kind is one of number/string/identifier/keyword/punct/eof."""

    kind: str
    value: str
    position: int
    number: float = 0.0

    def is_punct(self, *values: str) -> bool:
        return self.kind == "punct" and self.value in values

    def is_keyword(self, *values: str) -> bool:
        return self.kind == "keyword" and self.value in values


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``; returns tokens ending with an ``eof`` token."""
    tokens: List[Token] = []
    append = tokens.append
    match = _MASTER.match
    pos = 0
    while True:
        m = match(source, pos)
        kind = m.lastgroup
        start = m.start(kind)
        text = m.group(kind)
        pos = m.end()
        if kind == "punct":
            append(Token("punct", text, start))
        elif kind == "word":
            if text in KEYWORDS:
                append(Token("keyword", text, start))
            elif text[0].isalpha() or text[0] in "_$":
                append(Token("identifier", text, start))
            else:
                # [^\W\d] still admits non-decimal digits and numerals
                # such as "²", which cannot start a token
                raise LexError("unexpected character %r" % text[0], start)
        elif kind == "string":
            body = text[1:-1]
            if "\\" in body:
                body = _unescape(body, start + 1)
            append(Token("string", body, start))
        elif kind == "number":
            append(Token("number", text, start, number=float(text)))
        elif kind == "hex":
            if len(text) == 2:
                raise LexError("bad hex literal", start)
            append(Token("number", text, start, number=_hex_value(text[2:])))
        elif kind == "end":
            append(Token("eof", "", start))
            return tokens
        elif kind == "quote":
            raise _string_error(source, start)
        elif kind == "comment":
            raise LexError("unterminated comment", start)
        else:
            raise LexError("unexpected character %r" % text, start)


def _hex_value(digits: str) -> float:
    try:
        return float(int(digits, 16))
    except OverflowError:
        return float("inf")


def _unescape(body: str, offset: int) -> str:
    """Decode the escapes of a string literal whose body starts at ``offset``."""

    def decode(m: "re.Match[str]") -> str:
        hex2, hex4, esc = m.groups()
        if hex2 is not None:
            return chr(int(hex2, 16))
        if hex4 is not None:
            return chr(int(hex4, 16))
        simple = _SIMPLE_ESCAPES.get(esc)
        if simple is not None:
            return simple
        if esc == "0":
            # "\0" is NUL unless a digit follows (then it is a plain 0)
            return "0" if body[m.end():m.end() + 1].isdigit() else "\0"
        if esc in "xu":
            raise LexError("bad \\%s escape" % esc, offset + m.end())
        return esc

    return _ESCAPE.sub(decode, body)


def _string_error(source: str, start: int) -> LexError:
    """The error a scan of the unclosable string literal at ``start`` hits first.

    The master regex closes every string that scans cleanly, so this
    scan always ends at a newline, a bad escape, or the end of input.
    """
    i = start + 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            break
        if ch == "\\":
            if i + 1 >= n:
                return LexError("unterminated escape", i)
            esc = source[i + 1]
            i += 2
            digits = _HEX_DIGITS.get(esc)
            if digits is not None:
                m = digits.match(source, i)
                if m is None:
                    return LexError("bad \\%s escape" % esc, i)
                i = m.end()
            continue
        i += 1
    return LexError("unterminated string", start)
