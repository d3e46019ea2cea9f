"""The character-loop JavaScript lexer that the master-regex lexer replaced.

Kept verbatim (only ``Token``, ``LexError`` and ``KEYWORDS`` now come
from :mod:`repro.jsengine.lexer`) as the reference for
``test_lexer_differential.py``.  Its known defects are the ones the new
lexer fixes: ``int(..., 16)`` and ``float()`` raise ``ValueError`` on
``"\\xZZ"``, ``"\\uZZZZ"`` and ``²``, accept ``"\\x f"``/``"\\x+f"``,
and lex non-ASCII digits such as ``٣`` as numbers.
"""

from __future__ import annotations

from typing import List

from repro.jsengine.lexer import KEYWORDS, LexError, Token

# Longest-match-first operator table.
_PUNCTUATORS = [
    ">>>=", "===", "!==", ">>>", "<<=", ">>=", "**",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
    "{", "}", "(", ")", "[", "]", ";", ",", "<", ">", "+", "-", "*",
    "/", "%", "&", "|", "^", "!", "~", "?", ":", "=", ".",
]


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``; returns tokens ending with an ``eof`` token."""
    tokens: List[Token] = []
    i = 0
    n = len(source)

    while i < n:
        ch = source[i]
        if ch in " \t\r\n\f\v":
            i += 1
            continue
        if source.startswith("//", i):
            end = source.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end == -1:
                raise LexError("unterminated comment", i)
            i = end + 2
            continue
        if ch in "\"'":
            value, i2 = _scan_string(source, i)
            tokens.append(Token("string", value, i))
            i = i2
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            number, i2 = _scan_number(source, i)
            tokens.append(Token("number", source[i:i2], i, number=number))
            i = i2
            continue
        if ch.isalpha() or ch in "_$":
            start = i
            while i < n and (source[i].isalnum() or source[i] in "_$"):
                i += 1
            word = source[start:i]
            kind = "keyword" if word in KEYWORDS else "identifier"
            tokens.append(Token(kind, word, start))
            continue
        for punct in _PUNCTUATORS:
            if source.startswith(punct, i):
                tokens.append(Token("punct", punct, i))
                i += len(punct)
                break
        else:
            raise LexError("unexpected character %r" % ch, i)

    tokens.append(Token("eof", "", n))
    return tokens


def _scan_string(source: str, start: int) -> tuple:
    quote = source[start]
    out: List[str] = []
    i = start + 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == quote:
            return "".join(out), i + 1
        if ch == "\n":
            raise LexError("unterminated string", start)
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n:
            raise LexError("unterminated escape", i)
        esc = source[i + 1]
        i += 2
        if esc == "n":
            out.append("\n")
        elif esc == "t":
            out.append("\t")
        elif esc == "r":
            out.append("\r")
        elif esc == "b":
            out.append("\b")
        elif esc == "f":
            out.append("\f")
        elif esc == "v":
            out.append("\v")
        elif esc == "0" and (i >= n or not source[i].isdigit()):
            out.append("\0")
        elif esc == "x":
            if i + 2 > n:
                raise LexError("bad \\x escape", i)
            out.append(chr(int(source[i : i + 2], 16)))
            i += 2
        elif esc == "u":
            if i + 4 > n:
                raise LexError("bad \\u escape", i)
            out.append(chr(int(source[i : i + 4], 16)))
            i += 4
        elif esc == "\n":
            pass  # line continuation
        else:
            out.append(esc)
    raise LexError("unterminated string", start)


def _scan_number(source: str, start: int) -> tuple:
    i = start
    n = len(source)
    if source.startswith(("0x", "0X"), i):
        i += 2
        digits_start = i
        while i < n and source[i] in "0123456789abcdefABCDEF":
            i += 1
        if i == digits_start:
            raise LexError("bad hex literal", start)
        return float(int(source[digits_start:i], 16)), i
    while i < n and source[i].isdigit():
        i += 1
    if i < n and source[i] == ".":
        i += 1
        while i < n and source[i].isdigit():
            i += 1
    if i < n and source[i] in "eE":
        j = i + 1
        if j < n and source[j] in "+-":
            j += 1
        if j < n and source[j].isdigit():
            i = j
            while i < n and source[i].isdigit():
                i += 1
    return float(source[start:i]), i
