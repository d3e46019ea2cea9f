"""HTML tokenizer.

A small, robust HTML tokenizer sufficient for the markup the study
analyzes: start/end tags with quoted or bare attributes, comments,
doctype, text, and raw-text elements (``script``/``style``/``textarea``)
whose content must not be interpreted as markup — the malware samples in
the paper live almost entirely inside ``<script>`` bodies and ``<iframe>``
attributes, so getting those right matters more than full WHATWG
conformance.  Malformed input never raises; it degrades to text tokens,
mirroring browser behaviour that malware relies on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["Token", "TokenKind", "tokenize", "decode_entities", "RAW_TEXT_ELEMENTS"]

RAW_TEXT_ELEMENTS = {"script", "style", "textarea", "title"}

#: each raw-text element's end tag: ``</element`` followed by whitespace,
#: ``>``, ``/`` or the end of the input.  The name matches case-insensitively
#: for ASCII letters only, on the original string: lowercasing the page
#: first would shift every index after a character whose lowercase is
#: longer (``İ`` becomes two code points), and would copy the page once
#: per element
_RAW_TEXT_END = {
    element: re.compile(r"</%s(?=[ \t\n\r\f>/]|\Z)" % element, re.IGNORECASE | re.ASCII)
    for element in RAW_TEXT_ELEMENTS
}

_SPACE = " \t\n\r\f"

_NAMED_ENTITIES = {
    "amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'",
    "nbsp": " ", "copy": "©", "mdash": "—", "ndash": "–",
}


def decode_entities(text: str) -> str:
    """Decode named and numeric character references."""
    if "&" not in text:
        return text
    out: List[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        semi = text.find(";", i + 1, i + 12)
        if semi == -1:
            out.append(ch)
            i += 1
            continue
        body = text[i + 1 : semi]
        if body.startswith("#"):
            digits = body[1:]
            try:
                code = int(digits[1:], 16) if digits[:1] in "xX" else int(digits)
                out.append(chr(code))
                i = semi + 1
                continue
            except (ValueError, OverflowError):
                pass
        elif body in _NAMED_ENTITIES:
            out.append(_NAMED_ENTITIES[body])
            i = semi + 1
            continue
        out.append(ch)
        i += 1
    return "".join(out)


class TokenKind:
    """Token kind constants (plain strings keep tokens easy to debug)."""

    TEXT = "text"
    START_TAG = "start_tag"
    END_TAG = "end_tag"
    COMMENT = "comment"
    DOCTYPE = "doctype"


@dataclass
class Token:
    """One lexical unit of an HTML document."""

    kind: str
    data: str = ""
    attrs: Dict[str, str] = field(default_factory=dict)
    self_closing: bool = False
    position: int = 0

    def attr(self, name: str, default: str = "") -> str:
        return self.attrs.get(name.lower(), default)


def tokenize(html: str) -> Iterator[Token]:
    """Yield :class:`Token` objects for ``html``.

    The tokenizer is forgiving: an unterminated tag or comment is emitted
    as text, and attributes with missing quotes are parsed bare.
    """
    pos = 0
    length = len(html)
    pending_raw: Optional[str] = None  # element whose raw text we're inside

    while pos < length:
        if pending_raw is not None:
            end_pos, text, end_tag = _scan_raw_text(html, pos, pending_raw)
            if text:
                yield Token(TokenKind.TEXT, text, position=pos)
            if end_tag is not None:
                yield end_tag
            pos = end_pos
            pending_raw = None
            continue

        lt = html.find("<", pos)
        if lt == -1:
            yield Token(TokenKind.TEXT, decode_entities(html[pos:]), position=pos)
            break
        if lt > pos:
            yield Token(TokenKind.TEXT, decode_entities(html[pos:lt]), position=pos)
            pos = lt

        token, new_pos = _scan_markup(html, pos)
        if token is None:
            # stray '<' — emit as text and continue after it
            yield Token(TokenKind.TEXT, "<", position=pos)
            pos += 1
            continue
        yield token
        pos = new_pos
        if token.kind == TokenKind.START_TAG and not token.self_closing:
            if token.data in RAW_TEXT_ELEMENTS:
                pending_raw = token.data


def _scan_raw_text(html: str, pos: int, element: str) -> Tuple[int, str, Optional[Token]]:
    """Scan raw text until ``</element``; returns (new_pos, text, end_token)."""
    match = _RAW_TEXT_END[element].search(html, pos)
    if match is None:
        return len(html), html[pos:], None
    idx = match.start()
    gt = html.find(">", match.end())
    end = len(html) if gt == -1 else gt + 1
    return end, html[pos:idx], Token(TokenKind.END_TAG, element, position=idx)


def _scan_markup(html: str, pos: int) -> Tuple[Optional[Token], int]:
    """Scan a construct starting with ``<`` at ``pos``."""
    length = len(html)
    if pos + 1 >= length:
        return None, pos

    nxt = html[pos + 1]
    if nxt == "!":
        if html.startswith("<!--", pos):
            end = html.find("-->", pos + 4)
            if end == -1:
                return Token(TokenKind.COMMENT, html[pos + 4 :], position=pos), length
            return Token(TokenKind.COMMENT, html[pos + 4 : end], position=pos), end + 3
        gt = html.find(">", pos)
        if gt == -1:
            return Token(TokenKind.TEXT, html[pos:], position=pos), length
        return Token(TokenKind.DOCTYPE, html[pos + 2 : gt].strip(), position=pos), gt + 1

    if nxt == "/":
        gt = html.find(">", pos)
        if gt == -1:
            return None, pos
        name = html[pos + 2 : gt].strip().lower()
        return Token(TokenKind.END_TAG, name, position=pos), gt + 1

    if not nxt.isalpha():
        return None, pos

    return _scan_start_tag(html, pos)


def _scan_start_tag(html: str, pos: int) -> Tuple[Optional[Token], int]:
    length = len(html)
    i = pos + 1
    start = i
    while i < length and (html[i].isalnum() or html[i] in "-_:"):
        i += 1
    name = html[start:i].lower()
    attrs: Dict[str, str] = {}
    self_closing = False

    while i < length:
        while i < length and html[i] in _SPACE:
            i += 1
        if i >= length:
            return None, pos
        ch = html[i]
        if ch == ">":
            i += 1
            break
        if ch == "/":
            if i + 1 < length and html[i + 1] == ">":
                self_closing = True
                i += 2
                break
            i += 1
            continue
        attr_name, attr_value, i = _scan_attribute(html, i)
        if attr_name and attr_name not in attrs:
            attrs[attr_name] = decode_entities(attr_value)
    else:
        return None, pos

    return Token(TokenKind.START_TAG, name, attrs=attrs, self_closing=self_closing, position=pos), i


def _scan_attribute(html: str, i: int) -> Tuple[str, str, int]:
    length = len(html)
    start = i
    while i < length and html[i] not in _SPACE + "=/>":
        i += 1
    name = html[start:i].lower()
    while i < length and html[i] in _SPACE:
        i += 1
    if i >= length or html[i] != "=":
        return name, "", i
    i += 1
    while i < length and html[i] in _SPACE:
        i += 1
    if i >= length:
        return name, "", i
    quote = html[i]
    if quote in "\"'":
        end = html.find(quote, i + 1)
        if end == -1:
            return name, html[i + 1 :], length
        return name, html[i + 1 : end], end + 1
    start = i
    while i < length and html[i] not in _SPACE + ">":
        i += 1
    return name, html[start:i], i
