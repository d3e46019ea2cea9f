"""Static de-obfuscation passes for JavaScript.

Quttera-style scanners must see through the obfuscation layers malware
uses to "hamper static code analysis" (Section III-B).  This module
implements the common literal-level layers without executing code:

* ``unescape('%69%66...')`` / ``decodeURIComponent`` literals,
* ``String.fromCharCode(105, 102, ...)`` chains,
* ``atob('aWZyYW1l...')`` literals,
* string concatenation of literals (``'ifr' + 'ame'``),
* reversed-string idiom (``'...'.split('').reverse().join('')``),
* hex-escape-heavy strings (``"\\x69\\x66..."`` is already decoded by
  the lexer; re-decoding exposes double-encoded payloads).

:func:`deobfuscate` iterates the passes to a fixed point and returns the
fully peeled source together with the number of layers removed — the
layer count itself is a strong maliciousness signal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .builtins import js_atob, js_decode_uri, js_from_char_code, js_unescape
from .lexer import LexError, decode_string_body
from .values import JSException

__all__ = [
    "DeobfuscationResult", "PURE_DECODERS", "DECODER_NAMES", "deobfuscate",
    "decode_literals", "looks_obfuscated",
]


#: the sandbox's single-string decoders (:mod:`repro.jsengine.builtins`),
#: by global name, so the regex peeler below recovers what the sandbox
#: would decode.  ``atob`` raises :class:`~repro.jsengine.values.JSException`
#: on input it cannot decode; the call site then keeps the original
#: expression.
PURE_DECODERS: Dict[str, Callable[[str], str]] = {
    "unescape": js_unescape,
    "decodeURIComponent": js_decode_uri,
    "decodeURI": js_decode_uri,
    "atob": js_atob,
}

#: decoder vocabulary for work accounting / reporting; includes the
#: multi-argument decoder the table above cannot express
DECODER_NAMES = frozenset(PURE_DECODERS) | {"String.fromCharCode"}

_UNESCAPE_CALL = re.compile(
    r"""(?:window\.)?(unescape|decodeURIComponent|decodeURI)\(\s*(['"])((?:[^'"\\]|\\.)*)\2\s*\)"""
)
_FROMCHARCODE_CALL = re.compile(
    r"""String\.fromCharCode\(\s*([0-9,\s]+)\)"""
)
_ATOB_CALL = re.compile(
    r"""(?:window\.)?atob\(\s*(['"])([A-Za-z0-9+/=]+)\1\s*\)"""
)
_STRING_LITERAL = r"""(?:"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')"""
_CONCAT = re.compile(r"(%s)\s*\+\s*(%s)" % (_STRING_LITERAL, _STRING_LITERAL))
_EVAL_STRING = re.compile(r"eval\(\s*(%s)\s*\)" % _STRING_LITERAL)
_REVERSE_IDIOM = re.compile(
    r"(%s)\.split\(\s*(?:''|\"\")\s*\)\.reverse\(\)\.join\(\s*(?:''|\"\")\s*\)" % _STRING_LITERAL
)
_PERCENT_RUN = re.compile(r"(?:%[0-9a-fA-F]{2}){4,}")


@dataclass
class DeobfuscationResult:
    """Outcome of static de-obfuscation."""

    source: str
    layers: int
    decoded_strings: List[str]

    @property
    def was_obfuscated(self) -> bool:
        return self.layers > 0


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return '"%s"' % escaped


def _decode_call(name: str, text: str, decoded: List[str]) -> Optional[str]:
    """The quoted result of the sandbox's decoder ``name`` on ``text``,
    or None where it throws."""
    try:
        payload = PURE_DECODERS[name](text)
    except JSException:
        return None
    decoded.append(payload)
    return _quote(payload)


def _pass_unescape(source: str, decoded: List[str]) -> str:
    def repl(match: "re.Match[str]") -> str:
        return _decode_call(match.group(1), match.group(3), decoded) or match.group(0)

    return _UNESCAPE_CALL.sub(repl, source)


def _pass_fromcharcode(source: str, decoded: List[str]) -> str:
    def repl(match: "re.Match[str]") -> str:
        try:
            codes = [float(c) for c in match.group(1).replace(" ", "").split(",") if c.strip()]
        except ValueError:  # digits split by a line break: no call JS would parse
            return match.group(0)
        payload = js_from_char_code(*codes)
        decoded.append(payload)
        return _quote(payload)

    return _FROMCHARCODE_CALL.sub(repl, source)


def _pass_atob(source: str, decoded: List[str]) -> str:
    def repl(match: "re.Match[str]") -> str:
        return _decode_call("atob", match.group(2), decoded) or match.group(0)

    return _ATOB_CALL.sub(repl, source)


def _strip_literal(literal: str) -> Optional[str]:
    """A string literal's value as the lexer decodes it, or None for a
    literal the lexer rejects (the pass then leaves it alone)."""
    try:
        return decode_string_body(literal[1:-1])
    except LexError:
        return None


def _pass_concat(source: str) -> str:
    start = 0
    while True:
        match = _CONCAT.search(source, start)
        if match is None:
            return source
        left, right = _strip_literal(match.group(1)), _strip_literal(match.group(2))
        if left is None or right is None:
            start = match.start() + 1
            continue
        source = source[:match.start()] + _quote(left + right) + source[match.end():]
        start = 0


def _pass_eval_unwrap(source: str, decoded: List[str]) -> str:
    """Unwrap ``eval("<code>")`` — the outer shell every packer leaves."""

    def repl(match: "re.Match[str]") -> str:
        code = _strip_literal(match.group(1))
        if code is None:
            return match.group(0)
        decoded.append(code)
        return code

    return _EVAL_STRING.sub(repl, source)


_VAR_STRING = re.compile(r"var\s+([A-Za-z_$][\w$]*)\s*=\s*(%s)\s*;" % _STRING_LITERAL)
_VAR_ARRAY = re.compile(
    r"var\s+([A-Za-z_$][\w$]*)\s*=\s*\[((?:\s*%s\s*,?)*)\]\s*;" % _STRING_LITERAL
)
_LITERAL_FINDER = re.compile(_STRING_LITERAL)


def _pass_var_eval(source: str, decoded: List[str]) -> str:
    """Propagate single-assignment string variables into ``eval(name)``.

    Handles the two stash-then-eval idioms packers use::

        var _0x1 = "code...";        eval(_0x1);
        var _a12 = ["co", "de"];     eval(_a12.join(''));
    """
    for match in _VAR_STRING.finditer(source):
        name, literal = match.group(1), match.group(2)
        eval_call = re.compile(r"eval\(\s*%s\s*\)" % re.escape(name))
        if not eval_call.search(source):
            continue
        code = _strip_literal(literal)
        if code is not None:
            decoded.append(code)
            source = source.replace(match.group(0), "", 1)
            return eval_call.sub(lambda _m: code, source, count=1)
    for match in _VAR_ARRAY.finditer(source):
        name, body = match.group(1), match.group(2)
        eval_call = re.compile(
            r"eval\(\s*%s\.join\(\s*(?:''|\"\")\s*\)\s*\)" % re.escape(name)
        )
        if not eval_call.search(source):
            continue
        pieces = [_strip_literal(lit.group(0)) for lit in _LITERAL_FINDER.finditer(body)]
        if None in pieces:
            continue
        code = "".join(pieces)
        decoded.append(code)
        source = source.replace(match.group(0), "", 1)
        return eval_call.sub(lambda _m: code, source, count=1)
    return source


def _pass_reverse(source: str, decoded: List[str]) -> str:
    def repl(match: "re.Match[str]") -> str:
        literal = _strip_literal(match.group(1))
        if literal is None:
            return match.group(0)
        decoded.append(literal[::-1])
        return _quote(literal[::-1])

    return _REVERSE_IDIOM.sub(repl, source)


def decode_literals(source: str) -> Tuple[str, List[str]]:
    """Run one round of all literal-decoding passes."""
    decoded: List[str] = []
    source = _pass_concat(source)
    source = _pass_unescape(source, decoded)
    source = _pass_fromcharcode(source, decoded)
    source = _pass_atob(source, decoded)
    source = _pass_reverse(source, decoded)
    source = _pass_var_eval(source, decoded)
    source = _pass_eval_unwrap(source, decoded)
    return source, decoded


def deobfuscate(source: str, max_layers: int = 8) -> DeobfuscationResult:
    """Iterate literal decoding to a fixed point (bounded)."""
    layers = 0
    all_decoded: List[str] = []
    for _ in range(max_layers):
        new_source, decoded = decode_literals(source)
        # ``document.write(eval-like)`` unwrap: if the whole decoded payload
        # is itself script-looking text inside a lone string statement,
        # surface it for the next round.
        if new_source == source and not decoded:
            break
        if decoded:
            layers += 1
        all_decoded.extend(decoded)
        source = new_source
    return DeobfuscationResult(source=source, layers=layers, decoded_strings=all_decoded)


def looks_obfuscated(source: str) -> bool:
    """Cheap syntactic test for obfuscation (pre-filter for scanners)."""
    if len(source) < 40:
        return False
    if _PERCENT_RUN.search(source):
        return True
    if "fromCharCode" in source and source.count(",") > 15:
        return True
    if "unescape" in source or "atob(" in source:
        return True
    hex_escapes = source.count("\\x")
    if hex_escapes >= 8:
        return True
    # high symbol density / very long lines are typical of packed code
    longest_line = max((len(line) for line in source.splitlines()), default=0)
    if longest_line > 600 and source.count(" ") / max(longest_line, 1) < 0.05:
        return True
    return False
