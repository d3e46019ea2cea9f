"""Static feature extraction from JavaScript (Zozzle-style).

Zozzle (USENIX Security 2011, cited as [32] in the paper) classifies
JavaScript with features drawn from the syntax tree.  One of our
simulated VirusTotal engines is such a classifier; this module computes
the features it consumes, from either the AST (when the sample parses)
or the raw text (fallback, mirroring real engines' behaviour on
syntactically broken samples).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from . import nodes as N
from .astindex import ast_index
from .compilecache import CompileCache, parse_reusing
from .lexer import LexError
from .parser import ParseError

__all__ = ["JsFeatures", "extract_features"]

_SUSPICIOUS_CALLEES = (
    "eval", "unescape", "fromCharCode", "atob", "setTimeout",
    "decodeURIComponent", "write", "createElement", "appendChild",
)

_SUSPICIOUS_STRINGS = (
    "iframe", ".exe", "ActiveXObject", "shellcode", "%u", "\\x",
    "document.write", "location.href", "window.location",
)


@dataclass
class JsFeatures:
    """Bag of static features for one script."""

    length: int = 0
    parse_ok: bool = False
    string_count: int = 0
    max_string_length: int = 0
    total_string_length: int = 0
    string_entropy: float = 0.0
    hex_ratio: float = 0.0
    call_counts: Dict[str, int] = field(default_factory=dict)
    suspicious_string_hits: Dict[str, int] = field(default_factory=dict)
    function_count: int = 0
    loop_count: int = 0
    eval_count: int = 0
    document_write_count: int = 0
    fromcharcode_count: int = 0
    unescape_count: int = 0
    iframe_string_count: int = 0
    long_number_array: bool = False

    @property
    def obfuscation_score(self) -> float:
        """Heuristic score in [0, 1]; higher means more obfuscated."""
        score = 0.0
        if self.string_entropy > 4.2:
            score += 0.25
        if self.max_string_length > 300:
            score += 0.2
        if self.hex_ratio > 0.05:
            score += 0.2
        score += min(0.1 * (self.eval_count + self.unescape_count + self.fromcharcode_count), 0.3)
        if self.long_number_array:
            score += 0.15
        return min(score, 1.0)

    @property
    def injection_score(self) -> float:
        """Heuristic score for DOM-injection behaviour."""
        score = 0.0
        score += min(0.25 * self.document_write_count, 0.5)
        score += min(0.2 * self.iframe_string_count, 0.4)
        score += min(0.1 * self.call_counts.get("createElement", 0), 0.2)
        score += min(0.1 * self.call_counts.get("appendChild", 0), 0.2)
        return min(score, 1.0)


def _entropy(text: str) -> float:
    if not text:
        return 0.0
    counts = Counter(text)
    total = len(text)
    return -sum((c / total) * math.log2(c / total) for c in counts.values())


def extract_features(source: str,
                     compile_cache: Optional[CompileCache] = None) -> JsFeatures:
    """Compute :class:`JsFeatures` for ``source``.

    With the pipeline's ``compile_cache``, a source it already compiled
    reuses that AST and the :class:`~repro.jsengine.astindex.AstIndex`
    the static pass stored (the lookups neither count nor insert).  An
    index built here is not stored: with the static pre-filter off,
    nothing else reads it.
    """
    features = JsFeatures(length=len(source))

    strings: List[str] = []
    try:
        program = parse_reusing(source, compile_cache)
    except (ParseError, LexError):
        _scan_text(source, features, strings)
    else:
        features.parse_ok = True
        _scan_nodes(ast_index(source, program, compile_cache, store=False).nodes,
                    features, strings)

    features.string_count = len(strings)
    if strings:
        features.max_string_length = max(len(s) for s in strings)
        features.total_string_length = sum(len(s) for s in strings)
        features.string_entropy = _entropy("".join(strings))
    hex_chars = source.count("\\x") * 4 + source.count("%u") * 6
    features.hex_ratio = hex_chars / max(len(source), 1)

    lowered = source.lower()
    for needle in _SUSPICIOUS_STRINGS:
        hits = lowered.count(needle.lower())
        if hits:
            features.suspicious_string_hits[needle] = hits
    features.iframe_string_count = sum(s.lower().count("iframe") for s in strings)
    features.iframe_string_count += lowered.count("<iframe") if not features.parse_ok else 0
    return features


def _scan_nodes(nodes: Sequence[N.Node], features: JsFeatures, strings: List[str]) -> None:
    for node in nodes:
        if isinstance(node, N.StringLiteral):
            strings.append(node.value)
        elif isinstance(node, (N.FunctionDecl, N.FunctionExpr)):
            features.function_count += 1
        elif isinstance(node, (N.While, N.DoWhile, N.For, N.ForIn)):
            features.loop_count += 1
        elif isinstance(node, N.ArrayLiteral):
            if len(node.elements) > 40 and all(
                isinstance(el, N.NumberLiteral) for el in node.elements
            ):
                features.long_number_array = True
        elif isinstance(node, N.Call):
            name = _callee_name(node.callee)
            if name:
                for suspicious in _SUSPICIOUS_CALLEES:
                    if name == suspicious or name.endswith("." + suspicious):
                        features.call_counts[suspicious] = features.call_counts.get(suspicious, 0) + 1
                if name == "eval" or name.endswith(".eval"):
                    features.eval_count += 1
                if name.endswith("write") or name.endswith("writeln"):
                    features.document_write_count += 1
                if name.endswith("fromCharCode"):
                    features.fromcharcode_count += 1
                if name == "unescape" or name.endswith(".unescape"):
                    features.unescape_count += 1


def _callee_name(callee: N.Node) -> str:
    # iterative: a member chain (a.b.c...) may be thousands of links long
    props: List[str] = []
    while isinstance(callee, N.Member) and isinstance(callee.prop, N.StringLiteral):
        props.append(callee.prop.value)
        callee = callee.obj
    name = callee.name if isinstance(callee, N.Identifier) else ""
    for prop in reversed(props):
        name = (name + "." if name else "") + prop
    return name


def _scan_text(source: str, features: JsFeatures, strings: List[str]) -> None:
    """Text-level fallback when the sample does not parse."""
    features.eval_count = source.count("eval(")
    features.document_write_count = source.count("document.write")
    features.fromcharcode_count = source.count("fromCharCode")
    features.unescape_count = source.count("unescape(")
    features.function_count = source.count("function")
    # crude string literal scan
    import re

    for match in re.finditer(r"(['\"])((?:[^'\"\\\n]|\\.)*)\1", source):
        strings.append(match.group(2))
