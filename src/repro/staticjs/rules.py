"""Rule engine: CFG + dataflow + taint facts → findings and a verdict.

:func:`analyze_script` is the subsystem's entry point.  It takes the
script's AST from the pipeline's
:class:`~repro.jsengine.compilecache.CompileCache` (or parses it with the
jsengine parser when there is none) and runs three fact extractors
(:mod:`.cfg`, :mod:`.dataflow`, :mod:`.taint`) plus a *capability*
scan (all but the CFG iterate the program's one
:class:`~repro.jsengine.astindex.AstIndex`, stored on the cache entry
beside the report), then applies the rule table to produce typed
:class:`~repro.staticjs.report.StaticFinding`\\ s and a per-script
verdict.

The verdict ladder is information, not a gate: whether a page skips
the sandbox is decided from the abstract effect summaries alone
(``detection.heuristics._page_skip_decision``), whatever the verdicts.

* ``malicious`` / ``suspicious`` — a high/medium rule fired (static
  findings *add* signal, they never replace dynamic evidence).
* ``needs-dynamic`` — no rule fired but the script touches a
  *capability*: any API whose execution could mutate what the
  detection heuristics observe (``document.write``, DOM mutation,
  ``src``/``location`` assignment, timers, listener registration, an
  unresolvable call...).
* ``benign`` — no rule fired and the capability scan found no API the
  sandbox observes.  The scan reads call paths, so it cannot see a
  sink reached through an alias (``var e = eval; e(...)``); that is
  why it decides nothing.

Capability analysis runs over *executable* code only: the top level,
every function expression, and function declarations that are
referenced at least once.  A declared-but-never-called helper (common
in template boilerplate) does not make a script ``needs-dynamic``.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..jsengine import nodes as N
from ..jsengine.astindex import AstIndex, ast_index
from ..jsengine.compilecache import CompileCache, parse_reusing
from .absint import AbstractEffects, interpret_script
from .cfg import build_cfg
from .dataflow import UNKNOWN, Resolution, fold, propagate
from .report import (
    SEVERITY_HIGH,
    SEVERITY_INFO,
    SEVERITY_LOW,
    SEVERITY_MEDIUM,
    VERDICT_BENIGN,
    VERDICT_MALICIOUS,
    VERDICT_NEEDS_DYNAMIC,
    VERDICT_SUSPICIOUS,
    ScriptReport,
    StaticFinding,
)
from .taint import find_taint_flows

__all__ = ["analyze_script", "analyze_payload_html"]

_MAX_PAYLOAD_DEPTH = 3
_EVIDENCE_LIMIT = 160

#: listener events the sandbox counts as fingerprinting signals
_FINGERPRINT_EVENTS = frozenset(
    ("mousemove", "mousedown", "mouseup", "keydown", "keyup", "scroll", "touchstart"))
#: synthetic events run_script_in_page fires after loading a page
_FIRED_EVENTS = frozenset(("load", "click", "mousemove"))

#: global calls that cannot produce any BehaviorLog entry
_SAFE_CALLS = frozenset((
    "parseInt", "parseFloat", "isNaN", "isFinite", "String", "Number",
    "Boolean", "Array", "Object", "RegExp", "Date", "Error",
    "encodeURIComponent", "decodeURIComponent", "encodeURI", "decodeURI",
    "escape", "unescape", "atob", "btoa", "String.fromCharCode",
    "alert", "confirm", "prompt", "clearTimeout", "clearInterval",
    "console.log", "console.warn", "console.error", "console.info",
    "JSON.parse", "JSON.stringify",
))
_SAFE_CALL_PREFIXES = ("Math.", "JSON.", "console.")

#: method suffixes that are pure on any receiver (string/array/regexp ops)
_SAFE_METHODS = frozenset((
    "split", "join", "indexOf", "lastIndexOf", "push", "pop", "shift",
    "unshift", "slice", "substring", "substr", "charAt", "charCodeAt",
    "replace", "concat", "toLowerCase", "toUpperCase", "toString", "trim",
    "match", "test", "exec", "search", "hasOwnProperty", "reverse", "sort",
    "map", "filter", "forEach", "getTime", "valueOf", "getFullYear",
    "fromCharCode", "getElementById", "getElementsByTagName",
    "getElementsByClassName", "querySelector", "querySelectorAll",
    "text_content", "getAttribute",
))

#: member properties whose *assignment* the sandbox observes
_SINK_ASSIGN_PROPS = frozenset((
    "src", "href", "location", "action", "data", "innerHTML", "outerHTML",
    "textContent", "innerText", "cookie", "className", "display",
    "visibility", "position", "top", "left", "width", "height", "title",
))

_SHELLCODE_RE = re.compile(r"(?:%u[0-9a-fA-F]{4}){2,}")
_HIDDEN_IFRAME_RE = re.compile(
    r"<iframe[^>]*(?:display\s*:\s*none|visibility\s*:\s*hidden|"
    r"width=[\"']?[0-3][\"']?[^0-9]|height=[\"']?[0-3][\"']?[^0-9]|"
    r"top\s*:\s*-\d{2,})",
    re.IGNORECASE,
)
_IFRAME_RE = re.compile(r"<iframe[^>]*\bsrc\s*=", re.IGNORECASE)
_SCRIPT_TAG_RE = re.compile(r"<script[^>]*>", re.IGNORECASE)
# deliberately excludes .com/.pif: a bare domain URL ends in ".com"
_EXECUTABLE_URL_RE = re.compile(
    r"(?:https?:)?//[^\s'\"<>]+\.(?:exe|scr|msi|bat)\b", re.IGNORECASE)


def _clip(text: str) -> str:
    text = text.strip()
    return text if len(text) <= _EVIDENCE_LIMIT else text[:_EVIDENCE_LIMIT] + "..."


# ---------------------------------------------------------------------------
# Executable-code selection
# ---------------------------------------------------------------------------

def _executable_roots(index: AstIndex) -> List[int]:
    """Positions of the statements/functions whose code can actually run.

    The page's top level always runs.  Function *expressions* may be
    invoked through any alias, so all of them count.  Function
    *declarations* count only when their name is referenced somewhere
    outside the declaration itself.
    """
    nodes, end = index.nodes, index.end
    declared: Dict[str, int] = {}
    for position, node in enumerate(nodes):
        if isinstance(node, N.FunctionDecl):
            declared[node.name] = position

    referenced: Set[str] = set()
    if declared:
        # scan everything except declaration bodies of candidate names;
        # a self-recursive but otherwise-unused helper stays unreferenced
        position, count = 1, len(nodes)
        while position < count:
            node = nodes[position]
            if isinstance(node, N.FunctionDecl) and node.name in declared:
                position = end[position]
                continue
            if isinstance(node, N.Identifier) and node.name in declared:
                referenced.add(node.name)
            position += 1
        # a referenced function's body may call further declarations
        frontier = list(referenced)
        while frontier:
            name = frontier.pop()
            start = declared[name]
            for node in nodes[start:end[start]]:
                if (isinstance(node, N.Identifier) and node.name in declared
                        and node.name not in referenced and node.name != name):
                    referenced.add(node.name)
                    frontier.append(node.name)

    return [position for position in index.children_of(0)
            if not (isinstance(nodes[position], N.FunctionDecl)
                    and nodes[position].name not in referenced)]


def _subtree_nodes(index: AstIndex, roots: Sequence[int]) -> List[N.Node]:
    """Every node under the positions ``roots``, in preorder."""
    nodes, end = index.nodes, index.end
    out: List[N.Node] = []
    for root in roots:
        out.extend(nodes[root:end[root]])
    return out


# ---------------------------------------------------------------------------
# Capability scan
# ---------------------------------------------------------------------------

def _declared_names(index: AstIndex) -> Set[str]:
    names: Set[str] = set()
    for node in index.nodes:
        if isinstance(node, N.VarDecl):
            names.update(name for name, _init in node.declarations)
        elif isinstance(node, N.FunctionDecl):
            names.add(node.name)
            names.update(node.params)
        elif isinstance(node, N.FunctionExpr):
            names.update(node.params)
            if node.name:
                names.add(node.name)
        elif isinstance(node, N.ForIn):
            names.add(node.target)
        elif isinstance(node, N.Try) and node.catch_param:
            names.add(node.catch_param)
    return names


def _call_capability(node: N.Node, declared: Set[str]) -> Optional[str]:
    """The capability a call/new expression implies, or None when safe."""
    is_new = isinstance(node, N.New)
    path = N.callee_path(node.callee)
    if not path:
        # computed callee: window['ev' + 'al'](...) — unresolvable
        return "dynamic-call"
    root = path.split(".")[0]
    leaf = path.split(".")[-1]

    if path in ("eval", "window.eval", "execScript", "Function") or leaf == "eval":
        return "eval"
    if is_new and leaf == "Function":
        return "eval"
    if leaf in ("write", "writeln"):
        return "document-write"
    if path in ("setTimeout", "setInterval", "window.setTimeout",
                "window.setInterval"):
        return "timer"
    if leaf in ("createElement", "appendChild", "insertBefore", "removeChild",
                "replaceChild", "setAttribute", "removeAttribute"):
        return "dom-mutation"
    if leaf in ("addEventListener", "attachEvent"):
        return None  # handled separately with event-name context
    if leaf == "click":
        return "synthetic-click"
    if path in ("open", "window.open", "window.showModalDialog"):
        return "popup"
    if leaf in ("assign", "replace") and "location" in path:
        return "navigation"
    if leaf in ("send", "sendBeacon"):
        return "network"
    if is_new and leaf in ("Image", "XMLHttpRequest", "ActiveXObject",
                           "WebSocket", "Worker"):
        return "network"

    if path in _SAFE_CALLS or any(path.startswith(p) for p in _SAFE_CALL_PREFIXES):
        return None
    if root in declared:
        # locally defined function (its body is scanned as executable
        # code) or a method on a locally produced value
        return None if "." not in path or leaf in _SAFE_METHODS else "host-method"
    if "." in path and leaf in _SAFE_METHODS:
        return None
    if is_new and path in ("Date", "RegExp", "Array", "Object", "Error", "String"):
        return None
    return "unknown-call"


def _listener_capability(event: Optional[str]) -> Optional[str]:
    """Capability implied by registering a handler for ``event``.

    ``None`` event means the name could not be folded statically.
    Registration itself is observable when the event is in the
    fingerprinting set; otherwise the handler body (scanned separately,
    all function expressions are executable) carries the risk.
    """
    if event is None:
        return "dynamic-listener"
    if event in _FINGERPRINT_EVENTS:
        return "fingerprint-listener"
    return None


def _scan_capabilities(code: Sequence[N.Node],
                       declared: Set[str]) -> Tuple[List[str], List[Tuple[str, N.Node]]]:
    """All sandbox-observable capabilities among the nodes ``code``.

    Returns ``(capabilities, sink_sites)`` where ``sink_sites`` pairs a
    capability name with the AST node, for cloaking cross-reference.
    Callers use both as sets: their order is not data.
    """
    capabilities: List[str] = []
    sites: List[Tuple[str, N.Node]] = []

    def add(name: str, node: N.Node) -> None:
        capabilities.append(name)
        sites.append((name, node))

    for node in code:
        if isinstance(node, (N.Call, N.New)):
            path = N.callee_path(node.callee)
            leaf = path.split(".")[-1] if path else ""
            if leaf in ("addEventListener", "attachEvent"):
                event = fold(node.arguments[0]) if node.arguments else UNKNOWN
                name = _listener_capability(
                    event if isinstance(event, str) else None)
                if name is not None:
                    add(name, node)
                continue
            capability = _call_capability(node, declared)
            if capability is not None:
                add(capability, node)
        elif isinstance(node, N.Assignment):
            target = node.target
            if isinstance(target, N.Identifier):
                # the window object aliases globals: `location = url` navigates
                if target.name == "location":
                    add("navigation", node)
                continue
            if not isinstance(target, N.Member):
                continue
            prop = (target.prop.value
                    if isinstance(target.prop, N.StringLiteral) else None)
            if prop is None:
                # computed property write: el['sr' + 'c'] = ...
                folded = fold(target.prop)
                prop = folded if isinstance(folded, str) else None
                if prop is None:
                    add("dynamic-property-write", node)
                    continue
            if prop.startswith("on") and len(prop) > 2:
                name = _listener_capability(prop[2:])
                if name is not None:
                    add(name, node)
                continue
            if prop in _SINK_ASSIGN_PROPS:
                base = N.callee_path(target)
                if prop == "location" or "location" in base.split("."):
                    add("navigation", node)
                elif prop in ("innerHTML", "outerHTML"):
                    add("document-write", node)
                elif prop in ("src", "href", "action", "data"):
                    add("resource-load", node)
                else:
                    add("dom-write", node)
    return capabilities, sites


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def _payload_findings(payload: str, sink: str, depth: int,
                      compile_cache: Optional[CompileCache] = None) -> List[StaticFinding]:
    """Findings derived from one statically resolved payload string."""
    findings: List[StaticFinding] = []
    if _SHELLCODE_RE.search(payload):
        findings.append(StaticFinding(
            rule="shellcode-string", severity=SEVERITY_HIGH,
            message="resolved %s payload carries %%u-encoded shellcode" % sink,
            evidence=_clip(payload)))
    if _EXECUTABLE_URL_RE.search(payload.split("?")[0]):
        findings.append(StaticFinding(
            rule="resolved-url-exe", severity=SEVERITY_HIGH,
            message="statically resolved URL points at an executable payload",
            evidence=_clip(payload)))
    if sink in ("write", "eval", "timer"):
        if _HIDDEN_IFRAME_RE.search(payload):
            findings.append(StaticFinding(
                rule="hidden-iframe-write", severity=SEVERITY_HIGH,
                message="resolved %s payload injects a hidden iframe" % sink,
                evidence=_clip(payload)))
        elif _IFRAME_RE.search(payload):
            findings.append(StaticFinding(
                rule="iframe-write", severity=SEVERITY_MEDIUM,
                message="resolved %s payload injects an iframe" % sink,
                evidence=_clip(payload)))
        if _SCRIPT_TAG_RE.search(payload):
            findings.append(StaticFinding(
                rule="script-write", severity=SEVERITY_LOW,
                message="resolved %s payload injects a script tag" % sink,
                evidence=_clip(payload)))
    if sink in ("eval", "timer") and depth < _MAX_PAYLOAD_DEPTH:
        # the payload is JavaScript: analyze it recursively and lift
        # anything at or above medium severity
        nested = analyze_script(payload, _depth=depth + 1,
                                compile_cache=compile_cache)
        for finding in nested.findings_at_least(SEVERITY_MEDIUM):
            lifted = StaticFinding(
                rule=finding.rule, severity=finding.severity,
                message="(in resolved eval payload) " + finding.message,
                evidence=finding.evidence)
            findings.append(lifted)
    return findings


_IFRAME_SRC_RE = re.compile(
    r"<iframe[^>]*?\bsrc\s*=\s*[\"']?([^\"'\s>]+)", re.IGNORECASE)


def _redirect_targets(effects: Optional[AbstractEffects],
                      resolution: Resolution) -> List[str]:
    """Statically resolved navigation / injected-iframe targets.

    Merges (in discovery order, deduplicated) the abstract machine's
    redirect log — ``window.location`` sinks and ``document.write``
    iframes it actually reached — with constant-propagation results
    that cover code the machine aborted on.
    """
    targets: List[str] = []
    seen: Set[str] = set()

    def add(url: str) -> None:
        url = url.strip()
        if url and url not in seen:
            seen.add(url)
            targets.append(url)

    if effects is not None:
        for url in effects.redirect_targets:
            add(url)
    for resolved in resolution.url_strings:
        detail = resolved.detail
        if "location" in detail or detail.endswith("open"):
            add(resolved.value)
    for resolved in resolution.write_payloads:
        for match in _IFRAME_SRC_RE.finditer(resolved.value):
            add(match.group(1))
    return targets


def _dedupe(findings: List[StaticFinding]) -> List[StaticFinding]:
    seen: Set[Tuple[str, str, str]] = set()
    out: List[StaticFinding] = []
    for finding in findings:
        key = (finding.rule, finding.severity, finding.evidence)
        if key not in seen:
            seen.add(key)
            out.append(finding)
    return out


def analyze_script(source: str, _depth: int = 0,
                   observer: Optional[Any] = None,
                   compile_cache: Optional[CompileCache] = None) -> ScriptReport:
    """Statically analyze one script; never raises.

    When the pipeline's :class:`repro.jsengine.CompileCache` is passed,
    each top-level call routes the script through it: the first
    occurrence compiles (and seeds the entry the sandbox will reuse for
    this page), repeats are cache hits.  Tokens are *not* charged here
    — the uncached static pass parsed without an observer — so the
    ``js.tokens`` ledger is invariant under caching.  The analysis
    (rules and the abstract interpreter) reads that entry's AST, and the
    report is stored on the entry, so callers must treat it as
    immutable.  Without a cache, or for nested eval payloads
    (``_depth > 0``), the report is computed afresh.

    Work accounting happens here at the API boundary, *outside* the
    memo: ``node_count`` is stored on the report at parse time, so
    every call — hit or miss, on any thread's shard — charges the same
    deterministic ``staticjs.ast_nodes`` amount to the profiler.
    """
    if _depth == 0 and compile_cache is not None:
        try:
            compile_cache.compile(source, observer=observer,
                                  charge_tokens=False)
        except Exception:  # noqa: BLE001 - the analyzer reports
            pass           # lexer/parser failures itself, below
        report = compile_cache.memo(
            source, "report", lambda: _analyze_script_uncached(source, 0, compile_cache))
    else:
        report = _analyze_script_uncached(source, _depth, compile_cache)
    if observer is not None:
        observer.work("staticjs.ast_nodes", report.node_count)
        if report.effects is not None:
            observer.work("staticjs.absint.steps", report.effects.steps)
    return report


def _analyze_script_uncached(source: str, _depth: int,
                             compile_cache: Optional[CompileCache]) -> ScriptReport:
    report = ScriptReport()
    if _depth == 0:
        # the abstract machine survives any input by design; the guard
        # is against machine bugs, which must degrade to "no summary"
        # rather than break the scan
        try:
            report.effects = interpret_script(source, compile_cache=compile_cache)
        except Exception:  # noqa: BLE001
            report.effects = None
    try:
        program = parse_reusing(source, compile_cache)
    except Exception:  # noqa: BLE001 - lexer/parser errors, RecursionError:
        # like the sandbox, the analyzer must survive arbitrary input
        report.parse_failed = True
        report.verdict = VERDICT_NEEDS_DYNAMIC
        report.capabilities.append("parse-failure")
        if report.effects is not None:
            report.redirect_targets = list(report.effects.redirect_targets)
        return report
    index = ast_index(source, program, compile_cache)
    report.node_count = len(index)
    try:
        return _analyze_program(program, index, report, _depth, compile_cache)
    except (RecursionError, MemoryError):
        report.verdict = VERDICT_NEEDS_DYNAMIC
        report.capabilities.append("analysis-overflow")
        return report


def _analyze_program(program: N.Program, index: AstIndex, report: ScriptReport,
                     depth: int, compile_cache: Optional[CompileCache]) -> ScriptReport:
    resolution: Resolution = propagate(program, index)
    executable = _subtree_nodes(index, _executable_roots(index))
    declared = _declared_names(index)
    capabilities, sites = _scan_capabilities(executable, declared)
    report.capabilities = sorted(set(capabilities))

    findings: List[StaticFinding] = []

    # -- cloaking: constant-pruned CFG branches hiding sinks ---------------
    cfg = build_cfg(program.body, resolution.constants)
    if cfg.constant_pruned:
        unreachable = cfg.unreachable_statements()
        if unreachable:
            cloaked_sinks = [name for name, _node in
                             _iter_sink_sites(index, unreachable, declared)]
            if cloaked_sinks:
                findings.append(StaticFinding(
                    rule="cloaked-payload", severity=SEVERITY_HIGH,
                    message="constant-false branch hides %s"
                            % ", ".join(sorted(set(cloaked_sinks))),
                    evidence="; ".join(sorted(set(cloaked_sinks)))))
            else:
                findings.append(StaticFinding(
                    rule="dead-branch", severity=SEVERITY_INFO,
                    message="branch guarded by a constant-false predicate"))

    # -- taint flows --------------------------------------------------------
    for flow in find_taint_flows(program, index):
        findings.append(StaticFinding(
            rule="taint-flow", severity=SEVERITY_HIGH,
            message="attacker-influenced %s flows into %s" % (flow.source, flow.sink),
            evidence=flow.describe()))

    # -- resolved payloads --------------------------------------------------
    for resolved in resolution.resolved:
        report.resolved_payloads.append(resolved.value)
        findings.extend(_payload_findings(resolved.value, resolved.sink, depth,
                                          compile_cache))

    # -- abstract interpretation: deobfuscated payloads and redirects ------
    effects = report.effects
    if effects is not None:
        known_eval = {r.value for r in resolution.eval_payloads}
        for recovered in effects.eval_sources:
            if recovered in known_eval:
                continue  # constant propagation already analyzed it
            known_eval.add(recovered)
            report.resolved_payloads.append(recovered)
            findings.extend(_payload_findings(recovered, "eval", depth,
                                              compile_cache))
    report.redirect_targets = _redirect_targets(effects, resolution)

    # -- obfuscation-indicative combinations -------------------------------
    decoder_calls = 0
    eval_like = 0
    for name, _node in sites:
        if name == "eval":
            eval_like += 1
    shellcode: List[str] = []
    for node in executable:
        if isinstance(node, N.Call):
            path = N.callee_path(node.callee)
            if path in ("unescape", "atob", "String.fromCharCode") or \
                    path.endswith(".fromCharCode"):
                decoder_calls += 1
        elif isinstance(node, N.StringLiteral) and _SHELLCODE_RE.search(node.value):
            shellcode.append(node.value)
    # reported in the order of a right-to-left walk, which meets these
    # leaves in reverse source order
    for value in reversed(shellcode):
        findings.append(StaticFinding(
            rule="shellcode-string", severity=SEVERITY_HIGH,
            message="string literal carries %u-encoded shellcode",
            evidence=_clip(value)))
    if eval_like and decoder_calls:
        findings.append(StaticFinding(
            rule="obfuscated-eval", severity=SEVERITY_MEDIUM,
            message="eval combined with %d string-decoder call(s)" % decoder_calls))

    report.findings = _dedupe(findings)

    if report.findings_at_least(SEVERITY_HIGH):
        report.verdict = VERDICT_MALICIOUS
    elif report.findings_at_least(SEVERITY_MEDIUM):
        report.verdict = VERDICT_SUSPICIOUS
    elif report.capabilities:
        report.verdict = VERDICT_NEEDS_DYNAMIC
    else:
        report.verdict = VERDICT_BENIGN
    return report


def _iter_sink_sites(index: AstIndex, statements: Sequence[N.Node],
                     declared: Set[str]) -> List[Tuple[str, N.Node]]:
    """Sink capabilities found anywhere under ``statements``."""
    wanted = {id(statement) for statement in statements}
    roots = [position for position, node in enumerate(index.nodes) if id(node) in wanted]
    _capabilities, sites = _scan_capabilities(_subtree_nodes(index, roots), declared)
    dangerous = {"eval", "document-write", "navigation", "resource-load",
                 "popup", "timer", "dom-mutation", "network"}
    return [(name, node) for name, node in sites if name in dangerous]


def analyze_payload_html(markup: str) -> List[StaticFinding]:
    """Findings for an HTML payload string (document.write bodies)."""
    return _payload_findings(markup, "write", depth=0)
