"""Shared content-analysis heuristics.

All scanners (Quttera, the VirusTotal engine pool, the rejected tools)
derive their verdicts from one structured :class:`ContentAnalysis` of
the submitted artifact.  The analysis is *earned*: HTML is parsed with
:mod:`repro.htmlparse`, scripts are statically de-obfuscated and
dynamically executed in :mod:`repro.jsengine`'s sandbox, SWF bytes are
decompiled with :mod:`repro.flashsim`, executables are signature-checked
— no ground-truth labels are consulted anywhere in this module.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, ClassVar, ContextManager, List, Optional, Tuple

from ..flashsim import SwfError, SwfFile, decompile
from ..htmlparse import Document, Element, parse, parse_fragment
from ..jsengine import (
    BehaviorLog,
    deobfuscate,
    extract_features,
    looks_obfuscated,
    run_script_in_page,
)
from ..malware.payloads import is_malicious_executable
from ..simweb.url import Url
from ..staticjs import (
    EVENT_PHASES,
    PAGE_STEP_BUDGET,
    AbstractEffects,
    ScriptReport,
    StaticFinding,
    analyze_script,
)

__all__ = ["IframeFinding", "ContentAnalysis", "analyze_content", "analyze_html", "analyze_swf"]

_TRUSTED_FRAME_HOSTS = {
    # hosts whose hidden frames are normal platform plumbing; scanners
    # with a whitelist skip them, naive scanners FP on them (Section V-E)
    "accounts.google.com",
    "www.google-analytics.com",
}


@dataclass
class IframeFinding:
    """One suspicious-iframe observation."""

    src: str
    width: Optional[float]
    height: Optional[float]
    hidden_by: str  # "tiny" | "visibility" | "transparency" | "offscreen"
    injected_by_js: bool = False
    exfiltrates_query: bool = False

    #: ``src``'s host, kept from its first parse; a class variable, not
    #: a field, so equality and every serialized form are unchanged
    _frame_host: ClassVar[Optional[str]] = None

    @property
    def frame_host(self) -> str:
        if self._frame_host is None:
            parsed = Url.try_parse(self.src)
            self._frame_host = parsed.host if parsed is not None else ""
        return self._frame_host

    @property
    def trusted_host(self) -> bool:
        return self.frame_host in _TRUSTED_FRAME_HOSTS


@dataclass
class ContentAnalysis:
    """Everything the heuristics extracted from one artifact."""

    kind: str = "html"  # html | javascript | flash | executable | other
    hidden_iframes: List[IframeFinding] = field(default_factory=list)
    obfuscation_layers: int = 0
    obfuscation_score: float = 0.0
    injection_score: float = 0.0
    eval_count: int = 0
    document_writes: int = 0
    navigations: List[str] = field(default_factory=list)
    popups: List[str] = field(default_factory=list)
    download_triggers: List[str] = field(default_factory=list)
    beacons: List[str] = field(default_factory=list)
    fingerprinting_listeners: int = 0
    redirect_stub: bool = False
    redirect_target: str = ""
    external_interface_calls: List[str] = field(default_factory=list)
    flash_invisible_overlay: bool = False
    flash_allows_any_domain: bool = False
    executable_signature_hit: bool = False
    deceptive_download_bar: bool = False
    pdf_malformed: bool = False
    pdf_embedded_js: bool = False
    pdf_auto_executes: bool = False
    script_count: int = 0
    remote_scripts: List[str] = field(default_factory=list)
    analysis_errors: List[str] = field(default_factory=list)
    static_findings: List[StaticFinding] = field(default_factory=list)
    static_redirect_targets: List[str] = field(default_factory=list)
    sandbox_skipped: bool = False

    # -- scoring helpers engines build verdicts from ------------------------
    @property
    def malicious_iframe_score(self) -> float:
        """0..1: hidden iframes pointing at untrusted hosts."""
        score = 0.0
        for finding in self.hidden_iframes:
            base = 0.5 if not finding.trusted_host else 0.25
            if finding.injected_by_js:
                base += 0.2
            if finding.exfiltrates_query:
                base += 0.15
            score = max(score, min(base, 1.0))
        return score

    @property
    def behavior_score(self) -> float:
        """0..1: dynamic behaviour severity."""
        score = 0.0
        if self.executable_signature_hit:
            score = max(score, 0.95)
        if self.download_triggers:
            score = max(score, 0.9)
        if self.external_interface_calls:
            score = max(score, 0.8)
        if self.deceptive_download_bar:
            score = max(score, 0.85)
        if self.redirect_stub:
            score = max(score, 0.7)
        if self.popups:
            score = max(score, 0.6)
        if self.fingerprinting_listeners >= 2 and self.beacons:
            score = max(score, 0.65)
        if self.obfuscation_layers >= 2:
            score = max(score, 0.6)
        elif self.obfuscation_layers == 1:
            score = max(score, 0.45)
        if self.pdf_auto_executes:
            score = max(score, 0.8)
        if self.pdf_malformed and self.pdf_embedded_js:
            score = max(score, 0.85)
        return score

    @property
    def flash_score(self) -> float:
        score = 0.0
        if self.external_interface_calls:
            score += 0.5
        if self.flash_invisible_overlay:
            score += 0.3
        if self.flash_allows_any_domain:
            score += 0.2
        return min(score, 1.0)

    # -- provenance ----------------------------------------------------------
    def static_evidence(self) -> dict:
        """JSON-safe facts the staticjs stage contributed."""
        return {
            "findings": len(self.static_findings),
            "rules": sorted({f.rule for f in self.static_findings}),
            "max_severity": max(
                (f.severity for f in self.static_findings),
                key=lambda s: ("info", "low", "medium", "high").index(s)
                if s in ("info", "low", "medium", "high") else -1,
                default="none",
            ),
            "sandbox_skipped": self.sandbox_skipped,
            "redirect_targets": list(self.static_redirect_targets),
        }

    def sandbox_evidence(self) -> dict:
        """JSON-safe facts the dynamic-sandbox stage contributed."""
        return {
            "kind": self.kind,
            "skipped": self.sandbox_skipped,
            "hidden_iframes": len(self.hidden_iframes),
            "navigations": len(self.navigations),
            "popups": len(self.popups),
            "download_triggers": len(self.download_triggers),
            "beacons": len(self.beacons),
            "fingerprinting_listeners": self.fingerprinting_listeners,
            "document_writes": self.document_writes,
            "obfuscation_layers": self.obfuscation_layers,
            "eval_count": self.eval_count,
            "redirect_stub": self.redirect_stub,
            "behavior_score": round(self.behavior_score, 4),
            "iframe_score": round(self.malicious_iframe_score, 4),
        }


def analyze_content(content: bytes, content_type: str = "text/html",
                    url: str = "http://unknown.invalid/",
                    observer: Optional[object] = None,
                    static_prefilter: bool = True,
                    compile_cache: Optional[object] = None) -> ContentAnalysis:
    """Dispatch on artifact type and analyze.

    ``observer`` (a :class:`repro.obs.RunObserver`, optional) is threaded
    into the JS sandbox so eval-depth/op-count gauges cover every script
    the scanners execute.  ``static_prefilter`` enables the
    :mod:`repro.staticjs` pass: scripts get static findings before any
    sandbox run, and pages whose scripts' effects the abstract
    interpreter proves replay them instead of executing.  ``compile_cache``
    (a :class:`repro.jsengine.CompileCache`, optional) makes the JS
    front end lex and parse each distinct script source once per run:
    the sandbox, the static pass and the feature extractor share its
    ASTs, and the static pass its reports.
    """
    if content_type.startswith("application/x-shockwave-flash") or SwfFile.sniff(content):
        return analyze_swf(content)
    if content_type.startswith("application/pdf") or content[:5] == b"%PDF-":
        return analyze_pdf(content, observer=observer, compile_cache=compile_cache)
    if content_type.startswith(("application/x-msdownload", "application/octet-stream")) and content[:2] == b"MZ":
        analysis = ContentAnalysis(kind="executable")
        analysis.executable_signature_hit = is_malicious_executable(content)
        return analysis
    text = content.decode("utf-8", errors="replace")
    if content_type.startswith(("application/javascript", "text/javascript")):
        return _analyze_standalone_js(text, url, observer=observer,
                                      static_prefilter=static_prefilter,
                                      compile_cache=compile_cache)
    return analyze_html(text, url, observer=observer, static_prefilter=static_prefilter,
                        compile_cache=compile_cache)


def _observe(observer: Optional[object], name: str, amount: float = 1.0,
             **labels: str) -> None:
    count = getattr(observer, "count", None)
    if count is not None:
        count(name, amount, **labels)


_NULL_FRAME: ContextManager[None] = nullcontext()


def _frame(observer: Optional[object], name: str) -> ContextManager[None]:
    """Profiler frame when the observer supports one, else a shared no-op."""
    frame = getattr(observer, "frame", None)
    return frame(name) if frame is not None else _NULL_FRAME


def analyze_html(html: str, url: str = "http://unknown.invalid/",
                 observer: Optional[object] = None,
                 static_prefilter: bool = True,
                 compile_cache: Optional[object] = None) -> ContentAnalysis:
    """Full static + dynamic analysis of an HTML page.

    With ``static_prefilter`` on, every inline script is first analyzed
    by :func:`repro.staticjs.analyze_script`, which includes its
    abstract effect summary.  The sandbox runs unless
    :func:`_page_skip_decision` proves the summaries complete and
    composable; then they are replayed instead, so skipping is
    behaviour-preserving: the resulting :class:`ContentAnalysis` is
    identical to what the dynamic pass would have produced.  A page
    with no inline script has nothing to replay and always skips.

    The page is parsed once, and one walk of that DOM collects its
    scripts, iframes and metas.  The post-execution DOM is walked again
    for iframes only when it differs from the static one: after a
    sandbox run, or when a replayed ``document.write`` attached markup.
    """
    analysis = ContentAnalysis(kind="html")
    static_doc = parse(html, observer=observer)
    static_scripts, static_frames, metas = _collect_tags(static_doc)
    sources = [script.text_content() for script in static_scripts]

    # ---- static pre-filter: analyze inline scripts without executing ----
    skip_sandbox = False
    reports: List[ScriptReport] = []
    if static_prefilter:
        with _frame(observer, "staticjs"):
            for script, source in zip(static_scripts, sources):
                if script.get("src"):
                    continue
                if not source.strip():
                    continue
                report = analyze_script(source, observer=observer,
                                        compile_cache=compile_cache)
                reports.append(report)
                analysis.static_findings.extend(report.findings)
                for target in report.redirect_targets:
                    if target not in analysis.static_redirect_targets:
                        analysis.static_redirect_targets.append(target)
                _observe(observer, "staticjs.scripts")
                _observe(observer, "staticjs.verdict", verdict=report.verdict)
        skip_sandbox, blockers = _page_skip_decision(reports)
        if not skip_sandbox:
            reason = blockers[0].partition(":")[0] if blockers else "unknown"
            _observe(observer, "staticjs.absint.blocked_pages", reason=reason)
        elif reports:
            _observe(observer, "staticjs.sandbox.skipped_scripts",
                     amount=float(len(reports)))

    if skip_sandbox:
        # every script's effect summary is complete and the summaries
        # compose (no cross-script interference): replay the recorded
        # effects instead of executing
        analysis.sandbox_skipped = True
        with _frame(observer, "staticjs.synthesize"):
            document = _synthesize_dynamic(analysis, html, static_doc,
                                           static_scripts, sources,
                                           reports, observer)
        _observe(observer, "staticjs.sandbox.skipped_pages")
    else:
        # ---- dynamic pass: execute scripts, observe behaviour, mutate DOM
        with _frame(observer, "sandbox"):
            host = run_script_in_page(html, url=url, step_budget=200_000,
                                      observer=observer,
                                      compile_cache=compile_cache)
        document = host.document_tree
        analysis.navigations = list(host.log.navigations)
        analysis.popups = list(host.log.popups)
        analysis.download_triggers = list(host.log.download_triggers)
        analysis.beacons = list(host.log.beacons)
        analysis.fingerprinting_listeners = len(host.log.fingerprinting_events)
        analysis.document_writes = len(host.log.document_writes)
        analysis.analysis_errors = list(host.log.errors)
        analysis.remote_scripts = list(host.requested_scripts)
        if static_prefilter:
            _observe(observer, "staticjs.sandbox.executed_pages")
            statically_suspicious = any(
                f.severity in ("medium", "high") for f in analysis.static_findings)
            dynamically_active = bool(
                analysis.navigations or analysis.popups or analysis.beacons
                or analysis.document_writes or analysis.fingerprinting_listeners)
            _observe(observer, "staticjs.agreement",
                     agree="true" if statically_suspicious == dynamically_active
                     else "false")

    # which iframes exist only because a script injected them?
    static_frame_srcs = {frame.get("src") for frame in static_frames}

    # ---- iframe heuristics over the post-execution DOM ----
    frames = static_frames if document is static_doc else document.find_all("iframe")
    for frame in frames:
        finding = _classify_iframe(frame)
        if finding is None:
            continue
        finding.injected_by_js = frame.get("src") not in static_frame_srcs
        analysis.hidden_iframes.append(finding)

    # ---- script heuristics ----
    analysis.script_count = len(static_scripts)
    for source in sources:
        if not source.strip():
            continue
        _merge_script_analysis(analysis, source, compile_cache)

    # ---- redirect stub detection ----
    body_text = static_doc.body.text_content().strip() if static_doc.body else ""
    if analysis.navigations and len(body_text) < 200 and not analysis.download_triggers:
        analysis.redirect_stub = True
        analysis.redirect_target = analysis.navigations[0]
    meta_refresh = [
        m for m in metas
        if m.get("http-equiv", "").lower() == "refresh" and "url=" in m.get("content", "").lower()
    ]
    if meta_refresh:
        analysis.redirect_stub = True
        content = meta_refresh[0].get("content", "")
        analysis.redirect_target = content.lower().partition("url=")[2]

    # ---- deceptive download bar signature ----
    lowered = html.lower()
    if ("plug-in" in lowered or "plugin" in lowered) and (
        "download_link" in lowered or "data-dm-href" in lowered
    ):
        analysis.deceptive_download_bar = True
    if any(trigger.lower().split("?")[0].endswith(".exe") for trigger in analysis.navigations):
        analysis.deceptive_download_bar = analysis.deceptive_download_bar or "install" in lowered

    return analysis


def _collect_tags(document: Document) -> Tuple[List[Element], List[Element], List[Element]]:
    """The document's scripts, iframes and metas, each in document order,
    from one walk of the DOM."""
    scripts: List[Element] = []
    iframes: List[Element] = []
    metas: List[Element] = []
    buckets = {"script": scripts, "iframe": iframes, "meta": metas}
    for element in document.iter():
        bucket = buckets.get(element.tag)
        if bucket is not None:
            bucket.append(element)
    return scripts, iframes, metas


def _page_skip_decision(reports: List[ScriptReport]) -> "tuple[bool, List[str]]":
    """Decide whether abstract effect summaries justify skipping the sandbox.

    The per-script summaries were each computed against a *fresh* page, so
    replaying them in sequence is only faithful when no script can observe
    another script's side effects.  Every failed condition appends a
    ``category[:detail]`` blocker (surfaced by ``static-scan
    --explain-skips``); the page may skip only when no condition fails.
    """
    blockers: List[str] = []
    effs: List[AbstractEffects] = []
    for report in reports:
        effects = report.effects
        if effects is None:
            blockers.append("no-effects")
        elif not effects.complete:
            blockers.append("incomplete:%s" % (effects.abort_reason or "unknown"))
        else:
            effs.append(effects)
    if blockers:
        return False, blockers

    # the real page shares one step budget across all scripts and events;
    # staying under a stricter page-wide bound proves no BudgetExceeded
    if sum(e.steps for e in effs) > PAGE_STEP_BUDGET:
        return False, ["step-budget"]

    # cross-script global interference: script j reading a name script i
    # writes would observe i's value, but its summary saw a fresh global
    for i, left in enumerate(effs):
        writes = set(left.global_writes)
        if not writes:
            continue
        for j, right in enumerate(effs):
            if i == j:
                continue
            clash = writes.intersection(right.global_reads)
            if clash:
                blockers.append("global-interference:%s" % sorted(clash)[0])

    # document.cookie is one shared string: a read in one script after a
    # write in another sees state the summary never modelled
    writers = [i for i, e in enumerate(effs) if e.cookie_written]
    readers = [i for i, e in enumerate(effs) if e.cookie_read]
    if any(i != j for i in writers for j in readers):
        blockers.append("cookie-interference")

    # handler slots (document.onX, element.onX) are host-global state;
    # the simulated load/click/mousemove phases fired each script's
    # handlers in isolation, so firing order and slot overwrites must be
    # provably the same on the composed page
    events: set = set()
    for e in effs:
        events.update(e.doc_handler_events)
        events.update(e.doc_handler_reads)
        events.update(e.element_handler_events)
        events.update(e.element_handler_reads)
        events.update(e.opaque_element_handler_events)
    for event in sorted(events):
        doc_owners = [i for i, e in enumerate(effs)
                      if event in e.doc_handler_events]
        doc_readers = [i for i, e in enumerate(effs)
                       if event in e.doc_handler_reads]
        elem_owners = [i for i, e in enumerate(effs)
                       if event in e.element_handler_events]
        elem_readers = [i for i, e in enumerate(effs)
                        if event in e.element_handler_reads]
        opaque_owners = [i for i, e in enumerate(effs)
                         if event in e.opaque_element_handler_events]
        # reading document.onX sees whichever script wrote the slot last
        if any(any(i != j for i in doc_owners) for j in doc_readers):
            blockers.append("doc-handler-read:%s" % event)
        # an opaque wrapper may alias an element another script reads from
        if any(any(i != j for i in opaque_owners) for j in elem_readers):
            blockers.append("opaque-alias-read:%s" % event)
        if event not in EVENT_PHASES:
            continue
        # two document-level handlers: the later write wins on the real
        # page, but both summaries fired their own
        if len(doc_owners) > 1:
            blockers.append("doc-handler-conflict:%s" % event)
        # the real host fires the document handler before every element
        # handler; script-ordered replay only matches when the document
        # owner precedes all element owners
        if doc_owners and elem_owners and min(elem_owners) < doc_owners[0]:
            blockers.append("doc-handler-order:%s" % event)
        # handlers placed through opaque page-node wrappers may share an
        # element with (and silently overwrite) another script's handler
        if opaque_owners and (
            len(opaque_owners) > 1
            or (set(elem_owners) | set(elem_readers)) - {opaque_owners[0]}
        ):
            blockers.append("opaque-handler-conflict:%s" % event)
        # replay concatenates per-script effect buckets in script order,
        # which equals real registration order only when every handler
        # was registered during the script phase (a load handler adding a
        # click handler would fire out of bucket order)
        owners = set(doc_owners) | set(elem_owners)
        if len(owners) > 1 and any(
            phase.name != "script"
            and any(listener_event == event for _t, listener_event in phase.listeners)
            for e in effs for phase in e.phases
        ):
            blockers.append("late-registration:%s" % event)

    return (not blockers, blockers)


def _synthesize_dynamic(analysis: ContentAnalysis, html: str,
                        static_doc: Document,
                        static_scripts: List[Element],
                        sources: List[str],
                        reports: List[ScriptReport],
                        observer: Optional[object]) -> Document:
    """Replay complete abstract effect summaries in page order.

    Reconstructs exactly what :func:`run_script_in_page` would have
    produced — the behaviour log fields and the post-execution document
    the iframe scan walks — from the per-script
    :class:`~repro.staticjs.absint.AbstractEffects`.  Only callable when
    :func:`_page_skip_decision` approved the page.  The post-execution
    document is ``static_doc`` itself unless a replayed
    ``document.write`` attaches markup; only then is the page parsed
    again, into a fresh tree that receives the fragments.
    """
    log = BehaviorLog()

    # phase replay order mirrors the sandbox: each script's script phase
    # in document order, then each simulated event across all scripts
    phase_order = []
    for report in reports:
        entry = report.effects.phase("script")
        if entry is not None:
            phase_order.append(entry)
    for event in EVENT_PHASES:
        for report in reports:
            entry = report.effects.phase(event)
            if entry is not None:
                phase_order.append(entry)

    document = static_doc
    if any(attached for entry in phase_order for _markup, attached in entry.document_writes):
        document = parse(html, observer=observer)
    body = document.body
    write_target = body if body is not None else document

    for entry in phase_order:
        log.navigations.extend(entry.navigations)
        log.popups.extend(entry.popups)
        log.beacons.extend(entry.beacons)
        log.listeners.extend(entry.listeners)
        log.cookies_set.extend(entry.cookies_set)
        log.created_elements.extend(entry.created_elements)
        log.appended_elements.extend(entry.appended_elements)
        log.errors.extend(entry.errors)
        log.timeouts_scheduled += entry.timeouts_scheduled
        for markup, attached in entry.document_writes:
            log.document_writes.append(markup)
            if attached:
                # document.write appends the parsed fragment to <body>
                fragment = parse_fragment(markup, observer=observer)
                for child in list(fragment.children):
                    write_target.append(child)

    # remote script requests interleave src tags with each inline
    # script's own requests during the page-load loop, then append
    # event-phase requests in firing order
    remote: List[str] = []
    inline_reports = iter(reports)
    for script, source in zip(static_scripts, sources):
        if script.get("src"):
            remote.append(script.get("src"))
            continue
        if not source.strip():
            continue
        entry = next(inline_reports).effects.phase("script")
        if entry is not None:
            remote.extend(entry.requested_scripts)
    for event in EVENT_PHASES:
        for report in reports:
            entry = report.effects.phase(event)
            if entry is not None:
                remote.extend(entry.requested_scripts)

    analysis.navigations = list(log.navigations)
    analysis.popups = list(log.popups)
    analysis.download_triggers = list(log.download_triggers)
    analysis.beacons = list(log.beacons)
    analysis.fingerprinting_listeners = len(log.fingerprinting_events)
    analysis.document_writes = len(log.document_writes)
    analysis.analysis_errors = list(log.errors)
    analysis.remote_scripts = remote
    return document


def analyze_swf(content: bytes) -> ContentAnalysis:
    """Decompile SWF bytes and extract indicators."""
    analysis = ContentAnalysis(kind="flash")
    try:
        decompiled = decompile(SwfFile.from_bytes(content))
    except SwfError as exc:
        analysis.analysis_errors.append(str(exc))
        return analysis
    analysis.external_interface_calls = [name for name, _arg in decompiled.external_calls]
    analysis.flash_invisible_overlay = decompiled.transparent_overlay
    analysis.flash_allows_any_domain = decompiled.allows_any_domain
    analysis.navigations = list(decompiled.navigations)
    return analysis


def analyze_pdf(content: bytes, observer: Optional[object] = None,
                compile_cache: Optional[object] = None) -> ContentAnalysis:
    """Inspect a PDF: malformed structure and embedded JavaScript.

    Quttera-style heuristics (Section III-B lists "malformed PDFs"):
    an ``/OpenAction`` driving ``/JS`` is auto-execution; a broken or
    truncated xref on top of that is the exploit-delivery signature.
    """
    import re as _re

    analysis = ContentAnalysis(kind="pdf")
    text = content.decode("latin-1", errors="replace")

    malformed = not text.rstrip().endswith("%%EOF")
    # verify the xref offsets actually point at objects
    xref_match = _re.search(r"xref\n0 (\d+)\n", text)
    if xref_match:
        entries = _re.findall(r"(\d{10}) \d{5} n", text)
        for raw_offset in entries:
            offset = int(raw_offset)
            if offset >= len(content) or not _re.match(
                r"\d+ 0 obj", text[offset:offset + 20]
            ):
                malformed = True
                break
    else:
        malformed = True
    analysis.pdf_malformed = malformed

    js_blobs = _re.findall(r"/JS\s*\(((?:[^()\\]|\\.)*)\)", text)
    has_open_action = "/OpenAction" in text
    for blob in js_blobs:
        source = blob.replace("\\(", "(").replace("\\)", ")").replace("\\\\", "\\")
        analysis.pdf_embedded_js = True
        _merge_script_analysis(analysis, source, compile_cache)
        # run the auto-executed script in the sandbox
        page = "<html><body><script>%s</script></body></html>" % source
        with _frame(observer, "sandbox"):
            host = run_script_in_page(page, step_budget=100_000,
                                      observer=observer,
                                      compile_cache=compile_cache)
        analysis.navigations.extend(host.log.navigations)
        analysis.download_triggers.extend(host.log.download_triggers)
        analysis.popups.extend(host.log.popups)
    analysis.pdf_auto_executes = has_open_action and bool(js_blobs)
    return analysis


def _analyze_standalone_js(source: str, url: str,
                           observer: Optional[object] = None,
                           static_prefilter: bool = True,
                           compile_cache: Optional[object] = None) -> ContentAnalysis:
    """Analyze a bare ``.js`` file by wrapping it in a page."""
    page = "<html><body><script>%s</script></body></html>" % source
    analysis = analyze_html(page, url=url, observer=observer,
                            static_prefilter=static_prefilter,
                            compile_cache=compile_cache)
    analysis.kind = "javascript"
    return analysis


def _merge_script_analysis(analysis: ContentAnalysis, source: str,
                           compile_cache: Optional[Any]) -> None:
    if compile_cache is None:
        signals = _script_signals(source, None)
    else:
        # a pure function of the source: computed once per distinct
        # script and stored on its compile-cache entry
        signals = compile_cache.memo(
            source, "merge", lambda: _script_signals(source, compile_cache))
    layers, obfuscation_score, injection_score, eval_count = signals
    analysis.obfuscation_layers = max(analysis.obfuscation_layers, layers)
    analysis.obfuscation_score = max(analysis.obfuscation_score, obfuscation_score)
    analysis.injection_score = max(analysis.injection_score, injection_score)
    analysis.eval_count += eval_count


def _script_signals(source: str, compile_cache: Optional[Any]) -> Tuple[int, float, float, int]:
    """One script's obfuscation layers (at least 1 when it looks
    obfuscated), and the obfuscation score, injection score and eval
    count of its deobfuscated text's features."""
    deob = deobfuscate(source)
    layers = deob.layers
    if layers == 0 and looks_obfuscated(source):
        layers = 1
    features = extract_features(deob.source, compile_cache=compile_cache)
    return layers, features.obfuscation_score, features.injection_score, features.eval_count


def _classify_iframe(frame: Element) -> Optional[IframeFinding]:
    """Return a finding when the iframe is hidden, else None."""
    width = frame.dimension("width")
    height = frame.dimension("height")
    style = frame.style
    src = frame.get("src")

    hidden_by = ""
    if style.get("visibility") == "hidden" or style.get("display") == "none":
        hidden_by = "visibility"
    elif _ancestor_hidden(frame):
        hidden_by = "visibility"
    elif width is not None and height is not None and width <= 3 and height <= 3:
        hidden_by = "tiny"
        if frame.get("allowtransparency") == "true":
            hidden_by = "transparency"
    elif _offscreen(style):
        hidden_by = "offscreen"
    if not hidden_by:
        return None

    exfiltrates = False
    parsed = Url.try_parse(src)
    if parsed is not None:
        params = parsed.query_dict
        exfiltrates = any(len(v) >= 8 for v in params.values()) and len(params) >= 2
    finding = IframeFinding(
        src=src, width=width, height=height, hidden_by=hidden_by, exfiltrates_query=exfiltrates
    )
    finding._frame_host = parsed.host if parsed is not None else ""
    return finding


def _ancestor_hidden(frame: Element) -> bool:
    for ancestor in frame.ancestors:
        style = ancestor.style
        if style.get("display") == "none" or style.get("visibility") == "hidden":
            return True
    return False


def _offscreen(style: dict) -> bool:
    top = style.get("top", "")
    left = style.get("left", "")
    if style.get("position") == "absolute":
        for value in (top, left):
            cleaned = value.replace("px", "").strip()
            try:
                if float(cleaned) <= -50:
                    return True
            except ValueError:
                continue
    return False
