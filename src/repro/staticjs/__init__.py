"""AST-level static analysis of crawled scripts (the sandbox pre-filter).

Cooperating layers over the :mod:`repro.jsengine` AST:

* :mod:`~repro.staticjs.cfg` — intraprocedural CFG with constant-aware
  reachability (cloaking detection),
* :mod:`~repro.staticjs.dataflow` — constant folding and string
  propagation (payload recovery),
* :mod:`~repro.staticjs.taint` — source→sink taint tracking,
* :mod:`~repro.staticjs.callgraph` / :mod:`~repro.staticjs.domains` /
  :mod:`~repro.staticjs.absint` — the interprocedural abstract
  interpreter producing per-script :class:`AbstractEffects` summaries
  (bounded static deobfuscation, redirect-target resolution, and the
  effect-completeness facts the page-level sandbox skip relies on),
* :mod:`~repro.staticjs.rules` / :mod:`~repro.staticjs.report` — the
  rule engine producing :class:`StaticFinding`\\ s and a per-script
  verdict.

Every layer reads a program through its
:class:`~repro.jsengine.astindex.AstIndex`, built once per distinct
script.  The headline API is :func:`analyze_script`; the detection layer uses
its effect summary alone to decide whether a page may skip dynamic
execution.
"""

from .absint import (
    EVENT_PHASES,
    PAGE_STEP_BUDGET,
    AbstractEffects,
    PhaseEffects,
    interpret_script,
)
from .callgraph import CallGraph, build_call_graph
from .cfg import BasicBlock, Cfg, build_cfg
from .dataflow import UNKNOWN, Resolution, ResolvedString, fold, propagate
from .domains import TOP, AbstractValue, Interval
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
    render_report_markdown,
)
from .rules import analyze_script
from .taint import TaintFlow, find_taint_flows

__all__ = [
    "EVENT_PHASES", "PAGE_STEP_BUDGET", "AbstractEffects", "PhaseEffects",
    "interpret_script",
    "CallGraph", "build_call_graph",
    "BasicBlock", "Cfg", "build_cfg",
    "UNKNOWN", "Resolution", "ResolvedString", "fold", "propagate",
    "TOP", "AbstractValue", "Interval",
    "SEVERITY_HIGH", "SEVERITY_INFO", "SEVERITY_LOW", "SEVERITY_MEDIUM",
    "VERDICT_BENIGN", "VERDICT_MALICIOUS", "VERDICT_NEEDS_DYNAMIC",
    "VERDICT_SUSPICIOUS",
    "ScriptReport", "StaticFinding", "render_report_markdown",
    "analyze_script",
    "TaintFlow", "find_taint_flows",
]
