"""Source-to-sink taint tracking over the jsengine AST.

Drive-by landing pages frequently route attacker-controlled page state
into code or navigation sinks: ``eval(location.hash.slice(1))``,
``document.write('<iframe src="' + document.referrer + ...)``, cookie
exfiltration through ``img.src``.  This module performs a flow-
insensitive-within-expressions, flow-sensitive-across-statements taint
pass: it walks statements in program order, propagates taint through
assignments and string operations, and records every
:class:`TaintFlow` from a recognised source to a recognised sink.

This is intentionally an over-approximation (any use of a tainted name
taints the result); precision comes from the small, high-signal
source/sink sets below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from ..jsengine import nodes as N
from ..jsengine.astindex import AstIndex

__all__ = ["TaintFlow", "TAINT_SOURCES", "TAINT_SINKS", "find_taint_flows"]

#: member paths whose read yields attacker-influenced data
TAINT_SOURCES = (
    "location.search",
    "location.hash",
    "location.href",
    "window.location.search",
    "window.location.hash",
    "window.location.href",
    "document.location.search",
    "document.location.hash",
    "document.location.href",
    "document.cookie",
    "document.referrer",
    "document.URL",
    "window.name",
)

#: call paths that execute, write, or navigate
TAINT_CALL_SINKS = (
    "eval",
    "window.eval",
    "execScript",
    "Function",
    "document.write",
    "document.writeln",
    "setTimeout",
    "setInterval",
)

#: member paths whose assignment executes, writes, or navigates
TAINT_ASSIGN_SINKS = (
    "location",
    "location.href",
    "window.location",
    "window.location.href",
    "document.location",
    "src",
    "href",
    "innerHTML",
    "outerHTML",
)

TAINT_SINKS = TAINT_CALL_SINKS + TAINT_ASSIGN_SINKS

#: the node types :func:`find_taint_flows` acts on
_VISITED = (N.VarDecl, N.Assignment, N.Call)


@dataclass
class TaintFlow:
    """One resolved source→sink path."""

    source: str  # e.g. "location.search"
    sink: str  # e.g. "eval"
    variable: Optional[str] = None  # intermediate name, if any

    def describe(self) -> str:
        via = " via %s" % self.variable if self.variable else ""
        return "%s -> %s%s" % (self.source, self.sink, via)


def _source_of(index: AstIndex, position: int, tainted: dict) -> Optional[str]:
    """The source label if the node at ``position`` reads tainted data,
    else None.  The first source a right-to-left walk of the expression
    meets wins."""
    nodes, end = index.nodes, index.end
    stack = [position]
    while stack:
        position = stack.pop()
        current = nodes[position]
        if isinstance(current, (N.FunctionExpr, N.FunctionDecl)):
            continue  # handled as their own statement scope
        if isinstance(current, N.Identifier) and current.name in tainted:
            return tainted[current.name]
        if isinstance(current, N.Member):
            path = N.callee_path(current)
            if path in TAINT_SOURCES:
                return path
            # location["search"] — computed access on a source object
            if current.computed:
                base = N.callee_path(current.obj)
                if base in ("location", "window.location", "document.location",
                            "document", "window"):
                    stack.append(end[position + 1])  # the property
                    continue
        child, stop = position + 1, end[position]
        while child < stop:
            stack.append(child)
            child = end[child]
    return None


def _sink_path_of_assignment(target: N.Member) -> Optional[str]:
    path = N.callee_path(target)
    if path in TAINT_ASSIGN_SINKS:
        return path
    prop = target.prop.value if isinstance(target.prop, N.StringLiteral) else None
    if prop in TAINT_ASSIGN_SINKS:
        return prop
    return None


def find_taint_flows(program: N.Node, index: Optional[AstIndex] = None) -> List[TaintFlow]:
    """All source→sink flows discoverable by ordered statement walk.

    Statements run in program order; within one, nodes are visited as a
    right-to-left stack walk visits them (a node before its children,
    the last child first), which decides what a nested assignment
    taints before its enclosing expression reads it.  Two passes: the
    first collects variable taint from assignments, the second (over
    the same visit order) reports sinks.  Running the propagation loop
    twice lets taint flow through simple forward *and* backward
    declaration orders without a full fixpoint.

    ``index`` is ``program``'s :class:`~repro.jsengine.astindex.AstIndex`
    when the caller has one; otherwise it is built here.
    """
    if index is None:
        index = AstIndex(program)
    nodes, end = index.nodes, index.end
    tainted: dict = {}
    flows: List[TaintFlow] = []
    seen: Set[tuple] = set()

    def record(source: str, sink: str, variable: Optional[str]) -> None:
        key = (source, sink, variable)
        if key not in seen:
            seen.add(key)
            flows.append(TaintFlow(source=source, sink=sink, variable=variable))

    # the nodes that read or write taint, statement by statement
    statements = index.children_of(0) if isinstance(program, N.Program) else [0]
    visits: List[int] = []
    for statement in statements:
        visits.extend(index.stack_order(
            position for position in range(statement, end[statement])
            if isinstance(nodes[position], _VISITED)))

    for report in (False, True):
        for position in visits:
            current = nodes[position]
            if isinstance(current, N.VarDecl):
                child = position + 1
                for name, init in current.declarations:
                    if init is None:
                        continue
                    source = _source_of(index, child, tainted)
                    if source is not None:
                        tainted[name] = source
                    child = end[child]
            elif isinstance(current, N.Assignment):
                source = _source_of(index, end[position + 1], tainted)  # the value
                if isinstance(current.target, N.Identifier):
                    if source is not None:
                        tainted[current.target.name] = source
                    elif current.operator == "=":
                        tainted.pop(current.target.name, None)
                elif isinstance(current.target, N.Member) and source is not None:
                    sink = _sink_path_of_assignment(current.target)
                    if sink is not None and report:
                        variable = (current.value.name
                                    if isinstance(current.value, N.Identifier) else None)
                        record(source, sink, variable)
            else:
                path = N.callee_path(current.callee)
                if path in TAINT_CALL_SINKS and current.arguments:
                    # the first argument follows the callee
                    source = _source_of(index, end[position + 1], tainted)
                    if source is not None and report:
                        argument = current.arguments[0]
                        variable = (argument.name
                                    if isinstance(argument, N.Identifier) else None)
                        record(source, path, variable)
                # document.body.appendChild(taintedIframe) and friends are
                # covered by the .src assignment that taints the element
    return flows
