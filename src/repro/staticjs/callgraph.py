"""Call graph over function declarations and expressions.

The abstract interpreter (:mod:`repro.staticjs.absint`) executes calls
directly — its interprocedural precision comes from running callee
bodies in concrete environments — but it needs two facts *before*
execution that only a whole-program view provides:

* which functions can reach themselves (recursion means the concrete
  unrolling strategy may not terminate, so those call sites get a
  strict depth cap), and
* how large the statically resolvable call structure is, for the
  ``staticjs.absint.*`` work accounting.

Call edges are resolved name-based: a :class:`~repro.jsengine.nodes.Call`
whose callee path is a declared function name (or a single-assignment
variable bound to a function expression) produces an edge.  Computed
and host calls are counted as unresolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..jsengine import nodes as N
from ..jsengine.astindex import AstIndex

__all__ = ["CallGraph", "build_call_graph"]

FunctionNode = Union[N.FunctionDecl, N.FunctionExpr]


@dataclass
class CallGraph:
    """Name-resolved call structure of one program."""

    #: function name -> defining node (declarations and named/assigned
    #: function expressions; later bindings win, like sloppy-mode JS)
    functions: Dict[str, FunctionNode] = field(default_factory=dict)
    #: caller name ("<toplevel>" for top-level code) -> callee names
    edges: Dict[str, List[str]] = field(default_factory=dict)
    #: call sites whose callee could not be resolved to a known function
    unresolved_calls: int = 0
    #: names of functions that participate in a call cycle
    recursive: Set[str] = field(default_factory=set)

    @property
    def edge_count(self) -> int:
        return sum(len(callees) for callees in self.edges.values())


def _collect_functions(nodes: Sequence[N.Node]) -> Dict[str, FunctionNode]:
    functions: Dict[str, FunctionNode] = {}
    for node in nodes:
        if isinstance(node, N.FunctionDecl):
            functions[node.name] = node
        elif isinstance(node, N.FunctionExpr) and node.name:
            functions[node.name] = node
        elif isinstance(node, N.VarDecl):
            for name, init in node.declarations:
                if isinstance(init, N.FunctionExpr):
                    functions[name] = init
        elif isinstance(node, N.Assignment):
            if (node.operator == "="
                    and isinstance(node.target, N.Identifier)
                    and isinstance(node.value, N.FunctionExpr)):
                functions[node.target.name] = node.value
    return functions


def _record_calls(owner: str, index: AstIndex,
                  functions: Dict[str, FunctionNode],
                  edges: Dict[str, List[str]]) -> int:
    """Record the program's call edges; returns the unresolved count.

    Code in a function body is attributed to that function when it has
    a resolved name, otherwise to the enclosing owner (an anonymous
    IIFE's calls happen on behalf of its caller); top-level code to
    ``owner``.  Each owner's callees are listed in the order of a
    right-to-left stack walk of the program.
    """
    nodes, end = index.nodes, index.end
    unresolved = 0
    # call position -> (calling owner, callee name)
    calls: Dict[int, Tuple[str, str]] = {}
    # (subtree end, owner) of the enclosing functions
    scopes: List[Tuple[int, str]] = [(len(nodes), owner)]
    for position in range(1, len(nodes)):
        while position >= scopes[-1][0]:
            scopes.pop()
        node = nodes[position]
        if isinstance(node, N.FunctionDecl):
            scopes.append((end[position], node.name))
        elif isinstance(node, N.FunctionExpr):
            inner = node.name if node.name in functions else scopes[-1][1]
            scopes.append((end[position], inner))
        elif isinstance(node, (N.Call, N.New)):
            path = N.callee_path(node.callee)
            root = path.split(".")[0] if path else ""
            if root in functions and "." not in path:
                calls[position] = (scopes[-1][1], root)
            elif path == "" or root not in functions:
                unresolved += 1
    for position in index.stack_order(calls):
        caller, callee = calls[position]
        edges.setdefault(caller, []).append(callee)
    return unresolved


def _find_cycles(edges: Dict[str, List[str]],
                 functions: Dict[str, FunctionNode]) -> Set[str]:
    """Names on some call cycle (including direct self-recursion)."""
    recursive: Set[str] = set()
    for start in functions:
        if start in recursive:
            continue
        # DFS from each function; reaching `start` again closes a cycle
        seen: Set[str] = set()
        stack = list(edges.get(start, []))
        while stack:
            name = stack.pop()
            if name == start:
                recursive.add(start)
                break
            if name in seen:
                continue
            seen.add(name)
            stack.extend(edges.get(name, []))
    return recursive


def build_call_graph(program: N.Program,
                     toplevel_name: str = "<toplevel>",
                     index: Optional[AstIndex] = None) -> CallGraph:
    """Build the name-resolved call graph of ``program``.

    ``index`` is ``program``'s :class:`~repro.jsengine.astindex.AstIndex`
    when the caller has one; otherwise it is built here.
    """
    if index is None:
        index = AstIndex(program)
    functions = _collect_functions(index.nodes)
    edges: Dict[str, List[str]] = {}
    unresolved = _record_calls(toplevel_name, index, functions, edges)
    graph = CallGraph(functions=functions, edges=edges,
                      unresolved_calls=unresolved)
    graph.recursive = _find_cycles(edges, functions)
    return graph


def recursion_limit_for(graph: Optional[CallGraph], default: int = 64,
                        recursive_cap: int = 64) -> int:
    """Call-depth cap the abstract machine should enforce."""
    if graph is not None and graph.recursive:
        return recursive_cap
    return default
