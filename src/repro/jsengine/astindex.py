"""One preorder index per program: the static consumers' only traversal.

Every static reader of a script — the staticjs rules, constant
propagation, taint tracking, the call graph, the abstract machine's
depth bound and the Zozzle-style feature extractor — needs to visit the
program's nodes, several of them more than once.  :class:`AstIndex`
visits them once, with one iterative :meth:`~repro.jsengine.nodes.Node.children`
pass, and keeps what every consumer needs to iterate without walking:

* ``nodes``, the preorder node tuple (equal to ``list(program.walk())``),
* ``end``, an ``array``: node ``i``'s subtree is ``nodes[i:end[i]]``,
  and its children are ``i + 1``, ``end[i + 1]``, … up to ``end[i]``,
* ``max_depth``, the deepest node's distance from the root.

The end array also reproduces the order of a right-to-left stack walk
(pop a node, push its children left to right), which several consumers'
outputs depend on: :meth:`AstIndex.stack_order`.

The index is immutable.  The pipeline's
:class:`~repro.jsengine.compilecache.CompileCache` stores one on each
entry the first time a static consumer asks (:func:`ast_index`), never
at compile time: the sandbox compiles every script and reads no index.
"""

from __future__ import annotations

from array import array
from typing import Any, Iterable, List, Optional, Tuple

from . import nodes as N

__all__ = ["AstIndex", "ast_index"]


class AstIndex:
    """Preorder nodes, subtree ends and maximum depth of one program."""

    __slots__ = ("nodes", "end", "max_depth")

    nodes: Tuple[N.Node, ...]
    end: "array[int]"
    max_depth: int

    def __init__(self, program: N.Node) -> None:
        nodes: List[N.Node] = []
        end: List[int] = []
        max_depth = 0
        # an int on the stack closes that position's subtree; the ints
        # below a node on the stack are its open ancestors
        stack: List[Any] = [program]
        depth = 0
        while stack:
            item = stack.pop()
            if item.__class__ is int:
                end[item] = len(nodes)
                depth -= 1
                continue
            position = len(nodes)
            nodes.append(item)
            children = item.children()
            if children:
                end.append(0)
                stack.append(position)
                stack.extend(reversed(children))
                depth += 1
                if depth > max_depth:
                    max_depth = depth
            else:
                end.append(position + 1)
        self.nodes = tuple(nodes)
        # two bytes a node for all but the largest programs
        self.end = array("H" if len(nodes) < 1 << 16 else "i", end)
        self.max_depth = max_depth

    def __len__(self) -> int:
        return len(self.nodes)

    def children_of(self, position: int) -> List[int]:
        """The positions of node ``position``'s children, left to right."""
        end = self.end
        out: List[int] = []
        child, stop = position + 1, end[position]
        while child < stop:
            out.append(child)
            child = end[child]
        return out

    def stack_order(self, positions: Iterable[int]) -> List[int]:
        """``positions`` in the order a right-to-left stack walk of their
        common subtree visits them: each node before its descendants,
        later siblings before earlier ones.  That is reverse postorder,
        which sorts by a later subtree end first, then by position."""
        end = self.end
        return sorted(positions, key=lambda position: (-end[position], position))


def ast_index(source: str, program: N.Program, compile_cache: Optional[Any] = None,
              store: bool = True) -> AstIndex:
    """The :class:`AstIndex` of ``program``, the compiled ``source``.

    With the pipeline's ``compile_cache``, the index stored on
    ``source``'s entry is reused, and a new one is stored there when
    ``store`` is set (see :meth:`CompileCache.memo`); a source the cache
    never compiled gets a fresh, unstored index.
    """
    if compile_cache is None:
        return AstIndex(program)
    return compile_cache.memo(source, "index", lambda: AstIndex(program), store=store)
