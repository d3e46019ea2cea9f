"""Intraprocedural control-flow graph with constant-aware reachability.

Cloaked malware guards its payload behind predicates that are false in
the analysis environment (``if (false)``, ``if (0 == 1)``,
``if (debug)`` with ``debug = false`` above) so that a dynamic run in a
honeyclient never executes it.  A CFG whose branch edges are pruned by
constant folding makes those branches *statically visible*: any basic
block that is unreachable from the entry — but contains a dangerous
sink — is a cloaking signal, exactly the case where static analysis
beats the sandbox.

:func:`build_cfg` lowers a statement list to :class:`BasicBlock`s,
threading ``break``/``continue`` through a loop stack and pruning
``If``/``While``/``Conditional``-style edges whose test folds to a
constant.  :meth:`Cfg.unreachable_statements` returns the statements
cloaked this way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Union

from ..jsengine import nodes as N
from ..jsengine.values import to_boolean
from .dataflow import UNKNOWN, fold, to_js

__all__ = ["BasicBlock", "Cfg", "build_cfg"]


@dataclass
class BasicBlock:
    """A straight-line run of statements with outgoing edges."""

    index: int
    statements: List[N.Node] = field(default_factory=list)
    successors: List[int] = field(default_factory=list)
    #: edges removed because a guarding test folded to a constant
    pruned_successors: List[int] = field(default_factory=list)

    def link(self, target: "BasicBlock", pruned: bool = False) -> None:
        bucket = self.pruned_successors if pruned else self.successors
        if target.index not in bucket:
            bucket.append(target.index)


@dataclass
class Cfg:
    """The graph plus entry/exit bookkeeping."""

    blocks: List[BasicBlock] = field(default_factory=list)
    entry: int = 0
    exit: int = 0
    #: True when at least one branch edge was pruned by constant folding
    constant_pruned: bool = False
    #: block indices that head a loop (back-edge targets) — the widening
    #: anchors for the abstract interpreter (repro.staticjs.absint)
    loop_heads: List[int] = field(default_factory=list)
    #: id(loop AST node) -> head block index, so a tree-walking analysis
    #: can find the CFG anchor for the loop it is about to enter
    loop_head_of: Dict[int, int] = field(default_factory=dict)

    def block(self, index: int) -> BasicBlock:
        return self.blocks[index]

    def reachable(self) -> Set[int]:
        """Block indices reachable from the entry over live edges."""
        seen: Set[int] = set()
        stack = [self.entry]
        while stack:
            index = stack.pop()
            if index in seen:
                continue
            seen.add(index)
            stack.extend(self.blocks[index].successors)
        return seen

    def unreachable_statements(self) -> List[N.Node]:
        """Statements sitting in blocks the entry can never reach."""
        live = self.reachable()
        out: List[N.Node] = []
        for block in self.blocks:
            if block.index not in live:
                out.extend(block.statements)
        return out


class _Builder:
    def __init__(self, env: Optional[Dict[str, Any]] = None) -> None:
        self.env = env or {}
        self.cfg = Cfg()
        # (break_target, continue_target) per enclosing loop/switch
        self.loop_stack: List[tuple] = []

    def new_block(self) -> BasicBlock:
        block = BasicBlock(index=len(self.cfg.blocks))
        self.cfg.blocks.append(block)
        return block

    def fold_test(self, test: Optional[N.Node]) -> Any:
        if test is None:
            return True  # for(;;) — an absent test is truthy
        value = fold(test, self.env)
        if value is UNKNOWN:
            return UNKNOWN
        return to_boolean(to_js(value))

    # ------------------------------------------------------------------
    def build(self, statements: Sequence[N.Node]) -> Cfg:
        entry = self.new_block()
        self.cfg.entry = entry.index
        last = self.lower_list(statements, entry)
        exit_block = self.new_block()
        self.cfg.exit = exit_block.index
        if last is not None:
            last.link(exit_block)
        return self.cfg

    def lower_list(self, statements: Sequence[N.Node],
                   current: Optional[BasicBlock]) -> Optional[BasicBlock]:
        for statement in statements:
            current = self.lower(statement, current)
        return current

    def lower(self, node: N.Node,
              current: Optional[BasicBlock]) -> Optional[BasicBlock]:
        """Lower one statement; returns the fall-through block (or None
        when control never falls through, e.g. after ``return``)."""
        if current is None:
            # dead code after a terminator: give it its own island block
            current = self.new_block()
        if isinstance(node, N.Block):
            return self.lower_list(node.body, current)
        if isinstance(node, N.If):
            return self.lower_if(node, current)
        if isinstance(node, (N.While, N.DoWhile)):
            return self.lower_while(node, current)
        if isinstance(node, N.For):
            return self.lower_for(node, current)
        if isinstance(node, N.ForIn):
            return self.lower_forin(node, current)
        if isinstance(node, N.Switch):
            return self.lower_switch(node, current)
        if isinstance(node, N.Try):
            return self.lower_try(node, current)
        if isinstance(node, (N.Return, N.Throw)):
            current.statements.append(node)
            return None
        if isinstance(node, N.Break):
            current.statements.append(node)
            if self.loop_stack:
                current.link(self.loop_stack[-1][0])
            return None
        if isinstance(node, N.Continue):
            current.statements.append(node)
            for break_target, continue_target in reversed(self.loop_stack):
                if continue_target is not None:
                    current.link(continue_target)
                    break
            return None
        # plain statement (expression, var, function decl, empty)
        current.statements.append(node)
        return current

    def lower_if(self, node: N.If, current: BasicBlock) -> Optional[BasicBlock]:
        current.statements.append(node.test)
        decided = self.fold_test(node.test)
        join = self.new_block()

        then_block = self.new_block()
        then_pruned = decided is not UNKNOWN and not decided
        current.link(then_block, pruned=then_pruned)
        then_end = self.lower(node.consequent, then_block)
        if then_end is not None:
            then_end.link(join)

        else_pruned = decided is not UNKNOWN and bool(decided)
        if node.alternate is not None:
            else_block = self.new_block()
            current.link(else_block, pruned=else_pruned)
            else_end = self.lower(node.alternate, else_block)
            if else_end is not None:
                else_end.link(join)
        elif not else_pruned:
            current.link(join)
        if then_pruned or (else_pruned and node.alternate is not None):
            self.cfg.constant_pruned = True
        return join

    def mark_loop_head(self, node: N.Node, head: BasicBlock) -> None:
        self.cfg.loop_heads.append(head.index)
        self.cfg.loop_head_of[id(node)] = head.index

    def lower_while(self, node: "Union[N.While, N.DoWhile]",
                    current: BasicBlock) -> Optional[BasicBlock]:
        head = self.new_block()
        self.mark_loop_head(node, head)
        current.link(head)
        head.statements.append(node.test)
        decided = self.fold_test(node.test)
        after = self.new_block()

        body_block = self.new_block()
        is_do = isinstance(node, N.DoWhile)
        body_pruned = decided is not UNKNOWN and not decided and not is_do
        head.link(body_block, pruned=body_pruned)
        if body_pruned:
            self.cfg.constant_pruned = True
        exit_pruned = decided is not UNKNOWN and bool(decided)
        head.link(after, pruned=exit_pruned)

        self.loop_stack.append((after, head))
        body_end = self.lower(node.body, body_block)
        self.loop_stack.pop()
        if body_end is not None:
            body_end.link(head)
        return after

    def lower_for(self, node: N.For, current: BasicBlock) -> Optional[BasicBlock]:
        if node.init is not None:
            current.statements.append(node.init)
        head = self.new_block()
        self.mark_loop_head(node, head)
        current.link(head)
        if node.test is not None:
            head.statements.append(node.test)
        decided = self.fold_test(node.test)
        after = self.new_block()

        body_block = self.new_block()
        body_pruned = decided is not UNKNOWN and not decided
        head.link(body_block, pruned=body_pruned)
        if body_pruned:
            self.cfg.constant_pruned = True
        exit_pruned = decided is not UNKNOWN and bool(decided)
        head.link(after, pruned=exit_pruned)

        update_block = self.new_block()
        if node.update is not None:
            update_block.statements.append(node.update)
        update_block.link(head)

        self.loop_stack.append((after, update_block))
        body_end = self.lower(node.body, body_block)
        self.loop_stack.pop()
        if body_end is not None:
            body_end.link(update_block)
        return after

    def lower_forin(self, node: N.ForIn, current: BasicBlock) -> Optional[BasicBlock]:
        head = self.new_block()
        self.mark_loop_head(node, head)
        current.statements.append(node.obj)
        current.link(head)
        after = self.new_block()
        body_block = self.new_block()
        head.link(body_block)
        head.link(after)  # an empty object skips the body — never pruned
        self.loop_stack.append((after, head))
        body_end = self.lower(node.body, body_block)
        self.loop_stack.pop()
        if body_end is not None:
            body_end.link(head)
        return after

    def lower_switch(self, node: N.Switch, current: BasicBlock) -> Optional[BasicBlock]:
        current.statements.append(node.discriminant)
        after = self.new_block()
        self.loop_stack.append((after, None))
        previous_end: Optional[BasicBlock] = None
        for case in node.cases:
            case_block = self.new_block()
            current.link(case_block)
            if previous_end is not None:
                previous_end.link(case_block)  # fall-through
            previous_end = self.lower_list(case.body, case_block)
        self.loop_stack.pop()
        if previous_end is not None:
            previous_end.link(after)
        current.link(after)  # no case matched
        return after

    def lower_try(self, node: N.Try, current: BasicBlock) -> Optional[BasicBlock]:
        try_block = self.new_block()
        current.link(try_block)
        try_end = self.lower(node.block, try_block)
        join = self.new_block()
        if try_end is not None:
            try_end.link(join)
        if node.catch_block is not None:
            catch_block = self.new_block()
            # any statement in the try may throw — approximate with an
            # edge from the try entry
            try_block.link(catch_block)
            catch_end = self.lower(node.catch_block, catch_block)
            if catch_end is not None:
                catch_end.link(join)
        if node.finally_block is not None:
            return self.lower(node.finally_block, join)
        return join


def build_cfg(statements: Sequence[N.Node],
              env: Optional[Dict[str, Any]] = None) -> Cfg:
    """Build the CFG for a statement list.

    ``env`` is a constant environment (from
    :func:`repro.staticjs.dataflow.propagate`) used to fold branch
    tests; pass ``None`` for purely syntactic reachability.
    """
    return _Builder(env).build(statements)
