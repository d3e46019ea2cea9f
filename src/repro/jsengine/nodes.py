"""JavaScript AST node types.

Plain dataclasses; the parser builds them, the interpreter walks them,
and the static feature extractor (Zozzle-style, Section II-B) traverses
them for syntax-tree features.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = [
    "Node", "Program", "VarDecl", "FunctionDecl", "Block", "If", "While",
    "DoWhile", "For", "ForIn", "Return", "Break", "Continue", "Throw",
    "Try", "Switch", "SwitchCase", "ExpressionStatement", "EmptyStatement",
    "NumberLiteral", "StringLiteral", "BooleanLiteral", "NullLiteral",
    "UndefinedLiteral", "Identifier", "ThisExpr", "ArrayLiteral",
    "ObjectLiteral", "FunctionExpr", "Unary", "Update", "Binary",
    "Logical", "Conditional", "Assignment", "Call", "New", "Member",
    "Sequence",
]


class Node:
    """Base class for AST nodes."""

    #: the subclass's field names in declaration order.  children() reads
    #: fields by name: on CPython 3.11+ touching ``self.__dict__`` would
    #: materialise (and keep) a real dict on every node it walks
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def children(self) -> List["Node"]:
        """Child nodes, for generic traversal."""
        out: List[Node] = []
        for name in self._fields:
            value = getattr(self, name)
            if isinstance(value, Node):
                out.append(value)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        out.append(item)
                    elif isinstance(item, tuple):
                        # (name, node) pairs in VarDecl / ObjectLiteral
                        out.extend(v for v in item if isinstance(v, Node))
        return out

    def walk(self):
        """Yield this node and all descendants, depth-first pre-order.

        Iterative on an explicit stack: deeply nested obfuscated
        scripts (kilobyte-deep expression chains) must not hit
        Python's recursion limit during static analysis.
        """
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass
class Program(Node):
    body: List[Node]


@dataclass
class VarDecl(Node):
    declarations: List[Tuple[str, Optional[Node]]]


@dataclass
class FunctionDecl(Node):
    name: str
    params: List[str]
    body: List[Node]


@dataclass
class Block(Node):
    body: List[Node]


@dataclass
class If(Node):
    test: Node
    consequent: Node
    alternate: Optional[Node] = None


@dataclass
class While(Node):
    test: Node
    body: Node


@dataclass
class DoWhile(Node):
    body: Node
    test: Node


@dataclass
class For(Node):
    init: Optional[Node]
    test: Optional[Node]
    update: Optional[Node]
    body: Node


@dataclass
class ForIn(Node):
    target: str
    declare: bool
    obj: Node
    body: Node


@dataclass
class Return(Node):
    argument: Optional[Node] = None


@dataclass
class Break(Node):
    pass


@dataclass
class Continue(Node):
    pass


@dataclass
class Throw(Node):
    argument: Node


@dataclass
class Try(Node):
    block: Node
    catch_param: Optional[str] = None
    catch_block: Optional[Node] = None
    finally_block: Optional[Node] = None


@dataclass
class SwitchCase(Node):
    test: Optional[Node]  # None for default
    body: List[Node] = field(default_factory=list)


@dataclass
class Switch(Node):
    discriminant: Node
    cases: List[SwitchCase] = field(default_factory=list)


@dataclass
class ExpressionStatement(Node):
    expression: Node


@dataclass
class EmptyStatement(Node):
    pass


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass
class NumberLiteral(Node):
    value: float


@dataclass
class StringLiteral(Node):
    value: str


@dataclass
class BooleanLiteral(Node):
    value: bool


@dataclass
class NullLiteral(Node):
    pass


@dataclass
class UndefinedLiteral(Node):
    pass


@dataclass
class Identifier(Node):
    name: str


@dataclass
class ThisExpr(Node):
    pass


@dataclass
class ArrayLiteral(Node):
    elements: List[Node]


@dataclass
class ObjectLiteral(Node):
    properties: List[Tuple[str, Node]]


@dataclass
class FunctionExpr(Node):
    name: Optional[str]
    params: List[str]
    body: List[Node]


@dataclass
class Unary(Node):
    operator: str
    argument: Node


@dataclass
class Update(Node):
    operator: str  # "++" or "--"
    argument: Node
    prefix: bool


@dataclass
class Binary(Node):
    operator: str
    left: Node
    right: Node


@dataclass
class Logical(Node):
    operator: str  # "&&" or "||"
    left: Node
    right: Node


@dataclass
class Conditional(Node):
    test: Node
    consequent: Node
    alternate: Node


@dataclass
class Assignment(Node):
    operator: str  # "=", "+=", ...
    target: Node  # Identifier or Member
    value: Node


@dataclass
class Call(Node):
    callee: Node
    arguments: List[Node]


@dataclass
class New(Node):
    callee: Node
    arguments: List[Node]


@dataclass
class Member(Node):
    obj: Node
    prop: Node  # StringLiteral for dot access, arbitrary expr for [..]
    computed: bool


@dataclass
class Sequence(Node):
    expressions: List[Node]
