"""Constant folding and string propagation over the jsengine AST.

The de-obfuscation layer in :mod:`repro.jsengine.deobfuscate` peels
literal-level packing with regexes; this module does the same job
*semantically*, on the parsed AST, which lets it resolve idioms the
regex peeler misses: single-assignment variables flowing into sinks,
``String.fromCharCode`` with folded arithmetic arguments, array
``join``/``reverse`` chains, and IIFE parameter binding (the Google
Analytics bootstrap pattern ``(function(a,b){...})('literal', ...)``).

The public entry point is :func:`propagate`, which returns a
:class:`Resolution`: the constant environment plus every statically
resolved string that reaches an ``eval``-like sink, a
``document.write`` sink, or a URL-bearing assignment (``.src``,
``.href``, ``location``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..jsengine import nodes as N
from ..jsengine.astindex import AstIndex
from ..jsengine.deobfuscate import PURE_DECODERS
from ..jsengine.interpreter import BudgetExceeded, evaluate_binary, evaluate_unary
from ..jsengine.values import UNDEFINED, JSArray, JSException, to_boolean, to_number, to_string

__all__ = ["UNKNOWN", "Resolution", "ResolvedString", "fold", "propagate", "callee_path", "to_js"]


class _Unknown:
    """Sentinel: the expression does not fold to a compile-time constant."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "UNKNOWN"

    def __bool__(self) -> bool:
        return False


UNKNOWN = _Unknown()

#: folding is bounded so adversarial inputs cannot blow up memory
_MAX_FOLDED_STRING = 1 << 20
_MAX_FOLD_DEPTH = 200


@dataclass
class ResolvedString:
    """One statically recovered string reaching an interesting site."""

    value: str
    sink: str  # "eval" | "write" | "url" | "timer"
    detail: str = ""  # e.g. the member path assigned, or callee name


@dataclass
class Resolution:
    """Everything constant propagation recovered from one script."""

    constants: Dict[str, Any] = field(default_factory=dict)
    eval_payloads: List[ResolvedString] = field(default_factory=list)
    write_payloads: List[ResolvedString] = field(default_factory=list)
    url_strings: List[ResolvedString] = field(default_factory=list)

    @property
    def resolved(self) -> List[ResolvedString]:
        return self.eval_payloads + self.write_payloads + self.url_strings


def callee_path(node: N.Node) -> str:
    """Dotted path of a callee/member chain (``''`` when not static)."""
    # iterative: a member chain (a.b.c...) may be thousands of links long
    props: List[str] = []
    while isinstance(node, N.Member) and isinstance(node.prop, N.StringLiteral):
        props.append(node.prop.value)
        node = node.obj
    if isinstance(node, N.Identifier):
        path = node.name
    elif isinstance(node, N.ThisExpr):
        path = "this"
    else:
        path = ""
    for prop in reversed(props):
        path = (path + "." if path else "") + prop
    return path


def to_js(value: Any) -> Any:
    """A folded value as the sandbox sees it.

    Folded arrays are Python lists; every other folded value already is
    a sandbox value.  Operators and coercions run on the sandbox's own
    functions, so each call into them converts its operands here.
    """
    if isinstance(value, list):
        return JSArray([to_js(item) for item in value])
    return value


def _binary(operator: str, left: Any, right: Any) -> Any:
    """``left <operator> right`` with the sandbox's semantics."""
    js_left = to_js(left)
    # the same folded array on both sides is one JS object (a === a)
    js_right = js_left if right is left else to_js(right)
    try:
        return evaluate_binary(operator, js_left, js_right, _MAX_FOLDED_STRING)
    except (BudgetExceeded, JSException):
        return UNKNOWN


def fold(node: Optional[N.Node], env: Optional[Dict[str, Any]] = None,
         _depth: int = 0) -> Any:
    """Fold ``node`` to a Python constant, or :data:`UNKNOWN`.

    Strings fold to ``str``, numbers to ``float``, booleans to ``bool``,
    ``null`` to ``None``, and all-constant array literals to ``list``.
    Operators and coercions are the sandbox's
    (:func:`repro.jsengine.interpreter.evaluate_binary` and
    :mod:`repro.jsengine.values`), so a folded value is the value the
    sandbox would compute.
    """
    if env is None:
        env = {}
    if node is None or _depth > _MAX_FOLD_DEPTH:
        return UNKNOWN
    if isinstance(node, N.StringLiteral):
        return node.value
    if isinstance(node, N.NumberLiteral):
        return float(node.value)
    if isinstance(node, N.BooleanLiteral):
        return node.value
    if isinstance(node, N.NullLiteral):
        return None
    if isinstance(node, N.Identifier):
        return env.get(node.name, UNKNOWN)
    if isinstance(node, N.ArrayLiteral):
        items = [fold(el, env, _depth + 1) for el in node.elements]
        if any(item is UNKNOWN for item in items):
            return UNKNOWN
        return items
    if isinstance(node, N.Binary):
        return _fold_binary(node, env, _depth)
    if isinstance(node, N.Logical):
        left = fold(node.left, env, _depth + 1)
        if left is UNKNOWN:
            return UNKNOWN
        if node.operator == "&&":
            return fold(node.right, env, _depth + 1) if to_boolean(to_js(left)) else left
        return left if to_boolean(to_js(left)) else fold(node.right, env, _depth + 1)
    if isinstance(node, N.Unary):
        return _fold_unary(node, env, _depth)
    if isinstance(node, N.Conditional):
        test = fold(node.test, env, _depth + 1)
        if test is UNKNOWN:
            return UNKNOWN
        branch = node.consequent if to_boolean(to_js(test)) else node.alternate
        return fold(branch, env, _depth + 1)
    if isinstance(node, N.Sequence):
        return fold(node.expressions[-1], env, _depth + 1) if node.expressions else UNKNOWN
    if isinstance(node, N.Member):
        return _fold_member(node, env, _depth)
    if isinstance(node, N.Call):
        return _fold_call(node, env, _depth)
    return UNKNOWN


def _fold_binary(node: N.Binary, env: Dict[str, Any], depth: int) -> Any:
    if node.operator != "+":
        left = fold(node.left, env, depth + 1)
        if left is UNKNOWN:
            return UNKNOWN
        right = fold(node.right, env, depth + 1)
        if right is UNKNOWN:
            return UNKNOWN
        return _binary(node.operator, left, right)
    # '+' chains parse left-deep; collect the left spine iteratively so a
    # thousand-piece concatenation cannot exhaust the Python stack, then
    # add left to right as the sandbox does (a parenthesised right
    # operand is its own sum)
    operands: List[N.Node] = []
    current: N.Node = node
    while isinstance(current, N.Binary) and current.operator == "+":
        operands.append(current.right)
        current = current.left
    operands.append(current)
    operands.reverse()
    values = [fold(op, env, depth + 1) for op in operands]
    if any(v is UNKNOWN for v in values):
        return UNKNOWN
    total = values[0]
    for value in values[1:]:
        total = _binary("+", total, value)
        if total is UNKNOWN:
            return UNKNOWN
    return total


def _fold_unary(node: N.Unary, env: Dict[str, Any], depth: int) -> Any:
    value = fold(node.argument, env, depth + 1)
    if value is UNKNOWN:
        return UNKNOWN
    try:
        result = evaluate_unary(node.operator, to_js(value))
    except JSException:  # delete: not a value operator
        return UNKNOWN
    # void: undefined is outside the folded domain
    return UNKNOWN if result is UNDEFINED else result


def _fold_member(node: N.Member, env: Dict[str, Any], depth: int) -> Any:
    obj = fold(node.obj, env, depth + 1)
    if obj is UNKNOWN:
        return UNKNOWN
    prop = fold(node.prop, env, depth + 1) if node.computed else (
        node.prop.value if isinstance(node.prop, N.StringLiteral) else UNKNOWN
    )
    if prop is UNKNOWN:
        return UNKNOWN
    if prop == "length" and isinstance(obj, (str, list)):
        return float(len(obj))
    if isinstance(obj, (str, list)) and isinstance(prop, float) and prop.is_integer():
        index = int(prop)
        if 0 <= index < len(obj):
            return obj[index]
    return UNKNOWN


#: string/array methods the folder evaluates on constant receivers
def _fold_call(node: N.Call, env: Dict[str, Any], depth: int) -> Any:
    path = callee_path(node.callee)
    args = [fold(a, env, depth + 1) for a in node.arguments]
    js_args = [to_js(a) for a in args]

    if path == "String.fromCharCode":
        if any(a is UNKNOWN for a in args):
            return UNKNOWN
        try:
            return "".join(chr(int(to_number(a)) & 0xFFFF) for a in js_args)
        except (ValueError, OverflowError):
            return UNKNOWN
    if path in ("unescape", "window.unescape", "decodeURIComponent", "decodeURI",
                "atob", "window.atob"):
        if len(args) == 1 and isinstance(args[0], str):
            decoded = PURE_DECODERS[path.rpartition(".")[2]](args[0])
            return decoded if decoded is not None else UNKNOWN
        return UNKNOWN
    if path == "parseInt" and args and isinstance(args[0], (str, float)):
        try:
            base_val = int(to_number(js_args[1])) if len(args) > 1 and args[1] is not UNKNOWN else 10
            return float(int(to_string(args[0]).strip(), base_val or 10))
        except (ValueError, OverflowError):
            return UNKNOWN
    if path == "String" and len(args) == 1 and args[0] is not UNKNOWN:
        return to_string(js_args[0])
    if path == "Number" and len(args) == 1 and args[0] is not UNKNOWN:
        return to_number(js_args[0])

    # method call on a foldable receiver: 'abc'.split('') etc.
    if isinstance(node.callee, N.Member) and isinstance(node.callee.prop, N.StringLiteral):
        receiver = fold(node.callee.obj, env, depth + 1)
        if receiver is not UNKNOWN:
            return _fold_method(receiver, node.callee.prop.value, args)
    return UNKNOWN


def _fold_method(receiver: Any, method: str, args: List[Any]) -> Any:
    if any(a is UNKNOWN for a in args):
        return UNKNOWN
    js_args = [to_js(a) for a in args]
    if isinstance(receiver, str):
        if method == "split":
            if not args:
                return UNKNOWN
            sep = to_string(js_args[0])
            return list(receiver) if sep == "" else receiver.split(sep)
        if method in ("charAt",):
            index = int(to_number(js_args[0])) if args else 0
            return receiver[index] if 0 <= index < len(receiver) else ""
        if method == "charCodeAt":
            index = int(to_number(js_args[0])) if args else 0
            return float(ord(receiver[index])) if 0 <= index < len(receiver) else float("nan")
        if method in ("substring", "slice", "substr"):
            start = int(to_number(js_args[0])) if args else 0
            if method == "substr":
                length = int(to_number(js_args[1])) if len(args) > 1 else len(receiver)
                start = max(0, start if start >= 0 else len(receiver) + start)
                return receiver[start:start + max(0, length)]
            end = int(to_number(js_args[1])) if len(args) > 1 else len(receiver)
            if method == "slice":
                return receiver[slice(start, end)] if start >= 0 or end >= 0 else receiver[start:end]
            start, end = max(0, min(start, end)), max(0, max(start, end))
            return receiver[start:end]
        if method == "toLowerCase":
            return receiver.lower()
        if method == "toUpperCase":
            return receiver.upper()
        if method == "trim":
            return receiver.strip()
        if method == "concat":
            return receiver + "".join(to_string(a) for a in js_args)
        if method == "indexOf":
            return float(receiver.find(to_string(js_args[0]))) if args else -1.0
        if method == "replace" and len(args) >= 2 and isinstance(args[0], str):
            return receiver.replace(args[0], to_string(js_args[1]), 1)
        if method == "toString":
            return receiver
    if isinstance(receiver, list):
        if method == "join":
            sep = to_string(js_args[0]) if args else ","
            out = sep.join(to_string(to_js(v)) for v in receiver)
            return out if len(out) <= _MAX_FOLDED_STRING else UNKNOWN
        if method == "reverse":
            return list(reversed(receiver))
        if method == "slice":
            start = int(to_number(js_args[0])) if args else 0
            end = int(to_number(js_args[1])) if len(args) > 1 else len(receiver)
            return receiver[start:end]
        if method == "concat":
            out = list(receiver)
            for a in args:
                out.extend(a if isinstance(a, list) else [a])
            return out
    if isinstance(receiver, float):
        if method == "toString":
            base_val = int(to_number(js_args[0])) if args else 10
            if base_val == 10:
                return to_string(receiver)
            try:
                value = int(receiver)
            except (ValueError, OverflowError):
                return UNKNOWN
            digits = "0123456789abcdefghijklmnopqrstuvwxyz"
            if not 2 <= base_val <= 36:
                return UNKNOWN
            if value == 0:
                return "0"
            sign, value = ("-", -value) if value < 0 else ("", value)
            out: List[str] = []
            while value:
                value, rem = divmod(value, base_val)
                out.append(digits[rem])
            return sign + "".join(reversed(out))
    return UNKNOWN


# ---------------------------------------------------------------------------
# Whole-script propagation
# ---------------------------------------------------------------------------

def _facts(nodes: Sequence[N.Node]) -> Tuple[Dict[str, int], List[Tuple[str, N.Node]],
                                              List[N.Node]]:
    """One preorder pass: how many times each name is written anywhere
    in the script, the (name, rhs) pairs from declarations, assignments
    and IIFE bindings, and the call, assignment and ``new`` sites."""
    writes: Dict[str, int] = {}
    initializers: List[Tuple[str, N.Node]] = []
    sites: List[N.Node] = []

    def bump(name: str, by: int = 1) -> None:
        writes[name] = writes.get(name, 0) + by

    for node in nodes:
        if node.__class__ not in _FACT_TYPES:
            continue
        if isinstance(node, N.VarDecl):
            for name, init in node.declarations:
                bump(name)
                if init is not None:
                    initializers.append((name, init))
        elif isinstance(node, N.Assignment):
            sites.append(node)
            if isinstance(node.target, N.Identifier):
                bump(node.target.name)
                if node.operator == "=":
                    initializers.append((node.target.name, node.value))
        elif isinstance(node, N.Call):
            sites.append(node)
            if isinstance(node.callee, N.FunctionExpr):
                # IIFE: bind parameters to their (possibly constant) arguments
                for param, arg in zip(node.callee.params, node.arguments):
                    initializers.append((param, arg))
        elif isinstance(node, N.New):
            sites.append(node)
        elif isinstance(node, N.Update) and isinstance(node.argument, N.Identifier):
            bump(node.argument.name, 2)  # mutation: never a constant
        elif isinstance(node, N.ForIn):
            bump(node.target, 2)
        elif isinstance(node, N.FunctionDecl):
            bump(node.name, 2)  # function values are not folded
            for param in node.params:
                bump(param, 2)
        elif isinstance(node, N.FunctionExpr):
            for param in node.params:
                bump(param)  # may become a constant via IIFE binding
        elif isinstance(node, N.Try) and node.catch_param:
            bump(node.catch_param, 2)
    return writes, initializers, sites


#: the node types :func:`_facts` reads; the rest (most nodes are
#: identifiers, literals and member reads) are skipped with one lookup
_FACT_TYPES = frozenset((N.VarDecl, N.Assignment, N.Call, N.New, N.Update, N.ForIn,
                         N.FunctionDecl, N.FunctionExpr, N.Try))


def propagate(program: N.Node, index: Optional[AstIndex] = None) -> Resolution:
    """Run constant propagation and collect resolved sink strings.

    ``index`` is ``program``'s :class:`~repro.jsengine.astindex.AstIndex`
    when the caller has one; otherwise it is built here.
    """
    resolution = Resolution()
    nodes = (index if index is not None else AstIndex(program)).nodes
    writes, initializers, sites = _facts(nodes)

    env: Dict[str, Any] = {}
    # iterate to a fixed point: chains like a = 'x'; b = a + 'y' need
    # one extra round per dependency level (bounded — each round must
    # resolve at least one new name)
    for _ in range(len(initializers) + 1):
        progress = False
        for name, rhs in initializers:
            if name in env or writes.get(name, 0) != 1:
                continue
            value = fold(rhs, env)
            if value is not UNKNOWN:
                env[name] = value
                progress = True
        if not progress:
            break
    resolution.constants = env

    for node in sites:
        if isinstance(node, N.Call):
            _collect_call(node, env, resolution)
        elif isinstance(node, N.Assignment):
            _collect_assignment(node, env, resolution)
        else:
            path = callee_path(node.callee)
            if path == "Function" and node.arguments:
                value = fold(node.arguments[-1], env)
                if isinstance(value, str):
                    resolution.eval_payloads.append(
                        ResolvedString(value, "eval", detail="new Function"))
    return resolution


_EVAL_CALLEES = ("eval", "window.eval", "execScript", "Function")
_WRITE_CALLEES = ("document.write", "document.writeln", "write", "writeln")
_TIMER_CALLEES = ("setTimeout", "setInterval", "window.setTimeout", "window.setInterval")
_URL_MEMBER_PROPS = ("src", "href", "location", "action", "data")


def _collect_call(node: N.Call, env: Dict[str, Any], resolution: Resolution) -> None:
    path = callee_path(node.callee)
    if not path or not node.arguments:
        return
    if path in _EVAL_CALLEES or path.endswith(".eval"):
        value = fold(node.arguments[0], env)
        if isinstance(value, str):
            resolution.eval_payloads.append(ResolvedString(value, "eval", detail=path))
    elif path in _WRITE_CALLEES or path.endswith(".write") or path.endswith(".writeln"):
        parts = [fold(a, env) for a in node.arguments]
        if all(isinstance(p, str) for p in parts):
            resolution.write_payloads.append(
                ResolvedString("".join(parts), "write", detail=path))
    elif path in _TIMER_CALLEES:
        value = fold(node.arguments[0], env)
        if isinstance(value, str):
            resolution.eval_payloads.append(ResolvedString(value, "timer", detail=path))
    elif path.endswith(".setAttribute") and len(node.arguments) >= 2:
        attr = fold(node.arguments[0], env)
        value = fold(node.arguments[1], env)
        if attr in _URL_MEMBER_PROPS and isinstance(value, str):
            resolution.url_strings.append(ResolvedString(value, "url", detail=str(attr)))
    elif (path.endswith("location.replace") or path.endswith("location.assign")
          or path == "open" or path.endswith("window.open")):
        value = fold(node.arguments[0], env)
        if isinstance(value, str):
            resolution.url_strings.append(ResolvedString(value, "url", detail=path))


def _collect_assignment(node: N.Assignment, env: Dict[str, Any],
                        resolution: Resolution) -> None:
    target = node.target
    if not isinstance(target, N.Member):
        return
    prop = target.prop.value if isinstance(target.prop, N.StringLiteral) else None
    if prop is None or (prop not in _URL_MEMBER_PROPS and prop != "innerHTML"):
        return
    value = fold(node.value, env)
    if not isinstance(value, str):
        return
    if prop == "innerHTML":
        resolution.write_payloads.append(ResolvedString(value, "write", detail="innerHTML"))
    else:
        resolution.url_strings.append(
            ResolvedString(value, "url", detail=callee_path(target) or prop))
