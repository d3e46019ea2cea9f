"""Tree-walking JavaScript interpreter.

Executes the AST from :mod:`repro.jsengine.parser` against a host
environment.  The paper executed obfuscated samples "in a virtual
machine environment for behavioral analysis" (Section IV-A1); this
interpreter is that virtual machine: side effects flow through host
objects (see :mod:`repro.jsengine.hostenv`) which record behaviour.

Safety properties:

* a configurable **step budget** bounds runaway or adversarial loops,
* no host filesystem/network access exists unless a host object grants it,
* thrown JS values never escape as Python exceptions other than
  :class:`~repro.jsengine.values.JSException`.

This is the repo's one JS evaluator.  The static pre-filter's abstract
machine (:class:`repro.staticjs.absint.AbstractMachine`) subclasses
:class:`Interpreter` and overrides only its value hooks — branch and
loop tests, member keys, reads and writes, operators, ``throw``,
``for-in``, ``new``, calls, ``eval``, compilation and the step tick —
plus its global :class:`Environment`, so the two cannot drift apart.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List, Optional, Tuple

from . import nodes as N
from .builtins import get_member, make_global_builtins
from .parser import parse
from .values import (
    MAX_STRING_LENGTH,
    UNDEFINED,
    BudgetExceeded,
    JSArray,
    JSException,
    JSFunction,
    JSObject,
    NativeFunction,
    check_string_length,
    loose_equals,
    strict_equals,
    to_boolean,
    to_int32,
    to_number,
    to_string,
    type_of,
)

__all__ = ["Interpreter", "BudgetExceeded", "Environment", "evaluate_binary", "evaluate_unary"]


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: Any) -> None:
        super().__init__()
        self.value = value


#: expression nodes :meth:`Interpreter._eval_chain` walks as one left spine
_CHAIN_LINKS = frozenset({N.Binary, N.Logical, N.Member, N.Call})


class Environment:
    """A lexical scope."""

    __slots__ = ("vars", "parent")

    def __init__(self, parent: Optional["Environment"] = None) -> None:
        self.vars: Dict[str, Any] = {}
        self.parent = parent

    def lookup(self, name: str) -> Any:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.vars:
                return env.vars[name]
            env = env.parent
        raise JSException("ReferenceError: %s is not defined" % name)

    def has(self, name: str) -> bool:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.vars:
                return True
            env = env.parent
        return False

    def find(self, name: str) -> Optional["Environment"]:
        """The scope that binds ``name``, or None."""
        env: Optional[Environment] = self
        while env is not None:
            if name in env.vars:
                return env
            env = env.parent
        return None

    def assign(self, name: str, value: Any) -> None:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.vars:
                env.vars[name] = value
                return
            env = env.parent
        # implicit global, like sloppy-mode JS
        root = self
        while root.parent is not None:
            root = root.parent
        root.vars[name] = value

    def declare(self, name: str, value: Any = UNDEFINED) -> None:
        self.vars[name] = value

    def child(self) -> "Environment":
        """A new scope nested in this one, of this scope's class."""
        return type(self)(self)


class Interpreter:
    """Evaluates parsed programs.

    Parameters
    ----------
    host_globals:
        Extra global bindings (the browser host environment installs
        ``window``, ``document``, etc. here).
    step_budget:
        Maximum number of AST-node evaluations before
        :class:`BudgetExceeded` is raised.
    rng:
        Source of randomness for ``Math.random`` (seeded for
        reproducibility).
    """

    def __init__(
        self,
        host_globals: Optional[Dict[str, Any]] = None,
        step_budget: int = 500_000,
        rng: Optional[random.Random] = None,
        observer: Optional[Any] = None,
        compile_cache: Optional[Any] = None,
    ) -> None:
        self.rng = rng or random.Random(0)
        self.step_budget = step_budget
        #: optional :class:`repro.jsengine.compilecache.CompileCache`;
        #: when set, :meth:`run` and ``eval()`` compile through it
        self.compile_cache = compile_cache
        self.steps = 0
        #: steps already attributed to earlier run_program calls — one
        #: Interpreter runs every script on a page, so per-script
        #: accounting must report deltas, not the cumulative total
        self._steps_reported = 0
        #: optional :class:`repro.obs.RunObserver`: op-count and
        #: eval-nesting gauges for sandbox telemetry (None = no-op)
        self.observer = observer
        #: current and deepest observed eval() nesting (layered
        #: obfuscators eval inside eval; depth is the layer count)
        self.eval_depth = 0
        self.max_eval_depth = 0
        self.global_env = Environment()
        for name, value in make_global_builtins(self).items():
            self.global_env.declare(name, value)
        self.global_env.declare("eval", NativeFunction("eval", self._eval_builtin))
        self.eval_log: List[str] = []  # sources passed to eval(), for analysts
        if host_globals:
            for name, value in host_globals.items():
                self.global_env.declare(name, value)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(self, source: str) -> Any:
        """Parse and execute ``source`` in the global scope."""
        return self.run_program(self._compile(source))

    def _compile(self, source: str) -> N.Program:
        """Compile once per distinct source when a cache is attached."""
        if self.compile_cache is not None:
            return self.compile_cache.compile(source, observer=self.observer)
        return parse(source, observer=self.observer)

    def run_program(self, program: N.Program) -> Any:
        self._hoist(program.body, self.global_env)
        result: Any = UNDEFINED
        try:
            for statement in program.body:
                result = self._exec(statement, self.global_env)
        finally:
            self._report_gauges()
        return result

    def _report_gauges(self) -> None:
        if self.observer is not None:
            script_steps = self.steps - self._steps_reported
            self._steps_reported = self.steps
            self.observer.gauge_max("js.op_count", self.steps)
            self.observer.gauge_max("js.eval_depth", self.max_eval_depth)
            self.observer.count("js.scripts_executed")
            # the per-script step *distribution* (the gauge above only
            # keeps the max), and the same delta as profiler work units
            self.observer.observe("js.op_count", script_steps)
            self.observer.work("js.interp.steps", script_steps)

    def call_function(self, fn: Any, args: List[Any], this: Any = UNDEFINED) -> Any:
        """Invoke a JS or native function from host code."""
        if isinstance(fn, NativeFunction):
            return fn(*args)
        if callable(fn) and not isinstance(fn, JSFunction):
            return fn(*args)
        if isinstance(fn, JSFunction):
            env = fn.env.child()
            for index, param in enumerate(fn.params):
                env.declare(param, args[index] if index < len(args) else UNDEFINED)
            env.declare("arguments", JSArray(list(args)))
            env.declare("this", this)
            self._hoist(fn.body, env)
            try:
                for statement in fn.body:
                    self._exec(statement, env)
            except _Return as ret:
                return ret.value
            return UNDEFINED
        raise JSException("TypeError: %s is not a function" % self._to_string(fn))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.step_budget:
            raise BudgetExceeded("step budget of %d exceeded" % self.step_budget)

    # -- value hooks --------------------------------------------------------
    # Every point where the evaluator inspects a value to pick a path or
    # perform an effect goes through one of these methods, so the
    # abstract machine in :mod:`repro.staticjs.absint` reuses this
    # evaluator and overrides only them.
    #: ToBoolean of an ``if``/``?:``/``&&``/``||`` test or a switch match
    _truthy = staticmethod(to_boolean)
    #: ToString of a computed member key
    _member_key = staticmethod(to_string)
    #: ToString of a value named in a TypeError message
    _to_string = staticmethod(to_string)

    def _loop_test(self, node: N.Node, env: Environment, value: Any, iterations: int) -> bool:
        """ToBoolean of a loop's test (``True`` for a ``for`` without
        one) after ``iterations`` runs of its body."""
        return to_boolean(value)

    def _for_in_keys(self, obj: Any) -> List[str]:
        if isinstance(obj, JSArray):
            return [str(i) for i in range(len(obj.elements))]
        if isinstance(obj, JSObject):
            return obj.keys()
        if hasattr(obj, "js_keys"):
            return list(obj.js_keys())
        return []

    def _thrown(self, value: Any) -> Any:
        """The value a ``throw`` statement raises."""
        return value

    def _get_member(self, obj: Any, prop: str) -> Any:
        return get_member(self, obj, prop)

    def _get_method(self, obj: Any, prop: str) -> Any:
        """``obj[prop]`` read as the callee of a method call."""
        return get_member(self, obj, prop)

    def _set_member(self, obj: Any, prop: str, value: Any) -> None:
        if hasattr(obj, "js_set"):
            obj.js_set(prop, value)

    def _delete_member(self, obj: Any, prop: str) -> None:
        if isinstance(obj, JSObject):
            obj.js_delete(prop)

    def _unary(self, operator: str, value: Any) -> Any:
        return evaluate_unary(operator, value)

    def _increment(self, operator: str, value: Any) -> Tuple[Any, Any]:
        """``value`` as a number, and that number after ``++``/``--``."""
        old = to_number(value)
        return old, (old + 1 if operator == "++" else old - 1)

    def _eval_binary(self, operator: str, left: Any, right: Any) -> Any:
        return evaluate_binary(operator, left, right, MAX_STRING_LENGTH)

    def _construct(self, callee: Any, args: List[Any]) -> Any:
        """``new callee(...args)``."""
        if isinstance(callee, JSFunction):
            instance = JSObject()
            return self._constructed(self.call_function(callee, args, this=instance), instance)
        if callable(callee):
            return self.call_function(callee, args)
        raise JSException("TypeError: %s is not a constructor" % self._to_string(callee))

    def _constructed(self, result: Any, instance: JSObject) -> Any:
        """A constructor's value: its returned object, else ``instance``."""
        return result if isinstance(result, (JSObject, JSArray)) else instance

    def _eval_builtin(self, source: Any = UNDEFINED, *_: Any) -> Any:
        """The ``eval`` global: executes in the global scope and logs the
        source — layered obfuscators call this repeatedly, and each layer
        is captured for the analyst (Section V-D "de-obfuscating the file
        in bits and pieces")."""
        if not isinstance(source, str):
            return source
        self.eval_log.append(source)
        program = self._compile(source)
        self._hoist(program.body, self.global_env)
        result: Any = UNDEFINED
        self.eval_depth += 1
        if self.eval_depth > self.max_eval_depth:
            self.max_eval_depth = self.eval_depth
        try:
            for statement in program.body:
                result = self._exec(statement, self.global_env)
        finally:
            self.eval_depth -= 1
        return result

    def _hoist(self, body: List[N.Node], env: Environment) -> None:
        """Hoist function declarations and var names (to UNDEFINED)."""
        for statement in body:
            if isinstance(statement, N.FunctionDecl):
                env.declare(statement.name, JSFunction(statement.name, statement.params, statement.body, env))
            elif isinstance(statement, N.VarDecl):
                for name, _init in statement.declarations:
                    if name not in env.vars:
                        env.declare(name)
            elif isinstance(statement, (N.If, N.While, N.DoWhile, N.For, N.ForIn, N.Block, N.Try)):
                self._hoist(self._nested_bodies(statement), env)

    def _nested_bodies(self, statement: N.Node) -> List[N.Node]:
        out: List[N.Node] = []
        if isinstance(statement, N.Block):
            out.extend(statement.body)
        elif isinstance(statement, N.If):
            for branch in (statement.consequent, statement.alternate):
                if isinstance(branch, N.Block):
                    out.extend(branch.body)
                elif branch is not None:
                    out.append(branch)
        elif isinstance(statement, (N.While, N.DoWhile, N.For, N.ForIn)):
            body = statement.body
            if isinstance(body, N.Block):
                out.extend(body.body)
            else:
                out.append(body)
        elif isinstance(statement, N.Try):
            for block in (statement.block, statement.catch_block, statement.finally_block):
                if isinstance(block, N.Block):
                    out.extend(block.body)
        return out

    # -- statements -------------------------------------------------------
    def _exec(self, node: N.Node, env: Environment) -> Any:
        self._tick()
        kind = type(node)
        if kind is N.ExpressionStatement:
            return self._eval(node.expression, env)
        if kind is N.VarDecl:
            for name, init in node.declarations:
                value = self._eval(init, env) if init is not None else UNDEFINED
                (env.find(name) or env).declare(name, value)
            return UNDEFINED
        if kind is N.FunctionDecl:
            env.declare(node.name, JSFunction(node.name, node.params, node.body, env))
            return UNDEFINED
        if kind is N.Block:
            result: Any = UNDEFINED
            for statement in node.body:
                result = self._exec(statement, env)
            return result
        if kind is N.If:
            if self._truthy(self._eval(node.test, env)):
                return self._exec(node.consequent, env)
            if node.alternate is not None:
                return self._exec(node.alternate, env)
            return UNDEFINED
        if kind is N.While:
            iterations = 0
            while self._loop_test(node, env, self._eval(node.test, env), iterations):
                iterations += 1
                self._tick()
                try:
                    self._exec(node.body, env)
                except _Break:
                    break
                except _Continue:
                    continue
            return UNDEFINED
        if kind is N.DoWhile:
            iterations = 0
            while True:
                iterations += 1
                self._tick()
                try:
                    self._exec(node.body, env)
                except _Break:
                    break
                except _Continue:
                    pass
                if not self._loop_test(node, env, self._eval(node.test, env), iterations):
                    break
            return UNDEFINED
        if kind is N.For:
            if node.init is not None:
                self._exec(node.init, env) if isinstance(node.init, (N.VarDecl, N.ExpressionStatement)) else self._eval(node.init, env)
            iterations = 0
            while self._loop_test(node, env, True if node.test is None else self._eval(node.test, env), iterations):
                iterations += 1
                self._tick()
                try:
                    self._exec(node.body, env)
                except _Break:
                    break
                except _Continue:
                    pass
                if node.update is not None:
                    self._eval(node.update, env)
            return UNDEFINED
        if kind is N.ForIn:
            keys = self._for_in_keys(self._eval(node.obj, env))
            if node.declare and env.find(node.target) is None:
                env.declare(node.target)
            for key in keys:
                env.assign(node.target, key)
                self._tick()
                try:
                    self._exec(node.body, env)
                except _Break:
                    break
                except _Continue:
                    continue
            return UNDEFINED
        if kind is N.Return:
            value = self._eval(node.argument, env) if node.argument is not None else UNDEFINED
            raise _Return(value)
        if kind is N.Break:
            raise _Break()
        if kind is N.Continue:
            raise _Continue()
        if kind is N.Throw:
            raise JSException(self._thrown(self._eval(node.argument, env)))
        if kind is N.Try:
            try:
                self._exec(node.block, env)
            except JSException as exc:
                if node.catch_block is not None:
                    catch_env = env.child()
                    catch_env.declare(node.catch_param or "e", exc.value)
                    self._exec(node.catch_block, catch_env)
            finally:
                if node.finally_block is not None:
                    self._exec(node.finally_block, env)
            return UNDEFINED
        if kind is N.Switch:
            discriminant = self._eval(node.discriminant, env)
            matched = False
            try:
                for case in node.cases:
                    if not matched and case.test is not None:
                        test = self._eval(case.test, env)
                        if self._truthy(self._eval_binary("===", discriminant, test)):
                            matched = True
                    if matched:
                        for statement in case.body:
                            self._exec(statement, env)
                if not matched:
                    # run default (and fall through) if present
                    default_seen = False
                    for case in node.cases:
                        if case.test is None:
                            default_seen = True
                        if default_seen:
                            for statement in case.body:
                                self._exec(statement, env)
            except _Break:
                pass
            return UNDEFINED
        if kind is N.EmptyStatement:
            return UNDEFINED
        # expression node used in statement position (e.g. for-init)
        return self._eval(node, env)

    # -- expressions --------------------------------------------------------
    def _eval(self, node: N.Node, env: Environment) -> Any:
        self._tick()
        kind = type(node)
        if kind is N.NumberLiteral:
            return node.value
        if kind is N.StringLiteral:
            return node.value
        if kind is N.BooleanLiteral:
            return node.value
        if kind is N.NullLiteral:
            return None
        if kind is N.UndefinedLiteral:
            return UNDEFINED
        if kind is N.Identifier:
            return env.lookup(node.name)
        if kind is N.ThisExpr:
            if env.has("this"):
                return env.lookup("this")
            return UNDEFINED
        if kind is N.ArrayLiteral:
            return JSArray([self._eval(el, env) for el in node.elements])
        if kind is N.ObjectLiteral:
            obj = JSObject()
            for key, value_node in node.properties:
                obj.js_set(to_string(key), self._eval(value_node, env))
            return obj
        if kind is N.FunctionExpr:
            fn = JSFunction(node.name, node.params, node.body, env)
            if node.name:
                fn_env = env.child()
                fn_env.declare(node.name, fn)
                fn.env = fn_env
            return fn
        if kind is N.Unary:
            return self._eval_unary(node, env)
        if kind is N.Update:
            return self._eval_update(node, env)
        if kind in _CHAIN_LINKS:
            return self._eval_chain(node, env)
        if kind is N.Conditional:
            if self._truthy(self._eval(node.test, env)):
                return self._eval(node.consequent, env)
            return self._eval(node.alternate, env)
        if kind is N.Assignment:
            return self._eval_assignment(node, env)
        if kind is N.New:
            return self._eval_new(node, env)
        if kind is N.Sequence:
            result: Any = UNDEFINED
            for expression in node.expressions:
                result = self._eval(expression, env)
            return result
        raise JSException("unsupported node %s" % kind.__name__)

    def _eval_unary(self, node: N.Unary, env: Environment) -> Any:
        operator = node.operator
        argument = node.argument
        if operator == "delete":
            if isinstance(argument, N.Member):
                obj = self._eval(argument.obj, env)
                prop = self._member_key(self._eval(argument.prop, env)) if argument.computed else argument.prop.value  # type: ignore[union-attr]
                self._delete_member(obj, prop)
            return True
        if operator == "typeof" and isinstance(argument, N.Identifier) and not env.has(argument.name):
            return "undefined"
        return self._unary(operator, self._eval(argument, env))

    def _eval_update(self, node: N.Update, env: Environment) -> Any:
        old, new = self._increment(node.operator, self._read_target(node.argument, env))
        self._write_target(node.argument, new, env)
        return new if node.prefix else old

    def _read_target(self, target: N.Node, env: Environment) -> Any:
        if isinstance(target, N.Identifier):
            return env.lookup(target.name) if env.has(target.name) else UNDEFINED
        if isinstance(target, N.Member):
            obj = self._eval(target.obj, env)
            prop = self._member_key(self._eval(target.prop, env)) if target.computed else target.prop.value  # type: ignore[union-attr]
            return self._get_member(obj, prop)
        raise JSException("invalid update target")

    def _write_target(self, target: N.Node, value: Any, env: Environment) -> None:
        if isinstance(target, N.Identifier):
            env.assign(target.name, value)
            return
        if isinstance(target, N.Member):
            obj = self._eval(target.obj, env)
            prop = self._member_key(self._eval(target.prop, env)) if target.computed else target.prop.value  # type: ignore[union-attr]
            self._set_member(obj, prop, value)
            return
        raise JSException("invalid assignment target")

    def _eval_assignment(self, node: N.Assignment, env: Environment) -> Any:
        if node.operator == "=":
            value = self._eval(node.value, env)
        else:
            current = self._read_target(node.target, env)
            operand = self._eval(node.value, env)
            value = self._eval_binary(node.operator[:-1], current, operand)
        self._write_target(node.target, value, env)
        return value

    def _eval_chain(self, node: N.Node, env: Environment) -> Any:
        """A ticked Binary, Logical, Member or Call node.

        A left-deep chain (``1 + 1 + …``, ``a || b || …``, ``a.b.b…``,
        ``o.f().f()…``, ``g()()…``) is walked in a loop, not one Python
        frame per link, so a chain the parser accepts cannot exhaust the
        stack.  Descending the left spine ticks each link and evaluates
        a call's arguments before its callee; unwinding applies each link
        to the value below it.  Hooks run in the recursive order.
        """
        links: Optional[List[Tuple[N.Node, Optional[List[Any]]]]] = None
        while True:
            kind = type(node)
            if kind is N.Call:
                args: Optional[List[Any]] = [self._eval(arg, env) for arg in node.arguments]
                inner = node.callee
                if isinstance(inner, N.Member):
                    # a method callee's member node is not itself evaluated
                    inner = inner.obj
            else:
                args = None
                inner = node.obj if kind is N.Member else node.left
            if type(inner) not in _CHAIN_LINKS:
                break
            if links is None:
                links = []
            links.append((node, args))
            self._tick()
            node = inner
        value = self._eval(inner, env)
        while True:
            if kind is N.Binary:
                value = self._eval_binary(node.operator, value, self._eval(node.right, env))
            elif kind is N.Logical:
                # && evaluates its right side when the left is truthy, || when falsy
                if self._truthy(value) == (node.operator == "&&"):
                    value = self._eval(node.right, env)
            elif kind is N.Member:
                prop = self._member_key(self._eval(node.prop, env)) if node.computed else node.prop.value
                value = self._get_member(value, prop)
            elif isinstance(node.callee, N.Member):
                callee = node.callee
                prop = self._member_key(self._eval(callee.prop, env)) if callee.computed else callee.prop.value
                value = self.call_function(self._get_method(value, prop), args, this=value)
            else:
                value = self.call_function(value, args, this=UNDEFINED)
            if not links:
                return value
            node, args = links.pop()
            kind = type(node)

    def _eval_new(self, node: N.New, env: Environment) -> Any:
        callee = self._eval(node.callee, env)
        return self._construct(callee, [self._eval(arg, env) for arg in node.arguments])


def evaluate_unary(operator: str, value: Any) -> Any:
    """Semantics of the unary operators that act on a value.

    ``delete`` acts on a member reference, and ``typeof`` of an
    undeclared name never reads a value, so the evaluator handles those
    cases itself.
    """
    if operator == "typeof":
        return type_of(value)
    if operator == "!":
        return not to_boolean(value)
    if operator == "-":
        return -to_number(value)
    if operator == "+":
        return to_number(value)
    if operator == "~":
        return float(~to_int32(to_number(value)))
    if operator == "void":
        return UNDEFINED
    raise JSException("unsupported unary %s" % operator)


def evaluate_binary(operator: str, left: Any, right: Any, max_string_length: int) -> Any:
    """Binary-operator semantics: the one implementation in the repo.

    The :class:`Interpreter`, the abstract machine in
    :mod:`repro.staticjs.absint` (on concrete operands) and the constant
    folder in :mod:`repro.staticjs.dataflow` all call it, so a value the
    static side computes can never diverge from what the sandbox would
    have produced.
    """
    if operator == "+":
        if isinstance(left, str) or isinstance(right, str) or isinstance(left, (JSObject, JSArray)) or isinstance(right, (JSObject, JSArray)):
            left_text, right_text = to_string(left), to_string(right)
            check_string_length(len(left_text) + len(right_text), max_string_length)
            return left_text + right_text
        return to_number(left) + to_number(right)
    if operator == "-":
        return to_number(left) - to_number(right)
    if operator == "*":
        return to_number(left) * to_number(right)
    if operator == "/":
        rnum = to_number(right)
        lnum = to_number(left)
        if rnum == 0:
            if lnum == 0 or math.isnan(lnum):
                return float("nan")
            return math.copysign(float("inf"), lnum) * math.copysign(1.0, rnum)
        return lnum / rnum
    if operator == "%":
        rnum = to_number(right)
        lnum = to_number(left)
        if rnum == 0 or math.isnan(lnum) or math.isinf(lnum):
            return float("nan")
        return math.fmod(lnum, rnum)
    if operator == "==":
        return loose_equals(left, right)
    if operator == "!=":
        return not loose_equals(left, right)
    if operator == "===":
        return strict_equals(left, right)
    if operator == "!==":
        return not strict_equals(left, right)
    if operator in ("<", ">", "<=", ">="):
        if isinstance(left, str) and isinstance(right, str):
            lval, rval = left, right
        else:
            lval, rval = to_number(left), to_number(right)
            if math.isnan(lval) or math.isnan(rval):
                return False
        if operator == "<":
            return lval < rval
        if operator == ">":
            return lval > rval
        if operator == "<=":
            return lval <= rval
        return lval >= rval
    if operator == "&":
        return float(to_int32(to_number(left)) & to_int32(to_number(right)))
    if operator == "|":
        return float(to_int32(to_number(left)) | to_int32(to_number(right)))
    if operator == "^":
        return float(to_int32(to_number(left)) ^ to_int32(to_number(right)))
    if operator == "<<":
        return float(to_int32(to_int32(to_number(left)) << (to_int32(to_number(right)) & 31)))
    if operator == ">>":
        return float(to_int32(to_number(left)) >> (to_int32(to_number(right)) & 31))
    if operator == ">>>":
        return float((to_int32(to_number(left)) & 0xFFFFFFFF) >> (to_int32(to_number(right)) & 31))
    if operator == "instanceof":
        return isinstance(left, (JSObject, JSFunction))
    if operator == "in":
        if isinstance(right, JSObject):
            return right.js_has(to_string(left))
        return False
    raise JSException("unsupported operator %s" % operator)

