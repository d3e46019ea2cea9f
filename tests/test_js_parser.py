"""Tests for repro.jsengine.parser (AST shapes, nesting bound)."""

import sys

import pytest

from repro.jsengine import nodes as N
from repro.jsengine.parser import MAX_NESTING, ParseError, parse


def first(source):
    return parse(source).body[0]


class TestStatements:
    def test_var_decl(self):
        stmt = first("var a = 1, b;")
        assert isinstance(stmt, N.VarDecl)
        assert [name for name, _ in stmt.declarations] == ["a", "b"]

    def test_function_decl(self):
        stmt = first("function f(a, b) { return a; }")
        assert isinstance(stmt, N.FunctionDecl)
        assert stmt.params == ["a", "b"]

    def test_if_else(self):
        stmt = first("if (x) { a(); } else b();")
        assert isinstance(stmt, N.If)
        assert stmt.alternate is not None

    def test_while(self):
        assert isinstance(first("while (x) {}"), N.While)

    def test_do_while(self):
        assert isinstance(first("do { x(); } while (y);"), N.DoWhile)

    def test_for_classic(self):
        stmt = first("for (var i = 0; i < 5; i++) {}")
        assert isinstance(stmt, N.For)
        assert isinstance(stmt.init, N.VarDecl)

    def test_for_empty_clauses(self):
        stmt = first("for (;;) { break; }")
        assert stmt.init is None and stmt.test is None and stmt.update is None

    def test_for_in(self):
        stmt = first("for (var k in obj) {}")
        assert isinstance(stmt, N.ForIn)
        assert stmt.target == "k"

    def test_try_catch_finally(self):
        stmt = first("try { a(); } catch (e) { b(); } finally { c(); }")
        assert isinstance(stmt, N.Try)
        assert stmt.catch_param == "e"
        assert stmt.finally_block is not None

    def test_try_requires_handler(self):
        with pytest.raises(ParseError):
            parse("try { a(); }")

    def test_switch(self):
        stmt = first("switch (x) { case 1: a(); break; default: b(); }")
        assert isinstance(stmt, N.Switch)
        assert len(stmt.cases) == 2

    def test_throw(self):
        assert isinstance(first("throw 'err';"), N.Throw)

    def test_missing_semicolons_ok(self):
        program = parse("var a = 1\nvar b = 2")
        assert len(program.body) == 2


class TestExpressions:
    def test_precedence(self):
        expr = first("1 + 2 * 3;").expression
        assert isinstance(expr, N.Binary) and expr.operator == "+"
        assert isinstance(expr.right, N.Binary) and expr.right.operator == "*"

    def test_parens(self):
        expr = first("(1 + 2) * 3;").expression
        assert expr.operator == "*"

    def test_logical(self):
        expr = first("a && b || c;").expression
        assert isinstance(expr, N.Logical) and expr.operator == "||"

    def test_conditional(self):
        assert isinstance(first("a ? b : c;").expression, N.Conditional)

    def test_assignment_chain(self):
        expr = first("a = b = 1;").expression
        assert isinstance(expr.value, N.Assignment)

    def test_compound_assignment(self):
        assert first("a += 2;").expression.operator == "+="

    def test_invalid_assignment_target(self):
        with pytest.raises(ParseError):
            parse("1 = 2;")

    def test_member_dot(self):
        expr = first("document.write;").expression
        assert isinstance(expr, N.Member) and not expr.computed
        assert expr.prop.value == "write"

    def test_member_keyword_prop(self):
        expr = first("obj.delete;").expression
        assert expr.prop.value == "delete"

    def test_member_computed(self):
        expr = first("a['x'];").expression
        assert expr.computed

    def test_call_chain(self):
        expr = first("a.b(1)(2);").expression
        assert isinstance(expr, N.Call)
        assert isinstance(expr.callee, N.Call)

    def test_new(self):
        expr = first("new Image();").expression
        assert isinstance(expr, N.New)

    def test_new_with_member(self):
        expr = first("new a.B(1).go();").expression
        assert isinstance(expr, N.Call)

    def test_function_expr(self):
        expr = first("(function (x) { return x; });").expression
        assert isinstance(expr, N.FunctionExpr)

    def test_array_literal(self):
        expr = first("[1, 2, 3];").expression
        assert isinstance(expr, N.ArrayLiteral)
        assert len(expr.elements) == 3

    def test_object_literal(self):
        expr = first("({a: 1, 'b': 2});").expression
        assert isinstance(expr, N.ObjectLiteral)
        assert [k for k, _ in expr.properties] == ["a", "b"]

    def test_unary(self):
        assert first("typeof x;").expression.operator == "typeof"
        assert first("!x;").expression.operator == "!"

    def test_update(self):
        expr = first("x++;").expression
        assert isinstance(expr, N.Update) and not expr.prefix

    def test_sequence(self):
        assert isinstance(first("a, b, c;").expression, N.Sequence)

    def test_unexpected_token(self):
        with pytest.raises(ParseError):
            parse("var = 5;")


class TestWalk:
    def test_walk_covers_nested(self):
        program = parse("function f() { if (a) { return [1, {x: g()}]; } }")
        names = [n.name for n in program.walk() if isinstance(n, N.Identifier)]
        assert "a" in names and "g" in names

    def test_children_in_field_order(self):
        node = first("var a = 1, b = f(2);")
        assert [type(c).__name__ for c in node.children()] == ["NumberLiteral", "Call"]
        member = parse("o[k];").body[0].expression
        assert member.children() == [member.obj, member.prop]
        assert N.Try._fields == ("block", "catch_param", "catch_block", "finally_block")

    def test_walk_retains_no_memory(self):
        # ASTs live in the pipeline's compile cache for the whole run, and
        # on CPython 3.11+ reading node.__dict__ would leave a dict behind
        # on every walked node (64 B/node)
        import gc
        import tracemalloc

        program = parse("function f(x) { if (x) { return [x, {k: g(x + 1)}]; } "
                        "return f(x - 1); } var a = f(3), b = 'b' + a;" * 400)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            nodes = sum(1 for _node in program.walk())
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert nodes > 10_000
        assert retained / nodes < 1.0


DEEP = 10_000

#: one source per recursive path through the parser, each nested DEEP times
NESTED = {
    "parens": "(" * DEEP + "1" + ")" * DEEP,
    "brackets": "[" * DEEP + "]" * DEEP,
    "objects": "x = " + "{a: " * DEEP + "1" + "}" * DEEP,
    "calls": "f(" * DEEP + ")" * DEEP,
    "members": "a" + "[a" * DEEP + "]" * DEEP,
    "unary": "!" * DEEP + "x",
    "prefix": "++" * DEEP + "x",
    "new": "new " * DEEP + "X",
    "assignments": "a = " * DEEP + "1",
    "conditionals": "a ? b : " * DEEP + "c",
    "blocks": "{" * DEEP + "}" * DEEP,
    "ifs": "if (a) {" * DEEP + "}" * DEEP,
    "loops": "for (;;) " * DEEP + ";",
    "functions": "function f() {" * DEEP + "}" * DEEP,
    "function-exprs": "(function () {" * DEEP + "})" * DEEP,
    "tries": "try {" * DEEP + "} finally {}" * DEEP,
    "switches": "switch (a) { case 1: " * DEEP + "}" * DEEP,
}


def _outcome(source):
    try:
        parse(source)
    except ParseError as error:
        return "ParseError: %s" % error
    except RecursionError:
        return "RecursionError"
    return "parsed"


def _at_stack_depth(depth, fn):
    """Call ``fn()`` with ``depth`` frames already on the stack, under
    the interpreter's default recursion limit."""
    frame, current = sys._getframe(), 0
    while frame is not None:
        current += 1
        frame = frame.f_back

    def descend(remaining):
        return descend(remaining - 1) if remaining else fn()

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        return descend(depth - current - 1)
    finally:
        sys.setrecursionlimit(limit)


class TestNestingBound:
    """parse() is a pure function of its source: deep nesting is a
    ParseError at one fixed bound, never a stack-dependent RecursionError."""

    def test_deep_parens_at_top_level(self):
        with pytest.raises(ParseError, match="nesting too deep"):
            parse(NESTED["parens"])

    @pytest.mark.parametrize("construct", sorted(NESTED))
    def test_deep_nesting_from_500_frames_deep(self, construct):
        outcome = _at_stack_depth(500, lambda: _outcome(NESTED[construct]))
        assert outcome.startswith("ParseError: nesting too deep")

    def test_bound_does_not_depend_on_the_callers_stack(self):
        # the deepest paren nesting that parses, and one level more
        levels = max(n for n in range(1, MAX_NESTING)
                     if _outcome("(" * n + "1" + ")" * n) == "parsed")
        for n, expected in ((levels, "parsed"), (levels + 1, "ParseError")):
            source = "(" * n + "1" + ")" * n
            for depth in (0, 250, 500):
                outcome = (_outcome(source) if depth == 0 else
                           _at_stack_depth(depth, lambda: _outcome(source)))
                assert outcome.startswith(expected), (n, depth, outcome)
