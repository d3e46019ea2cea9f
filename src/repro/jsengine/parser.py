"""Recursive-descent JavaScript parser producing the :mod:`nodes` AST.

Covers ES5 statements and expressions except regular-expression
literals, labels, ``with``, and getters/setters — none of which appear
in the malware corpus this library generates and analyzes.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from . import nodes as N
from .lexer import Token, tokenize

__all__ = ["parse", "parse_tokens", "ParseError", "MAX_NESTING"]


class ParseError(SyntaxError):
    """Raised when the source cannot be parsed."""

    def __init__(self, message: str, token: Token) -> None:
        super().__init__("%s (got %s %r at offset %d)" % (message, token.kind, token.value, token.position))
        self.reason = message
        self.token = token

    def __reduce__(self) -> "tuple[type, tuple[str, Token]]":
        # copy and pickle rebuild the error from its arguments
        return type(self), (self.reason, self.token)


def parse(source: str, observer: Optional[Any] = None) -> N.Program:
    """Parse ``source`` into a :class:`~repro.jsengine.nodes.Program`.

    When an observer is supplied, the lexed token count is charged to
    the work profiler as one batched ``js.tokens`` amount (the lexer
    itself stays uninstrumented — per-token hooks would dominate it).
    """
    tokens = tokenize(source)
    if observer is not None:
        observer.work("js.tokens", len(tokens))
    return parse_tokens(tokens)


def parse_tokens(tokens: List[Token]) -> N.Program:
    """Parse an already-lexed token stream (no work charging).

    Split out from :func:`parse` so the
    :class:`~repro.jsengine.compilecache.CompileCache` can keep the
    token count when ``parse_program`` raises — the serial path charges
    ``js.tokens`` whenever lexing succeeded, even for parse errors, and
    cached replays must reproduce that accounting exactly.
    """
    return _Parser(tokens).parse_program()


_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="}

_BINARY_PRECEDENCE = {
    "|": 5, "^": 6, "&": 7,
    "==": 8, "!=": 8, "===": 8, "!==": 8,
    "<": 9, ">": 9, "<=": 9, ">=": 9, "instanceof": 9, "in": 9,
    "<<": 10, ">>": 10, ">>>": 10,
    "+": 11, "-": 11,
    "*": 12, "/": 12, "%": 12,
}


#: deepest recursive descent :class:`_Parser` accepts, counted on its
#: recursive entry points (statement, block, assignment, unary and call
#: expressions).  A level costs under 3 Python frames (150 nested parens
#: take about 410), so a parse fits in the interpreter's default
#: 1000-frame limit even when the caller is already 500 frames deep:
#: ``parse`` stays a pure function of its source, whatever the stack
#: above it.  The deepest script of the scale-0.05 corpus reaches 25.
MAX_NESTING = 150


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._depth = 0

    # -- token helpers ----------------------------------------------------
    @property
    def _cur(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._cur
        if token.kind != "eof":
            self._pos += 1
        return token

    def _expect_punct(self, value: str) -> Token:
        if not self._cur.is_punct(value):
            raise ParseError("expected %r" % value, self._cur)
        return self._advance()

    def _expect_identifier(self) -> str:
        if self._cur.kind != "identifier":
            raise ParseError("expected identifier", self._cur)
        return self._advance().value

    def _eat_punct(self, value: str) -> bool:
        if self._cur.is_punct(value):
            self._advance()
            return True
        return False

    def _eat_semicolon(self) -> None:
        # automatic semicolon insertion, permissive form
        self._eat_punct(";")

    def _nest(self) -> None:
        """Enter one level of recursive descent; the caller leaves it
        with ``self._depth -= 1`` on its (single) return path."""
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise ParseError("nesting too deep", self._cur)

    # -- program / statements ---------------------------------------------
    def parse_program(self) -> N.Program:
        body: List[N.Node] = []
        while self._cur.kind != "eof":
            body.append(self._statement())
        return N.Program(body)

    def _statement(self) -> N.Node:
        self._nest()
        token = self._cur
        handler = None
        if token.kind == "keyword":
            handler = {
                "var": self._var_statement,
                "function": self._function_declaration,
                "if": self._if_statement,
                "while": self._while_statement,
                "do": self._do_while_statement,
                "for": self._for_statement,
                "return": self._return_statement,
                "break": self._break_statement,
                "continue": self._continue_statement,
                "throw": self._throw_statement,
                "try": self._try_statement,
                "switch": self._switch_statement,
            }.get(token.value)
        node: N.Node
        if handler is not None:
            node = handler()
        elif token.is_punct("{"):
            node = self._block()
        elif token.is_punct(";"):
            self._advance()
            node = N.EmptyStatement()
        else:
            node = N.ExpressionStatement(self._expression())
            self._eat_semicolon()
        self._depth -= 1
        return node

    def _block(self) -> N.Block:
        self._nest()
        self._expect_punct("{")
        body: List[N.Node] = []
        while not self._cur.is_punct("}"):
            if self._cur.kind == "eof":
                raise ParseError("unterminated block", self._cur)
            body.append(self._statement())
        self._advance()
        self._depth -= 1
        return N.Block(body)

    def _var_statement(self) -> N.VarDecl:
        self._advance()  # var
        decl = self._var_declarations()
        self._eat_semicolon()
        return decl

    def _var_declarations(self) -> N.VarDecl:
        declarations: List[Tuple[str, Optional[N.Node]]] = []
        while True:
            name = self._expect_identifier()
            init: Optional[N.Node] = None
            if self._eat_punct("="):
                init = self._assignment_expression()
            declarations.append((name, init))
            if not self._eat_punct(","):
                break
        return N.VarDecl(declarations)

    def _function_declaration(self) -> N.FunctionDecl:
        self._advance()  # function
        name = self._expect_identifier()
        params, body = self._function_rest()
        return N.FunctionDecl(name, params, body)

    def _function_rest(self) -> Tuple[List[str], List[N.Node]]:
        self._expect_punct("(")
        params: List[str] = []
        while not self._cur.is_punct(")"):
            params.append(self._expect_identifier())
            if not self._eat_punct(","):
                break
        self._expect_punct(")")
        block = self._block()
        return params, block.body

    def _if_statement(self) -> N.If:
        self._advance()
        self._expect_punct("(")
        test = self._expression()
        self._expect_punct(")")
        consequent = self._statement()
        alternate = None
        if self._cur.is_keyword("else"):
            self._advance()
            alternate = self._statement()
        return N.If(test, consequent, alternate)

    def _while_statement(self) -> N.While:
        self._advance()
        self._expect_punct("(")
        test = self._expression()
        self._expect_punct(")")
        return N.While(test, self._statement())

    def _do_while_statement(self) -> N.DoWhile:
        self._advance()
        body = self._statement()
        if not self._cur.is_keyword("while"):
            raise ParseError("expected 'while'", self._cur)
        self._advance()
        self._expect_punct("(")
        test = self._expression()
        self._expect_punct(")")
        self._eat_semicolon()
        return N.DoWhile(body, test)

    def _for_statement(self) -> N.Node:
        self._advance()
        self._expect_punct("(")
        init: Optional[N.Node] = None
        declare = False
        if self._cur.is_keyword("var"):
            self._advance()
            declare = True
            # might be for-in with a single declaration
            name = self._expect_identifier()
            if self._cur.is_keyword("in"):
                self._advance()
                obj = self._expression()
                self._expect_punct(")")
                return N.ForIn(name, True, obj, self._statement())
            declarations: List[Tuple[str, Optional[N.Node]]] = [(name, None)]
            if self._eat_punct("="):
                declarations[0] = (name, self._assignment_expression())
            while self._eat_punct(","):
                extra = self._expect_identifier()
                extra_init = self._assignment_expression() if self._eat_punct("=") else None
                declarations.append((extra, extra_init))
            init = N.VarDecl(declarations)
        elif not self._cur.is_punct(";"):
            first = self._expression(no_in=True)
            if self._cur.is_keyword("in"):
                if not isinstance(first, N.Identifier):
                    raise ParseError("bad for-in target", self._cur)
                self._advance()
                obj = self._expression()
                self._expect_punct(")")
                return N.ForIn(first.name, False, obj, self._statement())
            init = N.ExpressionStatement(first)
        self._expect_punct(";")
        test = None if self._cur.is_punct(";") else self._expression()
        self._expect_punct(";")
        update = None if self._cur.is_punct(")") else self._expression()
        self._expect_punct(")")
        _ = declare
        return N.For(init, test, update, self._statement())

    def _return_statement(self) -> N.Return:
        self._advance()
        if self._cur.is_punct(";") or self._cur.is_punct("}") or self._cur.kind == "eof":
            self._eat_semicolon()
            return N.Return(None)
        argument = self._expression()
        self._eat_semicolon()
        return N.Return(argument)

    def _break_statement(self) -> N.Break:
        self._advance()
        self._eat_semicolon()
        return N.Break()

    def _continue_statement(self) -> N.Continue:
        self._advance()
        self._eat_semicolon()
        return N.Continue()

    def _throw_statement(self) -> N.Throw:
        self._advance()
        argument = self._expression()
        self._eat_semicolon()
        return N.Throw(argument)

    def _try_statement(self) -> N.Try:
        self._advance()
        block = self._block()
        catch_param = None
        catch_block = None
        finally_block = None
        if self._cur.is_keyword("catch"):
            self._advance()
            self._expect_punct("(")
            catch_param = self._expect_identifier()
            self._expect_punct(")")
            catch_block = self._block()
        if self._cur.is_keyword("finally"):
            self._advance()
            finally_block = self._block()
        if catch_block is None and finally_block is None:
            raise ParseError("try without catch/finally", self._cur)
        return N.Try(block, catch_param, catch_block, finally_block)

    def _switch_statement(self) -> N.Switch:
        self._advance()
        self._expect_punct("(")
        discriminant = self._expression()
        self._expect_punct(")")
        self._expect_punct("{")
        cases: List[N.SwitchCase] = []
        while not self._cur.is_punct("}"):
            if self._cur.is_keyword("case"):
                self._advance()
                test = self._expression()
                self._expect_punct(":")
                cases.append(N.SwitchCase(test))
            elif self._cur.is_keyword("default"):
                self._advance()
                self._expect_punct(":")
                cases.append(N.SwitchCase(None))
            else:
                if not cases:
                    raise ParseError("statement outside case", self._cur)
                cases[-1].body.append(self._statement())
        self._advance()
        return N.Switch(discriminant, cases)

    # -- expressions --------------------------------------------------------
    def _expression(self, no_in: bool = False) -> N.Node:
        expr = self._assignment_expression(no_in=no_in)
        if self._cur.is_punct(","):
            expressions = [expr]
            while self._eat_punct(","):
                expressions.append(self._assignment_expression(no_in=no_in))
            return N.Sequence(expressions)
        return expr

    def _assignment_expression(self, no_in: bool = False) -> N.Node:
        self._nest()
        node = self._conditional_expression(no_in=no_in)
        if self._cur.kind == "punct" and self._cur.value in _ASSIGN_OPS:
            if not isinstance(node, (N.Identifier, N.Member)):
                raise ParseError("invalid assignment target", self._cur)
            operator = self._advance().value
            value = self._assignment_expression(no_in=no_in)
            node = N.Assignment(operator, node, value)
        self._depth -= 1
        return node

    def _conditional_expression(self, no_in: bool = False) -> N.Node:
        test = self._binary_expression(0, no_in=no_in)
        if self._eat_punct("?"):
            consequent = self._assignment_expression()
            self._expect_punct(":")
            alternate = self._assignment_expression(no_in=no_in)
            return N.Conditional(test, consequent, alternate)
        return test

    def _binary_expression(self, min_precedence: int, no_in: bool = False) -> N.Node:
        left = self._unary_expression()
        while True:
            token = self._cur
            operator = None
            if token.kind == "punct" and token.value in _BINARY_PRECEDENCE:
                operator = token.value
            elif token.is_keyword("instanceof"):
                operator = "instanceof"
            elif token.is_keyword("in") and not no_in:
                operator = "in"
            elif token.is_punct("&&") or token.is_punct("||"):
                operator = token.value
            if operator is None:
                return left
            if operator in ("&&", "||"):
                precedence = 3 if operator == "||" else 4
            else:
                precedence = _BINARY_PRECEDENCE[operator]
            if precedence < min_precedence:
                return left
            self._advance()
            right = self._binary_expression(precedence + 1, no_in=no_in)
            if operator in ("&&", "||"):
                left = N.Logical(operator, left, right)
            else:
                left = N.Binary(operator, left, right)

    def _unary_expression(self) -> N.Node:
        self._nest()
        token = self._cur
        node: N.Node
        if token.kind == "punct" and token.value in ("!", "~", "+", "-"):
            self._advance()
            node = N.Unary(token.value, self._unary_expression())
        elif token.is_keyword("typeof", "delete", "void"):
            self._advance()
            node = N.Unary(token.value, self._unary_expression())
        elif token.is_punct("++") or token.is_punct("--"):
            self._advance()
            node = N.Update(token.value, self._unary_expression(), prefix=True)
        else:
            node = self._postfix_expression()
        self._depth -= 1
        return node

    def _postfix_expression(self) -> N.Node:
        expr = self._call_expression()
        if self._cur.is_punct("++") or self._cur.is_punct("--"):
            operator = self._advance().value
            return N.Update(operator, expr, prefix=False)
        return expr

    def _call_expression(self) -> N.Node:
        self._nest()
        if self._cur.is_keyword("new"):
            self._advance()
            callee = self._member_chain(self._primary_expression(), allow_call=False)
            arguments: List[N.Node] = []
            if self._cur.is_punct("("):
                arguments = self._arguments()
            node = self._member_chain(N.New(callee, arguments), allow_call=True)
        else:
            node = self._member_chain(self._primary_expression(), allow_call=True)
        self._depth -= 1
        return node

    def _member_chain(self, expr: N.Node, allow_call: bool) -> N.Node:
        while True:
            if self._cur.is_punct("."):
                self._advance()
                token = self._cur
                if token.kind not in ("identifier", "keyword"):
                    raise ParseError("expected property name", token)
                self._advance()
                expr = N.Member(expr, N.StringLiteral(token.value), computed=False)
            elif self._cur.is_punct("["):
                self._advance()
                prop = self._expression()
                self._expect_punct("]")
                expr = N.Member(expr, prop, computed=True)
            elif allow_call and self._cur.is_punct("("):
                expr = N.Call(expr, self._arguments())
            else:
                return expr

    def _arguments(self) -> List[N.Node]:
        self._expect_punct("(")
        arguments: List[N.Node] = []
        while not self._cur.is_punct(")"):
            arguments.append(self._assignment_expression())
            if not self._eat_punct(","):
                break
        self._expect_punct(")")
        return arguments

    def _primary_expression(self) -> N.Node:
        token = self._cur
        if token.kind == "number":
            self._advance()
            return N.NumberLiteral(token.number)
        if token.kind == "string":
            self._advance()
            return N.StringLiteral(token.value)
        if token.kind == "identifier":
            self._advance()
            return N.Identifier(token.value)
        if token.kind == "keyword":
            if token.value == "true":
                self._advance()
                return N.BooleanLiteral(True)
            if token.value == "false":
                self._advance()
                return N.BooleanLiteral(False)
            if token.value == "null":
                self._advance()
                return N.NullLiteral()
            if token.value == "undefined":
                self._advance()
                return N.UndefinedLiteral()
            if token.value == "this":
                self._advance()
                return N.ThisExpr()
            if token.value == "function":
                self._advance()
                name = None
                if self._cur.kind == "identifier":
                    name = self._advance().value
                params, body = self._function_rest()
                return N.FunctionExpr(name, params, body)
            if token.value == "new":
                return self._call_expression()
        if token.is_punct("("):
            self._advance()
            expr = self._expression()
            self._expect_punct(")")
            return expr
        if token.is_punct("["):
            self._advance()
            elements: List[N.Node] = []
            while not self._cur.is_punct("]"):
                elements.append(self._assignment_expression())
                if not self._eat_punct(","):
                    break
            self._expect_punct("]")
            return N.ArrayLiteral(elements)
        if token.is_punct("{"):
            self._advance()
            properties: List[Tuple[str, N.Node]] = []
            while not self._cur.is_punct("}"):
                key_token = self._cur
                if key_token.kind in ("identifier", "string", "keyword"):
                    key = key_token.value
                elif key_token.kind == "number":
                    key = key_token.value
                else:
                    raise ParseError("bad object key", key_token)
                self._advance()
                self._expect_punct(":")
                properties.append((key, self._assignment_expression()))
                if not self._eat_punct(","):
                    break
            self._expect_punct("}")
            return N.ObjectLiteral(properties)
        raise ParseError("unexpected token", token)
