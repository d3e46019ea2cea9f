"""Tests for repro.jsengine.interpreter and builtins."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.jsengine.interpreter import BudgetExceeded, Interpreter, evaluate_binary
from repro.jsengine.values import MAX_STRING_LENGTH, JSException, to_number, to_string


def run(source):
    return Interpreter().run(source)


def binop(operator, left, right):
    return evaluate_binary(operator, left, right, MAX_STRING_LENGTH)


class TestArithmetic:
    @pytest.mark.parametrize("source,expected", [
        ("2 + 3", 5.0),
        ("2 * 3 + 4", 10.0),
        ("10 / 4", 2.5),
        ("10 % 3", 1.0),
        ("-5 + +3", -2.0),
        ("2 * (3 + 4)", 14.0),
        ("1 << 4", 16.0),
        ("255 & 15", 15.0),
        ("8 | 1", 9.0),
        ("5 ^ 1", 4.0),
        ("~0", -1.0),
        ("16 >> 2", 4.0),
    ])
    def test_numeric(self, source, expected):
        assert run(source) == expected

    def test_division_by_zero(self):
        assert run("1 / 0") == math.inf
        assert math.isnan(run("0 / 0"))

    def test_nan_propagation(self):
        assert math.isnan(run("'abc' - 1"))


class TestStrings:
    def test_concat(self):
        assert run("'a' + 'b' + 5") == "ab5"

    def test_number_plus_string(self):
        assert run("1 + '2'") == "12"

    def test_methods(self):
        assert run("'hello'.toUpperCase()") == "HELLO"
        assert run("'hello'.charAt(1)") == "e"
        assert run("'hello'.charCodeAt(0)") == 104.0
        assert run("'a-b-c'.split('-').length") == 3.0
        assert run("'hello'.indexOf('ll')") == 2.0
        assert run("'hello'.substring(1, 3)") == "el"
        assert run("'hello'.substr(1, 3)") == "ell"
        assert run("'  x  '.trim()") == "x"
        assert run("'aXbXc'.replace('X', '-')") == "a-bXc"
        assert run("'abc'.length") == 3.0

    def test_from_char_code(self):
        assert run("String.fromCharCode(104, 105)") == "hi"

    def test_string_callable(self):
        assert run("String(42)") == "42"


class TestCoercion:
    @pytest.mark.parametrize("source,expected", [
        ("1 == '1'", True),
        ("1 === '1'", False),
        ("null == undefined", True),
        ("null === undefined", False),
        ("0 == false", True),
        ("'' == false", True),
        ("NaN == NaN", False),
        ("typeof 1", "number"),
        ("typeof 'x'", "string"),
        ("typeof undefined", "undefined"),
        ("typeof {}", "object"),
        ("typeof function(){}", "function"),
        ("typeof missing_var", "undefined"),
        ("!0", True),
        ("!!'x'", True),
    ])
    def test_cases(self, source, expected):
        assert run(source) == expected


class TestValuesCoercionCorners:
    """The numeric corners ``evaluate_binary`` depends on."""

    def test_division_by_zero_takes_dividend_sign(self):
        assert binop("/", 1.0, 0.0) == float("inf")
        assert binop("/", -1.0, 0.0) == float("-inf")
        assert math.isnan(binop("/", 0.0, 0.0))
        assert math.isnan(binop("/", float("nan"), 0.0))

    def test_division_by_negative_zero_flips_sign(self):
        assert binop("/", 1.0, -0.0) == float("-inf")
        assert binop("/", -1.0, -0.0) == float("inf")
        assert run("1 / -0;") == float("-inf")
        assert run("-1 / -0;") == float("inf")
        assert math.isnan(binop("/", 0.0, -0.0))

    def test_modulo_is_fmod_not_python_percent(self):
        # JS % truncates toward zero (C fmod); Python's % floors.
        assert binop("%", 7.0, -3.0) == 1.0
        assert binop("%", -7.0, 3.0) == -1.0
        assert math.isnan(binop("%", 5.0, 0.0))
        assert math.isnan(binop("%", float("inf"), 3.0))
        assert math.isnan(binop("%", float("nan"), 3.0))
        assert binop("%", 5.5, 2.0) == 1.5

    def test_hex_string_to_number(self):
        assert to_number("0x1A") == 26.0
        assert to_number("  0X10  ") == 16.0
        assert to_number("-0x10") == -16.0
        assert to_number("") == 0.0
        assert to_number("  ") == 0.0
        assert math.isnan(to_number("0xZZ"))
        assert math.isnan(to_number("12abc"))

    def test_infinity_stringification(self):
        assert to_string(float("inf")) == "Infinity"
        assert to_string(float("-inf")) == "-Infinity"
        assert to_string(float("nan")) == "NaN"
        assert binop("+", "", float("inf")) == "Infinity"
        assert to_string(1e21) == "1e+21"
        assert to_string(3.0) == "3"

    def test_string_allocation_limit_raises_budget(self):
        with pytest.raises(BudgetExceeded):
            evaluate_binary("+", "a" * 10, "b" * 10, 16)


class TestControlFlow:
    def test_if_else(self):
        assert run("var r; if (1 < 2) r = 'yes'; else r = 'no'; r") == "yes"

    def test_while_break_continue(self):
        assert run("var t = 0; var i = 0; while (true) { i++; if (i > 10) break; if (i % 2) continue; t += i; } t") == 30.0

    def test_for(self):
        assert run("var s = 0; for (var i = 1; i <= 4; i++) s += i; s") == 10.0

    def test_for_in_object(self):
        assert run("var keys = []; var o = {a: 1, b: 2}; for (var k in o) keys.push(k); keys.join(',')") == "a,b"

    def test_do_while(self):
        assert run("var n = 0; do { n++; } while (n < 3); n") == 3.0

    def test_switch_fallthrough(self):
        assert run("var r = ''; switch (2) { case 1: r += 'a'; case 2: r += 'b'; case 3: r += 'c'; break; default: r += 'd'; } r") == "bc"

    def test_switch_default(self):
        assert run("var r = ''; switch (9) { case 1: r = 'a'; break; default: r = 'dflt'; } r") == "dflt"

    def test_try_catch(self):
        assert run("var r; try { throw 'boom'; } catch (e) { r = 'caught ' + e; } r") == "caught boom"

    def test_finally_runs(self):
        assert run("var r = ''; try { r += 'a'; } catch (e) {} finally { r += 'f'; } r") == "af"

    def test_ternary(self):
        assert run("1 ? 'y' : 'n'") == "y"


class TestFunctions:
    def test_declaration_and_call(self):
        assert run("function mul(a, b) { return a * b; } mul(6, 7)") == 42.0

    def test_hoisting(self):
        assert run("var r = f(); function f() { return 3; } r") == 3.0

    def test_closure(self):
        assert run("""
            function counter() { var n = 0; return function() { n++; return n; }; }
            var c = counter(); c(); c(); c()
        """) == 3.0

    def test_recursion(self):
        assert run("function fib(n) { return n < 2 ? n : fib(n-1) + fib(n-2); } fib(10)") == 55.0

    def test_arguments_object(self):
        assert run("function f() { return arguments.length; } f(1, 2, 3)") == 3.0

    def test_missing_args_undefined(self):
        assert run("function f(a, b) { return typeof b; } f(1)") == "undefined"

    def test_this_method_call(self):
        assert run("var o = {v: 5, get: function() { return this.v; }}; o.get()") == 5.0

    def test_call_apply(self):
        assert run("function f(a) { return this.v + a; } f.call({v: 1}, 2)") == 3.0
        assert run("function f(a, b) { return a + b; } f.apply(null, [3, 4])") == 7.0

    def test_new_constructor(self):
        assert run("function P(x) { this.x = x; } var p = new P(9); p.x") == 9.0

    def test_calling_non_function_throws(self):
        with pytest.raises(JSException):
            run("var x = 5; x();")


class TestArraysObjects:
    def test_array_ops(self):
        assert run("var a = [1, 2]; a.push(3); a.length") == 3.0
        assert run("[3, 1, 2].sort().join('')") == "123"
        assert run("[1, 2, 3].reverse().join('')") == "321"
        assert run("[1, 2, 3].slice(1).join('')") == "23"
        assert run("[1, 2].concat([3]).length") == 3.0
        assert run("[5, 6].indexOf(6)") == 1.0
        assert run("var a = [1]; a.unshift(0); a[0]") == 0.0
        assert run("[1, 2, 3].pop()") == 3.0
        assert run("[1, 2, 3].shift()") == 1.0

    def test_array_index_assignment(self):
        assert run("var a = []; a[3] = 'x'; a.length") == 4.0

    def test_object_props(self):
        assert run("var o = {}; o.a = 1; o['b'] = 2; o.a + o.b") == 3.0

    def test_delete(self):
        assert run("var o = {a: 1}; delete o.a; typeof o.a") == "undefined"

    def test_in_operator(self):
        assert run("'a' in {a: 1}") is True


class TestBuiltins:
    def test_parse_int(self):
        assert run("parseInt('42px')") == 42.0
        assert run("parseInt('ff', 16)") == 255.0
        assert run("parseInt('0x10')") == 16.0
        assert math.isnan(run("parseInt('zz')"))

    def test_parse_float(self):
        assert run("parseFloat('3.5abc')") == 3.5

    def test_unescape(self):
        assert run("unescape('%69%66')") == "if"
        assert run("unescape('%u0041')") == "A"

    def test_escape_round_trip(self):
        assert run("unescape(escape('hello <world>'))") == "hello <world>"

    def test_atob_btoa(self):
        assert run("atob(btoa('payload'))") == "payload"

    def test_decode_uri_component(self):
        assert run("decodeURIComponent('a%20b')") == "a b"

    def test_math(self):
        assert run("Math.floor(3.7)") == 3.0
        assert run("Math.max(1, 9, 4)") == 9.0
        assert run("Math.pow(2, 10)") == 1024.0

    def test_math_random_seeded(self):
        a = Interpreter(rng=random.Random(5)).run("Math.random()")
        b = Interpreter(rng=random.Random(5)).run("Math.random()")
        assert a == b

    def test_is_nan(self):
        assert run("isNaN('abc')") is True

    def test_number_to_string_radix(self):
        assert run("(255).toString(16)") == "ff"


class TestEval:
    def test_eval_executes(self):
        assert run("eval('1 + 1')") == 2.0

    def test_eval_log(self):
        interp = Interpreter()
        interp.run("eval('var x = 5;')")
        assert interp.eval_log == ["var x = 5;"]

    def test_nested_eval_layers(self):
        interp = Interpreter()
        interp.run("eval(\"eval('1')\")")
        assert len(interp.eval_log) == 2


class TestSafety:
    def test_step_budget(self):
        with pytest.raises(BudgetExceeded):
            Interpreter(step_budget=5000).run("while (true) {}")

    def test_reference_error(self):
        with pytest.raises(JSException):
            run("undefined_name + 1")

    def test_property_of_undefined_throws(self):
        with pytest.raises(JSException):
            run("var u; u.x")


class TestProperties:
    @given(st.integers(min_value=-1000, max_value=1000), st.integers(min_value=-1000, max_value=1000))
    def test_addition_matches_python(self, a, b):
        assert run("%d + %d" % (a, b)) == float(a + b)

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=30))
    def test_unescape_escape_identity(self, text):
        interp = Interpreter()
        interp.global_env.declare("payload", text)
        assert interp.run("unescape(escape(payload))") == text

    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=10))
    def test_array_join_split(self, xs):
        joined = ",".join(str(x) for x in xs)
        assert run("'%s'.split(',').length" % joined) == float(len(xs))


class TestHigherOrderArrayMethods:
    def test_map(self):
        assert run("[1, 2, 3].map(function(x) { return x * 2; }).join('-')") == "2-4-6"

    def test_filter(self):
        assert run("[1, 2, 3, 4].filter(function(x) { return x % 2 == 0; }).length") == 2.0

    def test_foreach_with_index(self):
        assert run("var t = 0; [5, 6, 7].forEach(function(x, i) { t += x + i; }); t") == 21.0

    def test_map_receives_array_arg(self):
        assert run("[9].map(function(x, i, a) { return a.length; })[0]") == 1.0

    def test_chaining(self):
        source = "[1, 2, 3, 4, 5].filter(function(x) { return x > 2; }).map(function(x) { return x * x; }).join(',')"
        assert run(source) == "9,16,25"
