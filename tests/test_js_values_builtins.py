"""Tests for repro.jsengine.values and builtins edge cases."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.jsengine import Interpreter
from repro.jsengine.builtins import get_member, js_escape, js_unescape, make_global_builtins
from repro.jsengine.values import (
    MAX_ARRAY_LENGTH,
    UNDEFINED,
    BudgetExceeded,
    JSArray,
    JSException,
    JSObject,
    NativeFunction,
    Undefined,
    loose_equals,
    strict_equals,
    to_boolean,
    to_number,
    to_string,
    type_of,
)


class TestUndefined:
    def test_singleton(self):
        assert Undefined() is UNDEFINED
        assert not UNDEFINED

    def test_typeof(self):
        assert type_of(UNDEFINED) == "undefined"


class TestToBoolean:
    @pytest.mark.parametrize("value,expected", [
        (UNDEFINED, False), (None, False), (0.0, False), (float("nan"), False),
        ("", False), (1.0, True), ("x", True), (True, True), (False, False),
    ])
    def test_primitives(self, value, expected):
        assert to_boolean(value) is expected

    def test_objects_truthy(self):
        assert to_boolean(JSObject())
        assert to_boolean(JSArray())


class TestToNumber:
    @pytest.mark.parametrize("value,expected", [
        (True, 1.0), (False, 0.0), (None, 0.0), ("", 0.0), ("  42 ", 42.0),
        ("0x10", 16.0), (3, 3.0),
    ])
    def test_values(self, value, expected):
        assert to_number(value) == expected

    def test_nan_cases(self):
        assert math.isnan(to_number(UNDEFINED))
        assert math.isnan(to_number("abc"))

    def test_array_coercion(self):
        assert to_number(JSArray([])) == 0.0
        assert to_number(JSArray([7.0])) == 7.0
        assert math.isnan(to_number(JSArray([1.0, 2.0])))


NAN = float("nan")

#: ES5 9.3.1, ToNumber applied to the String type: the JS source of a
#: string and the number it converts to
STRING_TO_NUMBER = [
    # StrWhiteSpaceChar is WhiteSpace or LineTerminator: the BOM, NBSP and
    # LS are, U+001C (which Python's strip removes) is not
    ("'\\ufeff5'", 5.0), ("'\\u00a0 5\\u2028'", 5.0), ("'\\x1c5'", NAN), ("' '", 0.0),
    # StrDecimalLiteral: ASCII digits, no "_", and "Infinity" spelled out
    ("'1_0'", NAN), ("'inf'", NAN), ("'infinity'", NAN), ("'-Infinity'", float("-inf")),
    ("'\\uff11'", NAN), ("'1e3'", 1000.0), ("'.5'", 0.5), ("'5.'", 5.0), ("'-0'", -0.0),
    ("'1e'", NAN), ("'+-1'", NAN), ("'1 2'", NAN),
    # HexIntegerLiteral has no sign
    ("'-0x10'", NAN), ("'+0x10'", NAN), ("'0x1_0'", NAN), ("'0X1f'", 31.0),
]

INF = float("inf")

#: builtins on white space, decimal prefixes, NaN and non-ASCII text: the
#: JS source of a call, its value, and whether the constant folder
#: reaches it
BUILTIN_CALLS = [
    # 15.5.4.20 trim strips StrWhiteSpaceChar from both ends: the BOM and
    # LS are white space, U+001C is not
    ("'\\x1c5'.trim().length", 2.0, True), ("'\\ufeffa'.trim().length", 1.0, True),
    ("'\\u2028 a\\u00a0'.trim()", "a", True), ("'\\x85a'.trim().length", 2.0, True),
    # 15.1.2.2 step 2: parseInt strips it from the start only
    ("parseInt('\\ufeff5')", 5.0, True), ("parseInt('\\x1c5')", NAN, True),
    ("parseInt('\\u3000-0x1f')", -31.0, True),
    # 15.1.2.3: parseFloat strips it from the start, then reads the
    # longest prefix that is a StrDecimalLiteral (ASCII digits, no "_",
    # "Infinity" spelled out)
    ("parseFloat('\\ufeff1.5')", 1.5, False), ("parseFloat('\\x1c1.5')", NAN, False),
    ("parseFloat('\\u0663')", NAN, False), ("parseFloat('Infinity')", INF, False),
    ("parseFloat('-Infinityx')", -INF, False), ("parseFloat('infinity')", NAN, False),
    ("parseFloat('1_0')", 1.0, False), ("parseFloat('1e')", 1.0, False),
    ("parseFloat('-.5e-3x')", -0.0005, False), ("parseFloat('.')", NAN, False),
    ("parseFloat('0x10')", 0.0, False), ("parseFloat('-0')", -0.0, False),
    # 15.8.2.11-12: any NaN argument makes Math.max and Math.min NaN
    ("Math.max(1, NaN)", NAN, False), ("Math.min(1, NaN)", NAN, False),
    ("Math.max(NaN, 1)", NAN, False), ("Math.min(1, '2', 0)", 0.0, False),
    ("Math.max()", -INF, False), ("Math.min()", INF, False),
    # B.2.1 escape keeps only ASCII letters, digits and @*_+-./
    ("escape('\\u00e9')", "%E9", False), ("escape('\\u0663')", "%u0663", False),
    ("escape('aZ09@*_+-./ ')", "aZ09@*_+-./%20", False),
    # 15.1.3.4 encodeURIComponent keeps only ASCII letters, digits and
    # -_.!~*'(); the rest is written as its UTF-8 bytes
    ("encodeURIComponent('\\u00e9')", "%C3%A9", False),
    ("encodeURIComponent('\\u0663')", "%D9%A3", False),
    ("encodeURIComponent(\"aZ09-_.!~*'() \")", "aZ09-_.!~*'()%20", False),
]

#: ES5 15.12.3, JSON.stringify: the JS source of a value and its JSON text
JSON_STRINGIFY = [
    # no white space between members, and Quote writes non-ASCII as it is
    ("[1, 'x', {a: '\\u00e9'}]", '[1,"x",{"a":"\u00e9"}]'),
    # Quote escapes '"', '\\' and the control characters, nothing else
    ("'a\"b\\\\c'", '"a\\"b\\\\c"'),
    ("'\\b\\f\\n\\r\\t\\u0001\\u001f\\u007f\\u2028'",
     '"\\b\\f\\n\\r\\t\\u0001\\u001f\x7f\u2028"'),
    # JO leaves out a member whose Str is undefined; JA writes null for it
    ("{a: undefined, b: function () {}, c: 1}", '{"c":1}'),
    ("[undefined, function () {}]", "[null,null]"),
    ("{a: undefined}", "{}"),
    # a number is written by ToNumber's inverse, ToString, unless not finite
    ("[0/0, 1/0, -0, 1e21, 0.5, null, true]", "[null,null,0,1e+21,0.5,null,true]"),
]


def _folded(source):
    from repro.jsengine.parser import parse
    from repro.staticjs.dataflow import fold

    return fold(parse(source + ";").body[0].expression)


def _same(a, b):
    """Type-exact equality with NaN equal to itself and -0 apart from 0."""
    return type(a) is type(b) and repr(a) == repr(b)


class TestStringToNumber:
    @pytest.mark.parametrize("literal, expected", STRING_TO_NUMBER)
    def test_sandbox_and_folder(self, literal, expected):
        for source in ("Number(%s)" % literal, "+%s" % literal):
            assert _same(Interpreter().run(source + ";"), expected)
            assert _same(_folded(source), expected)


class TestBuiltinCalls:
    @pytest.mark.parametrize("source, expected, folds", BUILTIN_CALLS)
    def test_sandbox_and_folder(self, source, expected, folds):
        from repro.staticjs.dataflow import UNKNOWN

        assert _same(Interpreter().run(source + ";"), expected)
        folded = _folded(source)
        assert _same(folded, expected) if folds else folded is UNKNOWN


class TestJsonStringify:
    @pytest.mark.parametrize("source, expected", JSON_STRINGIFY)
    def test_sandbox(self, source, expected):
        assert Interpreter().run("JSON.stringify(%s);" % source) == expected

    @pytest.mark.parametrize("source", ["undefined", "function () {}", "Math.max"])
    def test_undefined_and_functions_stringify_to_undefined(self, source):
        assert Interpreter().run("JSON.stringify(%s);" % source) is UNDEFINED


class TestToString:
    @pytest.mark.parametrize("value,expected", [
        (1.0, "1"), (1.5, "1.5"), (-0.0, "0"), (float("inf"), "Infinity"),
        (float("nan"), "NaN"), (True, "true"), (None, "null"),
        (UNDEFINED, "undefined"),
    ])
    def test_values(self, value, expected):
        assert to_string(value) == expected

    def test_array_join(self):
        assert to_string(JSArray([1.0, "a", None])) == "1,a,"

    def test_object(self):
        assert to_string(JSObject()) == "[object Object]"


class TestEquality:
    def test_strict_type_mismatch(self):
        assert not strict_equals(1.0, "1")
        assert not strict_equals(None, UNDEFINED)

    def test_strict_nan(self):
        assert not strict_equals(float("nan"), float("nan"))

    def test_loose_null_undefined(self):
        assert loose_equals(None, UNDEFINED)

    def test_loose_number_string(self):
        assert loose_equals(5.0, "5")
        assert not loose_equals(5.0, "6")

    def test_loose_boolean(self):
        assert loose_equals(True, 1.0)
        assert loose_equals(False, "")

    def test_object_identity(self):
        a, b = JSObject(), JSObject()
        assert strict_equals(a, a)
        assert not strict_equals(a, b)


class TestJSArray:
    def test_index_get_set(self):
        arr = JSArray([1.0])
        arr.js_set("3", "x")
        assert len(arr.elements) == 4
        assert arr.js_get("3") == "x"
        assert arr.js_get("1") is UNDEFINED
        assert arr.js_get("length") == 4.0

    def test_length_truncation(self):
        arr = JSArray([1.0, 2.0, 3.0])
        arr.js_set("length", 1.0)
        assert arr.elements == [1.0]

    def test_named_props(self):
        arr = JSArray()
        arr.js_set("custom", 5.0)
        assert arr.js_get("custom") == 5.0

    def test_only_canonical_numerals_are_indexes(self):
        arr = JSArray(["a", "b"])
        for key in ("01", "-1", "1.0", "\u0661", "\u00b2", "9" * 5000):
            arr.js_set(key, "prop")
            assert arr.js_get(key) == "prop"
        assert arr.elements == ["a", "b"]

    @pytest.mark.parametrize("length", [-1.0, 1.5, float("nan"), float("inf"), 4294967296.0, "x"])
    def test_invalid_length_is_a_range_error(self, length):
        arr = JSArray([1.0, 2.0])
        with pytest.raises(JSException, match="RangeError"):
            arr.js_set("length", length)
        assert arr.elements == [1.0, 2.0]

    def test_growth_is_bounded_before_allocating(self):
        arr = JSArray()
        arr.js_set(str(MAX_ARRAY_LENGTH - 1), 1.0)
        assert len(arr.elements) == MAX_ARRAY_LENGTH
        for grow in (lambda: arr.js_set(str(MAX_ARRAY_LENGTH), 1.0),
                     lambda: arr.js_set("length", 3e9),
                     lambda: get_member(None, arr, "concat")(JSArray([1.0]))):
            with pytest.raises(BudgetExceeded):
                grow()
        assert len(arr.elements) == MAX_ARRAY_LENGTH


#: hostile operands: NaN, infinities, signed zero, huge and fractional
#: numbers, long digit strings, lone surrogates, non-ASCII digits
_HOSTILE = [
    UNDEFINED, None, True, 0.0, -0.0, 1.0, -1.0, 1.5, -2.5, 36.0, 37.0, 1e21, 1e300,
    float("nan"), float("inf"), float("-inf"), 4294967296.0, "", "abc", "%", "%u12", "%C3",
    "\ud800", "\u0130K", "9" * 5000, "0x", "+", " 12 ", "\u0663", JSArray([]),
    JSArray(["a", 1.0]), JSObject({"a": 1.0}), NativeFunction("f", lambda *a: 1.0),
]
_BUILTINS = make_global_builtins(Interpreter(rng=random.Random(0)))
_GLOBAL_NATIVES = sorted(
    [(name, value) for name, value in _BUILTINS.items() if callable(value)]
    + [("%s.%s" % (owner, key), value) for owner in ("Math", "JSON")
       for key, value in _BUILTINS[owner].properties.items() if callable(value)]
    + [("String.fromCharCode", _BUILTINS["String"].js_get("fromCharCode"))],
    key=lambda pair: pair[0])
_MEMBERS = ["charAt", "charCodeAt", "indexOf", "lastIndexOf", "substring", "substr", "slice",
            "split", "replace", "toLowerCase", "toUpperCase", "concat", "trim", "toString",
            "toFixed", "push", "pop", "shift", "unshift", "join", "reverse", "sort", "0", "01",
            "4294967295", "\u0661", "length"]


class TestBuiltinsAreTotal:
    """Every builtin returns a JS value or throws a JS error or
    BudgetExceeded for any arguments; extra arguments are ignored."""

    @given(st.sampled_from(_GLOBAL_NATIVES), st.lists(st.sampled_from(_HOSTILE), max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_global_natives(self, native, args):
        try:
            native[1](*args)
        except (JSException, BudgetExceeded):
            pass

    @given(st.sampled_from(_HOSTILE + [[1.0, "b", 1.5]]), st.sampled_from(_MEMBERS),
           st.lists(st.sampled_from(_HOSTILE), max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_members(self, receiver, name, args):
        if isinstance(receiver, (list, JSArray)):
            # a fresh array: push, sort and reverse mutate their receiver
            receiver = JSArray(list(receiver.elements if isinstance(receiver, JSArray) else receiver))
        try:
            member = get_member(Interpreter(), receiver, name)
            if isinstance(member, NativeFunction):
                member(*args)
        except (JSException, BudgetExceeded):
            pass


class TestEscapeUnescape:
    def test_round_trip_ascii(self):
        text = "hello <world> & 'friends'"
        assert js_unescape(js_escape(text)) == text

    def test_unicode_uses_percent_u(self):
        assert js_escape("€") == "%u20AC"
        assert js_unescape("%u20AC") == "€"

    def test_malformed_percent_passthrough(self):
        assert js_unescape("%zz") == "%zz"
        assert js_unescape("100%") == "100%"

    @given(st.text(alphabet=st.characters(min_codepoint=1, max_codepoint=0xFFFF), max_size=40))
    def test_round_trip_property(self, text):
        assert js_unescape(js_escape(text)) == text
