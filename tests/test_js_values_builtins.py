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
