"""Built-in methods for JS primitive and object values.

Implements the String/Array/Number methods the obfuscated corpus uses
(``charCodeAt``, ``fromCharCode``, ``split``/``join``/``reverse``,
``replace``, ``substring`` ...), plus the global functions obfuscators
lean on (``unescape``, ``decodeURIComponent``, ``parseInt``, ``atob``).
The repo's one implementation of JS builtins: the constant folder and
the regex peeler call :func:`get_member` and the module-level globals.

Every builtin is total: it returns a JS value or raises ``JSException``
(a JS error) or ``BudgetExceeded`` (an allocation bound), never another
Python exception, and ignores extra arguments, as JS does.
"""

from __future__ import annotations

import base64
import binascii
import functools
import math
import re
from typing import Any, Callable, Dict, List, Optional, Tuple

from .values import (
    UNDEFINED,
    JSArray,
    JSException,
    JSFunction,
    JSObject,
    NativeFunction,
    array_index,
    check_array_length,
    check_string_length,
    join_elements,
    strict_equals,
    to_boolean,
    to_int32,
    to_number,
    to_string,
)

__all__ = [
    "get_member", "make_global_builtins", "js_unescape", "js_escape",
    "js_decode_uri", "js_encode_uri", "js_atob", "js_btoa", "js_parse_int",
    "js_parse_float", "js_from_char_code", "js_string", "js_number",
]

_NAN = float("nan")
_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
#: ToInteger's infinities are clamped here, past any string or array
_CLAMP = float(2 ** 53)


def _integer(value: Any, default: int) -> int:
    """ToInteger of an optional argument: ``default`` when it is absent,
    0 for NaN, and ±Infinity clamped to ±2**53."""
    if value is UNDEFINED:
        return default
    number = to_number(value)
    if number != number:
        return 0
    return int(max(-_CLAMP, min(_CLAMP, number)))


# ---------------------------------------------------------------------------
# Global functions that need no interpreter — the de-obfuscation workhorses
# ---------------------------------------------------------------------------

_UNESCAPES = re.compile(r"%[uU]([0-9a-fA-F]{4})|%([0-9a-fA-F]{2})")


def js_unescape(value: Any = UNDEFINED, *_: Any) -> str:
    """The legacy ``unescape`` global, faithful to %uNNNN handling."""
    return _UNESCAPES.sub(lambda m: chr(int(m.group(1) or m.group(2), 16)), to_string(value))


def js_escape(value: Any = UNDEFINED, *_: Any) -> str:
    """The legacy ``escape`` global."""
    return re.sub(r"[^\w@*+\-./]", lambda m: ("%%%02X" if ord(m.group(0)) < 256 else "%%u%04X")
                  % ord(m.group(0)), to_string(value))


_PERCENT_BYTES = re.compile(r"(?:%[0-9a-fA-F]{2})+")


def js_decode_uri(value: Any = UNDEFINED, *_: Any) -> str:
    """``decodeURIComponent`` and ``decodeURI``: each run of ``%XX``
    bytes decodes as UTF-8 (a malformed sequence as U+FFFD); ``%uXXXX``
    and every other character stay as they are."""
    return _PERCENT_BYTES.sub(
        lambda run: bytes.fromhex(run.group(0).replace("%", "")).decode("utf-8", errors="replace"),
        to_string(value))


def js_encode_uri(value: Any = UNDEFINED, *_: Any) -> str:
    """``encodeURIComponent``; a lone surrogate encodes as its UTF-8 bytes."""
    return re.sub(r"[^\w\-.!~*'()]", lambda m: "".join(
        "%%%02X" % b for b in m.group(0).encode("utf-8", errors="surrogatepass")), to_string(value))


def js_atob(value: Any = UNDEFINED, *_: Any) -> str:
    """``atob`` over latin-1, tolerant of missing padding."""
    text = to_string(value)
    try:
        return base64.b64decode(text + "=" * (-len(text) % 4)).decode("latin-1")
    except (binascii.Error, ValueError):
        raise JSException("InvalidCharacterError: atob")


def js_btoa(value: Any = UNDEFINED, *_: Any) -> str:
    """``btoa``; a character past latin-1 encodes as ``?``."""
    return base64.b64encode(to_string(value).encode("latin-1", errors="replace")).decode("ascii")


def js_parse_int(text: Any = UNDEFINED, radix: Any = UNDEFINED, *_: Any) -> float:
    """``parseInt``: a radix of 0 (or none) is 10, or 16 after ``0x``;
    any other radix outside 2..36 gives NaN."""
    raw = to_string(text).strip()
    base = to_int32(to_number(radix))
    sign = 1
    if raw[:1] in ("+", "-"):
        if raw[0] == "-":
            sign = -1
        raw = raw[1:]
    if base == 0:
        base = 16 if raw[:2].lower() == "0x" else 10
    elif not 2 <= base <= 36:
        return _NAN
    if base == 16 and raw[:2].lower() == "0x":
        raw = raw[2:]
    valid = _DIGITS[:base] + _DIGITS[10:base].upper()
    end = 0
    for ch in raw:
        if ch not in valid:
            break
        end += 1
    if end == 0:
        return _NAN
    try:
        return float(sign * int(raw[:end], base))
    except (ValueError, OverflowError):  # past int()'s digit limit or a double
        return math.copysign(math.inf, sign)


def js_parse_float(text: Any = UNDEFINED, *_: Any) -> float:
    """``parseFloat``: the longest decimal prefix."""
    raw = to_string(text).strip()
    end = 0
    seen_dot = seen_e = False
    for i, ch in enumerate(raw):
        if ch.isdigit():
            end = i + 1
        elif ch == "." and not seen_dot and not seen_e:
            seen_dot = True
        elif ch in "eE" and not seen_e and end:
            seen_e = True
        elif ch in "+-" and i == 0:
            continue
        else:
            break
    try:
        return float(raw[: max(end, 1)])
    except ValueError:
        return _NAN


def js_from_char_code(*codes: Any) -> str:
    """``String.fromCharCode``: ToUint16 of each argument."""
    return "".join(chr(to_int32(to_number(code)) & 0xFFFF) for code in codes)


def js_string(value: Any = UNDEFINED, *_: Any) -> str:
    """``String`` called as a function."""
    return "" if value is UNDEFINED else to_string(value)


def js_number(value: Any = UNDEFINED, *_: Any) -> float:
    """``Number`` called as a function."""
    return to_number(value)


# ---------------------------------------------------------------------------
# Member access on primitives / objects
# ---------------------------------------------------------------------------

def get_member(interp: Any, obj: Any, name: str) -> Any:
    """Property lookup with builtin-method fallback.

    ``interp`` is the calling interpreter; only methods that call back
    into script code (a ``replace`` callback, ``forEach``, ``call`` ...)
    use it, so a caller that never passes a function may pass ``None``.
    """
    if isinstance(obj, str):
        return _string_member(interp, obj, name)
    if isinstance(obj, (float, int)) and not isinstance(obj, bool):
        return _number_member(obj, name)
    if isinstance(obj, JSArray):
        builtin = _array_member(interp, obj, name)
        if builtin is not None:
            return builtin
        return obj.js_get(name)
    if isinstance(obj, (JSObject, JSFunction, NativeFunction)):
        value = obj.js_get(name)
        if value is UNDEFINED and isinstance(obj, JSFunction) and name in ("call", "apply"):
            return _function_call_apply(interp, obj, name)
        return value
    if hasattr(obj, "js_get"):
        return obj.js_get(name)
    if obj is None or obj is UNDEFINED:
        raise JSException("TypeError: cannot read property %r of %s" % (name, to_string(obj)))
    return UNDEFINED


def _string_member(interp: Any, s: str, name: str) -> Any:
    if name == "length":
        return float(len(s))
    index = array_index(name)
    if index is not None:
        return s[index] if index < len(s) else UNDEFINED

    def method(fn: Callable[..., Any]) -> NativeFunction:
        return NativeFunction("String.%s" % name, fn)

    if name == "charAt":
        def char_at(idx: Any = UNDEFINED, *_: Any) -> str:
            i = _integer(idx, 0)
            return s[i] if 0 <= i < len(s) else ""
        return method(char_at)
    if name == "charCodeAt":
        def char_code_at(idx: Any = UNDEFINED, *_: Any) -> float:
            i = _integer(idx, 0)
            return float(ord(s[i])) if 0 <= i < len(s) else _NAN
        return method(char_code_at)
    if name == "indexOf":
        def index_of(needle: Any = UNDEFINED, start: Any = UNDEFINED, *_: Any) -> float:
            return float(s.find(to_string(needle), min(max(_integer(start, 0), 0), len(s))))
        return method(index_of)
    if name == "lastIndexOf":
        return method(lambda needle=UNDEFINED, *_: float(s.rfind(to_string(needle))))
    if name == "substring":
        def substring(a: Any = UNDEFINED, b: Any = UNDEFINED, *_: Any) -> str:
            start = max(0, min(len(s), _integer(a, 0)))
            end = max(0, min(len(s), _integer(b, len(s))))
            if start > end:
                start, end = end, start
            return s[start:end]
        return method(substring)
    if name == "substr":
        def substr(a: Any = UNDEFINED, length: Any = UNDEFINED, *_: Any) -> str:
            start = _integer(a, 0)
            if start < 0:
                start = max(0, len(s) + start)
            count = _integer(length, len(s) - start)
            return s[start : start + max(0, count)]
        return method(substr)
    if name == "slice":
        # Python's negative indices and clamping are JS's
        return method(lambda a=UNDEFINED, b=UNDEFINED, *_: s[_integer(a, 0):_integer(b, len(s))])
    if name == "split":
        def split(sep: Any = UNDEFINED, limit: Any = UNDEFINED, *_: Any) -> JSArray:
            if sep is UNDEFINED:
                parts = [s]
            else:
                separator = to_string(sep)
                parts = list(s) if separator == "" else s.split(separator)
            if limit is not UNDEFINED:
                parts = parts[: to_int32(to_number(limit)) & 0xFFFFFFFF]  # ToUint32
            return JSArray(parts)
        return method(split)
    if name == "replace":
        def replace(pattern: Any = UNDEFINED, repl: Any = UNDEFINED, *_: Any) -> str:
            pat = to_string(pattern)
            if isinstance(repl, (JSFunction, NativeFunction)):
                idx = s.find(pat)
                if idx == -1:
                    return s
                replacement = to_string(interp.call_function(repl, [pat], this=UNDEFINED))
                return s[:idx] + replacement + s[idx + len(pat):]
            return s.replace(pat, to_string(repl), 1)
        return method(replace)
    if name == "toLowerCase":
        return method(lambda *_: s.lower())
    if name == "toUpperCase":
        return method(lambda *_: s.upper())
    if name == "concat":
        def concat(*args: Any) -> str:
            parts = [s] + [to_string(a) for a in args]
            check_string_length(sum(map(len, parts)))
            return "".join(parts)
        return method(concat)
    if name == "trim":
        return method(lambda *_: s.strip())
    if name == "toString":
        return method(lambda *_: s)
    return UNDEFINED


def _number_member(value: float, name: str) -> Any:
    number = float(value)
    if name == "toString":
        def to_radix(radix: Any = UNDEFINED, *_: Any) -> str:
            base = _integer(radix, 10)
            if not 2 <= base <= 36:
                raise JSException("RangeError: toString() radix must be between 2 and 36")
            if base == 10 or not math.isfinite(number):
                return to_string(number)
            n = int(number)
            if n == 0:
                return "0"
            sign = "-" if n < 0 else ""
            n = abs(n)
            out = []
            while n:
                out.append(_DIGITS[n % base])
                n //= base
            return sign + "".join(reversed(out))
        return NativeFunction("Number.toString", to_radix)
    if name == "toFixed":
        def to_fixed(digits: Any = UNDEFINED, *_: Any) -> str:
            count = _integer(digits, 0)
            if not 0 <= count <= 100:
                raise JSException("RangeError: toFixed() digits argument must be between 0 and 100")
            if not math.isfinite(number) or abs(number) >= 1e21:
                return to_string(number)
            return "%.*f" % (count, number)
        return NativeFunction("Number.toFixed", to_fixed)
    return UNDEFINED


def _array_member(interp: Any, arr: JSArray, name: str) -> Optional[NativeFunction]:
    def method(fn: Callable[..., Any]) -> NativeFunction:
        return NativeFunction("Array.%s" % name, fn)

    if name == "push":
        def push(*args: Any) -> float:
            arr.elements.extend(args)
            return float(len(arr.elements))
        return method(push)
    if name == "pop":
        return method(lambda *_: arr.elements.pop() if arr.elements else UNDEFINED)
    if name == "shift":
        return method(lambda *_: arr.elements.pop(0) if arr.elements else UNDEFINED)
    if name == "unshift":
        def unshift(*args: Any) -> float:
            arr.elements[:0] = args
            return float(len(arr.elements))
        return method(unshift)
    if name == "join":
        return method(lambda sep=UNDEFINED, *_: join_elements(
            arr.elements, "," if sep is UNDEFINED else to_string(sep)))
    if name == "reverse":
        def reverse(*_: Any) -> JSArray:
            arr.elements.reverse()
            return arr
        return method(reverse)
    if name == "slice":
        return method(lambda a=UNDEFINED, b=UNDEFINED, *_: JSArray(
            arr.elements[_integer(a, 0):_integer(b, len(arr.elements))]))
    if name == "concat":
        def concat(*args: Any) -> JSArray:
            check_array_length(len(arr.elements) + sum(
                len(arg.elements) if isinstance(arg, JSArray) else 1 for arg in args))
            out = list(arr.elements)
            for arg in args:
                if isinstance(arg, JSArray):
                    out.extend(arg.elements)
                else:
                    out.append(arg)
            return JSArray(out)
        return method(concat)
    if name == "indexOf":
        def index_of(needle: Any = UNDEFINED, *_: Any) -> float:
            for i, el in enumerate(arr.elements):
                if strict_equals(el, needle):
                    return float(i)
            return -1.0
        return method(index_of)
    if name == "forEach":
        def for_each(callback: Any = UNDEFINED, *_: Any) -> Any:
            for index, element in enumerate(list(arr.elements)):
                interp.call_function(callback, [element, float(index), arr], this=UNDEFINED)
            return UNDEFINED
        return method(for_each)
    if name == "map":
        def map_fn(callback: Any = UNDEFINED, *_: Any) -> JSArray:
            return JSArray([
                interp.call_function(callback, [element, float(index), arr], this=UNDEFINED)
                for index, element in enumerate(list(arr.elements))
            ])
        return method(map_fn)
    if name == "filter":
        def filter_fn(callback: Any = UNDEFINED, *_: Any) -> JSArray:
            return JSArray([
                element for index, element in enumerate(list(arr.elements))
                if to_boolean(interp.call_function(callback, [element, float(index), arr],
                                                   this=UNDEFINED))
            ])
        return method(filter_fn)
    if name == "sort":
        def sort(comparator: Any = UNDEFINED, *_: Any) -> JSArray:
            if comparator is UNDEFINED:
                arr.elements.sort(key=to_string)
            else:
                def compare(a: Any, b: Any) -> int:
                    order = to_number(interp.call_function(comparator, [a, b], this=UNDEFINED))
                    return (order > 0) - (order < 0)  # NaN orders as 0
                arr.elements.sort(key=functools.cmp_to_key(compare))
            return arr
        return method(sort)
    if name == "toString":
        return method(lambda *_: to_string(arr))
    return None


def _function_call_apply(interp: Any, fn: JSFunction, name: str) -> NativeFunction:
    if name == "call":
        def call(this: Any = UNDEFINED, *args: Any) -> Any:
            return interp.call_function(fn, list(args), this=this)
        return NativeFunction("Function.call", call)

    def apply(this: Any = UNDEFINED, args: Any = UNDEFINED, *_: Any) -> Any:
        arg_list = args.elements if isinstance(args, JSArray) else []
        return interp.call_function(fn, list(arg_list), this=this)
    return NativeFunction("Function.apply", apply)


# ---------------------------------------------------------------------------
# Global builtins
# ---------------------------------------------------------------------------

def _rounding(round_finite: Callable[[float], int]) -> Callable[..., float]:
    """``Math.floor``/``ceil``/``round``: NaN and ±Infinity unchanged."""
    def apply(value: Any = UNDEFINED, *_: Any) -> float:
        number = to_number(value)
        return float(round_finite(number)) if math.isfinite(number) else number
    return apply


def _math_pow(a: Any = UNDEFINED, b: Any = UNDEFINED, *_: Any) -> float:
    """``Math.pow``: IEEE ``pow`` with JavaScript's special cases."""
    base, exponent = to_number(a), to_number(b)
    if exponent != exponent or (abs(base) == 1 and math.isinf(exponent)):
        return _NAN
    odd = exponent % 2 == 1  # an odd integer keeps the base's sign
    try:
        return math.pow(base, exponent)
    except OverflowError:
        return -math.inf if base < 0 and odd else math.inf
    except ValueError:
        if base == 0:  # zero to a negative power
            return -math.inf if math.copysign(1.0, base) < 0 and odd else math.inf
        return _NAN  # a negative base to a fractional power


def make_global_builtins(interp: Any) -> dict:
    """Build the default global bindings (String, Math, parseInt, ...)."""
    string_obj = JSObject({
        "fromCharCode": NativeFunction("String.fromCharCode", js_from_char_code),
    })
    # String is callable *and* has fromCharCode; model as a native function
    # with properties via a small host wrapper.
    string_host = _CallableWithProps(NativeFunction("String", js_string), string_obj)

    math_obj = JSObject({
        "floor": NativeFunction("Math.floor", _rounding(math.floor)),
        "ceil": NativeFunction("Math.ceil", _rounding(math.ceil)),
        "round": NativeFunction("Math.round", _rounding(lambda v: math.floor(v + 0.5))),
        "abs": NativeFunction("Math.abs", lambda v=UNDEFINED, *_: abs(to_number(v))),
        "max": NativeFunction("Math.max", lambda *vs: max((to_number(v) for v in vs), default=float("-inf"))),
        "min": NativeFunction("Math.min", lambda *vs: min((to_number(v) for v in vs), default=float("inf"))),
        "pow": NativeFunction("Math.pow", _math_pow),
        "sqrt": NativeFunction("Math.sqrt", lambda v=UNDEFINED, *_: (
            _NAN if to_number(v) < 0 else math.sqrt(to_number(v)))),
        "random": NativeFunction("Math.random", lambda *_: interp.rng.random()),
        "PI": math.pi,
        "E": math.e,
    })

    json_obj = JSObject({
        "stringify": NativeFunction("JSON.stringify", lambda v=UNDEFINED, *_: _json_stringify(v)),
    })

    return {
        "String": string_host,
        "Math": math_obj,
        "JSON": json_obj,
        "NaN": _NAN,
        "Infinity": float("inf"),
        "undefined": UNDEFINED,
        "unescape": NativeFunction("unescape", js_unescape),
        "escape": NativeFunction("escape", js_escape),
        "decodeURIComponent": NativeFunction("decodeURIComponent", js_decode_uri),
        "encodeURIComponent": NativeFunction("encodeURIComponent", js_encode_uri),
        "decodeURI": NativeFunction("decodeURI", js_decode_uri),
        "parseInt": NativeFunction("parseInt", js_parse_int),
        "parseFloat": NativeFunction("parseFloat", js_parse_float),
        "isNaN": NativeFunction("isNaN", lambda v=UNDEFINED, *_: math.isnan(to_number(v))),
        "atob": NativeFunction("atob", js_atob),
        "btoa": NativeFunction("btoa", js_btoa),
        "Array": NativeFunction("Array", lambda *args: JSArray(list(args))),
        "Object": NativeFunction("Object", lambda *args: JSObject()),
        "Number": NativeFunction("Number", js_number),
        "Boolean": NativeFunction("Boolean", lambda v=UNDEFINED, *_: to_boolean(v)),
        "Error": NativeFunction("Error", lambda msg=UNDEFINED, *_: JSObject({"message": to_string(msg)})),
    }


#: the characters Quote (ES5 15.12.3) escapes, and how
_JSON_ESCAPED = re.compile(r'["\\\x00-\x1f]')
_JSON_SHORT_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f",
                       "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _json_quote(text: str) -> str:
    """Quote (ES5 15.12.3): only ``"``, ``\\`` and the control
    characters are escaped; every other character is written as it is."""
    return '"%s"' % _JSON_ESCAPED.sub(
        lambda m: _JSON_SHORT_ESCAPES.get(m.group()) or "\\u%04x" % ord(m.group()), text)


def _json_omitted(value: Any) -> bool:
    """Str (ES5 15.12.3) is undefined for ``undefined`` and functions: an
    object leaves such a member out, an array writes ``null``."""
    return value is UNDEFINED or isinstance(value, (JSFunction, NativeFunction))


def _json_stringify(value: Any) -> Any:
    """``JSON.stringify`` in ES5 15.12.3's layout (no white space), refused
    before its text grows past
    :data:`~repro.jsengine.values.MAX_STRING_LENGTH`: each piece is
    counted before the text holding it is built, and an array or object
    met again is counted again but not walked again.  An array or object
    met inside itself throws a ``TypeError``.  ``undefined`` and
    functions stringify to ``undefined``.  Nesting depth costs no Python
    frames."""
    size = 0
    texts: Dict[int, str] = {}

    def counted(text: str, extra: int = 0) -> str:
        nonlocal size
        size += len(text) + extra
        check_string_length(size)
        return text

    def scalar(v: Any) -> str:
        if isinstance(v, bool):
            return counted("true" if v else "false")
        if isinstance(v, str):
            return counted(_json_quote(v))
        if isinstance(v, (float, int)) and math.isfinite(v):
            return counted(to_string(float(v)))
        return counted("null")  # NaN, ±Infinity, null, undefined, functions, host objects

    def opened(v: JSObject) -> Tuple[JSObject, str, List[Tuple[str, Any]], List[str]]:
        """A frame: the container, its layout, (prefix, child) per
        member, and the texts of the members written so far."""
        if isinstance(v, JSArray):
            counted("[]", max(len(v.elements) - 1, 0))  # and the ","s
            return v, "[%s]", [("", el) for el in v.elements], []
        members = [(key, val) for key, val in v.properties.items() if not _json_omitted(val)]
        counted("{}", max(len(members) - 1, 0))
        return v, "{%s}", [(counted(_json_quote(key), 1) + ":", val)
                           for key, val in members], []

    if _json_omitted(value):
        return UNDEFINED
    if not isinstance(value, JSObject):
        return scalar(value)
    stack = [opened(value)]
    active = {id(value)}
    while True:
        container, layout, members, parts = stack[-1]
        if len(parts) < len(members):
            prefix, child = members[len(parts)]
            if not isinstance(child, JSObject):
                parts.append(prefix + scalar(child))
            elif id(child) in texts:
                parts.append(prefix + counted(texts[id(child)]))
            elif id(child) in active:
                raise JSException("TypeError: Converting circular structure to JSON")
            else:
                active.add(id(child))
                stack.append(opened(child))
            continue
        text = texts[id(container)] = layout % ",".join(parts)
        stack.pop()
        active.discard(id(container))
        if not stack:
            return text
        _container, _layout, members, parts = stack[-1]
        parts.append(members[len(parts)][0] + text)


class _CallableWithProps:
    """A host value that is callable and also carries properties."""

    def __init__(self, fn: NativeFunction, props: JSObject) -> None:
        self._fn = fn
        self._props = props
        self.name = fn.name

    def __call__(self, *args: Any) -> Any:
        return self._fn(*args)

    def js_get(self, name: str) -> Any:
        return self._props.js_get(name)

    def js_set(self, name: str, value: Any) -> None:
        self._props.js_set(name, value)
