"""JavaScript runtime values and coercions.

The interpreter's value universe:

* ``float`` — JS number
* ``str`` — JS string
* ``bool`` — JS boolean
* ``None`` — JS ``null``
* :data:`UNDEFINED` — JS ``undefined``
* :class:`JSObject` / :class:`JSArray` — objects and arrays
* :class:`JSFunction` — closures over interpreter environments
* :class:`NativeFunction` — host/builtin callables
* host objects — any Python object implementing ``js_get``/``js_set``

Coercion helpers implement the ES5 abstract operations the corpus needs
(ToString, ToNumber, ToBoolean, ToInt32, loose equality).

Values are bounded so hostile scripts fail with :class:`BudgetExceeded`
before allocating: no string is concatenated, joined or stringified
past :data:`MAX_STRING_LENGTH` characters (every other builtin returns
at most a fixed multiple of its inputs), and no array is padded past
:data:`MAX_ARRAY_LENGTH` elements by an index or ``length`` write or
grown past it by ``concat``.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "UNDEFINED", "Undefined", "JSObject", "JSArray", "JSFunction", "NativeFunction",
    "JSException", "BudgetExceeded", "to_string", "to_number", "to_boolean",
    "to_int32", "loose_equals", "strict_equals", "type_of",
]

#: strings longer than this abort the script (memory-bomb guard; real
#: sandboxes enforce allocation limits the same way)
MAX_STRING_LENGTH = 2_000_000
#: arrays are dense lists, so a far index or a large ``length`` would
#: allocate every slot below it; past this many elements (16 MB of
#: slots, as many as the longest string has characters) the write aborts
#: the script instead
MAX_ARRAY_LENGTH = 2_000_000

#: StrWhiteSpaceChar (ES5 9.3.1): WhiteSpace (tab, VT, FF, space, NBSP,
#: BOM and the other Unicode space separators) and LineTerminator (LF,
#: CR, LS, PS); Python's ``str.strip`` strips other characters (U+001C
#: to U+001F, U+0085) and keeps the BOM
_STR_WHITESPACE = ("\t\x0b\x0c \xa0\ufeff\u1680\u2000\u2001\u2002\u2003\u2004"
                  "\u2005\u2006\u2007\u2008\u2009\u200a\u202f\u205f\u3000"
                  "\n\r\u2028\u2029")
#: StrNumericLiteral (ES5 9.3.1) once the white space is trimmed: a
#: signed decimal literal or ``Infinity``, or an unsigned hex integer
_STR_DECIMAL = re.compile(r"[+-]?(?:Infinity|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)")
_STR_HEX = re.compile(r"0[xX][0-9a-fA-F]+")


class Undefined:
    """Singleton for JS ``undefined``."""

    _instance: Optional["Undefined"] = None

    def __new__(cls) -> "Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "undefined"

    def __bool__(self) -> bool:
        return False


UNDEFINED = Undefined()


class BudgetExceeded(RuntimeError):
    """The script exceeded its execution step budget or an allocation bound."""


class JSException(Exception):
    """A thrown JS value propagating through the interpreter."""

    def __init__(self, value: Any) -> None:
        super().__init__(to_string(value))
        self.value = value


class JSObject:
    """A plain JS object backed by an ordered dict."""

    def __init__(self, properties: Optional[Dict[str, Any]] = None) -> None:
        self.properties: Dict[str, Any] = dict(properties or {})

    def js_get(self, name: str) -> Any:
        return self.properties.get(name, UNDEFINED)

    def js_set(self, name: str, value: Any) -> None:
        self.properties[name] = value

    def js_has(self, name: str) -> bool:
        return name in self.properties

    def js_delete(self, name: str) -> None:
        self.properties.pop(name, None)

    def keys(self) -> List[str]:
        return list(self.properties)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "JSObject(%r)" % self.properties


class JSArray(JSObject):
    """A JS array; elements live in ``elements``, extra props in dict."""

    def __init__(self, elements: Optional[List[Any]] = None) -> None:
        super().__init__()
        self.elements: List[Any] = list(elements or [])

    def js_get(self, name: str) -> Any:
        if name == "length":
            return float(len(self.elements))
        index = array_index(name)
        if index is not None:
            return self.elements[index] if index < len(self.elements) else UNDEFINED
        return super().js_get(name)

    def js_set(self, name: str, value: Any) -> None:
        if name == "length":
            length = to_number(value)
            if not 0 <= length < 4294967296.0 or length != int(length):
                raise JSException("RangeError: Invalid array length")
            self._pad(int(length))
            del self.elements[int(length):]
            return
        index = array_index(name)
        if index is not None:
            self._pad(index + 1)
            self.elements[index] = value
            return
        super().js_set(name, value)

    def _pad(self, length: int) -> None:
        """Grow to ``length`` elements with ``undefined``, within the bound."""
        missing = length - len(self.elements)
        if missing > 0:
            check_array_length(length)
            self.elements.extend([UNDEFINED] * missing)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "JSArray(%r)" % self.elements


class JSFunction:
    """A user-defined function: closure over an environment."""

    def __init__(self, name: Optional[str], params: List[str], body: list, env: Any) -> None:
        self.name = name or ""
        self.params = params
        self.body = body
        self.env = env
        self.properties: Dict[str, Any] = {}

    def js_get(self, name: str) -> Any:
        if name == "length":
            return float(len(self.params))
        if name == "name":
            return self.name
        return self.properties.get(name, UNDEFINED)

    def js_set(self, name: str, value: Any) -> None:
        self.properties[name] = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "JSFunction(%s)" % (self.name or "<anonymous>")


class NativeFunction:
    """A builtin or host function exposed to scripts."""

    def __init__(self, name: str, fn: Callable[..., Any]) -> None:
        self.name = name
        self.fn = fn

    def __call__(self, *args: Any) -> Any:
        return self.fn(*args)

    def js_get(self, name: str) -> Any:
        if name == "name":
            return self.name
        return UNDEFINED

    def js_set(self, name: str, value: Any) -> None:  # host funcs are sealed
        pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "NativeFunction(%s)" % self.name


def check_string_length(length: int, limit: int = MAX_STRING_LENGTH) -> None:
    """Refuse a string of ``length`` characters before it is built."""
    if length > limit:
        raise BudgetExceeded("string allocation limit (%d chars) exceeded" % limit)


def check_array_length(length: int) -> None:
    """Refuse an array of ``length`` elements before it is built."""
    if length > MAX_ARRAY_LENGTH:
        raise BudgetExceeded("array allocation limit (%d elements) exceeded" % MAX_ARRAY_LENGTH)


def array_index(key: str) -> Optional[int]:
    """The index a canonical numeral below 2**32 - 1 names (``"1"``; not
    ``"01"``, ``"-1"`` or ``"1.0"``), or None for any other key."""
    if key.isdigit() and len(key) <= 10 and key.isascii() and (key[0] != "0" or key == "0"):
        index = int(key)
        if index < 4294967295:
            return index
    return None


def join_elements(elements: List[Any], separator: str) -> str:
    """``Array.prototype.join``, refused before it builds a string past
    :data:`MAX_STRING_LENGTH`.

    Nested arrays join with ``","`` without a Python frame per level.
    An array met inside itself (a cycle) joins as ``""``, as browsers
    do.  Within one join, an array met again reuses its string unless it
    lies on a cycle, whose string depends on where the cycle is entered:
    an array shared n times off any cycle costs one join.
    """
    joined: Dict[int, str] = {}
    # one frame per array being joined: (elements, separator, parts, state);
    # element i's string is parts[i], state[0] counts parts and separators,
    # and state[1] is the lowest stack depth a cycle cut inside it reached
    # (one past its own depth when none did)
    stack = [(elements, separator, [], [0, 1])]
    depths = {id(elements): 0}  # the stack depth of each array being joined
    while True:
        elements, separator, parts, state = stack[-1]
        if len(parts) < len(elements):
            element = elements[len(parts)]
            if isinstance(element, JSArray):
                key = id(element.elements)
                text = joined.get(key)
                if text is None:
                    depth = depths.get(key)
                    if depth is None:
                        depths[key] = len(stack)
                        stack.append((element.elements, ",", [], [0, len(stack) + 1]))
                        continue
                    text = ""
                    state[1] = min(state[1], depth)
            elif element is UNDEFINED or element is None:
                text = ""
            else:
                text = to_string(element)
        else:
            text = separator.join(parts)
            stack.pop()
            del depths[id(elements)]
            if not stack:
                return text
            lowest_cut = state[1]
            if lowest_cut > len(stack):  # no cut reached this array or below
                joined[id(elements)] = text
            elements, separator, parts, state = stack[-1]
            state[1] = min(state[1], lowest_cut)
        state[0] += len(text) + (len(separator) if parts else 0)
        check_string_length(state[0])
        parts.append(text)


# ---------------------------------------------------------------------------
# Coercions
# ---------------------------------------------------------------------------

def to_boolean(value: Any) -> bool:
    if value is UNDEFINED or value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value != 0 and not math.isnan(value)
    if isinstance(value, str):
        return bool(value)
    return True


def to_number(value: Any) -> float:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, float):
        return value
    if isinstance(value, int):  # host code may hand us ints
        return float(value)
    if value is None:
        return 0.0
    if value is UNDEFINED:
        return float("nan")
    if isinstance(value, str):
        # ES5 9.3.1: Python's float() and int() also take "1_0", "inf",
        # non-ASCII digits and signed hex, which are NaN in JS
        text = value.strip(_STR_WHITESPACE)
        if not text:
            return 0.0
        if _STR_DECIMAL.fullmatch(text):
            return float(text.replace("Infinity", "inf"))
        if _STR_HEX.fullmatch(text):
            try:
                return float(int(text, 16))
            except OverflowError:  # a hex numeral past the largest double
                return math.inf
        return float("nan")
    if isinstance(value, JSArray):
        # ToNumber of an array is ToNumber of its join (ES5 9.3, 15.4.4.2),
        # built only as far as it can be a number: two or more elements
        # join with a "," (NaN), and an empty array or a cycle joins as ""
        seen = set()
        while isinstance(value, JSArray):
            elements = value.elements
            if len(elements) > 1:
                return float("nan")
            if not elements or id(elements) in seen:
                return 0.0
            seen.add(id(elements))
            value = elements[0]
        if value is UNDEFINED or value is None:
            return 0.0
        return to_number(to_string(value))
    return float("nan")


def _number_to_string(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    if value == int(value) and abs(value) < 1e21:
        return str(int(value))
    return repr(value)


def to_string(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _number_to_string(value)
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    if value is UNDEFINED:
        return "undefined"
    if isinstance(value, JSArray):
        return join_elements(value.elements, ",")
    if isinstance(value, JSFunction):
        return "function %s() { [code] }" % value.name
    if isinstance(value, NativeFunction):
        return "function %s() { [native code] }" % value.name
    if isinstance(value, JSObject):
        return "[object Object]"
    if hasattr(value, "js_to_string"):
        return value.js_to_string()
    return "[object %s]" % type(value).__name__


def to_int32(value: float) -> int:
    """ToInt32 of a number (``& 0xFFFFFFFF`` is ToUint32): NaN and the
    infinities are 0."""
    if math.isnan(value) or math.isinf(value):
        return 0
    value = int(value) & 0xFFFFFFFF
    return value - 0x100000000 if value >= 0x80000000 else value


def type_of(value: Any) -> str:
    if value is UNDEFINED:
        return "undefined"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (float, int)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, (JSFunction, NativeFunction)):
        return "function"
    return "object"


def strict_equals(a: Any, b: Any) -> bool:
    if type_of(a) != type_of(b):
        return False
    if isinstance(a, float) and isinstance(b, float):
        return a == b  # NaN != NaN falls out naturally
    if a is UNDEFINED and b is UNDEFINED:
        return True
    if a is None and b is None:
        return True
    if isinstance(a, (str, bool)) and isinstance(b, (str, bool)):
        return a == b
    return a is b


def loose_equals(a: Any, b: Any) -> bool:
    ta, tb = type_of(a), type_of(b)
    if ta == tb:
        return strict_equals(a, b)
    if (a is None and b is UNDEFINED) or (a is UNDEFINED and b is None):
        return True
    if ta == "number" and tb == "string":
        return to_number(a) == to_number(b)
    if ta == "string" and tb == "number":
        return to_number(a) == to_number(b)
    if ta == "boolean":
        return loose_equals(to_number(a), b)
    if tb == "boolean":
        return loose_equals(a, to_number(b))
    if ta in ("number", "string") and tb == "object":
        return loose_equals(a, to_string(b))
    if ta == "object" and tb in ("number", "string"):
        return loose_equals(to_string(a), b)
    return False
