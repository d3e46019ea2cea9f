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
    :data:`MAX_STRING_LENGTH`."""
    parts = ["" if el is UNDEFINED or el is None else to_string(el) for el in elements]
    check_string_length(sum(map(len, parts)) + len(separator) * (len(parts) - 1))
    return separator.join(parts)


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
        text = value.strip()
        if not text:
            return 0.0
        try:
            if text.lower().startswith(("0x", "-0x", "+0x")):
                return float(int(text, 16))
            return float(text)
        except ValueError:
            return float("nan")
        except OverflowError:  # a hex numeral past the largest double
            return math.copysign(math.inf, -1.0 if text[0] == "-" else 1.0)
    if isinstance(value, JSArray):
        if not value.elements:
            return 0.0
        if len(value.elements) == 1:
            return to_number(value.elements[0])
        return float("nan")
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
