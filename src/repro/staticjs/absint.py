"""Interprocedural abstract interpreter over the sandbox's JS AST.

The honeyclient sandbox (:mod:`repro.jsengine`) is the ground truth for
script behaviour, but running it dominates scan cost.  This module
re-executes scripts *abstractly* on the sandbox's own evaluator and
host: :class:`AbstractMachine` subclasses
:class:`repro.jsengine.interpreter.Interpreter`, so statements,
expressions, scopes, calls and ``eval`` run the same code with the
same coercions, step counts and error strings, and :class:`AbstractHost`
subclasses :class:`repro.jsengine.hostenv.BrowserHost`, so ``document``,
``window``, elements, timers and the lifecycle run the same host code.
A change to JS semantics or to the host lands in both at once.
Anything the static analysis cannot know — the hosting page's DOM,
``Math.random``, timer ids — becomes an element of the abstract domain
in :mod:`repro.staticjs.domains`.  The machine overrides only the
interpreter's value hooks, and the host only the host's override points
(see :mod:`repro.jsengine.hostenv`), where such a value or the unknown
page could change the outcome.  What stays here is the model of the
unknown page (:class:`OpaqueElement`, :class:`OpaqueNodeList`, the
abstract ``location`` reads), the phase, attachment and handler
bookkeeping the page-level skip decision needs, and those overrides.

The machine is *effect-complete or honest*: either it finishes the
script (and the two lifecycle events the page driver fires) having
recorded every observable effect the sandbox would record — in which
case the page scanner may skip the sandbox and synthesize its dynamic
evidence — or it aborts with a reason and the page runs dynamically as
before.  Soundness rule: an abstract value reaching a control decision,
a host effect, or an unknown callee aborts; it is never guessed.

Loops that exceed the concrete unrolling budget are widened at their
CFG loop head (:attr:`repro.staticjs.cfg.Cfg.loop_head_of`) under a
syntactic purity check; widening keeps the analysis alive for payload
recovery (``eval`` sources, decoded strings) but marks the effect
summary incomplete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..htmlparse import Element, Node
from ..jsengine import nodes as N
from ..jsengine.astindex import AstIndex, ast_index
from ..jsengine.builtins import get_member
from ..jsengine.compilecache import CompileCache, parse_reusing
from ..jsengine.deobfuscate import DECODER_NAMES
from ..jsengine.hostenv import (
    BehaviorLog,
    BrowserHost,
    DocumentObject,
    DomElement,
    ImageConstructor,
    LocationObject,
    _WindowObject,
)
from ..jsengine.interpreter import _Break, _Continue, Environment, Interpreter
from ..jsengine.values import (
    MAX_STRING_LENGTH,
    UNDEFINED,
    JSArray,
    JSException,
    JSFunction,
    JSObject,
    NativeFunction,
    array_index,
    to_number,
    to_string,
)
from . import cfg as cfgmod
from .callgraph import CallGraph, build_call_graph, recursion_limit_for
from .domains import (
    BOOL_TOP,
    NUM_TOP,
    STR_TOP,
    TOP,
    AbstractValue,
    Interval,
    contains_abstract,
    is_abstract,
    number,
    string,
    widen_values,
)

__all__ = [
    "AbstractEffects",
    "PhaseEffects",
    "interpret_script",
    "PAGE_STEP_BUDGET",
    "EVENT_PHASES",
]

#: abstract-machine step ceiling — safely above the sandbox's default
#: step budget so a script the machine completes also completes there
MACHINE_STEP_LIMIT = 170_000
#: concrete iterations per loop instance before the widening path
MAX_UNROLL = 20_000
#: abstract fixpoint passes per widened loop
MAX_WIDEN_PASSES = 4
#: page-level sum-of-steps threshold for the effect-complete skip rule
PAGE_STEP_BUDGET = 150_000
#: events the page driver fires after the script phase, in order
EVENT_PHASES = ("load", "click", "mousemove")

_MAX_AST_DEPTH = 120
_MAX_EVAL_DEPTH = 8
_CALL_DEPTH_DEFAULT = 48
_CALL_DEPTH_RECURSIVE = 20


class _Abort(BaseException):
    """The machine cannot mirror the sandbox beyond this point.

    Not an :class:`Exception`: the host records a script's exceptions as
    page errors, and an abort is no script error — it ends the analysis.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _Scope(Environment):
    """An :class:`~repro.jsengine.interpreter.Environment` that records
    the names a script reads and writes in the global scope.

    A name is global when no scope below the root binds it.  ``reads``
    and ``writes`` live on the root scope only; :meth:`find` records
    nothing, so ``var`` and ``for-in`` declarations probe the chain
    without counting as reads.
    """

    __slots__ = ("reads", "writes")

    def _resolve(self, name: str) -> Any:
        """The innermost scope binding ``name``, else the root."""
        env: Any = self
        while env.parent is not None and name not in env.vars:
            env = env.parent
        return env

    def lookup(self, name: str) -> Any:
        env = self._resolve(name)
        if env.parent is None:
            env.reads.add(name)
        if name in env.vars:
            return env.vars[name]
        return Environment.lookup(env, name)  # the ReferenceError

    def has(self, name: str) -> bool:
        env = self._resolve(name)
        if env.parent is None:
            env.reads.add(name)
        return name in env.vars

    def assign(self, name: str, value: Any) -> None:
        env = self._resolve(name)
        if env.parent is None:
            env.writes.add(name)
        env.vars[name] = value

    def declare(self, name: str, value: Any = UNDEFINED) -> None:
        if self.parent is None:
            self.writes.add(name)
        self.vars[name] = value


class HostNative(NativeFunction):
    """A native that guards its own arguments against abstract values
    (or is insensitive to them) and so may always be invoked."""


#: callables the machine runs as they are, whatever their arguments
_HOST_CALLABLES = (HostNative, ImageConstructor)


# ---------------------------------------------------------------------------
# effect records


@dataclass
class _PhaseLog(BehaviorLog):
    """The sandbox's behaviour log for one lifecycle phase."""

    #: the host's first log is the script phase's
    name: str = "script"
    #: per ``document_writes`` entry: True for ``document.write``, whose
    #: markup lands in ``<body>`` and must be synthesized; False for
    #: ``innerHTML``, invisible to the page's iframe scan
    writes_to_body: List[bool] = field(default_factory=list)
    requested_scripts: List[str] = field(default_factory=list)
    steps: int = 0


class PhaseEffects:
    """Immutable snapshot of one phase's observable effects."""

    __slots__ = ("name", "navigations", "popups", "beacons",
                 "document_writes", "requested_scripts", "listeners",
                 "created_elements", "appended_elements", "cookies_set",
                 "errors", "timeouts_scheduled", "steps")

    def __init__(self, log: _PhaseLog) -> None:
        self.name = log.name
        self.navigations = tuple(log.navigations)
        self.popups = tuple(log.popups)
        self.beacons = tuple(log.beacons)
        #: (markup, attached) pairs
        self.document_writes = tuple(zip(log.document_writes, log.writes_to_body))
        self.requested_scripts = tuple(log.requested_scripts)
        self.listeners = tuple(log.listeners)
        self.created_elements = tuple(log.created_elements)
        self.appended_elements = tuple(log.appended_elements)
        self.cookies_set = tuple(log.cookies_set)
        self.errors = tuple(log.errors)
        self.timeouts_scheduled = log.timeouts_scheduled
        self.steps = log.steps

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "navigations": list(self.navigations),
            "popups": list(self.popups),
            "beacons": list(self.beacons),
            "document_writes": [list(entry) for entry in self.document_writes],
            "requested_scripts": list(self.requested_scripts),
            "listeners": [list(pair) for pair in self.listeners],
            "created_elements": list(self.created_elements),
            "appended_elements": list(self.appended_elements),
            "cookies_set": list(self.cookies_set),
            "errors": list(self.errors),
            "timeouts_scheduled": self.timeouts_scheduled,
            "steps": self.steps,
        }


class AbstractEffects:
    """Frozen whole-script effect summary, safe to share between pages."""

    __slots__ = ("complete", "reasons", "phases", "global_reads",
                 "global_writes", "doc_handler_events", "doc_handler_reads",
                 "element_handler_events", "element_handler_reads",
                 "opaque_element_handler_events",
                 "cookie_read", "cookie_written",
                 "steps", "widenings", "widened_heads", "eval_sources",
                 "max_eval_depth", "redirect_targets", "decoders_used",
                 "call_edges", "recursive_functions")

    def __init__(self, *, complete: bool, reasons: Sequence[str],
                 phases: Sequence[PhaseEffects],
                 global_reads: Iterable[str], global_writes: Iterable[str],
                 doc_handler_events: Iterable[str],
                 doc_handler_reads: Iterable[str],
                 element_handler_events: Iterable[str],
                 element_handler_reads: Iterable[str],
                 opaque_element_handler_events: Iterable[str],
                 cookie_read: bool, cookie_written: bool, steps: int,
                 widenings: int, widened_heads: Sequence[int],
                 eval_sources: Sequence[str], max_eval_depth: int,
                 redirect_targets: Sequence[str],
                 decoders_used: Iterable[str],
                 call_edges: int, recursive_functions: int) -> None:
        self.complete = complete
        self.reasons = tuple(reasons)
        self.phases = tuple(phases)
        self.global_reads = tuple(sorted(set(global_reads)))
        self.global_writes = tuple(sorted(set(global_writes)))
        self.doc_handler_events = tuple(sorted(set(doc_handler_events)))
        self.doc_handler_reads = tuple(sorted(set(doc_handler_reads)))
        self.element_handler_events = tuple(sorted(set(element_handler_events)))
        self.element_handler_reads = tuple(sorted(set(element_handler_reads)))
        self.opaque_element_handler_events = tuple(
            sorted(set(opaque_element_handler_events)))
        self.cookie_read = cookie_read
        self.cookie_written = cookie_written
        self.steps = steps
        self.widenings = widenings
        self.widened_heads = tuple(widened_heads)
        self.eval_sources = tuple(eval_sources)
        self.max_eval_depth = max_eval_depth
        self.redirect_targets = tuple(redirect_targets)
        self.decoders_used = tuple(sorted(set(decoders_used)))
        self.call_edges = call_edges
        self.recursive_functions = recursive_functions

    @property
    def abort_reason(self) -> Optional[str]:
        return self.reasons[0] if self.reasons else None

    def phase(self, name: str) -> Optional[PhaseEffects]:
        for entry in self.phases:
            if entry.name == name:
                return entry
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "complete": self.complete,
            "reasons": list(self.reasons),
            "phases": [entry.to_dict() for entry in self.phases],
            "global_reads": list(self.global_reads),
            "global_writes": list(self.global_writes),
            "doc_handler_events": list(self.doc_handler_events),
            "doc_handler_reads": list(self.doc_handler_reads),
            "element_handler_events": list(self.element_handler_events),
            "element_handler_reads": list(self.element_handler_reads),
            "opaque_element_handler_events": list(
                self.opaque_element_handler_events),
            "cookie_read": self.cookie_read,
            "cookie_written": self.cookie_written,
            "steps": self.steps,
            "widenings": self.widenings,
            "widened_heads": list(self.widened_heads),
            "eval_sources": list(self.eval_sources),
            "max_eval_depth": self.max_eval_depth,
            "redirect_targets": list(self.redirect_targets),
            "decoders_used": list(self.decoders_used),
            "call_edges": self.call_edges,
            "recursive_functions": self.recursive_functions,
        }


# ---------------------------------------------------------------------------
# the unknown page

_INF = float("inf")

#: method names :func:`repro.jsengine.builtins._array_member` implements;
#: calling one on an opaque node list needs the (unknown) elements
_ARRAY_NATIVE_NAMES = {
    "push", "pop", "shift", "unshift", "join", "indexOf", "slice",
    "splice", "concat", "reverse", "sort", "forEach", "map", "filter",
    "toString",
}


def _check_child(child: Any) -> None:
    """Abort unless the sandbox's outcome of inserting ``child`` is known."""
    if isinstance(child, OpaqueElement):
        # moving an unknown page node could move an iframe
        raise _Abort("opaque-mutation")
    if is_abstract(child) and child.kind == "top":
        raise _Abort("abstract-child")


def _no_extra(rest: Sequence[Any]) -> None:
    """Abort on arguments past the sandbox method's signature."""
    if rest:
        raise _Abort("opaque-arity")


class _OpaqueStyle:
    """``style`` of a page element the analysis cannot see."""

    def js_get(self, name: str) -> Any:
        return STR_TOP

    def js_set(self, name: str, value: Any) -> None:
        # could hide or reveal a page iframe — classification unknown
        raise _Abort("opaque-style-write")

    def js_to_string(self) -> str:
        return "[object StyleObject]"


class OpaqueElement:
    """A page element whose identity/content the analysis cannot see.

    Reads return abstract summaries; any mutation that could move,
    create, hide or reveal page content aborts the analysis.  Event
    handler registration is allowed (it is observable only through the
    listener log and the host's own event dispatch).
    """

    def __init__(self, host: "AbstractHost", tag: Optional[str] = None) -> None:
        self._host = host
        self.tag = tag
        #: identity token: keys this wrapper's handler slots
        self._token = Element(tag if tag else "div")
        self._parent: Optional["OpaqueElement"] = None

    def js_to_string(self) -> str:
        return "[object DomElement]"

    def _handlers(self) -> Dict[str, Any]:
        return self._host.handlers.setdefault(id(self._token), {})

    def js_get(self, name: str) -> Any:
        native = self._host.native
        if name == "tagName":
            return self.tag.upper() if self.tag else string(32.0)
        if name == "style":
            return _OpaqueStyle()
        if name == "parentNode":
            # every element but <html> has a parent, so the wrapper is
            # truthy exactly when the real one is
            if self.tag in (None, "html"):
                return TOP
            if self._parent is None:
                self._parent = OpaqueElement(self._host)
            return self._parent
        if name in ("children", "childNodes"):
            return OpaqueNodeList(self._host)
        if name == "appendChild":
            return native("appendChild", self._append_child)
        if name == "insertBefore":
            return native("insertBefore", self._insert_before)
        if name == "removeChild":
            return native("removeChild", self._remove_child)
        if name == "setAttribute":
            return native("setAttribute", self._set_attribute)
        if name == "getAttribute":
            return native("getAttribute", self._get_attribute)
        if name == "getElementsByTagName":
            return native("getElementsByTagName", self._get_elements)
        if name == "addEventListener":
            return native("addEventListener", self._add_event_listener)
        if name == "attachEvent":
            return native("attachEvent", self._attach_event)
        if name == "click":
            return native("click", self._click)
        if name.startswith("on"):
            # another wrapper of the same real element may have
            # overwritten the slot this wrapper thinks it owns
            raise _Abort("opaque-handler-read")
        if name in ("id", "innerHTML", "src", "href", "textContent",
                    "className", "width", "height"):
            return STR_TOP
        # real: ``el.get(name) or UNDEFINED`` — a string or UNDEFINED
        return TOP

    def js_set(self, name: str, value: Any) -> None:
        if name.startswith("on"):
            self._listen(name[2:], value)
            return
        raise _Abort("opaque-mutation")

    def _listen(self, event: str, handler: Any) -> None:
        host = self._host
        host.register_opaque_handler(event, id(self._token))
        host.log.listeners.append((self.tag if self.tag else "*", event))
        host.element_handler_events.add(event)
        host.opaque_element_handler_events.add(event)
        self._handlers()["on" + event] = handler

    # -- methods ---------------------------------------------------------
    # the sandbox's DomElement methods take no arguments past their
    # signature: an extra one raises a TypeError naming the method's
    # class, which ends the script with an error this wrapper cannot
    # spell, so it aborts (_no_extra) instead of running on
    def _append_child(self, child: Any = UNDEFINED, *rest: Any) -> Any:
        _no_extra(rest)
        return self._host.attach_to_opaque(child, self)

    def _insert_before(self, child: Any = UNDEFINED, ref: Any = UNDEFINED,
                       *rest: Any) -> Any:
        _no_extra(rest)
        return self._host.attach_to_opaque(child, self)

    def _remove_child(self, child: Any = UNDEFINED, *rest: Any) -> Any:
        _no_extra(rest)
        if isinstance(child, OpaqueElement) or (
                is_abstract(child) and child.kind == "top"):
            # detaching an unknown page node could remove an iframe
            raise _Abort("opaque-mutation")
        return child

    def _set_attribute(self, *args: Any) -> Any:
        raise _Abort("opaque-mutation")

    def _get_attribute(self, attr: Any = UNDEFINED, *rest: Any) -> Any:
        _no_extra(rest)
        return TOP

    def _get_elements(self, tag: Any = UNDEFINED, *rest: Any) -> Any:
        _no_extra(rest)
        known = tag if isinstance(tag, str) else None
        return OpaqueNodeList(self._host, tag=known)

    def _add_event_listener(self, event: Any = UNDEFINED,
                            handler: Any = UNDEFINED, *rest: Any) -> Any:
        self._listen(self._host.text(event, "abstract-event"), handler)
        return UNDEFINED

    def _attach_event(self, event: Any = UNDEFINED,
                      handler: Any = UNDEFINED) -> Any:
        self._listen(self._host.text(event, "abstract-event").removeprefix("on"),
                    handler)
        return UNDEFINED

    def _click(self) -> Any:
        raise _Abort("opaque-click")


class OpaqueNodeList(JSObject):
    """Result of ``getElementsByTagName`` over the unknown page.

    A :class:`~repro.jsengine.values.JSObject` so ``typeof`` and
    ``instanceof`` behave like the real :class:`JSArray` result.  Only
    index 0 of the document-level ``script`` list is guaranteed to
    exist (the running script is itself a page script element).
    """

    def __init__(self, host: "AbstractHost", tag: Optional[str] = None,
                 first_known: bool = False) -> None:
        super().__init__()
        self._host = host
        self.tag = tag
        self.first_known = first_known
        self._first: Optional[OpaqueElement] = None

    def js_get(self, name: str) -> Any:
        if name == "length":
            lo = 1.0 if self.first_known else 0.0
            return number(Interval(lo, _INF))
        if name == "0" and self.first_known:
            if self._first is None:
                self._first = OpaqueElement(self._host, self.tag)
            return self._first
        if name.isdigit():
            return TOP  # element or UNDEFINED past the end — unknown
        if name in _ARRAY_NATIVE_NAMES:
            raise _Abort("opaque-nodelist")
        return UNDEFINED

    def js_set(self, name: str, value: Any) -> None:
        raise _Abort("opaque-nodelist-write")


class AbstractLocation(LocationObject):
    """``window.location`` of an unknown page URL."""

    #: generous length bound for URL-derived strings — tight enough to
    #: prove the 2 MB allocation guard cannot fire
    URL_LEN = 65536.0
    _URL_PARTS = {"href", "hostname", "host", "protocol", "pathname", "search"}

    def js_get(self, name: str) -> Any:
        if name in self._URL_PARTS:
            return string(self.URL_LEN)
        return super().js_get(name)

    def js_to_string(self) -> str:
        # the concrete URL is unknown; it cannot pass through to_string
        raise _Abort("location-string")


# ---------------------------------------------------------------------------
# the script's own elements and the page's document


class AbstractElement(DomElement):
    """:class:`DomElement` of an element the script created: its subtree
    is concrete, but it may hang under an unknown page node."""

    def __init__(self, host: "AbstractHost", element: Element) -> None:
        super().__init__(host, element)
        #: set when the element was appended under an unknown page node
        self.opaque_parent: Optional[OpaqueElement] = None

    def js_get(self, name: str) -> Any:
        if name.startswith("on") and self._host.is_attached(self._element):
            # an attached element is reachable through another script's
            # opaque wrappers, which may overwrite the slot
            self._host.element_handler_reads.add(name[2:])
        return super().js_get(name)

    def _listen(self, event: str, handler: Any) -> None:
        super()._listen(event, handler)
        self._host.element_handler_events.add(event)

    def _parent_node(self) -> Any:
        if self._element.parent is None:
            return self.opaque_parent
        return super()._parent_node()

    def _get_attribute(self, attr: Any) -> Any:
        if contains_abstract(attr):
            return TOP  # pure read of our own attrs under an unknown key
        return super()._get_attribute(attr)

    def _get_elements_by_tag_name(self, tag: Any) -> Any:
        if contains_abstract(tag):
            return TOP  # pure: some subset of our own subtree
        return super()._get_elements_by_tag_name(tag)

    def _insert_before(self, child: Any = UNDEFINED, ref: Any = UNDEFINED) -> Any:
        if is_abstract(ref) and ref.kind == "top":
            # the sandbox inserts before ``ref`` when it is one of our
            # children, else first: an unknown reference could be either
            raise _Abort("abstract-ref")
        return super()._insert_before(child, ref)


class AbstractDocument(DocumentObject):
    """``document`` of an unknown page: its elements are
    :class:`OpaqueElement`\\ s and written markup is replayed, not
    inserted."""

    def __init__(self, host: "AbstractHost", document: Any) -> None:
        super().__init__(host, document)
        self._roots: Dict[str, OpaqueElement] = {}

    def js_get(self, name: str) -> Any:
        if name == "cookie":
            self._host.cookie_read = True
        elif name.startswith("on"):
            # visible to other scripts writing the same document slot
            self._host.doc_handler_reads.add(name[2:])
        return super().js_get(name)

    def _listen(self, event: str, handler: Any) -> None:
        super()._listen(event, handler)
        self._host.doc_handler_events.add(event)

    def _page_element(self, tag: str) -> Any:
        # parse() always synthesizes html/head/body, so these are never
        # None on a real page
        root = self._roots.get(tag)
        if root is None:
            root = self._roots[tag] = OpaqueElement(self._host, tag)
        return root

    def _get_element_by_id(self, element_id: Any) -> Any:
        # resolves against the unknown page; even a miss is observable
        # (None is falsy)
        raise _Abort("get-by-id")

    def _get_elements_by_tag_name(self, tag: Any) -> Any:
        known = tag if isinstance(tag, str) else None
        first = known is not None and known.lower() == "script"
        return OpaqueNodeList(self._host, tag=known, first_known=first)

    def _title(self) -> Any:
        return STR_TOP

    def _set_title(self, text: str) -> None:
        pass  # mutates only the page <title> text — invisible to analysis

    def _write_into_page(self, nodes: List[Node]) -> None:
        # replay appends the recorded markup to <body>; a written
        # iframe's src is a redirect target for the static findings
        for node in nodes:
            if isinstance(node, Element):
                for el in node.iter():
                    if el.tag == "iframe" and el.get("src"):
                        self._host.add_redirect(el.get("src"))


# ---------------------------------------------------------------------------
# the machine

#: result kind of a pure global builtin applied to abstract args (every
#: builtin is total: it returns a value or throws a JS error)
_PURE_GLOBAL_KIND: Dict[str, AbstractValue] = {
    "String": STR_TOP,
    "Number": NUM_TOP,
    "Boolean": BOOL_TOP,
    "parseInt": NUM_TOP,
    "parseFloat": NUM_TOP,
    "isNaN": BOOL_TOP,
    "btoa": STR_TOP,
    "escape": STR_TOP,
    "unescape": STR_TOP,
    "encodeURIComponent": STR_TOP,
    "encodeURI": STR_TOP,
    "decodeURIComponent": STR_TOP,
    "decodeURI": STR_TOP,
}

#: decode-direction builtins never grow their input; encode-direction
#: ones grow by at most this factor (escape: "%uXXXX" per char)
_DECODE_BOUNDED = {"unescape", "decodeURIComponent", "decodeURI"}
_ENCODE_FACTOR = {"escape": 6.0, "encodeURIComponent": 12.0,
                  "encodeURI": 12.0, "btoa": 2.0}

#: :meth:`AbstractMachine._summarise_call`'s answer when a builtin may
#: run on the sandbox's own path
_RUN_CONCRETELY = object()

_INT32 = Interval(-2147483648.0, 2147483647.0)
_UINT32 = Interval(0.0, 4294967295.0)


def _is_opaque(value: Any) -> bool:
    return isinstance(value, (OpaqueElement, OpaqueNodeList))


def _primitive_like(value: Any) -> bool:
    if value is None or value is UNDEFINED:
        return True
    return isinstance(value, (str, float, bool, int, AbstractValue))


def _function_like(value: Any) -> bool:
    return isinstance(value, (JSFunction, NativeFunction)) or callable(value)


def _peek(env: Environment, name: str) -> Any:
    """``name``'s value without recording a read (UNDEFINED if unbound)."""
    scope = env.find(name)
    return scope.vars[name] if scope is not None else UNDEFINED


def _same_abstract(a: Any, b: Any) -> bool:
    """Lattice equality for the widening fixpoint check."""
    if a is b:
        return True
    if isinstance(a, AbstractValue) and isinstance(b, AbstractValue):
        return (a.kind == b.kind and a.interval == b.interval
                and a.max_len == b.max_len)
    if isinstance(a, AbstractValue) or isinstance(b, AbstractValue):
        return False
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, (str, bool, int)):
        return a == b
    return a is b


def _widen_plan(node: N.Node) -> List[str]:
    """Names a widened loop may mutate; aborts on any effectful body.

    The widening passes re-run the loop body several times, so the body
    must be pure over local primitive state: no calls, no object or
    member mutation, no control transfers out of the loop.  The names
    are listed in the order of a right-to-left stack walk of the loop.
    """
    index = AstIndex(node)
    names_at: Dict[int, List[str]] = {}
    for position, current in enumerate(index.nodes):
        if isinstance(current, (N.Call, N.New, N.FunctionDecl,
                                N.FunctionExpr, N.Throw, N.Return, N.Try)):
            raise _Abort("loop-effects")
        if isinstance(current, N.Unary) and current.operator == "delete":
            raise _Abort("loop-effects")
        if isinstance(current, N.Assignment):
            if not isinstance(current.target, N.Identifier):
                raise _Abort("loop-effects")
            names_at[position] = [current.target.name]
        elif isinstance(current, N.Update):
            if not isinstance(current.argument, N.Identifier):
                raise _Abort("loop-effects")
            names_at[position] = [current.argument.name]
        elif isinstance(current, N.VarDecl):
            names_at[position] = [name for name, _init in current.declarations]
        elif isinstance(current, N.ForIn) and isinstance(current.target, str):
            names_at[position] = [current.target]
    return [name for position in index.stack_order(names_at)
            for name in names_at[position]]


class AbstractMachine(Interpreter):
    """The sandbox interpreter, run over abstract values.

    Statements, expressions, scopes, hoisting, calls and ``eval`` are
    :class:`~repro.jsengine.interpreter.Interpreter`'s own, so concrete
    values take exactly the sandbox's paths and the step count matches
    tick for tick.  The machine overrides only the evaluator's value
    hooks, where an abstract value (:mod:`repro.staticjs.domains`) or an
    opaque page object could change the path: each takes the domain
    path, or raises :class:`_Abort` when the sandbox's behaviour cannot
    be known.
    """

    def __init__(self, **options: Any) -> None:
        """``options`` are :class:`Interpreter`'s; :class:`AbstractHost`
        builds the machine as the sandbox host builds its interpreter."""
        self.call_depth = 0
        self.call_depth_limit = _CALL_DEPTH_DEFAULT
        self.decoders_used: Set[str] = set()
        self.widenings = 0
        self.widened_heads: List[int] = []
        self.incomplete_reasons: List[str] = []
        self.call_graph: Optional[CallGraph] = None
        self._program: Optional[N.Program] = None
        self._loop_heads: Optional[Dict[int, int]] = None
        self.global_reads: Set[str] = set()
        self.global_writes: Set[str] = set()
        super().__init__(**options)
        bindings = self.global_env.vars
        math_obj = bindings.get("Math")
        if isinstance(math_obj, JSObject):
            math_obj.properties["random"] = HostNative(
                "Math.random", lambda: number(Interval(0.0, 1.0)))
        bindings["eval"] = HostNative("eval", self._eval_builtin)

    def track_globals(self) -> None:
        """From here the global scope records the script's reads and
        writes; the bindings installed so far are pre-script state."""
        scope = _Scope()
        scope.vars = self.global_env.vars
        scope.reads, scope.writes = self.global_reads, self.global_writes
        self.global_env = scope

    def _compile(self, source: str) -> N.Program:
        """The cached AST, without counting a compile, within the
        machine's AST depth bound.  The first program compiled is the
        script itself, which the host runs next: its call graph sets the
        call-depth cap."""
        program = parse_reusing(source, self.compile_cache)
        index = ast_index(source, program, self.compile_cache)
        if index.max_depth > _MAX_AST_DEPTH:
            raise _Abort("ast-depth")
        if self._program is None:
            self._program = program
            self.call_graph = build_call_graph(program, index=index)
            self.call_depth_limit = recursion_limit_for(
                self.call_graph, default=_CALL_DEPTH_DEFAULT,
                recursive_cap=_CALL_DEPTH_RECURSIVE)
        return program

    def _eval_builtin(self, source: Any = UNDEFINED, *_: Any) -> Any:
        if is_abstract(source):
            raise _Abort("abstract-eval")
        if isinstance(source, str) and self.eval_depth >= _MAX_EVAL_DEPTH:
            self.eval_log.append(source)
            raise _Abort("eval-depth")
        return super()._eval_builtin(source)

    # -- guards ------------------------------------------------------------
    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.step_budget:
            raise _Abort("step-budget")

    def _loop_head(self, node: N.Node) -> int:
        if self._loop_heads is None:
            heads: Dict[int, int] = {}
            try:
                if self._program is not None:
                    heads.update(
                        cfgmod.build_cfg(self._program.body).loop_head_of)
                if self.call_graph is not None:
                    for fn_node in self.call_graph.functions.values():
                        heads.update(
                            cfgmod.build_cfg(fn_node.body).loop_head_of)
            except Exception:  # noqa: BLE001 - diagnostics only
                pass
            self._loop_heads = heads
        return self._loop_heads.get(id(node), -1)

    # -- functions ----------------------------------------------------------
    def call_function(self, fn: Any, args: List[Any],
                      this: Any = UNDEFINED) -> Any:
        if is_abstract(fn) or _is_opaque(fn):
            raise _Abort("abstract-callee")
        if isinstance(fn, JSFunction):
            if self.call_depth >= self.call_depth_limit:
                raise _Abort("call-depth")
            self.call_depth += 1
            try:
                return super().call_function(fn, args, this)
            finally:
                self.call_depth -= 1
        if callable(fn) and not isinstance(fn, _HOST_CALLABLES):
            summary = self._summarise_call(fn, args, this)
            if summary is not _RUN_CONCRETELY:
                return summary
        return super().call_function(fn, args, this)

    def _summarise_call(self, fn: Any, args: List[Any], this: Any) -> Any:
        """A builtin's result on abstract arguments or receiver, or
        :data:`_RUN_CONCRETELY` when the sandbox's call can run as is."""
        if not isinstance(fn, NativeFunction):
            # host constructors and _CallableWithProps
            if any(_nodelist_tainted(arg) for arg in args):
                raise _Abort("opaque-nodelist")
            if not any(contains_abstract(arg) for arg in args):
                return _RUN_CONCRETELY
            _check_join_bounds(args)
            name = getattr(fn, "name", "")
            if name == "String":
                # total: refine the length bound when the input is a string
                first = args[0] if args else UNDEFINED
                if is_abstract(first) and first.kind == "string":
                    return string(first.max_len)
                return STR_TOP
            kind = _PURE_GLOBAL_KIND.get(name)
            if kind is not None:
                return kind
            raise _Abort("abstract-native")
        name = fn.name
        if name in ("Function.call", "Function.apply"):
            # pass-through: the wrapped JSFunction executes on this machine
            return _RUN_CONCRETELY
        receiver = isinstance(this, (JSArray, JSObject))
        if any(_nodelist_tainted(arg) for arg in args) or (
                receiver and _nodelist_tainted(this)):
            raise _Abort("opaque-nodelist")
        args_abstract = any(contains_abstract(arg) for arg in args)
        if not args_abstract and not (receiver and contains_abstract(this)):
            if name in DECODER_NAMES:
                # a decoder run concretely is a deobfuscation step
                self.decoders_used.add(name)
            return _RUN_CONCRETELY
        return self._summarise_native(name, args, this, args_abstract)

    def _summarise_native(self, name: str, args: List[Any], this: Any,
                          args_abstract: bool) -> Any:
        if isinstance(this, JSArray):
            # structural array ops never coerce the (abstract) elements,
            # and forEach/map only feed them through this machine's own
            # call_function, which is abstract-aware
            if name in ("Array.push", "Array.unshift", "Array.pop",
                        "Array.shift", "Array.reverse", "Array.forEach",
                        "Array.map"):
                return _RUN_CONCRETELY
            if name in ("Array.slice", "Array.concat"):
                if not args_abstract:
                    return _RUN_CONCRETELY
                return TOP
            if name in ("Array.join", "Array.toString"):
                bound = _join_bound(this, args[0] if name == "Array.join" and args else UNDEFINED)
                if bound is None or bound > MAX_STRING_LENGTH:
                    raise _Abort("string-bound")  # the sandbox may refuse the join
                return string(bound)
            if name == "Array.indexOf":
                return NUM_TOP
            # sort/filter coerce element/callback results concretely
            raise _Abort("abstract-native")
        _check_join_bounds(args)
        if any(_function_like(arg) for arg in args):
            raise _Abort("abstract-callback")
        if name.startswith("String."):
            method = name[len("String."):]
            bound = float(len(this)) if isinstance(this, str) else (
                this.max_len if is_abstract(this) and this.kind == "string"
                else _INF)
            return self._abstract_string_method(method, bound, args)
        if name.startswith("Number."):
            method = name[len("Number."):]
            return self._abstract_number_method(method, args)
        if name.startswith("Math."):
            return NUM_TOP
        if name == "Error":
            return JSObject({"message": STR_TOP})
        if name in _DECODE_BOUNDED or name in _ENCODE_FACTOR:
            first = args[0] if args else UNDEFINED
            source_bound = _bound_str(first)
            if source_bound is None:
                return STR_TOP
            factor = _ENCODE_FACTOR.get(name, 1.0)
            return string(source_bound * factor)
        if name == "Number":
            first = args[0] if args else UNDEFINED
            return number(self._num_interval(first))
        kind = _PURE_GLOBAL_KIND.get(name)
        if kind is not None:
            return kind
        raise _Abort("abstract-native")

    def _construct(self, callee: Any, args: List[Any]) -> Any:
        if is_abstract(callee):
            raise _Abort("abstract-callee")
        return super()._construct(callee, args)

    def _constructed(self, result: Any, instance: JSObject) -> Any:
        if is_abstract(result) and result.kind not in (
                "number", "string", "boolean"):
            raise _Abort("abstract-new")
        return super()._constructed(result, instance)

    # -- control flow ------------------------------------------------------
    def _truthy(self, value: Any) -> bool:
        """to_boolean of a branch test; every non-abstract value —
        including opaque page elements, which are objects on both sides —
        has a concrete truth value."""
        if is_abstract(value):
            raise _Abort("abstract-branch")
        return super()._truthy(value)

    def _loop_test(self, node: N.Node, env: Environment, value: Any,
                   iterations: int) -> bool:
        """An abstract test, or a test passing after the concrete
        unrolling budget, widens the loop and leaves it."""
        if is_abstract(value) or (iterations >= MAX_UNROLL
                                  and super()._loop_test(node, env, value,
                                                         iterations)):
            self._widen_loop(node, env)
            return False
        return super()._loop_test(node, env, value, iterations)

    def _for_in_keys(self, obj: Any) -> List[str]:
        if isinstance(obj, OpaqueNodeList):
            # the sandbox iterates the (unknown) element indices
            raise _Abort("opaque-forin")
        if is_abstract(obj):
            raise _Abort("abstract-forin")
        keys = super()._for_in_keys(obj)
        if len(keys) > MAX_UNROLL:
            raise _Abort("loop-budget")
        return keys

    def _thrown(self, value: Any) -> Any:
        if contains_abstract(value) or _nodelist_tainted(value):
            # JSException stringifies its value eagerly
            raise _Abort("abstract-throw")
        return super()._thrown(value)

    # -- widening ----------------------------------------------------------
    def _widen_loop(self, node: N.Node, env: Environment) -> None:
        """Abstract fixpoint for a loop the concrete unrolling gave up on.

        Joins/widens every name the (effect-free) body assigns until the
        state is stable, so code after the loop still executes — with the
        loop's outputs as abstract values — and payload recovery keeps
        working.  Always marks the effect summary incomplete.
        """
        self.widenings += 1
        self.widened_heads.append(self._loop_head(node))
        if "widened-loop" not in self.incomplete_reasons:
            self.incomplete_reasons.append("widened-loop")
        names = _widen_plan(node)
        update = node.update if isinstance(node, N.For) else None
        for _pass in range(MAX_WIDEN_PASSES):
            before = {name: _peek(env, name) for name in names}
            self._tick()
            broke = False
            try:
                self._exec(node.body, env)
            except _Break:
                broke = True
            except _Continue:
                pass
            except JSException:
                raise _Abort("widen-throw")
            if not broke and update is not None:
                self._eval(update, env)
            stable = True
            for name in names:
                previous = before[name]
                current = _peek(env, name)
                if (not _primitive_like(previous)
                        or not _primitive_like(current)):
                    raise _Abort("widen-object")
                widened = widen_values(previous, current)
                if not _same_abstract(widened, previous):
                    stable = False
                env.assign(name, widened)
            if stable or broke:
                break

    # -- member access ------------------------------------------------------
    def _member_key(self, raw: Any) -> Any:
        """A computed key; TOP stands for one the machine cannot know."""
        if contains_abstract(raw):
            _check_join_bounds((raw,))  # the sandbox stringifies the key
            return TOP
        return self._to_string(raw)

    def _to_string(self, value: Any) -> str:
        """to_string for values whose string form the machine can know."""
        if contains_abstract(value):
            raise _Abort("abstract-string")
        if _nodelist_tainted(value):
            # the sandbox would join the (unknown) node list's elements
            raise _Abort("opaque-nodelist")
        return super()._to_string(value)

    def _get_member(self, obj: Any, prop: Any) -> Any:
        if is_abstract(prop):
            return self._abstract_key_read(obj)
        if is_abstract(obj):
            return self._abstract_member_read(obj, prop)
        return super()._get_member(obj, prop)

    def _get_method(self, obj: Any, prop: Any) -> Any:
        if is_abstract(prop):
            raise _Abort("abstract-callee")
        return self._get_member(obj, prop)

    def _set_member(self, obj: Any, prop: Any, value: Any) -> None:
        if is_abstract(prop):
            # an unknown key may hit any property (incl. on*)
            raise _Abort("abstract-key")
        if is_abstract(obj):
            if obj.kind in ("number", "string", "boolean"):
                return  # primitives have no js_set: silent no-op
            # TOP may alias a machine-created object (e.g. arr[i]
            # with abstract i) — the write would be lost
            raise _Abort("abstract-receiver")
        if (isinstance(obj, JSArray) and prop == "length"
                and contains_abstract(value)):
            raise _Abort("abstract-length")
        super()._set_member(obj, prop, value)

    def _delete_member(self, obj: Any, prop: Any) -> None:
        if is_abstract(prop):
            raise _Abort("abstract-key")
        if is_abstract(obj):
            if obj.kind in ("number", "string", "boolean"):
                return  # primitives: delete is a no-op
            raise _Abort("abstract-receiver")
        super()._delete_member(obj, prop)

    def _abstract_key_read(self, obj: Any) -> Any:
        """obj[key] with an abstract key: the result is unknown but the
        read must be side-effect free on both sides."""
        if is_abstract(obj):
            if obj.kind == "top":
                raise _Abort("abstract-receiver")
            return TOP  # string/number/boolean member reads never throw
        if isinstance(obj, (OpaqueElement, AbstractElement)):
            # an on* read materialises the element's handler table in
            # the sandbox — an ordering-observable side effect
            raise _Abort("abstract-key")
        if isinstance(obj, (AbstractDocument, _WindowObject)):
            raise _Abort("abstract-key")
        if isinstance(obj, AbstractLocation):
            return TOP
        if obj is None or obj is UNDEFINED:
            raise _Abort("abstract-key")  # the TypeError names the key
        return TOP

    def _abstract_member_read(self, obj: AbstractValue, prop: str) -> Any:
        """A member of an unknown primitive: the sandbox's builtins
        decide which members are methods."""
        if obj.kind == "string":
            if prop == "length":
                return number(Interval(0.0, obj.max_len))
            if isinstance(get_member(None, "", prop), NativeFunction):
                return HostNative(
                    "String.%s" % prop,
                    lambda *args, _p=prop, _b=obj.max_len:
                        self._abstract_string_method(_p, _b, list(args)))
            index = array_index(prop)
            if index is not None and index < obj.max_len:
                return TOP  # one character, or undefined past the end
            return UNDEFINED
        if obj.kind == "number":
            if isinstance(get_member(None, 0.0, prop), NativeFunction):
                return HostNative(
                    "Number.%s" % prop,
                    lambda *args, _p=prop:
                        self._abstract_number_method(_p, list(args)))
            return UNDEFINED
        if obj.kind == "boolean":
            return UNDEFINED  # get_member has no branch for bools
        raise _Abort("abstract-receiver")

    def _abstract_string_method(self, method: str, bound: float,
                                args: List[Any]) -> Any:
        _check_join_bounds(args)
        if method == "charAt":
            return string(1.0)
        if method in ("charCodeAt", "indexOf", "lastIndexOf"):
            return NUM_TOP
        if method in ("substring", "substr", "slice", "toLowerCase",
                      "toUpperCase", "trim", "toString"):
            return string(bound)
        if method == "split":
            return TOP
        if method in ("replace", "concat"):
            if method == "replace" and len(args) > 1 and _function_like(args[1]):
                raise _Abort("abstract-callback")
            total = bound
            for arg in (args if method == "concat" else args[:2]):
                piece = _bound_str(arg)
                total = _INF if piece is None else total + piece
            if method == "concat" and total > MAX_STRING_LENGTH:
                raise _Abort("string-bound")  # the sandbox may refuse the result
            return STR_TOP if total == _INF else string(total)
        raise _Abort("abstract-native")

    def _abstract_number_method(self, method: str, args: List[Any]) -> Any:
        """``toString``/``toFixed`` on an unknown number: the receiver
        picks only the digits, so the builtin run on any number throws
        the sandbox's RangeError for a radix or digit count out of range."""
        if any(contains_abstract(arg) for arg in args):
            raise _Abort("abstract-native")
        get_member(self, 0.0, method)(*args)
        return STR_TOP


    # -- operators ----------------------------------------------------------
    def _num_interval(self, value: Any) -> Interval:
        """Interval covering to_number(value) (NaN always admitted)."""
        if isinstance(value, AbstractValue):
            if value.kind == "number":
                return value.interval
            if value.kind == "boolean":
                return Interval(0.0, 1.0)
            return Interval.top()
        if contains_abstract(value):  # e.g. an array holding an unknown
            return Interval.top()
        return Interval.const(to_number(value))

    def _unary(self, operator: str, value: Any) -> Any:
        if operator == "typeof":
            if is_abstract(value):
                if value.kind in ("number", "string", "boolean"):
                    return value.kind
                return string(9.0)  # longest possible: "undefined"
            return super()._unary(operator, value)
        if _nodelist_tainted(value):
            raise _Abort("opaque-nodelist")
        if not is_abstract(value) and (operator in ("!", "void")
                                       or not contains_abstract(value)):
            return super()._unary(operator, value)
        if operator == "!":
            return BOOL_TOP
        if operator == "-":
            return number(self._num_interval(value).neg())
        if operator == "+":
            return number(self._num_interval(value))
        if operator == "~":
            return number(_INT32)
        if operator == "void":
            return UNDEFINED
        raise JSException("unsupported unary %s" % operator)

    def _increment(self, operator: str, value: Any) -> Tuple[Any, Any]:
        if _nodelist_tainted(value):
            raise _Abort("opaque-nodelist")
        if not contains_abstract(value):
            return super()._increment(operator, value)
        old = number(self._num_interval(value))
        delta = Interval.const(1.0 if operator == "++" else -1.0)
        return old, number(old.interval.add(delta))

    def _eval_binary(self, operator: str, left: Any, right: Any) -> Any:
        if operator in ("==", "!=", "===", "!=="):
            if self._equality_unknown(operator, left, right):
                if operator in ("==", "!="):
                    _check_join_bounds((left, right))
                return BOOL_TOP
        elif _nodelist_tainted(left) or _nodelist_tainted(right):
            # to_string/to_number of a node list needs its elements
            raise _Abort("opaque-nodelist")
        elif contains_abstract(left) or contains_abstract(right):
            return self._binary_abstract(operator, left, right)
        return super()._eval_binary(operator, left, right)

    def _equality_unknown(self, operator: str, left: Any, right: Any) -> bool:
        if _is_opaque(left) or _is_opaque(right):
            if left is not right:
                if _is_opaque(left) and _is_opaque(right):
                    # two wrappers may denote the same page element
                    return True
                loose = operator in ("==", "!=")
                nodelist = (isinstance(left, OpaqueNodeList)
                            or isinstance(right, OpaqueNodeList))
                other = right if _is_opaque(left) else left
                if loose and nodelist and isinstance(other, (str, float,
                                                             int, bool)):
                    raise _Abort("opaque-nodelist")
        return contains_abstract(left) or contains_abstract(right)

    def _binary_abstract(self, operator: str, left: Any, right: Any) -> Any:
        if operator == "+":
            return self._abstract_plus(left, right)
        if operator in ("-", "*"):
            left_iv = self._num_interval(left)
            right_iv = self._num_interval(right)
            if operator == "-":
                return number(left_iv.sub(right_iv))
            return number(left_iv.mul(right_iv))
        if operator in ("/", "%"):
            return NUM_TOP
        if operator in ("<", ">", "<=", ">="):
            return BOOL_TOP
        if operator in ("&", "|", "^", "<<", ">>"):
            return number(_INT32)
        if operator == ">>>":
            return number(_UINT32)
        if operator == "instanceof":
            if is_abstract(left):
                if left.kind in ("number", "string", "boolean"):
                    return False  # primitives are never instances
                return BOOL_TOP
            return isinstance(left, (JSObject, JSFunction))
        if operator == "in":
            _check_join_bounds((left,))  # the key is the left side as a string
            if is_abstract(right):
                if right.kind in ("number", "string", "boolean"):
                    return False  # the sandbox requires a JSObject
                return BOOL_TOP
            if isinstance(right, JSObject):
                return BOOL_TOP  # membership of an unknown key
            return False
        raise JSException("unsupported operator %s" % operator)

    def _abstract_plus(self, left: Any, right: Any) -> Any:
        left_top = is_abstract(left) and left.kind == "top"
        right_top = is_abstract(right) and right.kind == "top"
        if left_top or right_top:
            raise _Abort("top-plus")  # string-vs-number is undecidable
        forced_string = (
            isinstance(left, (str, JSObject, JSArray))
            or isinstance(right, (str, JSObject, JSArray))
            or (is_abstract(left) and left.kind == "string")
            or (is_abstract(right) and right.kind == "string"))
        if forced_string:
            left_bound = _bound_str(left)
            right_bound = _bound_str(right)
            if left_bound is None or right_bound is None:
                # cannot prove the sandbox's allocation guard is safe
                raise _Abort("string-bound")
            total = left_bound + right_bound
            if total > MAX_STRING_LENGTH:
                raise _Abort("string-bound")
            return string(total)
        return number(self._num_interval(left).add(self._num_interval(right)))


def _nodelist_tainted(value: Any, _seen: Optional[Set[int]] = None) -> bool:
    """True when stringifying/numbering ``value`` would need the
    elements of an opaque page node list (to_string recurses through
    JSArrays)."""
    if isinstance(value, OpaqueNodeList):
        return True
    if isinstance(value, JSArray):
        seen = _seen if _seen is not None else set()
        if id(value) in seen:
            return False
        seen.add(id(value))
        return any(_nodelist_tainted(el, seen) for el in value.elements)
    return False


def _bound_str(value: Any) -> Optional[float]:
    """Upper bound on len(to_string(value)), or None when unbounded."""
    if isinstance(value, AbstractValue):
        if value.kind == "string":
            return value.max_len if value.max_len != _INF else None
        if value.kind == "number":
            return 24.0  # repr of any double fits well under this
        if value.kind == "boolean":
            return 5.0  # "false"
        return None
    if isinstance(value, (JSArray, JSObject)):
        if contains_abstract(value) or _nodelist_tainted(value):
            return None
        return float(len(to_string(value)))
    try:
        return float(len(to_string(value)))
    except _Abort:
        return None


def _check_join_bounds(values: Iterable[Any]) -> None:
    """Abort unless every array among ``values`` that holds an unknown
    value provably stringifies within ``MAX_STRING_LENGTH``: a builtin or
    a loose comparison that coerces it would otherwise hit the sandbox's
    join bound where the summary computes a value."""
    for value in values:
        if isinstance(value, JSArray) and contains_abstract(value):
            bound = _join_bound(value, UNDEFINED)
            if bound is None or bound > MAX_STRING_LENGTH:
                raise _Abort("string-bound")


def _join_bound(array: JSArray, separator: Any) -> Optional[float]:
    """Upper bound on len(array.join(separator)), or None when unbounded."""
    sep = 1.0 if separator is UNDEFINED else _bound_str(separator)
    if sep is None:
        return None
    total = sep * max(len(array.elements) - 1, 0)
    for element in array.elements:
        piece = 0.0 if element is None or element is UNDEFINED else _bound_str(element)
        if piece is None:
            return None
        total += piece
    return total


# ---------------------------------------------------------------------------
# the host


class AbstractHost(BrowserHost):
    """:class:`BrowserHost` over a page the analysis cannot see.

    Everything the real host would read from the concrete page is
    abstract (opaque elements, unknown URL); everything the script
    itself constructs is concrete and runs on the sandbox's own host
    code.  Effects accumulate into one :class:`_PhaseLog` per lifecycle
    phase, so the page scanner can interleave several scripts' effects
    in lifecycle order.
    """

    interpreter_class = AbstractMachine
    log_class = _PhaseLog
    native = HostNative
    element_class = AbstractElement
    document_class = AbstractDocument
    location_class = AbstractLocation

    def __init__(self, compile_cache: Optional[CompileCache] = None) -> None:
        # compile_cache is the pipeline's AST memo: every source the
        # machine runs (the script, written inline scripts, timer
        # strings, eval payloads) reuses a cached AST and is parsed
        # afresh only when uncached
        super().__init__(step_budget=MACHINE_STEP_LIMIT, compile_cache=compile_cache)
        self.phases: List[_PhaseLog] = [self.log]
        self.doc_handler_events: Set[str] = set()
        self.doc_handler_reads: Set[str] = set()
        self.element_handler_events: Set[str] = set()
        self.element_handler_reads: Set[str] = set()
        self.opaque_element_handler_events: Set[str] = set()
        #: event -> id(token) of the first opaque wrapper registering it
        self._opaque_handler_owner: Dict[str, int] = {}
        self.cookie_read = False
        #: targets in first-seen order (a dict as an ordered set)
        self._redirects: Dict[str, None] = {}
        self._attached: Set[int] = set()
        self.interpreter.track_globals()

    def new_phase(self, name: str) -> None:
        self.log = _PhaseLog(name=name)
        self.phases.append(self.log)

    # -- lifecycle ---------------------------------------------------------
    def simulate(self, source: str) -> AbstractEffects:
        """Run ``source`` and fire :data:`EVENT_PHASES`, as
        :func:`repro.jsengine.hostenv.run_script_in_page` does."""
        machine = self.interpreter
        reasons: List[str] = []
        phase_start = 0
        try:
            self.run_script(source)
            for event in EVENT_PHASES:
                self.log.steps = machine.steps - phase_start
                phase_start = machine.steps
                self.new_phase(event)
                self.fire_event("document", event)
        except _Abort as abort:
            reasons.append(abort.reason)
        except RecursionError:
            reasons.append("python-depth")
        self.log.steps = machine.steps - phase_start
        reasons.extend(machine.incomplete_reasons)
        graph = machine.call_graph
        return AbstractEffects(
            complete=not reasons,
            reasons=reasons,
            phases=[PhaseEffects(log) for log in self.phases],
            global_reads=machine.global_reads,
            global_writes=machine.global_writes,
            doc_handler_events=self.doc_handler_events,
            doc_handler_reads=self.doc_handler_reads,
            element_handler_events=self.element_handler_events,
            element_handler_reads=self.element_handler_reads,
            opaque_element_handler_events=self.opaque_element_handler_events,
            cookie_read=self.cookie_read,
            cookie_written=any(log.cookies_set for log in self.phases),
            steps=machine.steps,
            widenings=machine.widenings,
            widened_heads=machine.widened_heads,
            eval_sources=machine.eval_log,
            max_eval_depth=machine.max_eval_depth,
            redirect_targets=list(self._redirects),
            decoders_used=machine.decoders_used,
            call_edges=graph.edge_count if graph else 0,
            recursive_functions=len(graph.recursive) if graph else 0,
        )

    # -- BrowserHost override points ----------------------------------------
    def text(self, value: Any, point: str) -> str:
        if contains_abstract(value):
            raise _Abort(point)
        return to_string(value)

    def number(self, value: Any) -> Any:
        return NUM_TOP if contains_abstract(value) else to_number(value)

    def navigate(self, target: str) -> Any:
        self.add_redirect(target)
        return super().navigate(target)

    def on_script_src(self, src: str) -> None:
        self.log.requested_scripts.append(src)

    def record_write(self, markup: str, to_body: bool) -> None:
        super().record_write(markup, to_body)
        self.log.writes_to_body.append(to_body)

    def record_error(self, exc: Exception, message: str) -> None:
        if isinstance(exc, RecursionError):
            # the sandbox's RecursionError depends on its caller's stack
            raise _Abort("python-depth") from None
        super().record_error(exc, message)

    def insert_child(self, parent: Element, child: Any,
                     index: Optional[int] = None) -> None:
        _check_child(child)
        super().insert_child(parent, child, index)

    def insert_node(self, parent: Element, node: Node,
                    index: Optional[int] = None) -> None:
        attached = isinstance(node, Element) and self.is_attached(parent)
        if attached and node.find("iframe") is not None:
            # an iframe would land at an unknown page position
            raise _Abort("opaque-iframe")
        super().insert_node(parent, node, index)
        if attached:
            self.mark_attached(node)

    def call_handler(self, handler: Any, args: List[Any]) -> Any:
        if contains_abstract(handler):
            # the real handler slot might hold anything, incl. UNDEFINED
            raise _Abort("abstract-handler")
        return super().call_handler(handler, args)

    def _timer_id(self) -> Any:
        # the page-cumulative timer count depends on other scripts
        return NUM_TOP

    # -- bookkeeping ---------------------------------------------------------
    def add_redirect(self, target: str) -> None:
        if target:
            self._redirects.setdefault(target)

    def register_opaque_handler(self, event: str, token_id: int) -> None:
        """Guard against two opaque wrappers aliasing one page element.

        The real host keeps one handler slot per (element, event): a
        second registration through a different wrapper of the *same*
        element overwrites the first, while the machine — which cannot
        prove the wrappers distinct — would fire both.  Only events the
        lifecycle actually fires can expose the difference (reads of
        ``on*`` slots on opaque elements abort separately).
        """
        owner = self._opaque_handler_owner.setdefault(event, token_id)
        if owner != token_id and event in EVENT_PHASES:
            raise _Abort("opaque-alias")

    def mark_attached(self, element: Element) -> None:
        for node in element.iter():
            self._attached.add(id(node))

    def is_attached(self, element: Element) -> bool:
        return id(element) in self._attached

    def attach_to_opaque(self, child: Any, parent: OpaqueElement) -> Any:
        """``appendChild``/``insertBefore`` under an unknown page node."""
        _check_child(child)
        if isinstance(child, AbstractElement):
            if child.element.find("iframe") is not None:
                # the iframe's page position (and hence its hidden/visible
                # classification) would be unknown
                raise _Abort("opaque-iframe")
            self.log.appended_elements.append(child.element.tag)
            self.mark_attached(child.element)
            child.opaque_parent = parent
        return child


def interpret_script(source: str,
                     compile_cache: Optional[CompileCache] = None) -> AbstractEffects:
    """Abstractly execute ``source`` and return its effect summary.

    Never raises for script-level problems: parse errors, sandbox-style
    runtime errors, and machine aborts all land in the summary (the
    first two as recorded errors, the last as ``complete=False`` with a
    reason).  ``compile_cache`` supplies already-compiled ASTs, including
    a stored compile error, which is recorded exactly as a fresh parse
    failing would record it.
    """
    return AbstractHost(compile_cache=compile_cache).simulate(source)
