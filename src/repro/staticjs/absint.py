"""Interprocedural abstract interpreter over the sandbox's JS AST.

The honeyclient sandbox (:mod:`repro.jsengine`) is the ground truth for
script behaviour, but running it dominates scan cost.  This module
re-executes scripts *abstractly* on the sandbox's own evaluator:
:class:`AbstractMachine` subclasses
:class:`repro.jsengine.interpreter.Interpreter`, so statements,
expressions, scopes, calls and ``eval`` run the same code with the
same coercions, step counts and error strings, and a change to JS
semantics lands in both at once.  Anything the static analysis cannot
know — the hosting page's DOM, ``Math.random``, timer ids — becomes an
element of the abstract domain in :mod:`repro.staticjs.domains`, and
the machine overrides only the interpreter's value hooks, where such a
value could change the path.  The host objects below mirror
:class:`repro.jsengine.hostenv.BrowserHost` over an unknown page.

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
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..htmlparse import Element, parse_fragment, serialize_children
from ..jsengine import nodes as N
from ..jsengine.builtins import _int_or
from ..jsengine.compilecache import CompileCache, parse_reusing
from ..jsengine.deobfuscate import DECODER_NAMES
from ..jsengine.interpreter import _Break, _Continue, Environment, Interpreter
from ..jsengine.values import (
    UNDEFINED,
    JSArray,
    JSException,
    JSFunction,
    JSObject,
    NativeFunction,
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

#: the sandbox's fixed wall clock (hostenv.BrowserHost.now_ms)
_NOW_MS = 1_420_070_400_000.0
_USER_AGENT = ("Mozilla/5.0 (Windows NT 6.1; rv:38.0) "
               "Gecko/20100101 Firefox/38.0")


class _Abort(Exception):
    """The machine cannot mirror the sandbox beyond this point."""

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

    _host_native = True


def _host_fn(name: str, fn: Callable[..., Any]) -> HostNative:
    return HostNative(name, fn)


# ---------------------------------------------------------------------------
# effect records


class _PhaseLog:
    """Mutable per-phase effect accumulator (one per lifecycle phase)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.navigations: List[str] = []
        self.popups: List[str] = []
        self.beacons: List[str] = []
        #: (markup, attached) — detached subtrees are invisible to the
        #: page's iframe scan, attached ones must be synthesized
        self.document_writes: List[Tuple[str, bool]] = []
        self.requested_scripts: List[str] = []
        self.listeners: List[Tuple[str, str]] = []
        self.created_elements: List[str] = []
        self.appended_elements: List[str] = []
        self.cookies_set: List[str] = []
        self.errors: List[str] = []
        self.timeouts_scheduled = 0
        self.steps = 0


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
        self.document_writes = tuple(log.document_writes)
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
# host mirror objects

_INF = float("inf")

#: method names :func:`repro.jsengine.builtins._array_member` implements;
#: calling one on an opaque node list needs the (unknown) elements
_ARRAY_NATIVE_NAMES = {
    "push", "pop", "shift", "unshift", "join", "indexOf", "slice",
    "splice", "concat", "reverse", "sort", "forEach", "map", "filter",
    "toString",
}


def _element_has_tag(element: Element, tag: str) -> bool:
    for node in element.iter():
        if node.tag == tag:
            return True
    return False


class _OpaqueStyle:
    """``style`` of a page element the analysis cannot see."""

    def __init__(self, host: "AbstractHost") -> None:
        self._host = host

    def js_get(self, name: str) -> Any:
        return STR_TOP

    def js_set(self, name: str, value: Any) -> None:
        # could hide or reveal a page iframe — classification unknown
        raise _Abort("opaque-style-write")

    def js_to_string(self) -> str:
        return "[object StyleObject]"


class _GuardedStyle:
    """Mirror of :class:`repro.jsengine.hostenv.StyleObject` for
    machine-created elements, with abstract-value guards."""

    def __init__(self, host: "AbstractHost", element: Element) -> None:
        self._host = host
        self._element = element

    def js_get(self, name: str) -> Any:
        css = _camel_to_css(name)
        value = self._element.style.get(css)
        return value if value is not None else ""

    def js_set(self, name: str, value: Any) -> None:
        text = self._host.concrete_text(value, "abstract-style")
        styles = self._element.style
        styles[_camel_to_css(name)] = text
        self._element.set(
            "style", "; ".join("%s: %s" % kv for kv in styles.items()))

    def js_to_string(self) -> str:
        return "[object StyleObject]"


def _camel_to_css(name: str) -> str:
    out: List[str] = []
    for ch in name:
        if ch.isupper():
            out.append("-")
            out.append(ch.lower())
        else:
            out.append(ch)
    return "".join(out)


class OpaqueElement:
    """A page element whose identity/content the analysis cannot see.

    Reads return abstract summaries; any mutation that could move,
    create, hide or reveal page content aborts the analysis.  Event
    handler registration is allowed (it is observable only through the
    listener log and the machine's own event dispatch).
    """

    def __init__(self, host: "AbstractHost", tag: Optional[str] = None) -> None:
        self._host = host
        self.tag = tag
        #: identity token for the handler-dict ordering mirror
        self._token = Element(tag if tag else "div")
        self._parent: Optional["OpaqueElement"] = None

    def js_to_string(self) -> str:
        return "[object DomElement]"

    def _handlers(self) -> Dict[str, Any]:
        return self._host.element_handlers.setdefault(id(self._token), {})

    def js_get(self, name: str) -> Any:
        if name == "tagName":
            return self.tag.upper() if self.tag else string(32.0)
        if name == "style":
            return _OpaqueStyle(self._host)
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
            return _host_fn("appendChild", self._append_child)
        if name == "insertBefore":
            return _host_fn("insertBefore", self._insert_before)
        if name == "removeChild":
            return _host_fn("removeChild", self._remove_child)
        if name == "setAttribute":
            return _host_fn("setAttribute", self._set_attribute)
        if name == "getAttribute":
            return _host_fn("getAttribute", lambda *a: TOP)
        if name == "getElementsByTagName":
            return _host_fn("getElementsByTagName", self._get_elements)
        if name == "addEventListener":
            return _host_fn("addEventListener", self._add_event_listener)
        if name == "attachEvent":
            return _host_fn("attachEvent", self._attach_event)
        if name == "click":
            return _host_fn("click", self._click)
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
            self._host.register_opaque_handler(name[2:], id(self._token))
            self._handlers()[name] = value
            self._host.add_listener(self.tag if self.tag else "*", name[2:],
                                    element=True, opaque=True)
            return
        raise _Abort("opaque-mutation")

    # -- methods ---------------------------------------------------------
    def _append_child(self, child: Any = UNDEFINED, *rest: Any) -> Any:
        return self._host.attach_to_opaque(child, self)

    def _insert_before(self, child: Any = UNDEFINED, ref: Any = UNDEFINED,
                       *rest: Any) -> Any:
        return self._host.attach_to_opaque(child, self)

    def _remove_child(self, child: Any = UNDEFINED, *rest: Any) -> Any:
        if isinstance(child, OpaqueElement) or child is TOP or (
                is_abstract(child) and child.kind == "top"):
            # detaching an unknown page node could remove an iframe
            raise _Abort("opaque-mutation")
        return child

    def _set_attribute(self, *args: Any) -> Any:
        raise _Abort("opaque-mutation")

    def _get_elements(self, tag: Any = UNDEFINED, *rest: Any) -> Any:
        known = tag if isinstance(tag, str) else None
        return OpaqueNodeList(self._host, tag=known)

    def _add_event_listener(self, event: Any = UNDEFINED,
                            handler: Any = UNDEFINED, *rest: Any) -> Any:
        name = self._host.concrete_text(event, "abstract-event")
        self._host.register_opaque_handler(name, id(self._token))
        self._host.add_listener(self.tag if self.tag else "*", name,
                                element=True, opaque=True)
        self._handlers()["on" + name] = handler
        return UNDEFINED

    def _attach_event(self, event: Any = UNDEFINED,
                      handler: Any = UNDEFINED) -> Any:
        name = self._host.concrete_text(event, "abstract-event")
        name = name[2:] if name.startswith("on") else name
        self._host.register_opaque_handler(name, id(self._token))
        self._host.add_listener(self.tag if self.tag else "*", name,
                                element=True, opaque=True)
        self._handlers()["on" + name] = handler
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


class AbstractElement:
    """Mirror of :class:`repro.jsengine.hostenv.DomElement` for elements
    the machine itself created — their subtree is fully concrete."""

    def __init__(self, host: "AbstractHost", element: Element) -> None:
        self._host = host
        self._element = element
        #: set when the element was appended under an unknown page node
        self.opaque_parent: Optional[OpaqueElement] = None

    @property
    def element(self) -> Element:
        return self._element

    def js_to_string(self) -> str:
        return "[object DomElement]"

    def _handlers(self) -> Dict[str, Any]:
        return self._host.element_handlers.setdefault(id(self._element), {})

    def js_get(self, name: str) -> Any:
        el = self._element
        host = self._host
        if name == "tagName":
            return el.tag.upper()
        if name == "id":
            return el.id
        if name == "style":
            return _GuardedStyle(host, el)
        if name == "innerHTML":
            return serialize_children(el)
        if name == "src":
            return el.get("src")
        if name == "href":
            return el.get("href")
        if name in ("width", "height"):
            return el.get(name)
        if name == "parentNode":
            if el.parent is not None and isinstance(el.parent, Element):
                return host.wrap(el.parent)
            if self.opaque_parent is not None:
                return self.opaque_parent
            return None
        if name == "children" or name == "childNodes":
            return JSArray([host.wrap(c) for c in el.children
                            if isinstance(c, Element)])
        if name == "firstChild":
            for child in el.children:
                if isinstance(child, Element):
                    return host.wrap(child)
            return None
        if name == "appendChild":
            return _host_fn("appendChild", self._append_child)
        if name == "insertBefore":
            return _host_fn("insertBefore", self._insert_before)
        if name == "removeChild":
            return _host_fn("removeChild", self._remove_child)
        if name == "setAttribute":
            return _host_fn("setAttribute", self._set_attribute)
        if name == "getAttribute":
            return _host_fn("getAttribute", self._get_attribute)
        if name == "getElementsByTagName":
            return _host_fn("getElementsByTagName", self._get_elements)
        if name == "addEventListener":
            return _host_fn("addEventListener", self._add_event_listener)
        if name == "attachEvent":
            return _host_fn("attachEvent", self._attach_event)
        if name == "click":
            return _host_fn("click", self._click)
        if name.startswith("on"):
            if host.is_attached(el):
                # an attached element is reachable through another
                # script's opaque wrappers, which may overwrite the slot
                host.element_handler_reads.add(name[2:])
            return self._handlers().get(name, UNDEFINED)
        if name == "textContent":
            return el.text_content()
        if name == "className":
            return el.get("class")
        return el.get(name) or UNDEFINED

    def js_set(self, name: str, value: Any) -> None:
        el = self._element
        host = self._host
        if name == "innerHTML":
            markup = host.concrete_text(value, "abstract-html")
            el.children = []
            fragment = parse_fragment(markup)
            if host.is_attached(el) and _element_has_tag(fragment, "iframe"):
                # an iframe would land at an unknown page position
                raise _Abort("opaque-iframe")
            for child in list(fragment.children):
                el.append(child)
            if host.is_attached(el):
                host.mark_attached(el)
            host.log.document_writes.append((markup, False))
            return
        if name == "src":
            text = host.concrete_text(value, "abstract-src")
            el.set("src", text)
            if el.tag == "img":
                host.log.beacons.append(text)
            if el.tag == "script":
                host.request_script(text)
            return
        if name in ("textContent", "innerText"):
            text = host.concrete_text(value, "abstract-text")
            el.children = []
            el.append_text(text)
            return
        if name == "className":
            el.set("class", host.concrete_text(value, "abstract-attr"))
            return
        if name.startswith("on"):
            self._handlers()[name] = value
            host.add_listener(el.tag, name[2:], element=True)
            return
        el.set(name, host.concrete_text(value, "abstract-attr"))

    # -- methods ---------------------------------------------------------
    def _append_child(self, child: Any = UNDEFINED, *rest: Any) -> Any:
        host = self._host
        if isinstance(child, AbstractElement):
            if host.is_attached(self._element) and _element_has_tag(
                    child.element, "iframe"):
                raise _Abort("opaque-iframe")
            self._element.append(child.element)
            host.log.appended_elements.append(child.element.tag)
            if host.is_attached(self._element):
                host.mark_attached(child.element)
        elif isinstance(child, OpaqueElement):
            raise _Abort("opaque-mutation")
        elif child is TOP or (is_abstract(child) and child.kind == "top"):
            raise _Abort("abstract-child")
        return child

    def _insert_before(self, child: Any = UNDEFINED, ref: Any = UNDEFINED,
                       *rest: Any) -> Any:
        host = self._host
        if isinstance(child, AbstractElement):
            if host.is_attached(self._element) and _element_has_tag(
                    child.element, "iframe"):
                raise _Abort("opaque-iframe")
            index = 0
            if (isinstance(ref, AbstractElement)
                    and ref.element in self._element.children):
                index = self._element.children.index(ref.element)
            self._element.insert(index, child.element)
            host.log.appended_elements.append(child.element.tag)
            if host.is_attached(self._element):
                host.mark_attached(child.element)
        elif isinstance(child, OpaqueElement):
            raise _Abort("opaque-mutation")
        elif child is TOP or (is_abstract(child) and child.kind == "top"):
            raise _Abort("abstract-child")
        return child

    def _remove_child(self, child: Any = UNDEFINED, *rest: Any) -> Any:
        if (isinstance(child, AbstractElement)
                and child.element in self._element.children):
            child.element.detach()
        return child

    def _set_attribute(self, name: Any = UNDEFINED,
                       value: Any = UNDEFINED) -> Any:
        host = self._host
        attr = host.concrete_text(name, "abstract-attr")
        text = host.concrete_text(value, "abstract-attr")
        self._element.set(attr, text)
        if attr == "src" and self._element.tag == "script":
            host.request_script(text)
        return UNDEFINED

    def _get_attribute(self, attr: Any = UNDEFINED) -> Any:
        if contains_abstract(attr):
            return TOP  # pure read of our own attrs under an unknown key
        return self._element.get(to_string(attr)) or None

    def _get_elements(self, tag: Any = UNDEFINED) -> Any:
        if contains_abstract(tag):
            return TOP  # pure: some subset of our own subtree
        return JSArray([self._host.wrap(e)
                        for e in self._element.find_all(to_string(tag))])

    def _add_event_listener(self, event: Any = UNDEFINED,
                            handler: Any = UNDEFINED, *rest: Any) -> Any:
        name = self._host.concrete_text(event, "abstract-event")
        self._host.add_listener(self._element.tag, name, element=True)
        self._handlers()["on" + name] = handler
        return UNDEFINED

    def _attach_event(self, event: Any = UNDEFINED,
                      handler: Any = UNDEFINED) -> Any:
        name = self._host.concrete_text(event, "abstract-event")
        name = name[2:] if name.startswith("on") else name
        self._host.add_listener(self._element.tag, name, element=True)
        self._handlers()["on" + name] = handler
        return UNDEFINED

    def _click(self) -> Any:
        href = self._element.get("href")
        if href:
            self._host.navigate(href)
        handler = self._handlers().get("onclick")
        if handler is not UNDEFINED and handler is not None:
            # mirrors DomElement._click: exceptions propagate to the
            # surrounding run_script/fire_event recovery
            self._host.machine.call_function(handler, [], this=self)
        return UNDEFINED


class AbstractLocation:
    """``window.location`` of an unknown page URL."""

    #: generous length bound for URL-derived strings — tight enough to
    #: prove the 2 MB allocation guard cannot fire
    URL_LEN = 65536.0

    def __init__(self, host: "AbstractHost") -> None:
        self._host = host

    def js_get(self, name: str) -> Any:
        if name in ("href", "hostname", "host", "protocol", "pathname",
                    "search"):
            return string(self.URL_LEN)
        if name == "replace" or name == "assign":
            return _host_fn(name, self._navigate)
        if name == "reload":
            return _host_fn("reload", lambda *a: UNDEFINED)
        if name == "toString":
            return _host_fn("toString", lambda: string(self.URL_LEN))
        return UNDEFINED

    def js_set(self, name: str, value: Any) -> None:
        if name == "href":
            self._navigate(value)

    def _navigate(self, target: Any = UNDEFINED) -> Any:
        self._host.navigate(self._host.concrete_text(target, "abstract-url"))
        return UNDEFINED

    def js_to_string(self) -> str:
        # the concrete URL is unknown; it cannot pass through to_string
        raise _Abort("location-string")


class AbstractDocument:
    """Mirror of :class:`repro.jsengine.hostenv.DocumentObject` over an
    unknown page tree."""

    def __init__(self, host: "AbstractHost") -> None:
        self._host = host
        self._body: Optional[OpaqueElement] = None
        self._head: Optional[OpaqueElement] = None
        self._html: Optional[OpaqueElement] = None

    def js_to_string(self) -> str:
        return "[object DocumentObject]"

    def _singleton(self, attr: str, tag: str) -> OpaqueElement:
        value = getattr(self, attr)
        if value is None:
            value = OpaqueElement(self._host, tag)
            setattr(self, attr, value)
        return value

    def js_get(self, name: str) -> Any:
        host = self._host
        if name == "write" or name == "writeln":
            return _host_fn("document.write", self._write)
        if name == "createElement":
            return _host_fn("createElement", self._create_element)
        if name == "getElementById":
            # resolves against the unknown page; even a miss is
            # observable (None is falsy)
            return _host_fn("getElementById", self._get_by_id)
        if name == "getElementsByTagName":
            return _host_fn("getElementsByTagName", self._get_elements)
        if name == "body":
            # parse() always synthesizes html/head/body, so these are
            # never None on a real page
            return self._singleton("_body", "body")
        if name == "head":
            return self._singleton("_head", "head")
        if name == "documentElement":
            return self._singleton("_html", "html")
        if name == "location":
            return host.location
        if name == "cookie":
            host.cookie_read = True
            return host.cookie
        if name == "referrer":
            return host.referrer
        if name == "title":
            return STR_TOP
        if name == "addEventListener":
            return _host_fn("addEventListener", self._add_event_listener)
        if name.startswith("on"):
            # visible to other scripts writing the same document slot
            host.doc_handler_reads.add(name[2:])
            return host.document_handlers.get(name, UNDEFINED)
        return UNDEFINED

    def js_set(self, name: str, value: Any) -> None:
        host = self._host
        if name == "cookie":
            text = host.concrete_text(value, "abstract-cookie")
            host.cookie = (host.cookie + "; " + text).strip("; ")
            host.log.cookies_set.append(text)
            host.cookie_written = True
            return
        if name == "title":
            # mutates only the page <title> text — invisible to analysis
            host.concrete_text(value, "abstract-title")
            return
        if name.startswith("on"):
            host.document_handlers[name] = value
            host.add_listener("document", name[2:], element=False)
            return

    def _write(self, *args: Any) -> Any:
        host = self._host
        markup = "".join(host.concrete_text(a, "abstract-write")
                         for a in args)
        host.log.document_writes.append((markup, True))
        fragment = parse_fragment(markup)
        for child in list(fragment.children):
            if isinstance(child, Element):
                for el in child.iter():
                    if el.tag == "script" and el.get("src"):
                        host.request_script(el.get("src"))
                    elif el.tag == "script":
                        host.pending_inline_scripts.append(el.text_content())
                    elif el.tag == "iframe" and el.get("src"):
                        host.add_redirect(el.get("src"))
        return UNDEFINED

    def _create_element(self, tag: Any = UNDEFINED) -> Any:
        host = self._host
        name = host.concrete_text(tag, "abstract-tag").lower()
        host.log.created_elements.append(name)
        return host.wrap(Element(name))

    def _get_by_id(self, element_id: Any = UNDEFINED) -> Any:
        raise _Abort("get-by-id")

    def _get_elements(self, tag: Any = UNDEFINED, *rest: Any) -> Any:
        known = tag if isinstance(tag, str) else None
        first = isinstance(tag, str) and tag.lower() == "script"
        return OpaqueNodeList(self._host, tag=known, first_known=first)

    def _add_event_listener(self, event: Any = UNDEFINED,
                            handler: Any = UNDEFINED, *rest: Any) -> Any:
        host = self._host
        name = host.concrete_text(event, "abstract-event")
        host.add_listener("document", name, element=False)
        host.document_handlers["on" + name] = handler
        return UNDEFINED


class AbstractImageConstructor:
    """``new Image()`` mirror."""

    _host_native = True

    def __init__(self, host: "AbstractHost") -> None:
        self._host = host
        self.name = "Image"

    def __call__(self, *args: Any) -> Any:
        return self._host.wrap(Element("img"))

    def js_get(self, name: str) -> Any:
        return UNDEFINED

    def js_set(self, name: str, value: Any) -> None:
        pass


class AbstractXhr(JSObject):
    """XMLHttpRequest mirror recording beacons."""

    def __init__(self, host: "AbstractHost") -> None:
        super().__init__()
        self._host = host
        self.properties["open"] = _host_fn("open", self._open)
        self.properties["send"] = _host_fn("send", lambda *a: UNDEFINED)
        self.properties["setRequestHeader"] = _host_fn(
            "setRequestHeader", lambda *a: UNDEFINED)
        self.properties["readyState"] = 4.0
        self.properties["status"] = 200.0
        self.properties["responseText"] = ""

    def _open(self, method: Any = UNDEFINED, url: Any = UNDEFINED,
              *rest: Any) -> Any:
        self._host.log.beacons.append(
            self._host.concrete_text(url, "abstract-url"))
        return UNDEFINED


class _AbstractWindow:
    """``window``: a view over the (tracked) global scope."""

    def __init__(self, host: "AbstractHost") -> None:
        self._host = host

    def js_get(self, name: str) -> Any:
        if name == "location":
            return self._host.location
        if name in ("window", "self", "top", "parent"):
            return self
        return self._host.machine.window_get(name)

    def js_set(self, name: str, value: Any) -> None:
        if name == "location":
            self._host.navigate(
                self._host.concrete_text(value, "abstract-url"))
            return
        self._host.machine.window_set(name, value)

    def js_to_string(self) -> str:
        return "[object Window]"


# ---------------------------------------------------------------------------
# abstract host


class AbstractHost:
    """Page-independent stand-in for :class:`BrowserHost`.

    Everything the real host would read from the concrete page is
    abstract (opaque elements, unknown URL); everything the script
    itself constructs is concrete and mirrored 1:1.  Effects accumulate
    into per-phase logs so the page scanner can interleave several
    scripts' effects in lifecycle order.
    """

    def __init__(self) -> None:
        self.machine: "AbstractMachine" = None  # type: ignore[assignment]
        self.phases: List[_PhaseLog] = []
        self.element_handlers: Dict[int, Dict[str, Any]] = {}
        self.document_handlers: Dict[str, Any] = {}
        self.pending_inline_scripts: List[str] = []
        self.doc_handler_events: Set[str] = set()
        self.doc_handler_reads: Set[str] = set()
        self.element_handler_events: Set[str] = set()
        self.element_handler_reads: Set[str] = set()
        self.opaque_element_handler_events: Set[str] = set()
        #: event -> id(token) of the first opaque wrapper registering it
        self._opaque_handler_owner: Dict[str, int] = {}
        self.cookie = ""
        self.cookie_read = False
        self.cookie_written = False
        self.referrer = ""
        self.now_ms = _NOW_MS
        self.redirect_targets: List[str] = []
        self._redirect_seen: Set[str] = set()
        self._wrappers: Dict[int, AbstractElement] = {}
        self._attached: Set[int] = set()
        self.location = AbstractLocation(self)
        self.document = AbstractDocument(self)
        self.new_phase("script")

    # -- phases ----------------------------------------------------------
    @property
    def log(self) -> _PhaseLog:
        return self.phases[-1]

    def new_phase(self, name: str) -> _PhaseLog:
        log = _PhaseLog(name)
        self.phases.append(log)
        return log

    # -- effect recording -------------------------------------------------
    def navigate(self, target: str) -> Any:
        self.log.navigations.append(target)
        self.add_redirect(target)
        return UNDEFINED

    def add_redirect(self, target: str) -> None:
        if target and target not in self._redirect_seen:
            self._redirect_seen.add(target)
            self.redirect_targets.append(target)

    def request_script(self, src: str) -> None:
        self.log.requested_scripts.append(src)

    def add_listener(self, target: str, event: str, element: bool,
                     opaque: bool = False) -> None:
        self.log.listeners.append((target, event))
        if element:
            self.element_handler_events.add(event)
            if opaque:
                self.opaque_element_handler_events.add(event)
        else:
            self.doc_handler_events.add(event)

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

    # -- guards and DOM bookkeeping ---------------------------------------
    def concrete_text(self, value: Any, reason: str) -> str:
        if contains_abstract(value):
            raise _Abort(reason)
        return to_string(value)

    def wrap(self, element: Optional[Element]) -> Any:
        if element is None:
            return None
        key = id(element)
        wrapper = self._wrappers.get(key)
        if wrapper is None:
            wrapper = AbstractElement(self, element)
            self._wrappers[key] = wrapper
        return wrapper

    def mark_attached(self, element: Element) -> None:
        for node in element.iter():
            self._attached.add(id(node))

    def is_attached(self, element: Element) -> bool:
        return id(element) in self._attached

    def attach_to_opaque(self, child: Any, parent: OpaqueElement) -> Any:
        """``appendChild``/``insertBefore`` under an unknown page node."""
        if isinstance(child, AbstractElement):
            if _element_has_tag(child.element, "iframe"):
                # the iframe's page position (and hence its hidden/visible
                # classification) would be unknown
                raise _Abort("opaque-iframe")
            self.log.appended_elements.append(child.element.tag)
            self.mark_attached(child.element)
            child.opaque_parent = parent
        elif isinstance(child, OpaqueElement):
            raise _Abort("opaque-mutation")
        elif child is TOP or (is_abstract(child) and child.kind == "top"):
            raise _Abort("abstract-child")
        return child


# ---------------------------------------------------------------------------
# the machine

#: string methods that are total (never throw) regardless of argument
#: values — safe to summarise on an abstract receiver
_STRING_METHODS = {
    "charAt", "charCodeAt", "indexOf", "lastIndexOf", "substring",
    "substr", "slice", "split", "replace", "toLowerCase", "toUpperCase",
    "concat", "trim", "toString",
}

#: result kind of a pure, *total* global builtin applied to abstract
#: args — every entry here was audited never to raise for any input
#: (parseInt/Math.floor/… are NOT total and get bespoke summaries)
_PURE_GLOBAL_KIND: Dict[str, AbstractValue] = {
    "String": STR_TOP,
    "Number": NUM_TOP,
    "Boolean": BOOL_TOP,
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

#: Math natives that are total (abs/max/min never raise; floor, ceil,
#: round, sqrt and pow raise ValueError/OverflowError on NaN/Infinity)
_TOTAL_MATH = {"Math.abs", "Math.max", "Math.min", "Math.random"}

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
    member mutation, no control transfers out of the loop.
    """
    names: List[str] = []
    stack: List[N.Node] = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, (N.Call, N.New, N.FunctionDecl,
                                N.FunctionExpr, N.Throw, N.Return, N.Try)):
            raise _Abort("loop-effects")
        if isinstance(current, N.Unary) and current.operator == "delete":
            raise _Abort("loop-effects")
        if isinstance(current, N.Assignment):
            if isinstance(current.target, N.Identifier):
                names.append(current.target.name)
            else:
                raise _Abort("loop-effects")
        if isinstance(current, N.Update):
            if isinstance(current.argument, N.Identifier):
                names.append(current.argument.name)
            else:
                raise _Abort("loop-effects")
        if isinstance(current, N.VarDecl):
            names.extend(name for name, _init in current.declarations)
        if isinstance(current, N.ForIn) and isinstance(current.target, str):
            names.append(current.target)
        stack.extend(current.children())
    return names


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

    def __init__(self, source: str,
                 compile_cache: Optional[CompileCache] = None) -> None:
        self.source = source
        self.host = AbstractHost()
        self.host.machine = self
        self.call_depth = 0
        self.call_depth_limit = _CALL_DEPTH_DEFAULT
        self.decoders_used: Set[str] = set()
        self.widenings = 0
        self.widened_heads: List[int] = []
        self.incomplete_reasons: List[str] = []
        self._call_graph: Optional[CallGraph] = None
        self._program: Optional[N.Program] = None
        self._loop_heads: Optional[Dict[int, int]] = None
        # compile_cache is the pipeline's AST memo: every source the
        # machine runs (the script, written inline scripts, timer
        # strings, eval payloads) reuses a cached AST and is parsed
        # afresh only when uncached
        super().__init__(host_globals=self._host_globals(),
                         step_budget=MACHINE_STEP_LIMIT,
                         compile_cache=compile_cache)
        bindings = self.global_env.vars
        math_obj = bindings.get("Math")
        if isinstance(math_obj, JSObject):
            math_obj.properties["random"] = _host_fn(
                "Math.random", lambda: number(Interval(0.0, 1.0)))
        bindings["eval"] = HostNative("eval", self._eval_builtin)
        # the bindings installed so far are pre-script state; from here
        # the global scope records the script's reads and writes
        self.global_reads: Set[str] = set()
        self.global_writes: Set[str] = set()
        scope = _Scope()
        scope.vars = bindings
        scope.reads, scope.writes = self.global_reads, self.global_writes
        self.global_env = scope

    # -- global environment -----------------------------------------------
    def _host_globals(self) -> Dict[str, Any]:
        host = self.host

        def window_open(url: Any = UNDEFINED, *rest: Any) -> Any:
            host.log.popups.append(host.concrete_text(url, "abstract-url"))
            return JSObject({"closed": False})

        def date_ctor(*args: Any) -> Any:
            if not args:
                value: Any = host.now_ms
            elif contains_abstract(args[0]):
                value = NUM_TOP
            else:
                value = to_number(args[0])
            return JSObject({
                "getTime": _host_fn("getTime", lambda *a: value),
                "valueOf": _host_fn("valueOf", lambda *a: value),
                "getFullYear": _host_fn("getFullYear", lambda *a: 2015.0),
                "toString": _host_fn("toString",
                                     lambda *a: "Thu Jan 01 2015"),
            })

        navigator = JSObject({
            "userAgent": _USER_AGENT,
            "platform": "Win32",
            "language": "en-US",
            "plugins": JSArray([JSObject({"name": "Shockwave Flash"})]),
        })
        screen = JSObject({"width": 1366.0, "height": 768.0,
                           "colorDepth": 24.0})
        window = _AbstractWindow(host)
        return {
            "document": host.document,
            "location": host.location,
            "navigator": navigator,
            "screen": screen,
            "open": _host_fn("open", window_open),
            "alert": _host_fn("alert", lambda *a: UNDEFINED),
            "confirm": _host_fn("confirm", lambda *a: True),
            "prompt": _host_fn("prompt", lambda *a: ""),
            "setTimeout": _host_fn("setTimeout", self._set_timeout),
            "setInterval": _host_fn("setInterval", self._set_timeout),
            "clearTimeout": _host_fn("clearTimeout", lambda *a: UNDEFINED),
            "clearInterval": _host_fn("clearInterval", lambda *a: UNDEFINED),
            "Image": AbstractImageConstructor(host),
            "XMLHttpRequest": _host_fn("XMLHttpRequest",
                                       lambda: AbstractXhr(host)),
            "Date": _host_fn("Date", date_ctor),
            "console": JSObject({"log": _host_fn("log",
                                                 lambda *a: UNDEFINED)}),
            "window": window,
            "self": window,
            "top": window,
            "parent": window,
        }

    def window_get(self, name: str) -> Any:
        """Mirror of _WindowObject.js_get over the (root) global scope."""
        self.global_reads.add(name)
        return self.global_env.vars.get(name, UNDEFINED)

    def window_set(self, name: str, value: Any) -> None:
        self.global_writes.add(name)
        self.global_env.vars[name] = value

    # -- lifecycle ---------------------------------------------------------
    def simulate(self) -> AbstractEffects:
        reasons: List[str] = []
        phase_start = 0
        try:
            self._run_script_phase(self.source)
            self.host.log.steps = self.steps - phase_start
            for event in EVENT_PHASES:
                phase_start = self.steps
                self.host.new_phase(event)
                self._fire_event(event)
                self.host.log.steps = self.steps - phase_start
        except _Abort as abort:
            reasons.append(abort.reason)
            self.host.log.steps = self.steps - phase_start
        except RecursionError:
            reasons.append("python-depth")
            self.host.log.steps = self.steps - phase_start
        reasons.extend(self.incomplete_reasons)
        graph = self._call_graph
        return AbstractEffects(
            complete=not reasons,
            reasons=reasons,
            phases=[PhaseEffects(log) for log in self.host.phases],
            global_reads=self.global_reads,
            global_writes=self.global_writes,
            doc_handler_events=self.host.doc_handler_events,
            doc_handler_reads=self.host.doc_handler_reads,
            element_handler_events=self.host.element_handler_events,
            element_handler_reads=self.host.element_handler_reads,
            opaque_element_handler_events=(
                self.host.opaque_element_handler_events),
            cookie_read=self.host.cookie_read,
            cookie_written=self.host.cookie_written,
            steps=self.steps,
            widenings=self.widenings,
            widened_heads=self.widened_heads,
            eval_sources=self.eval_log,
            max_eval_depth=self.max_eval_depth,
            redirect_targets=self.host.redirect_targets,
            decoders_used=self.decoders_used,
            call_edges=graph.edge_count if graph else 0,
            recursive_functions=len(graph.recursive) if graph else 0,
        )

    def _run_script_phase(self, source: str) -> None:
        """Mirror of BrowserHost.run_script (incl. the pending drain)."""
        self._run_recovered(source)
        while self.host.pending_inline_scripts:
            pending = self.host.pending_inline_scripts.pop(0)
            self._run_recovered(pending)

    def _run_recovered(self, source: str) -> None:
        try:
            self.run(source)
        except _Abort:
            raise
        except RecursionError:
            raise _Abort("python-depth")
        except Exception as exc:  # noqa: BLE001 - sandbox records errors
            self.host.log.errors.append("%s: %s" % (type(exc).__name__, exc))

    def _compile(self, source: str) -> N.Program:
        """The cached AST, without counting a compile, within the
        machine's AST depth bound."""
        program = parse_reusing(source, self.compile_cache)
        self._check_ast_depth(program.body)
        return program

    def run_program(self, program: N.Program) -> Any:
        if self._program is None:
            # the first program run is the script itself
            self._program = program
            self._call_graph = build_call_graph(program)
            self.call_depth_limit = recursion_limit_for(
                self._call_graph, default=_CALL_DEPTH_DEFAULT,
                recursive_cap=_CALL_DEPTH_RECURSIVE)
        return super().run_program(program)

    def _fire_event(self, event: str) -> None:
        """Mirror of BrowserHost.fire_event over the machine's handlers."""
        handler = self.host.document_handlers.get("on" + event)
        if handler is not None and handler is not UNDEFINED:
            self._fire_handler(handler, event)
        for handlers in list(self.host.element_handlers.values()):
            fn = handlers.get("on" + event)
            if fn is not None and fn is not UNDEFINED:
                self._fire_handler(fn, event)

    def _fire_handler(self, handler: Any, event: str) -> None:
        if contains_abstract(handler):
            # the real handler slot might hold anything, incl. UNDEFINED
            raise _Abort("abstract-handler")
        try:
            self.call_function(handler, [JSObject({"type": event})],
                               this=UNDEFINED)
        except _Abort:
            raise
        except RecursionError:
            raise _Abort("python-depth")
        except Exception as exc:  # noqa: BLE001
            self.host.log.errors.append("%s: %s" % (type(exc).__name__, exc))

    def _set_timeout(self, handler: Any = UNDEFINED, delay: Any = UNDEFINED,
                     *rest: Any) -> Any:
        self.host.log.timeouts_scheduled += 1
        if isinstance(handler, str):
            try:
                self.run(handler)
            except _Abort:
                raise
            except RecursionError:
                raise _Abort("python-depth")
            except Exception as exc:  # noqa: BLE001
                self.host.log.errors.append(str(exc))
        elif is_abstract(handler):
            raise _Abort("abstract-handler")
        elif handler is not UNDEFINED:
            try:
                self.call_function(handler, [], this=UNDEFINED)
            except _Abort:
                raise
            except RecursionError:
                raise _Abort("python-depth")
            except Exception as exc:  # noqa: BLE001
                self.host.log.errors.append(str(exc))
        # the real return value is the page-cumulative timer count, which
        # depends on other scripts — unknowable per-script
        return NUM_TOP

    def _eval_builtin(self, source: Any = UNDEFINED) -> Any:
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

    def _check_ast_depth(self, body: Sequence[N.Node]) -> None:
        stack: List[Tuple[N.Node, int]] = [(node, 1) for node in body]
        while stack:
            node, depth = stack.pop()
            if depth > _MAX_AST_DEPTH:
                raise _Abort("ast-depth")
            stack.extend((child, depth + 1) for child in node.children())

    def _loop_head(self, node: N.Node) -> int:
        if self._loop_heads is None:
            heads: Dict[int, int] = {}
            try:
                if self._program is not None:
                    heads.update(
                        cfgmod.build_cfg(self._program.body).loop_head_of)
                if self._call_graph is not None:
                    for fn_node in self._call_graph.functions.values():
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
        if callable(fn) and not getattr(fn, "_host_native", False):
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
                return STR_TOP
            if name == "Array.indexOf":
                return NUM_TOP
            # sort/filter coerce element/callback results concretely
            raise _Abort("abstract-native")
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
            if name in _TOTAL_MATH:
                return NUM_TOP
            # floor/ceil/round/sqrt/pow raise on NaN or Infinity inputs
            raise _Abort("abstract-native")
        if name == "Error":
            return JSObject({"message": STR_TOP})
        if name == "parseInt":
            return self._summarise_parse_int(args)
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

    def _summarise_parse_int(self, args: List[Any]) -> Any:
        """parseInt with abstract text: safe only for sane radixes
        (base 1, >36, or negative raises once any digit matches)."""
        if len(args) > 1 and contains_abstract(args[1]):
            raise _Abort("abstract-native")
        base = _int_or(args[1], 0) if len(args) > 1 else 0
        if base == 0 or 2 <= base <= 36:
            return NUM_TOP
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
        if isinstance(obj, (AbstractDocument, _AbstractWindow)):
            raise _Abort("abstract-key")
        if isinstance(obj, AbstractLocation):
            return TOP
        if obj is None or obj is UNDEFINED:
            raise _Abort("abstract-key")  # the TypeError names the key
        return TOP

    def _abstract_member_read(self, obj: AbstractValue, prop: str) -> Any:
        if obj.kind == "string":
            if prop == "length":
                return number(Interval(0.0, obj.max_len))
            if prop in _STRING_METHODS:
                return _host_fn(
                    "String.%s" % prop,
                    lambda *args, _p=prop, _b=obj.max_len:
                        self._abstract_string_method(_p, _b, list(args)))
            return UNDEFINED
        if obj.kind == "number":
            if prop in ("toString", "toFixed"):
                return _host_fn(
                    "Number.%s" % prop,
                    lambda *args, _p=prop:
                        self._abstract_number_method(_p, list(args)))
            return UNDEFINED
        if obj.kind == "boolean":
            return UNDEFINED  # get_member has no branch for bools
        raise _Abort("abstract-receiver")

    def _abstract_string_method(self, method: str, bound: float,
                                args: List[Any]) -> Any:
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
            for arg in args:
                piece = _bound_str(arg)
                if piece is None:
                    return STR_TOP
                total += piece
            if total == _INF:
                return STR_TOP
            return string(total)
        raise _Abort("abstract-native")

    def _abstract_number_method(self, method: str, args: List[Any]) -> Any:
        if any(contains_abstract(arg) for arg in args):
            raise _Abort("abstract-native")
        if method == "toString":
            base = _int_or(args[0], 10) if args else 10
            if base == 10:
                return STR_TOP
            # non-decimal radix calls int() on the receiver — ValueError
            # on NaN, OverflowError on Infinity: receiver-dependent
            raise _Abort("abstract-native")
        if method == "toFixed":
            digits = _int_or(args[0], 0) if args else 0
            "%.*f" % (digits, 0.0)  # reproduce receiver-independent errors
            return STR_TOP
        raise _Abort("abstract-native")


    # -- operators ----------------------------------------------------------
    def _num_interval(self, value: Any) -> Interval:
        """Interval covering to_number(value) (NaN always admitted)."""
        if isinstance(value, AbstractValue):
            if value.kind == "number":
                return value.interval
            if value.kind == "boolean":
                return Interval(0.0, 1.0)
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
        if not is_abstract(value):
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
        if not is_abstract(value):
            return super()._increment(operator, value)
        old = number(self._num_interval(value))
        delta = Interval.const(1.0 if operator == "++" else -1.0)
        return old, number(old.interval.add(delta))

    def _eval_binary(self, operator: str, left: Any, right: Any) -> Any:
        if operator in ("==", "!=", "===", "!=="):
            if self._equality_unknown(operator, left, right):
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
            if total > self.MAX_STRING_LENGTH:
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
    if isinstance(value, OpaqueElement):
        return float(len("[object DomElement]"))
    try:
        return float(len(to_string(value)))
    except _Abort:
        return None


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
    return AbstractMachine(source, compile_cache=compile_cache).simulate()
