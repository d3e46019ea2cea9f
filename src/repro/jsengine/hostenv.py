"""Browser host environment for the JS interpreter.

The paper analyzed obfuscated samples by executing them "in a virtual
machine environment" and observing behaviour (Sections IV-A1, V-B, V-D).
This module is that environment: a ``window``/``document`` world bridged
to a real :mod:`repro.htmlparse` DOM, with every security-relevant side
effect recorded in a :class:`BehaviorLog`:

* navigations (``window.location`` assignments, ``meta`` refresh),
* popups (``window.open``),
* ``document.write`` payloads,
* dynamically created/injected elements (the iframe-injection vector),
* deceptive download triggers (navigation to ``.exe`` resources,
  anchor-click synthesis),
* tracking beacons (``new Image().src``, XHR),
* event-listener registration (mouse-movement fingerprinting),
* cookies.

After execution, detection code inspects both the log and the mutated
DOM — exactly what a dynamic-analysis sandbox like ADSandbox does.

This is the repo's one browser host.  The static pre-filter's abstract
host (:class:`repro.staticjs.absint.AbstractHost`) subclasses
:class:`BrowserHost`, and its wrappers subclass :class:`DomElement`,
:class:`DocumentObject` and :class:`LocationObject`, so the sandbox and
the effect summaries the sandbox skip rests on run the same host code.
The subclasses override only the points where an unknown page, or a
value the analysis cannot know, could change what happens:

* turning a script value into text or a number for an effect
  (:meth:`BrowserHost.text`, :meth:`BrowserHost.number`; ``text`` names
  each point, e.g. ``"abstract-url"``);
* building host functions (``BrowserHost.native``);
* page lookups: ``document.body``/``head``/``documentElement``,
  ``getElementById``, ``getElementsByTagName``, ``title``, an element's
  ``parentNode`` and ``getAttribute``;
* inserting nodes (:meth:`BrowserHost.insert_child`,
  :meth:`BrowserHost.insert_node`) and written markup
  (:meth:`DocumentObject._write_into_page`);
* recording navigations, script requests, writes, listeners and errors
  (:meth:`BrowserHost.navigate`, :meth:`BrowserHost.on_script_src`,
  :meth:`BrowserHost.record_write`, ``_listen``,
  :meth:`BrowserHost.record_error`);
* calling handlers and the timer id ``setTimeout`` returns.

The evaluator, the log and the wrappers are class attributes of
:class:`BrowserHost` (``interpreter_class``, ``log_class``, …).  Script-visible
functions whose work a subclass overrides are lambdas defined here, so a
call with the wrong arity fails with the same message on either host.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..htmlparse import Document, Element, Node, parse_fragment, serialize_children
from .interpreter import Interpreter
from .values import UNDEFINED, JSArray, JSObject, NativeFunction, to_number, to_string

__all__ = ["BehaviorLog", "BrowserHost", "DomElement", "run_script_in_page"]

_EXECUTABLE_EXTENSIONS = (".exe", ".scr", ".msi", ".bat", ".com", ".pif")


@dataclass
class BehaviorLog:
    """Side effects observed while executing scripts on a page."""

    navigations: List[str] = field(default_factory=list)
    popups: List[str] = field(default_factory=list)
    document_writes: List[str] = field(default_factory=list)
    created_elements: List[str] = field(default_factory=list)
    appended_elements: List[str] = field(default_factory=list)
    downloads: List[str] = field(default_factory=list)
    beacons: List[str] = field(default_factory=list)
    listeners: List[Tuple[str, str]] = field(default_factory=list)
    cookies_set: List[str] = field(default_factory=list)
    external_interface_registrations: List[str] = field(default_factory=list)
    timeouts_scheduled: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def download_triggers(self) -> List[str]:
        """Navigations/popups that point at executable payloads."""
        candidates = self.navigations + self.popups + self.downloads
        return [u for u in candidates if u.lower().split("?")[0].endswith(_EXECUTABLE_EXTENSIONS)]

    @property
    def fingerprinting_events(self) -> List[Tuple[str, str]]:
        """Listener registrations typical of user-behaviour fingerprinting."""
        interesting = {"mousemove", "mousedown", "mouseup", "keydown", "keyup", "scroll", "touchstart"}
        return [(target, event) for target, event in self.listeners if event in interesting]


class StyleObject:
    """A ``element.style`` host object writing back to the inline style."""

    def __init__(self, host: "BrowserHost", element: Element) -> None:
        self._host = host
        self._element = element

    def js_get(self, name: str) -> Any:
        value = self._element.style.get(_camel_to_css(name))
        return value if value is not None else ""

    def js_set(self, name: str, value: Any) -> None:
        text = self._host.text(value, "abstract-style")
        styles = self._element.style
        styles[_camel_to_css(name)] = text
        self._element.set("style", "; ".join("%s: %s" % kv for kv in styles.items()))

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


class DomElement:
    """JS wrapper around an :class:`repro.htmlparse.Element`."""

    def __init__(self, host: "BrowserHost", element: Element) -> None:
        self._host = host
        self._element = element

    @property
    def element(self) -> Element:
        return self._element

    def js_to_string(self) -> str:
        return "[object DomElement]"

    # -- property access -------------------------------------------------
    def js_get(self, name: str) -> Any:
        el = self._element
        host = self._host
        if name == "tagName":
            return el.tag.upper()
        if name == "id":
            return el.id
        if name == "style":
            return StyleObject(host, el)
        if name == "innerHTML":
            return serialize_children(el)
        if name == "src":
            return el.get("src")
        if name == "href":
            return el.get("href")
        if name in ("width", "height"):
            return el.get(name)
        if name == "parentNode":
            return self._parent_node()
        if name == "children" or name == "childNodes":
            return JSArray([host.wrap(c) for c in el.children if isinstance(c, Element)])
        if name == "firstChild":
            for child in el.children:
                if isinstance(child, Element):
                    return host.wrap(child)
            return None
        if name == "appendChild":
            return host.native("appendChild", self._append_child)
        if name == "insertBefore":
            return host.native("insertBefore", self._insert_before)
        if name == "removeChild":
            return host.native("removeChild", self._remove_child)
        if name == "setAttribute":
            return host.native("setAttribute", self._set_attribute)
        if name == "getAttribute":
            return host.native("getAttribute", lambda attr=UNDEFINED: self._get_attribute(attr))
        if name == "getElementsByTagName":
            return host.native("getElementsByTagName",
                               lambda tag=UNDEFINED: self._get_elements_by_tag_name(tag))
        if name == "addEventListener":
            return host.native("addEventListener", self._add_event_listener)
        if name == "attachEvent":
            return host.native("attachEvent", self._attach_event)
        if name == "click":
            return host.native("click", self._click)
        if name.startswith("on"):
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
            markup = host.text(value, "abstract-html")
            el.children = []
            fragment = parse_fragment(markup, observer=host.observer)
            for child in list(fragment.children):
                host.insert_node(el, child)
            host.record_write(markup, to_body=False)
            return
        if name == "src":
            src = host.text(value, "abstract-src")
            el.set("src", src)
            if el.tag == "img":
                host.log.beacons.append(src)
            if el.tag == "script":
                host.on_script_src(src)
            return
        if name in ("textContent", "innerText"):
            text = host.text(value, "abstract-text")
            el.children = []
            el.append_text(text)
            return
        if name == "className":
            el.set("class", host.text(value, "abstract-attr"))
            return
        if name.startswith("on"):
            self._listen(name[2:], value)
            return
        el.set(name, host.text(value, "abstract-attr"))

    def _handlers(self) -> Dict[str, Any]:
        return self._host.handlers.setdefault(id(self._element), {})

    def _listen(self, event: str, handler: Any) -> None:
        """Put ``handler`` in this element's ``on<event>`` slot."""
        self._host.log.listeners.append((self._element.tag, event))
        self._handlers()["on" + event] = handler

    # -- page lookups ------------------------------------------------------
    def _parent_node(self) -> Any:
        return self._host.wrap(self._element.parent)

    def _get_attribute(self, attr: Any) -> Any:
        return self._element.get(to_string(attr)) or None

    def _get_elements_by_tag_name(self, tag: Any) -> Any:
        return JSArray([self._host.wrap(e) for e in self._element.find_all(to_string(tag))])

    # -- methods ----------------------------------------------------------
    def _append_child(self, child: Any = UNDEFINED) -> Any:
        self._host.insert_child(self._element, child)
        return child

    def _insert_before(self, child: Any = UNDEFINED, ref: Any = UNDEFINED) -> Any:
        children = self._element.children
        index = 0
        if isinstance(ref, DomElement) and ref.element in children:
            index = children.index(ref.element)
        self._host.insert_child(self._element, child, index)
        return child

    def _remove_child(self, child: Any = UNDEFINED) -> Any:
        if isinstance(child, DomElement) and child.element in self._element.children:
            child.element.detach()
        return child

    def _set_attribute(self, name: Any = UNDEFINED, value: Any = UNDEFINED) -> Any:
        host = self._host
        attr = host.text(name, "abstract-attr")
        text = host.text(value, "abstract-attr")
        self._element.set(attr, text)
        if attr == "src" and self._element.tag == "script":
            host.on_script_src(text)
        return UNDEFINED

    def _add_event_listener(self, event: Any = UNDEFINED, handler: Any = UNDEFINED, *rest: Any) -> Any:
        self._listen(self._host.text(event, "abstract-event"), handler)
        return UNDEFINED

    def _attach_event(self, event: Any = UNDEFINED, handler: Any = UNDEFINED) -> Any:
        self._listen(self._host.text(event, "abstract-event").removeprefix("on"), handler)
        return UNDEFINED

    def _click(self) -> Any:
        """Synthetic click: follows the href like a browser would."""
        href = self._element.get("href")
        if href:
            self._host.navigate(href)
        handler = self._handlers().get("onclick")
        if handler is not UNDEFINED and handler is not None:
            self._host.interpreter.call_function(handler, [], this=self)
        return UNDEFINED

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "DomElement(<%s>)" % self._element.tag


class LocationObject:
    """``window.location`` — assignments are navigations."""

    def __init__(self, host: "BrowserHost", url: str) -> None:
        self._host = host
        self.url = url

    def js_get(self, name: str) -> Any:
        host = self._host
        if name == "href":
            return self.url
        if name == "hostname" or name == "host":
            return _host_of(self.url)
        if name == "protocol":
            return self.url.split(":", 1)[0] + ":" if ":" in self.url else "http:"
        if name == "pathname":
            rest = self.url.split("://", 1)[-1].split("?", 1)[0].split("#", 1)[0]
            slash = rest.find("/")
            return rest[slash:] if slash != -1 else "/"
        if name == "search":
            return "?" + self.url.partition("?")[2] if "?" in self.url else ""
        if name == "replace" or name == "assign":
            return host.native(
                name, lambda target=UNDEFINED: host.navigate(host.text(target, "abstract-url")))
        if name == "reload":
            return host.native("reload", lambda *a: UNDEFINED)
        if name == "toString":
            return host.native("toString", lambda: self.js_get("href"))
        return UNDEFINED

    def js_set(self, name: str, value: Any) -> None:
        if name == "href":
            self._host.navigate(self._host.text(value, "abstract-url"))

    def js_to_string(self) -> str:
        return self.url


def _host_of(url: str) -> str:
    rest = url.split("://", 1)[-1]
    return rest.split("/", 1)[0].split(":")[0]


class DocumentObject:
    """The ``document`` host object bridged to the parsed DOM."""

    def __init__(self, host: "BrowserHost", document: Document) -> None:
        self._host = host
        self._document = document
        self._cookie = ""

    def js_to_string(self) -> str:
        return "[object DocumentObject]"

    def js_get(self, name: str) -> Any:
        host = self._host
        if name == "write" or name == "writeln":
            return host.native("document.write", self._write)
        if name == "createElement":
            return host.native("createElement", self._create_element)
        if name == "getElementById":
            return host.native("getElementById",
                               lambda element_id=UNDEFINED: self._get_element_by_id(element_id))
        if name == "getElementsByTagName":
            return host.native("getElementsByTagName",
                               lambda tag=UNDEFINED: self._get_elements_by_tag_name(tag))
        if name == "body" or name == "head":
            return self._page_element(name)
        if name == "documentElement":
            return self._page_element("html")
        if name == "location":
            return host.location
        if name == "cookie":
            return self._cookie
        if name == "referrer":
            return host.referrer
        if name == "title":
            return self._title()
        if name == "addEventListener":
            return host.native("addEventListener", self._add_event_listener)
        if name.startswith("on"):
            return host.document_handlers.get(name, UNDEFINED)
        return UNDEFINED

    def js_set(self, name: str, value: Any) -> None:
        host = self._host
        if name == "cookie":
            text = host.text(value, "abstract-cookie")
            self._cookie = (self._cookie + "; " + text).strip("; ")
            host.log.cookies_set.append(text)
        elif name == "title":
            self._set_title(host.text(value, "abstract-title"))
        elif name.startswith("on"):
            self._listen(name[2:], value)

    def _listen(self, event: str, handler: Any) -> None:
        """Put ``handler`` in the document's ``on<event>`` slot."""
        self._host.log.listeners.append(("document", event))
        self._host.document_handlers["on" + event] = handler

    # -- page lookups ------------------------------------------------------
    def _page_element(self, tag: str) -> Any:
        """``document.body``/``head``/``documentElement``."""
        return self._host.wrap(self._document.find(tag))

    def _get_element_by_id(self, element_id: Any) -> Any:
        return self._host.wrap(self._document.get_element_by_id(to_string(element_id)))

    def _get_elements_by_tag_name(self, tag: Any) -> Any:
        return JSArray([self._host.wrap(e) for e in self._document.find_all(to_string(tag))])

    def _title(self) -> Any:
        title = self._document.find("title")
        return title.text_content() if title is not None else ""

    def _set_title(self, text: str) -> None:
        title = self._document.find("title")
        if title is None:
            head = self._document.head
            if head is not None:
                title = Element("title")
                head.append(title)
        if title is not None:
            title.children = []
            title.append_text(text)

    def _write_into_page(self, nodes: List[Node]) -> None:
        """Append ``document.write``'s nodes to ``<body>`` (else the root)."""
        body = self._document.body
        target = body if body is not None else self._document
        for node in nodes:
            target.append(node)

    # -- methods ----------------------------------------------------------
    def _write(self, *args: Any) -> Any:
        host = self._host
        markup = "".join(host.text(arg, "abstract-write") for arg in args)
        host.record_write(markup, to_body=True)
        fragment = parse_fragment(markup, observer=host.observer)
        for el in fragment.iter():
            if el.tag == "script":
                src = el.get("src")
                if src:
                    host.on_script_src(src)
                else:
                    host.pending_inline_scripts.append(el.text_content())
        self._write_into_page(list(fragment.children))
        return UNDEFINED

    def _create_element(self, tag: Any = UNDEFINED) -> Any:
        name = self._host.text(tag, "abstract-tag").lower()
        self._host.log.created_elements.append(name)
        return self._host.wrap(Element(name))

    def _add_event_listener(self, event: Any = UNDEFINED, handler: Any = UNDEFINED, *rest: Any) -> Any:
        self._listen(self._host.text(event, "abstract-event"), handler)
        return UNDEFINED


class ImageConstructor:
    """``new Image()`` — setting ``.src`` fires a tracking beacon."""

    def __init__(self, host: "BrowserHost") -> None:
        self._host = host
        self.name = "Image"

    def __call__(self, *args: Any) -> Any:
        element = Element("img")
        return self._host.wrap(element)

    def js_get(self, name: str) -> Any:
        return UNDEFINED

    def js_set(self, name: str, value: Any) -> None:
        pass


class XhrObject(JSObject):
    """Minimal XMLHttpRequest recording request URLs as beacons."""

    def __init__(self, host: "BrowserHost") -> None:
        super().__init__()
        self._host = host
        self.properties["open"] = host.native("open", self._open)
        self.properties["send"] = host.native("send", lambda *a: UNDEFINED)
        self.properties["setRequestHeader"] = host.native("setRequestHeader", lambda *a: UNDEFINED)
        self.properties["readyState"] = 4.0
        self.properties["status"] = 200.0
        self.properties["responseText"] = ""

    def _open(self, method: Any = UNDEFINED, url: Any = UNDEFINED, *rest: Any) -> Any:
        self._host.log.beacons.append(self._host.text(url, "abstract-url"))
        return UNDEFINED


def _error_text(exc: Exception) -> str:
    return "%s: %s" % (type(exc).__name__, exc)


class BrowserHost:
    """Builds the global environment and tracks behaviour for one page."""

    #: the evaluator, the behaviour log and the page-object wrappers; a
    #: host modelling another kind of page swaps them for subclasses
    interpreter_class = Interpreter
    log_class = BehaviorLog
    #: host functions as scripts see them: ``native(name, fn)``
    native = NativeFunction
    element_class = DomElement
    document_class = DocumentObject
    location_class = LocationObject

    def __init__(
        self,
        document: Optional[Document] = None,
        url: str = "http://localhost/",
        referrer: str = "",
        rng: Optional[random.Random] = None,
        step_budget: int = 500_000,
        now_ms: float = 1_420_070_400_000.0,  # fixed clock: 2015-01-01
        observer: Optional[Any] = None,
        compile_cache: Optional[Any] = None,
    ) -> None:
        self.document_tree = document if document is not None else Document()
        #: threaded into fragment parses (document.write / innerHTML) so
        #: injected-markup work lands in the ledger too
        self.observer = observer
        self.log = self.log_class()
        self.referrer = referrer
        self.handlers: Dict[int, Dict[str, Any]] = {}
        self.document_handlers: Dict[str, Any] = {}
        self.pending_inline_scripts: List[str] = []
        self.requested_scripts: List[str] = []
        self.now_ms = now_ms
        self._wrappers: Dict[int, DomElement] = {}
        self.location = self.location_class(self, url)
        self.interpreter = self.interpreter_class(
            host_globals={}, step_budget=step_budget, rng=rng or random.Random(0),
            observer=observer, compile_cache=compile_cache,
        )
        self._install_globals()

    # -- values crossing into the host ---------------------------------------
    def text(self, value: Any, point: str) -> str:
        """A script value as the text a host effect uses.

        ``point`` names the effect (``"abstract-url"``, ``"abstract-write"``,
        …) for a host that cannot always know the value.
        """
        return to_string(value)

    def number(self, value: Any) -> Any:
        """A script value as the number a host object stores."""
        return to_number(value)

    def wrap(self, element: Optional[Element]) -> Any:
        if element is None:
            return None
        key = id(element)
        wrapper = self._wrappers.get(key)
        if wrapper is None:
            wrapper = self.element_class(self, element)
            self._wrappers[key] = wrapper
        return wrapper

    # -- effects -------------------------------------------------------------
    def navigate(self, target: str) -> Any:
        self.log.navigations.append(target)
        return UNDEFINED

    def on_script_src(self, src: str) -> None:
        self.requested_scripts.append(src)

    def record_write(self, markup: str, to_body: bool) -> None:
        """Log markup a script wrote: ``document.write`` appends it to
        ``<body>`` (``to_body``), ``innerHTML`` puts it under an element."""
        self.log.document_writes.append(markup)

    def record_error(self, exc: Exception, message: str) -> None:
        """Log ``exc``, raised by a script, a handler or a timer."""
        self.log.errors.append(message)

    def insert_child(self, parent: Element, child: Any, index: Optional[int] = None) -> None:
        """``appendChild``/``insertBefore`` of a script-held ``child``;
        only element wrappers move."""
        if isinstance(child, DomElement):
            self.insert_node(parent, child.element, index)
            self.log.appended_elements.append(child.element.tag)

    def insert_node(self, parent: Element, node: Node, index: Optional[int] = None) -> None:
        """Put ``node`` under ``parent``: at ``index``, else last."""
        if index is None:
            parent.append(node)
        else:
            parent.insert(index, node)

    def call_handler(self, handler: Any, args: List[Any]) -> Any:
        """Call an event handler or a timer callback."""
        return self.interpreter.call_function(handler, args, this=UNDEFINED)

    def _timer_id(self) -> Any:
        """What ``setTimeout`` returns: the page's timer count so far."""
        return float(self.log.timeouts_scheduled)

    # -- globals -------------------------------------------------------------
    def _install_globals(self) -> None:
        env = self.interpreter.global_env
        native = self.native
        navigator = JSObject({
            "userAgent": "Mozilla/5.0 (Windows NT 6.1; rv:38.0) Gecko/20100101 Firefox/38.0",
            "platform": "Win32",
            "language": "en-US",
            "plugins": JSArray([JSObject({"name": "Shockwave Flash"})]),
        })
        screen = JSObject({"width": 1366.0, "height": 768.0, "colorDepth": 24.0})
        globals_to_install = {
            "document": self.document_class(self, self.document_tree),
            "location": self.location,
            "navigator": navigator,
            "screen": screen,
            "open": native("open", self._open),
            "alert": native("alert", lambda *a: UNDEFINED),
            "confirm": native("confirm", lambda *a: True),
            "prompt": native("prompt", lambda *a: ""),
            "setTimeout": native("setTimeout", self._set_timeout),
            "setInterval": native("setInterval", self._set_timeout),
            "clearTimeout": native("clearTimeout", lambda *a: UNDEFINED),
            "clearInterval": native("clearInterval", lambda *a: UNDEFINED),
            "Image": ImageConstructor(self),
            "XMLHttpRequest": native("XMLHttpRequest", lambda: XhrObject(self)),
            "Date": native("Date", self._new_date),
            "console": JSObject({"log": native("log", lambda *a: UNDEFINED)}),
        }
        for name, value in globals_to_install.items():
            env.declare(name, value)

        # ``window`` is the global object: a view over the global scope.
        window = _WindowObject(self)
        for name in ("window", "self", "top", "parent"):
            env.declare(name, window)

    def _open(self, url: Any = UNDEFINED, *rest: Any) -> Any:
        self.log.popups.append(self.text(url, "abstract-url"))
        return JSObject({"closed": False})

    def _set_timeout(self, handler: Any = UNDEFINED, delay: Any = UNDEFINED, *rest: Any) -> Any:
        # executed synchronously: the sandbox "fast-forwards" timers
        self.log.timeouts_scheduled += 1
        try:
            if isinstance(handler, str):
                self.interpreter.run(handler)
            elif handler is not UNDEFINED:
                self.call_handler(handler, [])
        except Exception as exc:  # noqa: BLE001 - sandbox records, never crashes
            self.record_error(exc, str(exc))
        return self._timer_id()

    def _new_date(self, *args: Any) -> Any:
        value = self.now_ms if not args else self.number(args[0])
        native = self.native
        return JSObject({
            "getTime": native("getTime", lambda: value),
            "valueOf": native("valueOf", lambda: value),
            "getFullYear": native("getFullYear", lambda: 2015.0),
            "toString": native("toString", lambda: "Thu Jan 01 2015"),
        })

    # -- execution -----------------------------------------------------------
    def run_script(self, source: str) -> None:
        """Execute one script, recording (not raising) runtime errors."""
        self._run(source)
        # scripts injected via document.write run after the injecting script
        while self.pending_inline_scripts:
            self._run(self.pending_inline_scripts.pop(0))

    def _run(self, source: str) -> None:
        try:
            self.interpreter.run(source)
        except Exception as exc:  # noqa: BLE001 - sandbox must survive bad input
            self.record_error(exc, _error_text(exc))

    def fire_event(self, target: str, event: str) -> None:
        """Dispatch a synthetic event (e.g. the sandbox simulating a click)."""
        slot = "on" + event
        handler = self.document_handlers.get(slot)
        if handler is not None and handler is not UNDEFINED:
            self._dispatch(handler, event)
        for handlers in list(self.handlers.values()):
            fn = handlers.get(slot)
            if fn is not None and fn is not UNDEFINED:
                self._dispatch(fn, event)

    def _dispatch(self, handler: Any, event: str) -> None:
        try:
            self.call_handler(handler, [JSObject({"type": event})])
        except Exception as exc:  # noqa: BLE001
            self.record_error(exc, _error_text(exc))


class _WindowObject:
    """The ``window`` global object: property access aliases global scope."""

    def __init__(self, host: BrowserHost) -> None:
        self._host = host

    def js_get(self, name: str) -> Any:
        if name == "location":
            return self._host.location
        if name == "window" or name == "self" or name == "top" or name == "parent":
            return self
        env = self._host.interpreter.global_env  # the root scope
        return env.vars[name] if env.has(name) else UNDEFINED

    def js_set(self, name: str, value: Any) -> None:
        if name == "location":
            self._host.navigate(self._host.text(value, "abstract-url"))
            return
        self._host.interpreter.global_env.assign(name, value)

    def js_to_string(self) -> str:
        return "[object Window]"


def run_script_in_page(html: str, url: str = "http://localhost/", referrer: str = "",
                       step_budget: int = 500_000, simulate_events: bool = True,
                       rng: Optional[random.Random] = None,
                       observer: Optional[Any] = None,
                       compile_cache: Optional[Any] = None) -> BrowserHost:
    """Parse ``html``, execute its inline scripts, optionally fire events.

    Returns the :class:`BrowserHost`, whose ``log`` and mutated
    ``document_tree`` the caller inspects — the standard entry point for
    dynamic analysis of a page.
    """
    from ..htmlparse import parse

    document = parse(html, observer=observer)
    host = BrowserHost(document=document, url=url, referrer=referrer,
                       step_budget=step_budget, rng=rng, observer=observer,
                       compile_cache=compile_cache)
    for script in document.find_all("script"):
        if script.get("src"):
            host.on_script_src(script.get("src"))
            continue
        source = script.text_content()
        if source.strip():
            host.run_script(source)
    if simulate_events:
        host.fire_event("document", "load")
        host.fire_event("document", "click")
        host.fire_event("document", "mousemove")
    return host
