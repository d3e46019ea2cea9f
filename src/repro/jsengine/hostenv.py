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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..htmlparse import Document, Element, parse_fragment, serialize_children
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

    def __init__(self, element: Element) -> None:
        self._element = element

    def _styles(self) -> Dict[str, str]:
        return self._element.style

    def js_get(self, name: str) -> Any:
        css = _camel_to_css(name)
        value = self._styles().get(css)
        return value if value is not None else ""

    def js_set(self, name: str, value: Any) -> None:
        css = _camel_to_css(name)
        styles = self._styles()
        styles[css] = to_string(value)
        self._element.set("style", "; ".join("%s: %s" % kv for kv in styles.items()))


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

    # -- property access -------------------------------------------------
    def js_get(self, name: str) -> Any:
        el = self._element
        host = self._host
        if name == "tagName":
            return el.tag.upper()
        if name == "id":
            return el.id
        if name == "style":
            return StyleObject(el)
        if name == "innerHTML":
            return serialize_children(el)
        if name == "src":
            return el.get("src")
        if name == "href":
            return el.get("href")
        if name in ("width", "height"):
            return el.get(name)
        if name == "parentNode":
            return host.wrap(el.parent) if el.parent is not None else None
        if name == "children" or name == "childNodes":
            return JSArray([host.wrap(c) for c in el.children if isinstance(c, Element)])
        if name == "firstChild":
            for child in el.children:
                if isinstance(child, Element):
                    return host.wrap(child)
            return None
        if name == "appendChild":
            return NativeFunction("appendChild", self._append_child)
        if name == "insertBefore":
            return NativeFunction("insertBefore", self._insert_before)
        if name == "removeChild":
            return NativeFunction("removeChild", self._remove_child)
        if name == "setAttribute":
            return NativeFunction("setAttribute", self._set_attribute)
        if name == "getAttribute":
            return NativeFunction(
                "getAttribute", lambda attr=UNDEFINED: el.get(to_string(attr)) or None
            )
        if name == "getElementsByTagName":
            return NativeFunction(
                "getElementsByTagName",
                lambda tag=UNDEFINED: JSArray([host.wrap(e) for e in el.find_all(to_string(tag))]),
            )
        if name == "addEventListener":
            return NativeFunction("addEventListener", self._add_event_listener)
        if name == "attachEvent":
            return NativeFunction("attachEvent", self._attach_event)
        if name == "click":
            return NativeFunction("click", self._click)
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
            el.children = []
            fragment = parse_fragment(to_string(value), observer=host.observer)
            for child in list(fragment.children):
                el.append(child)
            host.log.document_writes.append(to_string(value))
            return
        if name == "src":
            el.set("src", to_string(value))
            if el.tag == "img":
                host.log.beacons.append(to_string(value))
            if el.tag == "script":
                host.on_script_src(to_string(value))
            return
        if name in ("textContent", "innerText"):
            el.children = []
            el.append_text(to_string(value))
            return
        if name == "className":
            el.set("class", to_string(value))
            return
        if name.startswith("on"):
            self._handlers()[name] = value
            host.log.listeners.append((el.tag, name[2:]))
            return
        el.set(name, to_string(value))

    def _handlers(self) -> Dict[str, Any]:
        return self._host.handlers.setdefault(id(self._element), {})

    # -- methods ----------------------------------------------------------
    def _append_child(self, child: Any = UNDEFINED) -> Any:
        if isinstance(child, DomElement):
            self._element.append(child.element)
            self._host.log.appended_elements.append(child.element.tag)
        return child

    def _insert_before(self, child: Any = UNDEFINED, ref: Any = UNDEFINED) -> Any:
        if isinstance(child, DomElement):
            index = 0
            if isinstance(ref, DomElement) and ref.element in self._element.children:
                index = self._element.children.index(ref.element)
            self._element.insert(index, child.element)
            self._host.log.appended_elements.append(child.element.tag)
        return child

    def _remove_child(self, child: Any = UNDEFINED) -> Any:
        if isinstance(child, DomElement) and child.element in self._element.children:
            child.element.detach()
        return child

    def _set_attribute(self, name: Any = UNDEFINED, value: Any = UNDEFINED) -> Any:
        attr = to_string(name)
        self._element.set(attr, to_string(value))
        if attr == "src" and self._element.tag == "script":
            self._host.on_script_src(to_string(value))
        return UNDEFINED

    def _add_event_listener(self, event: Any = UNDEFINED, handler: Any = UNDEFINED, *rest: Any) -> Any:
        name = to_string(event)
        self._host.log.listeners.append((self._element.tag, name))
        self._handlers()["on" + name] = handler
        return UNDEFINED

    def _attach_event(self, event: Any = UNDEFINED, handler: Any = UNDEFINED) -> Any:
        name = to_string(event).removeprefix("on")
        self._host.log.listeners.append((self._element.tag, name))
        self._handlers()["on" + name] = handler
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
            return NativeFunction(name, lambda target=UNDEFINED: self._host.navigate(to_string(target)))
        if name == "reload":
            return NativeFunction("reload", lambda *a: UNDEFINED)
        if name == "toString":
            return NativeFunction("toString", lambda: self.url)
        return UNDEFINED

    def js_set(self, name: str, value: Any) -> None:
        if name == "href":
            self._host.navigate(to_string(value))

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

    def js_get(self, name: str) -> Any:
        host = self._host
        doc = self._document
        if name == "write" or name == "writeln":
            return NativeFunction("document.write", self._write)
        if name == "createElement":
            return NativeFunction("createElement", self._create_element)
        if name == "getElementById":
            def get_by_id(element_id: Any = UNDEFINED) -> Any:
                el = doc.get_element_by_id(to_string(element_id))
                return host.wrap(el) if el is not None else None
            return NativeFunction("getElementById", get_by_id)
        if name == "getElementsByTagName":
            return NativeFunction(
                "getElementsByTagName",
                lambda tag=UNDEFINED: JSArray([host.wrap(e) for e in doc.find_all(to_string(tag))]),
            )
        if name == "body":
            body = doc.body
            return host.wrap(body) if body is not None else None
        if name == "head":
            head = doc.head
            return host.wrap(head) if head is not None else None
        if name == "documentElement":
            html = doc.html
            return host.wrap(html) if html is not None else None
        if name == "location":
            return host.location
        if name == "cookie":
            return self._cookie
        if name == "referrer":
            return host.referrer
        if name == "title":
            title = doc.find("title")
            return title.text_content() if title is not None else ""
        if name == "addEventListener":
            def add_listener(event: Any = UNDEFINED, handler: Any = UNDEFINED, *rest: Any) -> Any:
                host.log.listeners.append(("document", to_string(event)))
                host.document_handlers["on" + to_string(event)] = handler
                return UNDEFINED
            return NativeFunction("addEventListener", add_listener)
        if name.startswith("on"):
            return self._host.document_handlers.get(name, UNDEFINED)
        return UNDEFINED

    def js_set(self, name: str, value: Any) -> None:
        if name == "cookie":
            text = to_string(value)
            self._cookie = (self._cookie + "; " + text).strip("; ")
            self._host.log.cookies_set.append(text)
            return
        if name == "title":
            title = self._document.find("title")
            if title is None:
                head = self._document.head
                if head is not None:
                    title = Element("title")
                    head.append(title)
            if title is not None:
                title.children = []
                title.append_text(to_string(value))
            return
        if name.startswith("on"):
            self._host.document_handlers[name] = value
            self._host.log.listeners.append(("document", name[2:]))
            return

    def _write(self, *args: Any) -> Any:
        markup = "".join(to_string(a) for a in args)
        self._host.log.document_writes.append(markup)
        body = self._document.body
        target = body if body is not None else self._document
        fragment = parse_fragment(markup, observer=self._host.observer)
        for child in list(fragment.children):
            target.append(child)
            if isinstance(child, Element):
                for el in child.iter():
                    if el.tag == "script" and el.get("src"):
                        self._host.on_script_src(el.get("src"))
                    elif el.tag == "script":
                        self._host.pending_inline_scripts.append(el.text_content())
        return UNDEFINED

    def _create_element(self, tag: Any = UNDEFINED) -> Any:
        name = to_string(tag).lower()
        self._host.log.created_elements.append(name)
        return self._host.wrap(Element(name))


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
        self.properties["open"] = NativeFunction("open", self._open)
        self.properties["send"] = NativeFunction("send", lambda *a: UNDEFINED)
        self.properties["setRequestHeader"] = NativeFunction("setRequestHeader", lambda *a: UNDEFINED)
        self.properties["readyState"] = 4.0
        self.properties["status"] = 200.0
        self.properties["responseText"] = ""

    def _open(self, method: Any = UNDEFINED, url: Any = UNDEFINED, *rest: Any) -> Any:
        self._host.log.beacons.append(to_string(url))
        return UNDEFINED


class BrowserHost:
    """Builds the global environment and tracks behaviour for one page."""

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
        self.log = BehaviorLog()
        self.referrer = referrer
        self.handlers: Dict[int, Dict[str, Any]] = {}
        self.document_handlers: Dict[str, Any] = {}
        self.pending_inline_scripts: List[str] = []
        self.requested_scripts: List[str] = []
        self.now_ms = now_ms
        self._wrappers: Dict[int, DomElement] = {}
        self.location = LocationObject(self, url)
        self.interpreter = Interpreter(
            host_globals={}, step_budget=step_budget, rng=rng or random.Random(0),
            observer=observer, compile_cache=compile_cache,
        )
        self._install_globals()

    # -- plumbing ----------------------------------------------------------
    def wrap(self, element: Optional[Element]) -> Any:
        if element is None:
            return None
        key = id(element)
        wrapper = self._wrappers.get(key)
        if wrapper is None:
            wrapper = DomElement(self, element)
            self._wrappers[key] = wrapper
        return wrapper

    def navigate(self, target: str) -> Any:
        self.log.navigations.append(target)
        return UNDEFINED

    def on_script_src(self, src: str) -> None:
        self.requested_scripts.append(src)

    def _install_globals(self) -> None:
        env = self.interpreter.global_env
        document = DocumentObject(self, self.document_tree)

        def window_open(url: Any = UNDEFINED, *rest: Any) -> Any:
            self.log.popups.append(to_string(url))
            return JSObject({"closed": False})

        def set_timeout(handler: Any = UNDEFINED, delay: Any = UNDEFINED, *rest: Any) -> Any:
            # executed synchronously: the sandbox "fast-forwards" timers
            self.log.timeouts_scheduled += 1
            if isinstance(handler, str):
                try:
                    self.interpreter.run(handler)
                except Exception as exc:  # noqa: BLE001 - sandbox records, never crashes
                    self.log.errors.append(str(exc))
            elif handler is not UNDEFINED:
                try:
                    self.interpreter.call_function(handler, [], this=UNDEFINED)
                except Exception as exc:  # noqa: BLE001
                    self.log.errors.append(str(exc))
            return float(self.log.timeouts_scheduled)

        navigator = JSObject({
            "userAgent": "Mozilla/5.0 (Windows NT 6.1; rv:38.0) Gecko/20100101 Firefox/38.0",
            "platform": "Win32",
            "language": "en-US",
            "plugins": JSArray([JSObject({"name": "Shockwave Flash"})]),
        })
        screen = JSObject({"width": 1366.0, "height": 768.0, "colorDepth": 24.0})

        def date_ctor(*args: Any) -> Any:
            value = self.now_ms if not args else to_number(args[0])
            return JSObject({
                "getTime": NativeFunction("getTime", lambda: value),
                "valueOf": NativeFunction("valueOf", lambda: value),
                "getFullYear": NativeFunction("getFullYear", lambda: 2015.0),
                "toString": NativeFunction("toString", lambda: "Thu Jan 01 2015"),
            })

        globals_to_install = {
            "document": document,
            "location": self.location,
            "navigator": navigator,
            "screen": screen,
            "open": NativeFunction("open", window_open),
            "alert": NativeFunction("alert", lambda *a: UNDEFINED),
            "confirm": NativeFunction("confirm", lambda *a: True),
            "prompt": NativeFunction("prompt", lambda *a: ""),
            "setTimeout": NativeFunction("setTimeout", set_timeout),
            "setInterval": NativeFunction("setInterval", set_timeout),
            "clearTimeout": NativeFunction("clearTimeout", lambda *a: UNDEFINED),
            "clearInterval": NativeFunction("clearInterval", lambda *a: UNDEFINED),
            "Image": ImageConstructor(self),
            "XMLHttpRequest": NativeFunction("XMLHttpRequest", lambda: XhrObject(self)),
            "Date": NativeFunction("Date", date_ctor),
            "console": JSObject({"log": NativeFunction("log", lambda *a: UNDEFINED)}),
        }
        for name, value in globals_to_install.items():
            env.declare(name, value)

        # ``window`` is the global object: a view over the global scope.
        window = _WindowObject(self, env)
        env.declare("window", window)
        env.declare("self", window)
        env.declare("top", window)
        env.declare("parent", window)

    # -- execution -----------------------------------------------------------
    def run_script(self, source: str) -> None:
        """Execute one script, recording (not raising) runtime errors."""
        try:
            self.interpreter.run(source)
        except Exception as exc:  # noqa: BLE001 - sandbox must survive bad input
            self.log.errors.append("%s: %s" % (type(exc).__name__, exc))
        # scripts injected via document.write run after the injecting script
        while self.pending_inline_scripts:
            pending = self.pending_inline_scripts.pop(0)
            try:
                self.interpreter.run(pending)
            except Exception as exc:  # noqa: BLE001
                self.log.errors.append("%s: %s" % (type(exc).__name__, exc))

    def fire_event(self, target: str, event: str) -> None:
        """Dispatch a synthetic event (e.g. the sandbox simulating a click)."""
        handler = self.document_handlers.get("on" + event)
        if handler is not None and handler is not UNDEFINED:
            try:
                self.interpreter.call_function(handler, [JSObject({"type": event})], this=UNDEFINED)
            except Exception as exc:  # noqa: BLE001
                self.log.errors.append("%s: %s" % (type(exc).__name__, exc))
        for handlers in list(self.handlers.values()):
            fn = handlers.get("on" + event)
            if fn is not None and fn is not UNDEFINED:
                try:
                    self.interpreter.call_function(fn, [JSObject({"type": event})], this=UNDEFINED)
                except Exception as exc:  # noqa: BLE001
                    self.log.errors.append("%s: %s" % (type(exc).__name__, exc))


class _WindowObject:
    """The ``window`` global object: property access aliases global scope."""

    def __init__(self, host: BrowserHost, env: Any) -> None:
        self._host = host
        self._env = env

    def js_get(self, name: str) -> Any:
        if name == "location":
            return self._host.location
        if name == "window" or name == "self" or name == "top" or name == "parent":
            return self
        if self._env.has(name):
            return self._env.lookup(name)
        return UNDEFINED

    def js_set(self, name: str, value: Any) -> None:
        if name == "location":
            self._host.navigate(to_string(value))
            return
        self._env.assign(name, value)

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
