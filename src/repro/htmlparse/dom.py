"""A minimal DOM: Document, Element, Text, Comment nodes.

Supports the tree operations the detection heuristics and the JS host
environment need: traversal, child manipulation, attribute access,
text extraction, and computed style shortcuts for the visibility
attributes that hidden-iframe malware manipulates.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

__all__ = ["Node", "Element", "Text", "Comment", "Document"]


class Node:
    """Base class for DOM nodes."""

    def __init__(self) -> None:
        self.parent: Optional["Element"] = None

    # -- tree navigation ------------------------------------------------
    @property
    def ancestors(self) -> Iterator["Element"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def detach(self) -> None:
        """Remove this node from its parent, if any."""
        if self.parent is not None:
            self.parent.children.remove(self)
            self.parent = None

    def text_content(self) -> str:
        """Concatenated text of this subtree."""
        return ""


class Text(Node):
    """A text node."""

    def __init__(self, data: str) -> None:
        super().__init__()
        self.data = data

    def text_content(self) -> str:
        return self.data

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        snippet = self.data[:30].replace("\n", "\\n")
        return "Text(%r)" % snippet


class Comment(Node):
    """A comment node."""

    def __init__(self, data: str) -> None:
        super().__init__()
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "Comment(%r)" % self.data[:30]


class Element(Node):
    """An element node with attributes and children."""

    def __init__(self, tag: str, attrs: Optional[Dict[str, str]] = None) -> None:
        super().__init__()
        self.tag = tag.lower()
        self.attrs: Dict[str, str] = dict(attrs or {})
        self.children: List[Node] = []

    # -- attributes -----------------------------------------------------
    def get(self, name: str, default: str = "") -> str:
        return self.attrs.get(name.lower(), default)

    def set(self, name: str, value: str) -> None:
        self.attrs[name.lower()] = value

    def has_attr(self, name: str) -> bool:
        return name.lower() in self.attrs

    @property
    def id(self) -> str:
        return self.get("id")

    @property
    def classes(self) -> List[str]:
        return self.get("class").split()

    # -- style shortcuts (hidden-iframe heuristics read these) -----------
    @property
    def style(self) -> Dict[str, str]:
        """Parsed inline ``style`` attribute as a property dict."""
        result: Dict[str, str] = {}
        for declaration in self.get("style").split(";"):
            if ":" not in declaration:
                continue
            prop, _, value = declaration.partition(":")
            result[prop.strip().lower()] = value.strip()
        return result

    def dimension(self, name: str) -> Optional[float]:
        """Return the width/height in CSS pixels, from attribute or style.

        Returns ``None`` when not specified or not parseable (e.g. "50%").
        """
        raw = self.style.get(name) or self.get(name)
        if not raw:
            return None
        raw = raw.strip().lower().removesuffix("px").strip()
        try:
            return float(raw)
        except ValueError:
            return None

    # -- tree modification ------------------------------------------------
    def append(self, node: Node) -> Node:
        node.detach()
        node.parent = self
        self.children.append(node)
        return node

    def insert(self, index: int, node: Node) -> Node:
        node.detach()
        node.parent = self
        self.children.insert(index, node)
        return node

    def append_text(self, data: str) -> Text:
        text = Text(data)
        return self.append(text)  # type: ignore[return-value]

    # -- traversal --------------------------------------------------------
    # The walks keep an explicit stack of child iterators, so a hostile
    # page nested thousands of levels deep costs no recursion, and each
    # yield is O(1) instead of passing through one generator per level.
    # An element's children are snapshotted when the walk resumes after
    # yielding it, so a consumer may detach or append nodes as it goes.
    def iter(self) -> Iterator["Element"]:
        """Depth-first (pre-order) iteration over this element and all
        descendants."""
        yield self
        stack = [iter(list(self.children))]
        while stack:
            for child in stack[-1]:
                if isinstance(child, Element):
                    yield child
                    stack.append(iter(list(child.children)))
                    break
            else:
                stack.pop()

    def iter_nodes(self) -> Iterator[Node]:
        """Depth-first iteration over all nodes including text/comments."""
        yield self
        stack = [iter(list(self.children))]
        while stack:
            for child in stack[-1]:
                yield child
                if isinstance(child, Element):
                    stack.append(iter(list(child.children)))
                    break
            else:
                stack.pop()

    def find_all(self, tag: str) -> List["Element"]:
        tag = tag.lower()
        return [el for el in self.iter() if el.tag == tag]

    def find(self, tag: str) -> Optional["Element"]:
        """The first ``tag`` element in document order (stops there)."""
        tag = tag.lower()
        return next((el for el in self.iter() if el.tag == tag), None)

    def text_content(self) -> str:
        return "".join(node.data for node in self.iter_nodes() if isinstance(node, Text))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "Element(%s, %d children)" % (self.tag, len(self.children))


class Document(Element):
    """The document root.

    Behaves as an element with tag ``#document``; provides the handful of
    ``document.*`` accessors the JS host environment exposes.
    """

    def __init__(self) -> None:
        super().__init__("#document")

    @property
    def html(self) -> Optional[Element]:
        return self.find("html")

    @property
    def head(self) -> Optional[Element]:
        return self.find("head")

    @property
    def body(self) -> Optional[Element]:
        return self.find("body")

    def get_element_by_id(self, element_id: str) -> Optional[Element]:
        for el in self.iter():
            if el.id == element_id:
                return el
        return None

