"""DOM-to-HTML serialization.

Round-trips the trees our parser builds; used by the crawler's
cloaking-mitigation downloader (which stores rendered pages to disk
before submitting them to the scanners, Section III footnote 1) and by
the JS host environment's ``innerHTML`` getter.
"""

from __future__ import annotations

from typing import List, Union

from .dom import Comment, Document, Element, Node, Text
from .parser import VOID_ELEMENTS
from .tokenizer import RAW_TEXT_ELEMENTS

__all__ = ["serialize", "serialize_children", "escape_text", "escape_attr"]

_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ATTR_ESCAPES = {"&": "&amp;", '"': "&quot;", "<": "&lt;"}


def escape_text(text: str) -> str:
    for char, entity in _TEXT_ESCAPES.items():
        text = text.replace(char, entity)
    return text


def escape_attr(text: str) -> str:
    for char, entity in _ATTR_ESCAPES.items():
        text = text.replace(char, entity)
    return text


def serialize(node: Node) -> str:
    """Serialize a node (and its subtree) back to HTML text."""
    parts: List[str] = []
    _serialize_into(node, parts)
    return "".join(parts)


def serialize_children(element: Element) -> str:
    """Serialize only the children of ``element`` (innerHTML semantics)."""
    parts: List[str] = []
    for child in element.children:
        _serialize_into(child, parts)
    return "".join(parts)


def _serialize_into(node: Node, parts: List[str]) -> None:
    # an explicit stack of nodes still to write and of the end tags of
    # open elements (as strings): nesting depth costs no recursion
    stack: List[Union[Node, str]] = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Document):
            parts.append("<!DOCTYPE html>")
            stack.extend(reversed(item.children))
        elif isinstance(item, Text):
            parent = item.parent
            if parent is not None and parent.tag in RAW_TEXT_ELEMENTS:
                parts.append(item.data)
            else:
                parts.append(escape_text(item.data))
        elif isinstance(item, Comment):
            parts.append("<!--%s-->" % item.data)
        elif isinstance(item, Element):
            parts.append("<" + item.tag)
            for name, value in item.attrs.items():
                if value == "":
                    parts.append(" " + name)
                else:
                    parts.append(' %s="%s"' % (name, escape_attr(value)))
            parts.append(">")
            if item.tag in VOID_ELEMENTS:
                continue
            stack.append("</%s>" % item.tag)
            stack.extend(reversed(item.children))
