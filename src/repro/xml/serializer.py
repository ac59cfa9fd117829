"""XML serializer: the inverse of :mod:`repro.xml.parser`.

Escapes the five predefined entities, quotes attributes with double
quotes, optionally pretty-prints, and round-trips with the parser
(property-tested in ``tests/xml/test_roundtrip.py``).
"""

from __future__ import annotations

from typing import Union

from repro.xml.model import (XMLCommentNode, XMLDocument, XMLElement,
                             XMLInstructionNode, XMLNode, XMLTextNode)

_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ATTR_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"}


def escape_text(raw: str) -> str:
    """Escape character data for element content."""
    for char, entity in _TEXT_ESCAPES.items():
        raw = raw.replace(char, entity)
    return raw


def escape_attribute(raw: str) -> str:
    """Escape an attribute value for a double-quoted literal."""
    for char, entity in _ATTR_ESCAPES.items():
        raw = raw.replace(char, entity)
    return raw


def serialize(item: Union[XMLDocument, XMLNode],
              declaration: bool = False) -> str:
    """Render a document or node subtree as XML text."""
    pieces: list[str] = []
    if declaration:
        pieces.append('<?xml version="1.0" encoding="UTF-8"?>')
    if isinstance(item, XMLDocument):
        for node in item.prolog:
            _render(node, pieces)
        _render(item.root, pieces)
        for node in item.epilog:
            _render(node, pieces)
    else:
        _render(item, pieces)
    return "".join(pieces)


def _render(node: XMLNode, pieces: list[str]) -> None:
    # an explicit stack (end tags wait on it as strings), so nesting
    # depth is not bounded by Python's recursion limit
    stack: list[Union[XMLNode, str]] = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            pieces.append(item)
        elif isinstance(item, XMLElement):
            attributes = "".join(
                f' {key}="{escape_attribute(value)}"'
                for key, value in item.attributes.items())
            if item.children:
                pieces.append(f"<{item.tag}{attributes}>")
                stack.append(f"</{item.tag}>")
                stack.extend(reversed(item.children))
            else:
                pieces.append(f"<{item.tag}{attributes}/>")
        elif isinstance(item, XMLTextNode):
            pieces.append(escape_text(item.content))
        elif isinstance(item, XMLCommentNode):
            pieces.append(f"<!--{item.content}-->")
        elif isinstance(item, XMLInstructionNode):
            body = f"{item.target} {item.content}" if item.content \
                else item.target
            pieces.append(f"<?{body}?>")
        else:  # pragma: no cover - model is closed
            raise TypeError(f"unknown node type {type(item)!r}")


def pretty(item: Union[XMLDocument, XMLNode], indent: str = "  ") -> str:
    """Indented rendering for human consumption.

    Not guaranteed to round-trip (whitespace is added inside elements
    that contain no text); use :func:`serialize` for lossless output.
    """
    pieces: list[str] = []
    root = item.root if isinstance(item, XMLDocument) else item
    _render_pretty(root, pieces, indent, 0)
    return "\n".join(pieces)


def _render_pretty(node: XMLNode, pieces: list[str], indent: str,
                   level: int) -> None:
    # an explicit stack (padded end tags wait on it as strings), so
    # nesting depth is not bounded by Python's recursion limit
    stack: list[tuple[Union[XMLNode, str], int]] = [(node, level)]
    while stack:
        item, level = stack.pop()
        pad = indent * level
        if isinstance(item, str):
            pieces.append(item)
        elif isinstance(item, XMLElement):
            attributes = "".join(
                f' {key}="{escape_attribute(value)}"'
                for key, value in item.attributes.items())
            has_element_children = any(
                isinstance(child, XMLElement) for child in item.children)
            if not item.children:
                pieces.append(f"{pad}<{item.tag}{attributes}/>")
            elif has_element_children:
                pieces.append(f"{pad}<{item.tag}{attributes}>")
                stack.append((f"{pad}</{item.tag}>", level))
                stack.extend((child, level + 1)
                             for child in reversed(item.children))
            else:
                inline = "".join(
                    escape_text(child.content)
                    for child in item.children
                    if isinstance(child, XMLTextNode))
                pieces.append(
                    f"{pad}<{item.tag}{attributes}>{inline}</{item.tag}>")
        elif isinstance(item, XMLTextNode):
            stripped = item.content.strip()
            if stripped:
                pieces.append(f"{pad}{escape_text(stripped)}")
        elif isinstance(item, XMLCommentNode):
            pieces.append(f"{pad}<!--{item.content}-->")
        elif isinstance(item, XMLInstructionNode):
            body = f"{item.target} {item.content}" if item.content \
                else item.target
            pieces.append(f"{pad}<?{body}?>")
