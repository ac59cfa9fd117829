"""Ordered XML document model.

A thin, fully ordered DOM: elements, text, comments and processing
instructions, each knowing its parent.  Document order — the order the
paper's labels must preserve — is the depth-first, begin-tag order of
:meth:`XMLDocument.iter_nodes`.

The model round-trips with the tokenizer: :func:`build_document` consumes
the token stream of :mod:`repro.xml.parser` and
:meth:`XMLDocument.tokens` reproduces it (modulo the XML declaration).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Union

from repro.errors import XMLSyntaxError
from repro.xml import tokens as T


class XMLNode:
    """Base class of document nodes; knows its parent."""

    __slots__ = ("parent", "extra", "begin", "end")

    def __init__(self) -> None:
        self.parent: Optional["XMLElement"] = None
        #: scratch slot for library layers (e.g. Dewey labels); not
        #: serialized
        self.extra: Any = None
        #: the labeling scheme's handle of this node's begin tag (or of
        #: its single list position), set by the ``LabeledDocument``
        #: that labels the node; ``None`` while unlabeled
        self.begin: Any = None
        #: the handle of an element's end tag; ``None`` on point nodes
        #: (text, comment, PI) and while unlabeled
        self.end: Any = None

    @property
    def is_element(self) -> bool:
        return isinstance(self, XMLElement)

    def ancestors(self) -> Iterator["XMLElement"]:
        """Parent, grandparent, ... up to the root element."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def depth(self) -> int:
        """Number of ancestor elements (root element has depth 0)."""
        return sum(1 for _ in self.ancestors())

    def root(self) -> "XMLNode":
        """Topmost node reachable through parent links."""
        node: XMLNode = self
        while node.parent is not None:
            node = node.parent
        return node


class XMLElement(XMLNode):
    """An element: tag, attributes and an ordered child list."""

    __slots__ = ("tag", "attributes", "children")

    def __init__(self, tag: str,
                 attributes: Iterable[tuple[str, str]] = ()):
        super().__init__()
        self.tag = tag
        self.attributes: dict[str, str] = dict(attributes)
        self.children: list[XMLNode] = []

    # -- tree editing ---------------------------------------------------
    def append_child(self, node: XMLNode) -> XMLNode:
        """Attach ``node`` as the last child."""
        node.parent = self
        self.children.append(node)
        return node

    def insert_child(self, index: int, node: XMLNode) -> XMLNode:
        """Attach ``node`` at child position ``index``."""
        node.parent = self
        self.children.insert(index, node)
        return node

    def remove_child(self, node: XMLNode) -> None:
        """Detach a direct child."""
        self.children.remove(node)
        node.parent = None

    def child_index(self, node: XMLNode) -> int:
        """Position of a direct child."""
        return self.children.index(node)

    # -- navigation ------------------------------------------------------
    def child_elements(self) -> Iterator["XMLElement"]:
        """Direct element children, in order."""
        for child in self.children:
            if isinstance(child, XMLElement):
                yield child

    def iter_elements(self) -> Iterator["XMLElement"]:
        """This element and every descendant element in document order."""
        stack: list[XMLElement] = [self]
        while stack:
            element = stack.pop()
            yield element
            stack.extend(reversed(list(element.child_elements())))

    def iter_nodes(self) -> Iterator[XMLNode]:
        """This node and every descendant node in document order."""
        stack: list[XMLNode] = [self]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, XMLElement):
                stack.extend(reversed(node.children))

    def find_all(self, tag: str) -> Iterator["XMLElement"]:
        """Descendant-or-self elements with the given tag."""
        for element in self.iter_elements():
            if element.tag == tag:
                yield element

    def text_content(self) -> str:
        """Concatenated text of all descendant text nodes."""
        pieces = [node.content for node in self.iter_nodes()
                  if isinstance(node, XMLTextNode)]
        return "".join(pieces)

    def is_ancestor_of(self, other: XMLNode) -> bool:
        """Structural ancestor test by parent-chain walk (ground truth
        for the label-based containment tests)."""
        return any(ancestor is self for ancestor in other.ancestors())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<XMLElement {self.tag!r} children={len(self.children)}>"


class XMLTextNode(XMLNode):
    """Character data."""

    __slots__ = ("content",)

    def __init__(self, content: str):
        super().__init__()
        self.content = content


class XMLCommentNode(XMLNode):
    """``<!-- ... -->``."""

    __slots__ = ("content",)

    def __init__(self, content: str):
        super().__init__()
        self.content = content


class XMLInstructionNode(XMLNode):
    """Processing instruction."""

    __slots__ = ("target", "content")

    def __init__(self, target: str, content: str):
        super().__init__()
        self.target = target
        self.content = content


class XMLDocument:
    """A parsed document: one root element plus prolog/epilog misc nodes."""

    def __init__(self, root: XMLElement,
                 prolog: Iterable[XMLNode] = (),
                 epilog: Iterable[XMLNode] = ()):
        self.root = root
        self.prolog = list(prolog)
        self.epilog = list(epilog)

    # -- traversal ---------------------------------------------------------
    def iter_elements(self) -> Iterator[XMLElement]:
        """Every element in document order."""
        return self.root.iter_elements()

    def iter_nodes(self) -> Iterator[XMLNode]:
        """Every node (elements, text, comments, PIs) in document order."""
        return self.root.iter_nodes()

    def find_all(self, tag: str) -> Iterator[XMLElement]:
        """Every element with the given tag, in document order."""
        return self.root.find_all(tag)

    def count_elements(self) -> int:
        return sum(1 for _ in self.iter_elements())

    def count_nodes(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    # -- token stream ------------------------------------------------------
    def tokens(self) -> Iterator[T.Token]:
        """The paper's begin/end/text token list for the whole document."""
        for node in self.prolog:
            yield from _node_tokens(node)
        yield from _node_tokens(self.root)
        for node in self.epilog:
            yield from _node_tokens(node)


def _node_tokens(node: XMLNode) -> Iterator[T.Token]:
    # an explicit stack (end tags wait on it as tokens), so nesting
    # depth is not bounded by Python's recursion limit
    stack: list[Union[XMLNode, T.EndTag]] = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, T.EndTag):
            yield item
        elif isinstance(item, XMLElement):
            yield T.StartTag(item.tag, tuple(item.attributes.items()))
            stack.append(T.EndTag(item.tag))
            stack.extend(reversed(item.children))
        elif isinstance(item, XMLTextNode):
            yield T.Text(item.content)
        elif isinstance(item, XMLCommentNode):
            yield T.Comment(item.content)
        elif isinstance(item, XMLInstructionNode):
            yield T.Instruction(item.target, item.content)
        else:  # pragma: no cover - model is closed
            raise TypeError(f"unknown node type {type(item)!r}")


def _place_misc(node: XMLNode, stack: list[XMLElement],
                root: Optional[XMLElement], prolog: list[XMLNode],
                epilog: list[XMLNode]) -> None:
    """Attach a comment/PI inside the open element or to prolog/epilog."""
    if stack:
        stack[-1].append_child(node)
    elif root is None:
        prolog.append(node)
    else:
        epilog.append(node)


def build_document(token_stream: Iterable[T.Token]) -> XMLDocument:
    """Assemble a document from a token stream (parser back-end).

    Raises :class:`XMLSyntaxError` on mismatched or missing tags, multiple
    roots, or content outside the root other than comments/PIs/whitespace.
    """
    prolog: list[XMLNode] = []
    epilog: list[XMLNode] = []
    root: Optional[XMLElement] = None
    stack: list[XMLElement] = []

    for token in token_stream:
        if isinstance(token, T.StartTag):
            element = XMLElement(token.name, token.attributes)
            if stack:
                stack[-1].append_child(element)
            elif root is None:
                root = element
            else:
                raise XMLSyntaxError(
                    f"second root element <{token.name}>")
            stack.append(element)
        elif isinstance(token, T.EndTag):
            if not stack:
                raise XMLSyntaxError(f"unexpected </{token.name}>")
            open_element = stack.pop()
            if open_element.tag != token.name:
                raise XMLSyntaxError(
                    f"mismatched </{token.name}>, expected "
                    f"</{open_element.tag}>")
        elif isinstance(token, T.Text):
            node = XMLTextNode(token.content)
            if stack:
                stack[-1].append_child(node)
            elif token.content.strip():
                raise XMLSyntaxError("text outside the root element")
            # whitespace-only text outside the root is dropped
        elif isinstance(token, T.Comment):
            _place_misc(XMLCommentNode(token.content), stack, root,
                        prolog, epilog)
        elif isinstance(token, T.Instruction):
            _place_misc(XMLInstructionNode(token.target, token.content),
                        stack, root, prolog, epilog)
        else:  # pragma: no cover - token model is closed
            raise TypeError(f"unknown token {token!r}")

    if stack:
        raise XMLSyntaxError(f"unclosed element <{stack[-1].tag}>")
    if root is None:
        raise XMLSyntaxError("document has no root element")
    return XMLDocument(root, prolog, epilog)
