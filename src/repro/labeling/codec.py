"""Token columns: the stored form of a labeled document.

The paper labels a document as one ordered list of begin tags, end tags
and text sections (§2.1), and a saved
:class:`~repro.labeling.scheme.LabeledDocument` keeps that list's labels
in leaf order.  This module stores the list itself the same way, as
columns in list order, in the layout of succinct labeled trees (Tsur):

``kinds``
    One character per token of the root element: ``(`` a begin tag,
    ``)`` an end tag, ``t`` a text, ``c`` a comment, ``p`` a processing
    instruction (PI) — a balanced-parenthesis sequence whose point
    tokens sit between the parentheses.  ``kinds[i]`` belongs to the
    scheme's ``i``-th live handle.
``prolog``, ``epilog``
    The same characters for the comments and PIs before and after the
    root element; they hold no label.
``names``
    The name dictionary: every distinct tag and attribute name.
``tags``
    One name id per begin token, in list order.
``attribute_owners``, ``attribute_names``, ``attribute_values``
    One entry per attribute, in list order: the position in ``kinds``
    of its element's begin token, its name id and its value.
``texts``, ``comments``, ``instructions``
    The side tables of the point tokens, in document order (prolog,
    root, epilog): one string per text and per comment, one
    ``[target, content]`` pair per PI.

The blob is these columns as one JSON object.  XML text is an export
(:func:`repro.xml.serializer.serialize`), and :func:`encode` refuses
every document that export would not carry: the **export rule** below
is checked on the columns, so saving never renders or re-parses XML.
"""

from __future__ import annotations

import json
from typing import Any, Optional, Sequence

from repro.errors import ParameterError
from repro.xml.model import (XMLCommentNode, XMLDocument, XMLElement,
                             XMLInstructionNode, XMLNode, XMLTextNode)
from repro.xml.parser import is_name

#: the column names of a format-2 blob
_COLUMNS = ("kinds", "prolog", "epilog", "names", "tags",
            "attribute_owners", "attribute_names", "attribute_values",
            "texts", "comments", "instructions")

#: closes an element in the save walk's stack
_CLOSE = object()


def _columns_of(document: XMLDocument) -> dict:
    """The token columns of ``document``, in one walk of its nodes."""
    names: dict[str, int] = {}
    tags: list[int] = []
    owners: list[int] = []
    keys: list[int] = []
    values: list[str] = []
    texts: list[str] = []
    comments: list[str] = []
    instructions: list[list[str]] = []
    name_id = names.setdefault

    def walk(nodes: Sequence[XMLNode]) -> str:
        kinds: list[str] = []
        stack = list(reversed(nodes))
        while stack:
            node = stack.pop()
            if node is _CLOSE:
                kinds.append(")")
            elif isinstance(node, XMLElement):
                for key, value in node.attributes.items():
                    owners.append(len(kinds))
                    keys.append(name_id(key, len(names)))
                    values.append(value)
                kinds.append("(")
                tags.append(name_id(node.tag, len(names)))
                stack.append(_CLOSE)
                stack.extend(reversed(node.children))
            elif isinstance(node, XMLTextNode):
                kinds.append("t")
                texts.append(node.content)
            elif isinstance(node, XMLCommentNode):
                kinds.append("c")
                comments.append(node.content)
            elif isinstance(node, XMLInstructionNode):
                kinds.append("p")
                instructions.append([node.target, node.content])
            else:
                raise TypeError(f"unknown node type {type(node)!r}")
        return "".join(kinds)

    prolog = walk(document.prolog)
    kinds = walk([document.root])
    epilog = walk(document.epilog)
    return {"kinds": kinds, "prolog": prolog, "epilog": epilog,
            "names": list(names), "tags": tags, "attribute_owners": owners,
            "attribute_names": keys, "attribute_values": values,
            "texts": texts, "comments": comments,
            "instructions": instructions}


def _export_problem(columns: dict) -> Optional[str]:
    """The export rule: why the document's XML export would not re-parse
    to the same document, or ``None`` when it would.

    :func:`repro.xml.parser.parse` reads back what
    :func:`~repro.xml.serializer.serialize` wrote exactly when every
    tag and attribute name is a name to the tokenizer; nothing but
    comments and PIs lies outside the root element (whitespace there is
    dropped, other text refused, a second element a second root); no
    text is empty or follows another text (they would vanish or merge);
    no comment holds ``-->``; every PI target is a name other than
    ``xml`` in any case; and no PI content holds ``?>`` or starts or
    ends with whitespace (the tokenizer strips it, and the space
    between target and content is the serializer's).  One more rule is
    checked by :func:`encode`: every string must encode to UTF-8.
    """
    for name in columns["names"]:
        if not is_name(name):
            return f"tag or attribute name {name!r} is not an XML name"
    for where in ("prolog", "epilog"):
        if columns[where].strip("cp"):
            return f"the {where} holds text or an element"
    if "tt" in columns["kinds"]:
        return "two adjacent text nodes would merge (merge them first)"
    if "" in columns["texts"]:
        return "an empty text node would vanish"
    for content in columns["comments"]:
        if "-->" in content:
            return f"comment {content!r} holds '-->'"
    for target, content in columns["instructions"]:
        if not is_name(target) or target.lower() == "xml":
            return f"PI target {target!r} is not a name other than 'xml'"
        if "?>" in content or content != content.strip():
            return (f"PI content {content!r} holds '?>' or starts or ends "
                    f"with whitespace")
    return None


def encode(document: XMLDocument) -> bytes:
    """The format-2 blob of ``document``.

    Raises :class:`ParameterError` for a document that breaks the export
    rule (:func:`_export_problem`) or holds a string that is not valid
    Unicode.
    """
    columns = _columns_of(document)
    problem = _export_problem(columns)
    if problem is None:
        try:
            return json.dumps(columns, ensure_ascii=False,
                              separators=(",", ":")).encode("utf-8")
        except UnicodeEncodeError as exc:
            problem = f"a string is not valid Unicode ({exc.reason})"
    raise ParameterError(
        f"document does not survive an XML round trip: {problem}")


def decode(data: bytes) -> dict:
    """The columns of a format-2 blob, checked for shape and counts.

    Raises :class:`ParameterError` on a blob that is not the JSON of
    consistent columns, so :func:`build` can trust what it reads.
    """
    try:
        columns = json.loads(bytes(data))
    except ValueError as exc:
        raise ParameterError(f"document columns are not JSON: {exc}") \
            from None
    problem = _shape_problem(columns)
    if problem:
        raise ParameterError(f"inconsistent document columns: {problem}")
    return columns


def _all(values: Any, kind: type) -> bool:
    return isinstance(values, list) and set(map(type, values)) <= {kind}


def _shape_problem(columns: Any) -> Optional[str]:
    """Why decoded JSON is not a consistent set of columns, or
    ``None``: keys, kinds, entry types, id ranges, one entry per kind
    and attributes owned by begin tokens."""
    if not isinstance(columns, dict) or sorted(columns) != sorted(_COLUMNS):
        return f"expected the keys {list(_COLUMNS)}"
    kinds, names, tags = (columns["kinds"], columns["names"],
                          columns["tags"])
    owners, keys = columns["attribute_owners"], columns["attribute_names"]
    if not all(isinstance(columns[key], str)
               for key in ("kinds", "prolog", "epilog")) or \
            set(kinds) - set("()tcp") or \
            (columns["prolog"] + columns["epilog"]).strip("cp"):
        return "a kind column holds an unknown kind"
    if not (_all(names, str) and _all(tags, int) and _all(owners, int) and
            _all(keys, int) and _all(columns["attribute_values"], str) and
            _all(columns["texts"], str) and
            _all(columns["comments"], str) and
            _all(columns["instructions"], list)):
        return "a column holds an entry of the wrong type"
    if min(tags + keys, default=0) < 0 or \
            max(tags + keys, default=-1) >= len(names):
        return f"a name id is outside the {len(names)}-name dictionary"
    every = kinds + columns["prolog"] + columns["epilog"]
    for kind, key in (("(", "tags"), (")", "tags"), ("t", "texts"),
                      ("c", "comments"), ("p", "instructions")):
        if every.count(kind) != len(columns[key]):
            return (f"{every.count(kind)} {kind!r} kinds but "
                    f"{len(columns[key])} {key}")
    if not all(len(pair) == 2 and _all(pair, str)
               for pair in columns["instructions"]):
        return "an instruction is not a [target, content] pair"
    if not len(owners) == len(keys) == len(columns["attribute_values"]):
        return "the attribute columns differ in length"
    if owners and (min(owners) < 0 or max(owners) >= len(kinds) or
                   set(map(kinds.__getitem__, owners)) != {"("}):
        return "an attribute's owner is not a begin token"
    if len(set(zip(owners, keys))) != len(owners):
        return "an element holds one attribute name twice"
    return None


def _misc(kinds: str, comments: Any, instructions: Any) -> list[XMLNode]:
    """The prolog or epilog nodes of ``kinds`` (comments and PIs)."""
    return [XMLCommentNode(next(comments)) if kind == "c"
            else XMLInstructionNode(*next(instructions)) for kind in kinds]


def build(columns: dict, handles: Sequence[Any]) -> XMLDocument:
    """Rebuild the document of ``columns`` on the scheme's live handles.

    One pass over the kind column zipped with ``handles``: each token
    builds its node (or closes its element) and stores its handle in
    the node's ``begin`` slot, or an end tag's in its element's
    ``end`` slot.  Attributes then attach through the pass's one
    per-token list of nodes.  The columns must come from
    :func:`decode`; raises :class:`ParameterError` when they do not
    describe one root element or their token count is not the number
    of handles.
    """
    kinds = columns["kinds"]
    if len(kinds) != len(handles):
        raise ParameterError(
            f"document has {len(kinds)} tokens but the restored scheme "
            f"holds {len(handles)} live labels")
    names = columns["names"]
    next_tag = map(names.__getitem__, columns["tags"]).__next__
    next_text = iter(columns["texts"]).__next__
    comments = iter(columns["comments"])
    instructions = iter(columns["instructions"])
    prolog = _misc(columns["prolog"], comments, instructions)
    nodes: list[XMLNode] = []   # the node of each token
    append = nodes.append
    top = XMLElement("")   # holds the root while the pass runs
    parent, siblings = top, top.children
    stack: list[XMLElement] = []
    for kind, handle in zip(kinds, handles):
        if kind == "(":
            node = XMLElement(next_tag())
            node.parent = parent
            node.begin = handle
            siblings.append(node)
            stack.append(parent)
            parent, siblings = node, node.children
        elif kind == ")":
            if not stack:
                raise ParameterError(
                    "unbalanced kind column: an end token closes no "
                    "element")
            node = parent
            node.end = handle
            parent = stack.pop()
            siblings = parent.children
        else:
            if kind == "t":
                node = XMLTextNode(next_text())
            elif kind == "c":
                node = XMLCommentNode(next(comments))
            else:
                node = XMLInstructionNode(*next(instructions))
            node.parent = parent
            node.begin = handle
            siblings.append(node)
        append(node)
    if stack or len(top.children) != 1 or \
            not isinstance(top.children[0], XMLElement):
        raise ParameterError(
            "unbalanced kind column: the tokens are not one root element")
    root = top.children[0]
    root.parent = None
    for owner, key, value in zip(columns["attribute_owners"],
                                 columns["attribute_names"],
                                 columns["attribute_values"]):
        nodes[owner].attributes[names[key]] = value
    return XMLDocument(root, prolog,
                       _misc(columns["epilog"], comments, instructions))
