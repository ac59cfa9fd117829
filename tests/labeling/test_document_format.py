"""The stored form of a LabeledDocument: token columns (format 2).

What a save may refuse and must keep (the export rule, row by row),
what a reopen hands back, column blobs that are truncated or
inconsistent, and stores that hold no saved document at all.
"""

import gc
import json
import random

import pytest

from repro.core.params import LTreeParams
from repro.errors import ParameterError
from repro.labeling.scheme import LabeledDocument, _tokens
from repro.order.compact_list import CompactListLabeling
from repro.order.ltree_list import LTreeListLabeling
from repro.order.sharded_list import ShardedListLabeling
from repro.storage.pages import PageStore
from repro.xml.generator import xmark_like
from repro.xml.model import (XMLCommentNode, XMLDocument, XMLElement,
                             XMLInstructionNode, XMLTextNode)
from repro.xml.parser import parse
from repro.xml.serializer import serialize

PARAMS = LTreeParams(f=16, s=4)

SCHEMES = {
    "ltree": LTreeListLabeling,
    "ltree-compact": CompactListLabeling,
    "ltree-sharded": ShardedListLabeling,
}


def _model(document):
    """Every field of every node, prolog and epilog included."""
    def node(item):
        if isinstance(item, XMLElement):
            return ("element", item.tag, tuple(item.attributes.items()),
                    tuple(node(child) for child in item.children))
        if isinstance(item, XMLTextNode):
            return ("text", item.content)
        if isinstance(item, XMLCommentNode):
            return ("comment", item.content)
        return ("pi", item.target, item.content)
    return (tuple(map(node, document.prolog)), node(document.root),
            tuple(map(node, document.epilog)))


def _doc(*children, prolog=(), epilog=()):
    root = XMLElement("r")
    for child in children:
        root.append_child(child)
    return XMLDocument(root, prolog, epilog)


def _text(content):
    return XMLTextNode(content)


def _pi(target, content):
    return XMLInstructionNode(target, content)


# ----------------------------------------------------------------------
# the export rule
# ----------------------------------------------------------------------
REFUSED = {
    "adjacent-text": lambda: _doc(_text("a"), _text("b")),
    "empty-text": lambda: _doc(_text("")),
    "comment-holding-close": lambda: _doc(XMLCommentNode("a-->b")),
    "pi-content-holding-close": lambda: _doc(_pi("t", "a?>b")),
    "pi-target-xml": lambda: _doc(_pi("xml", "x")),
    "pi-target-XmL": lambda: _doc(_pi("XmL", "")),
    "pi-target-empty": lambda: _doc(_pi("", "x")),
    "tag-with-space": lambda: _doc(XMLElement("a b")),
    "tag-empty": lambda: _doc(XMLElement("")),
    "tag-leading-digit": lambda: _doc(XMLElement("1a")),
    "attribute-leading-digit": lambda: _doc(XMLElement("a", [("1x", "v")])),
    "attribute-holding-equals": lambda: _doc(XMLElement("a", [("x=", "v")])),
    "lone-surrogate-text": lambda: _doc(_text("a\ud800b")),
}

ACCEPTED = {
    "comment-holding-dashes": lambda: _doc(XMLCommentNode("a--b")),
    "comment-ending-in-dash": lambda: _doc(XMLCommentNode("a-")),
    "target-only-pi": lambda: _doc(_pi("t", "")),
    "text-holding-cr": lambda: _doc(_text("a\rb")),
    "text-holding-nul": lambda: _doc(_text("a\x00b")),
    "text-holding-cdata-close": lambda: _doc(_text("a]]>b")),
    "text-holding-entity": lambda: _doc(_text("&amp;")),
    "whitespace-text-in-element": lambda: _doc(
        XMLElement("a"), _text(" \n\t "), XMLElement("b")),
    "attribute-value-specials": lambda: _doc(
        XMLElement("a", [("v", "\"&'<>")])),
    "text-comment-text": lambda: _doc(
        _text("a"), XMLCommentNode("c"), _text("b")),
}

#: documents a save accepted before the export rule and reopened altered
ALTERED_ON_REOPEN = {
    "pi-target-with-space": lambda: _doc(_pi("a b", "")),
    "pi-content-leading-space": lambda: _doc(_pi("t", " x")),
    "pi-content-trailing-space": lambda: _doc(_pi("t", "x ")),
    "whitespace-text-in-prolog": lambda: _doc(
        XMLElement("a"), prolog=[_text("\n")]),
    "whitespace-text-in-epilog": lambda: _doc(
        XMLElement("a"), epilog=[_text(" ")]),
    "comment-close-then-text": lambda: _doc(
        XMLCommentNode("a-->"), _text("y")),
    "pi-target-xml-in-prolog": lambda: _doc(
        XMLElement("a"), prolog=[_pi("xml", "v")]),
}


@pytest.mark.parametrize("row", sorted(REFUSED) + sorted(ACCEPTED))
def test_refusal_table(tmp_path, row):
    """Each row behaves as before token columns: refused with nothing
    written, or accepted and reopened with an identical model."""
    document = (REFUSED.get(row) or ACCEPTED[row])()
    labeled = LabeledDocument(document, scheme=CompactListLabeling(PARAMS))
    with PageStore(str(tmp_path / "doc.ltp")) as store:
        if row in REFUSED:
            with pytest.raises(ParameterError, match="round trip"):
                labeled.save(store)
            assert list(store.blobs()) == []
            return
        labeled.save(store)
        reopened = LabeledDocument.open(store)
    assert _model(reopened.document) == _model(document)
    assert reopened.labels_in_order() == labeled.labels_in_order()
    reopened.validate()


@pytest.mark.parametrize("row", sorted(ALTERED_ON_REOPEN))
def test_save_refuses_documents_their_xml_would_alter(tmp_path, row):
    labeled = LabeledDocument(ALTERED_ON_REOPEN[row](),
                              scheme=CompactListLabeling(PARAMS))
    with PageStore(str(tmp_path / "doc.ltp")) as store:
        with pytest.raises(ParameterError, match="round trip"):
            labeled.save(store)
        assert list(store.blobs()) == []


# ----------------------------------------------------------------------
# a reopen hands each token its handle back
# ----------------------------------------------------------------------
def _edited(name, seed=17):
    document = xmark_like(n_items=15, n_people=8, n_auctions=6, seed=seed)
    document.prolog.append(XMLCommentNode(" generated "))
    document.epilog.append(_pi("done", "yes"))
    labeled = LabeledDocument(document, scheme=SCHEMES[name](PARAMS))
    rng = random.Random(seed)
    elements = [element for element in document.iter_elements()
                if element.parent is not None]
    for index in range(6):
        sub = parse(f"<extra n=\"{index}\"><v>{index}</v>tail</extra>").root
        labeled.append_subtree(rng.choice(elements), sub)
    for _ in range(3):   # mark-only deletes leave tombstones
        victims = [element for element in document.iter_elements()
                   if element.parent is not None and
                   element.parent.parent is not None]
        labeled.delete_subtree(rng.choice(victims))
    return labeled


def _token_kinds(labeled):
    """The kinds of the document's tokens, each checked to hold the
    scheme's live handle at that position in its node's ``begin`` slot
    (an end tag: ``end`` slot), so handle order is token order."""
    kinds, nodes = _tokens(labeled.document.root)
    handles = list(labeled.scheme.handles())
    assert len(handles) == len(nodes)
    for kind, node, handle in zip(kinds, nodes, handles):
        assert (node.end if kind == ")" else node.begin) == handle
        if kind == ".":
            assert node.end is None
    return kinds


def test_concurrent_open_materializes_nothing_and_saves_format2(tmp_path):
    from repro.concurrent.engine import ConcurrentLTree

    labeled = _edited("ltree-sharded")
    path = str(tmp_path / "doc.ltp")
    labeled.save(path)
    reopened = LabeledDocument.open(path, concurrent=True)
    try:
        tree = reopened.scheme.tree
        assert isinstance(tree, ConcurrentLTree)
        assert tree.materialized_shards == []
        assert reopened.labels_in_order() == labeled.labels_in_order()
        assert serialize(reopened.document) == serialize(labeled.document)
        assert _token_kinds(reopened) == _token_kinds(labeled)
        assert tree.materialized_shards == []
        reopened.append_subtree(reopened.document.root,
                                parse("<late/>").root)
        reopened.save()
    finally:
        reopened.close()
    with PageStore(path) as store:
        assert json.loads(bytes(store.get_blob("meta")))["format"] == 2
        assert not store.has_blob("document.xml")
        again = LabeledDocument.open(store)
    assert again.labels_in_order() == reopened.labels_in_order()
    assert _model(again.document) == _model(reopened.document)


@pytest.mark.parametrize("name, concurrent", [("ltree-compact", False),
                                              ("ltree-sharded", False),
                                              ("ltree-sharded", True)])
def test_open_tracks_one_object_per_token(tmp_path, name, concurrent):
    """A reopen adds about one collector-tracked object per token: a
    node per text or element, an element's child list, and nothing per
    handle, so the collector's full passes stay proportionate."""
    document = xmark_like(n_items=200, n_people=100, n_auctions=68, seed=1)
    labeled = LabeledDocument(document, scheme=SCHEMES[name](PARAMS))
    path = str(tmp_path / "doc.ltp")
    labeled.save(path)
    tokens = len(labeled.scheme)
    assert tokens > 7000
    gc.collect()
    before = len(gc.get_objects())
    reopened = LabeledDocument.open(path, concurrent=concurrent)
    try:
        gc.collect()
        added = len(gc.get_objects()) - before
    finally:
        reopened.close()
    assert added <= 1.1 * tokens, f"{added / tokens:.2f} per token"


# ----------------------------------------------------------------------
# column blobs that are truncated or inconsistent
# ----------------------------------------------------------------------
SMALL = "<r><a i=\"1\">x</a><b><c/>y</b><!--k--><?p q?></r>"


def _reverse(columns):
    columns["kinds"] = columns["kinds"][::-1]


def _second_root(columns):
    kinds = columns["kinds"]
    columns["kinds"] = "()" + kinds[1:-1]


def _drop_text(columns):
    columns["texts"].pop()


def _tag_out_of_range(columns):
    columns["tags"][1] = len(columns["names"])


def _negative_tag(columns):
    columns["tags"][1] = -1


def _surplus_tag(columns):
    columns["tags"].append(0)


def _surplus_text(columns):
    columns["texts"].append("more")


def _more_tokens_than_labels(columns):
    columns["kinds"] = columns["kinds"][:-1] + "t)"
    columns["texts"].append("more")


def _fewer_tokens_than_labels(columns):
    columns["kinds"] = columns["kinds"].replace("c", "")
    columns["comments"].clear()


def _wrong_type(columns):
    columns["texts"][0] = 5


def _missing_column(columns):
    del columns["instructions"]


def _attribute_on_a_text(columns):
    columns["attribute_owners"].append(2)
    columns["attribute_names"].append(0)
    columns["attribute_values"].append("v")


def _attribute_name_twice(columns):
    for key in ("attribute_owners", "attribute_names",
                "attribute_values"):
        columns[key].append(columns[key][-1])


CORRUPTIONS = {
    "unbalanced-kinds": _reverse,
    "second-root": _second_root,
    "dropped-text": _drop_text,
    "tag-id-out-of-range": _tag_out_of_range,
    "negative-tag-id": _negative_tag,
    "surplus-tag": _surplus_tag,
    "surplus-text": _surplus_text,
    "more-tokens-than-labels": _more_tokens_than_labels,
    "fewer-tokens-than-labels": _fewer_tokens_than_labels,
    "wrong-type": _wrong_type,
    "missing-column": _missing_column,
    "attribute-on-a-text": _attribute_on_a_text,
    "attribute-name-twice": _attribute_name_twice,
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS) + ["truncated"])
def test_open_refuses_corrupt_columns(tmp_path, case):
    labeled = LabeledDocument(parse(SMALL),
                              scheme=ShardedListLabeling(PARAMS))
    path = str(tmp_path / "doc.ltp")
    labeled.save(path)
    with PageStore(path) as store:
        raw = bytes(store.get_blob("document.columns"))
        if case == "truncated":
            raw = raw[:len(raw) // 2]
        else:
            columns = json.loads(raw)
            CORRUPTIONS[case](columns)
            raw = json.dumps(columns).encode("utf-8")
        store.put_blob("document.columns", raw)
        with pytest.raises(ParameterError):
            LabeledDocument.open(store)


# ----------------------------------------------------------------------
# stores that hold no saved document
# ----------------------------------------------------------------------
def _empty_store(tmp_path):
    path = str(tmp_path / "empty.ltp")
    PageStore(path).close()
    return path


def _service_store(tmp_path):
    from repro.concurrent.service import PAGES_FILE, ConcurrentDocument

    directory = str(tmp_path / "svc")
    service = ConcurrentDocument.create(directory, n_shards=2)
    service.bulk_load([f"p{i}" for i in range(8)])
    service.checkpoint()
    service.close()
    return f"{directory}/{PAGES_FILE}"


def _meta_not_an_object(tmp_path):
    path = str(tmp_path / "list.ltp")
    LabeledDocument(parse(SMALL)).save(path)
    with PageStore(path) as store:
        store.put_blob("meta", b"[2, \"compact-bytes\"]")
    return path


@pytest.mark.parametrize("make", [_empty_store, _service_store,
                                  _meta_not_an_object])
def test_open_of_a_store_without_a_document(tmp_path, monkeypatch, make):
    import repro.storage.pages as pages_module

    path = make(tmp_path)
    created = []
    real_store = pages_module.PageStore

    class SpyStore(real_store):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(pages_module, "PageStore", SpyStore)
    with pytest.raises(ParameterError, match=path.rsplit("/", 1)[-1]):
        LabeledDocument.open(path)
    assert created and all(spy._file.closed for spy in created)
