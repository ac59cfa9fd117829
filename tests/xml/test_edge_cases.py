"""XML substrate edge cases: unicode, depth, pathological shapes."""

import pytest

from repro.errors import XMLSyntaxError
from repro.labeling import DeweyDocument, LabeledDocument
from repro.order import make_scheme
from repro.xml import (StartTag, build_document, parse, pretty, serialize,
                       tokenize)
from repro.xml.generator import deep_document


class TestUnicode:
    def test_unicode_text_roundtrip(self):
        source = "<a>héllo wörld — ünïcode ✓</a>"
        document = parse(source)
        assert document.root.text_content() == "héllo wörld — ünïcode ✓"
        assert parse(serialize(document)).root.text_content() == \
            document.root.text_content()

    def test_unicode_attribute_values(self):
        document = parse('<a title="café ☕"/>')
        assert document.root.attributes["title"] == "café ☕"

    def test_emoji_character_references(self):
        document = parse("<a>&#128640;</a>")
        assert document.root.text_content() == "🚀"

    def test_cjk_content(self):
        source = "<文 属=\"値\">日本語テキスト</文>"
        document = parse(source)
        assert document.root.tag == "文"
        assert document.root.attributes["属"] == "値"


class TestDepth:
    DEPTH = 3000
    SCHEMES = ("ltree-compact", "ltree-sharded")

    def test_parse_deep_document_iteratively(self):
        """The tokenizer is iterative; deep nesting must not recurse."""
        depth = 3000
        source = ("<d>" * depth) + ("</d>" * depth)
        document = parse(source)
        count = sum(1 for _ in document.iter_elements())
        assert count == depth

    def test_label_deep_document(self):
        """Labeling walks the token list with its own stack."""
        for name in self.SCHEMES:
            document = deep_document(self.DEPTH)
            labeled = LabeledDocument(document, scheme=make_scheme(name))
            labeled.validate()
            bottom = next(document.find_all(f"level{self.DEPTH - 1}"))
            assert labeled.is_ancestor(document.root, bottom), name

    def test_serialize_deep_document(self):
        text = serialize(deep_document(self.DEPTH))
        assert text.count("<level") == self.DEPTH
        assert parse(text).count_elements() == self.DEPTH

    def test_tokens_of_deep_document(self):
        """The token walk keeps its own stack, and its tokens rebuild
        the same document."""
        document = deep_document(self.DEPTH)
        tokens = list(document.tokens())
        assert sum(isinstance(token, StartTag)
                   for token in tokens) == self.DEPTH
        assert serialize(build_document(tokens)) == serialize(document)

    def test_pretty_deep_document(self):
        lines = pretty(deep_document(self.DEPTH)).splitlines()
        assert sum(line.lstrip().startswith("<level")
                   for line in lines) == self.DEPTH

    def test_dewey_deep_document(self):
        """Dewey labeling keeps its own stack, in the constructor and
        in the relabel loop of ``insert_subtree``, and so does the
        unlabeling walk of ``delete_subtree``."""
        document = deep_document(self.DEPTH)
        dewey = DeweyDocument(document)
        bottom = next(document.find_all(f"level{self.DEPTH - 1}"))
        assert len(dewey.label(bottom)) == self.DEPTH - 1
        dewey.insert_subtree(document.root, 0, parse("<first/>").root)
        assert dewey.label(bottom)[0] == 1
        assert dewey.is_ancestor(document.root, bottom)
        dewey.validate()
        dewey.delete_subtree(document.root.children[1])
        with pytest.raises(ValueError):
            dewey.label(bottom)

    def test_deep_document_save_open_round_trip(self, tmp_path):
        for name in self.SCHEMES:
            labeled = LabeledDocument(deep_document(self.DEPTH),
                                      scheme=make_scheme(name))
            path = str(tmp_path / f"{name}.ltp")
            labeled.save(path)
            reopened = LabeledDocument.open(path)
            try:
                reopened.validate()
                assert reopened.labels_in_order() == \
                    labeled.labels_in_order(), name
                assert serialize(reopened.document) == \
                    serialize(labeled.document), name
            finally:
                reopened.close()


class TestPathologicalInput:
    def test_huge_attribute_count(self):
        attributes = " ".join(f'a{i}="{i}"' for i in range(500))
        document = parse(f"<e {attributes}/>")
        assert len(document.root.attributes) == 500

    def test_very_long_text(self):
        blob = "x" * 200_000
        document = parse(f"<a>{blob}</a>")
        assert len(document.root.text_content()) == 200_000

    def test_many_siblings(self):
        source = "<r>" + "<c/>" * 5000 + "</r>"
        document = parse(source)
        assert len(document.root.children) == 5000

    def test_nested_comment_like_text(self):
        document = parse("<a>not &lt;!-- a comment --&gt;</a>")
        assert "<!--" in document.root.text_content()

    def test_cdata_with_angle_brackets(self):
        document = parse("<a><![CDATA[if (a<b && b>c) {}]]></a>")
        assert "a<b && b>c" in document.root.text_content()

    def test_bare_ampersand_rejected(self):
        with pytest.raises(XMLSyntaxError):
            list(tokenize("<a>fish & chips</a>"))

    def test_tag_soup_rejected(self):
        for soup in ("<a><b></a></b>", "<a></a></a>", "<><></>"):
            with pytest.raises(XMLSyntaxError):
                parse(soup)


class TestWhitespaceHandling:
    def test_whitespace_only_text_preserved_inside_root(self):
        document = parse("<a> <b/> </a>")
        texts = [node for node in document.iter_nodes()
                 if not node.is_element]
        assert len(texts) == 2

    def test_newlines_in_attributes(self):
        document = parse('<a k="line1&#10;line2"/>')
        assert "\n" in document.root.attributes["k"]
