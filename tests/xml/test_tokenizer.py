"""The regex tokenizer: the language it accepts and where it says no.

Three angles on one scan:

* a property test serializes random DOMs holding every node kind the
  model has and requires the tokenizer to give back exactly
  :meth:`XMLDocument.tokens`;
* a table pins each error the scan can raise to its message and the
  ``(line, column)`` it is reported at;
* a few single inputs pin the edges of the language (names, whitespace,
  attribute spacing, empty runs).
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import XMLSyntaxError
from repro.xml.model import (XMLCommentNode, XMLDocument, XMLElement,
                             XMLInstructionNode, XMLTextNode)
from repro.xml.parser import tokenize
from repro.xml.serializer import serialize
from repro.xml.tokens import EndTag, StartTag, Text

_NAMES = st.sampled_from(
    ["a", "b", "item", "ns:t", "_x", "w-2.v", "文", "属性", "é", "x1"])
#: text and values that need escaping, CJK and tag whitespace
_CHARS = st.sampled_from(list("ab &<>\"';#\n\t文字é"))
_TEXT = st.text(alphabet=_CHARS, min_size=1, max_size=8)
_COMMENT = st.text(alphabet=st.sampled_from(list("a -<>!文")),
                   max_size=8).filter(lambda text: "-->" not in text)
_PI_TARGETS = st.sampled_from(["pi", "php", "xml-stylesheet", "文"])
_PI_CONTENT = st.text(alphabet=st.sampled_from(list("a =\"'?>文")),
                      max_size=8).map(str.strip).filter(
                          lambda text: "?>" not in text)


def _misc():
    return st.one_of(
        _COMMENT.map(XMLCommentNode),
        st.builds(XMLInstructionNode, _PI_TARGETS, _PI_CONTENT))


@st.composite
def _elements(draw, depth=0):
    element = XMLElement(draw(_NAMES))
    for key in draw(st.lists(_NAMES, unique=True, max_size=3)):
        element.attributes[key] = draw(st.text(alphabet=_CHARS,
                                               max_size=6))
    kinds = ["text", "misc"] + (["element"] if depth < 3 else [])
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=4)):
        if kind == "text":
            # the XML round trip merges adjacent text nodes
            if element.children and \
                    isinstance(element.children[-1], XMLTextNode):
                continue
            element.append_child(XMLTextNode(draw(_TEXT)))
        elif kind == "misc":
            element.append_child(draw(_misc()))
        else:
            element.append_child(draw(_elements(depth=depth + 1)))
    return element


@st.composite
def _documents(draw):
    return XMLDocument(draw(_elements()),
                       prolog=draw(st.lists(_misc(), max_size=2)),
                       epilog=draw(st.lists(_misc(), max_size=2)))


class TestRoundTrip:
    @given(document=_documents())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_tokens_of_serialized_dom(self, document):
        assert list(tokenize(serialize(document))) == \
            list(document.tokens())


#: (source, message fragment, line, column) for every error the scan
#: raises, located where a left-to-right reading meets the fault: a bad
#: entity reference at its "&", a value cut off by the end of input at
#: the end (as "not quoted"), a bad name at its first character
ERRORS = [
    ("<r>\n  < a/>\n</r>", "expected a name", 2, 4),
    ("<r>\n  </ r>\n</r>", "expected a name", 2, 5),
    ("<r>\n  <a x='1' ='2'/>\n</r>", "expected a name", 2, 12),
    ("<r>\n  <a x='1'/x/>\n</r>", "expected a name", 2, 11),
    ("<r>\n  <? pi?>\n</r>", "expected a name", 2, 5),
    ("<r>\n  <1a/>\n</r>", "expected a name", 2, 4),
    ("<r>\n  <²/>\n</r>", "expected a name", 2, 4),
    ("<r>\n  <a x='1' ²='2'/>\n</r>", "expected a name", 2, 12),
    ("<r>\n  <a\x0cx='1'/>\n</r>", "expected a name", 2, 5),
    ('<r>\n  <ab="1"/>\n</r>', "expected a name", 2, 6),
    ("<a>\n  x &bogus; y\n</a>", "unknown entity &bogus;", 2, 5),
    ("<r>\n  x & y\n</r>", "unterminated entity reference", 2, 5),
    ('<a v="&nope;"/>', "unknown entity &nope;", 1, 7),
    ('<r>\n  <a v="x &amp y"/>\n</r>', "unterminated entity reference",
     2, 11),
    ("<r>\n  <!-- open", "unterminated comment", 2, 7),
    ("<r>\n  <![CDATA[ open", "unterminated CDATA section", 2, 12),
    ("<!DOCTYPE r [\n  <!ENTITY x 'y'>\n", "unterminated DOCTYPE", 3, 1),
    ("<r>\n  <?pi open", "unterminated processing instruction", 2, 7),
    ("<r>\n  </a x>\n</r>", "malformed end tag </a", 2, 7),
    ("<r>\n  <a x='1'", "unterminated start tag <a", 2, 11),
    ("<r>\n  <a x='1' x='2'/>\n</r>", "duplicate attribute 'x'", 2, 13),
    ("<r>\n  <a x>\n</r>", "attribute 'x' lacks '='", 2, 7),
    ("<r>\n  <a x=1/>\n</r>", "attribute 'x' value is not quoted", 2, 8),
    ("<a x=", "attribute 'x' value is not quoted", 1, 6),
    ("<r>\n  <a x='1/>\n</r>", "unterminated value for 'x'", 2, 9),
]


class TestErrorLocations:
    @pytest.mark.parametrize("source,fragment,line,column", ERRORS)
    def test_message_and_location(self, source, fragment, line, column):
        with pytest.raises(XMLSyntaxError) as caught:
            list(tokenize(source))
        assert fragment in str(caught.value)
        assert (caught.value.line, caught.value.column) == (line, column)

    def test_earlier_attribute_error_wins(self):
        # a left-to-right reader meets the bad entity before the
        # unquoted value that stops the tag pattern from matching
        with pytest.raises(XMLSyntaxError, match="unknown entity"):
            list(tokenize('<a v="&nope;" w=1/>'))

    def test_tokens_before_the_error_are_yielded(self):
        scan = tokenize("<a>x</a><")
        assert [next(scan), next(scan), next(scan)] == \
            [StartTag("a"), Text("x"), EndTag("a")]
        with pytest.raises(XMLSyntaxError, match="expected a name"):
            next(scan)


class TestLanguageEdges:
    def test_attributes_need_no_space_between_them(self):
        (start, _end) = tokenize("<a x='1'y='2'/>")
        assert start.attributes == (("x", "1"), ("y", "2"))

    def test_space_around_equals_and_before_close(self):
        (start, _end) = tokenize("<a\tx\r\n=\n'1' \n/>")
        assert start.attributes == (("x", "1"),)

    def test_values_keep_angle_brackets_and_newlines(self):
        (start, _end) = tokenize("<a x='<b>\n' y=\"'\"/>")
        assert start.attributes == (("x", "<b>\n"), ("y", "'"))

    def test_empty_cdata_is_an_empty_text_token(self):
        assert list(tokenize("<a><![CDATA[]]></a>")) == \
            [StartTag("a"), Text(""), EndTag("a")]

    def test_adjacent_constructs_yield_no_empty_text(self):
        assert list(tokenize("<a><b/></a>")) == \
            [StartTag("a"), StartTag("b"), EndTag("b"), EndTag("a")]

    def test_unicode_names_and_letters_after_digits(self):
        (start, end) = tokenize("<文書 属1='値'/>")
        assert start == StartTag("文書", (("属1", "値"),))
        assert end == EndTag("文書")

    def test_doctype_subset_brackets_balance(self):
        tokens = list(tokenize("<!DOCTYPE a [<!ENTITY x '>'>]><a/>"))
        assert tokens == [StartTag("a"), EndTag("a")]
