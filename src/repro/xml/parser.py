"""From-scratch XML tokenizer and document parser.

Implements the subset of XML 1.0 the experiments need, with no third-party
or stdlib-XML dependencies (the parser *is* one of the paper's assumed
substrates):

* elements with attributes (single- or double-quoted), self-closing tags;
* character data with the five predefined entities plus decimal and
  hexadecimal character references;
* CDATA sections, comments, processing instructions;
* an XML declaration and a (non-validating, skipped) DOCTYPE.

The tokenizer is a single left-to-right scan producing
:mod:`repro.xml.tokens` values; :func:`parse` feeds them to the tree
builder in :mod:`repro.xml.model`.

How it scans: a cursor moves through the text one construct at a time.
A text run, a start tag (its name and all its attributes) or an end tag
is one anchored match of a compiled pattern at the cursor, so the work
per character happens inside the regex engine.  Comments, CDATA
sections and processing instructions end at the first ``-->``, ``]]>``
or ``?>`` (``str.find``); a DOCTYPE ends at the first ``>`` outside its
``[...]`` internal subset.  When no pattern matches, the construct at
the cursor is re-read piece by piece only to say what is wrong: errors
carry the offset, line and column of the offending character (for a
bad entity reference, its ``&``).

A *name* is one or more of ``[\\w:.\\-]`` (``\\w`` being ``str.isalnum()``
plus ``_``) whose first character is alphabetic (``str.isalpha()``),
``_`` or ``:``.  Whitespace inside tags is exactly space, tab, CR and
LF; attributes need none between them (``<a x='1'y='2'/>``).
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.errors import XMLSyntaxError
from repro.xml.tokens import Comment, EndTag, Instruction, StartTag, Text

_PREDEFINED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}

# A name is read to its last name character, as a left-to-right reader
# would (the closing lookahead stops a start tag's name from giving back
# characters to a following attribute).  Its first character must be
# alphabetic, "_" or ":"; the opening lookahead also admits the
# non-decimal numerics \w holds (e.g. "²", "Ⅻ"), none of them ASCII, so
# names starting above U+007F are checked with str.isalpha() as well
# (_bad_start).
_NAME = r"(?![\d.\-])[\w:.\-]+(?![\w:.\-])"
_SPACE = r"[ \t\r\n]*"
_VALUE = r"\"[^\"]*\"|'[^']*'"
_ATTRIBUTE = rf"{_SPACE}{_NAME}{_SPACE}={_SPACE}(?:{_VALUE})"

#: one token of the hot path: a text run (group 1), a start tag (name,
#: attribute source, "/" if self-closing: groups 2-4) or an end tag
#: (group 5); ``lastindex`` tells them apart
_TOKEN = re.compile(
    rf"([^<]+)"
    rf"|<({_NAME})((?:{_ATTRIBUTE})*){_SPACE}(/?)>"
    rf"|</({_NAME}){_SPACE}>")
_KEY_VALUE = re.compile(rf"{_SPACE}({_NAME}){_SPACE}={_SPACE}({_VALUE})")
_ATTRIBUTE_RUN = re.compile(rf"(?:{_ATTRIBUTE})*")
_NAME_AT = re.compile(_NAME)
_SPACE_AT = re.compile(_SPACE)
_DOCTYPE_MARK = re.compile(r"[\[\]>]")


def _bad_start(name: str) -> bool:
    """Whether a name ``_NAME`` matched starts with one of the non-ASCII
    numerics its first-character test lets through."""
    return name >= "\x80" and not name[0].isalpha()


def is_name(text: str) -> bool:
    """Whether the tokenizer reads ``text`` back as exactly one name."""
    return _NAME_AT.fullmatch(text) is not None and not _bad_start(text)


def _error(text: str, position: int, message: str) -> XMLSyntaxError:
    """``message`` at ``position`` of ``text``, with its 1-based line
    and column."""
    line = text.count("\n", 0, position) + 1
    column = position - text.rfind("\n", 0, position)
    return XMLSyntaxError(message, position=position, line=line,
                          column=column)


def decode_entities(raw: str, source: str | None = None,
                    offset: int = 0) -> str:
    """Expand ``&name;``, ``&#dd;`` and ``&#xhh;`` references in ``raw``.

    When ``raw`` was cut from ``source`` at ``offset``, an error carries
    the position of the offending reference's ``&`` in ``source``.
    """
    if "&" not in raw:
        return raw
    pieces: list[str] = []
    index = 0
    while index < len(raw):
        amp = raw.find("&", index)
        if amp < 0:
            pieces.append(raw[index:])
            break
        pieces.append(raw[index:amp])
        semi = raw.find(";", amp + 1)
        entity = raw[amp + 1:semi]
        decoded = None if semi < 0 else _decode_entity(entity)
        if decoded is None:
            message = "unterminated entity reference" if semi < 0 \
                else f"unknown entity &{entity};"
            if source is None:
                raise XMLSyntaxError(message)
            raise _error(source, offset + amp, message)
        pieces.append(decoded)
        index = semi + 1
    return "".join(pieces)


def _decode_entity(entity: str) -> str | None:
    if entity in _PREDEFINED_ENTITIES:
        return _PREDEFINED_ENTITIES[entity]
    if entity.startswith("#x") or entity.startswith("#X"):
        try:
            return chr(int(entity[2:], 16))
        except ValueError:
            pass
    elif entity.startswith("#"):
        try:
            return chr(int(entity[1:]))
        except ValueError:
            pass
    return None


def tokenize(text: str) -> Iterator[StartTag | EndTag | Text | Comment |
                                    Instruction]:
    """Scan ``text`` into the paper's begin/end/text token list.

    Self-closing elements emit a ``StartTag`` immediately followed by the
    matching ``EndTag`` — the element still occupies two label slots, as
    the L-Tree labeling requires.
    """
    match = _TOKEN.match
    # no ASCII character is a non-decimal numeric (see _NAME)
    unicode = not text.isascii()
    position, length = 0, len(text)
    while position < length:
        token = match(text, position)
        if token is None:
            position = yield from _scan_markup(text, position)
            continue
        kind = token.lastindex
        if kind == 4:
            name, source, closing = token.group(2, 3, 4)
            if unicode and _bad_start(name):
                raise _error(text, position + 1, "expected a name")
            yield StartTag(name, _attributes(text, token.start(3),
                                             token.end(3))
                           if source else ())
            if closing:
                yield EndTag(name)
        elif kind == 5:
            name = token.group(5)
            if unicode and _bad_start(name):
                raise _error(text, position + 2, "expected a name")
            yield EndTag(name)
        else:
            raw = token.group(1)
            yield Text(decode_entities(raw, text, position)
                       if "&" in raw else raw)
        position = token.end()


def _attributes(text: str, start: int, stop: int
                ) -> tuple[tuple[str, str], ...]:
    """The decoded ``(key, value)`` pairs of a run of well-formed
    attributes; raises the first bad name, duplicate or entity in it."""
    attributes: dict[str, str] = {}
    for attribute in _KEY_VALUE.finditer(text, start, stop):
        key, quoted = attribute.group(1, 2)
        if _bad_start(key):
            raise _error(text, attribute.start(1), "expected a name")
        if key in attributes:
            raise _error(text, attribute.end(1),
                         f"duplicate attribute {key!r}")
        value = quoted[1:-1]
        attributes[key] = decode_entities(
            value, text, attribute.start(2) + 1) if "&" in value else value
    return tuple(attributes.items())


def _scan_markup(text: str, position: int
                 ) -> Iterator[Text | Comment | Instruction]:
    """The construct at a ``<`` the token pattern did not match: a
    comment, CDATA section, DOCTYPE or processing instruction, or else a
    malformed tag.  Yields its token, if any; returns the offset after
    it."""
    if text.startswith("<!--", position):
        end = _find(text, "-->", position + 4, "unterminated comment")
        yield Comment(text[position + 4:end])
        return end + 3
    if text.startswith("<![CDATA[", position):
        end = _find(text, "]]>", position + 9,
                    "unterminated CDATA section")
        yield Text(text[position + 9:end])
        return end + 3
    if text.startswith("<!DOCTYPE", position):
        return _skip_doctype(text, position + 9)
    if text.startswith("<?", position):
        target = _read_name(text, position + 2)
        end = _find(text, "?>", target.end(),
                    "unterminated processing instruction")
        # the XML declaration is consumed, not part of the document
        if target.group().lower() != "xml":
            yield Instruction(target.group(),
                              text[target.end():end].strip())
        return end + 2
    if text.startswith("</", position):
        name = _read_name(text, position + 2)
        raise _error(text, _SPACE_AT.match(text, name.end()).end(),
                     f"malformed end tag </{name.group()}")
    raise _start_tag_error(text, position)


def _find(text: str, needle: str, start: int, message: str) -> int:
    end = text.find(needle, start)
    if end < 0:
        raise _error(text, start, message)
    return end


def _read_name(text: str, position: int) -> re.Match:
    name = _NAME_AT.match(text, position)
    if name is None or _bad_start(name.group()):
        raise _error(text, position, "expected a name")
    return name


def _skip_doctype(text: str, position: int) -> int:
    """Offset after a DOCTYPE whose body starts at ``position``: its
    first ``>`` outside the brackets of an internal subset."""
    depth = 0
    for mark in _DOCTYPE_MARK.finditer(text, position):
        char = mark.group()
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        elif depth == 0:
            return mark.end()
    raise _error(text, len(text), "unterminated DOCTYPE")


def _start_tag_error(text: str, position: int) -> XMLSyntaxError:
    """Why the start tag at ``position`` did not match: the first fault
    a left-to-right reading meets, at the character where it meets it."""
    name = _read_name(text, position + 1).group()
    run = _ATTRIBUTE_RUN.match(text, position + 1 + len(name))
    keys = dict(_attributes(text, run.start(), run.end()))
    cursor = _SPACE_AT.match(text, run.end()).end()
    if cursor == len(text):
        return _error(text, cursor, f"unterminated start tag <{name}")
    match = _read_name(text, cursor)
    key = match.group()
    if key in keys:
        return _error(text, match.end(), f"duplicate attribute {key!r}")
    cursor = _SPACE_AT.match(text, match.end()).end()
    if not text.startswith("=", cursor):
        return _error(text, cursor, f"attribute {key!r} lacks '='")
    cursor = _SPACE_AT.match(text, cursor + 1).end()
    if cursor == len(text) or text[cursor] not in "'\"":
        return _error(text, cursor, f"attribute {key!r} value is not quoted")
    return _error(text, cursor + 1, f"unterminated value for {key!r}")


def parse(text: str):
    """Parse ``text`` into an :class:`repro.xml.model.XMLDocument`."""
    from repro.xml.model import build_document
    return build_document(tokenize(text))
