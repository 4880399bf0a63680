"""Reader and printer for the S-expression syntax of .lud files.

The surface syntax is small: `(head args...)` calls, `{...}` brace
collections, `"..."` strings, integer literals, and bare symbols.  Symbols
are maximal runs of characters excluding whitespace and ``(){}"``.  A ``//``
starts a comment that runs to the end of its line (``\n``, ``\r\n`` or ``\r``).

Every offset, in a ParseError or a span, is a character offset into the
text as given: ``text[start:end]`` is the node's source, and a file read
without newline translation keeps its offsets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union


class ParseError(Exception):
    """Base class for all reader errors.  Carries a character offset into the text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position


class UnbalancedParen(ParseError):
    pass


class UnterminatedString(ParseError):
    pass


class EmptyInput(ParseError):
    def __init__(self):
        super().__init__("empty input", 0)


class TrailingContent(ParseError):
    pass


# Spans are (start, end) character offsets into the source text.  They are
# excluded from equality so that structural comparison ignores layout.

@dataclass(frozen=True)
class Symbol:
    name: str
    span: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Number:
    value: int
    span: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Text:
    value: str
    span: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    head: Symbol
    args: tuple["RawNode", ...]
    span: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Collection:
    items: tuple["RawNode", ...]
    span: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


RawNode = Union[Symbol, Number, Text, Call, Collection]

_INTEGER = re.compile(r"-?[0-9]+$")
_DELIMS = set('(){}"')
_LINE_END = re.compile(r"[\r\n]")

# Deepest nesting of calls and collections the reader accepts.  Every walk
# over a tree (this reader, numbering, printing, condition evaluation and
# translation) recurses once or twice per level, so this keeps them well
# inside Python's default recursion limit of 1000.
MAX_DEPTH = 200


class _Reader:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_trivia(self) -> None:
        n = len(self.text)
        while self.pos < n:
            c = self.text[self.pos]
            if c.isspace():
                self.pos += 1
            elif self.text.startswith("//", self.pos):
                end = _LINE_END.search(self.text, self.pos)
                self.pos = n if end is None else end.end()
            else:
                return

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def read_node(self, depth: int = 0) -> RawNode:
        """Read one node nested ``depth`` calls or collections deep."""
        c = self.text[self.pos]
        if c in "({" and depth >= MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", self.pos)
        if c == "(":
            return self.read_call(depth + 1)
        if c == "{":
            return self.read_collection(depth + 1)
        if c == '"':
            return self.read_string()
        if c in ")}":
            raise UnbalancedParen(f"unexpected '{c}'", self.pos)
        return self.read_token()

    def read_call(self, depth: int) -> Call:
        start = self.pos
        self.pos += 1  # consume (
        self.skip_trivia()
        if self.at_end():
            raise UnbalancedParen("unclosed '('", start)
        head = self.read_node(depth)
        if not isinstance(head, Symbol):
            raise ParseError("call head must be a symbol", start + 1)
        args: list[RawNode] = []
        while True:
            self.skip_trivia()
            if self.at_end():
                raise UnbalancedParen("unclosed '('", start)
            if self.text[self.pos] == ")":
                self.pos += 1
                return Call(head, tuple(args), span=(start, self.pos))
            if self.text[self.pos] == "}":
                raise UnbalancedParen("unexpected '}'", self.pos)
            args.append(self.read_node(depth))

    def read_collection(self, depth: int) -> Collection:
        start = self.pos
        self.pos += 1  # consume {
        items: list[RawNode] = []
        while True:
            self.skip_trivia()
            if self.at_end():
                raise UnbalancedParen("unclosed '{'", start)
            if self.text[self.pos] == "}":
                self.pos += 1
                return Collection(tuple(items), span=(start, self.pos))
            if self.text[self.pos] == ")":
                raise UnbalancedParen("unexpected ')'", self.pos)
            items.append(self.read_node(depth))

    def read_string(self) -> Text:
        start = self.pos
        end = self.text.find('"', self.pos + 1)
        if end < 0:
            raise UnterminatedString("unterminated string", start)
        self.pos = end + 1
        return Text(self.text[start + 1 : end], span=(start, self.pos))

    def read_token(self) -> RawNode:
        start = self.pos
        n = len(self.text)
        while self.pos < n:
            c = self.text[self.pos]
            if c.isspace() or c in _DELIMS:
                break
            self.pos += 1
        tok = self.text[start : self.pos]
        span = (start, self.pos)
        if _INTEGER.match(tok):
            return Number(int(tok), span=span)
        return Symbol(tok, span=span)


def parse(text: str) -> RawNode:
    """Parse exactly one top-level form out of ``text``.

    Raises EmptyInput when nothing but whitespace/comments is present and
    TrailingContent when a second top-level form follows the first.
    """
    reader = _Reader(text)
    reader.skip_trivia()
    if reader.at_end():
        raise EmptyInput()
    node = reader.read_node()
    reader.skip_trivia()
    if not reader.at_end():
        raise TrailingContent("trailing content after top-level form", reader.pos)
    return node


def print_canonical(node: RawNode) -> str:
    """Render ``node`` as single-space-separated canonical text.

    ``parse(print_canonical(parse(t)))`` is structurally equal to
    ``parse(t)`` for any parseable ``t``.
    """
    if isinstance(node, Symbol):
        return node.name
    if isinstance(node, Number):
        return str(node.value)
    if isinstance(node, Text):
        return f'"{node.value}"'
    if isinstance(node, Call):
        parts = [print_canonical(node.head)] + [print_canonical(a) for a in node.args]
        return "(" + " ".join(parts) + ")"
    if isinstance(node, Collection):
        return "{" + " ".join(print_canonical(i) for i in node.items) + "}"
    raise TypeError(f"not a RawNode: {node!r}")


def children(node: RawNode) -> tuple[RawNode, ...]:
    """Direct children of a node, in source order (head included for calls)."""
    if isinstance(node, Call):
        return (node.head,) + node.args
    if isinstance(node, Collection):
        return node.items
    return ()
