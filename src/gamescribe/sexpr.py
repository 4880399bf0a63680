"""Reader and printer for the S-expression syntax of .lud files.

The surface syntax is small: `(head args...)` calls, `{...}` brace
collections, `"..."` strings, integer literals, and bare symbols.  Symbols
are maximal runs of characters excluding whitespace and ``(){}"``; a run that
is ``-?[0-9]+`` is an integer.  Strings run to the next ``"``, with no
escapes.  A ``//`` where a token could start begins a comment that runs to
the end of its line (``\n``, ``\r\n`` or ``\r``); inside a symbol it is part
of the symbol.  Whitespace is what ``str.isspace()`` accepts, which is what
the regex ``\\s`` matches.

``parse`` reads the text with one token pattern in one loop, keeping the
calls and collections still open on a stack, so it does not recurse.

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

# One alternative per token, tried in order at each offset: trivia, an
# opener, a closer, a string, a quote that opens no string, an integer and a
# symbol.  Trivia has no group, so ``m.lastindex`` names the token's kind.
_TOKEN = re.compile(r"""(?:\s+|//[^\r\n]*)+|([({])|([)}])|("[^"]*")|(")"""
                    r"""|(-?[0-9]+)(?![^\s(){}"])|([^\s(){}"]+)""")

# Deepest nesting of calls and collections the reader accepts.  The reader
# and the registry's check-and-number walk keep their nodes on a list, but
# printing, condition evaluation and translation recurse once or twice per
# level, so this keeps them well inside Python's default recursion limit of
# 1000.
MAX_DEPTH = 200


def parse(text: str) -> RawNode:
    """Parse exactly one top-level form out of ``text``.

    Raises EmptyInput when nothing but whitespace/comments is present and
    TrailingContent when a second top-level form follows the first.
    """
    stack: list[tuple[str, int, list[RawNode]]] = []  # open forms: (opener, start, items)
    tokens = _TOKEN.finditer(text)
    for m in tokens:
        kind = m.lastindex
        if kind is None:
            continue
        if kind == 6:
            node = Symbol(m.group(6), m.span())
        elif kind == 1:
            if len(stack) >= MAX_DEPTH:
                raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", m.start())
            stack.append((m.group(1), m.start(), []))
            continue
        elif kind == 2:
            closer = m.group(2)
            opener, start, items = stack.pop() if stack else ("", 0, [])
            if opener == "(" and closer == ")" and items:
                node = Call(items[0], tuple(items[1:]), (start, m.end()))
            elif opener == "{" and closer == "}":
                node = Collection(tuple(items), (start, m.end()))
            else:
                raise UnbalancedParen(f"unexpected '{closer}'", m.start())
        elif kind == 3:
            node = Text(m.group(3)[1:-1], m.span())
        elif kind == 5:
            node = Number(int(m.group(5)), m.span())
        else:
            raise UnterminatedString("unterminated string", m.start())
        if not stack:
            break
        opener, start, items = stack[-1]
        if opener == "(" and not items and not isinstance(node, Symbol):
            raise ParseError("call head must be a symbol", start + 1)
        items.append(node)
    else:
        if stack:
            raise UnbalancedParen(f"unclosed '{stack[-1][0]}'", stack[-1][1])
        raise EmptyInput()
    for m in tokens:
        if m.lastindex:
            raise TrailingContent("trailing content after top-level form", m.start())
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
