"""Reader and printer for the S-expression syntax of .lud files.

The surface syntax is small: `(head args...)` calls, `{...}` brace
collections, `"..."` strings, integer literals, and bare symbols.  Symbols
are maximal runs of characters excluding whitespace and ``(){}"``; a run that
is ``-?[0-9]+`` is an integer.  Strings run to the next ``"``, with no
escapes.  A ``//`` where a token could start begins a comment that runs to
the end of its line (``\n``, ``\r\n`` or ``\r``); inside a symbol it is part
of the symbol.  Whitespace is what ``str.isspace()`` accepts, which is what
the regex ``\\s`` matches.  One byte-order mark (U+FEFF) at the start of
the text, as some editors write it, is skipped.

``parse`` reads the text with one token pattern in one loop, keeping the
calls and collections still open on a stack, so it does not recurse.

Every offset, in a ParseError or a span, is a character offset into the
text as given, a leading byte-order mark included: ``text[start:end]`` is
the node's source, and a file read without newline translation keeps its
offsets.
"""

from __future__ import annotations

import re
from typing import Union

from .record import Record


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

class Symbol(Record):
    __slots__ = ("name", "span")
    _compared = ("name",)

    def __init__(self, name: str, span: tuple[int, int] = (0, 0)):
        self.name = name
        self.span = span


class Number(Record):
    __slots__ = ("value", "span")
    _compared = ("value",)

    def __init__(self, value: int, span: tuple[int, int] = (0, 0)):
        self.value = value
        self.span = span


class Text(Record):
    __slots__ = ("value", "span")
    _compared = ("value",)

    def __init__(self, value: str, span: tuple[int, int] = (0, 0)):
        self.value = value
        self.span = span


class Call(Record):
    __slots__ = ("head", "args", "span")
    _compared = ("head", "args")

    def __init__(self, head: Symbol, args: tuple[RawNode, ...], span: tuple[int, int] = (0, 0)):
        self.head = head
        self.args = args
        self.span = span


class Collection(Record):
    __slots__ = ("items", "span")
    _compared = ("items",)

    def __init__(self, items: tuple[RawNode, ...], span: tuple[int, int] = (0, 0)):
        self.items = items
        self.span = span


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

# Longest integer the reader accepts, sign included.  Every number of a game
# is a count, a size or a weight, so this is far above any that means
# something, and far below the length at which ``int`` refuses a string.
MAX_NUMBER_LENGTH = 100


def parse(text: str) -> RawNode:
    """Parse exactly one top-level form out of ``text``.

    Raises EmptyInput when nothing but whitespace/comments is present and
    TrailingContent when a second top-level form follows the first.
    """
    stack: list[tuple[str, int, list[RawNode]]] = []  # open forms: (opener, start, items)
    tokens = _TOKEN.finditer(text, 1 if text.startswith("\ufeff") else 0)
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
            if m.end() - m.start() > MAX_NUMBER_LENGTH:
                raise ParseError(f"number longer than {MAX_NUMBER_LENGTH} characters", m.start())
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
