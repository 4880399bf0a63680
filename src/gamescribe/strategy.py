"""Convert weighted play heuristics into plain-English strategy tips.

Heuristics arrive as an S-expression document, e.g.::

    (heuristics {
        (material "Pawn" 0.1)
        (mobility 0.3)
        (lineCompletion 3 0.5)
    })

Importance labels come from a fixed bucket table over |weight|:
[0, 0.2) very low, [0.2, 0.4) low, [0.4, 0.6) moderate, [0.6, 0.8) high,
[0.8, inf) very high.  A document that does not parse, or a malformed
entry, raises ``HeuristicsError`` at its offset in the document.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .compiler import GameSpec, line_length_fault
from .registry import CompileError
from .sexpr import (Call, Collection, Number, ParseError, RawNode, Symbol, Text, parse,
                    print_canonical)


class HeuristicsError(CompileError):
    pass


class UnknownPieceName(HeuristicsError):
    pass


@dataclass(frozen=True)
class HeuristicEntry:
    kind: str                  # Material | Mobility | LineCompletion
    weight: float
    piece: str | None = None   # Material only
    target_length: int | None = None  # LineCompletion only
    span: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


_BUCKETS = [
    (0.2, "very low importance"),
    (0.4, "low importance"),
    (0.6, "moderate importance"),
    (0.8, "high importance"),
]


def importance_bucket(weight: float) -> str:
    if not math.isfinite(weight):
        raise HeuristicsError(f"weight must be finite, got {weight}")
    magnitude = abs(weight)
    for limit, phrase in _BUCKETS:
        if magnitude < limit:
            return phrase
    return "very high importance"


# Each entry kind: its name, the type of the argument it reads before its
# weight (None when it reads only the weight), and an example.
_ENTRIES = {
    "material": ("Material", Text, '(material "Pawn" 0.5)'),
    "mobility": ("Mobility", None, "(mobility 0.3)"),
    "lineCompletion": ("LineCompletion", Number, "(lineCompletion 3 0.5)"),
}


def _weight_of(node: RawNode | None) -> float | None:
    """The finite weight ``node`` spells, else None."""
    # Game files only use integer literals, so fractional weights arrive as
    # bare symbols like "0.15"; accept both.
    if isinstance(node, Number):
        return float(node.value)
    try:
        weight = float(node.name) if isinstance(node, Symbol) else math.nan
    except ValueError:
        return None
    return weight if math.isfinite(weight) else None


def _entry(item: RawNode) -> HeuristicEntry:
    if not (isinstance(item, Call) and item.head.name in _ENTRIES):
        raise HeuristicsError(f"{print_canonical(item)} is not a material, mobility or "
                              "lineCompletion entry", item.span)
    kind, operand, example = _ENTRIES[item.head.name]
    *operands, last = item.args or (None,)
    weight = _weight_of(last)
    if weight is None or [type(a) for a in operands] != ([operand] if operand else []):
        raise HeuristicsError(f"{print_canonical(item)} is not an entry like {example} "
                              "with a finite weight", item.span)
    if kind == "Material":
        return HeuristicEntry(kind, weight, piece=operands[0].value, span=item.span)
    if kind == "LineCompletion":
        return HeuristicEntry(kind, weight, target_length=operands[0].value, span=item.span)
    return HeuristicEntry(kind, weight, span=item.span)


def parse_heuristics(text: str) -> list[HeuristicEntry]:
    try:
        root = parse(text)
    except ParseError as exc:  # the heuristics file, not a game, is at fault
        raise HeuristicsError(exc.message, (exc.position, exc.position)) from None
    if not (isinstance(root, Call) and root.head.name == "heuristics"):
        raise HeuristicsError("heuristics file must contain one (heuristics ...) form",
                              root.span)
    items = root.args
    if len(items) == 1 and isinstance(items[0], Collection):
        items = items[0].items
    return [_entry(item) for item in items]


def explain_heuristics(entries: list[HeuristicEntry], spec: GameSpec) -> list[str]:
    """One advice line per nonzero-weight entry, in input order.

    Every entry, zero weights too, must name declared pieces and fit the board.
    """
    lines: list[str] = []
    bases = {p.base for p in spec.pieces} | {p.name for p in spec.pieces}
    for entry in entries:
        if entry.kind == "Material" and entry.piece not in bases:
            raise UnknownPieceName(f'(material "{entry.piece}" ...) names no piece of '
                                   f"the game {spec.name!r}", entry.span)
        if entry.kind == "LineCompletion":
            fault = line_length_fault(spec.board, entry.target_length)
            if fault:
                raise HeuristicsError(f"(lineCompletion {entry.target_length} ...) {fault}, "
                                      f"in the game {spec.name!r}", entry.span)
        if entry.weight == 0:
            continue
        verb = "maximise" if entry.weight > 0 else "minimise"
        importance = importance_bucket(entry.weight)
        if entry.kind == "Material":
            lines.append(f"Try to {verb} the number of {entry.piece}(s) you control "
                         f"({importance})")
        elif entry.kind == "Mobility":
            lines.append(f"Try to {verb} the number of moves available to you "
                         f"({importance})")
        else:  # LineCompletion
            lead = "work towards" if entry.weight > 0 else "avoid"
            lines.append(f"Try to {lead} completing lines of {entry.target_length} of your "
                         f"pieces ({importance})")
    return lines
