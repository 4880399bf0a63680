"""Move signatures, distinct-move identification, and ending collection.

A move's signature is the four-property tuple (mover, piece, origin rule,
action types).  The mover component only participates for games whose
players have different piece rules or a conditional play rule; the compiler
decides this once, in ``GameSpec.distinct_rules``.

``collect_distinct`` and ``collect_endings`` each make one pass over a playout
batch in ascending seed order, keyed by ``move_key`` or ``ending_key``, and
keep a key's first occurrence as its exemplar.  ``pipeline``'s fold of a seed
range keys its traces by the same two.
"""

from __future__ import annotations

from collections.abc import Callable
from operator import itemgetter
from typing import NamedTuple

from .compiler import GameSpec
from .engine import EndMatch, GameState, Move, PlayoutTrace, legal_moves
from .english import draw_fallback_sentence, translate_node
from .record import Record


class MoveSignature(NamedTuple):  # equal to, and hashed as, the plain tuple of its fields
    mover: int | None       # None when players share piece rules
    piece: str
    origin_id: int
    action_types: tuple[str, ...]

    def sort_key(self):
        return (self.mover if self.mover is not None else -1,
                self.piece, self.origin_id, self.action_types)


class DistinctMove(Record):
    __slots__ = _compared = ("signature", "exemplar", "rule_text")

    def __init__(self, signature: MoveSignature, exemplar: tuple[int, int], rule_text: str):
        self.signature = signature
        self.exemplar = exemplar  # (playout seed, move index) of first occurrence
        self.rule_text = rule_text


class EndingExample(Record):
    __slots__ = _compared = ("result_key", "exemplar_seed", "text", "winning_sites")

    def __init__(self, result_key: tuple[str, tuple[int, ...], int | None], exemplar_seed: int,
                 text: str, winning_sites: tuple[int, ...] | None):
        self.result_key = result_key  # (outcome, players, end id)
        self.exemplar_seed = exemplar_seed
        self.text = text
        self.winning_sites = winning_sites


def move_signature(move: Move, spec: GameSpec) -> MoveSignature:
    mover = move.mover if spec.distinct_rules else None
    return MoveSignature(mover, move.piece, move.origin_id, move.action_types)


def move_key(spec: GameSpec) -> Callable[[Move], tuple]:
    """A move, or its signature, -> the plain tuple that tells moves apart: the
    signature's fields, without the mover unless ``spec.distinct_rules``."""
    return itemgetter(0, 1, 2, 3) if spec.distinct_rules else itemgetter(1, 2, 3)


def collect_distinct(traces: list[PlayoutTrace], spec: GameSpec) -> list[DistinctMove]:
    """One DistinctMove per unique signature, exemplar at lowest (seed, index)."""
    key_of = move_key(spec)
    first: dict[tuple, tuple[int, int]] = {}
    # In seed order (a stable sort), a key's first occurrence is its lowest (seed, index).
    for trace in sorted(traces, key=lambda t: t.seed):
        for index, key in enumerate(map(key_of, trace.moves)):
            if key not in first:
                first[key] = (trace.seed, index)
    out = []
    for key, exemplar in first.items():
        signature = MoveSignature(*key) if spec.distinct_rules else MoveSignature(None, *key)
        out.append(DistinctMove(signature, exemplar, translate_node(spec, signature.origin_id)))
    out.sort(key=lambda d: d.signature.sort_key())
    return out


def similar_legal_moves(state: GameState, selected: Move, spec: GameSpec) -> list[Move]:
    """Every legal move sharing the selected move's signature (inclusive)."""
    key_of = move_key(spec)
    target = key_of(move_signature(selected, spec))
    return [m for m in legal_moves(spec, state) if key_of(m) == target]


def ending_key(outcome: EndMatch) -> tuple[str, tuple[int, ...], int | None]:
    """The result key that tells endings apart: (outcome, players, end ludeme id)."""
    return (outcome.outcome, outcome.players, outcome.end_id)


def collect_endings(traces: list[PlayoutTrace], spec: GameSpec) -> list[EndingExample]:
    """One example per distinct (outcome, players, end ludeme) key, exemplar at lowest seed."""
    first: dict[tuple, PlayoutTrace] = {}
    for trace in sorted(traces, key=lambda t: t.seed):
        first.setdefault(ending_key(trace.outcome), trace)
    out = []
    for key in sorted(first, key=lambda k: (k[0], k[1], -1 if k[2] is None else k[2])):
        trace = first[key]
        if key[2] is None:
            text = draw_fallback_sentence()
        else:
            text = translate_node(spec, key[2])
        out.append(EndingExample(key, trace.seed, text, trace.outcome.winning_sites))
    return out


def coverage_report(distinct: list[DistinctMove], spec: GameSpec) -> dict:
    """Compare exercised origin ludemes against every (move ...) in the spec."""
    exercised = {d.signature.origin_id for d in distinct}
    all_moves = spec.move_ludeme_ids()
    missing = [lid for lid in all_moves if lid not in exercised]
    return {
        "move_ludemes": all_moves,
        "exercised": sorted(exercised),
        "unexercised": missing,
        "complete": not missing,
    }
