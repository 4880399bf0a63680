"""Move signatures, distinct-move identification, and ending collection.

A move's signature is the four-property tuple (mover, piece, origin rule,
action types).  The mover component only participates for games whose
players have different piece rules or a conditional play rule; the compiler
decides this once, in ``GameSpec.distinct_rules``.

``collect_distinct`` and ``collect_endings`` each make one pass over a playout
batch in ascending seed order, keyed by the plain signature tuple or the result
key, and keep a key's first occurrence as its exemplar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .compiler import GameSpec
from .engine import GameState, Move, PlayoutTrace, legal_moves
from .english import draw_fallback_sentence, translate_node


class MoveSignature(NamedTuple):  # equal to, and hashed as, the plain tuple of its fields
    mover: int | None       # None when players share piece rules
    piece: str
    origin_id: int
    action_types: tuple[str, ...]

    def sort_key(self):
        return (self.mover if self.mover is not None else -1,
                self.piece, self.origin_id, self.action_types)


@dataclass(frozen=True)
class DistinctMove:
    signature: MoveSignature
    exemplar: tuple[int, int]  # (playout seed, move index) of first occurrence
    rule_text: str


@dataclass(frozen=True)
class EndingExample:
    result_key: tuple[str, tuple[int, ...], int | None]  # (outcome, players, end id)
    exemplar_seed: int
    text: str
    winning_sites: tuple[int, ...] | None


def move_signature(move: Move, spec: GameSpec) -> MoveSignature:
    mover = move.mover if spec.distinct_rules else None
    return MoveSignature(mover, move.piece, move.origin_id, move.action_types)


def collect_distinct(traces: list[PlayoutTrace], spec: GameSpec) -> list[DistinctMove]:
    """One DistinctMove per unique signature, exemplar at lowest (seed, index)."""
    by_mover = spec.distinct_rules
    first: dict[tuple, tuple[int, int]] = {}
    # In seed order (a stable sort), a key's first occurrence is its lowest (seed, index).
    for trace in sorted(traces, key=lambda t: t.seed):
        for index, m in enumerate(trace.moves):
            key = (m.mover if by_mover else None, m.piece, m.origin_id, m.action_types)
            if key not in first:
                first[key] = (trace.seed, index)
    out = [DistinctMove(MoveSignature(*key), exemplar, translate_node(spec, key[2]))
           for key, exemplar in first.items()]
    out.sort(key=lambda d: d.signature.sort_key())
    return out


def similar_legal_moves(state: GameState, selected: Move, spec: GameSpec) -> list[Move]:
    """Every legal move sharing the selected move's signature (inclusive)."""
    target = move_signature(selected, spec)
    by_mover = spec.distinct_rules
    return [m for m in legal_moves(spec, state)
            if (m.mover if by_mover else None, m.piece, m.origin_id, m.action_types) == target]


def collect_endings(traces: list[PlayoutTrace], spec: GameSpec) -> list[EndingExample]:
    """One example per distinct (outcome, players, end ludeme) key, exemplar at lowest seed."""
    first: dict[tuple, PlayoutTrace] = {}
    for trace in sorted(traces, key=lambda t: t.seed):
        outcome = trace.outcome
        first.setdefault((outcome.outcome, outcome.players, outcome.end_id), trace)
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
