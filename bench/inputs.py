"""Seeded `.lud` inputs for the rules-translate workload, with expected output.

One draw holds the four corpus files verbatim plus one variant of every
family (TicTacToe, Hex, Breakthrough, Amazons) at every board size from 3 to
19, in a seeded order; each TicTacToe variant also draws its `Line` length.
Sizes are stratified rather than sampled: translate time grows steeply with
board size (the board layer builds rays for every site), so a sampled size mix
would move p50/p90 between seeds by more than run-to-run noise does.

Expected translations are derived from `tests/goldens.py` by substituting the
drawn properties. Breakthrough has no golden there, so its expected text is
kept here, written from the corpus rules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import goldens

SIZES = range(3, 20)

BREAKTHROUGH_EXPECTED = """\
The game "Breakthrough" is played by two players on a {n}x{n} rectangle board with square tiling.
Regions:
    RegionP1: the N side for P1
    RegionP2: the S side for P2
All players play with Pawns.
Rules for Pieces:
     Pawns step to an empty or enemy-occupied cell in the forward, forward-left or forward-right direction.
Players take turns moving.
Setup:
     Place a Pawn for player one on sites: {p1}.
     Place a Pawn for player two on sites: {p2}.
Rules:
     Move one of your pieces.
Aim:
     If the moving player reaches their target region, the moving player wins.
"""


@dataclass(frozen=True)
class Input:
    name: str          # file stem, e.g. "Hex-13" or "corpus-Hex"
    text: str | None   # None for a corpus file, which is translated in place
    expected: str


def label(row: int, col: int) -> str:
    """Site label with columns lettered from the left, rows from the bottom."""
    return f"{chr(ord('A') + col)}{row + 1}"


def _join(items: list[str]) -> str:
    return items[0] if len(items) == 1 else ", ".join(items[:-1]) + " and " + items[-1]


def _sub(text: str, old: str, new: str) -> str:
    if old not in text:
        raise ValueError(f"golden no longer contains {old!r}")
    return text.replace(old, new, 1)


def _quoted(labels: list[str]) -> str:
    return " ".join(f'"{s}"' for s in labels)


def tictactoe(n: int, line: int) -> Input:
    text = (f'(game "Tic-Tac-Toe" (players 2) (equipment {{ (board (square {n})) '
            f'(piece "Disc" P1) (piece "Cross" P2) }}) (rules (play (move Add (to (sites Empty)))) '
            f'(end (if (is Line {line}) (result Mover Win)))))')
    expected = _sub(_sub(goldens.TICTACTOE, "3x3", f"{n}x{n}"),
                    "places 3 of", f"places {line} of")
    return Input(f"TicTacToe-{n}-line{line}", text, expected)


def hex_game(n: int) -> Input:
    text = (f'(game "Hex" (players 2) (equipment {{ (board (hex Diamond {n})) (piece "Marker" Each) '
            '(regions P1 { (sites Side NE) (sites Side SW) }) '
            '(regions P2 { (sites Side NW) (sites Side SE) }) }) '
            '(rules (meta (swap)) (play (move Add (to (sites Empty)))) '
            '(end (if (is Connected Mover) (result Mover Win)))))')
    return Input(f"Hex-{n}", text, _sub(goldens.HEX, "11x11", f"{n}x{n}"))


def breakthrough_placements(n: int) -> tuple[list[str], list[str]]:
    """Two rows of pawns each (one on boards too small for two), row by row."""
    rows = min(2, (n - 1) // 2)
    p1 = [label(r, c) for r in range(rows) for c in range(n)]
    p2 = [label(r, c) for r in range(n - rows, n) for c in range(n)]
    return p1, p2


def breakthrough_expected(n: int) -> str:
    p1, p2 = breakthrough_placements(n)
    return BREAKTHROUGH_EXPECTED.format(n=n, p1=_join(p1), p2=_join(p2))


def breakthrough(n: int) -> Input:
    p1, p2 = breakthrough_placements(n)
    text = (f'(game "Breakthrough" (players 2) (equipment {{ (board (square {n})) '
            '(piece "Pawn" Each (move Step (directions { Forward FL FR }))) '
            '(regions P1 (sites Side N)) (regions P2 (sites Side S)) }) '
            f'(rules (start {{ (place "Pawn1" {{{_quoted(p1)}}}) (place "Pawn2" {{{_quoted(p2)}}}) }}) '
            '(play (forEach Piece)) (end (if (is In Mover) (result Mover Win)))))')
    return Input(f"Breakthrough-{n}", text, breakthrough_expected(n))


def amazons_placements(n: int) -> tuple[list[str], list[str]]:
    """The 10x10 layout (A4 D1 G1 J4 / A7 D10 G10 J7) scaled to n; duplicates dropped."""
    r, c = (n - 1) // 3, (n - 1) // 3
    p1 = [(r, 0), (0, c), (0, n - 1 - c), (r, n - 1)]
    p2 = [(n - 1 - row, col) for row, col in p1]
    return ([label(*s) for s in dict.fromkeys(p1)], [label(*s) for s in dict.fromkeys(p2)])


def amazons(n: int) -> Input:
    p1, p2 = amazons_placements(n)
    text = (f'(game "Amazons" (players 2) (equipment {{ (board (square {n})) '
            '(piece "Queen" Each (move Slide (then (moveAgain)))) (piece "Dot" Neutral) }) '
            f'(rules (start {{ (place "Queen1" {{{_quoted(p1)}}}) (place "Queen2" {{{_quoted(p2)}}}) }}) '
            '(play (if (is Even (count Moves)) (forEach Piece) (move Shoot (piece "Dot0")))) '
            '(end (if (no Moves Next) (result Mover Win)))))')
    expected = _sub(_sub(_sub(goldens.AMAZONS, "10x10", f"{n}x{n}"),
                         "A4, D1, G1 and J4", _join(p1)),
                    "A7, D10, G10 and J7", _join(p2))
    return Input(f"Amazons-{n}", text, expected)


CORPUS_EXPECTED = {
    "TicTacToe": goldens.TICTACTOE,
    "Hex": goldens.HEX,
    "Amazons": goldens.AMAZONS,
    "Breakthrough": breakthrough_expected(8),
}


def draw(seed: int) -> list[Input]:
    """The corpus files plus every family at every size, in a seeded order."""
    rng = random.Random(seed)
    inputs = [Input(f"corpus-{name}", None, expected)
              for name, expected in CORPUS_EXPECTED.items()]
    for n in SIZES:
        inputs += [tictactoe(n, rng.randint(3, n)), hex_game(n), breakthrough(n), amazons(n)]
    rng.shuffle(inputs)
    return inputs


def write(inputs: list[Input], corpus: Path, out_dir: Path) -> list[Path]:
    """Write the drawn variants as `.lud` files; returns one path per input."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for item in inputs:
        if item.text is None:
            paths.append(corpus / f"{item.name.removeprefix('corpus-')}.lud")
        else:
            path = out_dir / f"{item.name}.lud"
            path.write_text(item.text + "\n")
            paths.append(path)
    return paths
