"""Rays, adjacency and shifts are built on first read, once per board; (is Line n) reads rays."""

import pickle
import re

import pytest

from conftest import CORPUS, load_spec
from gamescribe.compiler import compile_game
from gamescribe.english import translate_game
from gamescribe.engine import random_playout
from gamescribe.pipeline import load_game
from gamescribe.sexpr import parse
from test_boards import BOARDS

GEOMETRY = ("rays", "adjacent", "shifts")


@pytest.mark.parametrize("name, shape, size", [("Amazons", "(square 19)", 19),
                                               ("Hex", "(hex Diamond 11)", 11)])
def test_translate_builds_no_rays_and_a_playout_builds_them_once(tmp_path, name, shape, size):
    path = tmp_path / f"{name}.lud"
    path.write_text(re.sub(r"\(board \([^)]*\)\)", f"(board {shape})",
                           (CORPUS / f"{name}.lud").read_text()))
    spec = load_game(path)
    assert translate_game(spec)
    board = spec.board
    assert (board.rows, board.cols) == (size, size)
    assert not set(GEOMETRY) & set(vars(board))

    random_playout(spec, 0)
    rays = vars(board)["rays"]  # both games walk rays in a playout
    adjacent = board.adjacent
    random_playout(spec, 1)
    assert board.rays is rays and board.adjacent is adjacent


def test_step_playouts_build_shifts_but_no_rays():
    spec = load_spec("Breakthrough")
    random_playout(spec, 0)
    assert set(GEOMETRY) & set(vars(spec.board)) == {"shifts"}


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.lud")))
def test_spec_pickled_before_its_rays_are_built_plays_the_same(name):
    spec = load_spec(name)
    assert not set(GEOMETRY) & set(vars(spec.board))
    copy = pickle.loads(pickle.dumps(spec))
    assert not set(GEOMETRY) & set(vars(copy.board))
    for seed in range(10):
        want, got = random_playout(spec, seed), random_playout(copy, seed)
        assert got.moves == want.moves
        assert got.outcome == want.outcome
    fresh = load_spec(name).board
    for attr in GEOMETRY:
        assert getattr(copy.board, attr) == getattr(fresh, attr)


def _board_source(board):
    if board.shape == "hexDiamond":
        return f"(hex Diamond {board.rows})"
    if board.shape == "rectangle":
        return f"(rectangle {board.cols} {board.rows})"
    return f"(square {board.rows})"


@pytest.mark.parametrize("board", [b for b in BOARDS if max(b.rows, b.cols) >= 2],
                         ids=lambda b: f"{b.shape}-{b.rows}x{b.cols}")
def test_line_ray_pairs_point_along_opposite_vectors_of_each_axis(board):
    spec = compile_game(parse(
        f'(game "T" (players 2) (equipment {{(board {_board_source(board)}) '
        f'(piece "Disc" Each)}}) (rules (play (move Add (to (sites Empty)))) '
        f'(end (if (is Line 2) (result Mover Win)))))'))
    compiled = spec.board
    assert (compiled.shape, compiled.rows, compiled.cols) == (board.shape, board.rows, board.cols)
    pairs = spec.end_rules[0].cond.rays
    assert [(compiled.vectors[f], compiled.vectors[b]) for f, b in pairs] == \
        [((dr, dc), (-dr, -dc)) for dr, dc in board.line_axes]
