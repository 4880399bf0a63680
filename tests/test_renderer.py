import math
import xml.etree.ElementTree as ET

import pytest

from gamescribe.compiler import compile_game
from gamescribe.engine import apply_move, initial_state, legal_moves, random_playout, replay
from gamescribe.render import (HighlightSpec, render_board, render_ending_pair,
                               render_move_pair)
from gamescribe.sexpr import parse
from test_boards import _game


def _count(svg: str, needle: str) -> int:
    return svg.count(needle)


def _assert_well_formed(svg: str) -> ET.Element:
    return ET.fromstring(svg)


def test_empty_board_has_only_cells(tictactoe):
    svg = render_board(tictactoe, initial_state(tictactoe))
    _assert_well_formed(svg)
    assert _count(svg, 'class="cell"') == 9
    assert _count(svg, 'class="glyph"') == 0


def test_setup_glyph_counts(amazons, breakthrough):
    svg = render_board(amazons, initial_state(amazons))
    _assert_well_formed(svg)
    assert _count(svg, 'class="cell"') == 100
    assert _count(svg, 'class="glyph"') == 8
    bsvg = render_board(breakthrough, initial_state(breakthrough))
    assert _count(bsvg, 'class="glyph"') == 32


def test_hex_board_uses_polygons(hexgame):
    svg = render_board(hexgame, initial_state(hexgame))
    _assert_well_formed(svg)
    assert _count(svg, '<polygon class="cell"') == 121
    assert "<rect" not in svg


def test_rendering_is_deterministic(amazons):
    state = initial_state(amazons)
    assert render_board(amazons, state) == render_board(amazons, state)


def test_all_similar_highlights_every_opening_add(tictactoe):
    state = initial_state(tictactoe)
    move = legal_moves(tictactoe, state)[0]
    before, after = render_move_pair(tictactoe, state, move, similar=True)
    _assert_well_formed(before)
    _assert_well_formed(after)
    # An Add stays in place, so each similar move renders as one red dot.
    assert _count(before, 'class="dot-red"') == 9
    assert _count(before, 'class="arrow"') == 0
    assert _count(after, 'class="dot-red"') == 0
    assert _count(after, 'class="glyph"') == 1


def test_selected_only_step_is_one_arrow(breakthrough):
    state = initial_state(breakthrough)
    move = legal_moves(breakthrough, state)[0]
    before, after = render_move_pair(breakthrough, state, move, similar=False)
    _assert_well_formed(before)
    assert _count(before, 'class="arrow"') == 1
    assert _count(before, 'class="dot-red"') == 0
    assert _count(after, 'class="arrow"') == 0


def test_all_similar_step_arrows_match_similar_count(breakthrough):
    from gamescribe.taxonomy import similar_legal_moves
    state = initial_state(breakthrough)
    move = legal_moves(breakthrough, state)[0]
    before, _ = render_move_pair(breakthrough, state, move, similar=True)
    expected = len(similar_legal_moves(state, move, breakthrough))
    assert _count(before, 'class="arrow"') == expected


def test_ending_pair_highlights(tictactoe):
    for seed in range(50):
        trace = random_playout(tictactoe, seed)
        if trace.outcome.outcome == "Win":
            break
    state = replay(tictactoe, trace, upto=len(trace.moves) - 1)
    before, after = render_ending_pair(tictactoe, state, trace.moves[-1])
    _assert_well_formed(before)
    _assert_well_formed(after)
    assert _count(before, 'class="dot-red"') == 1
    assert _count(after, 'class="dot-green"') == len(trace.outcome.winning_sites)
    assert _count(after, 'class="dot-red"') == 0


def test_highlightspec_add_move_classification(breakthrough, tictactoe):
    hs = HighlightSpec()
    step = legal_moves(breakthrough, initial_state(breakthrough))[0]
    hs.add_move(step)
    assert hs.arrows and not hs.dots
    hs2 = HighlightSpec()
    add = legal_moves(tictactoe, initial_state(tictactoe))[0]
    hs2.add_move(add)
    assert hs2.dots == [(add.to_site, "red")] and not hs2.arrows


def test_glyphs_survive_capture_render(breakthrough):
    trace = random_playout(breakthrough, 0)
    state = initial_state(breakthrough)
    for move in trace.moves[:10]:
        state = apply_move(state, move, breakthrough, validate=False)
    svg = render_board(breakthrough, state)
    pieces = sum(1 for c in state.contents if c is not None)
    assert _count(svg, 'class="glyph"') == pieces


def test_four_players_have_four_fills():
    spec = compile_game(parse(
        '(game "Four" (players 4) (equipment {(board (square 4)) (piece "Disc" Each)}) '
        '(rules (start {(place "Disc1" {"A1"}) (place "Disc2" {"B1"}) (place "Disc3" {"C1"}) '
        '(place "Disc4" {"D1"})}) (play (move Add (to (sites Empty)))) '
        '(end (if (is Line 3) (result Mover Win)))))'))
    root = _assert_well_formed(render_board(spec, initial_state(spec)))
    ns = "{http://www.w3.org/2000/svg}"
    fills = {g.get("data-piece"): g.find(f"{ns}circle").get("fill")
             for g in root.iter(f"{ns}g") if g.get("class") == "glyph"}
    assert sorted(fills) == ["Disc1", "Disc2", "Disc3", "Disc4"]
    assert len(set(fills.values())) == 4


@pytest.mark.parametrize("board, rows, cols", [("(rectangle 5 3)", 3, 5),
                                               ("(rectangle 3 5)", 5, 3),
                                               ("(hex Diamond 4)", 4, 4)])
def test_each_site_is_drawn_at_its_labels_row_and_column(board, rows, cols):
    """Glyph centres follow the geometry in render.py's docstring, one site at a time."""
    hexagonal = board.startswith("(hex")
    width = math.sqrt(3.0) * 28
    labels = [f"{chr(ord('A') + col)}{row + 1}" for row in range(rows) for col in range(cols)]
    for label in labels:
        spec = compile_game(parse(_game(board, f'"{label}"')))
        assert (spec.board.rows, spec.board.cols) == (rows, cols)
        svg = _assert_well_formed(render_board(spec, initial_state(spec)))
        (glyph,) = svg.iter("{http://www.w3.org/2000/svg}g")
        circle = glyph.find("{http://www.w3.org/2000/svg}circle")
        row, col = int(label[1:]) - 1, ord(label[0]) - ord("A")  # read from the label
        inv = rows - 1 - row
        if hexagonal:
            want = (16 + width * (col + row / 2 + 1 / 2), 44 + 42 * inv)
        else:
            want = (40 + 48 * col, 40 + 48 * inv)
        got = (float(circle.get("cx")), float(circle.get("cy")))
        assert got == pytest.approx(want, abs=0.006), label
