import math
import xml.etree.ElementTree as ET

import pytest

from gamescribe.compiler import MAX_PLAYERS, compile_game
from gamescribe.engine import apply_move, initial_state, legal_moves, random_playout, replay
from gamescribe.render import render_board, render_ending_pair, render_move_pair
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



def test_ending_pair_of_a_draw_has_no_green_dot(tictactoe):
    for seed in range(100):
        trace = random_playout(tictactoe, seed)
        if trace.outcome.outcome == "Draw":
            break
    assert trace.outcome.winning_sites is None
    state = replay(tictactoe, trace, upto=len(trace.moves) - 1)
    before, after = render_ending_pair(tictactoe, state, trace.moves[-1])
    assert _count(before, 'class="dot-red"') == 1
    assert after == render_board(tictactoe, apply_move(state, trace.moves[-1], tictactoe))
    assert _count(after, 'class="dot-green"') == 0

def test_marks_draw_arrows_then_red_dots_then_green_dots(breakthrough, tictactoe):
    """A marked move that changes site draws an arrow, one that stays a red dot on its
    site; each winning site draws a green dot."""
    step = legal_moves(breakthrough, initial_state(breakthrough))[0]
    svg = render_board(breakthrough, initial_state(breakthrough), [step])
    assert _count(svg, 'class="arrow"') == 1 and _count(svg, 'class="dot-red"') == 0
    state = initial_state(tictactoe)
    add = legal_moves(tictactoe, state)[0]
    assert add.from_site == add.to_site
    root = _assert_well_formed(render_board(tictactoe, state, [add, add._replace(to_site=8)],
                                            (0, 4)))
    marks = [(e.get("class"), e.get("cx"), e.get("cy")) for e in root
             if e.get("class") in ("arrow", "dot-red", "dot-green")]
    cells = [root[site] for site in (add.to_site, 0, 4)]  # the cells, in site order
    centres = [(str(int(c.get("x")) + 24), str(int(c.get("y")) + 24)) for c in cells]
    assert marks == [("arrow", None, None), ("dot-red", *centres[0]),
                     ("dot-green", *centres[1]), ("dot-green", *centres[2])]


def test_glyphs_survive_capture_render(breakthrough):
    trace = random_playout(breakthrough, 0)
    state = initial_state(breakthrough)
    for move in trace.moves[:10]:
        state = apply_move(state, move, breakthrough, validate=False)
    svg = render_board(breakthrough, state)
    pieces = sum(1 for c in state.contents if c is not None)
    assert _count(svg, 'class="glyph"') == pieces


@pytest.mark.parametrize("players", [4, MAX_PLAYERS])
def test_each_player_has_a_fill_of_its_own(players):
    """Players 1 to 4 keep white, black, blue and amber; no two players, and no player
    and a neutral piece, share a fill."""
    labels = [f"{'ABCDE'[i % 5]}{i // 5 + 1}" for i in range(players + 1)]
    places = " ".join(f'(place "Disc{p}" {{"{labels[p - 1]}"}})' for p in range(1, players + 1))
    spec = compile_game(parse(
        f'(game "Many" (players {players}) (equipment {{(board (square 5)) (piece "Disc" Each) '
        f'(piece "Marker" Neutral)}}) (rules (start {{{places} (place "Marker0" '
        f'{{"{labels[players]}"}})}}) (play (move Add (to (sites Empty)))) '
        '(end (if (is Line 3) (result Mover Win)))))'))
    root = _assert_well_formed(render_board(spec, initial_state(spec)))
    ns = "{http://www.w3.org/2000/svg}"
    fills = {g.get("data-piece"): g.find(f"{ns}circle").get("fill")
             for g in root.iter(f"{ns}g") if g.get("class") == "glyph"}
    assert len(fills) == players + 1
    first_four = [fills[f"Disc{p}"] for p in range(1, 5)]
    assert first_four == ["#ffffff", "#1a1a1a", "#3a6fb0", "#e0a526"]
    assert len(set(fills.values())) == players + 1


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
