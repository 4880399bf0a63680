"""Board geometry against a coordinate walk that reads only ``divmod(site, cols)``."""

import string

import pytest

from gamescribe import boards
from gamescribe.compiler import compile_game
from gamescribe.engine import initial_state
from gamescribe.english import translate_game
from gamescribe.sexpr import parse

SQUARE_VECTORS = {(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)} - {(0, 0)}

BOARDS = ([boards.build_square(n, n) for n in range(1, 13)]
          + [boards.build_square(rows, cols, shape="rectangle")
             for rows in range(1, 6) for cols in range(1, 8) if rows != cols]
          + [boards.build_square(1, 12, shape="rectangle"),
             boards.build_square(12, 1, shape="rectangle")]
          + [boards.build_hex_diamond(n) for n in range(1, 13)])


def _walk(board, by_coord, site, vec):
    """Sites from ``site`` along ``vec`` until the edge, stepping over ``by_coord``."""
    row, col = divmod(site, board.cols)
    row, col, out = row + vec[0], col + vec[1], []
    while (row, col) in by_coord:
        out.append(by_coord[(row, col)])
        row, col = row + vec[0], col + vec[1]
    return out


@pytest.mark.parametrize("board", BOARDS,
                         ids=lambda b: f"{b.shape}-{b.rows}x{b.cols}")
def test_rays_and_adjacency_match_a_coordinate_walk(board):
    hexagonal = board.shape == "hexDiamond"
    assert set(board.vectors) == (set(boards.HEX_NEIGHBOURS) if hexagonal else SQUARE_VECTORS)
    assert len(board.vectors) == len(set(board.vectors))
    assert len(board.labels) == board.site_count == board.rows * board.cols
    by_coord = {divmod(site, board.cols): site for site in range(board.site_count)}
    for site, label in enumerate(board.labels):
        assert board.site_by_label(label) == site
        walks = [_walk(board, by_coord, site, vec) for vec in board.vectors]
        for vec, ray, walk in zip(board.vectors, board.rays[site], walks):
            assert list(ray) == walk, (label, vec)
        assert board.adjacent[site] == [walk[0] for walk in walks if walk], label


@pytest.mark.parametrize("board", BOARDS,
                         ids=lambda b: f"{b.shape}-{b.rows}x{b.cols}")
def test_shifts_match_a_coordinate_walk(board):
    """A site's mask bit is set exactly when its ray is non-empty, which starts at site + step."""
    by_coord = {divmod(site, board.cols): site for site in range(board.site_count)}
    assert len(board.shifts) == len(board.vectors)
    for vec, (step, mask) in zip(board.vectors, board.shifts):
        for site in range(board.site_count):
            walk = _walk(board, by_coord, site, vec)
            assert bool(mask >> site & 1) == bool(walk), (board.labels[site], vec)
            if walk:
                assert site + step == walk[0], (board.labels[site], vec)
        assert mask >> board.site_count == 0


def test_directions_per_player():
    square, hexagonal = boards.build_square(5, 3, shape="rectangle"), boards.build_hex_diamond(4)
    ray = square.vectors.index
    assert square.ray_indices(("Forward", "FL", "FR"), 1) == (ray((1, 0)), ray((1, -1)),
                                                               ray((1, 1)))
    assert square.ray_indices(("Forward", "FL", "FR"), 2) == (ray((-1, 0)), ray((-1, 1)),
                                                               ray((-1, -1)))
    for player in (1, 2, 3, 4):
        assert square.ray_indices(("Adjacent",), player) == tuple(range(8))
        assert square.ray_indices(("Diagonal", "Orthogonal"), player) == (4, 5, 6, 7, 0, 1, 2, 3)
        assert hexagonal.ray_indices(("Orthogonal",), player) == tuple(range(6))
    for name in ("Forward", "FL", "FR"):
        for player in (3, 4):
            with pytest.raises(KeyError, match=name):
                square.ray_indices(("Adjacent", name), player)
        with pytest.raises(KeyError, match=name):
            hexagonal.ray_indices((name,), 1)
    with pytest.raises(KeyError, match="Diagonal"):
        hexagonal.ray_indices(("Diagonal",), 1)


def _game(board: str, labels: str) -> str:
    return (f'(game "G" (players 2) (equipment {{(board {board}) (piece "Disc" Each)}}) '
            f'(rules (start (place "Disc1" {{{labels}}})) (play (move Add (to (sites Empty)))) '
            f'(end (if (is Line 3) (result Mover Win)))))')


def test_labels_past_column_z():
    spec = compile_game(parse(_game("(rectangle 28 2)", '"AB2"')))
    board = spec.board
    assert (board.rows, board.cols) == (2, 28)
    assert board.labels[:26] == [f"{letter}1" for letter in string.ascii_uppercase]
    assert board.labels[26:29] == ["AA1", "AB1", "A2"]
    assert board.labels[55] == "AB2"
    for site, label in enumerate(board.labels):
        assert board.site_by_label(label) == site
    for label in ("A01", "a1", "A0", "AC1", "AA3", ""):
        assert board.site_by_label(label) is None, label
    assert spec.start_placements[0].sites == (55,)
    assert initial_state(spec).contents[55] == spec.content_of["Disc1"]
    assert [site for site, content in enumerate(initial_state(spec).contents) if content] == [55]
    assert "on sites: AB2." in translate_game(spec)
