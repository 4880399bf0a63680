"""Board graphs: site labelling, adjacency and direction tables.

Conventions: columns are lettered A.. from the left, rows numbered 1..
from the bottom, so "A1" is the bottom-left corner.  Player 1 faces
"north" (increasing row), player 2 faces south.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field


# (dr, dc) offsets, rows growing northward.
SQUARE_ORTHOGONAL = ((1, 0), (-1, 0), (0, 1), (0, -1))
SQUARE_DIAGONAL = ((1, 1), (1, -1), (-1, 1), (-1, -1))
HEX_NEIGHBOURS = ((0, 1), (1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1))


@dataclass(frozen=True)
class Site:
    index: int
    label: str
    row: int  # 0-based from the bottom
    col: int  # 0-based from the left


@dataclass
class BoardGraph:
    """Immutable-after-construction description of a board's geometry."""

    shape: str  # "square" | "rectangle" | "hexDiamond"
    rows: int
    cols: int
    sites: list[Site] = field(default_factory=list)
    adjacent: list[list[int]] = field(default_factory=list)
    # Per-site rays along each all-adjacent direction, nearest site first.
    rays: list[list[list[int]]] = field(default_factory=list)
    # Axes for line detection: one vector per undirected direction.
    line_axes: tuple[tuple[int, int], ...] = ()
    # Player id -> direction name -> list of (dr, dc) vectors.
    player_directions: dict[int, dict[str, list[tuple[int, int]]]] = field(default_factory=dict)
    sides: dict[str, list[int]] = field(default_factory=dict)
    _by_label: dict[str, int] = field(default_factory=dict)
    _by_coord: dict[tuple[int, int], int] = field(default_factory=dict)
    _ray_index: dict[tuple[int, int], int] = field(default_factory=dict)

    def site_by_label(self, label: str) -> int | None:
        return self._by_label.get(label)

    def offset(self, site: int, vec: tuple[int, int]) -> int | None:
        s = self.sites[site]
        return self._by_coord.get((s.row + vec[0], s.col + vec[1]))

    def direction_vectors(self, name: str, player: int) -> list[tuple[int, int]]:
        return self.player_directions[player][name]

    def ray(self, site: int, vec: tuple[int, int]) -> list[int]:
        """Sites from ``site`` along the adjacent direction ``vec``, nearest first."""
        return self.rays[site][self._ray_index[vec]]

    @property
    def site_count(self) -> int:
        return len(self.sites)


def _column_label(col: int) -> str:
    letters = string.ascii_uppercase
    label = ""
    col += 1
    while col:
        col, rem = divmod(col - 1, 26)
        label = letters[rem] + label
    return label


def _finish(board: BoardGraph, vectors: tuple[tuple[int, int], ...]) -> None:
    by_coord = board._by_coord
    board._ray_index = {vec: i for i, vec in enumerate(vectors)}
    for s in board.sites:
        board._by_label[s.label] = s.index
        by_coord[(s.row, s.col)] = s.index
    for s in board.sites:
        adj = []
        for vec in vectors:
            n = by_coord.get((s.row + vec[0], s.col + vec[1]))
            if n is not None:
                adj.append(n)
        board.adjacent.append(adj)
        site_rays = []
        for vec in vectors:
            ray = []
            r, c = s.row + vec[0], s.col + vec[1]
            while (r, c) in by_coord:
                ray.append(by_coord[(r, c)])
                r, c = r + vec[0], c + vec[1]
            site_rays.append(ray)
        board.rays.append(site_rays)


def build_square(rows: int, cols: int, shape: str = "square") -> BoardGraph:
    board = BoardGraph(shape=shape, rows=rows, cols=cols)
    for row in range(rows):
        for col in range(cols):
            idx = row * cols + col
            board.sites.append(Site(idx, f"{_column_label(col)}{row + 1}", row, col))
    vectors = SQUARE_ORTHOGONAL + SQUARE_DIAGONAL
    _finish(board, vectors)
    board.line_axes = ((0, 1), (1, 0), (1, 1), (1, -1))
    board.player_directions = {
        1: {"Forward": [(1, 0)], "FL": [(1, -1)], "FR": [(1, 1)],
            "Adjacent": list(vectors), "Orthogonal": list(SQUARE_ORTHOGONAL),
            "Diagonal": list(SQUARE_DIAGONAL)},
        2: {"Forward": [(-1, 0)], "FL": [(-1, 1)], "FR": [(-1, -1)],
            "Adjacent": list(vectors), "Orthogonal": list(SQUARE_ORTHOGONAL),
            "Diagonal": list(SQUARE_DIAGONAL)},
    }
    board.sides = {
        "N": [s.index for s in board.sites if s.row == rows - 1],
        "S": [s.index for s in board.sites if s.row == 0],
        "E": [s.index for s in board.sites if s.col == cols - 1],
        "W": [s.index for s in board.sites if s.col == 0],
    }
    return board


def build_hex_diamond(size: int) -> BoardGraph:
    """An n-by-n rhombus of hexagonally tiled cells.

    Sides: NE is the top row, SW the bottom row, NW the left column,
    SE the right column.
    """
    board = BoardGraph(shape="hexDiamond", rows=size, cols=size)
    for row in range(size):
        for col in range(size):
            idx = row * size + col
            board.sites.append(Site(idx, f"{_column_label(col)}{row + 1}", row, col))
    _finish(board, HEX_NEIGHBOURS)
    board.line_axes = ((0, 1), (1, 0), (1, -1))
    all_dirs = list(HEX_NEIGHBOURS)
    per_player = {"Adjacent": all_dirs, "Orthogonal": all_dirs, "Diagonal": []}
    board.player_directions = {1: dict(per_player), 2: dict(per_player)}
    board.sides = {
        "NE": [s.index for s in board.sites if s.row == size - 1],
        "SW": [s.index for s in board.sites if s.row == 0],
        "NW": [s.index for s in board.sites if s.col == 0],
        "SE": [s.index for s in board.sites if s.col == size - 1],
    }
    return board
