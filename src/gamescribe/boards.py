"""Board graphs: site labelling, adjacency, rays and direction tables.

Every board is a row-major ``rows x cols`` grid: site ``row * cols + col``,
columns lettered A.. from the left (Z, then AA, AB, ..) and rows numbered 1..
from the bottom, so "A1" is the bottom-left corner.  A site is its index:
its row and column are ``divmod(site, cols)``, and its label is
``labels[site]``, the one stored list of labels.  Each ray along an adjacent
direction ``(dr, dc)`` is a ``range`` of site indices with step
``dr * cols + dc``, as long as the distance to the edge allows.  The same
step, with a mask of the sites whose ray in that direction is non-empty,
moves a set of sites held as the bits of one integer one step along the
direction.  Labels, rays, adjacency and the shifts are each built on first
read, so compiling and translating a game builds no rays, and labels only
when a start placement names a site; every later read is a plain attribute.
Direction names map to vectors as player 1 faces, north (increasing row);
player 2 faces south, so Forward, FL and FR turn around for it, and no other
player has a facing.
"""

from __future__ import annotations

import string
import sys
from dataclasses import dataclass
from functools import cached_property


# (dr, dc) offsets, rows growing northward.
SQUARE_ORTHOGONAL = ((1, 0), (-1, 0), (0, 1), (0, -1))
SQUARE_DIAGONAL = ((1, 1), (1, -1), (-1, 1), (-1, -1))
HEX_NEIGHBOURS = ((0, 1), (1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1))
FACING = ("Forward", "FL", "FR")


@dataclass
class BoardGraph:
    """A board's geometry, immutable once built; what derives from the grid comes on first read."""

    shape: str  # "square" | "rectangle" | "hexDiamond"
    rows: int
    cols: int
    # The adjacent directions, in the order of each site's rays.
    vectors: tuple[tuple[int, int], ...]
    # Axes for line detection: one vector per undirected direction.
    line_axes: tuple[tuple[int, int], ...]
    # Direction name -> vectors, as player 1 faces.
    directions: dict[str, tuple[tuple[int, int], ...]]
    # Side name -> its sites, in index order.
    sides: dict[str, list[int]]

    # Per-site label, row-major like the sites; built on first read.
    @cached_property
    def labels(self) -> list[str]:
        # Column letters A..Z, then AA..ZZ, AAA.., until there is one per column.
        letters, columns = [""], []
        while len(columns) < self.cols:
            letters = [prefix + letter for prefix in letters for letter in string.ascii_uppercase]
            columns += letters
        return [f"{column}{row}" for row in range(1, self.rows + 1)
                for column in columns[:self.cols]]

    # Label -> site; built on the first ``site_by_label``.
    @cached_property
    def _by_label(self) -> dict[str, int]:
        return {label: site for site, label in enumerate(self.labels)}

    # Per-site rays along each adjacent direction, nearest site first; built on first read.
    @cached_property
    def rays(self) -> list[list[range]]:
        rows, cols, rays = self.rows, self.cols, [[] for _ in range(self.site_count)]
        for site, site_rays in enumerate(rays):
            row, col = divmod(site, cols)
            for dr, dc in self.vectors:
                step = dr * cols + dc
                length = min(_reach(row, dr, rows), _reach(col, dc, cols))
                # One column makes step 0 for (1, -1) and (-1, 1), whose length is 0.
                site_rays.append(range(site + step, site + step * (length + 1), step or 1))
        return rays

    # Per-site neighbours, the first site of each non-empty ray; built on first read.
    @cached_property
    def adjacent(self) -> list[list[int]]:
        return [[ray[0] for ray in site_rays if ray] for site_rays in self.rays]

    # Per ray index, (step, mask): a site s whose bit is in mask has a non-empty
    # ray in that direction, starting at s + step; built on first read.
    @cached_property
    def shifts(self) -> list[tuple[int, int]]:
        rows, cols, shifts = self.rows, self.cols, []
        for dr, dc in self.vectors:
            row_mask = sum(1 << col for col in range(max(0, -dc), cols - max(0, dc)))
            mask = sum(row_mask << row * cols for row in range(max(0, -dr), rows - max(0, dr)))
            shifts.append((dr * cols + dc, mask))
        return shifts

    def site_by_label(self, label: str) -> int | None:
        return self._by_label.get(label)

    def direction_vectors(self, name: str, player: int) -> list[tuple[int, int]]:
        """The vectors of direction ``name`` as ``player`` faces; KeyError if it has none."""
        vectors = self.directions[name]
        if name in FACING:
            if player == 2:
                return [(-dr, -dc) for dr, dc in vectors]
            if player != 1:
                raise KeyError(name)
        return list(vectors)

    def ray_indices(self, names: tuple[str, ...], player: int) -> tuple[int, ...]:
        """Indices into ``rays[site]`` of the named directions for ``player``, in order.

        An index that an earlier name already gave is left out, so a piece never
        moves along one ray twice: on a hex board Orthogonal and Adjacent name
        the same six directions.  Raises KeyError with the first name the board
        has no vectors for.
        """
        return tuple(dict.fromkeys(self.vectors.index(vec) for name in names
                                   for vec in self.direction_vectors(name, player)))

    @property
    def site_count(self) -> int:
        return self.rows * self.cols


def _reach(pos: int, d: int, size: int) -> int:
    """Steps of ``d`` (-1, 0 or 1) from ``pos`` that stay inside ``0..size-1``."""
    return size - 1 - pos if d > 0 else pos if d < 0 else sys.maxsize


def _grid(shape: str, rows: int, cols: int, vectors: tuple[tuple[int, int], ...],
          line_axes: tuple[tuple[int, int], ...],
          directions: dict[str, tuple[tuple[int, int], ...]],
          sides: tuple[str, str, str, str]) -> BoardGraph:
    """A ``rows x cols`` grid; ``sides`` names its top row, bottom row, left and right column."""
    top, bottom, left, right = sides
    n = rows * cols
    return BoardGraph(shape, rows, cols, vectors, line_axes, directions,
                      {top: list(range(n - cols, n)), bottom: list(range(cols)),
                       left: list(range(0, n, cols)), right: list(range(cols - 1, n, cols))})


def build_square(rows: int, cols: int, shape: str = "square") -> BoardGraph:
    vectors = SQUARE_ORTHOGONAL + SQUARE_DIAGONAL
    return _grid(shape, rows, cols, vectors, ((0, 1), (1, 0), (1, 1), (1, -1)),
                 {"Forward": ((1, 0),), "FL": ((1, -1),), "FR": ((1, 1),),
                  "Adjacent": vectors, "Orthogonal": SQUARE_ORTHOGONAL,
                  "Diagonal": SQUARE_DIAGONAL}, ("N", "S", "W", "E"))


def build_hex_diamond(size: int) -> BoardGraph:
    """An n-by-n rhombus of hexagonally tiled cells.

    Sides: NE is the top row, SW the bottom row, NW the left column,
    SE the right column.  Every adjacent direction is orthogonal; there is
    no Diagonal and no facing.
    """
    return _grid("hexDiamond", size, size, HEX_NEIGHBOURS, ((0, 1), (1, 0), (1, -1)),
                 {"Adjacent": HEX_NEIGHBOURS, "Orthogonal": HEX_NEIGHBOURS},
                 ("NE", "SW", "NW", "SE"))
