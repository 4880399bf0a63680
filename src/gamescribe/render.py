"""SVG rendering of board states with move and ending highlights.

Geometry: 16-unit padding; site ``s`` is at ``row, col = divmod(s, cols)``,
row 0 at the bottom.  Square cells are 48 units, centred at ``(40 + 48 col,
40 + 48 (rows - 1 - row))``; hex cells, pointy-top hexagons of circumradius 28
and width ``w = sqrt(3) 28`` in a rhombus, at ``(16 + w (col + row / 2 + 1 / 2),
44 + 42 (rows - 1 - row))``.  ``_Layout.centres`` holds them.  Each cell is
one element with class "cell", each occupied site one group with class
"glyph"; highlights render as class "arrow" groups and "dot-red" /
"dot-green" circles, drawn above the glyphs.

Every image of a game has the same cells, built once per ``_Layout``;
``pipeline.generate`` passes one ``_Layout`` to all of the game's images.
"""

from __future__ import annotations

import math
from html import escape

from .compiler import GameSpec
from .engine import GameState, Move, apply_move
from .record import Record
from .taxonomy import similar_legal_moves

CELL = 48
HEX_RADIUS = 28
PAD = 16

_HEX_WIDTH = math.sqrt(3.0) * HEX_RADIUS
_HEX_VSTEP = 1.5 * HEX_RADIUS

_OWNER_FILL = {0: "#9e9e9e", 1: "#ffffff", 2: "#1a1a1a", 3: "#3a6fb0", 4: "#e0a526"}
_OWNER_STROKE = {0: "#555555", 1: "#1a1a1a", 2: "#1a1a1a"}

RED = "#d62828"
GREEN = "#2a9d2a"


class HighlightSpec(Record):
    __slots__ = _compared = ("arrows", "dots")
    __hash__ = None

    def __init__(self, arrows: list[tuple[int, int]] | None = None,
                 dots: list[tuple[int, str]] | None = None):
        self.arrows = [] if arrows is None else arrows  # (from, to)
        self.dots = [] if dots is None else dots        # (site, "red"|"green")

    def add_move(self, move: Move) -> None:
        # Arrow when the piece's location changes, red dot otherwise.
        if move.from_site != move.to_site:
            self.arrows.append((move.from_site, move.to_site))
        else:
            self.dots.append((move.to_site, "red"))


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


class _Layout:
    def __init__(self, spec: GameSpec):
        board = spec.board
        self.hex = board.shape == "hexDiamond"
        rows, cols = board.rows, board.cols
        # Each site's (row, col); row 0 is the bottom row, drawn lowest.
        grid = [divmod(site, cols) for site in range(board.site_count)]
        if self.hex:
            self.width = 2 * PAD + _HEX_WIDTH * cols + _HEX_WIDTH / 2 * (rows - 1)
            self.height = 2 * PAD + 2 * HEX_RADIUS + _HEX_VSTEP * (rows - 1)
            self.centres = [(PAD + _HEX_WIDTH / 2 + _HEX_WIDTH * col + _HEX_WIDTH / 2 * row,
                             PAD + HEX_RADIUS + _HEX_VSTEP * (rows - 1 - row))
                            for row, col in grid]
        else:
            self.width = 2 * PAD + CELL * cols
            self.height = 2 * PAD + CELL * rows
            self.centres = [(PAD + CELL * col + CELL / 2, PAD + CELL * (rows - 1 - row) + CELL / 2)
                            for row, col in grid]
        self.cells = [_cell_element(self, site) for site in range(board.site_count)]


def _hexagon_points(cx: float, cy: float) -> str:
    pts = []
    for k in range(6):
        angle = math.radians(60 * k + 30)
        pts.append(f"{_fmt(cx + HEX_RADIUS * math.cos(angle))},"
                   f"{_fmt(cy + HEX_RADIUS * math.sin(angle))}")
    return " ".join(pts)


def _cell_element(layout: _Layout, site: int) -> str:
    cx, cy = layout.centres[site]
    if layout.hex:
        return (f'<polygon class="cell" points="{_hexagon_points(cx, cy)}" '
                f'fill="#f5e9d0" stroke="#7a6a52"/>')
    x, y = cx - CELL / 2, cy - CELL / 2
    return (f'<rect class="cell" x="{_fmt(x)}" y="{_fmt(y)}" width="{CELL}" '
            f'height="{CELL}" fill="#f5e9d0" stroke="#7a6a52"/>')


def _glyph(spec: GameSpec, name: str, cx: float, cy: float) -> str:
    piece = spec.pieces_by_name[name]
    base = piece.base
    owner = piece.owner
    fill = _OWNER_FILL.get(owner, "#888888")
    stroke = _OWNER_STROKE.get(owner, "#1a1a1a")
    r = 16
    if base == "Dot":
        body = f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="7" fill="{fill}" stroke="{stroke}"/>'
    elif base == "Cross":
        colour = fill if owner != 1 else stroke
        d = 11
        body = (f'<line x1="{_fmt(cx - d)}" y1="{_fmt(cy - d)}" x2="{_fmt(cx + d)}" '
                f'y2="{_fmt(cy + d)}" stroke="{colour}" stroke-width="5"/>'
                f'<line x1="{_fmt(cx - d)}" y1="{_fmt(cy + d)}" x2="{_fmt(cx + d)}" '
                f'y2="{_fmt(cy - d)}" stroke="{colour}" stroke-width="5"/>')
    elif base == "Queen":
        crown = (f'<polyline points="{_fmt(cx - 9)},{_fmt(cy - 2)} {_fmt(cx - 5)},{_fmt(cy - 9)} '
                 f'{_fmt(cx)},{_fmt(cy - 3)} {_fmt(cx + 5)},{_fmt(cy - 9)} '
                 f'{_fmt(cx + 9)},{_fmt(cy - 2)}" fill="none" stroke="{stroke}" '
                 f'stroke-width="2"/>')
        body = (f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{r}" fill="{fill}" '
                f'stroke="{stroke}" stroke-width="2"/>' + crown)
    elif base in ("Disc", "Marker"):
        body = (f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{r}" fill="{fill}" '
                f'stroke="{stroke}" stroke-width="2"/>')
    else:  # pawn-class default: triangle
        body = (f'<polygon points="{_fmt(cx)},{_fmt(cy - 14)} {_fmt(cx - 12)},{_fmt(cy + 12)} '
                f'{_fmt(cx + 12)},{_fmt(cy + 12)}" fill="{fill}" stroke="{stroke}" '
                f'stroke-width="2"/>')
    return f'<g class="glyph" data-piece="{escape(name, quote=False)}">{body}</g>'


def _arrow(layout: _Layout, from_site: int, to_site: int) -> str:
    x1, y1 = layout.centres[from_site]
    x2, y2 = layout.centres[to_site]
    dx, dy = x2 - x1, y2 - y1
    length = math.hypot(dx, dy) or 1.0
    ux, uy = dx / length, dy / length
    head = 13.0
    bx, by = x2 - head * ux, y2 - head * uy
    px, py = -uy * 6.0, ux * 6.0
    return (f'<g class="arrow">'
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(bx)}" y2="{_fmt(by)}" '
            f'stroke="{RED}" stroke-width="4"/>'
            f'<polygon points="{_fmt(x2)},{_fmt(y2)} {_fmt(bx + px)},{_fmt(by + py)} '
            f'{_fmt(bx - px)},{_fmt(by - py)}" fill="{RED}"/></g>')


def _dot(layout: _Layout, site: int, colour: str) -> str:
    cx, cy = layout.centres[site]
    fill = RED if colour == "red" else GREEN
    return (f'<circle class="dot-{colour}" cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="7" '
            f'fill="{fill}"/>')


def render_board(spec: GameSpec, state: GameState,
                 highlights: HighlightSpec | None = None, layout: _Layout | None = None) -> str:
    """Render one state as a standalone SVG document, on a new ``_Layout`` unless given one."""
    if layout is None:
        layout = _Layout(spec)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(layout.width)}" '
        f'height="{_fmt(layout.height)}" '
        f'viewBox="0 0 {_fmt(layout.width)} {_fmt(layout.height)}">', *layout.cells
    ]
    for content, (cx, cy) in zip(state.contents, layout.centres):
        if content is not None:
            parts.append(_glyph(spec, content[0], cx, cy))
    if highlights is not None:
        for from_site, to_site in highlights.arrows:
            parts.append(_arrow(layout, from_site, to_site))
        for site, colour in highlights.dots:
            parts.append(_dot(layout, site, colour))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_move_pair(spec: GameSpec, state: GameState, move: Move, similar: bool,
                     layout: _Layout | None = None) -> tuple[str, str]:
    """Before/after images for a move; before highlights it in red, and with
    ``similar`` every similar legal move too."""
    highlighted = similar_legal_moves(state, move, spec) if similar else [move]
    spec_hl = HighlightSpec()
    for m in highlighted:
        spec_hl.add_move(m)
    before = render_board(spec, state, spec_hl, layout)
    after_state = apply_move(state, move, spec)
    after = render_board(spec, after_state, None, layout)
    return before, after


def render_ending_pair(spec: GameSpec, state: GameState, move: Move,
                       layout: _Layout | None = None) -> tuple[str, str]:
    """Before/after images for a game-ending move.

    The before image highlights the final move in red; the after image
    marks the winning sites (when any) with green dots.
    """
    spec_hl = HighlightSpec()
    spec_hl.add_move(move)
    before = render_board(spec, state, spec_hl, layout)
    after_state = apply_move(state, move, spec)
    after_hl = None
    if after_state.terminal is not None and after_state.terminal.winning_sites:
        after_hl = HighlightSpec()
        after_hl.dots = [(s, "green") for s in after_state.terminal.winning_sites]
    after = render_board(spec, after_state, after_hl, layout)
    return before, after
