"""SVG rendering of board states with marked moves and winning sites.

Geometry: 16-unit padding; site ``s`` is at ``row, col = divmod(s, cols)``,
row 0 at the bottom.  Square cells are 48 units, centred at ``(40 + 48 col,
40 + 48 (rows - 1 - row))``; hex cells, pointy-top hexagons of circumradius 28
and width ``w = sqrt(3) 28`` in a rhombus, at ``(16 + w (col + row / 2 + 1 / 2),
44 + 42 (rows - 1 - row))``.  ``_Layout.centres`` holds them.  Each cell is
one element with class "cell", each occupied site one group with class
"glyph".  ``render_board`` draws the marks above the glyphs, from the moves
and sites it is given: a class "arrow" group for each marked move that
changes site, then a "dot-red" circle for each other marked move, then a
"dot-green" circle for each winning site.

``pipeline.generate`` passes one ``_Layout`` to all of a game's images, and
the layout computes once per game what they share: each site's drawing
centre, the header and the cells, each number's text and each glyph.  No
cache outlives its layout.
"""

from __future__ import annotations

import math
from functools import cache

from .compiler import GameSpec
from .engine import GameState, IllegalMove, Move, apply_move
from .manual import escape
from .taxonomy import similar_legal_moves

CELL = 48
HEX_RADIUS = 28
PAD = 16

_HEX_WIDTH = math.sqrt(3.0) * HEX_RADIUS
_HEX_VSTEP = 1.5 * HEX_RADIUS
# Each corner of a pointy-top hexagon, from its centre: (28 cos a, 28 sin a), a = 30, 90, .. 330°.
_HEX_CORNERS = tuple((HEX_RADIUS * math.cos(a), HEX_RADIUS * math.sin(a))
                     for a in (math.radians(60 * k + 30) for k in range(6)))

# Indexed by owner: the neutral grey, then players 1 to compiler.MAX_PLAYERS, each its own.
_OWNER_FILL = ("#9e9e9e", "#ffffff", "#1a1a1a", "#3a6fb0", "#e0a526", "#9467bd", "#17becf",
               "#8c564b", "#e377c2", "#bcbd22", "#ff7f0e", "#aec7e8", "#98df8a", "#ff9896",
               "#c5b0d5", "#f7b6d2", "#9edae5")
_OWNER_STROKE = {0: "#555555", 1: "#1a1a1a", 2: "#1a1a1a"}

RED = "#d62828"
GREEN = "#2a9d2a"


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


class _Layout:
    """What every image of one game shares, computed once.

    ``centres`` holds each site's drawing centre and ``head`` the SVG header
    and every cell, one line each.  ``fmt`` is ``_fmt`` computed once per
    distinct number, and ``glyphs`` maps each ``(piece name, site)`` to the
    glyph that ``render_board`` drew there the first time.
    """

    def __init__(self, spec: GameSpec):
        self.fmt = fmt = cache(_fmt)
        self.glyphs: dict[tuple[str, int], str] = {}
        board = spec.board
        self.hex = board.shape == "hexDiamond"
        rows, cols = board.rows, board.cols
        # Each site's (row, col); row 0 is the bottom row, drawn lowest.
        grid = [divmod(site, cols) for site in range(board.site_count)]
        if self.hex:
            width = 2 * PAD + _HEX_WIDTH * cols + _HEX_WIDTH / 2 * (rows - 1)
            height = 2 * PAD + 2 * HEX_RADIUS + _HEX_VSTEP * (rows - 1)
            self.centres = [(PAD + _HEX_WIDTH / 2 + _HEX_WIDTH * col + _HEX_WIDTH / 2 * row,
                             PAD + HEX_RADIUS + _HEX_VSTEP * (rows - 1 - row))
                            for row, col in grid]
        else:
            width, height = 2 * PAD + CELL * cols, 2 * PAD + CELL * rows
            self.centres = [(PAD + CELL * col + CELL / 2, PAD + CELL * (rows - 1 - row) + CELL / 2)
                            for row, col in grid]
        width, height = fmt(width), fmt(height)
        self.head = "\n".join([
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            *(_cell_element(self, site) for site in range(board.site_count))])


def _cell_element(layout: _Layout, site: int) -> str:
    cx, cy = layout.centres[site]
    fmt = layout.fmt
    if layout.hex:
        points = " ".join(f"{fmt(cx + dx)},{fmt(cy + dy)}" for dx, dy in _HEX_CORNERS)
        return f'<polygon class="cell" points="{points}" fill="#f5e9d0" stroke="#7a6a52"/>'
    x, y = cx - CELL / 2, cy - CELL / 2
    return (f'<rect class="cell" x="{fmt(x)}" y="{fmt(y)}" width="{CELL}" '
            f'height="{CELL}" fill="#f5e9d0" stroke="#7a6a52"/>')


def _glyph(spec: GameSpec, layout: _Layout, name: str, site: int) -> str:
    cx, cy = layout.centres[site]
    fmt = layout.fmt
    piece = spec.pieces_by_name[name]
    base = piece.base
    owner = piece.owner
    fill = _OWNER_FILL[owner]
    stroke = _OWNER_STROKE.get(owner, "#1a1a1a")
    r = 16
    if base == "Dot":
        body = f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="7" fill="{fill}" stroke="{stroke}"/>'
    elif base == "Cross":
        colour = fill if owner != 1 else stroke
        d = 11
        body = (f'<line x1="{fmt(cx - d)}" y1="{fmt(cy - d)}" x2="{fmt(cx + d)}" '
                f'y2="{fmt(cy + d)}" stroke="{colour}" stroke-width="5"/>'
                f'<line x1="{fmt(cx - d)}" y1="{fmt(cy + d)}" x2="{fmt(cx + d)}" '
                f'y2="{fmt(cy - d)}" stroke="{colour}" stroke-width="5"/>')
    elif base == "Queen":
        crown = (f'<polyline points="{fmt(cx - 9)},{fmt(cy - 2)} {fmt(cx - 5)},{fmt(cy - 9)} '
                 f'{fmt(cx)},{fmt(cy - 3)} {fmt(cx + 5)},{fmt(cy - 9)} '
                 f'{fmt(cx + 9)},{fmt(cy - 2)}" fill="none" stroke="{stroke}" '
                 f'stroke-width="2"/>')
        body = (f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="{r}" fill="{fill}" '
                f'stroke="{stroke}" stroke-width="2"/>' + crown)
    elif base in ("Disc", "Marker"):
        body = (f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="{r}" fill="{fill}" '
                f'stroke="{stroke}" stroke-width="2"/>')
    else:  # pawn-class default: triangle
        body = (f'<polygon points="{fmt(cx)},{fmt(cy - 14)} {fmt(cx - 12)},{fmt(cy + 12)} '
                f'{fmt(cx + 12)},{fmt(cy + 12)}" fill="{fill}" stroke="{stroke}" '
                f'stroke-width="2"/>')
    return f'<g class="glyph" data-piece="{escape(name)}">{body}</g>'


def _arrow(layout: _Layout, from_site: int, to_site: int) -> str:
    fmt = layout.fmt
    x1, y1 = layout.centres[from_site]
    x2, y2 = layout.centres[to_site]
    dx, dy = x2 - x1, y2 - y1
    length = math.hypot(dx, dy) or 1.0
    ux, uy = dx / length, dy / length
    head = 13.0
    bx, by = x2 - head * ux, y2 - head * uy
    px, py = -uy * 6.0, ux * 6.0
    return (f'<g class="arrow">'
            f'<line x1="{fmt(x1)}" y1="{fmt(y1)}" x2="{fmt(bx)}" y2="{fmt(by)}" '
            f'stroke="{RED}" stroke-width="4"/>'
            f'<polygon points="{fmt(x2)},{fmt(y2)} {fmt(bx + px)},{fmt(by + py)} '
            f'{fmt(bx - px)},{fmt(by - py)}" fill="{RED}"/></g>')


def _dot(layout: _Layout, site: int, colour: str) -> str:
    cx, cy = layout.centres[site]
    fmt = layout.fmt
    fill = RED if colour == "red" else GREEN
    return (f'<circle class="dot-{colour}" cx="{fmt(cx)}" cy="{fmt(cy)}" r="7" '
            f'fill="{fill}"/>')


def render_board(spec: GameSpec, state: GameState, marked: list[Move] | tuple[Move, ...] = (),
                 winning: tuple[int, ...] = (), layout: _Layout | None = None) -> str:
    """Render one state as a standalone SVG document, on a new ``_Layout`` unless given one.

    Above the glyphs, each ``marked`` move that changes site draws a red
    arrow, then each other marked move a red dot on its site, then each
    ``winning`` site a green dot.
    """
    if layout is None:
        layout = _Layout(spec)
    parts, glyphs = [layout.head], layout.glyphs
    for site, content in enumerate(state.contents):
        if content is not None:
            key = content[0], site
            glyph = glyphs.get(key)
            if glyph is None:
                glyph = glyphs[key] = _glyph(spec, layout, *key)
            parts.append(glyph)
    parts += [_arrow(layout, m.from_site, m.to_site) for m in marked if m.from_site != m.to_site]
    parts += [_dot(layout, m.to_site, "red") for m in marked if m.from_site == m.to_site]
    parts += [_dot(layout, site, "green") for site in winning]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_move_pair(spec: GameSpec, state: GameState, move: Move, similar: bool,
                     layout: _Layout | None = None) -> tuple[str, str]:
    """Before/after images for a move; before marks it in red, and with
    ``similar`` every similar legal move too.

    A move that is not legal in ``state`` raises IllegalMove.  With
    ``similar`` the marked moves, which the state's one legal list gives,
    settle that, so ``apply_move`` builds no second list.
    """
    if similar:
        marked = similar_legal_moves(state, move, spec)
        if move not in marked:
            raise IllegalMove(f"move not legal in this state: {move}")
    else:
        marked = [move]
    before = render_board(spec, state, marked, layout=layout)
    after = render_board(spec, apply_move(state, move, spec, validate=not similar), layout=layout)
    return before, after


def render_ending_pair(spec: GameSpec, state: GameState, move: Move,
                       layout: _Layout | None = None) -> tuple[str, str]:
    """Before/after images for a game-ending move.

    The before image marks the final move in red; the after image marks
    the winning sites (when any) with green dots.
    """
    before = render_board(spec, state, [move], layout=layout)
    after_state = apply_move(state, move, spec)
    after = render_board(spec, after_state, (), after_state.terminal.winning_sites or (), layout)
    return before, after
