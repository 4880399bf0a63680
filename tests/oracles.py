"""Independent reference implementations used to cross-check the engine.

Everything here is deliberately written from scratch against the game
descriptions themselves (raw rule trees, hand-listed win lines, union-find
connectivity) rather than reusing the library's own move/condition logic.
Ludeme ids are numbered here too: a node's id is its index in a preorder
walk of ``spec.root``.
"""

from __future__ import annotations

import re

from gamescribe.sexpr import Call, children, print_canonical


# --- preorder ludeme ids over the raw tree ---

def preorder(root) -> list:
    """Every node of ``root`` in preorder, call heads included: a node's index is its id."""
    nodes = []

    def visit(node) -> None:
        nodes.append(node)
        for child in children(node):
            visit(child)

    visit(root)
    return nodes


def move_call_ids(spec) -> list[int]:
    """Preorder ids of every (move ...) call in ``spec.root``, ascending."""
    return [lid for lid, node in enumerate(preorder(spec.root))
            if isinstance(node, Call) and node.head.name == "move"]


def _pieces_of(spec, owner: int) -> list:
    return [p for p in spec.pieces if p.owner == owner]


# --- exhaustive move-signature enumeration over the raw rule structure ---

def _rename_owners(text: str) -> str:
    text = re.sub(r'"([A-Za-z]+)\d+"', r'"\1"', text)
    return re.sub(r"\bP\d+\b", "P", text)


def _has_if(node) -> bool:
    if isinstance(node, Call) and node.head.name == "if":
        return True
    return any(_has_if(c) for c in children(node))


def players_rules_differ(spec) -> bool:
    """Reference copy of the mover-participation test for signatures."""
    nodes = preorder(spec.root)
    per_player = []
    for p in range(1, spec.player_count + 1):
        rules = set()
        for piece in _pieces_of(spec, p):
            if piece.rule is not None:
                rules.add(_rename_owners(print_canonical(nodes[piece.rule.id])))
        per_player.append(rules)
    differ = any(s != per_player[0] for s in per_player[1:])
    return differ or _has_if(nodes[spec.play.id])


def _then_again(node: Call) -> bool:
    for a in node.args:
        if isinstance(a, Call) and a.head.name == "then":
            eff = a.args[0]
            return isinstance(eff, Call) and eff.head.name == "moveAgain"
    return False


def _base_action_variants(kind: str) -> list[tuple[str, ...]]:
    if kind == "Add":
        return [("Add",)]
    if kind == "Step":
        # A step lands on an empty cell, or captures by displacement.
        return [("Move",), ("Remove", "Move")]
    if kind == "Slide":
        return [("Move",)]
    if kind == "Shoot":
        return [("Add",)]
    raise ValueError(f"unknown move kind {kind!r}")


def enumerate_signatures(spec) -> set[tuple]:
    """All (mover, piece, origin id, action types) tuples the rules can emit."""
    mover_matters = players_rules_differ(spec)
    nodes = preorder(spec.root)
    ids = {id(node): lid for lid, node in enumerate(nodes)}
    sigs: set[tuple] = set()

    def emit(mover: int, piece: str | None, node: Call) -> None:
        kind = node.args[0].name
        if kind == "Shoot":
            for a in node.args:
                if isinstance(a, Call) and a.head.name == "piece":
                    piece = a.args[0].value
        suffix = ("SetMoverAgain",) if _then_again(node) else ()
        for acts in _base_action_variants(kind):
            sigs.add((mover if mover_matters else None, piece,
                      ids[id(node)], acts + suffix))

    def walk(node: Call, mover: int, ctx_piece: str | None) -> None:
        head = node.head.name
        if head == "move":
            emit(mover, ctx_piece, node)
        elif head == "forEach":
            for piece in _pieces_of(spec, mover):
                if piece.rule is not None:
                    walk(nodes[piece.rule.id], mover, piece.name)
        elif head == "if":
            walk(node.args[1], mover, ctx_piece)
            if len(node.args) > 2:
                walk(node.args[2], mover, ctx_piece)
        else:
            raise ValueError(f"unexpected play ludeme {head!r}")

    for mover in range(1, spec.player_count + 1):
        owned = _pieces_of(spec, mover)
        walk(nodes[spec.play.id], mover, owned[0].name if owned else None)
    return sigs


# --- brute-force 3x3 line scan (sites indexed row-major from bottom-left) ---

TTT_LINES = [
    (0, 1, 2), (3, 4, 5), (6, 7, 8),   # rows
    (0, 3, 6), (1, 4, 7), (2, 5, 8),   # columns
    (0, 4, 8), (2, 4, 6),              # diagonals
]


def ttt_line_through(contents: list, site: int) -> bool:
    """True when some full 3-in-a-row of one owner passes through ``site``."""
    if contents[site] is None:
        return False
    owner = contents[site][1]
    for line in TTT_LINES:
        if site in line and all(contents[i] is not None and contents[i][1] == owner
                                for i in line):
            return True
    return False


# --- union-find connectivity for the hex diamond board ---

HEX_OFFSETS = ((0, 1), (1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1))


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def hex_sides_connected(size: int, occupied: set[int],
                        side_a: set[int], side_b: set[int]) -> bool:
    """Union-find check that ``occupied`` links the two site sets."""
    uf = _UnionFind(size * size)
    for site in occupied:
        row, col = divmod(site, size)
        for dr, dc in HEX_OFFSETS:
            r, c = row + dr, col + dc
            if 0 <= r < size and 0 <= c < size:
                n = r * size + c
                if n in occupied:
                    uf.union(site, n)
    roots_a = {uf.find(s) for s in side_a & occupied}
    roots_b = {uf.find(s) for s in side_b & occupied}
    return bool(roots_a & roots_b)
