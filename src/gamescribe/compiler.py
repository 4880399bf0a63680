"""Compile a parsed game description into a typed GameSpec.

The compiler validates the tree against the ludeme registry, whose one walk
also numbers the nodes in preorder (a rule's ludeme id), builds the board
graph, expands ``Each``/``Neutral`` piece declarations, resolves region and
start-placement sites, decodes the play rule, each piece's rule, the end rules
and their conditions into typed rules, and numbers the union-find anchors of
``(is Connected ...)``.  Only this module reads a ludeme's arguments by
position; the engine, the translator and the taxonomy read only the typed
rules, whose spans (left out of comparison) are the source offsets that
later errors quote.  The registry checks the arguments of every ludeme,
those of each ``move`` kind and ``is`` mode included; what needs context
is checked here, with the offset of the offending ludeme, as it is decoded:
a Step or Slide outside a piece rule, ``(no Moves ...)`` deciding a play
rule, a line length against the board, and a Shoot's ``(piece ...)``,
whose projectile waits until every piece is declared.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union

from . import boards
from .boards import BoardGraph
from .registry import (ArityMismatch, BadArgumentKind, CompileError, default_registry,
                       describe)
from .sexpr import Call, Collection, Number, RawNode, Symbol, print_canonical


@dataclass(frozen=True)
class SiteSet:
    kind: tuple[str, ...]      # e.g. ("Side", "NE"), or ("Empty",) for a move target
    sites: tuple[int, ...]     # empty for ("Empty",), which depends on the state


@dataclass(frozen=True)
class IsLine:
    """``(is Line n)``: the last move's piece is in a line of at least ``length``."""

    length: int
    # One (forward, backward) pair of indices into board.rays[site] per line axis.
    rays: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class IsConnected:
    """``(is Connected Mover)``: the mover's pieces join all the mover's region site sets."""


@dataclass(frozen=True)
class IsIn:
    """``(is In Mover)``: the last move landed in one of the mover's regions."""

    sites: tuple[frozenset[int], ...]   # indexed by player; region sites, empty for 0


@dataclass(frozen=True)
class IsEven:
    """``(is Even (count Moves))``: an even number of moves has been played."""


@dataclass(frozen=True)
class NoMovesNext:
    """``(no Moves Next)``: the player due to move has no legal move."""


@dataclass(frozen=True)
class AnyOf:
    """``(or ...)`` of two or more conditions; the first that holds decides."""

    parts: tuple["Condition", ...]


@dataclass(frozen=True)
class AllOf:
    """``(and ...)`` of two or more conditions; the winning sites of all of them."""

    parts: tuple["Condition", ...]


Condition = Union[IsLine, IsConnected, IsIn, IsEven, NoMovesNext, AnyOf, AllOf]


@dataclass(frozen=True)
class MoveRule:
    """A decoded ``(move <kind> ...)`` ludeme."""

    id: int                        # ludeme id of the (move ...) node
    kind: str                      # Add | Step | Slide | Shoot
    directions: tuple[str, ...]    # Step/Slide direction names, ("Adjacent",) by default
    to: SiteSet | None             # Add target, None for the other kinds
    projectile: str | None         # Shoot: name of the piece placed
    again: bool                    # (then (moveAgain))
    span: tuple[int, int] = field(compare=False, repr=False)  # source offsets of the node
    # The action types of the rule's moves: an Add's or a Shoot's, a Move's and
    # a capture's, each followed by "SetMoverAgain" when the rule moves again.
    action_types: tuple[tuple[str, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        again = ("SetMoverAgain",) if self.again else ()
        object.__setattr__(self, "action_types",
                           (("Add",) + again, ("Move",) + again, ("Remove", "Move") + again))


@dataclass(frozen=True)
class ForEachPiece:
    """``(forEach Piece)``: every piece of the mover moves by its own rule."""

    id: int
    span: tuple[int, int] = field(compare=False, repr=False)  # source offsets of the node


@dataclass(frozen=True)
class IfRule:
    id: int
    cond: Condition
    then: "PlayRule"
    otherwise: "PlayRule | None"
    span: tuple[int, int] = field(compare=False, repr=False)  # source offsets of the node


PlayRule = Union[MoveRule, ForEachPiece, IfRule]


@dataclass(frozen=True)
class PieceSpec:
    name: str          # full name, e.g. "Disc", "Queen1", "Dot0"
    base: str          # declared name, e.g. "Queen"
    owner: int         # 0 = neutral
    rule: MoveRule | None = None
    from_each: bool = False
    # Indices into board.rays[site] that the Step or Slide rule moves along.
    rays: tuple[int, ...] = ()


@dataclass(frozen=True)
class RegionSpec:
    owner: int
    site_sets: tuple[SiteSet, ...]


@dataclass(frozen=True)
class StartPlacement:
    piece_name: str
    sites: tuple[int, ...]


@dataclass(frozen=True)
class EndRule:
    end_id: int      # id of the (if ...) node under (end ...)
    cond: Condition
    who: str         # Mover | Next | P1..P4
    outcome: str     # Win | Loss | Draw


@dataclass(frozen=True)
class AnchorTable:
    """Union-find anchors for ``(is Connected ...)``.

    One anchor node per (player, region site set), numbered after the board's
    sites; an anchor is joined to each of its player's pieces in its set.
    """

    of_player: tuple[tuple[int, ...], ...]            # indexed by player; 0 has none
    at_site: tuple[tuple[tuple[int, ...], ...], ...]  # [player][site] -> anchors holding it
    size: int                                         # board sites + anchors
    # Indexed by player: the sites of the set of each anchor in of_player, ascending.
    site_sets: tuple[tuple[tuple[int, ...], ...], ...]


def _anchor_table(regions: list[RegionSpec], player_count: int,
                  site_count: int) -> AnchorTable:
    of_player: list[list[int]] = [[] for _ in range(player_count + 1)]
    at_site = [[()] * site_count for _ in range(player_count + 1)]
    site_sets: list[list[tuple[int, ...]]] = [[] for _ in range(player_count + 1)]
    node = site_count
    for region in regions:
        for site_set in region.site_sets:
            of_player[region.owner].append(node)
            site_sets[region.owner].append(tuple(sorted(site_set.sites)))
            for site in site_set.sites:
                at_site[region.owner][site] += (node,)
            node += 1
    return AnchorTable(tuple(map(tuple, of_player)), tuple(map(tuple, at_site)), node,
                       tuple(map(tuple, site_sets)))


@dataclass
class GameSpec:
    name: str
    player_count: int
    board: BoardGraph
    pieces: list[PieceSpec]
    regions: list[RegionSpec]
    start_placements: list[StartPlacement]
    play: PlayRule
    end_rules: list[EndRule]
    anchors: AnchorTable
    root: RawNode  # the parsed tree, for references that check the compiler from outside
    # Every decoded play and piece rule by ludeme id.
    rules: dict[int, PlayRule] = field(default_factory=dict)
    # Whether the mover participates in move signatures; see _distinct_rules.
    distinct_rules: bool = False
    # Each piece by its name (no two pieces share one), the (name, owner) site
    # content that placing a piece of each name makes, and the name of each
    # player's first declared piece (None if the player owns none), indexed by
    # player.
    pieces_by_name: dict[str, PieceSpec] = field(init=False, repr=False, compare=False)
    content_of: dict[str, tuple[str, int]] = field(init=False, repr=False, compare=False)
    first_piece: tuple[str | None, ...] = field(init=False, repr=False, compare=False)
    # Indexed by player: the names of the player's own and the neutral pieces,
    # which its Steps cannot land on; and, when every piece of the player that
    # has a rule Steps, the (name, rule, ray indices) of each such piece, else
    # None.  A (forEach Piece) of a player with a tuple resolves over occupancy
    # bits, of a player with None site by site (see engine._resolve).
    friend_names: tuple[tuple[str, ...], ...] = field(init=False, repr=False, compare=False)
    step_pieces: tuple[tuple | None, ...] = field(init=False, repr=False, compare=False)
    # The engine's [mover][site] table of Add moves for a play rule that is one
    # Add to the empty sites, built by its first such playout (see
    # engine._add_to_empty_plies); None until then.
    add_moves: tuple[tuple, ...] | None = field(default=None, init=False, repr=False,
                                                compare=False)

    def __post_init__(self) -> None:
        self.pieces_by_name = {p.name: p for p in self.pieces}
        self.content_of = {name: (name, p.owner) for name, p in self.pieces_by_name.items()}
        players = range(self.player_count + 1)
        self.first_piece = tuple(next((p.name for p in self.pieces if p.owner == player), None)
                                 for player in players)
        self.friend_names = tuple(tuple(name for name, p in self.pieces_by_name.items()
                                        if p.owner in (player, 0)) for player in players)
        ruled = [[p for p in self.pieces_by_name.values() if p.owner == player and p.rule]
                 for player in players]
        self.step_pieces = tuple(
            tuple((p.name, p.rule, p.rays) for p in own)
            if all(p.rule.kind == "Step" for p in own) else None for own in ruled)

    def move_ludeme_ids(self) -> list[int]:
        """Ids of every (move ...) call in the description (each one decoded), ascending."""
        return sorted(lid for lid, rule in self.rules.items() if isinstance(rule, MoveRule))


def _canonical_rule(node: RawNode) -> str:
    # Owner-index renaming: strip digit suffixes from quoted piece names and
    # collapse P1/P2/... symbols so per-player copies of a rule compare equal.
    text = print_canonical(node)
    text = re.sub(r'"([A-Za-z]+)\d+"', r'"\1"', text)
    return re.sub(r"\bP\d+\b", "P", text)


def _distinct_rules(rule_texts: dict[int, set[str]], play: PlayRule) -> bool:
    """Whether the mover participates in move signatures.

    True when (a) players' per-piece move rules (``rule_texts``, the
    canonical text of each player's piece rules) differ after owner-index
    renaming, or (b) the play rule is a conditional, which can route
    different movers through different move ludemes.
    """
    rule_sets = list(rule_texts.values())
    return any(s != rule_sets[0] for s in rule_sets[1:]) or isinstance(play, IfRule)


def _player_index(sym: str) -> int:
    return int(sym[1:])


def _as_items(node: RawNode) -> tuple[RawNode, ...]:
    if isinstance(node, Collection):
        return node.items
    return (node,)


def line_length_fault(board: BoardGraph, length: int) -> str | None:
    """Why no line of ``length`` sites can form on ``board``, or None if one can."""
    if length < 2:  # every piece is a line of one
        return "needs a length of at least 2"
    # The longest line on every supported board shape runs along a row or column.
    longest = max(board.rows, board.cols)
    if length > longest:
        return (f"can never hold: the board's longest line has {longest} "
                f"site{'' if longest == 1 else 's'}")
    return None


def build_board(board_node: Call) -> BoardGraph:
    """Construct the board graph for a ``(board <shape>)`` ludeme."""
    shape = board_node.args[0]
    assert isinstance(shape, Call)
    name = shape.head.name
    if any(isinstance(a, Number) and a.value < 1 for a in shape.args):
        raise BadArgumentKind("a board needs at least one row and one column", shape.span)
    if name == "square":
        n = shape.args[0].value
        return boards.build_square(n, n)
    if name == "rectangle":
        w, h = shape.args[0].value, shape.args[1].value
        return boards.build_square(h, w, shape="rectangle")
    return boards.build_hex_diamond(shape.args[1].value)  # the registry admits no other shape


class _Compiler:
    def compile(self, tree: RawNode) -> GameSpec:
        if not (isinstance(tree, Call) and tree.head.name == "game"):
            raise CompileError("top-level form must be (game ...)",
                               getattr(tree, "span", (0, 0)))
        # id(node) -> the node's preorder index, its ludeme id.
        self.ids = {id(node): i for i, node in enumerate(default_registry().validate_tree(tree))}
        self.rules: dict[int, PlayRule] = {}

        name = tree.args[0].value
        # The name becomes the output directory <out>/<name>.
        if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise BadArgumentKind(f"game name {name!r} is not a directory name",
                                  tree.args[0].span)
        players_node, equipment_node, rules_node = tree.args[1], tree.args[2], tree.args[3]
        player_count = self.player_count = players_node.args[0].value
        if player_count < 1:
            raise BadArgumentKind("player count must be at least 1", players_node.span)
        # The canonical text of each player's piece rules; see _distinct_rules.
        self.rule_texts: dict[int, set[str]] = {p: set() for p in range(1, player_count + 1)}

        board, piece_nodes, region_nodes = self._split_equipment(equipment_node)
        self.board = board
        pieces = self.pieces = self._expand_pieces(piece_nodes)
        regions = [self._compile_region(node) for node in region_nodes]
        # (is In Mover) reads the region sites of whoever moves.
        self.region_sites = tuple(
            frozenset(s for r in regions if r.owner == p for ss in r.site_sets for s in ss.sites)
            for p in range(player_count + 1))
        self.anchors = _anchor_table(regions, player_count, board.site_count)

        # (meta (swap)) is accepted, but neither played nor translated.
        start_placements: list[StartPlacement] = []
        play: PlayRule | None = None
        end_rules: list[EndRule] = []
        placed: set[int] = set()
        for section in rules_node.args:
            head = section.head.name
            if head == "start":
                for place in _as_items(section.args[0]):
                    start_placements.append(self._compile_place(place, placed))
            elif head == "play":
                play = self._compile_rule(section.args[0])
            elif head == "end":
                for rule in _as_items(section.args[0]):
                    end_rules.append(self._compile_end_rule(rule))
        assert play is not None  # registry guarantees a play section
        # Piece rules compile before the pieces declared after them, so the
        # projectile of every Shoot is checked once all pieces are known.
        for rule in self.rules.values():
            if isinstance(rule, MoveRule) and rule.kind == "Shoot" \
                    and not any(p.name == rule.projectile for p in pieces):
                raise BadArgumentKind("(move Shoot ...) needs (piece ...) naming a declared "
                                      "piece", rule.span)

        return GameSpec(
            name=name, player_count=player_count, board=board, pieces=pieces,
            regions=regions, start_placements=start_placements,
            play=play, end_rules=end_rules,
            anchors=self.anchors,
            root=tree, rules=self.rules,
            distinct_rules=_distinct_rules(self.rule_texts, play),
        )

    def _split_equipment(self, equipment: Call):
        board = None
        piece_nodes: list[Call] = []
        region_nodes: list[Call] = []
        for item in _as_items(equipment.args[0]):
            if item.head.name == "board":
                board = build_board(item)
            elif item.head.name == "piece":
                piece_nodes.append(item)
            elif item.head.name == "regions":
                region_nodes.append(item)
        if board is None:
            raise CompileError("equipment has no board", equipment.span)
        return board, piece_nodes, region_nodes

    def _expand_pieces(self, piece_nodes: list[Call]) -> list[PieceSpec]:
        pieces: list[PieceSpec] = []
        declared: set[str] = set()
        for node in piece_nodes:
            base = node.args[0].value
            # Owner is optional in the registry (Shoot reuses (piece "X") as a
            # bare reference) but mandatory for equipment declarations.
            if len(node.args) < 2 or not isinstance(node.args[1], Symbol):
                raise ArityMismatch("equipment piece needs an owner symbol", node.span)
            owner_sym = node.args[1].name
            rule = None
            if len(node.args) > 2:
                rule = self._compile_rule(node.args[2], piece_rule=True)
            if owner_sym == "Each":
                owners = range(1, self.player_count + 1)
            elif owner_sym == "Neutral":
                owners = (0,)
            else:
                owners = (_player_index(owner_sym),)
                if owners[0] > self.player_count:
                    raise BadArgumentKind(
                        f"piece owner {owner_sym} exceeds player count", node.args[1].span)
            for owner in owners:
                rays = ()
                if rule and owner:  # neutral pieces never move
                    self.rule_texts[owner].add(_canonical_rule(node.args[2]))
                    try:
                        rays = self.board.ray_indices(rule.directions, owner)
                    except KeyError as missing:
                        raise BadArgumentKind(f"the board has no {missing.args[0]} direction "
                                              f"for P{owner}", node.args[2].span) from None
                name = f"{base}{owner}" if owner_sym in ("Each", "Neutral") else base
                if name in declared:  # a name names one piece: one owner, one rule
                    raise BadArgumentKind(f"piece '{name}' is already declared", node.span)
                declared.add(name)
                pieces.append(PieceSpec(name, base, owner, rule, owner_sym == "Each", rays))
        return pieces

    def _compile_rule(self, node: RawNode, *, piece_rule: bool = False) -> PlayRule:
        """Decode a play rule, or with ``piece_rule`` a piece's (move ...) rule."""
        if piece_rule and not (isinstance(node, Call) and node.head.name == "move"):
            raise BadArgumentKind("a piece rule must be a (move ...) ludeme", node.span)
        if not (isinstance(node, Call) and node.head.name in ("move", "forEach", "if")):
            raise BadArgumentKind("a play rule must be a (move ...), (forEach ...) or (if ...) "
                                  "ludeme", node.span)
        lid = self.ids[id(node)]
        head = node.head.name
        if head == "forEach":
            rule: PlayRule = ForEachPiece(lid, node.span)
        elif head == "if":
            cond = self._compile_condition(node.args[0], play=True)
            then = self._compile_rule(node.args[1])
            otherwise = self._compile_rule(node.args[2]) if len(node.args) > 2 else None
            rule = IfRule(lid, cond, then, otherwise, node.span)
        else:
            rule = self._compile_move(node, lid, piece_rule)
        self.rules[lid] = rule
        return rule

    def _compile_move(self, node: Call, lid: int, piece_rule: bool) -> MoveRule:
        kind = node.args[0].name
        if kind in ("Step", "Slide") and not piece_rule:
            raise BadArgumentKind(f"(move {kind} ...) moves a piece, so it belongs in a "
                                  "piece rule reached through (forEach Piece)", node.span)
        # The registry lets each argument the kind reads through, at most once.
        args = {arg.head.name: arg for arg in node.args[1:]}
        directions: tuple[str, ...] = ()
        if kind in ("Step", "Slide"):
            dirs = args.get("directions")
            directions = tuple(s.name for s in _as_items(dirs.args[0])) if dirs else ("Adjacent",)
        to = None
        if kind == "Add":
            to = self._compile_site_set(args["to"].args[0], target=True)
            # An Add places the mover's first piece.  A piece rule's mover owns the
            # piece whose rule it is; a play rule's may be any player.
            for player in range(1, self.player_count + 1):
                if not (piece_rule or any(p.owner == player for p in self.pieces)):
                    raise BadArgumentKind(f"(move Add ...) places the mover's piece, but "
                                          f"P{player} owns no piece", node.span)
        projectile = None
        if "piece" in args:
            name, *rest = args["piece"].args
            if rest:  # a reference names the piece; its owner and rule are declared
                raise BadArgumentKind(f"(move Shoot ...) names the piece it places, so its "
                                      f"(piece ...) cannot use {describe(rest[0])}", rest[0].span)
            projectile = name.value
        return MoveRule(lid, kind, directions, to, projectile, "then" in args, node.span)

    def _compile_condition(self, cond: Call, *, play: bool = False) -> Condition:
        """Decode a condition ludeme; ``play`` when it decides a play rule."""
        # The registry guarantees the head, (no Moves Next), and the arguments of
        # (is ...): Line's length, Even's (count Moves), or the role Mover.
        head = cond.head.name
        if head in ("or", "and"):
            parts = tuple(self._compile_condition(sub, play=play) for sub in cond.args)
            if len(parts) == 1:
                return parts[0]
            return AnyOf(parts) if head == "or" else AllOf(parts)
        if head == "no":
            if play:
                raise BadArgumentKind("(no Moves ...) cannot decide a play rule: it asks for "
                                      "the moves that the rule decides", cond.span)
            return NoMovesNext()
        mode = cond.args[0].name
        if mode == "Line":
            length = cond.args[1]
            fault = line_length_fault(self.board, length.value)
            if fault:
                raise BadArgumentKind(f"(is Line ...) {fault}", length.span)
            ray = self.board.vectors.index
            compiled: Condition = IsLine(length.value, tuple(
                (ray((dr, dc)), ray((-dr, -dc))) for dr, dc in self.board.line_axes))
        elif mode == "Even":
            compiled = IsEven()
        else:  # Connected | In test the mover, whose role may be left out
            compiled = IsConnected() if mode == "Connected" else IsIn(self.region_sites)
        if isinstance(compiled, IsConnected) and \
                not any(len(anchors) >= 2 for anchors in self.anchors.of_player):
            raise BadArgumentKind("(is Connected ...) can never hold: no player has two region "
                                  "site sets to connect", cond.span)
        if isinstance(compiled, IsIn) and not any(compiled.sites):
            raise BadArgumentKind("(is In ...) can never hold: no player has a region", cond.span)
        return compiled

    def _compile_region(self, node: Call) -> RegionSpec:
        owner = _player_index(node.args[0].name)
        if owner > self.player_count:
            raise BadArgumentKind(f"region owner {node.args[0].name} exceeds player count",
                                  node.args[0].span)
        sets = []
        for sites_node in _as_items(node.args[1]):
            sets.append(self._compile_site_set(sites_node))
        return RegionSpec(owner, tuple(sets))

    def _compile_site_set(self, node: Call, *, target: bool = False) -> SiteSet:
        kind = tuple(a.name for a in node.args)
        if target and kind == ("Empty",):
            return SiteSet(kind, ())
        if len(kind) == 2 and kind[0] == "Side":
            side = kind[1]
            if side not in self.board.sides:
                raise BadArgumentKind(f"board has no '{side}' side", node.span)
            return SiteSet(kind, tuple(self.board.sides[side]))
        what = "move target" if target else "static site set"
        raise BadArgumentKind(f"(sites {' '.join(kind)}) is not a {what}", node.span)

    def _compile_place(self, node: Call, placed: set[int]) -> StartPlacement:
        piece_name = node.args[0].value
        if not any(p.name == piece_name for p in self.pieces):
            raise BadArgumentKind(f"placement of undeclared piece '{piece_name}'",
                                  node.args[0].span)
        sites = []
        for t in _as_items(node.args[1]):
            site = self.board.site_by_label(t.value)
            if site is None:
                raise BadArgumentKind(f"no site labelled '{t.value}' on the board", t.span)
            if site in placed:
                raise CompileError(f"start placement conflict at {t.value}", t.span)
            placed.add(site)
            sites.append(site)
        return StartPlacement(piece_name, tuple(sites))

    def _compile_end_rule(self, rule: Call) -> EndRule:
        # Registry guarantees the shape (if <condition> <any> [<any>]).
        cond, result = rule.args[0], rule.args[1]
        if not (isinstance(result, Call) and result.head.name == "result"):
            raise BadArgumentKind("end rule branch must be a (result ...) ludeme", result.span)
        if len(rule.args) > 2:
            raise BadArgumentKind("an end rule has no else branch: the game goes on while "
                                  "its condition does not hold", rule.args[2].span)
        who = result.args[0]
        if who.name.startswith("P") and _player_index(who.name) > self.player_count:
            raise BadArgumentKind(f"result player {who.name} exceeds player count", who.span)
        return EndRule(
            end_id=self.ids[id(rule)],
            cond=self._compile_condition(cond),
            who=who.name,
            outcome=result.args[1].name,
        )


def compile_game(tree: RawNode) -> GameSpec:
    """Validate and compile a parsed ``(game ...)`` tree."""
    return _Compiler().compile(tree)
