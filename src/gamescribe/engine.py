"""Interpreter for compiled game specs.

Generates legal moves from the compiled play rules, applies them, evaluates
the compiled end rules and conditions, and runs seeded random playouts.  A
``Move`` is a ``NamedTuple``: it compares and hashes as the plain tuple of
its six fields.  Every move names its piece and both its sites: an Add's
from and to are the site it places on, and a Shoot's from is where the last
move landed, so a Shoot is legal only after a first move.  A condition is
evaluated by the function that ``_CONDITIONS`` holds for its type, one entry
per condition class of the compiler, each taking ``(spec, state, cond,
mover)``.

Each state resolves its play rule once, in one of two forms, and ``_pick``
alone reads either: the ``k``-th move in the order sites ascending, then
each piece's ray order.  ``legal_moves`` is ``_pick`` at every index, so
the full list and a playout's draw agree by construction.  Site groups
serve an Add rule, whose targets come from the empty-site list, and a
(forEach Piece) that visits the mover's owned sites and reads Step, Slide
and Shoot targets from the board's rays.  Step bits serve a (forEach
Piece) of a player whose pieces with a rule all Step (``spec.step_pieces``,
fixed at compile time): one mask and one shift (``board.shifts``) of a
piece name's occupancy integer per ray index give every site of the piece
with a move that way.  ``(is Line n)`` reads its runs from the rays.
``(is Connected ...)`` asks an incremental union-find first and searches
for the winning path only once that reports a connection.  Its finds use
path halving: ``_find``, written inline in ``_join`` and the add-to-empty
loop, which run once per placement.

``_advance`` is the one transition: it plays a move on a state in place and
keeps the empty sites, owned sites, occupancy bits and union-find it finds
built in step with ``contents``; the site content it places is the spec's shared
``content_of`` tuple for the piece.  Playouts and ``replay`` advance one state;
``apply_move`` advances a copy.  All randomness comes from a fixed
xorshift64* generator so traces replay identically on any platform.

A playout ply draws ``randrange(count)`` over the resolved state's move
count, builds only the move at that index, with the action types its rule
carries (``MoveRule.action_types``), and advances the state.  ``_advance``
ends in ``check_end``, called through the module global, whose no-moves
fallback resolves the next state, so the next ply reads its count from the
cache.

A play rule that is one Add to the empty sites, as in Hex and Tic-Tac-Toe,
fixes everything but the site, so ``random_playout`` plays it in a loop of
its own, after the add-to-empty playouts of Soemers, Piette, Stephenson and
Browne (ACG 2021): a ply draws an index into the empty-site list, places
the mover's first piece on that site and deletes the index.  It builds no
move: it plays the one from the spec's table of the rule's Add moves,
indexed [mover][site] and built by the spec's first such playout
(``spec.add_moves``), so the traces of a game share those moves.  It ends
a ply as ``_advance`` does: it clears the resolved play rule, which
``_resolve`` alone fills, and calls ``check_end`` through the module global,
whose no-moves fallback resolves the next state.  When every end
rule is ``(is Connected ...)``, it makes that call only after a ply that
leaves the mover's anchors under one union-find root, or the board full:
no end rule can hold after any other ply.  Playouts of every other play
rule go through ``_pick`` and ``_advance``; for every rule, ``legal_moves``
calls ``_pick`` and ``apply_move`` calls ``_advance``.  ``replay`` plays a
trace through the loop its playouts took: an add-to-empty trace through
the add-to-empty loop, each draw the index of the trace's next site among
the empty sites, and any other through ``_advance``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import NamedTuple

# The error classes are the compiler's, so that the CLI catches them without this module.
from .compiler import (AllOf, AnyOf, Condition, EngineError, ForEachPiece, GameSpec, IfRule,
                       IllegalMove, IsConnected, IsEven, IsIn, IsLine, MoveRule, NoMovesNext,
                       PlayoutLimitExceeded)
from .record import Record


PLAYOUT_MOVE_CAP = 10_000

_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


class XorShift64Star:
    """Deterministic 64-bit PRNG (xorshift64*, state seeded via splitmix64)."""

    def __init__(self, seed: int):
        state = _splitmix64(seed & _MASK)
        self._state = state if state else 0x9E3779B97F4A7C15

    def randrange(self, n: int) -> int:
        """The next output modulo ``n``, in one frame: a playout draws once per ply."""
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _MASK
        x ^= x >> 27
        self._state = x
        return ((x * 0x2545F4914F6CDD1D) & _MASK) % n


class Move(NamedTuple):  # equal to, and hashed as, the plain tuple of its fields
    mover: int
    piece: str  # the piece placed or moved: an Add's is the mover's first piece
    origin_id: int  # ludeme id of the (move ...) node that generated it
    # ("Add",), ("Move",) or a capture's ("Remove", "Move"), followed by
    # "SetMoverAgain" when the rule moves again.
    action_types: tuple[str, ...]
    # Where the move starts and lands: both are an Add's site, and a Shoot
    # starts where the last move landed.
    from_site: int
    to_site: int


class EndMatch(Record):
    __slots__ = _compared = ("end_id", "players", "outcome", "winning_sites")

    def __init__(self, end_id: int | None, players: tuple[int, ...], outcome: str,
                 winning_sites: tuple[int, ...] | None = None):
        self.end_id = end_id  # None for the implicit draw-by-no-moves fallback
        self.players = players
        self.outcome = outcome  # Win | Loss | Draw
        self.winning_sites = winning_sites


class GameState(Record):
    __slots__ = ("contents", "mover", "move_count", "terminal", "last_move",
                 "_groups", "_total", "_empty", "_owned", "_occupancy", "_uf")
    _compared = ("contents", "mover", "move_count", "terminal", "last_move")
    __hash__ = None

    def __init__(self, contents: list, mover: int, move_count: int,
                 terminal: EndMatch | None = None, last_move: Move | None = None):
        self.contents = contents  # per-site (piece name, owner) or None
        self.mover = mover
        self.move_count = move_count
        self.terminal = terminal
        self.last_move = last_move
        # Caches of what ``contents`` implies, built lazily; a new state has none.
        # _advance updates the empty sites (ascending), the owned sites (ascending,
        # indexed by owner), the occupancy of each piece name (bit s set when site
        # s holds it) and the union-find parents (see _union_find) in place, or
        # drops the union-find; it clears _groups, the resolved play rule, as the
        # add-to-empty loop does.  Only _resolve fills _groups and its move count
        # _total, which is read only while _groups is set.
        self._groups = self._empty = self._owned = self._occupancy = self._uf = None
        self._total = 0


class PlayoutTrace(Record):
    __slots__ = _compared = ("seed", "moves", "outcome")

    def __init__(self, seed: int, moves: tuple[Move, ...], outcome: EndMatch):
        self.seed = seed
        self.moves = moves
        self.outcome = outcome


def initial_state(spec: GameSpec) -> GameState:
    contents: list = [None] * spec.board.site_count
    for placement in spec.start_placements:
        placed = spec.content_of[placement.piece_name]
        for site in placement.sites:
            contents[site] = placed
    return GameState(contents=contents, mover=1, move_count=0)


def legal_moves(spec: GameSpec, state: GameState) -> list[Move]:
    """All legal moves for the state's mover: the playout's pick at each index."""
    return [_pick(spec, state, k) for k in range(_resolve(spec, state))]


def _empty_sites(state: GameState) -> list[int]:
    """The state's empty sites, ascending."""
    if state._empty is None:
        state._empty = [i for i, c in enumerate(state.contents) if c is None]
    return state._empty


def _owned_sites(spec: GameSpec, state: GameState) -> list[list[int]]:
    """Each owner's occupied sites, ascending, indexed by owner (0 is neutral)."""
    if state._owned is None:
        owned: list[list[int]] = [[] for _ in range(spec.player_count + 1)]
        for site, c in enumerate(state.contents):
            if c is not None:
                owned[c[1]].append(site)
        state._owned = owned
    return state._owned


def _occupancy_of(spec: GameSpec, state: GameState) -> dict[str, int]:
    """Each piece name's occupied sites, as the bits of one integer."""
    if state._occupancy is None:
        occupancy = dict.fromkeys(spec.content_of, 0)
        for site, c in enumerate(state.contents):
            if c is not None:
                occupancy[c[0]] |= 1 << site
        state._occupancy = occupancy
    return state._occupancy


def _ray_walk(contents: list, site_rays: list[range],
              rays: tuple[int, ...] | range) -> list[int]:
    """The empty sites along each of ``site_rays`` that ``rays`` indexes, up to the first piece."""
    targets = []
    for i in rays:
        for target in site_rays[i]:
            if contents[target] is not None:
                break
            targets.append(target)
    return targets


def _rule_targets(spec: GameSpec, state: GameState,
                  rule: MoveRule) -> list[int] | tuple[int, ...]:
    """Target sites of an Add or Shoot ``rule``, in legal-move order."""
    if rule.kind == "Add":
        if rule.to.kind != ("Empty",):
            return rule.to.sites
        empty = state._empty
        return empty if empty is not None else _empty_sites(state)
    last = state.last_move  # a Shoot starts where the last move landed, along every ray
    if last is None:
        return []
    board = spec.board
    return _ray_walk(state.contents, board.rays[last.to_site], range(len(board.vectors)))


def _resolve(spec: GameSpec, state: GameState) -> int:
    """Cache the state's resolved play rule on the state; return its move count.

    The play rule resolves through its ``if`` branches to a (move ...) rule,
    a (forEach Piece) or nothing.  The cache is one list of
    (rule, piece, site, target sites) groups in legal-move order, each with
    at least one target: a (forEach Piece) gives one group per mover's piece,
    in site order, but one per Add or Shoot rule, whose moves are the same from
    every site (see _move); a (move ...) rule gives at most one, with no piece or site.

    A (forEach Piece) of a mover whose pieces all Step caches instead a pair:
    the union of the origins below, and piece name -> (rule, [(origins,
    step), ...]) in the piece's ray order.  ``origins`` has the bit of each
    site of the piece whose move lands on ``site + step``, a site that is
    empty or holds an enemy piece that is not neutral.
    """
    if state._groups is None:
        mover = state.mover
        rule = spec.play
        while isinstance(rule, IfRule):
            rule = rule.then if eval_condition(spec, state, rule.cond, mover) else rule.otherwise
        groups, total = [], 0
        if isinstance(rule, ForEachPiece):
            if spec.step_pieces[mover] is not None:
                groups, total = _step_origins(spec, state)
            else:
                contents, board_rays, pieces = state.contents, spec.board.rays, spec.pieces_by_name
                friends, placed = (mover, 0), set()  # placed: Add and Shoot rules seen
                for site in _owned_sites(spec, state)[mover]:
                    name = contents[site][0]
                    piece = pieces[name]
                    piece_rule = piece.rule
                    if piece_rule is None or piece_rule.id in placed:
                        continue
                    kind = piece_rule.kind
                    if kind == "Step":  # onto an empty site or an enemy piece that is not neutral
                        site_rays = board_rays[site]
                        sites = []
                        for i in piece.rays:
                            ray = site_rays[i]
                            if ray:
                                target = ray[0]
                                occupant = contents[target]
                                if occupant is None or occupant[1] not in friends:
                                    sites.append(target)
                    elif kind == "Slide":
                        sites = _ray_walk(contents, board_rays[site], piece.rays)
                    else:  # an Add or a Shoot
                        placed.add(piece_rule.id)
                        sites = _rule_targets(spec, state, piece_rule)
                    if sites:
                        groups.append((piece_rule, name, site, sites))
                        total += len(sites)
        elif rule is not None:
            sites = _rule_targets(spec, state, rule)
            if sites:
                groups, total = [(rule, None, None, sites)], len(sites)
        state._groups, state._total = groups, total
    return state._total


def _step_origins(spec: GameSpec, state: GameState) -> tuple[tuple, int]:
    """The Step-only form of a resolved (forEach Piece) (see _resolve), and its move count."""
    occupancy = state._occupancy
    if occupancy is None:
        occupancy = _occupancy_of(spec, state)
    mover, friends, union, total = state.mover, 0, 0, 0
    for name in spec.friend_names[mover]:
        friends |= occupancy[name]
    shifts, by_name = spec.board.shifts, {}
    for name, rule, rays in spec.step_pieces[mover]:
        own = occupancy[name]
        if not own:
            continue
        moves = []
        for i in rays:
            step, mask = shifts[i]
            origins = own & mask & ~(friends >> step if step > 0 else friends << -step)
            if origins:
                moves.append((origins, step))
                union |= origins
                total += origins.bit_count()
        if moves:
            by_name[name] = (rule, moves)
    return (union, by_name), total


def _move(spec: GameSpec, state: GameState, rule: MoveRule, piece: str | None,
          site: int | None, target: int) -> Move:
    """``rule``'s move of ``piece`` from ``site`` onto ``target``.

    An Add places the mover's first piece and a Shoot starts where the last
    move landed, in piece rules too; a Step onto a piece captures it.
    """
    kind = rule.kind
    if kind == "Add":
        piece, site, kinds = spec.first_piece[state.mover], target, rule.action_types[0]
    elif kind == "Shoot":
        piece, site, kinds = rule.projectile, state.last_move.to_site, rule.action_types[0]
    else:
        kinds = rule.action_types[1 if state.contents[target] is None else 2]
    # The NamedTuple's own __new__ would add a Python frame per move.
    return tuple.__new__(Move, (state.mover, piece, rule.id, kinds, site, target))


def _pick(spec: GameSpec, state: GameState, k: int) -> Move:
    """The ``k``-th legal move of a resolved state, built without the others."""
    groups = state._groups
    if isinstance(groups, tuple):
        contents = state.contents
        origins, by_name = groups
        while True:
            low = origins & -origins
            site = low.bit_length() - 1
            name = contents[site][0]
            rule, moves = by_name[name]
            for bits, step in moves:
                if bits & low:
                    if not k:
                        return _move(spec, state, rule, name, site, site + step)
                    k -= 1
            origins ^= low
    for rule, piece, site, sites in groups:
        if k < len(sites):
            return _move(spec, state, rule, piece, site, sites[k])
        k -= len(sites)


def _advance(spec: GameSpec, state: GameState, move: Move) -> None:
    """Play ``move`` on ``state`` in place and evaluate the end rules.

    The empty and owned sites and the occupancy bits, where built, stay in
    step with ``contents``; so does the union-find after an Add onto an empty
    site.  Any other move drops the union-find, to be rebuilt from contents
    if it is asked for.
    """
    contents, empty, owned, occupancy = state.contents, state._empty, state._owned, state._occupancy
    kinds = move.action_types  # "Add" can only come first, "SetMoverAgain" only last
    site = move.to_site
    taken = contents[site]
    if kinds[0] == "Add":
        placed = spec.content_of[move.piece]
        if taken is None and state._uf is not None:
            _join(state._uf, contents, site, placed[1], spec.board.adjacent, spec.anchors.at_site)
        else:
            state._uf = None
    else:  # a Move; a capture's Remove is the overwrite of to_site
        origin = move.from_site
        placed = contents[origin]
        contents[origin] = None
        state._uf = None
        if empty is not None:
            insort(empty, origin)
        if owned is not None:
            owned[placed[1]].remove(origin)
    contents[site] = placed
    if occupancy is not None:
        bit = 1 << site
        if taken is not None:
            occupancy[taken[0]] ^= bit
        if kinds[0] == "Add":
            occupancy[placed[0]] |= bit
        else:
            occupancy[placed[0]] ^= bit | 1 << move.from_site
    if taken is None:
        if empty is not None:
            del empty[bisect_left(empty, site)]
    elif owned is not None:
        owned[taken[1]].remove(site)
    if owned is not None:
        insort(owned[placed[1]], site)
    mover = move.mover
    state.mover = mover if kinds[-1] == "SetMoverAgain" else mover % spec.player_count + 1
    state.move_count += 1
    state.last_move = move
    state._groups = None
    state.terminal = check_end(spec, state, move)


def apply_move(state: GameState, move: Move, spec: GameSpec, *,
               validate: bool = True) -> GameState:
    """Apply ``move`` to a copy of ``state`` and return the copy, with end rules evaluated."""
    if state.terminal is not None:
        raise IllegalMove("state is terminal")
    if validate and move not in legal_moves(spec, state):
        raise IllegalMove(f"move not legal in this state: {move}")
    new_state = GameState(list(state.contents), state.mover, state.move_count,
                          last_move=state.last_move)
    empty, owned, occupancy, uf = state._empty, state._owned, state._occupancy, state._uf
    new_state._empty = None if empty is None else empty.copy()
    new_state._owned = None if owned is None else [sites.copy() for sites in owned]
    new_state._occupancy = None if occupancy is None else occupancy.copy()
    new_state._uf = None if uf is None else uf.copy()
    _advance(spec, new_state, move)
    return new_state


def _eval_even(spec: GameSpec, state: GameState, cond: IsEven, mover: int):
    return state.move_count % 2 == 0, None


def _eval_no_moves(spec: GameSpec, state: GameState, cond: NoMovesNext, mover: int):
    return _resolve(spec, state) == 0, None


def _eval_in(spec: GameSpec, state: GameState, cond: IsIn, mover: int):
    last = state.last_move
    return last is not None and last.to_site in cond.sites[mover], None


def _eval_any(spec: GameSpec, state: GameState, cond: AnyOf, mover: int):
    for sub in cond.parts:
        ok, sites = _CONDITIONS[type(sub)](spec, state, sub, mover)
        if ok:
            return True, sites
    return False, None


def _eval_all(spec: GameSpec, state: GameState, cond: AllOf, mover: int):
    collected: list[int] = []
    for sub in cond.parts:
        ok, sites = _CONDITIONS[type(sub)](spec, state, sub, mover)
        if not ok:
            return False, None
        if sites:
            collected.extend(sites)
    return True, tuple(collected) if collected else None


def eval_condition(spec: GameSpec, state: GameState, cond: Condition, mover: int) -> bool:
    """Evaluate a compiled condition in ``state``."""
    return _CONDITIONS[type(cond)](spec, state, cond, mover)[0]


def _eval_line(spec: GameSpec, state: GameState, cond: IsLine,
               mover: int) -> tuple[bool, tuple[int, ...] | None]:
    last = state.last_move
    if last is None:
        return False, None
    site = last.to_site
    owner = state.contents[site][1]  # the piece the last move put there
    site_rays = spec.board.rays[site]
    for pair in cond.rays:
        run = [site]
        for i in pair:
            for cur in site_rays[i]:
                c = state.contents[cur]
                if c is None or c[1] != owner:
                    break
                run.append(cur)
        if len(run) >= cond.length:
            return True, tuple(sorted(run))
    return False, None


def _find(parent: list[int], x: int) -> int:
    """The root of ``x``, halving the path to it (_join and _add_to_empty_plies,
    which run once per placement, inline these steps)."""
    while parent[x] != x:
        # Targets are assigned left to right: x's parent becomes its grandparent, then x does.
        parent[x] = x = parent[parent[x]]
    return x


def _join(parent: list[int], contents: list, site: int, owner: int,
          adjacent: list, at_site: tuple) -> None:
    """Join ``owner``'s piece on ``site`` to the owner's adjacent pieces and anchors.

    ``adjacent`` and ``at_site`` are the board's and the anchor table's.  The
    root of ``site`` is found once, and the root of each adjacent piece of the
    owner, and of each anchor holding the site, is linked under it; each root
    is found as _find finds it, inline, since this runs once per placement (a
    piece just placed is its own root).
    """
    root = site
    while parent[root] != root:
        parent[root] = root = parent[parent[root]]
    for n in adjacent[site]:
        c = contents[n]
        if c is not None and c[1] == owner:
            while parent[n] != n:
                parent[n] = n = parent[parent[n]]
            parent[n] = root
    for n in at_site[owner][site]:
        while parent[n] != n:
            parent[n] = n = parent[parent[n]]
        parent[n] = root


def _union_find(spec: GameSpec, state: GameState) -> list[int]:
    """Union-find parents over the sites and the anchors of ``spec.anchors``."""
    if state._uf is None:
        parent = list(range(spec.anchors.size))
        contents, adjacent, at_site = state.contents, spec.board.adjacent, spec.anchors.at_site
        for site, c in enumerate(contents):
            if c is not None:
                _join(parent, contents, site, c[1], adjacent, at_site)
        state._uf = parent
    return state._uf


def _uf_connected(spec: GameSpec, state: GameState, player: int) -> bool:
    """Whether ``player``'s pieces join the anchors of all the player's region site sets.

    False means ``player`` is not connected.  With two site sets True means
    connected; with more, two groups can join the anchors between them
    without one group touching every set, so the search decides.
    """
    anchors = spec.anchors.of_player[player]
    if len(anchors) < 2:
        return False
    parent = state._uf
    if parent is None:
        parent = _union_find(spec, state)
    root = _find(parent, anchors[0])
    return all(_find(parent, x) == root for x in anchors[1:])


def _eval_connected(spec: GameSpec, state: GameState, cond: IsConnected,
                    mover: int) -> tuple[bool, tuple[int, ...] | None]:
    if not _uf_connected(spec, state, mover):
        return False, None
    contents, adjacent = state.contents, spec.board.adjacent
    first, *others = spec.anchors.site_sets[mover]
    # BFS over the mover's pieces from the first region set.
    parent: dict[int, int | None] = {}
    for s in first:
        c = contents[s]
        if c is not None and c[1] == mover:
            parent[s] = None
    frontier = list(parent)
    while frontier:
        nxt = []
        for site in frontier:
            for n in adjacent[site]:
                c = contents[n]
                if c is not None and c[1] == mover and n not in parent:
                    parent[n] = site
                    nxt.append(n)
        frontier = nxt
    # Winning sites: the union of a shortest path from the first region set
    # into each other set, each ending on that set's lowest reached site.
    winning: set[int] = set()
    for sites in others:
        cur = next((s for s in sites if s in parent), None)
        if cur is None:
            return False, None
        # A site already in ``winning`` brought its whole path to the first set.
        while cur is not None and cur not in winning:
            winning.add(cur)
            cur = parent[cur]
    return True, tuple(sorted(winning))


# Each condition type of compiler.Condition, and how to evaluate it: called
# with (spec, state, cond, mover), it returns whether the condition holds and
# its winning sites.
_CONDITIONS = {IsEven: _eval_even, IsLine: _eval_line, IsConnected: _eval_connected,
               IsIn: _eval_in, NoMovesNext: _eval_no_moves, AnyOf: _eval_any, AllOf: _eval_all}


def check_end(spec: GameSpec, state: GameState, move: Move) -> EndMatch | None:
    """First matching end rule after ``move``, else the draw fallback."""
    for rule in spec.end_rules:
        cond = rule.cond
        ok, sites = _CONDITIONS[type(cond)](spec, state, cond, move.mover)
        if not ok:
            continue
        if rule.who == "Mover":
            subject = move.mover
        elif rule.who == "Next":
            subject = move.mover % spec.player_count + 1
        else:
            subject = int(rule.who[1:])
        if rule.outcome == "Draw":
            players = tuple(range(1, spec.player_count + 1))
        else:
            players = (subject,)
        return EndMatch(rule.end_id, players, rule.outcome, sites)
    if not (state._total if state._groups is not None else _resolve(spec, state)):
        return EndMatch(None, tuple(range(1, spec.player_count + 1)), "Draw", None)
    return None


def random_playout(spec: GameSpec, seed: int, *,
                   move_cap: int = PLAYOUT_MOVE_CAP) -> PlayoutTrace:
    """Uniform random playout; identical seed yields an identical trace.

    Each ply draws ``randrange(count)`` over the mover's legal moves and
    plays the move at that index of ``legal_moves``, built from the state's
    target sites (see _resolve) without building the others.  One state is
    advanced in place from the first ply to the last; the count is the one
    cached when the state was resolved, before the first ply or by
    check_end's no-moves fallback after each.

    A play rule that is one Add to the empty sites, with or without
    (then (moveAgain)), plays in _add_to_empty_plies instead, to the same
    trace; the rule alone selects it, and it stops at ``move_cap`` moves.
    There, end rules that are all (is Connected ...) are checked only on
    the plies that can end the game.

    Raises PlayoutLimitExceeded exactly when the game is not over after
    ``move_cap`` moves; a game that ends on move ``move_cap`` returns.
    """
    draw = XorShift64Star(seed).randrange
    state = initial_state(spec)
    moves: list[Move] = []
    rule = spec.play
    if not _resolve(spec, state):  # degenerate spec with no opening move
        state.terminal = EndMatch(None, tuple(range(1, spec.player_count + 1)), "Draw", None)
    elif _adds_to_empty(rule):
        _add_to_empty_plies(spec, state, rule, draw, moves, move_cap)
    while state.terminal is None:
        if len(moves) >= move_cap:
            raise PlayoutLimitExceeded(f"no terminal state after {move_cap} moves")
        # The state is resolved: by the line above, or by check_end's no-moves fallback.
        move = _pick(spec, state, draw(state._total))
        _advance(spec, state, move)
        moves.append(move)
    return PlayoutTrace(seed, tuple(moves), state.terminal)


def _adds_to_empty(rule) -> bool:
    """Whether the play rule ``rule`` is one Add to the empty sites, with or without
    (then (moveAgain)): the rule that _add_to_empty_plies plays."""
    return isinstance(rule, MoveRule) and rule.kind == "Add" and rule.to.kind == ("Empty",)


def _add_to_empty_plies(spec: GameSpec, state: GameState, rule: MoveRule, draw,
                        moves: list[Move], stop: int) -> None:
    """Play ``state``, already resolved, under ``rule``, an Add to the empty sites,
    until it ends or ``moves`` holds ``stop`` moves.

    The plies the generic loop would play, with what the rule fixes decided
    once: a ply draws an index into the empty sites, reads the mover's Add
    onto that site from the spec's table (see _add_moves), places the piece
    and deletes the site at that index.  The union-find stays in step where
    built, as _advance keeps it.  Each ply clears the resolved play rule, as
    _advance does, so check_end's no-moves fallback resolves the next state
    through _resolve, the one code that fills it.

    When every end rule is (is Connected ...), the union-find is built
    before the first ply, and check_end runs only once the mover's anchors
    share one root, or the board is full.  After any other ply each rule's
    _uf_connected is False and the next state has a move, so check_end
    would return None.  It stays the one evaluator of the plies it sees: the
    search, the three-set denial and the draw fallback are its.
    """
    contents, empty = state.contents, state._empty
    adjacent, at_site = spec.board.adjacent, spec.anchors.at_site
    table = spec.add_moves or _add_moves(spec, rule)
    content_of, players, again = spec.content_of, spec.player_count, rule.again
    # Connected ends hold only once the mover's anchors share a root.
    gated = all(type(end.cond) is IsConnected for end in spec.end_rules)
    parent = _union_find(spec, state) if gated else None
    anchors = spec.anchors.of_player
    while state.terminal is None and len(moves) < stop:
        k = draw(len(empty))
        site = empty[k]
        mover = state.mover
        move = table[mover][site]
        placed = content_of[move.piece]
        if state._uf is not None:
            _join(state._uf, contents, site, placed[1], adjacent, at_site)
        contents[site] = placed
        del empty[k]
        if not again:
            state.mover = mover % players + 1
        state.move_count += 1
        state.last_move = move
        state._groups = None
        if gated and empty:
            root = None
            for x in anchors[mover]:  # each anchor's root, found as _find finds it
                while parent[x] != x:
                    parent[x] = x = parent[parent[x]]
                if root is None:
                    root = x
                elif x != root:
                    break
            else:
                state.terminal = check_end(spec, state, move)
        else:
            state.terminal = check_end(spec, state, move)
        moves.append(move)


def _add_moves(spec: GameSpec, rule: MoveRule) -> tuple[tuple[Move, ...], ...]:
    """Build and keep on ``spec`` its table of ``rule``'s Add moves, indexed [mover][site].

    Each entry is the move _move builds for that mover and target site; the
    row of player 0, who never moves, is empty.  Every add-to-empty playout
    of the spec plays these objects, so its traces share them.
    """
    kinds, sites = rule.action_types[0], range(spec.board.site_count)
    spec.add_moves = ((),) + tuple(
        tuple(Move(mover, spec.first_piece[mover], rule.id, kinds, site, site) for site in sites)
        for mover in range(1, spec.player_count + 1))
    return spec.add_moves


def replay(spec: GameSpec, trace: PlayoutTrace, upto: int | None = None) -> GameState:
    """State reached by applying the first ``upto`` trace moves (all if None).

    An add-to-empty game replays through _add_to_empty_plies, its playouts'
    loop, stopped after ``upto`` moves: each draw is the index of the trace's
    next site among the empty sites.  A move that the loop does not play
    (onto a taken site, by the wrong mover, after the end) raises
    IllegalMove.  Every other game replays through _advance, which raises
    IllegalMove for a move after the end.
    """
    moves = trace.moves if upto is None else trace.moves[:upto]
    state = initial_state(spec)
    rule = spec.play
    if _adds_to_empty(rule) and _resolve(spec, state):
        empty, sites, played = state._empty, iter([move.to_site for move in moves]), []
        # An index past the last empty site draws the last: its move is not the trace's.
        _add_to_empty_plies(spec, state, rule,
                            lambda count: min(bisect_left(empty, next(sites)), count - 1),
                            played, len(moves))
        if played != list(moves):  # a move differs, or the game ended first
            ply = next((i for i, (got, want) in enumerate(zip(played, moves)) if got != want),
                       len(played))
            raise IllegalMove("state is terminal" if ply == len(played)
                              else f"move not legal in this state: {moves[ply]}")
        return state
    for move in moves:
        if state.terminal is not None:
            raise IllegalMove("state is terminal")
        _advance(spec, state, move)
    return state


def move_actions(move: Move, piece, src, dst) -> list[list]:
    """Each of ``move``'s action types followed by its exported arguments.

    The arguments are read off ``piece`` and the from/to site labels ``src``
    and ``dst``, in whatever form the caller exports them.
    """
    args = {"Add": (piece, dst), "Remove": (dst,), "Move": (src, dst), "SetMoverAgain": ()}
    return [[kind, *args[kind]] for kind in move.action_types]


def _move_to_dict(move: Move, spec: GameSpec) -> dict:
    labels = spec.board.labels
    src, dst = labels[move.from_site], labels[move.to_site]
    return {
        "mover": move.mover,
        "piece": move.piece,
        "origin_ludeme": move.origin_id,
        "from": src,
        "to": dst,
        "actions": move_actions(move, move.piece, src, dst),
    }


def trace_to_dict(trace: PlayoutTrace, spec: GameSpec) -> dict:
    """JSON-friendly form of one playout (debug export).

    ``pipeline._write_traces`` writes the same text as ``json.dumps`` of these
    dicts with ``indent=2``, without building them; the tests hold it to that.
    """
    outcome = trace.outcome
    return {
        "seed": trace.seed,
        "moves": [_move_to_dict(m, spec) for m in trace.moves],
        "outcome": {
            "players": list(outcome.players),
            "result": outcome.outcome,
            "end_ludeme": outcome.end_id,
            "winning_sites": [spec.board.labels[s] for s in outcome.winning_sites]
            if outcome.winning_sites else None,
        },
    }
