"""Interpreter for compiled game specs.

Generates legal moves from the compiled play rules, applies them, evaluates
the compiled end rules and conditions by their type, and runs seeded random
playouts.  Each state resolves its play rule once into target sites: an Add
rule's come from an empty-site list that ``apply_move`` keeps up to date,
and each piece's Step, Slide or Shoot targets from the board's rays, read
by the ray indices the compiler gave the piece.  A playout counts the
targets, draws one index with ``randrange(count)`` and builds only the move
at that index of the legal list; ``legal_moves`` builds them all from the
same targets, in the same order.  Every play rule resolves to one form:
(rule, piece, site, target sites) groups.  ``(is Connected ...)`` asks an
incremental union-find first and searches for the winning path only once
that reports a connection.  All randomness comes from a fixed xorshift64*
generator so traces replay identically on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .compiler import (AnyOf, Condition, ForEachPiece, GameSpec, IfRule, IsConnected, IsEven,
                       IsIn, IsLine, MoveRule, NoMovesNext)


class EngineError(Exception):
    pass


class IllegalMove(EngineError):
    pass


class PlayoutLimitExceeded(EngineError):
    pass


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

    def next_uint64(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _MASK
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK

    def randrange(self, n: int) -> int:
        return self.next_uint64() % n


@dataclass(frozen=True)
class Move:
    mover: int
    piece: str | None
    origin_id: int  # ludeme id of the (move ...) node that generated it
    # ("Add",), ("Move",) or a capture's ("Remove", "Move"), followed by
    # "SetMoverAgain" when the rule moves again.
    action_types: tuple[str, ...]
    from_site: int | None
    to_site: int | None


@dataclass(frozen=True)
class EndMatch:
    end_id: int | None  # None for the implicit draw-by-no-moves fallback
    players: tuple[int, ...]
    outcome: str  # Win | Loss | Draw
    winning_sites: tuple[int, ...] | None = None


@dataclass
class GameState:
    contents: list  # per-site (piece name, owner) or None
    mover: int
    move_count: int
    terminal: EndMatch | None = None
    last_move: Move | None = None
    # Caches of what ``contents`` implies, built lazily; apply_move carries the
    # empty sites (ascending) and the union-find parents (see _union_find) forward.
    # _groups and _total are the resolved play rule (see _resolve).
    _legal: "list[Move] | None" = field(default=None, repr=False, compare=False)
    _groups: "list[tuple] | None" = field(default=None, repr=False, compare=False)
    _total: int = field(default=0, repr=False, compare=False)
    _empty: "list[int] | None" = field(default=None, repr=False, compare=False)
    _uf: "list[int] | None" = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class PlayoutTrace:
    seed: int
    moves: tuple[Move, ...]
    outcome: EndMatch
    final_state: GameState = field(compare=False, repr=False, default=None)


def initial_state(spec: GameSpec) -> GameState:
    contents: list = [None] * spec.board.site_count
    for placement in spec.start_placements:
        piece = spec.piece_named(placement.piece_name)
        for site in placement.sites:
            contents[site] = (piece.name, piece.owner)
    return GameState(contents=contents, mover=1, move_count=0)


def _next_player(spec: GameSpec, player: int) -> int:
    return player % spec.player_count + 1


def _mover_piece(spec: GameSpec, mover: int) -> str | None:
    owned = spec.pieces_of(mover)
    return owned[0].name if owned else None


def legal_moves(spec: GameSpec, state: GameState) -> list[Move]:
    """All legal moves for the state's mover, in deterministic order."""
    if state._legal is None:
        _resolve(spec, state)
        state._legal = [_move(spec, state, rule, piece, site, target)
                        for rule, piece, site, sites in state._groups for target in sites]
    return state._legal


def _empty_sites(state: GameState) -> list[int]:
    """The state's empty sites, ascending."""
    if state._empty is None:
        state._empty = [i for i, c in enumerate(state.contents) if c is None]
    return state._empty


def _rule_targets(spec: GameSpec, state: GameState, rule: MoveRule, site: int | None,
                  rays: tuple[int, ...] = ()) -> list[int] | tuple[int, ...]:
    """Target sites of ``rule`` moving the piece on ``site``, in legal-move order.

    ``rays`` indexes the site's board rays a Step or Slide moves along.
    """
    if rule.kind == "Add":
        return _empty_sites(state) if rule.to.kind == ("Empty",) else rule.to.sites
    contents, mover = state.contents, state.mover
    targets = []
    if rule.kind == "Shoot":  # from where the last move landed, along every ray
        last = state.last_move
        if last is None or last.to_site is None:
            return targets
        site, rays = last.to_site, range(len(spec.board.vectors))
    site_rays = spec.board.rays[site]
    if rule.kind == "Step":  # onto an empty site or an enemy piece that is not neutral
        for i in rays:
            ray = site_rays[i]
            if ray:
                occupant = contents[ray[0]]
                if occupant is None or occupant[1] not in (mover, 0):
                    targets.append(ray[0])
        return targets
    for i in rays:
        for target in site_rays[i]:
            if contents[target] is not None:
                break
            targets.append(target)
    return targets


def _resolve(spec: GameSpec, state: GameState) -> int:
    """Cache the state's resolved play rule on the state; return its move count.

    The play rule resolves through its ``if`` branches to a (move ...) rule,
    a (forEach Piece) or nothing.  The cache is one list of
    (rule, piece, site, target sites) groups in legal-move order, each with
    at least one target: a (forEach Piece) gives one group per mover's piece,
    in site order, and a (move ...) rule at most one, with no piece or site.
    """
    if state._groups is None:
        mover = state.mover
        rule = spec.play
        while isinstance(rule, IfRule):
            rule = rule.then if eval_condition(spec, state, rule.cond, mover) else rule.otherwise
        groups, total = [], 0
        if isinstance(rule, ForEachPiece):
            for site, content in enumerate(state.contents):
                if content is not None and content[1] == mover:
                    piece = spec.piece_named(content[0])
                    sites = (_rule_targets(spec, state, piece.rule, site, piece.rays)
                             if piece.rule else ())
                    if sites:
                        groups.append((piece.rule, content[0], site, sites))
                        total += len(sites)
        elif rule is not None:
            sites = _rule_targets(spec, state, rule, None)
            if sites:
                groups.append((rule, None, None, sites))
                total = len(sites)
        state._groups, state._total = groups, total
    return state._total


def _move(spec: GameSpec, state: GameState, rule: MoveRule, piece: str | None,
          site: int | None, target: int) -> Move:
    """``rule``'s move of ``piece`` from ``site`` onto ``target``.

    An Add places the mover's first piece and a Shoot starts where the last
    move landed, in piece rules too; a Step onto a piece captures it.
    """
    if rule.kind == "Add":
        piece, site, kinds = _mover_piece(spec, state.mover), target, ("Add",)
    elif rule.kind == "Shoot":
        piece, site, kinds = rule.projectile, state.last_move.to_site, ("Add",)
    elif state.contents[target] is None:
        kinds = ("Move",)
    else:
        kinds = ("Remove", "Move")
    if rule.again:
        kinds += ("SetMoverAgain",)
    return Move(state.mover, piece, rule.id, kinds, site, target)


def _pick(spec: GameSpec, state: GameState, k: int) -> Move:
    """The ``k``-th legal move of a resolved state, built without the others."""
    for rule, piece, site, sites in state._groups:
        if k < len(sites):
            return _move(spec, state, rule, piece, site, sites[k])
        k -= len(sites)


def apply_move(state: GameState, move: Move, spec: GameSpec, *,
               validate: bool = True) -> GameState:
    """Apply ``move`` and return the successor state with end rules evaluated."""
    if state.terminal is not None:
        raise IllegalMove("state is terminal")
    if validate and move not in legal_moves(spec, state):
        raise IllegalMove(f"move not legal in this state: {move}")
    contents = list(state.contents)
    kinds = move.action_types
    # A Move or an overwriting Add drops the union-find, and a Move the empty
    # sites; each is rebuilt from contents if it is asked for again.
    empty = uf = None
    if "Add" in kinds:
        piece = spec.piece_named(move.piece)
        site = move.to_site
        if contents[site] is not None:
            empty = state._empty
        else:
            if state._empty is not None:
                empty = state._empty.copy()
                empty.remove(site)
            if state._uf is not None:
                uf = state._uf.copy()
                _join(spec, uf, contents, site, piece.owner)
        contents[site] = (piece.name, piece.owner)
    elif "Move" in kinds:  # a capture's Remove is the overwrite of to_site
        contents[move.to_site] = contents[move.from_site]
        contents[move.from_site] = None
    mover = move.mover if "SetMoverAgain" in kinds else _next_player(spec, move.mover)
    new_state = GameState(contents=contents, mover=mover,
                          move_count=state.move_count + 1,
                          last_move=move, _empty=empty, _uf=uf)
    new_state.terminal = check_end(spec, new_state, move)
    return new_state


def _eval(spec: GameSpec, state: GameState, cond: Condition,
          mover: int) -> tuple[bool, tuple[int, ...] | None]:
    """Whether ``cond`` holds for ``mover`` in ``state``, and its winning sites."""
    if isinstance(cond, IsEven):
        return state.move_count % 2 == 0, None
    if isinstance(cond, IsLine):
        return _eval_line(spec, state, cond.length)
    if isinstance(cond, IsConnected):
        return _eval_connected(spec, state, mover)
    if isinstance(cond, IsIn):
        last = state.last_move
        return last is not None and last.to_site in cond.sites[mover], None
    if isinstance(cond, NoMovesNext):
        return _resolve(spec, state) == 0, None
    if isinstance(cond, AnyOf):
        for sub in cond.parts:
            ok, sites = _eval(spec, state, sub, mover)
            if ok:
                return True, sites
        return False, None
    collected: list[int] = []  # AllOf
    for sub in cond.parts:
        ok, sites = _eval(spec, state, sub, mover)
        if not ok:
            return False, None
        if sites:
            collected.extend(sites)
    return True, tuple(collected) if collected else None


def eval_condition(spec: GameSpec, state: GameState, cond: Condition, mover: int) -> bool:
    """Evaluate a compiled condition in ``state``."""
    return _eval(spec, state, cond, mover)[0]


def _eval_line(spec: GameSpec, state: GameState,
               length: int) -> tuple[bool, tuple[int, ...] | None]:
    last = state.last_move
    if last is None or last.to_site is None:
        return False, None
    site = last.to_site
    content = state.contents[site]
    if content is None:
        return False, None
    owner = content[1]
    board = spec.board
    for axis in board.line_axes:
        run = [site]
        for sign in (1, -1):
            for cur in board.ray(site, (axis[0] * sign, axis[1] * sign)):
                c = state.contents[cur]
                if c is None or c[1] != owner:
                    break
                run.append(cur)
        if len(run) >= length:
            return True, tuple(sorted(run))
    return False, None


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: list[int], a: int, b: int) -> None:
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        parent[ra] = rb


def _join(spec: GameSpec, parent: list[int], contents: list, site: int, owner: int) -> None:
    """Join ``owner``'s piece on ``site`` to the owner's adjacent pieces and anchors."""
    for n in spec.board.adjacent[site]:
        c = contents[n]
        if c is not None and c[1] == owner:
            _union(parent, site, n)
    for anchor in spec.anchors.at_site.get((owner, site), ()):
        _union(parent, site, anchor)


def _union_find(spec: GameSpec, state: GameState) -> list[int]:
    """Union-find parents over the sites and the anchors of ``spec.anchors``."""
    if state._uf is None:
        parent = list(range(spec.anchors.size))
        for site, c in enumerate(state.contents):
            if c is not None:
                _join(spec, parent, state.contents, site, c[1])
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
    parent = _union_find(spec, state)
    root = _find(parent, anchors[0])
    return all(_find(parent, a) == root for a in anchors[1:])


def _eval_connected(spec: GameSpec, state: GameState,
                    mover: int) -> tuple[bool, tuple[int, ...] | None]:
    if not _uf_connected(spec, state, mover):
        return False, None
    site_sets = [set(ss.sites) for r in spec.regions_of(mover) for ss in r.site_sets]
    occupied = {i for i, c in enumerate(state.contents)
                if c is not None and c[1] == mover}
    seeds = sorted(site_sets[0] & occupied)
    # BFS over the mover's pieces from the first region set.
    parent: dict[int, int | None] = {s: None for s in seeds}
    frontier = list(seeds)
    while frontier:
        nxt = []
        for site in frontier:
            for n in spec.board.adjacent[site]:
                if n in occupied and n not in parent:
                    parent[n] = site
                    nxt.append(n)
        frontier = nxt
    reached = set(parent)
    if not all(reached & s for s in site_sets[1:]):
        return False, None
    # Winning sites: a shortest connecting path into the second region set.
    goal = min(reached & site_sets[1])
    path = []
    cur: int | None = goal
    while cur is not None:
        path.append(cur)
        cur = parent[cur]
    return True, tuple(sorted(path))


def check_end(spec: GameSpec, state: GameState, move: Move) -> EndMatch | None:
    """First matching end rule after ``move``, else the draw fallback."""
    for rule in spec.end_rules:
        ok, sites = _eval(spec, state, rule.cond, move.mover)
        if not ok:
            continue
        if rule.who == "Mover":
            subject = move.mover
        elif rule.who == "Next":
            subject = _next_player(spec, move.mover)
        else:
            subject = int(rule.who[1:])
        if rule.outcome == "Draw":
            players = tuple(range(1, spec.player_count + 1))
        else:
            players = (subject,)
        return EndMatch(rule.end_id, players, rule.outcome, sites)
    if not _resolve(spec, state):
        return EndMatch(None, tuple(range(1, spec.player_count + 1)), "Draw", None)
    return None


def random_playout(spec: GameSpec, seed: int, *,
                   move_cap: int = PLAYOUT_MOVE_CAP) -> PlayoutTrace:
    """Uniform random playout; identical seed yields an identical trace.

    Each ply draws ``randrange(count)`` over the mover's legal moves and
    plays the move at that index of ``legal_moves``, built from the state's
    target sites (see _resolve) without building the others.

    Raises PlayoutLimitExceeded exactly when the game is not over after
    ``move_cap`` moves; a game that ends on move ``move_cap`` returns.
    """
    rng = XorShift64Star(seed)
    state = initial_state(spec)
    moves: list[Move] = []
    while state.terminal is None:
        count = _resolve(spec, state)
        if not count:  # degenerate spec with no opening move
            state.terminal = EndMatch(None, tuple(range(1, spec.player_count + 1)),
                                      "Draw", None)
            break
        if len(moves) >= move_cap:
            raise PlayoutLimitExceeded(f"no terminal state after {move_cap} moves")
        move = _pick(spec, state, rng.randrange(count))
        state = apply_move(state, move, spec, validate=False)
        moves.append(move)
    # Traces are kept; their final states need no caches.
    state._empty = state._uf = state._groups = None
    return PlayoutTrace(seed, tuple(moves), state.terminal, state)


def replay(spec: GameSpec, trace: PlayoutTrace, upto: int | None = None) -> GameState:
    """State reached by applying the first ``upto`` trace moves (all if None)."""
    state = initial_state(spec)
    moves = trace.moves if upto is None else trace.moves[:upto]
    for move in moves:
        state = apply_move(state, move, spec, validate=False)
    return state


def move_actions(move: Move, piece, src, dst) -> list[list]:
    """Each of ``move``'s action types followed by its exported arguments.

    The arguments are read off ``piece`` and the from/to site labels ``src``
    and ``dst``, in whatever form the caller exports them.
    """
    args = {"Add": (piece, dst), "Remove": (dst,), "Move": (src, dst), "SetMoverAgain": ()}
    return [[kind, *args[kind]] for kind in move.action_types]


def _move_to_dict(move: Move, spec: GameSpec) -> dict:
    sites = spec.board.sites
    src = sites[move.from_site].label if move.from_site is not None else None
    dst = sites[move.to_site].label if move.to_site is not None else None
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
            "winning_sites": [spec.board.sites[s].label for s in outcome.winning_sites]
            if outcome.winning_sites else None,
        },
    }
