"""Reference random playouts that build every legal move and search connectivity by BFS.

A copy of the engine's original playout path: each ply builds the mover's
full legal-move list and draws one entry of it, and ``(is Connected ...)``
runs a breadth-first search over the mover's pieces every time it is
evaluated.  The engine's count-and-pick playouts must produce the same
traces; the tests compare the two through ``engine.trace_to_dict``.

Conditions are read from the raw tree, by the preorder ids of
``oracles.preorder``, and board geometry comes from row/column arithmetic,
not from the board's rays or adjacency.  A piece moves along each vector
its directions name once, in the order first named.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from gamescribe.compiler import ForEachPiece, GameSpec, MoveRule
from gamescribe.engine import (PLAYOUT_MOVE_CAP, EndMatch, Move, PlayoutLimitExceeded,
                               PlayoutTrace, XorShift64Star, initial_state)
from oracles import preorder


@dataclass
class State:
    contents: list
    mover: int
    move_count: int
    nodes: list  # every node of spec.root in preorder: a ludeme id indexes it
    last_move: Move | None = None
    terminal: EndMatch | None = None
    legal: list | None = None


@lru_cache(maxsize=None)
def _rays(rows: int, cols: int, vectors: tuple) -> tuple:
    """Per site (row-major), the sites along each of ``vectors`` to the edge, nearest first."""
    rays = []
    for site in range(rows * cols):
        row, col = divmod(site, cols)
        site_rays = []
        for dr, dc in vectors:
            r, c, ray = row + dr, col + dc, []
            while 0 <= r < rows and 0 <= c < cols:
                ray.append(r * cols + c)
                r, c = r + dr, c + dc
            site_rays.append(tuple(ray))
        rays.append(tuple(site_rays))
    return tuple(rays)


def _ray(board, site: int, vec: tuple[int, int]) -> tuple[int, ...]:
    return _rays(board.rows, board.cols, board.vectors)[site][board.vectors.index(vec)]


def _vectors(board, names: tuple[str, ...], mover: int) -> list[tuple[int, int]]:
    """The vectors the named directions give ``mover``, each once, in the order first named."""
    return list(dict.fromkeys(vec for name in names
                              for vec in board.direction_vectors(name, mover)))


def _neighbours(board, site: int) -> list[int]:
    return [ray[0] for ray in _rays(board.rows, board.cols, board.vectors)[site] if ray]


def _next_player(spec: GameSpec, player: int) -> int:
    return player % spec.player_count + 1


def _mover_piece(spec: GameSpec, mover: int) -> str | None:
    return next((p.name for p in spec.pieces if p.owner == mover), None)


def legal_moves(spec: GameSpec, state: State) -> list[Move]:
    if state.legal is None:
        state.legal = _generate(spec, state, spec.play)
    return state.legal


def _generate(spec: GameSpec, state: State, rule) -> list[Move]:
    if isinstance(rule, MoveRule):
        return _generate_move(spec, state, rule, None)
    if isinstance(rule, ForEachPiece):
        moves: list[Move] = []
        placed = set()  # Add and Shoot rules already generated
        for site, content in enumerate(state.contents):
            if content is None or content[1] != state.mover:
                continue
            piece = spec.pieces_by_name.get(content[0])
            if piece is None or piece.rule is None:
                continue
            # An Add or a Shoot makes the same moves from every site, so each
            # such rule is generated once, at its first site.
            if piece.rule.kind in ("Add", "Shoot"):
                if piece.rule.id in placed:
                    continue
                placed.add(piece.rule.id)
            moves.extend(_generate_move(spec, state, piece.rule, (content[0], site)))
        return moves
    cond = state.nodes[rule.id].args[0]
    branch = rule.then if _eval(spec, state, cond, state.mover)[0] else rule.otherwise
    return _generate(spec, state, branch) if branch is not None else []


def _generate_move(spec: GameSpec, state: State, rule: MoveRule, ctx) -> list[Move]:
    origin = rule.id
    mover = state.mover
    board = spec.board
    tail = ("SetMoverAgain",) if rule.again else ()
    add, shift, capture = ("Add",) + tail, ("Move",) + tail, ("Remove", "Move") + tail

    moves: list[Move] = []
    if rule.kind == "Add":
        if rule.to is None:
            targets: list[int] | tuple[int, ...] = []
        elif rule.to.kind == ("Empty",):
            targets = [i for i, c in enumerate(state.contents) if c is None]
        else:
            targets = rule.to.sites
        piece = _mover_piece(spec, mover)
        for site in targets:
            moves.append(Move(mover, piece, origin, add, site, site))
    elif rule.kind == "Step":
        piece, site = ctx
        for vec in _vectors(board, rule.directions, mover):
            ray = _ray(board, site, vec)
            if not ray:
                continue
            target = ray[0]
            occupant = state.contents[target]
            if occupant is None:
                kinds = shift
            elif occupant[1] not in (mover, 0):
                kinds = capture
            else:
                continue
            moves.append(Move(mover, piece, origin, kinds, site, target))
    elif rule.kind == "Slide":
        piece, site = ctx
        for vec in _vectors(board, rule.directions, mover):
            for target in _ray(board, site, vec):
                if state.contents[target] is not None:
                    break
                moves.append(Move(mover, piece, origin, shift, site, target))
    else:  # Shoot
        last = state.last_move
        if last is None or last.to_site is None:
            return []
        for vec in board.vectors:
            for target in _ray(board, last.to_site, vec):
                if state.contents[target] is not None:
                    break
                moves.append(Move(mover, rule.projectile, origin, add,
                                  last.to_site, target))
    return moves


def apply_move(state: State, move: Move, spec: GameSpec) -> State:
    contents = list(state.contents)
    kinds = move.action_types
    if "Add" in kinds:
        piece = spec.pieces_by_name[move.piece]
        contents[move.to_site] = (piece.name, piece.owner)
    elif "Move" in kinds:
        contents[move.to_site] = contents[move.from_site]
        contents[move.from_site] = None
    mover = move.mover if "SetMoverAgain" in kinds else _next_player(spec, move.mover)
    new_state = State(contents, mover, state.move_count + 1, state.nodes, last_move=move)
    new_state.terminal = check_end(spec, new_state, move)
    return new_state


def _eval(spec: GameSpec, state: State, cond, mover: int):
    head = cond.head.name
    if head == "is":
        mode = cond.args[0].name
        if mode == "Even":
            return state.move_count % 2 == 0, None
        if mode == "Line":
            return _eval_line(spec, state, cond.args[1].value)
        if mode == "Connected":
            return eval_connected(spec, state.contents, mover)
        if mode == "In":
            last = state.last_move
            if last is None or last.to_site is None:
                return False, None
            targets = {s for r in spec.regions if r.owner == mover for ss in r.site_sets
                       for s in ss.sites}
            return last.to_site in targets, None
        raise ValueError(f"unsupported condition (is {mode} ...)")
    if head == "no":
        return len(legal_moves(spec, state)) == 0, None
    if head == "or":
        for sub in cond.args:
            ok, sites = _eval(spec, state, sub, mover)
            if ok:
                return True, sites
        return False, None
    if head == "and":
        collected: list[int] = []
        for sub in cond.args:
            ok, sites = _eval(spec, state, sub, mover)
            if not ok:
                return False, None
            if sites:
                collected.extend(sites)
        return True, tuple(collected) if collected else None
    raise ValueError(f"unsupported condition '{head}'")


def _eval_line(spec: GameSpec, state: State, length: int):
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
            for cur in _ray(board, site, (axis[0] * sign, axis[1] * sign)):
                if state.contents[cur] is None or state.contents[cur][1] != owner:
                    break
                run.append(cur)
        if len(run) >= length:
            return True, tuple(sorted(run))
    return False, None


def eval_connected(spec: GameSpec, contents: list, mover: int):
    """BFS answer to ``(is Connected ...)`` for ``mover``: (connected, winning sites)."""
    site_sets = [set(ss.sites) for r in spec.regions if r.owner == mover for ss in r.site_sets]
    if len(site_sets) < 2:
        return False, None
    occupied = {i for i, c in enumerate(contents) if c is not None and c[1] == mover}
    seeds = sorted(site_sets[0] & occupied)
    if not seeds:
        return False, None
    parent: dict[int, int | None] = {s: None for s in seeds}
    frontier = list(seeds)
    while frontier:
        nxt = []
        for site in frontier:
            for n in _neighbours(spec.board, site):
                if n in occupied and n not in parent:
                    parent[n] = site
                    nxt.append(n)
        frontier = nxt
    reached = set(parent)
    if not all(reached & s for s in site_sets[1:]):
        return False, None
    # The union of the paths from the first set to each other set's lowest reached site.
    path: set[int] = set()
    for site_set in site_sets[1:]:
        cur: int | None = min(reached & site_set)
        while cur is not None:
            path.add(cur)
            cur = parent[cur]
    return True, tuple(sorted(path))


def check_end(spec: GameSpec, state: State, move: Move) -> EndMatch | None:
    for rule in spec.end_rules:
        ok, sites = _eval(spec, state, state.nodes[rule.end_id].args[0], move.mover)
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
    if not legal_moves(spec, state):
        return EndMatch(None, tuple(range(1, spec.player_count + 1)), "Draw", None)
    return None


def random_playout(spec: GameSpec, seed: int, *,
                   move_cap: int = PLAYOUT_MOVE_CAP) -> PlayoutTrace:
    rng = XorShift64Star(seed)
    state = State(initial_state(spec).contents, 1, 0, preorder(spec.root))
    moves: list[Move] = []
    while state.terminal is None:
        legal = legal_moves(spec, state)
        if not legal:
            state.terminal = EndMatch(None, tuple(range(1, spec.player_count + 1)),
                                      "Draw", None)
            break
        if len(moves) >= move_cap:
            raise PlayoutLimitExceeded(f"no terminal state after {move_cap} moves")
        move = legal[rng.randrange(len(legal))]
        state = apply_move(state, move, spec)
        moves.append(move)
    return PlayoutTrace(seed, tuple(moves), state.terminal)
