"""Count-and-pick playouts against the full-list reference in reference_playout.py."""

import copy
import math
import pickle
from collections import Counter

import pytest

import oracles
import reference_playout
from conftest import load_spec
from gamescribe import engine
from gamescribe.cli import main
from gamescribe.compiler import MoveRule, compile_game
from gamescribe.engine import (EndMatch, IllegalMove, Move, apply_move, initial_state,
                               random_playout, replay, trace_to_dict)
from gamescribe.sexpr import parse

# An Add onto a fixed site set, which overwrites occupied sites.
CROWN = ('(game "Crown" (players 2) (equipment {(board (square 3)) (piece "Disc" Each) '
         '(regions P1 {(sites Side W) (sites Side E)}) '
         '(regions P2 {(sites Side W) (sites Side E)})}) '
         '(rules (play (move Add (to (sites Side N)))) '
         '(end (if (is Connected Mover) (result Mover Win)))))')

# P1 adds to empty sites, P2 steps and captures, so Adds follow Moves.
HYBRID = ('(game "Hybrid" (players 2) (equipment {(board (square 4)) '
          '(piece "Disc" Each (move Step (directions Adjacent))) '
          '(regions P1 {(sites Side S) (sites Side N)}) '
          '(regions P2 {(sites Side W) (sites Side E)})}) '
          '(rules (start {(place "Disc1" {"A1"}) (place "Disc2" {"D4"})}) '
          '(play (if (is Even (count Moves)) (move Add (to (sites Empty))) (forEach Piece))) '
          '(end (if (or (is Connected Mover) (no Moves Next)) (result Mover Win)))))')

# Pawns step forward and capture, but not onto the neutral dots; rooks slide
# orthogonally until they meet any piece.
BLOCKED = ('(game "Blocked" (players 2) (equipment {(board (square 5)) '
           '(piece "Pawn" Each (move Step (directions {Forward FL FR}))) '
           '(piece "Rook" Each (move Slide (directions Orthogonal))) '
           '(piece "Dot" Neutral) '
           '(regions P1 (sites Side N)) (regions P2 (sites Side S))}) '
           '(rules (start {(place "Pawn1" {"A1" "B1" "D1" "E1"}) (place "Rook1" {"C1"}) '
           '(place "Pawn2" {"A5" "B5" "D5" "E5"}) (place "Rook2" {"C5"}) '
           '(place "Dot0" {"B3" "C3" "D3"})}) '
           '(play (forEach Piece)) '
           '(end (if (is In Mover) (result Mover Win)))))')

# Two end rules: a line that also connects the mover's sides wins, with the
# winning sites of both conditions; a connection without the line, checked
# only when the first rule fails, makes the next player win.
KNOT = ('(game "Knot" (players 2) (equipment {(board (square 4)) (piece "Disc" Each) '
        '(regions P1 {(sites Side S) (sites Side N)}) '
        '(regions P2 {(sites Side W) (sites Side E)})}) '
        '(rules (play (move Add (to (sites Empty)))) '
        '(end {(if (and (is Line 3) (is Connected Mover)) (result Mover Win)) '
        '(if (is Connected Mover) (result Next Win))})))')

# Piece rules that place pieces: a Rook's Add places the mover's first
# declared piece, a Pawn, not a Rook; a Pawn's Shoot starts where the last
# move landed, not on the Pawn's own site.
DROP = ('(game "Drop" (players 2) (equipment {(board (square 4)) '
        '(piece "Pawn" Each (move Shoot (piece "Dot0"))) '
        '(piece "Rook" Each (move Add (to (sites Empty)))) (piece "Dot" Neutral)}) '
        '(rules (start {(place "Rook1" {"A1"}) (place "Rook2" {"D4"})}) '
        '(play (forEach Piece)) '
        '(end (if (is Line 3) (result Mover Win)))))')

# Three players on a board of 3 rows and 5 columns, so a ray's site step
# (dr * cols + dc) differs from its mixed-up (dr * rows + dc): kings step
# and capture in every direction, bishops slide diagonally.
TRIO = ('(game "Trio" (players 3) (equipment {(board (rectangle 5 3)) '
        '(piece "King" Each (move Step (directions Adjacent))) '
        '(piece "Bishop" Each (move Slide (directions Diagonal))) '
        '(regions P1 (sites Side E)) (regions P2 (sites Side W)) (regions P3 (sites Side N))}) '
        '(rules (start {(place "King1" {"A2"}) (place "Bishop1" {"B1"}) '
        '(place "King2" {"E2"}) (place "Bishop2" {"D3"}) '
        '(place "King3" {"C1"}) (place "Bishop3" {"E1"})}) '
        '(play (forEach Piece)) '
        '(end (if (is In Mover) (result Mover Win)))))')

# Steps on a hex board, so each piece moves along six directions, with two
# Step pieces per player.  A hex board names its six directions Orthogonal
# and Adjacent alike; hoppers move again after each step.  Neither piece can
# step onto the neutral stones.
COMB = ('(game "Comb" (players 2) (equipment {(board (hex Diamond 5)) '
        '(piece "Ant" Each (move Step (directions Orthogonal))) '
        '(piece "Hopper" Each (move Step (then (moveAgain)))) '
        '(piece "Stone" Neutral) '
        '(regions P1 (sites Side NE)) (regions P2 (sites Side SW))}) '
        '(rules (start {(place "Ant1" {"A1" "C1" "E1"}) (place "Hopper1" {"B1" "D1"}) '
        '(place "Ant2" {"A5" "C5" "E5"}) (place "Hopper2" {"B5" "D5"}) '
        '(place "Stone0" {"B3" "C3" "D3"})}) '
        '(play (forEach Piece)) '
        '(end (if (is In Mover) (result Mover Win)))))')

# Each Add moves again, so P1 places every piece and wins by connecting.
AGAIN = ('(game "Again" (players 2) (equipment {(board (square 4)) (piece "Disc" Each) '
         '(regions P1 {(sites Side S) (sites Side N)}) '
         '(regions P2 {(sites Side W) (sites Side E)})}) '
         '(rules (play (move Add (to (sites Empty)) (then (moveAgain)))) '
         '(end (if (is Connected Mover) (result Mover Win)))))')

# Three players fill the board.  The end rules read the move count and
# whether the next mover has a move, so the state each end check sees must
# be resolved as _resolve would resolve it.
FILL = ('(game "Fill" (players 3) (equipment {(board (square 3)) (piece "Disc" Each)}) '
        '(rules (play (move Add (to (sites Empty)))) '
        '(end {(if (and (is Even (count Moves)) (is Line 3)) (result Next Win)) '
        '(if (no Moves Next) (result Mover Loss))})))')

# End rules that name a player, P2 here, and that draw: a line loses for P2,
# whoever makes it, and a full board with no line is a draw for both.  The
# play rule reads (is Line 3) in every state, the first with no last move; a
# line ends the game, so the Add to the N side is never played.
VERDICT = ('(game "Verdict" (players 2) (equipment {(board (square 3)) (piece "Disc" Each)}) '
           '(rules (play (if (is Line 3) (move Add (to (sites Side N))) '
           '(move Add (to (sites Empty))))) '
           '(end {(if (is Line 3) (result P2 Loss)) '
           '(if (no Moves Next) (result Mover Draw))})))')

SMALL_GAMES = {"Crown": CROWN, "Hybrid": HYBRID, "Blocked": BLOCKED, "Knot": KNOT, "Drop": DROP,
               "Trio": TRIO, "Comb": COMB, "Again": AGAIN, "Fill": FILL, "Verdict": VERDICT}


def _hex(name: str, size: int, p1_sides: str = "NE SW", then: str = "") -> str:
    sides = " ".join(f"(sites Side {side})" for side in p1_sides.split())
    return (f'(game "{name}" (players 2) (equipment {{(board (hex Diamond {size})) '
            f'(piece "Marker" Each) (regions P1 {{{sides}}}) '
            '(regions P2 {(sites Side NW) (sites Side SE)})}) '
            f'(rules (play (move Add (to (sites Empty)){then})) '
            '(end (if (is Connected Mover) (result Mover Win)))))')


# Hex on small boards.  On a 1x1 board the one site lies on every side, so it
# holds every anchor.  Hex3 gives P1 three region site sets: two groups can
# join all three anchors without one group touching every set, so the
# union-find's answer is checked by the search, and a full board is a draw.
# HexAgain's P1 places every stone.
SMALL_HEX = {**{f"Hex{size}x{size}": _hex(f"Hex{size}x{size}", size) for size in range(1, 7)},
             "Hex3": _hex("Hex3", 5, "NE SW NW"),
             "HexAgain": _hex("HexAgain", 5, then=" (then (moveAgain))")}


def _echo(pieces: str, start: str) -> str:
    return ('(game "Echo" (players 2) (equipment {(board (square 4)) ' + pieces +
            ' (regions P1 (sites Side N)) (regions P2 (sites Side S))}) '
            '(rules (start {' + start + '}) (play (forEach Piece)) '
            '(end (if (is In Mover) (result Mover Win)))))')


# Direction lists that name one direction twice: each ray is still moved
# along once.  Pawns that only Step resolve over occupancy bits; a player
# with a Slide piece resolves site by site, its Steps too.
REPEATED = {
    "EchoStep": _echo('(piece "Pawn" Each (move Step (directions {Forward Forward Adjacent})))',
                      '(place "Pawn1" {"A1" "C1"}) (place "Pawn2" {"B4" "D4"})'),
    "EchoSlide": _echo('(piece "Rook" Each (move Slide (directions {Orthogonal Forward}))) '
                       '(piece "King" Each (move Step (directions {Orthogonal Adjacent})))',
                       '(place "Rook1" {"A1"}) (place "King1" {"C1"}) '
                       '(place "Rook2" {"D4"}) (place "King2" {"B4"})'),
}


def _spec(name):
    source = {**SMALL_GAMES, **SMALL_HEX, **REPEATED}.get(name)
    return load_spec(name) if source is None else compile_game(parse(source))


def _assert_names_its_piece_and_sites(spec, move):
    """``move`` names a declared piece and two sites of the board, as every move does."""
    sites = range(spec.board.site_count)
    assert move.piece in spec.pieces_by_name, move
    assert type(move.from_site) is int and move.from_site in sites, move
    assert type(move.to_site) is int and move.to_site in sites, move


@pytest.mark.parametrize("name", ["Amazons", "Breakthrough", "Hex", "TicTacToe", *SMALL_GAMES,
                                  *SMALL_HEX, *REPEATED])
def test_playouts_match_full_list_reference(name):
    spec = _spec(name)
    for seed in range(200):
        trace = random_playout(spec, seed)
        for move in trace.moves:
            _assert_names_its_piece_and_sites(spec, move)
        got = trace_to_dict(trace, spec)
        want = trace_to_dict(reference_playout.random_playout(spec, seed), spec)
        assert got == want, f"{name} seed {seed}"


def _walk(spec, seed, monkeypatch):
    """(state before, state after, caches carried in) for each move of a playout.

    The carried flags say whether the new state came out of apply_move with
    empty sites and a union-find, copied from the state before and updated
    by the move, before check_end could build them from contents.
    """
    trace = random_playout(spec, seed)
    carried = []
    check_end = engine.check_end

    def spy(spec, state, move):
        carried.append((state._empty is not None, state._uf is not None))
        return check_end(spec, state, move)

    monkeypatch.setattr(engine, "check_end", spy)
    before = initial_state(spec)
    for move in trace.moves:
        after = apply_move(before, move, spec, validate=False)
        yield before, after, carried[-1]
        before = after
    monkeypatch.undo()


def test_hex_incremental_state_matches_contents(hexgame, monkeypatch):
    size = hexgame.board.rows
    sides = {1: (set(hexgame.board.sides["NE"]), set(hexgame.board.sides["SW"])),
             2: (set(hexgame.board.sides["NW"]), set(hexgame.board.sides["SE"]))}
    for seed in range(20):
        for ply, (_, state, carried) in enumerate(_walk(hexgame, seed, monkeypatch)):
            # From the second move on, apply_move updates both instead of dropping them.
            assert carried == (True, True) or ply == 0
            assert engine._empty_sites(state) == [i for i, c in enumerate(state.contents)
                                                  if c is None]
            for player in (1, 2):
                occupied = {i for i, c in enumerate(state.contents)
                            if c is not None and c[1] == player}
                assert engine._uf_connected(hexgame, state, player) == \
                    oracles.hex_sides_connected(size, occupied, *sides[player])


@pytest.mark.parametrize("name", ["Crown", "Hybrid"])
def test_overwrites_and_steps_keep_state_in_step(name, monkeypatch):
    spec = _spec(name)
    shapes = set()  # (first action type, whether the target was occupied)
    for seed in range(20):
        for before, state, _ in _walk(spec, seed, monkeypatch):
            move = state.last_move
            shapes.add((move.action_types[0], before.contents[move.to_site] is not None))
            assert engine._empty_sites(state) == [i for i, c in enumerate(state.contents)
                                                  if c is None]
            for player in (1, 2):
                want = reference_playout.eval_connected(spec, state.contents, player)[0]
                assert engine._uf_connected(spec, state, player) == want
    if name == "Crown":
        assert ("Add", True) in shapes
    else:
        assert {("Add", False), ("Move", False), ("Remove", True)} <= shapes


# The caches each game's playouts keep up to date from one ply to the next.
# Only a player with a piece that does not Step walks owned sites; a
# (forEach Piece) of the others reads the occupancy bits.
KEPT = {"Amazons": {"owned"}, "Breakthrough": {"occupancy"}, "Hex": {"empty", "uf"},
        "TicTacToe": {"empty"}, "Crown": {"uf"}, "Hybrid": {"empty", "occupancy", "uf"},
        "Blocked": {"owned"}, "Knot": {"empty", "uf"}, "Drop": {"empty", "owned"},
        "Trio": {"owned"}, "Comb": {"occupancy"}, "Again": {"empty", "uf"}, "Fill": {"empty"}}
# Hex3 is left out: with three site sets the union-find may report a
# connection that the search denies.
KEPT.update({name: {"empty", "uf"} for name in SMALL_HEX if name != "Hex3"})


def _check_every_ply(spec, check, monkeypatch):
    """Play seeds 0-19, calling ``check`` on the state that each ply reaches; return
    (states checked, plies played).

    ``random_playout`` looks ``initial_state`` and ``XorShift64Star`` up as
    module globals and draws once per ply, so the state it advances is caught
    when it is made and checked at each draw after the first, once the ply
    before it has ended, and at the end of the playout.  A playout run
    without this pays nothing for it.
    """
    states, checked = [], []
    make_state = engine.initial_state

    def caught(spec):
        states.append(make_state(spec))
        return states[-1]

    def run_check(state):
        check(state)
        checked.append(state.move_count)

    class Checked(engine.XorShift64Star):
        def randrange(self, n):
            if states[-1].move_count:
                run_check(states[-1])
            return super().randrange(n)

    monkeypatch.setattr(engine, "initial_state", caught)
    monkeypatch.setattr(engine, "XorShift64Star", Checked)
    plies = 0
    for seed in range(20):
        plies += len(random_playout(spec, seed).moves)
        if states[-1].move_count:
            run_check(states[-1])
    monkeypatch.undo()
    return len(checked), plies


def _owned_scan(spec, contents):
    owned = [[] for _ in range(spec.player_count + 1)]
    for site, c in enumerate(contents):
        if c is not None:
            owned[c[1]].append(site)
    return owned


def _occupancy_scan(spec, contents):
    """Each piece name -> the sum of 2**site over the sites that hold it."""
    return {name: sum(2 ** site for site, c in enumerate(contents)
                      if c is not None and c[0] == name) for name in spec.content_of}


@pytest.mark.parametrize("name", KEPT)
def test_in_place_playout_keeps_caches_in_step(name, monkeypatch):
    """At every ply of random_playout, the caches the state keeps match contents."""
    spec = _spec(name)
    kept = set()

    def check(state):
        contents = state.contents
        if state._owned is not None:
            kept.add("owned")
            assert state._owned == _owned_scan(spec, contents)
        if state._empty is not None:
            kept.add("empty")
            assert state._empty == [i for i, c in enumerate(contents) if c is None]
        if state._occupancy is not None:
            kept.add("occupancy")
            assert state._occupancy == _occupancy_scan(spec, contents)
        if state._uf is not None:
            kept.add("uf")
        for player in range(1, spec.player_count + 1):
            want = reference_playout.eval_connected(spec, contents, player)[0]
            assert engine._uf_connected(spec, state, player) == want

    checked, plies = _check_every_ply(spec, check, monkeypatch)
    assert checked == plies > 0
    assert kept == KEPT[name]


def _classes(parent):
    """Each node's class, named by its smallest node, read from a copy of ``parent``."""
    parent, first = parent.copy(), {}
    return [first.setdefault(engine._find(parent, x), x) for x in range(len(parent))]


def _linked_classes(spec, contents):
    """Each node's class, named by its smallest node, found by search over the links.

    A piece links to each adjacent piece of its owner, and an anchor to each
    piece of its player in its site set; anchors are numbered after the
    sites, one per region site set in order.
    """
    links = [[] for _ in range(spec.anchors.size)]
    for site, c in enumerate(contents):
        if c is not None:
            links[site] += [n for n in spec.board.adjacent[site]
                            if contents[n] is not None and contents[n][1] == c[1]]
    anchor = len(contents)
    for region in spec.regions:
        for site_set in region.site_sets:
            for site in site_set.sites:
                if contents[site] is not None and contents[site][1] == region.owner:
                    links[anchor].append(site)
                    links[site].append(anchor)
            anchor += 1
    classes = [None] * len(links)
    for x in range(len(links)):
        if classes[x] is None:
            classes[x], stack = x, [x]
            while stack:
                for n in links[stack.pop()]:
                    if classes[n] is None:
                        classes[n] = x
                        stack.append(n)
    return classes


@pytest.mark.parametrize("name", [*(name for name, kept in KEPT.items() if "uf" in kept), "Hex3"])
def test_in_place_union_find_partitions_as_a_fresh_one(name, monkeypatch):
    """At every ply, the union-find a playout keeps joins the sites and anchors as one built
    fresh does, and as a search over the pieces' and anchors' links does."""
    spec = _spec(name)

    def check(state):
        assert state._uf is not None, f"{name} ply {state.move_count}"
        fresh = engine.GameState(list(state.contents), state.mover, state.move_count)
        assert _classes(state._uf) == _classes(engine._union_find(spec, fresh)) == \
            _linked_classes(spec, state.contents), f"{name} ply {state.move_count}"

    checked, plies = _check_every_ply(spec, check, monkeypatch)
    assert checked == plies > 0


@pytest.mark.parametrize("name", ["Hex", "Breakthrough", "Amazons", "Crown", "Hybrid", "Comb"])
def test_apply_move_leaves_its_state_alone(name):
    """apply_move changes no cache of the state it starts from, and replay agrees with it."""
    spec = _spec(name)
    for seed in range(5):
        trace = random_playout(spec, seed)
        chain = [initial_state(spec)]
        for move in trace.moves:
            state = chain[-1]
            # Build every cache, so each one is copied and updated.
            engine._empty_sites(state)
            engine._owned_sites(spec, state)
            engine._occupancy_of(spec, state)
            engine._union_find(spec, state)
            saved = copy.deepcopy((state.contents, state._empty, state._uf, state._owned,
                                   state._occupancy))
            after = apply_move(state, move, spec)
            assert (state.contents, state._empty, state._uf, state._owned,
                    state._occupancy) == saved
            assert after._occupancy == _occupancy_scan(spec, after.contents)
            chain.append(after)
        for upto, want in enumerate(chain):
            got = replay(spec, trace, upto)
            assert (got.contents, got.mover, got.move_count, got.last_move, got.terminal) == \
                (want.contents, want.mover, want.move_count, want.last_move, want.terminal)


def test_playouts_and_replay_advance_one_state(breakthrough, monkeypatch):
    made = []
    state_type = engine.GameState

    def counted(*args, **kwargs):
        made.append(1)
        return state_type(*args, **kwargs)

    monkeypatch.setattr(engine, "GameState", counted)
    trace = random_playout(breakthrough, 0)
    replay(breakthrough, trace)
    assert len(trace.moves) > 2 and len(made) == 2


@pytest.mark.parametrize("name", ["Amazons", "Breakthrough", "Hybrid", "Blocked", "Comb"])
def test_playouts_never_build_the_legal_list(name, monkeypatch):
    spec = _spec(name)
    want = [trace_to_dict(random_playout(spec, seed), spec) for seed in range(5)]

    def refuse(spec, state):
        raise AssertionError("random_playout built the full legal list")

    monkeypatch.setattr(engine, "legal_moves", refuse)
    assert [trace_to_dict(random_playout(spec, seed), spec) for seed in range(5)] == want


@pytest.mark.parametrize("name", ["Amazons", "Breakthrough", "Hex", "Hybrid", "Blocked", "Trio",
                                  "Comb", *REPEATED])
def test_pick_is_kth_legal_move(name):
    spec = _spec(name)
    for seed in range(5):
        trace = random_playout(spec, seed)
        rng = engine.XorShift64Star(seed)
        state = initial_state(spec)
        for move in trace.moves:
            total = engine._resolve(spec, state)
            k = rng.randrange(total)
            # A fresh copy of the state, so its legal list is built from its contents
            # now, not from the targets the playout cached when it reached the state.
            legal = engine.legal_moves(spec, engine.GameState(
                state.contents, state.mover, state.move_count, last_move=state.last_move))
            assert total == len(legal)
            assert move == engine._pick(spec, state, k) == legal[k]
            state = apply_move(state, move, spec, validate=False)


@pytest.mark.parametrize("name", ["Amazons", "Breakthrough", "Hex", "TicTacToe", *SMALL_GAMES,
                                  *REPEATED])
def test_legal_moves_match_full_list_reference(name):
    """At every state of a playout, the engine's legal list is the reference's, in its order."""
    spec = _spec(name)
    nodes = oracles.preorder(spec.root)
    for seed in range(10):
        state = initial_state(spec)
        ref = reference_playout.State(list(state.contents), 1, 0, nodes)
        for move in (*random_playout(spec, seed).moves, None):
            assert engine.legal_moves(spec, state) == reference_playout.legal_moves(spec, ref), \
                f"{name} seed {seed} ply {state.move_count}"
            if move is not None:
                state = apply_move(state, move, spec, validate=False)
                ref = reference_playout.apply_move(ref, move, spec)


# The games walked to every reachable state, with their count of non-terminal
# states.  Every other small game has more than CAPPED of them, and is walked
# to its first CAPPED in walk order.  The two Hex boards check (is Connected
# ...) and the no-moves draw fallback, which Hex never reaches, at every state
# of a board.
WALKED = {"TicTacToe": 4520, "Crown": 37, "Hex2x2": 23, "Hex3x3": 4520}
CAPPED = 2000


@pytest.mark.parametrize("name", [*sorted(WALKED), *sorted(set(SMALL_GAMES) - set(WALKED))])
def test_every_reachable_state_matches_the_reference(name):
    """At every reachable state the legal list, and after each move the next state, match.

    The walk is depth-first from the start.  A state is keyed by its
    contents, its mover, the parity of its move count, which (is Even
    (count Moves)) reads, and its last move where a Shoot reads it, so that
    no two states a rule tells apart are merged.
    """
    spec = _spec(name)
    limit = math.inf if name in WALKED else CAPPED
    shoots = any(isinstance(rule, MoveRule) and rule.kind == "Shoot"
                 for rule in spec.rules.values())
    start = initial_state(spec)
    stack = [(start, reference_playout.State(list(start.contents), 1, 0,
                                             oracles.preorder(spec.root)))]
    seen = set()
    while stack and len(seen) < limit:
        state, ref = stack.pop()
        key = (tuple(state.contents), state.mover, state.move_count % 2,
               state.last_move if shoots else None)
        if state.terminal is not None or key in seen:
            continue
        seen.add(key)
        # Every occupied site holds a declared piece, with its owner.
        assert all(c is None or spec.content_of.get(c[0]) == c for c in state.contents), key
        legal = engine.legal_moves(spec, state)
        assert legal == reference_playout.legal_moves(spec, ref), key
        for move in legal:
            _assert_names_its_piece_and_sites(spec, move)
            after = apply_move(state, move, spec, validate=False)
            ref_after = reference_playout.apply_move(ref, move, spec)
            assert (after.contents, after.mover, after.terminal) == \
                (ref_after.contents, ref_after.mover, ref_after.terminal), (key, move)
            stack.append((after, ref_after))
    assert len(seen) == WALKED.get(name, CAPPED)


@pytest.mark.parametrize("name", ["Amazons", "Breakthrough", "Hex", "TicTacToe", *SMALL_GAMES,
                                  *REPEATED])
def test_legal_moves_hold_no_duplicate(name):
    """No move is legal twice in one state, so a playout draws every move equally often.

    The reference builds its lists the same way, so the differential above
    cannot see a duplicate; this checks the engine's lists directly.
    """
    spec = _spec(name)
    for seed in range(50):
        state = initial_state(spec)
        for move in random_playout(spec, seed).moves:
            legal = engine.legal_moves(spec, state)
            assert len(set(legal)) == len(legal), f"{name} seed {seed} ply {state.move_count}"
            state = apply_move(state, move, spec, validate=False)


# The games whose play rule is one Add to the empty sites.
ADD_TO_EMPTY = ["Hex", "TicTacToe", "Knot", "Again", "Fill"]


@pytest.mark.parametrize("name", [*ADD_TO_EMPTY, "Crown", "Hybrid", "Drop"])
def test_add_to_empty_play_rules_take_their_own_loop(name, monkeypatch):
    """An Add to the empty sites plays out without ``_pick`` or ``_advance``, to the same traces.

    An Add onto fixed sites, an Add under an ``if`` and a piece rule's Add
    go through both.
    """
    spec = _spec(name)
    want = [random_playout(spec, seed) for seed in range(10)]
    called = set()

    def watch(fn):
        def wrapper(*args):
            if name in ADD_TO_EMPTY:
                raise AssertionError(f"{name}'s playout called {fn.__name__}")
            called.add(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(engine, "_pick", watch(engine._pick))
    monkeypatch.setattr(engine, "_advance", watch(engine._advance))
    assert [random_playout(spec, seed) for seed in range(10)] == want
    assert called == (set() if name in ADD_TO_EMPTY else {"_pick", "_advance"})


def _advance_replay(spec, moves, advance):
    """The state that ``advance`` (``engine._advance``) reaches over ``moves``, one
    move at a time from the initial state: how every other game replays."""
    state = initial_state(spec)
    for move in moves:
        advance(spec, state, move)
    return state


def _caches_match_contents(spec, state):
    """The state's empty sites and union-find, where built, are what its contents imply."""
    if state._empty is not None:
        assert state._empty == [i for i, c in enumerate(state.contents) if c is None]
    if state._uf is not None:
        assert _classes(state._uf) == _linked_classes(spec, state.contents)


@pytest.mark.parametrize("name", [*ADD_TO_EMPTY, *SMALL_HEX])
def test_add_to_empty_replay_takes_the_playout_loop(name, monkeypatch):
    """``replay`` of an add-to-empty trace plays through the playout's loop, without
    ``_advance``, and at every prefix reaches the state that ``_advance`` reaches.

    The traces are the reference's, so an engine whose loop skipped an end
    check could not make them.  Where both replays built the empty sites or
    the union-find, both match contents, so they agree.
    """
    spec = _spec(name)
    traces = [reference_playout.random_playout(spec, seed) for seed in range(6)]
    advance = engine._advance

    def refuse(*args):
        raise AssertionError(f"{name}'s replay called _advance")

    monkeypatch.setattr(engine, "_advance", refuse)
    for trace in traces:
        for upto in range(len(trace.moves) + 1):
            got, want = replay(spec, trace, upto), _advance_replay(spec, trace.moves[:upto], advance)
            assert (got.contents, got.mover, got.move_count, got.last_move, got.terminal) == \
                (want.contents, want.mover, want.move_count, want.last_move, want.terminal), \
                f"{name} seed {trace.seed} upto {upto}"
            for state in (got, want):
                _caches_match_contents(spec, state)
            # From the first move on, the loop keeps each cache that _advance's end checks built.
            for cache in ("_empty", "_uf"):
                assert upto == 0 or getattr(want, cache) is None or getattr(got, cache) is not None
        assert got.terminal == trace.outcome


@pytest.mark.parametrize("name", [*ADD_TO_EMPTY, *SMALL_HEX])
def test_add_to_empty_replay_refuses_a_move_its_loop_would_not_play(name):
    """A move after the end, onto a taken site or by the wrong mover is IllegalMove,
    and only once ``upto`` reaches it."""
    spec = _spec(name)
    players = spec.player_count
    for seed in range(6):
        trace = reference_playout.random_playout(spec, seed)
        moves, outcome = trace.moves, trace.outcome
        final = replay(spec, trace)
        empty = [site for site, c in enumerate(final.contents) if c is None]
        late = moves[-1]._replace(from_site=empty[0], to_site=empty[0]) if empty else moves[-1]
        bad = {"after the end": (len(moves), late, "^state is terminal$")}
        if len(moves) > 1:
            ply, move = len(moves) // 2, moves[len(moves) // 2]
            taken = moves[0].to_site
            other = move.mover % players + 1
            bad["onto a taken site"] = (ply, move._replace(from_site=taken, to_site=taken),
                                        "^move not legal in this state")
            bad["by the wrong mover"] = (ply, Move(other, spec.first_piece[other],
                                                   *move[2:]), "^move not legal in this state")
        for kind, (ply, move, message) in bad.items():
            broken = engine.PlayoutTrace(seed, moves[:ply] + (move,) + moves[ply + 1:], outcome)
            assert replay(spec, broken, ply).contents == replay(spec, trace, ply).contents
            for upto in (ply + 1, None):
                with pytest.raises(IllegalMove, match=message):  # kind names the bad move
                    replay(spec, broken, upto)


# Add-to-empty games, and whether all their end rules are (is Connected ...):
# if so, the loop builds the union-find before the first ply and calls
# check_end only on the plies after which the mover's anchors share one root,
# or the board is full.  Knot has a second rule, (and (is Line 3) ...).
GATED = {"Hex3": True, "HexAgain": True, "Hex1x1": True, "Knot": False, "TicTacToe": False}


@pytest.mark.parametrize("name", GATED)
def test_connected_ends_are_checked_where_the_anchors_join(name, monkeypatch):
    spec = _spec(name)
    want = [trace_to_dict(reference_playout.random_playout(spec, seed), spec)
            for seed in range(200)]
    traces = [random_playout(spec, seed) for seed in range(200)]
    ending, denied = [], 0  # denied: plies that join the anchors but do not connect
    for trace in traces:
        state = initial_state(spec)
        for ply, move in enumerate(trace.moves, 1):
            state = apply_move(state, move, spec, validate=False)
            joined = engine._uf_connected(spec, state, move.mover)
            if joined or ply == len(trace.moves):
                ending.append(move)
            denied += joined and ply < len(trace.moves) and \
                not reference_playout.eval_connected(spec, state.contents, move.mover)[0]
    calls, built = [], []
    check_end, union_find = engine.check_end, engine._union_find

    def counting(spec, state, move):
        calls.append(move)
        return check_end(spec, state, move)

    def building(spec, state):
        if state._uf is None:
            built.append(state.move_count)
        return union_find(spec, state)

    monkeypatch.setattr(engine, "check_end", counting)
    monkeypatch.setattr(engine, "_union_find", building)
    assert [trace_to_dict(random_playout(spec, seed), spec) for seed in range(200)] == want
    if GATED[name]:
        assert built == [0] * 200 and calls == ending
    else:
        assert calls == [move for trace in traces for move in trace.moves]
        assert built == ([1] * 200 if name == "Knot" else [])
    # Only Hex3's three site sets let the anchors join before the search connects them.
    assert (denied > 0) == (name == "Hex3")


# The start fills the board, so the first mover has no empty site to add to.
FULL = ('(game "Full" (players 2) (equipment {(board (square 2)) (piece "Disc" Each)}) '
        '(rules (start {(place "Disc1" {"A1" "B2"}) (place "Disc2" {"B1" "A2"})}) '
        '(play (move Add (to (sites Empty)))) (end (if (is Line 2) (result Mover Win)))))')


def test_add_to_empty_start_that_fills_the_board(tmp_path, capsys):
    spec = compile_game(parse(FULL))
    for seed in range(3):
        trace = random_playout(spec, seed)
        assert trace.moves == ()
        assert trace.outcome == reference_playout.random_playout(spec, seed).outcome == \
            EndMatch(None, (1, 2), "Draw", None)
    game = tmp_path / "full.lud"
    game.write_text(FULL)
    out = tmp_path / "out"
    assert main(["generate", "--game", str(game), "--playouts", "3", "--out", str(out)]) == 3
    assert "error: no legal opening move" in capsys.readouterr().err
    assert not out.exists()


def test_end_rules_that_name_a_player_or_draw():
    """Verdict's line is a loss for P2 alone, and its full board a draw for both, by rule."""
    spec = _spec("Verdict")
    line, full = (rule.end_id for rule in spec.end_rules)
    outcomes = Counter((o.end_id, o.players, o.outcome)
                       for o in (random_playout(spec, seed).outcome for seed in range(200)))
    assert outcomes == {(line, (2,), "Loss"): 181, (full, (1, 2), "Draw"): 19}


def test_three_set_wins_touch_every_region_set():
    """A win's winning sites reach each of the winner's region site sets, three in Hex3."""
    spec = _spec("Hex3")
    wins = 0
    for seed in range(200):
        outcome = random_playout(spec, seed).outcome
        if outcome.outcome != "Win":
            continue
        winner, = outcome.players
        winning = set(outcome.winning_sites)
        wins += winner == 1
        for sites in spec.anchors.site_sets[winner]:
            assert winning & set(sites), f"seed {seed}: P{winner} misses {sorted(sites)}"
    assert wins  # P1, with three sets, wins some of them


# The add-to-empty games whose traces draw from the spec's table of Add moves.
TABLED = ["Hex", "Hex3", "HexAgain", "Fill", "TicTacToe"]


@pytest.mark.parametrize("name", TABLED)
def test_add_move_table_holds_what_move_builds(name):
    spec = _spec(name)
    random_playout(spec, 0)
    table, state = spec.add_moves, initial_state(spec)
    assert table[0] == () and len(table) == spec.player_count + 1
    for mover in range(1, spec.player_count + 1):
        state.mover = mover
        want = [engine._move(spec, state, spec.play, None, None, site)
                for site in range(spec.board.site_count)]
        assert list(table[mover]) == want
        assert all(type(move) is Move for move in table[mover])


@pytest.mark.parametrize("name", TABLED)
def test_add_to_empty_traces_share_the_table_moves(name):
    spec = _spec(name)
    assert spec.add_moves is None
    traces = [random_playout(spec, seed) for seed in range(20)]
    table = spec.add_moves
    assert all(move is table[move.mover][move.to_site] for t in traces for move in t.moves)


def test_compiling_leaves_the_add_move_table_unbuilt():
    spec = compile_game(parse(_hex("Hex19", 19)))
    assert spec.add_moves is None
    engine.legal_moves(spec, initial_state(spec))  # the generic path builds no table either
    assert spec.add_moves is None


@pytest.mark.parametrize("name", ["Hex", "Fill"])
def test_pickled_spec_plays_the_same_with_or_without_its_table(name):
    spec = _spec(name)
    unbuilt = pickle.loads(pickle.dumps(spec))
    want = [random_playout(spec, seed) for seed in range(5)]
    built = pickle.loads(pickle.dumps(spec))
    assert unbuilt.add_moves is None and built.add_moves == spec.add_moves
    for clone in (unbuilt, built):
        traces = [random_playout(clone, seed) for seed in range(5)]
        assert traces == want
        assert all(move is clone.add_moves[move.mover][move.to_site]
                   for t in traces for move in t.moves)
