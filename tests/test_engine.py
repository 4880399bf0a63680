import hashlib
import inspect
import json
import pickle
import random
import tracemalloc
from pathlib import Path

import pytest

import oracles
from conftest import CORPUS, load_spec
from gamescribe import engine, pipeline, taxonomy
from gamescribe.engine import (GameState, IllegalMove, Move, PlayoutLimitExceeded,
                               XorShift64Star, apply_move, check_end, eval_condition,
                               initial_state, legal_moves, random_playout, replay,
                               trace_to_dict)


def _piece_count(state, owner=None):
    return sum(1 for c in state.contents
               if c is not None and (owner is None or c[1] == owner))


def test_prng_is_deterministic_and_spread():
    a = [XorShift64Star(42).randrange(100) for _ in range(1)]
    b = [XorShift64Star(42).randrange(100) for _ in range(1)]
    assert a == b
    rng = XorShift64Star(7)
    values = {rng.randrange(10) for _ in range(200)}
    assert values == set(range(10))


def test_prng_distinct_seeds_diverge():
    assert XorShift64Star(1).randrange(1 << 64) != XorShift64Star(2).randrange(1 << 64)
    assert XorShift64Star(0).randrange(1 << 64) != 0  # zero seed must not stick


def test_initial_states(tictactoe, amazons, breakthrough):
    empty = initial_state(tictactoe)
    assert all(c is None for c in empty.contents)
    assert empty.mover == 1 and empty.move_count == 0

    queens = initial_state(amazons)
    assert _piece_count(queens, 1) == 4
    assert _piece_count(queens, 2) == 4
    board = amazons.board
    assert queens.contents[board.site_by_label("A4")] == ("Queen1", 1)
    assert queens.contents[board.site_by_label("D10")] == ("Queen2", 2)

    pawns = initial_state(breakthrough)
    assert _piece_count(pawns, 1) == 16
    assert _piece_count(pawns, 2) == 16


def test_tictactoe_opening_moves(tictactoe):
    state = initial_state(tictactoe)
    moves = legal_moves(tictactoe, state)
    assert len(moves) == 9
    assert all(m.action_types == ("Add",) for m in moves)
    assert all(m.piece == "Disc" for m in moves)
    assert len({m.to_site for m in moves}) == 9


def test_apply_move_flips_mover(tictactoe):
    state = initial_state(tictactoe)
    move = legal_moves(tictactoe, state)[0]
    after = apply_move(state, move, tictactoe)
    assert after.mover == 2
    assert after.move_count == 1
    assert _piece_count(after) == 1
    # Player 2 now adds Crosses.
    assert all(m.piece == "Cross" for m in legal_moves(tictactoe, after))



def test_a_new_state_has_no_caches():
    state = GameState([None, ("Disc", 1)], 2, 1)
    assert (state._groups, state._total, state._empty, state._owned, state._occupancy,
            state._uf) == (None, 0, None, None, None, None)


def test_apply_move_gives_the_new_state_copies_of_the_caches(hexgame):
    """The carried caches equal the parent's, but editing them leaves the parent's alone."""
    state = initial_state(hexgame)
    engine._empty_sites(state)
    engine._owned_sites(hexgame, state)
    engine._occupancy_of(hexgame, state)
    engine._union_find(hexgame, state)
    child = apply_move(state, legal_moves(hexgame, state)[0], hexgame)
    for name in ("_empty", "_owned", "_occupancy", "_uf"):
        carried = getattr(child, name)
        assert carried is not None and carried is not getattr(state, name)
    saved = (list(state._empty), [list(s) for s in state._owned], list(state._uf))
    child._empty.clear(), child._owned[1].append(0), child._uf.append(0)
    assert (state._empty, state._owned, state._uf) == saved

def test_apply_rejects_illegal_moves(tictactoe):
    state = initial_state(tictactoe)
    move = legal_moves(tictactoe, state)[0]
    state2 = apply_move(state, move, tictactoe)
    with pytest.raises(IllegalMove):
        apply_move(state2, move, tictactoe)  # square already occupied


def test_apply_move_on_a_terminal_state_is_illegal(tictactoe):
    trace = random_playout(tictactoe, 11)
    last = replay(tictactoe, trace, upto=len(trace.moves) - 1)
    final = apply_move(last, trace.moves[-1], tictactoe)
    assert final.terminal == trace.outcome
    for validate in (True, False):  # checked before, and without, the legal list
        with pytest.raises(IllegalMove, match="^state is terminal$"):
            apply_move(final, trace.moves[-1], tictactoe, validate=validate)


def test_step_capture_semantics(breakthrough):
    state = initial_state(breakthrough)
    moves = legal_moves(breakthrough, state)
    # Opening: no contact, so every step is a plain Move onto an empty cell.
    assert all(m.action_types == ("Move",) for m in moves)
    board = breakthrough.board
    # Edge pawn A2 has two forward options (A3 straight, B3 forward-right);
    # a central pawn has three.
    froms = {}
    for m in moves:
        froms.setdefault(board.labels[m.from_site], set()).add(
            board.labels[m.to_site])
    assert froms["A2"] == {"A3", "B3"}
    assert froms["D2"] == {"C3", "D3", "E3"}
    assert "A1" not in froms  # blocked by own pawn on A2


def test_breakthrough_captures_occur(breakthrough):
    trace = random_playout(breakthrough, 0)
    kinds = {m.action_types for m in trace.moves}
    assert ("Remove", "Move") in kinds
    assert ("Move",) in kinds
    # Pawn counts never increase.
    state = initial_state(breakthrough)
    count = _piece_count(state)
    for move in trace.moves:
        state = apply_move(state, move, breakthrough, validate=False)
        assert _piece_count(state) <= count
        count = _piece_count(state)


def test_amazons_turn_structure(amazons):
    trace = random_playout(amazons, 3)
    # Queen slide keeps the mover (moveAgain); the shot passes the turn.
    for i, move in enumerate(trace.moves):
        if i % 2 == 0:
            assert move.piece in ("Queen1", "Queen2")
            assert move.action_types == ("Move", "SetMoverAgain")
        else:
            assert move.piece == "Dot0"
            assert move.action_types == ("Add",)
            assert move.mover == trace.moves[i - 1].mover
    movers = [m.mover for m in trace.moves]
    assert movers[0] == 1
    # Dot count grows by one per full turn.
    final = replay(amazons, trace)
    dots = sum(1 for c in final.contents if c is not None and c[0] == "Dot0")
    assert dots == len(trace.moves) // 2


def test_slide_stops_at_occupied(amazons):
    state = initial_state(amazons)
    board = amazons.board
    moves = legal_moves(amazons, state)
    targets = {board.labels[m.to_site] for m in moves
               if board.labels[m.from_site] == "D1"}
    # D1 queen sliding west stops before A1? A1 is empty; G1 holds a queen.
    assert "E1" in targets and "F1" in targets and "G1" not in targets
    assert "A1" in targets and "B1" in targets and "C1" in targets


def test_playout_determinism(tictactoe, amazons):
    for spec, seed in ((tictactoe, 5), (amazons, 5)):
        t1 = random_playout(spec, seed)
        t2 = random_playout(spec, seed)
        assert t1.moves == t2.moves
        assert t1.outcome == t2.outcome
    assert random_playout(tictactoe, 1).moves != random_playout(tictactoe, 2).moves


def test_tictactoe_games_are_short(tictactoe):
    for seed in range(1000):
        trace = random_playout(tictactoe, seed)
        assert 5 <= len(trace.moves) <= 9
        outcome = trace.outcome
        if outcome.outcome == "Draw":
            assert len(trace.moves) == 9
            assert outcome.players == (1, 2)
        else:
            assert outcome.outcome == "Win"
            assert outcome.players in ((1,), (2,))
            assert outcome.winning_sites is not None
            assert len(outcome.winning_sites) >= 3


def test_replay_reaches_identical_terminal(tictactoe):
    trace = random_playout(tictactoe, 11)
    final = replay(tictactoe, trace)
    stepped = initial_state(tictactoe)  # a fresh copy per move, not one state in place
    for move in trace.moves:
        stepped = apply_move(stepped, move, tictactoe)
    assert final.contents == stepped.contents
    assert final.terminal == stepped.terminal == trace.outcome
    partial = replay(tictactoe, trace, upto=2)
    assert partial.move_count == 2 and partial.terminal is None
    with pytest.raises(IllegalMove):  # no move follows the end
        replay(tictactoe, engine.PlayoutTrace(11, trace.moves + trace.moves[-1:], trace.outcome))


def test_line_matches_bruteforce_oracle(tictactoe):
    rng = random.Random(99)
    checked = 0
    for _ in range(2000):
        contents = [None] * 9
        for i in range(9):
            roll = rng.random()
            if roll < 0.35:
                contents[i] = ("Disc", 1)
            elif roll < 0.7:
                contents[i] = ("Cross", 2)
        occupied = [i for i, c in enumerate(contents) if c is not None]
        if not occupied:
            continue
        site = rng.choice(occupied)
        fake = Move(contents[site][1], contents[site][0], tictactoe.play.id, (),
                    site, site)
        state = GameState(contents=contents, mover=1, move_count=0, last_move=fake)
        got, sites = engine._eval_line(tictactoe, state, tictactoe.end_rules[0].cond, fake.mover)
        assert got == oracles.ttt_line_through(contents, site)
        if got:
            assert site in sites
        checked += 1
    assert checked > 1500


def test_connected_matches_unionfind_oracle(hexgame):
    size = hexgame.board.rows
    ne = set(hexgame.board.sides["NE"])
    sw = set(hexgame.board.sides["SW"])
    rng = random.Random(4)
    for _ in range(200):
        contents = [None] * (size * size)
        for i in range(size * size):
            roll = rng.random()
            if roll < 0.45:
                contents[i] = ("Marker1", 1)
            elif roll < 0.9:
                contents[i] = ("Marker2", 2)
        state = GameState(contents=contents, mover=1, move_count=0)
        occupied = {i for i, c in enumerate(contents) if c is not None and c[1] == 1}
        got, sites = engine._eval_connected(hexgame, state, hexgame.end_rules[0].cond, 1)
        assert got == oracles.hex_sides_connected(size, occupied, ne, sw)
        if got:
            assert set(sites) <= occupied
            assert set(sites) & ne and set(sites) & sw


def test_hex_win_detected_via_end_rules(hexgame):
    trace = random_playout(hexgame, 0)
    assert trace.outcome.outcome == "Win"
    assert trace.outcome.winning_sites
    winner = trace.outcome.players[0]
    final = replay(hexgame, trace)
    assert all(final.contents[s][1] == winner for s in trace.outcome.winning_sites)


def test_even_condition_gates_amazons_turns(amazons):
    # (is Even (count Moves)) is the branch condition of the Amazons play rule.
    cond = amazons.play.cond
    state = initial_state(amazons)
    assert eval_condition(amazons, state, cond, 1) is True  # move_count == 0
    move = legal_moves(amazons, state)[0]
    after = apply_move(state, move, amazons, validate=False)
    assert eval_condition(amazons, after, cond, after.mover) is False


def test_check_end_is_pure_reevaluation(tictactoe):
    trace = random_playout(tictactoe, 7)
    final = replay(tictactoe, trace)
    again = check_end(tictactoe, final, trace.moves[-1])
    assert again == trace.outcome


def test_move_cap_raises():
    from gamescribe.compiler import compile_game
    from gamescribe.sexpr import parse
    # A lone marker never makes a line of three, so the game never ends.
    source = ('(game "Wander" (players 1) '
              '(equipment {(board (square 3)) '
              '(piece "Marker" P1 (move Step (directions Adjacent)))}) '
              '(rules (start (place "Marker" {"A1"})) '
              '(play (forEach Piece)) '
              '(end (if (is Line 3) (result Mover Win)))))')
    spec = compile_game(parse(source))
    with pytest.raises(PlayoutLimitExceeded):
        random_playout(spec, 0, move_cap=500)


def test_move_cap_boundary(tictactoe):
    # Seed 12 is a 9-move draw: a cap of 9 lets it end, a cap of 8 does not.
    trace = random_playout(tictactoe, 12, move_cap=9)
    assert len(trace.moves) == 9 and trace.outcome.outcome == "Draw"
    with pytest.raises(PlayoutLimitExceeded):
        random_playout(tictactoe, 12, move_cap=8)


def _first_exported(spec, action_types):
    """Exported entry of the first move with ``action_types`` in seeds 0..19."""
    for seed in range(20):
        trace = random_playout(spec, seed)
        for move, entry in zip(trace.moves, trace_to_dict(trace, spec)["moves"]):
            if move.action_types == action_types:
                assert spec.board.site_by_label(entry["from"]) == move.from_site
                assert spec.board.site_by_label(entry["to"]) == move.to_site
                return entry
    pytest.fail(f"no {action_types} move in seeds 0..19")


def test_trace_export_round_trips_labels(tictactoe, breakthrough, amazons):
    trace = random_playout(tictactoe, 0)
    payload = trace_to_dict(trace, tictactoe)
    assert payload["seed"] == 0
    assert len(payload["moves"]) == len(trace.moves)
    assert payload["moves"][0]["actions"][0][0] == "Add"
    assert payload["outcome"]["result"] in ("Win", "Draw")

    capture = _first_exported(breakthrough, ("Remove", "Move"))
    assert capture["actions"] == [["Remove", capture["to"]],
                                  ["Move", capture["from"], capture["to"]]]
    slide = _first_exported(amazons, ("Move", "SetMoverAgain"))
    assert slide["actions"] == [["Move", slide["from"], slide["to"]], ["SetMoverAgain"]]
    shot = _first_exported(amazons, ("Add",))
    assert shot["actions"] == [["Add", "Dot0", shot["to"]]]


def test_draw_fallback_has_no_end_id(tictactoe):
    for seed in range(100):
        trace = random_playout(tictactoe, seed)
        if trace.outcome.outcome == "Draw":
            assert trace.outcome.end_id is None
            break
    else:
        pytest.fail("no draw found in seeds 0..99")


def _load_digests():
    return json.loads((Path(__file__).parent / "trace_digests.json").read_text())


@pytest.mark.parametrize("name", sorted(_load_digests()))
def test_trace_digests_match_golden(name):
    # sha256 of the exported traces for seeds 0-49; any change to move
    # generation order, move contents or end detection changes the digest.
    spec = load_spec(name)
    traces = [random_playout(spec, seed) for seed in range(50)]
    payload = json.dumps([trace_to_dict(t, spec) for t in traces])
    assert hashlib.sha256(payload.encode()).hexdigest() == _load_digests()[name]


@pytest.mark.parametrize("name", sorted(_load_digests()))
def test_pickled_spec_plays_identically(name):
    spec = load_spec(name)
    copy = pickle.loads(pickle.dumps(spec))
    for seed in range(3):
        want, got = random_playout(spec, seed), random_playout(copy, seed)
        assert got.moves == want.moves
        assert got.outcome == want.outcome


def test_slide_walks_only_named_directions():
    from gamescribe.compiler import compile_game
    from gamescribe.sexpr import parse
    spec = compile_game(parse(
        '(game "Rooks" (players 2) (equipment {(board (square 3)) '
        '(piece "Rook" Each (move Slide (directions Orthogonal)))}) '
        '(rules (start (place "Rook1" {"A1"})) (play (forEach Piece)) '
        '(end (if (no Moves Next) (result Mover Win)))))'))
    moves = legal_moves(spec, initial_state(spec))
    assert {spec.board.labels[m.to_site] for m in moves} == {"A2", "A3", "B1", "C1"}


def test_condition_table_covers_every_condition_class():
    # A condition class the compiler can produce but the engine's table lacks
    # would fail on the first end check that meets it.
    from typing import get_args

    from gamescribe import compiler
    assert set(engine._CONDITIONS) == set(get_args(compiler.Condition))
    # One signature, so the table maps each type straight to its evaluator.
    for fn in engine._CONDITIONS.values():
        assert list(inspect.signature(fn).parameters) == ["spec", "state", "cond", "mover"]
    spec = load_spec("TicTacToe")
    with pytest.raises(KeyError):
        engine.eval_condition(spec, initial_state(spec), object(), 1)


@pytest.mark.parametrize("name", sorted(_load_digests()))
def test_move_is_a_plain_tuple_value(name):
    from gamescribe.taxonomy import MoveSignature
    spec = load_spec(name)
    trace = random_playout(spec, 0)
    for move in trace.moves:
        fields = (move.mover, move.piece, move.origin_id, move.action_types,
                  move.from_site, move.to_site)
        assert move == fields and hash(move) == hash(fields)
        assert move != MoveSignature(*fields[:4])
    copy = pickle.loads(pickle.dumps(trace))
    assert copy.moves == trace.moves
    assert all(type(m) is Move for m in copy.moves)
    assert copy.outcome == trace.outcome


def test_hex_playouts_hold_few_bytes_per_ply():
    """Traces share the spec's Add moves, so a Hex ply costs about its tuple slot.

    A Move built per ply would cost over 100 bytes each.
    """
    spec = load_spec("Hex")
    tracemalloc.start()
    try:
        traces = [random_playout(spec, seed) for seed in range(300)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    plies = sum(len(t.moves) for t in traces)
    assert peak < 24 * plies, f"peak {peak:,} bytes over {plies:,} plies"


@pytest.mark.parametrize("name", ["Amazons"])
def test_playouts_call_check_end_once_per_ply_through_the_module_global(name, monkeypatch):
    """A playout of a piece game looks ``check_end`` up as a module global once per ply.

    Timing tools wrap ``engine.check_end`` (and the other names below) from
    outside; a ply that inlined the call, or bound it once, would hide the
    time spent in it.  Hex's plies call it only where the game can end: see
    the next test.
    """
    spec = load_spec(name)
    want = random_playout(spec, 3)
    calls = []

    def counting(spec, state, move):
        calls.append(move)
        return check_end(spec, state, move)

    monkeypatch.setattr(engine, "check_end", counting)
    assert random_playout(spec, 3) == want
    assert calls == list(want.moves)


def test_hex_playouts_call_check_end_where_the_anchors_join(hexgame, monkeypatch):
    """A Hex playout looks ``check_end`` up as a module global on the plies that can end it.

    Those are the plies after which the mover's anchors share one union-find
    root, found here by replaying the trace, and the last ply.  On the others
    no Connected end rule holds and the board is not full, so the
    add-to-empty loop skips the call.
    """
    want = [random_playout(hexgame, seed) for seed in range(10)]
    ending = []
    for trace in want:
        state = initial_state(hexgame)
        for ply, move in enumerate(trace.moves, 1):
            state = apply_move(state, move, hexgame, validate=False)
            if engine._uf_connected(hexgame, state, move.mover) or ply == len(trace.moves):
                ending.append(move)
    calls = []

    def counting(spec, state, move):
        calls.append(move)
        return check_end(spec, state, move)

    monkeypatch.setattr(engine, "check_end", counting)
    assert [random_playout(hexgame, seed) for seed in range(10)] == want
    assert calls == ending
    assert len(calls) < sum(len(trace.moves) for trace in want) // 10


def test_pipeline_and_taxonomy_call_the_engine_by_its_names(monkeypatch):
    """``pipeline`` calls ``engine.random_playout`` and ``engine.legal_moves``, and
    ``taxonomy`` its own ``legal_moves`` import, looked up at each call."""
    called = []

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            called.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(engine, "random_playout")
    counting(engine, "legal_moves")
    counting(taxonomy, "legal_moves")
    spec = pipeline.load_playable(CORPUS / "Hex.lud")
    assert called == ["legal_moves"]
    traces = pipeline.run_playouts(spec, 0, 3)
    assert called == ["legal_moves"] + ["random_playout"] * 3
    state = replay(spec, traces[0], 1)
    taxonomy.similar_legal_moves(state, traces[0].moves[1], spec)
    assert called[-1] == "legal_moves" and len(called) == 5
