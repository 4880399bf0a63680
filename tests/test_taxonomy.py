import random
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gamescribe.engine import initial_state, legal_moves, random_playout
from gamescribe.english import translate_node
from gamescribe.taxonomy import (MoveSignature, collect_distinct, collect_endings,
                                 coverage_report, move_signature, similar_legal_moves)
from test_reference_playout import SMALL_GAMES, _spec


def _traces(spec, count, seed=0):
    return [random_playout(spec, seed + i) for i in range(count)]


def _sig_tuples(distinct):
    return {(d.signature.mover, d.signature.piece, d.signature.origin_id,
             d.signature.action_types) for d in distinct}


def test_distinct_rules_flag(tictactoe, hexgame, amazons, breakthrough):
    # Shared rules: the mover does not participate in signatures.
    assert tictactoe.distinct_rules is False
    assert hexgame.distinct_rules is False
    assert breakthrough.distinct_rules is False
    # The Amazons play rule branches, so the mover matters.
    assert amazons.distinct_rules is True
    # The independent check agrees on all four games.
    for spec in (tictactoe, hexgame, amazons, breakthrough):
        assert oracles.players_rules_differ(spec) == spec.distinct_rules


def test_move_signature_components(tictactoe, amazons):
    move = legal_moves(tictactoe, initial_state(tictactoe))[0]
    sig = move_signature(move, tictactoe)
    assert sig == MoveSignature(None, "Disc", tictactoe.play.id, ("Add",))
    amove = legal_moves(amazons, initial_state(amazons))[0]
    asig = move_signature(amove, amazons)
    assert asig.mover == 1
    assert asig.piece == "Queen1"
    assert asig.action_types == ("Move", "SetMoverAgain")


def test_collect_distinct_matches_enumeration(tictactoe, hexgame, amazons, breakthrough):
    for spec, count in ((tictactoe, 40), (hexgame, 10), (amazons, 20), (breakthrough, 20)):
        distinct = collect_distinct(_traces(spec, count), spec)
        assert _sig_tuples(distinct) == oracles.enumerate_signatures(spec)


def test_expected_signature_counts(tictactoe, hexgame, amazons, breakthrough):
    assert len(oracles.enumerate_signatures(tictactoe)) == 2
    assert len(oracles.enumerate_signatures(hexgame)) == 2
    assert len(oracles.enumerate_signatures(amazons)) == 4
    assert len(oracles.enumerate_signatures(breakthrough)) == 4


def test_exemplar_is_earliest_occurrence(tictactoe):
    traces = _traces(tictactoe, 20)
    distinct = collect_distinct(traces, tictactoe)
    for d in distinct:
        seed, index = d.exemplar
        # No earlier occurrence of the same signature exists in the batch.
        for trace in traces:
            for i, move in enumerate(trace.moves):
                if move_signature(move, tictactoe) == d.signature:
                    assert (trace.seed, i) >= (seed, index)


def test_collect_distinct_is_batch_order_invariant(amazons):
    traces = _traces(amazons, 15)
    forward = collect_distinct(traces, amazons)
    backward = collect_distinct(list(reversed(traces)), amazons)
    assert forward == backward


def test_distinct_moves_carry_rule_text(tictactoe):
    distinct = collect_distinct(_traces(tictactoe, 5), tictactoe)
    assert all(d.rule_text == "Add one of your pieces to the set of empty cells."
               for d in distinct)


def test_similar_legal_moves(tictactoe, amazons):
    state = initial_state(tictactoe)
    move = legal_moves(tictactoe, state)[0]
    similar = similar_legal_moves(state, move, tictactoe)
    assert len(similar) == 9
    assert move in similar

    astate = initial_state(amazons)
    amove = legal_moves(amazons, astate)[0]
    similar = similar_legal_moves(astate, amove, amazons)
    assert similar == legal_moves(amazons, astate)  # all opening moves are slides


def test_tictactoe_ending_examples(tictactoe):
    endings = collect_endings(_traces(tictactoe, 100), tictactoe)
    keys = {(e.result_key[0], e.result_key[1]) for e in endings}
    assert keys == {("Win", (1,)), ("Win", (2,)), ("Draw", (1, 2))}
    for e in endings:
        if e.result_key[0] == "Win":
            assert e.winning_sites and len(e.winning_sites) >= 3
            assert "3 of their pieces" in e.text
        else:
            assert e.text == "If no player can move, the game ends in a draw."


def test_ending_exemplar_is_lowest_seed(tictactoe):
    traces = _traces(tictactoe, 50)
    endings = collect_endings(traces, tictactoe)
    for e in endings:
        earliest = min(t.seed for t in traces
                       if (t.outcome.outcome, t.outcome.players, t.outcome.end_id)
                       == e.result_key)
        assert e.exemplar_seed == earliest


def test_collect_endings_is_batch_order_invariant(tictactoe):
    traces = _traces(tictactoe, 50)
    forward = collect_endings(traces, tictactoe)
    shuffled = list(traces)
    random.Random(0).shuffle(shuffled)
    assert shuffled != traces
    assert collect_endings(list(reversed(traces)), tictactoe) == forward
    assert collect_endings(shuffled, tictactoe) == forward


def test_coverage_report(tictactoe, amazons):
    full = coverage_report(collect_distinct(_traces(amazons, 20), amazons), amazons)
    assert full["complete"] is True
    assert full["move_ludemes"] == amazons.move_ludeme_ids()
    empty = coverage_report([], tictactoe)
    assert empty["complete"] is False
    assert empty["unexercised"] == tictactoe.move_ludeme_ids()


GAMES = ["Amazons", "Breakthrough", "Hex", "TicTacToe", *SMALL_GAMES]


@lru_cache(maxsize=None)
def _batch(name):
    """A game's spec and 12 playouts, seeds 100-111."""
    spec = _spec(name)
    return spec, _traces(spec, 12, seed=100)


def _lowest_occurrences(traces, spec):
    """Each signature's lowest (seed, index), comparing every occurrence."""
    lowest = {}
    for trace in traces:
        for index, move in enumerate(trace.moves):
            sig = move_signature(move, spec)
            lowest[sig] = min(lowest.get(sig, (trace.seed, index)), (trace.seed, index))
    return lowest


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(GAMES), st.data())
def test_collect_distinct_keeps_lowest_occurrence(name, data):
    spec, traces = _batch(name)
    # Any non-empty subset of the batch, in any order.
    picked = data.draw(st.lists(st.sampled_from(range(len(traces))), min_size=1, unique=True))
    batch = [traces[i] for i in picked]
    want = _lowest_occurrences(batch, spec)
    got = collect_distinct(batch, spec)
    assert {d.signature: d.exemplar for d in got} == want
    assert [d.signature for d in got] == sorted(want, key=MoveSignature.sort_key)
    assert all(d.rule_text == translate_node(spec, d.signature.origin_id) for d in got)
