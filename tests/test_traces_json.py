"""traces.json from pipeline._write_traces against json.dumps of engine.trace_to_dict."""

import json
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_spec
from gamescribe.compiler import compile_game
from gamescribe.engine import EndMatch, Move, PlayoutTrace, random_playout, trace_to_dict
from gamescribe.pipeline import _write_traces
from gamescribe.sexpr import parse
from test_reference_playout import SMALL_GAMES


def _oracle(traces, spec) -> bytes:
    return (json.dumps([trace_to_dict(t, spec) for t in traces], indent=2) + "\n").encode()


def _written(traces, spec) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traces.json"
        _write_traces(path, traces, spec)
        return path.read_bytes()


# Strings that need escaping, besides whatever Hypothesis draws.
_AWKWARD = ["", '"', "\\", 'Q"ueen\\1', "Dämon", "\x00\x1f\x7f", "  ", "\ud800",
            "\U0001f451", "</script>"]
_strings = st.one_of(st.sampled_from(_AWKWARD), st.text(max_size=8))


@st.composite
def _case(draw):
    labels = draw(st.lists(_strings, min_size=1, max_size=6))
    site = st.integers(0, len(labels) - 1)
    kinds = st.tuples(st.sampled_from([("Add",), ("Move",), ("Remove", "Move")]), st.booleans())
    move = st.builds(
        lambda mover, piece, origin, kinds, src, dst:
            Move(mover, piece, origin, kinds[0] + ("SetMoverAgain",) * kinds[1], src, dst),
        st.integers(0, 4), _strings, st.integers(0, 10**6), kinds,
        site, site)
    # Moves drawn from a small pool repeat, as they do in real playouts.
    pool = draw(st.lists(move, min_size=1, max_size=4))
    outcome = st.builds(
        EndMatch, st.none() | st.integers(0, 10**6),
        st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple),
        st.sampled_from(["Win", "Loss", "Draw"]) | _strings,
        st.none() | st.lists(site, max_size=5).map(tuple))
    trace = st.builds(PlayoutTrace, st.integers(-2**63, 2**63),
                      st.lists(st.sampled_from(pool), max_size=8).map(tuple), outcome)
    traces = draw(st.lists(trace, max_size=4))
    spec = SimpleNamespace(board=SimpleNamespace(labels=labels))
    return traces, spec


@settings(max_examples=200, deadline=None)
@given(_case())
def test_writer_matches_json_dumps_on_generated_traces(case):
    traces, spec = case
    assert _written(traces, spec) == _oracle(traces, spec)


@pytest.mark.parametrize("name", ["Amazons", "Breakthrough", "Hex", "TicTacToe", *SMALL_GAMES])
def test_writer_matches_json_dumps_on_playouts(name):
    spec = compile_game(parse(SMALL_GAMES[name])) if name in SMALL_GAMES else load_spec(name)
    traces = [random_playout(spec, seed) for seed in range(10)]
    assert _written(traces, spec) == _oracle(traces, spec)
