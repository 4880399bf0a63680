"""traces.json from pipeline._trace_sink and _write_traces: `%` in names, and the
writer's peak memory.

The sink fills one `%`-template per move signature, so a `%` in a piece
name, a site label or an outcome must come out as written.  It streams the
text trace by trace, and the writer copies it in chunks, so their peak
memory stays below the file's size.
"""

import tempfile
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_spec
from gamescribe.compiler import compile_game
from gamescribe.engine import EndMatch, Move, PlayoutTrace, random_playout
from gamescribe.pipeline import _trace_sink, _write_traces
from gamescribe.sexpr import parse
from test_traces_json import _oracle, _written

_PERCENT = ["%", "%%", "%s", "%d", "%(f)s", "%(t)s", "100%", "%%(f)s", "A%1"]
_strings = st.sampled_from(_PERCENT)


def _board(labels):
    return SimpleNamespace(board=SimpleNamespace(labels=labels))


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
    pool = draw(st.lists(move, min_size=1, max_size=4))
    outcome = st.builds(
        EndMatch, st.none() | st.integers(0, 10**6),
        st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple), _strings,
        st.none() | st.lists(site, max_size=5).map(tuple))
    trace = st.builds(PlayoutTrace, st.integers(0, 10**6),
                      st.lists(st.sampled_from(pool), max_size=8).map(tuple), outcome)
    return draw(st.lists(trace, max_size=4)), _board(labels)


@settings(max_examples=200, deadline=None)
@given(_case())
def test_writer_matches_json_dumps_with_percent_in_names(case):
    traces, spec = case
    assert _written(traces, spec) == _oracle(traces, spec)


@pytest.mark.parametrize("traces", [
    [],
    [PlayoutTrace(3, (), EndMatch(None, (1, 2), "Draw"))],
    [PlayoutTrace(0, (Move(1, "%(f)s", 5, ("Add",), 0, 0),), EndMatch(7, (1,), "Win", (0,))),
     PlayoutTrace(1, (), EndMatch(7, (2,), "100%", ()))],
], ids=["no-traces", "zero-move-trace", "percent-move-then-zero-moves"])
def test_writer_matches_json_dumps_on_edge_traces(traces):
    spec = _board(["%s", "%(t)s"])
    assert _written(traces, spec) == _oracle(traces, spec)


# P1 adds on even move counts, and both players step and capture: Add, Move
# and capture templates each bake in a piece name that holds a `%`.
PERCENT_GAME = (
    '(game "Percent" (players 2) (equipment {(board (square 4)) '
    '(piece "D%(f)s" P1 (move Step (directions Adjacent))) '
    '(piece "C%d" P2 (move Step (directions Adjacent))) '
    '(regions P1 {(sites Side S) (sites Side N)}) (regions P2 {(sites Side W) (sites Side E)})}) '
    '(rules (start {(place "D%(f)s" {"A1"}) (place "C%d" {"D4"})}) '
    '(play (if (is Even (count Moves)) (move Add (to (sites Empty))) (forEach Piece))) '
    '(end (if (or (is Connected Mover) (no Moves Next)) (result Mover Win)))))')


def test_writer_matches_json_dumps_on_percent_named_pieces():
    spec = compile_game(parse(PERCENT_GAME))
    traces = [random_playout(spec, seed) for seed in range(20)]
    kinds = {m.action_types for t in traces for m in t.moves}
    assert {("Add",), ("Move",), ("Remove", "Move")} <= kinds
    assert _written(traces, spec) == _oracle(traces, spec)


def test_writer_peak_memory_stays_below_file_size(tmp_path):
    spec = load_spec("Amazons")
    traces = [random_playout(spec, seed) for seed in range(100)]
    path = tmp_path / "traces.json"
    with tempfile.TemporaryFile() as part:
        tracemalloc.start()
        try:
            sink = _trace_sink(spec, part)
            for trace in traces:
                sink(trace)
            _write_traces(path, [(part, 0, part.tell())])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = path.stat().st_size
    assert peak < size, f"writer peak {peak:,} bytes for a {size:,}-byte file"
