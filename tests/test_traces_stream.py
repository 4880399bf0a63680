"""traces.json from pipeline._trace_sink and _write_traces: `%` in names, and the
writer's memory.

The sink fills one template per move signature, with a NUL sentinel where
each site label goes, and never `%`-formats a move, so a `%` in a piece
name, a site label or an outcome must come out as written.  It streams the
text trace by trace, and the writer copies it in chunks, so their peak
memory stays below the file's size.  It keeps a move's text only when the
move's from and to are one site, and otherwise one split template per
(signature, from-site), so what it holds is bounded by the board, not by
the number of traces.
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
from gamescribe import pipeline
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


def test_writer_matches_json_dumps_with_sentinels_in_names():
    # The templates mark each label's place with a NUL sentinel; json's
    # encoder writes a NUL in a name as \u0000, so names that hold the
    # sentinels come out as written, whether a move keeps its site or not.
    spec = _board(["\0f", "\0t", "\0"])
    moves = (Move(1, "\0t\0f", 5, ("Add",), 1, 1), Move(2, "\0f", 6, ("Move",), 0, 1),
             Move(1, "\0t", 7, ("Remove", "Move", "SetMoverAgain"), 2, 0))
    traces = [PlayoutTrace(0, moves, EndMatch(7, (1,), "\0t", (0, 1))),
              PlayoutTrace(1, moves[::-1], EndMatch(None, (1, 2), "Draw"))]
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


@pytest.fixture(scope="module")
def amazons_traces():
    spec = load_spec("Amazons")
    return spec, [random_playout(spec, seed) for seed in range(300)]


def test_writer_peak_memory_stays_below_file_size(tmp_path, amazons_traces):
    spec, traces = amazons_traces
    path = tmp_path / "traces.json"
    with tempfile.TemporaryFile() as part:
        tracemalloc.start()
        try:
            sink = _trace_sink(spec, part)
            for trace in traces[:100]:
                sink(trace)
            _write_traces(path, [(part, 0, part.tell())])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = path.stat().st_size
    assert peak < size, f"writer peak {peak:,} bytes for a {size:,}-byte file"


def test_writer_holds_at_most_one_text_and_head_per_signature_and_site(monkeypatch,
                                                                       amazons_traces):
    # 100 and then 200 more Amazons traces through one sink: about 2 in 3 of
    # their moves are distinct, and none stays on its site, so a memo of every
    # move would grow with the traces.
    made = []

    class Recorded(pipeline._MoveTexts):
        def __init__(self, labels):
            super().__init__(labels)
            made.append(self)

    monkeypatch.setattr(pipeline, "_MoveTexts", Recorded)
    spec, traces = amazons_traces
    bound = len({move[:4] for trace in traces for move in trace.moves}) * len(spec.board.labels)
    held = []
    with tempfile.TemporaryFile() as part:
        tracemalloc.start()
        try:
            sink = _trace_sink(spec, part)
            for batch in traces[:100], traces[100:]:
                for trace in batch:
                    sink(trace)
                held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
    [texts] = made
    assert len(texts) <= bound, f"{len(texts):,} texts for {bound:,} (signature, site) pairs"
    assert len(texts.heads) <= bound, f"{len(texts.heads):,} heads for {bound:,} pairs"
    assert held[1] <= held[0] + 32 * 1024, f"held {held[0]:,} bytes at 100 traces, {held[1]:,} at 300"
