"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import hashlib
import json
import random
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import goldens
import oracles
from conftest import CORPUS, load_spec, normalise
from gamescribe import engine
from gamescribe.engine import (GameState, Move, initial_state, legal_moves, random_playout,
                               replay)
from gamescribe.english import translate_game
from gamescribe.render import render_ending_pair, render_move_pair
from gamescribe.taxonomy import collect_distinct, collect_endings


def _verdict(number: int, label: str, ok: bool) -> None:
    print(f"[criterion {number}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {label}"


def _playouts(spec, seeds):
    return [random_playout(spec, s) for s in seeds]


def test_criterion_1_tictactoe_golden_translation():
    started = time.perf_counter()
    text = translate_game(load_spec("TicTacToe"))
    elapsed = time.perf_counter() - started
    ok = normalise(text) == normalise(goldens.TICTACTOE) and elapsed < 1.0
    _verdict(1, f"Tic-Tac-Toe golden translation in {elapsed:.3f}s", ok)


def test_criterion_2_hex_and_amazons_goldens(hexgame, amazons):
    ok = (normalise(translate_game(hexgame)) == normalise(goldens.HEX)
          and normalise(translate_game(amazons)) == normalise(goldens.AMAZONS))
    _verdict(2, "Hex and Amazons golden translations", ok)


def test_criterion_3_taxonomy_counts(tictactoe, amazons):
    started = time.perf_counter()
    results = {}
    for name, spec in (("Tic-Tac-Toe", tictactoe), ("Amazons", amazons)):
        distinct = collect_distinct(_playouts(spec, range(100)), spec)
        observed = {(d.signature.mover, d.signature.piece, d.signature.origin_id,
                     d.signature.action_types) for d in distinct}
        results[name] = (len(distinct), observed == oracles.enumerate_signatures(spec))
    elapsed = time.perf_counter() - started
    ok = (results["Tic-Tac-Toe"] == (2, True) and results["Amazons"] == (4, True)
          and elapsed < 5.0)
    _verdict(3, f"taxonomy counts 2/4 vs enumeration oracle in {elapsed:.2f}s", ok)


def test_criterion_4_endings_coverage(tictactoe, hexgame):
    ttt_traces = _playouts(tictactoe, range(100))
    endings = collect_endings(ttt_traces, tictactoe)
    keys = {(e.result_key[0], e.result_key[1]) for e in endings}
    ok = keys == {("Win", (1,)), ("Win", (2,)), ("Draw", (1, 2))} and len(endings) == 3
    # Re-evaluation invariant: replaying each exemplar reproduces its outcome.
    by_seed = {t.seed: t for t in ttt_traces}
    for e in endings:
        trace = by_seed[e.exemplar_seed]
        final = replay(tictactoe, trace)
        redo = engine.check_end(tictactoe, final, trace.moves[-1])
        ok = ok and redo is not None \
            and (redo.outcome, redo.players, redo.end_id) == e.result_key \
            and redo.winning_sites == trace.outcome.winning_sites
    hex_outcomes = {t.outcome.outcome for t in _playouts(hexgame, range(50))}
    ok = ok and hex_outcomes == {"Win"}
    _verdict(4, "Tic-Tac-Toe 3 endings with re-evaluation; Hex all wins", ok)


def test_criterion_5_oracle_equivalence(tictactoe, hexgame):
    started = time.perf_counter()
    rng = random.Random(12345)
    disagreements = 0

    for _ in range(10_000):
        contents = [None] * 9
        for i in range(9):
            roll = rng.random()
            if roll < 0.33:
                contents[i] = ("Disc", 1)
            elif roll < 0.66:
                contents[i] = ("Cross", 2)
        occupied = [i for i, c in enumerate(contents) if c is not None]
        if not occupied:
            continue
        site = rng.choice(occupied)
        fake = Move(contents[site][1], contents[site][0], tictactoe.play.id, (),
                    site, site)
        state = GameState(contents=contents, mover=1, move_count=0, last_move=fake)
        if engine._eval_line(tictactoe, state, tictactoe.end_rules[0].cond, fake.mover)[0] != \
                oracles.ttt_line_through(contents, site):
            disagreements += 1

    size = hexgame.board.rows
    sides = {1: (set(hexgame.board.sides["NE"]), set(hexgame.board.sides["SW"])),
             2: (set(hexgame.board.sides["NW"]), set(hexgame.board.sides["SE"]))}
    for _ in range(1_000):
        contents = [None] * (size * size)
        for i in range(size * size):
            roll = rng.random()
            if roll < 0.4:
                contents[i] = ("Marker1", 1)
            elif roll < 0.8:
                contents[i] = ("Marker2", 2)
        state = GameState(contents=contents, mover=1, move_count=0)
        for player in (1, 2):
            occupied = {i for i, c in enumerate(contents)
                        if c is not None and c[1] == player}
            got = engine._eval_connected(hexgame, state, hexgame.end_rules[0].cond, player)[0]
            want = oracles.hex_sides_connected(size, occupied, *sides[player])
            if got != want:
                disagreements += 1

    elapsed = time.perf_counter() - started
    ok = disagreements == 0 and elapsed < 30.0
    _verdict(5, f"line + connectivity oracles, 0 disagreements in {elapsed:.1f}s",
             ok)


def _tree_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def test_criterion_6_determinism(tmp_path):
    hashes = []
    for run in ("one", "two"):
        out = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "gamescribe.cli", "generate",
             "--game", str(CORPUS / "TicTacToe.lud"),
             "--game", str(CORPUS / "Amazons.lud"),
             "--playouts", "30", "--seed", "0",
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        hashes.append(_tree_hash(out))
    ok = hashes[0] == hashes[1]
    _verdict(6, "two generate runs byte-identical", ok)


def test_criterion_7_renderer_structure(breakthrough, tictactoe):
    state = initial_state(breakthrough)
    move = legal_moves(breakthrough, state)[0]
    before, after = render_move_pair(breakthrough, state, move, similar=False)
    ok = before.count('class="arrow"') == 1

    for seed in range(50):
        trace = random_playout(tictactoe, seed)
        if trace.outcome.outcome == "Win":
            break
    end_state = replay(tictactoe, trace, upto=len(trace.moves) - 1)
    end_before, end_after = render_ending_pair(tictactoe, end_state, trace.moves[-1])
    ok = ok and end_before.count('class="dot-red"') == 1
    ok = ok and end_after.count('class="dot-green"') == 3

    for svg in (before, after, end_before, end_after):
        try:
            ET.fromstring(svg)
        except ET.ParseError:
            ok = False
    _verdict(7, "arrow/dot counts and well-formed SVG", ok)


# corpus file stem -> (output directory name, expected distinct-signature count)
EXPECTED_MANUALS = {
    "TicTacToe": ("Tic-Tac-Toe", 2),
    "Hex": ("Hex", 2),
    "Amazons": ("Amazons", 4),
    "Breakthrough": ("Breakthrough", 4),
}


def test_criterion_8_manual_structure(tmp_path):
    ok = True
    for stem, (dir_name, leaves) in EXPECTED_MANUALS.items():
        proc = subprocess.run(
            [sys.executable, "-m", "gamescribe.cli", "generate",
             "--game", str(CORPUS / f"{stem}.lud"), "--playouts", "40",
             "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        game_dir = tmp_path / dir_name
        manifest = json.loads((game_dir / "manual.json").read_text())
        ok = ok and manifest["sections"] == ["Rules", "Heuristics", "Setup",
                                             "Endings", "Moves"]
        ok = ok and len(manifest["moves"]["leaves"]) == leaves
        html = (game_dir / "manual.html").read_text()
        body = "\n".join(l for l in html.splitlines() if not l.startswith("<!DOCTYPE"))
        try:
            ET.fromstring(body)
        except ET.ParseError:
            ok = False
    _verdict(8, "manual.json sections + one leaf per signature; HTML well-formed", ok)


def test_criterion_9_strategy_golden():
    from gamescribe.compiler import compile_game
    from gamescribe.sexpr import parse
    from gamescribe.strategy import explain_heuristics, parse_heuristics
    pieces = " ".join(f'(piece "{n}" Each (move Step (directions Adjacent)))'
                      for n in ("Pawn", "Rook", "Bishop", "Knight", "Queen"))
    spec = compile_game(parse(
        f'(game "Court" (players 2) (equipment {{(board (square 8)) {pieces}}}) '
        f'(rules (play (forEach Piece)) '
        f'(end (if (no Moves Next) (result Mover Win)))))'))
    text = "(heuristics {" + " ".join(
        f'(material "{name}" {weight})'
        for name, weight in [("Pawn", "0.1"), ("Rook", "0.5"), ("Bishop", "0.3"),
                             ("Knight", "0.25"), ("Queen", "1.0")]) + "})"
    lines = explain_heuristics(parse_heuristics(text), spec)
    ok = lines == goldens.STRATEGY_LINES
    _verdict(9, "five material heuristics with bucketed importance labels", ok)
