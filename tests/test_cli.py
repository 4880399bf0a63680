import argparse
import collections
import contextlib
import errno
import hashlib
import io
import json
import marshal
import os
import select
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
import urllib.parse
import xml.dom.minidom

import pytest

import goldens
from conftest import CORPUS, REPO_ROOT, normalise
from gamescribe import cli, engine, pipeline
from gamescribe.cli import main
from gamescribe.manual import MissingAsset


def _run(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "gamescribe.cli", *argv],
                          capture_output=True, text=True, cwd=cwd)


def test_translate_prints_golden():
    proc = _run("translate", "--game", str(CORPUS / "TicTacToe.lud"))
    assert proc.returncode == 0
    assert normalise(proc.stdout) == normalise(goldens.TICTACTOE)


def test_missing_file_exits_2(tmp_path):
    proc = _run("translate", "--game", str(tmp_path / "nope.lud"))
    assert proc.returncode == 2
    assert "not found" in proc.stderr


def test_parse_error_exits_3(tmp_path):
    bad = tmp_path / "bad.lud"
    bad.write_text('(game "Broken" (players 2)')
    proc = _run("translate", "--game", str(bad))
    assert proc.returncode == 3
    assert "parse failed" in proc.stderr


def test_compile_error_exits_3(tmp_path):
    bad = tmp_path / "bad.lud"
    bad.write_text('(game "Broken" (players 2) '
                   '(equipment {(board (square 3)) (piece "Disc" P7)}) '
                   '(rules (play (move Add (to (sites Empty)))) '
                   '(end (if (is Line 3) (result Mover Win)))))')
    proc = _run("translate", "--game", str(bad))
    assert proc.returncode == 3
    assert "compile failed" in proc.stderr


def test_endless_game_exits_4(tmp_path):
    game = tmp_path / "wander.lud"
    # A lone marker never makes a line of three, so the game never ends.
    game.write_text('(game "Wander" (players 1) '
                    '(equipment {(board (square 3)) '
                    '(piece "Marker" P1 (move Step (directions Adjacent)))}) '
                    '(rules (start (place "Marker" {"A1"})) '
                    '(play (forEach Piece)) '
                    '(end (if (is Line 3) (result Mover Win)))))')
    proc = _run("generate", "--game", str(game), "--playouts", "1",
                "--out", str(tmp_path / "out"))
    assert proc.returncode == 4
    assert "no terminal state" in proc.stderr
    assert not (tmp_path / "out").exists()


def _generate_argv(out, games, *options):
    argv = ["generate", "--out", str(out), *options]
    for game in games:
        argv += ["--game", str(CORPUS / f"{game}.lud")]
    return argv


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _capped_breakthrough(tmp_path, monkeypatch, capsys, cpus, later):
    # Tic-Tac-Toe is written in full; Breakthrough's seed 2 hits the cap, so
    # none of Breakthrough is written, no later game and no index.html either.
    # A forked worker may play a range of any game, so each call is recorded
    # in a file per game, where this process reads it.  Each fork is recorded
    # likewise: only this process forks, so killing a worker leaves nothing
    # running.
    playout = engine.random_playout
    fork = os.fork

    def logged_fork():
        with open(tmp_path / "forks", "a") as log:
            log.write(f"{os.getpid()}\n")
        return fork()

    monkeypatch.setattr(os, "fork", logged_fork)

    def capped(spec, seed, **kwargs):
        with open(tmp_path / f"{spec.name}.played", "a") as log:
            log.write(f"{seed}\n")
        if spec.name == "Breakthrough" and seed == 2:
            raise engine.PlayoutLimitExceeded("no terminal state after 10000 moves")
        return playout(spec, seed, **kwargs)

    monkeypatch.setattr(engine, "random_playout", capped)
    out = tmp_path / "out"
    assert main(_generate_argv(out, ["TicTacToe", "Breakthrough", *later],
                               "--playouts", "5", "--format", "json")) == 4
    assert "no terminal state" in capsys.readouterr().err
    # Seed 2's range stops at it: a worker's range start..2 ends unreported
    # and is played again here, once, and the ranges above it may have been
    # played before their workers were killed.
    ways = min(cpus, 5)
    bounds = [5 * k // ways for k in range(ways + 1)]
    start, stop = max(b for b in bounds if b <= 2), min(b for b in bounds if b > 2)
    played = {name: collections.Counter(
        int(seed) for seed in (tmp_path / f"{name}.played").read_text().split())
        for name in ("Tic-Tac-Toe", "Breakthrough")}
    assert played["Tic-Tac-Toe"] == collections.Counter(range(5))
    breakthrough = played["Breakthrough"]
    assert {seed for seed, count in breakthrough.items() if count > 1} == (
        set(range(start, 3)) if start > 0 else set())
    assert max(breakthrough.values()) <= 2
    assert {0, 1, 2} <= set(breakthrough) <= {0, 1, 2, *range(stop, 5)}
    assert [p.name for p in out.iterdir()] == ["Tic-Tac-Toe"]
    _assert_no_child_left()
    assert set((tmp_path / "forks").read_text().split()) == {str(os.getpid())}
    alone = tmp_path / "alone"
    assert main(_generate_argv(alone, ["TicTacToe"], "--playouts", "5", "--format", "json")) == 0
    assert _files(out) == _files(alone)


@pytest.mark.parametrize("cpus", [2, 4])
def test_capped_playout_writes_nothing_of_its_game(cpus, tmp_path, monkeypatch, capsys):
    # A worker plays seed 2 of Breakthrough, in the range after this process's.
    _cpus(monkeypatch, cpus)
    _capped_breakthrough(tmp_path, monkeypatch, capsys, cpus, [])


@pytest.mark.parametrize("cpus", [3, 6])
def test_capped_playout_writes_no_later_game(cpus, tmp_path, monkeypatch, capsys):
    # The workers may play their ranges of Hex while this process plays and
    # writes Tic-Tac-Toe, and are killed, having written nothing.
    _cpus(monkeypatch, cpus)
    _capped_breakthrough(tmp_path, monkeypatch, capsys, cpus, ["Hex"])


def test_generate_writes_expected_tree(tmp_path):
    out = tmp_path / "out"
    proc = _run("generate", "--game", str(CORPUS / "TicTacToe.lud"),
                "--playouts", "20", "--out", str(out))
    assert proc.returncode == 0
    game_dir = out / "Tic-Tac-Toe"
    assert f"wrote {game_dir / 'manual.html'}" in proc.stdout
    assert (game_dir / "manual.html").is_file()
    assert (game_dir / "svg" / "setup.svg").is_file()
    manifest = json.loads((game_dir / "manual.json").read_text())
    assert manifest["sections"] == ["Rules", "Heuristics", "Setup", "Endings", "Moves"]
    assert not (game_dir / "traces.json").exists()


def test_generate_json_format_dumps_traces(tmp_path):
    out = tmp_path / "out"
    proc = _run("generate", "--game", str(CORPUS / "TicTacToe.lud"),
                "--playouts", "5", "--out", str(out), "--format", "json")
    assert proc.returncode == 0
    game_dir = out / "Tic-Tac-Toe"
    traces = json.loads((game_dir / "traces.json").read_text())
    assert len(traces) == 5
    assert traces[0]["seed"] == 0
    assert (game_dir / "taxonomy.json").is_file()


def test_generate_multiple_games_writes_index(tmp_path):
    out = tmp_path / "out"
    proc = _run("generate", "--game", str(CORPUS / "TicTacToe.lud"),
                "--game", str(CORPUS / "Breakthrough.lud"),
                "--playouts", "10", "--out", str(out))
    assert proc.returncode == 0
    index = (out / "index.html").read_text()
    assert 'href="Tic-Tac-Toe/manual.html"' in index
    assert 'href="Breakthrough/manual.html"' in index


def test_index_escapes_game_names(tmp_path):
    name = "Noughts & <Crosses> #1's?"
    game = tmp_path / "noughts.lud"
    game.write_text((CORPUS / "TicTacToe.lud").read_text().replace("Tic-Tac-Toe", name))
    out = tmp_path / "out"
    assert main(["generate", "--game", str(game), "--game", str(CORPUS / "Hex.lud"),
                 "--playouts", "3", "--out", str(out)]) == 0
    assert ">Noughts &amp; &lt;Crosses&gt; #1&#x27;s?</a>" in (out / "index.html").read_text()
    links = xml.dom.minidom.parse(str(out / "index.html")).getElementsByTagName("a")
    assert [a.firstChild.data for a in links] == [name, "Hex"]
    for a in links:
        assert (out / urllib.parse.unquote(a.getAttribute("href"))).is_file()


def test_svgs_and_manual_escape_piece_names(tmp_path):
    names = ["D&lt;isc", "Cr<oss"]
    game = tmp_path / "marks.lud"
    game.write_text((CORPUS / "TicTacToe.lud").read_text()
                    .replace('"Disc"', f'"{names[0]}"').replace('"Cross"', f'"{names[1]}"'))
    out = tmp_path / "out"
    assert main(["generate", "--game", str(game), "--playouts", "10", "--out", str(out)]) == 0
    game_dir = out / "Tic-Tac-Toe"
    pieces = set()
    for path in [game_dir / "manual.html", *sorted(game_dir.glob("svg/*.svg"))]:
        doc = xml.dom.minidom.parse(str(path))  # raises on text that is not well-formed
        pieces |= {g.getAttribute("data-piece") for g in doc.getElementsByTagName("g")
                   if g.getAttribute("class") == "glyph"}
    assert pieces == set(names)


def test_playout_stats_reports_counts():
    proc = _run("playout-stats", "--game", str(CORPUS / "TicTacToe.lud"),
                "--playouts", "30")
    assert proc.returncode == 0
    assert "30 playouts" in proc.stdout
    assert "distinct move signatures: 2" in proc.stdout
    assert "move-rule coverage: complete" in proc.stdout


def test_playout_stats_names_unexercised_move_ludemes(tmp_path, capsys):
    # P1's Ghost is never placed, so its Step (ludeme 22) is never played.
    game = tmp_path / "ghosts.lud"
    game.write_text('(game "Ghosts" (players 2) (equipment {(board (square 3)) '
                    '(piece "Disc" Each) (piece "Ghost" P1 (move Step))}) '
                    '(rules (play (move Add (to (sites Empty)))) '
                    '(end (if (is Line 3) (result Mover Win)))))')
    assert main(["playout-stats", "--game", str(game), "--playouts", "5"]) == 0
    assert capsys.readouterr().out == (
        "Ghosts: 5 playouts, seeds 0..4\n"
        "  Win P1: 4\n"
        "  Win P2: 1\n"
        "  distinct move signatures: 2\n"
        "  move-rule coverage: INCOMPLETE (unexercised ludemes: 22)\n")


def test_main_callable_in_process(capsys):
    rc = main(["translate", "--game", str(CORPUS / "Hex.lud")])
    assert rc == 0
    out = capsys.readouterr().out
    assert normalise(out) == normalise(goldens.HEX)


def test_heuristics_flag_feeds_strategy_section(tmp_path):
    heur = tmp_path / "h.lud"
    heur.write_text('(heuristics {(material "Disc" 0.9)})')
    out = tmp_path / "out"
    proc = _run("generate", "--game", str(CORPUS / "TicTacToe.lud"),
                "--playouts", "10", "--out", str(out),
                "--heuristics", str(heur))
    assert proc.returncode == 0
    manifest = json.loads((out / "Tic-Tac-Toe" / "manual.json").read_text())
    assert manifest["heuristics"]["placeholder"] is False
    assert manifest["heuristics"]["lines"] == [
        "Try to maximise the number of Disc(s) you control (very high importance)"]


# Malformed heuristics files: (source, the entry the error points at).
BAD_HEURISTICS = {
    "material-without-piece": ("(heuristics { (material 0.3) })", "(material"),
    "mobility-without-weight": ("(heuristics { (mobility) })", "(mobility"),
    "piece-name-not-a-string": ("(heuristics { (material Pawn 0.3) })", "(material"),
    "unknown-kind": ("(heuristics { (foo 1) })", "(foo"),
    "entry-not-a-call": ("(heuristics 5)", "5"),
    "infinite-weight": ("(heuristics { (lineCompletion 3 inf) })", "(lineCompletion"),
    "unknown-piece": ('(heuristics { (material "Nope" 0.3) })', "(material"),
    "entry-outside-heuristics": ('(material "Nope" 0.3)', "(material"),
    "line-length-not-a-number": ('(heuristics { (lineCompletion "x" 0.5) })', "(lineCompletion"),
    "unclosed-brace": ('(heuristics {(material "Disc" 0.9)', "{"),
    "line-of-one": ("(heuristics {(mobility 0.3) (lineCompletion 1 0.5)})", "(lineCompletion"),
    "line-longer-than-board": ("(heuristics {(lineCompletion 4 0.5)})", "(lineCompletion"),
    "unknown-piece-zero-weight": ('(heuristics {(material "Nope" 0)})', "(material"),
    "weight-not-a-number": ("(heuristics {(mobility abc)})", "(mobility"),
}


@pytest.mark.parametrize("name", sorted(BAD_HEURISTICS))
def test_malformed_heuristics_exit_3(tmp_path, capsys, name):
    source, culprit = BAD_HEURISTICS[name]
    heur = tmp_path / "h.lud"
    heur.write_text(source)
    rc = main(["generate", "--game", str(CORPUS / "TicTacToe.lud"), "--playouts", "3",
               "--out", str(tmp_path / "out"), "--heuristics", str(heur)])
    err = capsys.readouterr().err
    assert rc == 3
    assert f"heuristics file {heur}" in err
    assert f"(at offset {source.index(culprit)})" in err
    assert not (tmp_path / "out").exists()


def test_heuristics_failing_a_later_game_writes_nothing(tmp_path, capsys):
    heur = tmp_path / "h.lud"
    heur.write_text('(heuristics {(material "Pawn" 0.5)})')
    out = tmp_path / "out"
    rc = main(["generate", "--game", str(CORPUS / "Breakthrough.lud"),
               "--game", str(CORPUS / "Hex.lud"), "--playouts", "3", "--out", str(out),
               "--heuristics", str(heur)])
    err = capsys.readouterr().err
    assert rc == 3
    assert not out.exists()  # Breakthrough's manual included
    assert err == (f"error: heuristics file {heur}: (material \"Pawn\" ...) names no piece "
                   "of the game 'Hex' (at offset 13)\n")


def test_heuristics_file_is_read_and_parsed_once(tmp_path, monkeypatch):
    heur = tmp_path / "h.lud"
    heur.write_text("(heuristics {(mobility 0.3)})")
    calls = []

    def count(name):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args: calls.append(name) or fn(*args))

    for name in ("read_source", "parse_heuristics", "explain_heuristics"):
        count(name)
    out = tmp_path / "out"
    assert main(["generate", "--game", str(CORPUS / "TicTacToe.lud"),
                 "--game", str(CORPUS / "Hex.lud"), "--playouts", "3", "--out", str(out),
                 "--heuristics", str(heur)]) == 0
    assert calls == ["read_source", "parse_heuristics", "explain_heuristics",
                     "explain_heuristics"]
    for name in ("Tic-Tac-Toe", "Hex"):
        manifest = json.loads((out / name / "manual.json").read_text())
        assert manifest["heuristics"]["lines"] == [
            "Try to maximise the number of moves available to you (low importance)"]


def test_line_completion_on_a_one_site_board(tmp_path, capsys):
    game, heur = tmp_path / "dot.lud", tmp_path / "h.lud"
    game.write_text(_game('(piece "Disc" Each)', "(move Add (to (sites Empty)))",
                          end="(no Moves Next)").replace("(square 3)", "(square 1)"))
    heur.write_text("(heuristics {(lineCompletion 2 0.5)})")
    out = tmp_path / "out"
    assert main(["generate", "--game", str(game), "--playouts", "3", "--out", str(out),
                 "--heuristics", str(heur)]) == 3
    assert capsys.readouterr().err == (
        f"error: heuristics file {heur}: (lineCompletion 2 ...) can never hold: the board's "
        "longest line has 1 site, in the game 'Bad' (at offset 13)\n")
    assert not out.exists()


def _game(equipment: str, play: str, end: str = "(is Line 3)", start: str = "") -> str:
    return (f'(game "Bad" (players 2) (equipment {{(board (square 3)) {equipment}}}) '
            f'(rules {start} (play {play}) (end (if {end} (result Mover Win)))))')


# Games the engine cannot run or the writer cannot place under --out:
# (source, the ludeme the error points at).
UNRUNNABLE = {
    "step-outside-piece-rule": (
        _game('(piece "Disc" Each)', "(move Step (directions Adjacent))"), "(move Step"),
    "slide-in-play-branch": (
        _game('(piece "Disc" Each)', "(if (is Even (count Moves)) (move Add (to (sites Empty))) "
              "(move Slide (directions Orthogonal)))"), "(move Slide"),
    "piece-rule-not-a-move": (
        _game('(piece "Disc" Each (forEach Piece))', "(forEach Piece)",
              start='(start (place "Disc1" {"A1"}))'), "(forEach Piece)"),
    "argument-the-kind-cannot-use": (
        _game('(piece "Disc" Each)', "(move Add (directions Adjacent) (to (sites Empty)))"),
        "(directions Adjacent)"),
    "target-is-not-a-site-set": (
        _game('(piece "Disc" Each)', "(move Add (to (sites N)))"), "(sites N)"),
    "if-branch-not-a-play-rule": (
        _game('(piece "Disc" Each)', "(if (is Even (count Moves)) (result Mover Win))"),
        "(result Mover Win)"),
    "direction-the-board-lacks": (
        _game('(piece "Disc" Each (move Step (directions Forward)))', "(forEach Piece)",
              start='(start (place "Disc1" {"A1"}))').replace("(square 3)", "(hex Diamond 3)"),
        "(move Step"),
    "forward-for-p3": (
        _game('(piece "Disc" Each (move Step (directions Forward)))', "(forEach Piece)",
              start='(start (place "Disc1" {"A1"}))').replace("(players 2)", "(players 3)"),
        "(move Step"),
    "diagonal-on-hex": (
        _game('(piece "Disc" Each (move Slide (directions Diagonal)))', "(forEach Piece)",
              start='(start (place "Disc1" {"A1"}))').replace("(square 3)", "(hex Diamond 3)"),
        "(move Slide"),
    "shot-piece-not-declared": (
        _game('(piece "Disc" Each)', "(if (is Even (count Moves)) (move Add (to (sites Empty))) "
              '(move Shoot (piece "Arrow")))'), "(move Shoot"),
    "line-length-not-a-number": (
        _game('(piece "Disc" Each)', "(move Add (to (sites Empty)))", end="(is Line Mover)"),
        "(is Line Mover)"),
    "even-without-count": (
        _game('(piece "Disc" Each)', "(move Add (to (sites Empty)))", end="(is Even Mover)"),
        "(is Even Mover)"),
    "name-escapes-out-dir": (
        _game('(piece "Disc" Each)', "(move Add (to (sites Empty)))")
        .replace('"Bad"', '"../Bad"'), '"../Bad"'),
    "board-without-rows": (
        _game('(piece "Disc" Each)', "(move Add (to (sites Empty)))")
        .replace("(square 3)", "(square 0)"), "(square 0)"),
    "add-for-player-without-piece": (
        _game('(piece "Disc" P1)', "(move Add (to (sites Empty)))"), "(move Add"),
    "no-moves-decides-play": (
        _game('(piece "Disc" Each)', "(if (no Moves Next) (move Add (to (sites Empty))) "
              "(move Add (to (sites Empty))))"), "(no Moves Next)"),
    "no-moves-under-or-decides-play": (
        _game('(piece "Disc" Each)', "(if (or (is Even (count Moves)) (and (no Moves Next))) "
              "(move Add (to (sites Empty))))"), "(no Moves Next)"),
    "connected-of-another-player": (
        _game('(piece "Disc" Each)', "(move Add (to (sites Empty)))", end="(is Connected P2)"),
        "P2"),
    "in-of-another-player": (
        _game('(piece "Disc" Each)', "(move Add (to (sites Empty)))", end="(is In P2)"), "P2"),
    "line-argument-after-length": (
        _game('(piece "Disc" Each)', "(move Add (to (sites Empty)))", end="(is Line 3 Mover)"),
        "Mover"),
    "even-argument-after-count": (
        _game('(piece "Disc" Each)',
              "(if (is Even (count Moves) 7) (move Add (to (sites Empty))))"), "7"),
    "line-length-0": (
        _game('(piece "Disc" Each)', "(move Add (to (sites Empty)))", end="(is Line 0)"), "0)"),
    "line-length-1": (
        _game('(piece "Disc" Each)', "(move Add (to (sites Empty)))", end="(is Line 1)"), "1)"),
    "connected-without-regions": (
        _game('(piece "Disc" Each)', "(move Add (to (sites Empty)))",
              end="(and (is Line 3) (is Connected Mover))"), "(is Connected"),
    "in-without-regions": (
        _game('(piece "Disc" Each)', "(move Add (to (sites Empty)))",
              end="(or (is Line 3) (and (is Even (count Moves)) (is In Mover)))"), "(is In"),
    "result-player-beyond-count": (
        _game('(piece "Disc" Each)', "(move Add (to (sites Empty)))")
        .replace("(result Mover Win)", "(result P3 Win)"), "P3 Win"),
    "add-without-target": (
        _game('(piece "Disc" Each)', "(move Add (then (moveAgain)))"), "(move Add (then"),
    "line-longer-than-board": (
        _game('(piece "Disc" Each)', "(move Add (to (sites Empty)))", end="(is Line 4)"), "4)"),
    "line-longer-than-one-site-board": (
        _game('(piece "Disc" Each)', "(move Add (to (sites Empty)))", end="(is Line 2)")
        .replace("(square 3)", "(square 1)"), "2) (result"),
    "end-rule-else-branch": (
        _game('(piece "Disc" Each)', "(move Add (to (sites Empty)))")
        .replace("(result Mover Win)", "(result Mover Win) (result Next Win)"),
        "(result Next Win)"),
    "shoot-piece-with-owner-and-rule": (
        _game('(piece "Disc" Each) (piece "Dot" Neutral)',
              "(if (is Even (count Moves)) (move Add (to (sites Empty))) "
              '(move Shoot (piece "Dot0" Neutral (move Add (to (sites Empty))))))'),
        "Neutral (move Add"),
    "move-argument-twice": (
        _game('(piece "Disc" Each)', "(move Add (to (sites Empty)) (to (sites Side N)))"),
        "(to (sites Side N))"),
    "one-name-two-owners": (
        _game('(piece "Pawn" P1 (move Step (directions Forward))) '
              '(piece "Pawn" P2 (move Step (directions Forward)))', "(forEach Piece)",
              start='(start (place "Pawn" {"A1" "C3"}))'), '(piece "Pawn" P2'),
    "explicit-owner-of-an-each-name": (
        _game('(piece "Disc" Each (move Step (directions Adjacent))) (piece "Disc2" P1)',
              "(forEach Piece)", start='(start (place "Disc1" {"A1"}))'), '(piece "Disc2" P1)'),
    "one-name-twice-for-one-owner": (
        _game('(piece "Disc" Each (move Step (directions Adjacent))) '
              '(piece "Disc1" P1 (move Slide (directions Orthogonal)))', "(forEach Piece)",
              start='(start (place "Disc1" {"A1"}))'), '(piece "Disc1" P1'),
    "add-without-arguments": (_game('(piece "Disc" Each)', "(move Add)"), "(move Add)"),
    "shoot-without-arguments": (
        _game('(piece "Disc" Each)', "(if (is Even (count Moves)) (move Add (to (sites Empty))) "
              "(move Shoot))"), "(move Shoot)"),
    "line-without-length": (
        _game('(piece "Disc" Each)', "(move Add (to (sites Empty)))", end="(is Line)"),
        "(is Line)"),
    "even-without-arguments": (
        _game('(piece "Disc" Each)', "(if (is Even) (move Add (to (sites Empty))))"),
        "(is Even)"),
    "start-placement-conflict": (
        _game('(piece "Disc" Each)', "(move Add (to (sites Empty)))",
              start='(start {(place "Disc1" {"A1"}) (place "Disc2" {"B1" "A1"})})'),
        '"A1"})})'),
    "from-outside-the-subset": (
        _game('(piece "Disc" Each)', "(move Add (from (sites Empty)) (to (sites Empty)))"),
        "from (sites"),
    "line-length-after-a-role": (
        _game('(piece "Disc" Each)', "(move Add (to (sites Empty)))", end="(is Line Mover 3)"),
        "Mover 3)"),
    "add-with-directions-only": (
        _game('(piece "Disc" Each)', "(move Add (directions Adjacent))"), "(move Add"),
}


@pytest.mark.parametrize("name", sorted(UNRUNNABLE))
def test_unrunnable_rule_exits_3_at_compile_time(tmp_path, capsys, name):
    source, culprit = UNRUNNABLE[name]
    game = tmp_path / "bad.lud"
    game.write_text(source)
    rc = main(["generate", "--game", str(game), "--playouts", "3",
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "compile failed" in err
    assert f"(at offset {source.index(culprit)})" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name,message", [
    ("add-without-arguments", "(move Add ...) needs (to ...) naming its sites"),
    ("shoot-without-arguments", "(move Shoot ...) needs (piece ...) naming a declared piece"),
    ("line-without-length", "(is Line ...) needs a line length"),
    ("even-without-arguments", "(is Even ...) needs (count Moves)"),
    ("from-outside-the-subset", "ludeme 'from' is outside the supported subset"),
    ("line-length-after-a-role", "(is Line ...) cannot use Mover"),
    ("add-with-directions-only", "(move Add ...) needs (to ...) naming its sites"),
    ("line-longer-than-one-site-board",
     "(is Line ...) can never hold: the board's longest line has 1 site"),
])
def test_bare_form_gets_the_compilers_message(tmp_path, capsys, name, message):
    game = tmp_path / "bare.lud"
    game.write_text(UNRUNNABLE[name][0])
    assert main(["translate", "--game", str(game)]) == 3
    assert f"error: compile failed: {message} (at offset" in capsys.readouterr().err


# (corpus game, form in the file, bare or reordered form, the explicit form it stands for)
BARE_FORMS = {
    "is-connected": ("Hex", "(is Connected Mover)", "(is Connected)", "(is Connected Mover)"),
    "is-in": ("Breakthrough", "(is In Mover)", "(is In)", "(is In Mover)"),
    "move-step": ("Breakthrough", "(move Step (directions { Forward FL FR }))", "(move Step)",
                  "(move Step (directions Adjacent))"),
    "move-slide": ("Amazons", "(move Slide (then (moveAgain)))", "(move Slide)",
                   "(move Slide (directions Adjacent))"),
    "move-slide-then-first": ("Amazons", "(move Slide (then (moveAgain)))",
                              "(move Slide (then (moveAgain)) (directions Adjacent))",
                              "(move Slide (directions Adjacent) (then (moveAgain)))"),
    "move-shoot-then-first": ("Amazons", '(move Shoot (piece "Dot0"))',
                              '(move Shoot (then (moveAgain)) (piece "Dot0"))',
                              '(move Shoot (piece "Dot0") (then (moveAgain)))'),
}


@pytest.mark.parametrize("name", sorted(BARE_FORMS))
def test_bare_form_translates_as_the_explicit_form(tmp_path, capsys, name):
    stem, written, bare, explicit = BARE_FORMS[name]
    source = (CORPUS / f"{stem}.lud").read_text()
    assert written in source
    outputs = []
    for i, form in enumerate((bare, explicit)):
        game = tmp_path / f"{i}.lud"
        game.write_text(source.replace(written, form))
        assert main(["translate", "--game", str(game)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("owner", ["P3", "P4"])
@pytest.mark.parametrize("direction", ["Forward", "FL", "FR"])
def test_only_players_1_and_2_have_a_facing(tmp_path, capsys, direction, owner):
    source = (_game(f'(piece "Disc" Each) (piece "Pawn" {owner} '
                    f'(move Step (directions {{Adjacent {direction}}})))', "(forEach Piece)",
                    start='(start (place "Disc1" {"A1"}))')
              .replace("(players 2)", "(players 4)").replace("(square 3)", "(square 4)"))
    game = tmp_path / "facing.lud"
    game.write_text(source)
    assert main(["translate", "--game", str(game)]) == 3
    err = capsys.readouterr().err
    assert f"the board has no {direction} direction for {owner}" in err
    assert f"(at offset {source.index('(move Step')})" in err


# Three players whose pieces step in every direction: an Add every other
# move, so each player both places and steps, and a line of three wins.
THREE_STEPPERS = ('(game "Three" (players 3) (equipment {(board (square 4)) '
                  '(piece "Disc" Each (move Step (directions Adjacent)))}) '
                  '(rules (start {(place "Disc1" {"A1"}) (place "Disc2" {"D4"}) '
                  '(place "Disc3" {"A4"})}) '
                  '(play (if (is Even (count Moves)) (move Add (to (sites Empty))) '
                  '(forEach Piece))) (end (if (is Line 3) (result Mover Win)))))')


def test_third_player_steps_adjacent(tmp_path, capsys):
    game = tmp_path / "three.lud"
    game.write_text(THREE_STEPPERS)
    assert main(["translate", "--game", str(game)]) == 0
    assert main(["playout-stats", "--game", str(game), "--playouts", "20"]) == 0
    out = tmp_path / "out"
    assert main(["generate", "--game", str(game), "--playouts", "20", "--out", str(out),
                 "--format", "json"]) == 0
    traces = json.loads((out / "Three" / "traces.json").read_text())
    steps = {m["mover"] for t in traces for m in t["moves"] if m["from"] != m["to"]}
    assert steps == {1, 2, 3}


def test_no_legal_opening_move_exits_3(tmp_path, capsys):
    # The first mover has no last move to shoot from, so no playout can start.
    source = _game('(piece "Disc" Each) (piece "Dot" Neutral)', '(move Shoot (piece "Dot0"))')
    game = tmp_path / "shoot.lud"
    game.write_text(source)
    for argv in (["generate", "--out", str(tmp_path / "out")], ["playout-stats"]):
        rc = main([*argv, "--game", str(game), "--playouts", "3"])
        err = capsys.readouterr().err
        assert rc == 3, argv
        assert "error: no legal opening move" in err
        assert f"(at offset {source.index('(move Shoot')})" in err
    assert not (tmp_path / "out").exists()
    assert main(["translate", "--game", str(game)]) == 0
    assert "Rules:" in capsys.readouterr().out


@pytest.mark.parametrize("count", ["0", "-1"])
def test_playout_count_below_one_is_a_usage_error(tmp_path, capsys, count):
    for argv in (["generate", "--out", str(tmp_path / "out")], ["playout-stats"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--game", str(CORPUS / "TicTacToe.lud"), "--playouts", count])
        err = capsys.readouterr().err
        assert exc.value.code == 2, argv
        assert "usage:" in err
        assert f"argument --playouts: must be at least 1, got {count}" in err
        assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_import_stays_light():
    # xml.sax.saxutils drags in urllib.request, http.client, email and ssl.
    code = ("import sys, gamescribe.cli; print([m for m in ('xml.sax.saxutils', "
            "'urllib.request', 'concurrent.futures') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# The back end, the fork code of a multi-game generate, what creating a
# dataclass imports, and html, which loads html.entities: translate loads
# none of them.
NOT_LOADED = ("gamescribe.engine", "gamescribe.render", "gamescribe.taxonomy", "hashlib",
              "gamescribe.parallel", "pickle", "dataclasses", "inspect", "html")


def test_translate_loads_only_the_front_end():
    # Without site, so that no .pth file of the interpreter imports hashlib first.
    code = f"""if True:
        import contextlib, io, json, pathlib, sys
        loaded = {{}}
        def not_loaded(step):
            loaded[step] = [m for m in {NOT_LOADED!r} if m in sys.modules]
        not_loaded("start")
        import gamescribe
        not_loaded("import gamescribe")
        import gamescribe.cli
        not_loaded("import gamescribe.cli")
        games = sorted(pathlib.Path(sys.argv[1]).glob("*.lud"))
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [gamescribe.cli.main(["translate", "--game", str(g)]) for g in games]
        not_loaded("translate")
        print(json.dumps([len(games), codes, loaded]))
        """
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(CORPUS)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    count, codes, loaded = json.loads(proc.stdout)
    assert count >= 4 and codes == [0] * count
    assert loaded == {step: [] for step in ("start", "import gamescribe",
                                            "import gamescribe.cli", "translate")}


def test_one_game_generate_loads_no_openssl_and_no_html(tmp_path):
    # The asset ids come from CPython's own _sha1, and the index's escape is
    # manual.escape.  Without site, as above.
    code = """if True:
        import contextlib, io, sys, gamescribe.cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = gamescribe.cli.main(["generate", "--game", sys.argv[1], "--playouts", "3",
                                        "--out", sys.argv[2]])
        print(code, [m for m in ("_hashlib", "hashlib", "html", "html.entities")
                     if m in sys.modules])
        """
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(CORPUS / "Hex.lud"),
                           str(tmp_path)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"


def test_one_game_generate_loads_no_pickle(tmp_path):
    # A one-game generate on one CPU forks none, and a two-game one on two
    # CPUs forks one worker, which reports its folds of both games by marshal.
    # A cap in the worker's range of the second game ends the worker
    # unreported, and this process plays the range again and exits 4.
    code = """if True:
        import contextlib, io, os, sys, gamescribe.cli, gamescribe.engine as engine
        forks = []
        fork = os.fork
        os.fork = lambda: forks.append(1) or fork()
        playout = engine.random_playout
        def capped(spec, seed, **kwargs):
            if spec.name == "Hex" and seed == 1:
                raise engine.PlayoutLimitExceeded("no terminal state after 10000 moves")
            return playout(spec, seed, **kwargs)
        for run, (cpus, games) in enumerate(((1, sys.argv[1:2]), (2, sys.argv[1:3]),
                                             (2, sys.argv[1:3]))):
            if run == 2:
                engine.random_playout = capped
            os.sched_getaffinity = lambda pid: set(range(cpus))
            argv = ["generate", "--playouts", "2", "--out", f"{sys.argv[3]}/{run}"]
            with contextlib.redirect_stdout(io.StringIO()):
                code = gamescribe.cli.main(argv + [a for g in games for a in ("--game", g)])
            print(code, len(forks), "pickle" in sys.modules)
        """
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(CORPUS / "TicTacToe.lud"),
                           str(CORPUS / "Hex.lud"), str(tmp_path)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "False", "0", "1", "False", "4", "2", "False"]
    assert proc.stderr == "error: no terminal state after 10000 moves\n"


# The names that the benchmark's tracer (bench/tracer.py) wraps in cli and
# pipeline at install time: each must be looked up at every call, so a lazy
# import may not bind one of them inside a function.
TRACED_NAMES = [(cli, "main"), (cli, "generate"), (cli, "load_game"), (cli, "write_index"),
                (cli, "translate_game"), (pipeline, "parse"), (pipeline, "compile_game"),
                (pipeline, "translate_game"), (pipeline, "build_manual"),
                (pipeline, "check_assets")]


def test_traced_names_are_looked_up_per_call(tmp_path, monkeypatch, capsys):
    calls = collections.Counter()
    for owner, name in TRACED_NAMES:
        def counted(*args, _fn=getattr(owner, name), _key=(owner, name), **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    assert cli.main(["generate", "--game", str(CORPUS / "TicTacToe.lud"),
                     "--game", str(CORPUS / "Hex.lud"), "--playouts", "2",
                     "--out", str(tmp_path)]) == 0
    assert cli.main(["translate", "--game", str(CORPUS / "Hex.lud")]) == 0
    assert [key for key in TRACED_NAMES if not calls[key]] == []


def test_package_api_resolves_every_name():
    import gamescribe
    from gamescribe import compiler, english, sexpr
    homes = {"GameSpec": compiler, "compile_game": compiler, "translate_game": english,
             "parse": sexpr, "print_canonical": sexpr}  # every other name is the engine's
    for name in gamescribe.__all__:
        assert getattr(gamescribe, name) is getattr(homes.get(name, engine), name), name
    assert set(gamescribe.__all__) <= set(dir(gamescribe))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        gamescribe.no_such_name


def test_oversized_board_exits_3(tmp_path, capsys):
    # Unchecked, the side reaches boards._grid and ends in an OverflowError traceback.
    text = ('(game "Big" (players 2) (equipment {(board (square 99999999999999999999)) '
            '(piece "Disc" Each)}) (rules (play (move Add (to (sites Empty)))) '
            '(end (if (is Line 3) (result Mover Win)))))')
    game = tmp_path / "big.lud"
    game.write_text(text)
    assert main(["translate", "--game", str(game)]) == 3
    assert capsys.readouterr().err == (
        "error: compile failed: a board side has at most 64 sites, got 99999999999999999999 "
        f"(at offset {text.index('9')})\n")


def _output_digests(name, tmp_path, capsys):
    """sha256 of each file ``generate --format json`` writes, and of ``translate`` stdout."""
    game = str(CORPUS / f"{name}.lud")
    out = tmp_path / name
    assert main(["generate", "--game", game, "--playouts", "100", "--seed", "0",
                 "--out", str(out), "--format", "json"]) == 0
    capsys.readouterr()
    assert main(["translate", "--game", game]) == 0
    digests = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out.rglob("*")) if path.is_file()}
    digests["<translate stdout>"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    return digests


OUTPUT_DIGESTS = json.loads((REPO_ROOT / "tests" / "output_digests.json").read_text())


@pytest.mark.parametrize("name", sorted(OUTPUT_DIGESTS))
def test_outputs_match_recorded_digests(name, tmp_path, capsys):
    got, want = _output_digests(name, tmp_path, capsys), OUTPUT_DIGESTS[name]
    differing = sorted(path for path in got.keys() | want.keys()
                       if got.get(path) != want.get(path))
    assert not differing, f"{name}: outputs differ from the recorded digests: {differing}"


def test_forked_and_serial_generate_give_the_recorded_bytes(tmp_path, monkeypatch, capsys):
    # One run of the four corpus games, first with eight CPUs, where seven
    # workers play seven of the eight ranges of every game; then with two,
    # where one worker plays the upper half of every game's seeds; then with
    # one, where nothing forks.
    names = {"Breakthrough": "Breakthrough", "Amazons": "Amazons",
             "TicTacToe": "Tic-Tac-Toe", "Hex": "Hex"}
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(cpus)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    for cpus in (8, 2, 1):
        _cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(_generate_argv(out, names, "--playouts", "100", "--seed", "0",
                                   "--format", "json")) == 0
        assert capsys.readouterr().out == "".join(
            f"wrote {out / name / 'manual.html'}\n" for name in names.values())
        assert (out / "index.html").is_file()
        for game, name in names.items():
            got = {f"{name}/{path.as_posix()}": hashlib.sha256(data).hexdigest()
                   for path, data in _files(out / name).items()}
            want = {path: digest for path, digest in OUTPUT_DIGESTS[game].items()
                    if path != "<translate stdout>"}
            assert got == want, (cpus, game)
        _assert_no_child_left()
    assert forks == [8] * 7 + [2]


def test_failed_write_in_a_forked_game_exits_2_as_serial(tmp_path, monkeypatch, capsys):
    # Hex's output path is a regular file: Tic-Tac-Toe is written, Hex fails,
    # Amazons is never written, and there is no index.html.
    out = tmp_path / "out"
    out.mkdir()
    (out / "Hex").write_text("not a directory")
    argv = _generate_argv(out, ["TicTacToe", "Hex", "Amazons"], "--playouts", "5")
    errors = []
    for cpus in (1, 3):
        _cpus(monkeypatch, cpus)
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
        assert sorted(p.name for p in out.iterdir()) == ["Hex", "Tic-Tac-Toe"]
        assert (out / "Tic-Tac-Toe" / "manual.html").is_file()
        _assert_no_child_left()
        shutil.rmtree(out / "Tic-Tac-Toe")
    assert errors[0] == errors[1] == f"error: {out / 'Hex' / 'svg'}: Not a directory\n"


@pytest.mark.parametrize("refused", ["report", "fork"])
def test_a_game_no_child_reports_on_is_generated_here(tmp_path, monkeypatch, capsys, refused):
    # A marshal.dumps that refuses, as on data it cannot take, in any process
    # but this one ends the worker at its first report; refusing os.fork
    # leaves no worker at all.  Either way this process plays the worker's
    # range of both games itself, to the same bytes and lines as the serial
    # loop, builds every game, and closes every pipe and file it opened.
    here = os.getpid()
    dumps = marshal.dumps

    def refuse_in_a_child(*args):
        if os.getpid() != here:
            raise ValueError("refused")
        return dumps(*args)

    def refuse(*args):
        raise OSError(errno.EAGAIN, "refused")

    if refused == "report":
        monkeypatch.setattr(marshal, "dumps", refuse_in_a_child)
    else:
        monkeypatch.setattr(os, "fork", refuse)
    built = tmp_path / "built"
    generate = cli.generate

    def logged(spec, *args, **kwargs):
        with open(built, "a") as log:
            log.write(f"{spec.name} {os.getpid()}\n")
        return generate(spec, *args, **kwargs)

    monkeypatch.setattr(cli, "generate", logged)
    open_fds = _open_fds()
    runs = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        out = tmp_path / "out"
        assert main(_generate_argv(out, ["TicTacToe", "Hex"], "--playouts", "5",
                                   "--format", "json")) == 0
        runs.append((capsys.readouterr().out, _files(out)))
        shutil.rmtree(out)
    assert runs[0] == runs[1]
    builds = [(name, int(pid)) for name, pid in map(str.split, built.read_text().splitlines())]
    assert builds == [("Tic-Tac-Toe", here), ("Hex", here)] * 2
    assert _open_fds() == open_fds


def test_a_missing_image_writes_nothing_of_its_game(tmp_path, monkeypatch):
    # Hex's manifest names an image its build did not draw: check_assets fails
    # on the built files, before any is written, whatever the workers play.
    build_manual = pipeline.build_manual

    def naming_a_missing_image(spec, *args):
        html, manifest = build_manual(spec, *args)
        if spec.name == "Hex":
            manifest["setup"]["image"] = "svg/missing.svg"
        return html, manifest

    monkeypatch.setattr(pipeline, "build_manual", naming_a_missing_image)
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        with pytest.raises(MissingAsset, match="'svg/missing.svg'"):
            main(_generate_argv(out, ["TicTacToe", "Hex"], "--playouts", "5"))
        assert [p.name for p in out.iterdir()] == ["Tic-Tac-Toe"]
        _assert_no_child_left()


def test_children_never_touch_out(tmp_path):
    # Two workers play two thirds of every game's seeds, but every file opened
    # for writing and every directory made under --out, as an audit hook logs
    # them, is this process's.
    code = """if True:
        import contextlib, io, os, sys
        out, log = sys.argv[1], os.open(sys.argv[2], os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        writes = os.O_WRONLY | os.O_RDWR | os.O_CREAT
        def logged(event, args):
            if (event == "open" and not isinstance(args[0], int) and args[2] & writes
                    or event == "os.mkdir") and os.fsdecode(args[0]).startswith(out):
                os.write(log, f"{os.getpid()} {event} {os.fsdecode(args[0])}\\n".encode())
        sys.addaudithook(logged)
        os.sched_getaffinity = lambda pid: {0, 1, 2}
        import gamescribe.cli
        forks = []
        fork = os.fork
        os.fork = lambda: forks.append(1) or fork()
        with contextlib.redirect_stdout(io.StringIO()):
            code = gamescribe.cli.main(["generate", "--format", "json", "--playouts", "20",
                                        "--out", out, *sys.argv[3:]])
        print(code, len(forks), os.getpid())
        """
    games = [arg for game in ("TicTacToe", "Breakthrough", "Hex")
             for arg in ("--game", str(CORPUS / f"{game}.lud"))]
    out, log = tmp_path / "out", tmp_path / "log"
    proc = subprocess.run([sys.executable, "-c", code, str(out), str(log), *games],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    code, forks, pid = proc.stdout.split()
    assert (code, forks) == ("0", "2")
    events = [line.split(" ", 2) for line in log.read_text().splitlines()]
    assert {name for _, event, name in events if event == "open"} >= {
        str(out / game / "traces.json") for game in ("Tic-Tac-Toe", "Breakthrough", "Hex")}
    assert {event_pid for event_pid, _, _ in events} == {pid}


@pytest.mark.parametrize("games", [["Hex"], ["Hex", "TicTacToe"]], ids=["one", "two"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_json_generate_memory_does_not_grow_with_the_playouts(cpus, games, tmp_path,
                                                              monkeypatch, capsys):
    # Every range streams its traces' text to a file as it plays them, keeps
    # only the traces that give a move or an ending its first occurrence, and
    # this process copies a worker's text into traces.json in bounded chunks:
    # ten times the playouts leave the peak where it was.
    _cpus(monkeypatch, cpus)

    def peak(playouts, out):
        tracemalloc.start()
        try:
            assert main(_generate_argv(tmp_path / out, games, "--playouts", str(playouts),
                                       "--format", "json")) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100, "warm-up")  # imports the back end
    small, large = peak(100, "small"), peak(1000, "large")
    assert large < small + 64 * 1024, f"peak {small:,} bytes at 100 playouts, {large:,} at 1,000"


def test_an_error_no_exit_code_covers_keeps_its_traceback_from_a_child(tmp_path, monkeypatch,
                                                                       capsys):
    # A bug in building a game, which this process does while a worker plays,
    # raises from the frame that failed, and nothing of the game is written.
    translate = pipeline.translate_game

    def broken_translate(spec):
        if spec.name == "Hex":
            raise KeyError("broken")
        return translate(spec)

    monkeypatch.setattr(pipeline, "translate_game", broken_translate)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    _cpus(monkeypatch, 2)
    out = tmp_path / "out"
    with pytest.raises(KeyError) as raised:
        main(_generate_argv(out, ["TicTacToe", "Hex"], "--playouts", "5"))
    assert forks == [1]
    assert raised.traceback[-1].name == "broken_translate"
    assert capsys.readouterr().out == f"wrote {out / 'Tic-Tac-Toe' / 'manual.html'}\n"
    assert sorted(p.name for p in out.iterdir()) == ["Tic-Tac-Toe"]


def _session(sid):
    """The pids of the live (not zombie) processes of session ``sid``, read off /proc."""
    pids = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rpartition(")")[2].split()
        except (OSError, ValueError):  # not a process, or gone meanwhile
            continue
        if fields and int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads the session off /proc")
def test_a_worker_leaves_when_its_call_is_killed(tmp_path):
    # The top process of a long Amazons generate, in a session of its own,
    # gets SIGKILL about 1 s into its playouts.  Its worker has pointed the
    # CLI's stdout and stderr at /dev/null, so the caller's read ends at once,
    # and it leaves before its next playout, so the session is empty long
    # before the worker's 100,000 seeds (minutes of play) are done.
    code = """if True:
        import os, sys
        os.sched_getaffinity = lambda pid: {0, 1}
        import gamescribe.cli
        sys.exit(gamescribe.cli.main(sys.argv[1:]))
        """
    argv = _generate_argv(tmp_path / "out", ["Amazons"], "--playouts", "200000")
    proc = subprocess.Popen([sys.executable, "-c", code, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, start_new_session=True,
                            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    try:
        deadline = time.monotonic() + 60
        while len(_session(proc.pid)) < 2:  # the worker is forked
            assert proc.poll() is None and time.monotonic() < deadline, proc.stdout.read()
            time.sleep(0.02)
        time.sleep(1)
        for pid in set(_session(proc.pid)) - {proc.pid}:
            assert {os.readlink(f"/proc/{pid}/fd/{fd}") for fd in (1, 2)} == {os.devnull}
        os.kill(proc.pid, signal.SIGKILL)
        assert proc.wait() == -signal.SIGKILL
        assert select.select([proc.stdout], [], [], 10)[0], "no EOF on stdout within 10 s"
        assert proc.stdout.read() == b""
        deadline = time.monotonic() + 10
        while _session(proc.pid):
            assert time.monotonic() < deadline, f"still running: {_session(proc.pid)}"
            time.sleep(0.02)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads the session off /proc")
def test_sigint_exits_130_and_reaps_every_worker(tmp_path):
    # SIGINT to the process group of a long Amazons generate, as a Ctrl-C
    # sends it, about 0.5 s into its playouts.  The handler is set as an
    # interactive shell leaves it, whatever the test runner inherited.
    code = """if True:
        import os, signal, sys
        signal.signal(signal.SIGINT, signal.default_int_handler)
        os.sched_getaffinity = lambda pid: {0, 1}
        import gamescribe.cli
        sys.exit(gamescribe.cli.main(sys.argv[1:]))
        """
    out = tmp_path / "out"
    argv = _generate_argv(out, ["Amazons"], "--playouts", "20000")
    proc = subprocess.Popen([sys.executable, "-c", code, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True,
                            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    try:
        deadline = time.monotonic() + 60
        while len(_session(proc.pid)) < 2:  # the worker is forked
            assert proc.poll() is None and time.monotonic() < deadline, proc.communicate()
            time.sleep(0.02)
        time.sleep(0.5)
        os.killpg(proc.pid, signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=30)
        assert (proc.returncode, stdout, stderr) == (130, "", "error: interrupted\n")
        assert _session(proc.pid) == []
        assert not out.exists()
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def test_sigint_is_held_while_a_game_is_written(tmp_path, monkeypatch, capsys):
    # SIGINT as Tic-Tac-Toe's files start to be written: they are written
    # whole, with their wrote line, and then the call ends with exit 130,
    # before Hex or the index.
    write_game = cli.write_game

    def interrupted(*args):
        os.kill(os.getpid(), signal.SIGINT)
        return write_game(*args)

    monkeypatch.setattr(cli, "write_game", interrupted)
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        out = tmp_path / "out"
        assert main(_generate_argv(out, ["TicTacToe", "Hex"], "--playouts", "5")) == 130
    finally:
        signal.signal(signal.SIGINT, previous)
    captured = capsys.readouterr()
    assert captured.out == f"wrote {out / 'Tic-Tac-Toe' / 'manual.html'}\n"
    assert captured.err == "error: interrupted\n"
    assert sorted(p.name for p in out.iterdir()) == ["Tic-Tac-Toe"]
    monkeypatch.setattr(cli, "write_game", write_game)
    assert main(_generate_argv(tmp_path / "whole", ["TicTacToe"], "--playouts", "5")) == 0
    assert _files(out) == _files(tmp_path / "whole")


# With n CPUs generate cuts each game's seeds into n ranges: it plays the
# lowest here while n - 1 forked workers play the others, and merges their folds.

def _counted_forks(monkeypatch):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("game", sorted(OUTPUT_DIGESTS))
def test_a_split_game_gives_the_recorded_bytes(game, tmp_path, monkeypatch, capsys):
    # html writes the recorded files but the two dumps of --format json.
    want = {path: digest for path, digest in OUTPUT_DIGESTS[game].items()
            if path != "<translate stdout>"}
    forks = _counted_forks(monkeypatch)
    open_fds = _open_fds()
    for cpus in (1, 2, 4):
        _cpus(monkeypatch, cpus)
        for form in ("html", "json"):
            out = tmp_path / f"{form}{cpus}"
            before = len(forks)
            assert main(_generate_argv(out, [game], "--playouts", "100", "--seed", "0",
                                       "--format", form)) == 0
            assert len(forks) - before == cpus - 1, (cpus, form)
            got = {path.as_posix(): hashlib.sha256(data).hexdigest()
                   for path, data in _files(out).items()}
            assert got == {path: digest for path, digest in want.items()
                           if form == "json" or path.split("/")[-1] not in
                           ("traces.json", "taxonomy.json")}, (cpus, form)
            _assert_no_child_left()
    assert capsys.readouterr().err == ""
    assert _open_fds() == open_fds


def test_a_call_forks_one_worker_per_spare_cpu(tmp_path, monkeypatch, capsys):
    # However many games, a call forks its workers once: two on three CPUs,
    # none on one.
    forks = _counted_forks(monkeypatch)
    games = ["TicTacToe", "Hex", "Breakthrough", "Amazons"]
    for cpus, count in ((3, 2), (1, 0)):
        _cpus(monkeypatch, cpus)
        before = len(forks)
        assert main(_generate_argv(tmp_path / f"cpus{cpus}", games, "--playouts", "5",
                                   "--format", "json")) == 0
        assert len(forks) - before == count, cpus
        _assert_no_child_left()
    assert _files(tmp_path / "cpus3") == _files(tmp_path / "cpus1")


def _logged_playouts(monkeypatch, log, wrap=None):
    """Log each playout's process, game and seed to ``log``, one line each."""
    playout = engine.random_playout

    def logged(spec, seed, **kwargs):
        with open(log, "a") as file:
            file.write(f"{os.getpid()} {spec.name} {seed}\n")
        if wrap is not None:
            wrap(spec, seed)
        return playout(spec, seed, **kwargs)

    monkeypatch.setattr(engine, "random_playout", logged)


def _players(log):
    """Who played each (game, seed): ``{(game, seed): [pid, ...]}``."""
    players = collections.defaultdict(list)
    for pid, game, seed in map(str.split, log.read_text().splitlines()):
        players[game, int(seed)].append(int(pid))
    return players


def test_a_worker_refused_at_a_later_game_has_its_range_played_here(tmp_path, monkeypatch,
                                                                    capsys):
    # The worker reports its fold of the first game, and marshal refuses its
    # second: this process plays seeds 50-99 of the second and third games
    # itself, and every file is the recorded bytes.
    here = os.getpid()
    dumps = marshal.dumps
    calls = []

    def refuse_the_second(*args):
        calls.append(1)
        if os.getpid() != here and len(calls) == 2:
            raise ValueError("refused")
        return dumps(*args)

    monkeypatch.setattr(marshal, "dumps", refuse_the_second)
    log = tmp_path / "played"
    _logged_playouts(monkeypatch, log)
    forks = _counted_forks(monkeypatch)
    _cpus(monkeypatch, 2)
    open_fds = _open_fds()
    names = {"TicTacToe": "Tic-Tac-Toe", "Hex": "Hex", "Breakthrough": "Breakthrough"}
    out = tmp_path / "out"
    assert main(_generate_argv(out, names, "--playouts", "100", "--seed", "0",
                               "--format", "json")) == 0
    assert forks == [1]
    players = _players(log)
    worker = players["Tic-Tac-Toe", 50][0]
    assert worker != here
    for number, (game, name) in enumerate(names.items()):
        assert [players[name, seed][-1] for seed in range(100)] == (
            [here] * 50 + [worker if number == 0 else here] * 50), name
        if number == 2:  # the worker was gone before it
            assert all(players[name, seed] == [here] for seed in range(100))
        got = {f"{name}/{path.as_posix()}": hashlib.sha256(data).hexdigest()
               for path, data in _files(out / name).items()}
        assert got == {path: digest for path, digest in OUTPUT_DIGESTS[game].items()
                       if path != "<translate stdout>"}, name
    _assert_no_child_left()
    assert _open_fds() == open_fds


def test_a_capped_seed_in_a_workers_range_of_a_later_game_exits_4(tmp_path, monkeypatch,
                                                                 capsys):
    # Seed 4 of Breakthrough, the second of three games, lies in the worker's
    # range 2-4: the worker ends unreported at it and is reaped, this process
    # plays seeds 2-4 again and raises the cap, Tic-Tac-Toe alone is written,
    # and no process plays Hex.
    here = os.getpid()

    def cap(spec, seed):
        if spec.name == "Breakthrough" and seed == 4:
            raise engine.PlayoutLimitExceeded("seed 4: no terminal state after 10000 moves")

    log = tmp_path / "played"
    _logged_playouts(monkeypatch, log, cap)
    forks = _counted_forks(monkeypatch)
    _cpus(monkeypatch, 2)
    open_fds = _open_fds()
    out = tmp_path / "out"
    assert main(_generate_argv(out, ["TicTacToe", "Breakthrough", "Hex"], "--playouts", "5",
                               "--format", "json")) == 4
    assert capsys.readouterr().err == "error: seed 4: no terminal state after 10000 moves\n"
    assert forks == [1]
    players = _players(log)
    worker = players["Tic-Tac-Toe", 2][0]
    assert worker != here
    assert [players["Breakthrough", seed] for seed in range(5)] == (
        [[here]] * 2 + [[worker, here]] * 3)
    assert [key for key in players if key[0] == "Hex"] == []
    assert [p.name for p in out.iterdir()] == ["Tic-Tac-Toe"]
    assert (out / "Tic-Tac-Toe" / "traces.json").is_file()
    _assert_no_child_left()
    assert _open_fds() == open_fds


def test_a_worker_killed_mid_range_has_its_range_played_here(tmp_path, monkeypatch, capsys):
    # The worker of seeds 50-99 kills itself at seed 70, without reaching its
    # finally: this process plays seeds 50-99 again, after the text the
    # worker left in its file, and every file is the recorded bytes.
    here = os.getpid()

    def kill_a_worker(spec, seed):
        if seed == 70 and os.getpid() != here:
            os.kill(os.getpid(), signal.SIGKILL)

    log = tmp_path / "played"
    _logged_playouts(monkeypatch, log, kill_a_worker)
    forks = _counted_forks(monkeypatch)
    _cpus(monkeypatch, 2)
    open_fds = _open_fds()
    out = tmp_path / "out"
    assert main(_generate_argv(out, ["Hex"], "--playouts", "100", "--seed", "0",
                               "--format", "json")) == 0
    assert capsys.readouterr().out == f"wrote {out / 'Hex' / 'manual.html'}\n"
    assert forks == [1]
    players = _players(log)
    worker = players["Hex", 50][0]
    assert worker != here
    assert [players["Hex", seed] for seed in range(100)] == (
        [[here]] * 50 + [[worker, here]] * 21 + [[here]] * 29)
    got = {path.as_posix(): hashlib.sha256(data).hexdigest()
           for path, data in _files(out).items()}
    assert got == {path: digest for path, digest in OUTPUT_DIGESTS["Hex"].items()
                   if path != "<translate stdout>"}
    _assert_no_child_left()
    assert _open_fds() == open_fds


def test_one_playout_forks_nothing(tmp_path, monkeypatch, capsys):
    forks = _counted_forks(monkeypatch)
    _cpus(monkeypatch, 4)
    assert main(_generate_argv(tmp_path, ["Hex"], "--playouts", "1", "--format", "json")) == 0
    assert main(["playout-stats", "--game", str(CORPUS / "Hex.lud"), "--playouts", "1"]) == 0
    assert forks == []


@pytest.mark.parametrize("cpus, capped", [(2, {3}), (2, {1}), (2, {1, 3}), (4, {2, 4})],
                         ids=["upper", "lower", "both", "two-children"])
def test_a_capped_seed_in_any_range_exits_4_as_serial(cpus, capped, tmp_path, monkeypatch,
                                                     capsys):
    # Five playouts: seeds 0-1 here and 2-4 in a worker with two CPUs; 0, 1, 2 and
    # 3-4 with four.  The error names the lowest capped seed, as the serial
    # loop's does, and nothing of the game is written.
    playout = engine.random_playout

    def capped_playout(spec, seed, **kwargs):
        if seed in capped:
            raise engine.PlayoutLimitExceeded(f"seed {seed}: no terminal state after 10000 moves")
        return playout(spec, seed, **kwargs)

    monkeypatch.setattr(engine, "random_playout", capped_playout)
    forks = _counted_forks(monkeypatch)
    open_fds = _open_fds()
    errors = []
    for count in (1, cpus):
        _cpus(monkeypatch, count)
        out = tmp_path / f"cpus{count}"
        assert main(_generate_argv(out, ["Hex"], "--playouts", "5", "--format", "json")) == 4
        errors.append(capsys.readouterr().err)
        assert not out.exists()
        _assert_no_child_left()
    assert errors == [f"error: seed {min(capped)}: no terminal state after 10000 moves\n"] * 2
    assert len(forks) == cpus - 1
    assert _open_fds() == open_fds


def test_an_error_no_exit_code_covers_in_a_childs_range_keeps_its_traceback(tmp_path,
                                                                           monkeypatch, capsys):
    # Seed 3 lies in the worker's range: the worker ends unreported, and this
    # process plays the range again and raises from the frame that failed.
    playout = engine.random_playout

    def broken_playout(spec, seed, **kwargs):
        if seed == 3:
            raise KeyError("broken")
        return playout(spec, seed, **kwargs)

    monkeypatch.setattr(engine, "random_playout", broken_playout)
    forks = _counted_forks(monkeypatch)
    _cpus(monkeypatch, 2)
    out = tmp_path / "out"
    with pytest.raises(KeyError) as raised:
        main(_generate_argv(out, ["Hex"], "--playouts", "5"))
    assert forks == [1]
    assert raised.traceback[-1].name == "broken_playout"
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_a_range_played_again_here_rewrites_its_part_of_the_traces(tmp_path, monkeypatch,
                                                                  capsys):
    # The worker streams seeds 50-98 to its file and fails at 99 with an error
    # no exit code covers; this process plays seeds 50-99 again, after what
    # the worker wrote, and every file is the recorded bytes.
    here = os.getpid()
    playout = engine.random_playout

    def failing_in_a_child(spec, seed, **kwargs):
        if seed == 99 and os.getpid() != here:
            raise KeyError("in a child only")
        return playout(spec, seed, **kwargs)

    monkeypatch.setattr(engine, "random_playout", failing_in_a_child)
    forks = _counted_forks(monkeypatch)
    _cpus(monkeypatch, 2)
    assert main(_generate_argv(tmp_path, ["Hex"], "--playouts", "100", "--seed", "0",
                               "--format", "json")) == 0
    assert forks == [1]
    got = {path.as_posix(): hashlib.sha256(data).hexdigest()
           for path, data in _files(tmp_path).items()}
    assert got == {path: digest for path, digest in OUTPUT_DIGESTS["Hex"].items()
                   if path != "<translate stdout>"}


@pytest.mark.parametrize("game", sorted(OUTPUT_DIGESTS))
def test_playout_stats_reads_the_same_split(game, monkeypatch, capsys):
    # The outcome counts and the signatures of every trace, on 1, 2 and 4 CPUs.
    spec = pipeline.load_playable(CORPUS / f"{game}.lud")
    traces = [engine.random_playout(spec, seed) for seed in range(7, 57)]
    labels = collections.Counter(
        o.outcome if o.outcome == "Draw" else f"{o.outcome} P{'/P'.join(map(str, o.players))}"
        for o in (trace.outcome for trace in traces))
    signatures = {(m.mover if spec.distinct_rules else None, m.piece, m.origin_id,
                   m.action_types) for trace in traces for m in trace.moves}
    forks = _counted_forks(monkeypatch)
    texts = []
    for cpus in (1, 2, 4):
        _cpus(monkeypatch, cpus)
        assert main(["playout-stats", "--game", str(CORPUS / f"{game}.lud"), "--playouts", "50",
                     "--seed", "7"]) == 0
        texts.append(capsys.readouterr().out)
    assert len(forks) == 1 + 3
    assert texts[1] == texts[2] == texts[0]
    assert texts[0].splitlines()[1:-2] == [f"  {label}: {labels[label]}"
                                           for label in sorted(labels)]
    assert f"  distinct move signatures: {len(signatures)}\n" in texts[0]


def test_main_keeps_nothing_between_calls(tmp_path, capsys, monkeypatch):
    # One process: two games without similar highlighting, a usage error, then
    # one game whose files must match the recorded digests.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    first = tmp_path / "first"
    assert main(["generate", "--game", str(CORPUS / "TicTacToe.lud"),
                 "--game", str(CORPUS / "Hex.lud"), "--playouts", "3", "--no-similar",
                 "--out", str(first)]) == 0
    assert (first / "index.html").is_file()
    after_first = len(built)
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--game", str(CORPUS / "TicTacToe.lud"), "--playouts", "0",
              "--out", str(tmp_path / "usage")])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    got = _output_digests("TicTacToe", tmp_path, capsys)
    assert [p.name for p in (tmp_path / "TicTacToe").iterdir()] == ["Tic-Tac-Toe"]  # no index
    assert got == OUTPUT_DIGESTS["TicTacToe"]  # similar highlighting is back on
    assert not (tmp_path / "usage").exists()
    assert len(built) == after_first <= 4, built  # the root parser and three subparsers


def test_unreadable_input_exits_2(tmp_path, capsys):
    # A directory where a file should be: the game, then the heuristics file.
    for argv in (["translate", "--game", str(CORPUS)],
                 ["generate", "--game", str(CORPUS / "TicTacToe.lud"), "--playouts", "3",
                  "--out", str(tmp_path / "out"), "--heuristics", str(tmp_path)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_input_not_utf8_exits_3_at_the_bad_byte(tmp_path, capsys):
    # Each file holds one byte that is not UTF-8, right after ``prefix``.
    game, heur = tmp_path / "bad.lud", tmp_path / "h.lud"
    cases = [(game, b'(game "X', b'" (players 2))', ["translate"]),
             (heur, b'(heuristics {(material "Disc', b'" 0.9)})',
              ["generate", "--game", str(CORPUS / "TicTacToe.lud"), "--playouts", "3",
               "--out", str(tmp_path / "out"), "--heuristics", str(heur)])]
    for path, prefix, suffix, argv in cases:
        path.write_bytes(prefix + b"\xff" + suffix)
        if path is game:
            argv = [*argv, "--game", str(game)]
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err == f"error: parse failed: {path} is not UTF-8 text (at offset {len(prefix)})\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source, culprit, failure", [
    # CRLF line endings stay in the text, two characters each.
    (b'(game "X"\r\n(players 2)\r\n(foo', "(foo", "parse failed: unclosed '('"),
    # A non-ASCII letter before the error is one character (two bytes).
    ('(game "Tic-Tac-Toé" (players 2) (equipment {(board (square 3)) (piece "Disc" P3)}) '
     '(rules (play (move Add (to (sites Empty)))) (end (if (is Line 3) (result Mover Win)))))'
     .encode(), "P3", "compile failed: piece owner P3 exceeds player count"),
    # A bad byte after a non-ASCII one is at the character where it starts.
    ('(game "é'.encode() + b'\xff" (players 2))', "\ufffd", "parse failed: "),
], ids=["crlf", "non-ascii-name", "bad-byte-after-non-ascii"])
def test_offsets_count_characters_of_the_file_as_written(tmp_path, capsys, source, culprit,
                                                         failure):
    game = tmp_path / "game.lud"
    game.write_bytes(source)
    assert main(["translate", "--game", str(game)]) == 3
    err = capsys.readouterr().err
    offset = source.decode("utf-8", errors="replace").index(culprit)
    assert err.startswith(f"error: {failure}") and err.endswith(f"(at offset {offset})\n"), err


def test_out_that_is_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("keep")
    assert main(["generate", "--game", str(CORPUS / "TicTacToe.lud"), "--playouts", "3",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Not a directory" in err and "Traceback" not in err
    assert out.read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_two_games_of_one_name_exit_2(tmp_path, capsys):
    first, second = tmp_path / "a.lud", tmp_path / "b.lud"
    first.write_text((CORPUS / "TicTacToe.lud").read_text())
    second.write_text((CORPUS / "TicTacToe.lud").read_text())
    out = tmp_path / "out"
    assert main(["generate", "--game", str(first), "--game", str(CORPUS / "Hex.lud"),
                 "--game", str(second), "--playouts", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {first} and {second} both describe the game 'Tic-Tac-Toe'" in err
    assert not out.exists()


def test_game_named_index_html_among_several_exits_2(tmp_path, capsys):
    # Its manual directory would be <out>/index.html, the path of the index.
    game = tmp_path / "index.lud"
    game.write_text((CORPUS / "TicTacToe.lud").read_text()
                    .replace('(game "Tic-Tac-Toe"', '(game "index.html"'))
    out = tmp_path / "out"
    for games in ([game, CORPUS / "TicTacToe.lud"], [CORPUS / "TicTacToe.lud", game]):
        argv = ["generate", "--playouts", "3", "--out", str(out)]
        assert main(argv + [arg for g in games for arg in ("--game", str(g))]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {game} describes the game 'index.html', whose manual would go "
                       f"to {out / 'index.html'}, the index's path\n"), err
        assert not out.exists()
    # Alone, it writes no index, so its manual may take that path.
    assert main(["generate", "--game", str(game), "--playouts", "3", "--out", str(out)]) == 0
    assert (out / "index.html" / "manual.html").is_file()


def test_byte_order_mark_is_skipped(tmp_path, capsys):
    # As some editors write UTF-8: the mark, then the text.
    for path in sorted(CORPUS.glob("*.lud")):
        marked = tmp_path / path.name
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main(["translate", "--game", str(path)]) == 0
        plain = capsys.readouterr().out
        assert main(["translate", "--game", str(marked)]) == 0
        assert capsys.readouterr().out == plain
    heuristics = tmp_path / "h.lud"
    heuristics.write_bytes(b"\xef\xbb\xbf(heuristics {(lineCompletion 3 0.7)})")
    out = tmp_path / "out"
    assert main(["generate", "--game", str(CORPUS / "TicTacToe.lud"), "--playouts", "3",
                 "--heuristics", str(heuristics), "--out", str(out)]) == 0
    assert "completing lines of 3" in (out / "Tic-Tac-Toe" / "manual.html").read_text("utf-8")
    # The mark counts as one character of an offset.
    (tmp_path / "cut.lud").write_bytes(b"\xef\xbb\xbf" + (CORPUS / "Hex.lud").read_bytes()[:60])
    assert main(["translate", "--game", str(tmp_path / "cut.lud")]) == 3
    assert capsys.readouterr().err.endswith("unclosed '(' (at offset 54)\n")


def test_generate_writes_utf8_whatever_the_locale(tmp_path):
    # manual.html declares charset="utf-8"; under an ASCII locale every file
    # must still be UTF-8, byte for byte what a UTF-8 locale writes.
    game = tmp_path / "kings.lud"
    game.write_text('(game "Kings" (players 2) (equipment {(board (square 3)) (piece "王" P1) '
                    '(piece "Disc" P2)}) (rules (play (move Add (to (sites Empty)))) '
                    '(end (if (is Line 3) (result Mover Win)))))', encoding="utf-8")
    trees = {}
    for utf8 in ("0", "1"):
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": utf8,
               "PYTHONPATH": str(REPO_ROOT / "src")}
        for fmt in ("html", "json"):
            out = tmp_path / f"utf8-{utf8}-{fmt}"
            proc = subprocess.run([sys.executable, "-m", "gamescribe.cli", "generate", "--game",
                                   str(game), "--playouts", "5", "--format", fmt, "--out", str(out)],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            assert "Traceback" not in proc.stderr
            trees[utf8, fmt] = {p.relative_to(out).as_posix(): p.read_bytes()
                                for p in sorted(out.rglob("*")) if p.is_file()}
    for fmt in ("html", "json"):
        assert trees["0", fmt] == trees["1", fmt], fmt
    assert "王".encode() in trees["1", "html"]["Kings/manual.html"]
    assert "Kings/traces.json" in trees["1", "json"]


KOENIGS = ('(game "Königs" (players 2) (equipment {(board (square 3)) (piece "王" P1) '
           '(piece "Disc" P2)}) (rules (play (move Add (to (sites Empty)))) '
           '(end (if (is Line 3) (result Mover Win)))))')


def _run_in_locale(utf8, *argv):
    """Run the CLI under the ASCII C locale, in UTF-8 mode when ``utf8`` is "1"."""
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": utf8,
           "PYTHONPATH": str(REPO_ROOT / "src")}
    return subprocess.run([sys.executable, "-m", "gamescribe.cli", *argv],
                          capture_output=True, env=env)


@pytest.mark.parametrize("command", ["translate", "playout-stats"])
def test_stdout_is_utf8_whatever_the_locale(tmp_path, command):
    game = tmp_path / "koenigs.lud"
    game.write_text(KOENIGS, encoding="utf-8")
    ascii_run, utf8_run = (_run_in_locale(utf8, command, "--game", str(game))
                           for utf8 in ("0", "1"))
    assert ascii_run.returncode == 0, ascii_run.stderr.decode(errors="replace")
    assert utf8_run.returncode == 0
    assert ascii_run.stdout == utf8_run.stdout
    assert "Königs".encode() in ascii_run.stdout


def test_main_prints_to_an_in_memory_stdout(tmp_path, monkeypatch):
    game = tmp_path / "koenigs.lud"
    game.write_text(KOENIGS, encoding="utf-8")
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["translate", "--game", str(game)]) == 0
    assert "王" in out.getvalue()


def test_out_dir_the_file_system_encoding_cannot_name_exits_2(tmp_path):
    game = tmp_path / "koenigs.lud"
    game.write_text(KOENIGS, encoding="utf-8")
    out = tmp_path / "out"
    proc = _run_in_locale("0", "generate", "--game", str(game), "--playouts", "3",
                          "--out", str(out))
    err = proc.stderr.decode("ascii")
    assert proc.returncode == 2, err
    assert "Traceback" not in err
    assert f"cannot name {out}/K\\xf6nigs" in err
    assert not out.exists()


def test_outputs_are_the_same_under_any_hash_seed(tmp_path):
    """``generate --format json`` and ``translate`` write the same bytes under four
    ``PYTHONHASHSEED`` values, so no set of strings is iterated into an output.

    Two strings in a set keep their order under two hash seeds about half the
    time; one such set in Amazons' text reads alike under seeds 0 to 2.
    """
    games = sorted(CORPUS.glob("*.lud"))
    runs = []
    for hash_seed in ("0", "1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(REPO_ROOT / "src")}
        out = tmp_path / f"hash-seed-{hash_seed}"
        argv = ["generate", *(arg for game in games for arg in ("--game", str(game))),
                "--playouts", "10", "--format", "json", "--out", str(out)]
        texts = []
        for args in [argv, *(["translate", "--game", str(game)] for game in games)]:
            proc = subprocess.run([sys.executable, "-m", "gamescribe.cli", *args],
                                  capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr.decode(errors="replace")
            texts.append(proc.stdout.replace(bytes(out), b"OUT"))
        tree = {p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}
        runs.append((texts, tree))
    assert len(runs[0][1]) > 4 * len(games)
    assert all(run == runs[0] for run in runs[1:])
