#!/usr/bin/env bash
# Checks of the gamescribe command line, run as a user runs it, each in a
# process of its own.  Tier-1 calls cli.main in-process; this runs the
# command given as the arguments, from the root of the checkout:
#
#   bash tests/console_script.sh gamescribe                  # the installed entry point
#   PYTHONPATH=src bash tests/console_script.sh python -m gamescribe.cli
#
# The checks written in Python run under `python`, which must import gamescribe.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -eq 0 ]; then
  echo "usage: $0 COMMAND [ARG...]" >&2
  exit 2
fi
gs=("$@")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Runs the command after it, pinned to one CPU: the process pins itself,
# then execs the command.
one_cpu=(python -c "import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); os.execvp(sys.argv[1], sys.argv[1:])")
# playout-stats runs both playout loops: Hex and Tic-Tac-Toe add to
# empty sites, Amazons and Breakthrough move pieces.  Its seeds split over
# every CPU print the same text as on one.
for game in corpus/*.lud; do
  "${gs[@]}" translate --game "$game" > /dev/null
  "${gs[@]}" playout-stats --game "$game" --playouts 20 | tee "$tmp/stats-all-cpus"
  "${one_cpu[@]}" "${gs[@]}" playout-stats --game "$game" --playouts 20 > "$tmp/stats-one-cpu"
  diff "$tmp/stats-one-cpu" "$tmp/stats-all-cpus"
done
# cli.main, called twice over the corpus in one process, returns 0 and
# prints the same text both times, and never imports the engine.
python -c "import contextlib, glob, io, sys; from gamescribe.cli import main
def run(game):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(['translate', '--game', game])
    return code, out.getvalue()
games = sorted(glob.glob('corpus/*.lud'))
first, second = [run(g) for g in games], [run(g) for g in games]
assert games and all(code == 0 for code, _ in first + second), first + second
assert first == second, 'the second pass printed other text'
assert 'gamescribe.engine' not in sys.modules, 'translate imported the engine'
print(len(games), 'games translate alike twice in one process, without the engine')"
# So does generate --format json of the corpus: the two calls write the same
# bytes, so nothing that one call draws or replays changes the next.
python -c "import contextlib, glob, io, pathlib, sys; from gamescribe.cli import main
games = [arg for g in sorted(glob.glob('corpus/*.lud')) for arg in ('--game', g)]
def run(out):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(['generate', *games, '--format', 'json', '--out', str(out)])
    assert code == 0, code
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob('*')) if p.is_file()}
first, second = (run(pathlib.Path(sys.argv[1], f'gs-twice-{k}')) for k in (1, 2))
assert games and first == second, sorted(p for p in first.keys() | second.keys() if first.get(p) != second.get(p))
print(len(first), 'files of generate --format json over the corpus alike twice in one process')" "$tmp"
"${gs[@]}" generate --game corpus/Hex.lud --playouts 5 --out "$tmp/gs-out"
python -c "import pathlib, sys, xml.dom.minidom as m; fs = [p for p in pathlib.Path(sys.argv[1]).rglob('*') if p.suffix == '.svg' or p.name == 'manual.html']; assert fs; [m.parse(str(p)) for p in fs]; print(len(fs), 'files parse as XML')" "$tmp/gs-out"
# Hex traces share one table of Add moves, so 20 times the playouts grow the
# peak RSS of a fresh generate process by little (a Move built per ply: ~20 MB).
python -c "import resource, subprocess, sys
def peak_mb(playouts):
    subprocess.run([*sys.argv[2:], 'generate', '--game', 'corpus/Hex.lud', '--playouts', str(playouts),
                    '--out', f'{sys.argv[1]}/gs-rss-{playouts}'], check=True, stdout=subprocess.DEVNULL)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
small, large = peak_mb(100), peak_mb(2000)
assert large - small < 8, f'peak RSS {small:.1f} MB at 100 playouts, {large:.1f} MB at 2000'
print(f'peak RSS {small:.1f} MB at 100 Hex playouts, {large:.1f} MB at 2000')" "$tmp" "${gs[@]}"
# --format json streams traces.json: one trace per playout, seeds 0-4, from
# both playout loops (Hex adds to empty sites).
"${gs[@]}" generate --game corpus/Amazons.lud --game corpus/Breakthrough.lud --game corpus/Hex.lud --playouts 5 --format json --out "$tmp/gs-json"
python -c "import json, sys; seeds = [[t['seed'] for t in json.load(open(f'{sys.argv[1]}/{g}/traces.json', encoding='utf-8'))] for g in ('Amazons', 'Breakthrough', 'Hex')]; assert seeds == [[0, 1, 2, 3, 4]] * 3, seeds; print('traces.json holds seeds 0-4 for all three games')" "$tmp/gs-json"
# One game's seeds split over every CPU give the bytes of one CPU.
"${one_cpu[@]}" "${gs[@]}" generate --game corpus/Hex.lud --format json --out "$tmp/gs-one-cpu" > /dev/null
"${gs[@]}" generate --game corpus/Hex.lud --format json --out "$tmp/gs-all-cpus" > /dev/null
diff -r "$tmp/gs-one-cpu" "$tmp/gs-all-cpus"
echo "one Hex generate --format json writes the same files on one CPU and on $(nproc)"
# So do several games, whose seeds every worker shares while this process
# builds and writes them all.
three=(--game corpus/TicTacToe.lud --game corpus/Breakthrough.lud --game corpus/Hex.lud --playouts 20 --format json)
"${one_cpu[@]}" "${gs[@]}" generate "${three[@]}" --out "$tmp/gs-three-one-cpu" > /dev/null
"${gs[@]}" generate "${three[@]}" --out "$tmp/gs-three-all-cpus" > /dev/null
diff -r "$tmp/gs-three-one-cpu" "$tmp/gs-three-all-cpus"
echo "three games of generate --format json write the same files on one CPU and on $(nproc)"
# A call started with stdout closed, or with stdout and stderr closed, exits 0
# and writes the bytes of one with both open, on every CPU: a worker points
# /dev/null only at the streams that are open, whose descriptors are not
# the files of another.
tic=(generate --game corpus/TicTacToe.lud --playouts 20 --format json)
"${gs[@]}" "${tic[@]}" --out "$tmp/gs-streams-open" > /dev/null
"${gs[@]}" "${tic[@]}" --out "$tmp/gs-stdout-closed" >&-
"${gs[@]}" "${tic[@]}" --out "$tmp/gs-streams-closed" >&- 2>&-
diff -r "$tmp/gs-streams-open" "$tmp/gs-stdout-closed"
diff -r "$tmp/gs-streams-open" "$tmp/gs-streams-closed"
echo "generate --format json writes the same files with stdout, or stdout and stderr, closed"
printf '(heuristics {(lineCompletion 3 0.7)})' > "$tmp/h.lud"
"${gs[@]}" generate --game corpus/TicTacToe.lud --playouts 5 --heuristics "$tmp/h.lud" --out "$tmp/gs-tips"
grep -q "Try to work towards completing lines of 3 of your pieces" "$tmp/gs-tips/Tic-Tac-Toe/manual.html"
# A line longer than the board is exit 3, and nothing is written.
printf '(heuristics {(lineCompletion 4 0.5)})' > "$tmp/bad.lud"
rc=0; "${gs[@]}" generate --game corpus/TicTacToe.lud --playouts 5 --heuristics "$tmp/bad.lud" --out "$tmp/gs-bad" || rc=$?
test "$rc" -eq 3
test ! -e "$tmp/gs-bad"
# A lone marker never makes a line, so its playout hits the move cap: exit 4,
# and nothing of the game is written.
printf '%s' '(game "Wander" (players 1) (equipment {(board (square 3)) (piece "Marker" P1 (move Step (directions Adjacent)))}) (rules (start (place "Marker" {"A1"})) (play (forEach Piece)) (end (if (is Line 3) (result Mover Win)))))' > "$tmp/wander.lud"
rc=0; "${gs[@]}" generate --game "$tmp/wander.lud" --playouts 1 --out "$tmp/gs-wander" || rc=$?
test "$rc" -eq 4
test ! -e "$tmp/gs-wander"
# Among several games, Wander's cap is exit 4: the game before it is written,
# Wander and Hex are not, nor index.html, and no process of the run is left
# in its process group.
python -c "import os, pathlib, subprocess, sys
out = pathlib.Path(sys.argv[1], 'gs-three')
proc = subprocess.Popen([*sys.argv[3:], 'generate', '--game', 'corpus/TicTacToe.lud', '--game', sys.argv[2],
                         '--game', 'corpus/Hex.lud', '--playouts', '1', '--out', str(out)],
                        stderr=subprocess.DEVNULL, start_new_session=True)
assert proc.wait() == 4, proc.returncode
assert [p.name for p in out.iterdir()] == ['Tic-Tac-Toe'], list(out.iterdir())
try:
    os.killpg(proc.pid, 0)
except ProcessLookupError:
    print('exit 4 with Tic-Tac-Toe alone written, and no process of the run left')
else:
    raise AssertionError('a process of the run is still running')" "$tmp" "$tmp/wander.lud" "${gs[@]}"
# So on every CPU, where workers play a range of each game: once the command
# has exited, no process that names its --out is left running, and the
# error is the one printed on one CPU.
capped=(generate --game corpus/TicTacToe.lud --game "$tmp/wander.lud" --game corpus/Hex.lud --playouts 4)
rc=0; "${gs[@]}" "${capped[@]}" --out "$tmp/gs-capped" 2> "$tmp/capped-all-cpus.err" || rc=$?
test "$rc" -eq 4
test "$(ls "$tmp/gs-capped")" = "Tic-Tac-Toe"
test ! -e "$tmp/gs-capped/index.html"
if command -v pgrep > /dev/null && pgrep -f -- "$tmp/gs-capped" > /dev/null; then
  echo "a process of the capped run is still running" >&2
  exit 1
fi
rc=0; "${one_cpu[@]}" "${gs[@]}" "${capped[@]}" --out "$tmp/gs-capped-one-cpu" 2> "$tmp/capped-one-cpu.err" || rc=$?
test "$rc" -eq 4
diff "$tmp/capped-one-cpu.err" "$tmp/capped-all-cpus.err"
echo "exit 4 on $(nproc) CPUs with Tic-Tac-Toe alone written, the error of one CPU, and no worker left"
# Under the ASCII C locale stdout is still UTF-8, and an output directory the
# file-system encoding cannot name is exit 2, with nothing written.
printf '%s' '(game "Königs" (players 2) (equipment {(board (square 3)) (piece "王" P1) (piece "Disc" P2)}) (rules (play (move Add (to (sites Empty)))) (end (if (is Line 3) (result Mover Win)))))' > "$tmp/koenigs.lud"
LC_ALL=C PYTHONCOERCECLOCALE=0 PYTHONUTF8=0 "${gs[@]}" translate --game "$tmp/koenigs.lud" | grep -qF 'Königs'
LC_ALL=C PYTHONCOERCECLOCALE=0 PYTHONUTF8=0 "${gs[@]}" playout-stats --game "$tmp/koenigs.lud" --playouts 5
rc=0; LC_ALL=C PYTHONCOERCECLOCALE=0 PYTHONUTF8=0 "${gs[@]}" generate --game "$tmp/koenigs.lud" --playouts 5 --out "$tmp/gs-koenigs" || rc=$?
test "$rc" -eq 2
test ! -e "$tmp/gs-koenigs"
# A truncated game, and one nested past the reader's 200 levels, are exit 3 at an offset.
head -c 60 corpus/Hex.lud > "$tmp/cut.lud"
rc=0; "${gs[@]}" translate --game "$tmp/cut.lud" 2> "$tmp/cut.err" || rc=$?
test "$rc" -eq 3
grep -qF "error: parse failed: unclosed '(' (at offset 53)" "$tmp/cut.err"
python -c "print('(a ' * 201 + ')' * 201)" > "$tmp/deep.lud"
rc=0; "${gs[@]}" translate --game "$tmp/deep.lud" 2> "$tmp/deep.err" || rc=$?
test "$rc" -eq 3
grep -qF "error: parse failed: nesting deeper than 200 levels (at offset 600)" "$tmp/deep.err"
# A UTF-8 byte-order mark, as some editors write it, is skipped.
printf '\357\273\277' | cat - corpus/Hex.lud > "$tmp/bom.lud"
cmp <("${gs[@]}" translate --game corpus/Hex.lud) <("${gs[@]}" translate --game "$tmp/bom.lud")
# A game named index.html among several would put its manual where the index
# goes: exit 2, and nothing is written.
sed 's/(game "Tic-Tac-Toe"/(game "index.html"/' corpus/TicTacToe.lud > "$tmp/index.lud"
rc=0; "${gs[@]}" generate --game "$tmp/index.lud" --game corpus/TicTacToe.lud --playouts 5 --out "$tmp/gs-index" 2> "$tmp/index.err" || rc=$?
test "$rc" -eq 2
grep -qF "whose manual would go to $tmp/gs-index/index.html" "$tmp/index.err"
test ! -e "$tmp/gs-index"
# The registry checks the arguments of each move kind: an Add needs its target.
sed 's/(move Add (to (sites Empty)))/(move Add (then (moveAgain)))/' corpus/TicTacToe.lud > "$tmp/add.lud"
rc=0; "${gs[@]}" translate --game "$tmp/add.lud" 2> "$tmp/add.err" || rc=$?
test "$rc" -eq 3
grep -qF "error: compile failed: (move Add ...) needs (to ...) naming its sites" "$tmp/add.err"
# Of two faults, the first in the source is reported, and a misspelled head is unknown.
printf '%s' '(game "T" (players 2) (equipment {(board (square 3)) (piece "Disc" Each)}) (rules (play (mov Add (to (sites Empty)))) (end (if (is Lin 3) (result Mover Win)))))' > "$tmp/two.lud"
rc=0; "${gs[@]}" translate --game "$tmp/two.lud" 2> "$tmp/two.err" || rc=$?
test "$rc" -eq 3
grep -qF "unknown ludeme 'mov' (at offset 89)" "$tmp/two.err"
# A board side above the limit is exit 3 at the number, before any board is built.
sed 's/(square 3)/(square 99999999999999999999)/' corpus/TicTacToe.lud > "$tmp/big.lud"
rc=0; "${gs[@]}" translate --game "$tmp/big.lud" 2> "$tmp/big.err" || rc=$?
test "$rc" -eq 3
grep -qF "error: compile failed: a board side has at most 64 sites, got 99999999999999999999" "$tmp/big.err"
echo "every console check passed"
