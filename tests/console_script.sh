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

# playout-stats runs both playout loops: Hex and Tic-Tac-Toe add to
# empty sites, Amazons and Breakthrough move pieces.
for game in corpus/*.lud; do
  "${gs[@]}" translate --game "$game" > /dev/null
  "${gs[@]}" playout-stats --game "$game" --playouts 20
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
