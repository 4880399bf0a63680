"""Command-line entry point.

``generate`` loads every game, then parses the heuristics file once and
explains it for every game, before it writes anything.

Exit codes: 0 success; 2 usage error (``--playouts 0``), an input file that
is missing or cannot be read (such as a directory), a ``--out`` that is not a
directory, two ``generate --game`` files of the same game name, a game named
``index.html`` among several (its manual would take the index's path), or a
game whose output directory the file-system encoding cannot name; 3
parse/compile error (including an input that is not UTF-8, at the offset of
its first bad byte), a malformed heuristics file or (generate,
playout-stats) a game with no legal opening move; 4 playout move-cap exceeded;
130 interrupted (SIGINT, as a Ctrl-C sends it), with the one line ``error:
interrupted``.
Every offset in a message is a character offset into the file's text as
written, line endings included.  Standard output is UTF-8, as every written
file is, whatever the locale's encoding.

``generate`` is a plain loop over the games: ``pipeline.played`` plays
each game's seeds, ``pipeline.generate`` builds its files and
``pipeline.write_game`` writes them, and the ``wrote`` line is printed, in
game order, with ``index.html`` last.  With more than one CPU in
``os.sched_getaffinity`` and one thread, ``played`` forks one worker per
spare CPU once per call, and worker k plays seed range k of every game
while this process plays range 0 and builds and writes each game in turn
(``parallel``).  A worker that fails, for any reason, has its ranges played
again here, so every error, exit 4's move cap too, is raised in this
process.  Only this process writes, so exit 2, 4 or 130 in one game
leaves the games before it written and nothing of it or of any later game,
as with one CPU.  SIGINT is held while a game's files and its ``wrote``
line, or the index, are written, and workers ignore it: leaving ``played``
kills and reaps them.  ``playout-stats`` splits its one game alike.  The
files and the output are the same bytes for any number of CPUs.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from .compiler import PlayoutLimitExceeded
from .english import translate_game
from .pipeline import (NoOpeningMove, generate, load_game, load_playable, played,
                       playout_stats, read_source, write_game, write_index)
from .registry import CompileError
from .sexpr import ParseError
from .strategy import HeuristicsError, explain_heuristics, parse_heuristics


def _add_game_args(sub: argparse.ArgumentParser, multiple: bool = False) -> None:
    sub.add_argument("--game", action="append" if multiple else None, required=True,
                     type=Path, help=".lud game description file"
                     + (" (repeatable)" if multiple else ""))


def playout_count(text: str) -> int:
    count = int(text)  # not an integer: argparse reports "invalid playout_count value"
    if count < 1:  # argparse makes this a usage error, exit 2
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


@contextmanager
def _sigint_held() -> Iterator[None]:
    """Hold SIGINT over the block where the platform can, so that a Ctrl-C in it
    raises ``KeyboardInterrupt`` only as the block is left: what the block
    writes is written whole."""
    import signal  # here, since translate never needs it
    if not hasattr(signal, "pthread_sigmask"):
        yield
        return
    held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process on first use: it depends on no input,
    and ``parse_args`` keeps nothing of a call in it."""
    parser = argparse.ArgumentParser(
        prog="gamescribe",
        description="Generate illustrated manuals from board-game descriptions.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build a full manual for each game")
    _add_game_args(gen, multiple=True)
    gen.add_argument("--playouts", type=playout_count, default=100)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=Path, default=Path("out"))
    gen.add_argument("--heuristics", type=Path, default=None,
                     help="optional (heuristics ...) file for the strategy section")
    gen.add_argument("--no-similar", action="store_true",
                     help="highlight only the selected move instead of all similar ones")
    gen.add_argument("--format", choices=["html", "json"], default="html",
                     help="'json' additionally dumps traces and the move taxonomy")

    tr = sub.add_parser("translate", help="print the English translation")
    _add_game_args(tr)

    st = sub.add_parser("playout-stats", help="print outcome and coverage statistics")
    _add_game_args(st)
    st.add_argument("--playouts", type=playout_count, default=100)
    st.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(sys.stdout, "reconfigure"):  # not an in-memory stdout such as StringIO
        sys.stdout.reconfigure(encoding="utf-8", errors=sys.stdout.errors)
    try:
        if args.command == "generate":
            # Every input is checked before anything is written; each game's
            # name is its output directory.
            specs, paths = [], {}
            for game in args.game:
                spec = load_playable(game)
                if spec.name in paths:
                    print(f"error: {paths[spec.name]} and {game} both describe the game "
                          f"{spec.name!r}, whose manual goes to {args.out / spec.name}",
                          file=sys.stderr)
                    return 2
                if spec.name == "index.html" and len(args.game) > 1:
                    print(f"error: {game} describes the game 'index.html', whose manual would "
                          f"go to {args.out / spec.name}, the index's path", file=sys.stderr)
                    return 2
                try:
                    os.fsencode(args.out / spec.name)
                except UnicodeEncodeError:
                    print(f"error: the file-system encoding cannot name {args.out / spec.name}",
                          file=sys.stderr)
                    return 2
                paths[spec.name] = game
                specs.append(spec)
            entries = parse_heuristics(read_source(args.heuristics)) if args.heuristics else None
            strategies = [None if entries is None else explain_heuristics(entries, spec)
                          for spec in specs]

            dump = args.format == "json"  # then the playouts go to traces.json too
            with played(specs, args.seed, args.playouts, dump) as games:
                for spec, strategy, (kept, _, spans) in zip(specs, strategies, games):
                    files = generate(spec, kept, strategy, similar=not args.no_similar,
                                     dump=dump)
                    with _sigint_held():
                        game_dir = write_game(args.out / spec.name, files, spans)
                        print(f"wrote {game_dir / 'manual.html'}")
            if len(specs) > 1:
                with _sigint_held():
                    write_index(args.out, list(paths))
        elif args.command == "translate":
            print(translate_game(load_game(args.game)), end="")
        elif args.command == "playout-stats":
            print(playout_stats(load_playable(args.game), args.seed, args.playouts))
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an input that cannot be read, or an --out that is not a directory
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}",
              file=sys.stderr)
        return 2
    except HeuristicsError as exc:
        print(f"error: heuristics file {args.heuristics}: {exc}", file=sys.stderr)
        return 3
    except ParseError as exc:
        print(f"error: parse failed: {exc}", file=sys.stderr)
        return 3
    except NoOpeningMove as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CompileError as exc:
        print(f"error: compile failed: {exc}", file=sys.stderr)
        return 3
    except PlayoutLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:  # Ctrl-C, or SIGINT to the process or its group
        print("error: interrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
