"""Command-line entry point.

``generate`` loads every game, then parses the heuristics file once and
explains it for every game, before it writes anything.

Exit codes: 0 success; 2 usage error (``--playouts 0``), an input file that
is missing or cannot be read (such as a directory), a ``--out`` that is not a
directory, two ``generate --game`` files of the same game name, or a game
whose output directory the file-system encoding cannot name; 3
parse/compile error (including an input that is not UTF-8, at the offset of
its first bad byte), a malformed heuristics file or (generate,
playout-stats) a game with no legal opening move; 4 playout move-cap exceeded.
Every offset in a message is a character offset into the file's text as
written, line endings included.  Standard output is UTF-8, as every written
file is, whatever the locale's encoding.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .engine import PlayoutLimitExceeded
from .english import translate_game
from .pipeline import (NoOpeningMove, generate, load_game, load_playable, playout_stats,
                       read_source, write_index)
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
            for spec, lines in zip(specs, strategies):
                game_dir = generate(spec, args.seed, args.playouts, args.out, lines,
                                    similar=not args.no_similar, dump_json=args.format == "json")
                print(f"wrote {game_dir / 'manual.html'}")
            if len(specs) > 1:
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
