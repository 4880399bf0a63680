"""End-to-end manual generation: parse, compile, play out, render, write.

``played`` and ``generate`` take loaded games and plain arguments.  All
stages are deterministic for fixed arguments: playout seeds are ``seed ..
seed + playouts - 1``, each trace depends only on its own seed, and asset
ids are content hashes of move signatures and ending result keys.

``played`` cuts every game's seeds into the same contiguous ranges, one
per CPU that ``parallel.cpus`` counts, and merges the processes' folds, so
the output does not depend on the number of CPUs (``parallel`` describes
the workers).  ``generate`` builds a
game's files from the merged folds as plain data, and ``write_game``
writes them.  Only the process that runs ``cli.main`` does either, so no
worker writes under ``--out``.

``generate --format json`` exports the playouts as ``traces.json``.  Each
range streams every trace's text, as it is played, into its process's
anonymous temporary file (see ``_trace_sink``), and ``_write_traces`` copies
each range's span of those files in seed order.  The text comes from
templates instead of ``engine.trace_to_dict`` dicts passed to
``json.dumps(indent=2)`` (the pure-Python encoder, since ``indent`` disables
the C one).  Each move signature gets one template, with a NUL sentinel
where each site label goes.  A move that stays on its site is filled in
once and kept; any other is joined from its (signature, from-site) head,
the template with the from-label filled in, split at the to-label.  So no
process holds more than one trace's text, and a range's writer holds at
most one text and one head per (signature, site), whatever the playouts.
The output is the same bytes; ``trace_to_dict`` stays as the debug export
that the tests hold the writer to.  Every file is written as UTF-8, whatever
the locale.  A game whose first mover has no legal move cannot be played
out, so ``generate`` and ``playout-stats`` reject it.

The engine, render, taxonomy and SHA-1 are imported by the functions that
run them, once per call, so that ``translate``, which reads only
``load_game``, loads none of them.  The asset ids' SHA-1 comes from
CPython's own ``_sha1``, since ``hashlib`` loads OpenSSL; a build without
``_sha1`` uses ``hashlib``.  ``write_index`` escapes with ``manual.escape``,
so no command loads ``html`` and ``html.entities``.
"""

from __future__ import annotations

import json
import os
from contextlib import ExitStack, contextmanager
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO
from urllib.parse import quote

from .compiler import GameSpec, compile_game
from .english import translate_game
from .manual import build_manual, check_assets, escape
from .registry import CompileError
from .sexpr import ParseError, parse

if TYPE_CHECKING:
    from collections.abc import Callable, Iterator

    from . import engine, render
    from .taxonomy import DistinctMove, EndingExample


def read_source(path: Path) -> str:
    """The text of a UTF-8 input file, line endings and all.

    Offsets into it count characters.  A byte that is not UTF-8 is a
    ParseError at the character offset where that byte starts.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text",
                         len(data[:exc.start].decode("utf-8"))) from None


def load_game(path: Path) -> GameSpec:
    return compile_game(parse(read_source(path)))


class NoOpeningMove(CompileError):
    """The game compiles, but its first mover has no legal move."""


def load_playable(path: Path) -> GameSpec:
    """``load_game``, rejecting a game whose first mover has no legal move.

    Every playout of such a game would be a draw before the first move, so
    its manual would show no move and no ending.
    """
    from . import engine
    spec = load_game(path)
    if not engine.legal_moves(spec, engine.initial_state(spec)):
        raise NoOpeningMove("no legal opening move: every playout would end before its "
                            "first move", spec.play.span)
    return spec


def _asset_id(key: tuple) -> str:  # of a move signature or an ending's result key
    try:  # once per image pair, not per move; hashlib would load OpenSSL's _hashlib
        from _sha1 import sha1
    except ImportError:  # a build without CPython's own SHA-1
        from hashlib import sha1
    return sha1(repr(tuple(key)).encode()).hexdigest()[:10]


def _add_pair(files: dict[str, str], stem: str, pair: tuple[str, str]) -> dict:
    """Add ``svg/<stem>_before.svg`` and ``_after.svg`` to ``files``; their paths by side."""
    paths = {side: f"svg/{stem}_{side}.svg" for side in ("before", "after")}
    files[paths["before"]], files[paths["after"]] = pair
    return paths


def _render_move_assets(spec: GameSpec, distinct: list[DistinctMove],
                        traces_by_seed: dict, files: dict[str, str],
                        similar: bool, layout: render._Layout) -> list[dict]:
    from . import engine, render
    leaves = []
    for d in distinct:
        seed, index = d.exemplar
        trace = traces_by_seed[seed]
        state = engine.replay(spec, trace, upto=index)
        pair = render.render_move_pair(spec, state, trace.moves[index], similar, layout)
        sig_id = _asset_id(d.signature)
        leaves.append({
            "id": sig_id,
            "mover": d.signature.mover,
            "piece": d.signature.piece,
            "origin_ludeme": d.signature.origin_id,
            "action_types": list(d.signature.action_types),
            "rule_text": d.rule_text,
            "exemplar": {"seed": seed, "move_index": index},
            **_add_pair(files, f"move_{sig_id}", pair),
        })
    return leaves


def _render_ending_assets(spec: GameSpec, endings: list[EndingExample],
                          traces_by_seed: dict, files: dict[str, str],
                          layout: render._Layout) -> list[dict]:
    from . import engine, render
    out = []
    for example in endings:
        trace = traces_by_seed[example.exemplar_seed]
        state = engine.replay(spec, trace, upto=len(trace.moves) - 1)
        pair = render.render_ending_pair(spec, state, trace.moves[-1], layout)
        outcome, players, ludeme = example.result_key
        out.append({
            "text": example.text,
            "result": {"outcome": outcome, "players": list(players),
                       "end_ludeme": ludeme},
            "winning_sites": [spec.board.labels[s] for s in example.winning_sites]
            if example.winning_sites else None,
            "exemplar_seed": example.exemplar_seed,
            **_add_pair(files, f"end_{_asset_id(example.result_key)}", pair),
        })
    return out


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _array(items: list[str], pad: str) -> str:
    """JSON array of encoded ``items`` laid out as ``json.dumps(indent=2)`` does at ``pad``."""
    if not items:
        return "[]"
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


_MOVE = ('{\n        "mover": %d,\n        "piece": %s,\n        "origin_ludeme": %d,\n'
         '        "from": %s,\n        "to": %s,\n        "actions": %s\n      }')
_TRACE = (',\n  {\n    "seed": %d,\n    "moves": %s,\n    "outcome": {\n      "players": %s,\n'
          '      "result": %s,\n      "end_ludeme": %s,\n      "winning_sites": %s\n    }\n  }')


_FROM, _TO = "\0f", "\0t"  # the label sentinels: json's C encoder never writes a raw NUL


class _Heads(dict):
    """``move[:5]`` -> the parts of the move's text between its to-labels.

    Each ``move[:4]`` signature gets one template of ``_MOVE``, with the
    quoted piece baked in and ``_FROM`` and ``_TO`` where its labels go.  A
    head is that template with the from-label filled in, split at ``_TO``,
    so a move's text is ``labels[move.to_site].join(heads[move[:5]])``.
    """

    def __init__(self, labels: list[str]):
        from .engine import move_actions
        super().__init__()
        self.labels = labels
        self.move_actions = move_actions
        self.templates: dict[tuple, str] = {}

    def template(self, move: tuple) -> str:
        """The template of ``move[:4]``, built on its first call."""
        template = self.templates.get(move[:4])
        if template is None:
            mover, piece, origin_id, kinds = move[:4]
            piece = _quote(piece)
            actions = [_array([_quote(kind), *args], " " * 10)
                       for kind, *args in self.move_actions(kinds, piece, _FROM, _TO)]
            template = self.templates[move[:4]] = _MOVE % (
                mover, piece, origin_id, _FROM, _TO, _array(actions, " " * 8))
        return template

    def __missing__(self, head: tuple) -> list[str]:
        parts = self[head] = self.template(head).replace(_FROM, self.labels[head[4]]).split(_TO)
        return parts


class _MoveTexts(dict):
    """Move -> its JSON text, kept only for a move whose from and to are one site.

    Every Add is such a move, so a game of Adds looks each move up in C after
    its first.  Any other move misses every time and is joined from its head,
    so the texts and the heads are at most one per (signature, site).
    """

    def __init__(self, labels: list[str]):
        super().__init__()
        self.labels = labels
        self.heads = _Heads(labels)

    def __missing__(self, move: engine.Move) -> str:
        site = move.to_site
        if move.from_site != site:
            return self.labels[site].join(self.heads[move[:5]])
        label = self.labels[site]
        text = self[move] = self.heads.template(move).replace(_FROM, label).replace(_TO, label)
        return text


def _trace_sink(spec: GameSpec, out: BinaryIO) -> Callable[[engine.PlayoutTrace], object]:
    """A function that writes a trace's text in ``traces.json``, after ``,\\n  ``, to ``out``.

    The text has the layout of ``json.dumps(indent=2)``, from templates of
    that layout, with no dict per move or trace, and strings go through
    json's C encoder, so it is ASCII.  The moves' texts come from one
    ``_MoveTexts`` per function returned.  Only ``spec.board.labels`` is read.
    """
    labels = list(map(_quote, spec.board.labels))
    texts = _MoveTexts(labels)
    write = out.write

    def sink(trace: engine.PlayoutTrace) -> object:
        outcome = trace.outcome
        sites = outcome.winning_sites
        return write((_TRACE % (
            trace.seed, _array(list(map(texts.__getitem__, trace.moves)), "    "),
            _array([str(p) for p in outcome.players], "      "), _quote(outcome.outcome),
            "null" if outcome.end_id is None else outcome.end_id,
            _array([labels[s] for s in sites], "      ") if sites else "null")).encode())
    return sink


def _copy(spans: list[tuple[BinaryIO, int, int]], out: BinaryIO) -> None:
    """Copy each ``(file, start, stop)`` byte span to ``out``, in order, in chunks
    of at most 64 KiB, by ``os.pread``, which leaves the file's offset alone."""
    for file, start, stop in spans:
        file.flush()
        fd = file.fileno()
        while start < stop:
            chunk = os.pread(fd, min(stop - start, 1 << 16), start)
            if not chunk:
                raise OSError(f"{file} ends before byte {stop}")
            out.write(chunk)
            start += len(chunk)


def _write_traces(path: Path, spans: list[tuple[BinaryIO, int, int]]) -> None:
    """Write ``traces.json`` from ``spans``, the text of ``_trace_sink`` for every
    playout in seed order, as ``(file, start, stop)`` byte spans (see ``_copy``):
    ``json.dumps([engine.trace_to_dict(t, spec) ...], indent=2)`` plus a newline."""
    spans = [span for span in spans if span[1] < span[2]]
    with open(path, "wb") as out:
        if spans:
            file, start, stop = spans[0]
            out.write(b"[")
            _copy([(file, start + 1, stop), *spans[1:]], out)  # less the first comma
            out.write(b"\n]\n")
        else:
            out.write(b"[]\n")


@contextmanager
def played(specs: list[GameSpec], seed: int, playouts: int,
           traces: bool = False) -> Iterator[Iterator[tuple[list, dict, list | None]]]:
    """Play seeds ``seed .. seed + playouts - 1`` of each of ``specs`` in one
    process per CPU; yields an iterator of each game's merged folds, in game order.

    The seeds are cut into one contiguous range per ``parallel.cpus()`` (at
    most ``playouts``), the same for every game, and a ``parallel.Pool``
    plays them: range 0 here, the others in forked workers, each of which
    plays its range of every game while this process uses the games before.
    Each process folds its range (see ``_fold``); a worker sends its fold
    back as plain tuples, which this process makes traces again.  A game's
    item is ``(kept, counts, spans)``: the folds' kept traces, joined in seed
    order, and the playouts of each (outcome, players).  A key's first
    occurrence over all the seeds is kept by the first range that holds it,
    so the taxonomy of ``kept`` is that of every trace.  With ``traces``,
    every range streams the text of each of its traces (see ``_trace_sink``)
    into its own anonymous temporary file, opened before the fork, and
    ``spans`` gives each range's ``(file, start, stop)`` in seed order, for
    ``_write_traces``, until the next game's item is read; else None.
    """
    if playouts < 1:  # no playout, no move or ending to show
        raise ValueError("playout count must be at least 1")
    from . import engine, parallel
    ways = min(parallel.cpus(), playouts)  # no range is empty
    bounds = [seed + playouts * k // ways for k in range(ways + 1)]

    def job(k: int, game: int) -> tuple[tuple[list, dict], int, int]:
        spec, out, sink, start = specs[game], files[k], None, 0
        if out is not None:
            if k == 0:  # this process's own file holds one game's range 0 at a time
                out.truncate(0)
            start = out.seek(0, os.SEEK_END)  # past what a dead worker left
            sink = _trace_sink(spec, out)
        fold, stop = _fold(spec, bounds[k], bounds[k + 1], sink), 0
        if out is not None:
            out.flush()
            stop = out.tell()
        return (fold if k == 0 else _flat(*fold)), start, stop  # range 0 keeps its objects

    def merged(results: list) -> tuple[list, dict, list | None]:
        ((kept, counts), _, _), *others = results
        for (fold_kept, fold_counts), _, _ in others:
            kept += [engine.PlayoutTrace(seed, tuple(map(engine.Move._make, moves)),
                                         engine.EndMatch(*outcome))
                     for seed, moves, outcome in fold_kept]
            for key, count in fold_counts.items():
                counts[key] = counts.get(key, 0) + count
        spans = [(file, start, stop) for file, (_, start, stop) in zip(files, results)]
        return kept, counts, spans if traces else None

    with ExitStack() as stack:  # the pool is reaped before the files close
        files: list[BinaryIO | None] = [None] * ways
        if traces:
            import tempfile
            files = [stack.enter_context(tempfile.TemporaryFile()) for _ in range(ways)]
        pool = stack.enter_context(parallel.Pool(job, ways, len(specs)))
        yield (merged(pool.results(game)) for game in range(len(specs)))


def play(spec: GameSpec, seed: int, playouts: int) -> tuple[list[engine.PlayoutTrace], dict]:
    """One game's ``(kept, counts)`` of ``played``."""
    with played([spec], seed, playouts) as games:
        kept, counts, _ = next(games)
    return kept, counts


def _fold(spec: GameSpec, start: int, stop: int,
          sink: Callable[[engine.PlayoutTrace], object] | None
          ) -> tuple[list[engine.PlayoutTrace], dict]:
    """Play seeds ``start .. stop - 1`` in order, each trace passed to ``sink`` if given,
    and fold them: ``(kept, counts)``.

    A trace is kept when it holds the first occurrence among these seeds of a
    ``taxonomy.move_key`` or of a ``taxonomy.ending_key``, the keys by which
    ``collect_distinct`` and ``collect_endings`` tell moves and endings apart.
    ``counts`` maps each (outcome, players) to its playouts.
    """
    from . import engine, taxonomy
    playout = engine.random_playout
    move_key, ending_key = taxonomy.move_key(spec), taxonomy.ending_key
    moves_seen: set[tuple] = set()
    endings_seen: set[tuple] = set()
    kept: list[engine.PlayoutTrace] = []
    counts: dict[tuple, int] = {}
    for seed in range(start, stop):
        trace = playout(spec, seed)
        if sink is not None:
            sink(trace)
        ending = ending_key(trace.outcome)  # (outcome, players, end id)
        keys = set(map(move_key, trace.moves))
        if ending not in endings_seen or not keys <= moves_seen:
            endings_seen.add(ending)
            moves_seen |= keys
            kept.append(trace)
        counts[ending[:2]] = counts.get(ending[:2], 0) + 1
    return kept, counts


def _flat(kept: list[engine.PlayoutTrace], counts: dict) -> tuple[list, dict]:
    """A fold as plain tuples, which ``marshal`` takes: each trace as ``(seed,
    moves, (end_id, players, outcome, winning_sites))``, each move a tuple."""
    return [(t.seed, tuple(map(tuple, t.moves)), (t.outcome.end_id, t.outcome.players,
                                                  t.outcome.outcome, t.outcome.winning_sites))
            for t in kept], counts


def generate(spec: GameSpec, kept: list[engine.PlayoutTrace], strategy_lines: list[str] | None,
             similar: bool, dump: bool = False) -> dict[str, str]:
    """Build the files of one ``load_playable`` game's manual from ``kept``, the
    traces of its playouts that ``played`` keeps, for ``write_game``.

    Returns ``{path relative to the game directory: text}``: the SVGs,
    ``manual.html`` and ``manual.json``, and with ``dump`` also
    ``taxonomy.json``.  With ``strategy_lines`` None the Heuristics section
    shows its placeholder.
    """
    from . import engine, render, taxonomy
    traces_by_seed = {t.seed: t for t in kept}
    distinct = taxonomy.collect_distinct(kept, spec)
    endings = taxonomy.collect_endings(kept, spec)
    coverage = taxonomy.coverage_report(distinct, spec)
    translation = translate_game(spec)

    layout = render._Layout(spec)  # every image of the game shares its cells
    files = {"svg/setup.svg": render.render_board(spec, engine.initial_state(spec),
                                                  layout=layout)}
    move_leaves = _render_move_assets(spec, distinct, traces_by_seed, files, similar, layout)
    ending_entries = _render_ending_assets(spec, endings, traces_by_seed, files, layout)

    html, manifest = build_manual(spec, translation, strategy_lines,
                                  "svg/setup.svg", ending_entries, move_leaves)
    manifest["coverage"] = coverage
    check_assets(manifest, files)
    files["manual.html"] = html
    files["manual.json"] = _json(manifest)
    if dump:
        files["taxonomy.json"] = _json({"distinct_moves": move_leaves, "coverage": coverage})
    return files


def write_game(game_dir: Path, files: dict[str, str],
               spans: list[tuple[BinaryIO, int, int]] | None = None) -> Path:
    """Write ``files`` (see ``generate``) under ``game_dir``, creating it, and
    ``traces.json`` from ``spans`` (see ``played``) if given; returns ``game_dir``."""
    (game_dir / "svg").mkdir(parents=True, exist_ok=True)
    for path, text in files.items():
        (game_dir / path).write_text(text, encoding="utf-8")
    if spans is not None:
        _write_traces(game_dir / "traces.json", spans)
    return game_dir


def playout_stats(spec: GameSpec, seed: int, playouts: int) -> str:
    """Outcome frequencies and move-ludeme coverage for a playout batch of a loaded game.

    The playouts are split as a one-game ``generate``'s.
    """
    from . import taxonomy
    kept, outcomes = play(spec, seed, playouts)
    distinct = taxonomy.collect_distinct(kept, spec)
    coverage = taxonomy.coverage_report(distinct, spec)

    counts: dict[str, int] = {}
    for (outcome, players), count in outcomes.items():
        label = outcome if outcome == "Draw" else f"{outcome} P{'/P'.join(map(str, players))}"
        counts[label] = counts.get(label, 0) + count
    lines = [f"{spec.name}: {playouts} playouts, seeds {seed}..{seed + playouts - 1}"]
    for label in sorted(counts):
        lines.append(f"  {label}: {counts[label]}")
    lines.append(f"  distinct move signatures: {len(distinct)}")
    if coverage["complete"]:
        lines.append("  move-rule coverage: complete")
    else:
        missing = ", ".join(map(str, coverage["unexercised"]))
        lines.append(f"  move-rule coverage: INCOMPLETE (unexercised ludemes: {missing})")
    return "\n".join(lines)


def write_index(out_dir: Path, game_names: list[str]) -> None:
    """Write ``index.html``, linking each game's ``<name>/manual.html``."""
    items = "\n".join(f'<li><a href="{quote(name)}/manual.html">'
                       f'{escape(name, quote=True)}</a></li>' for name in game_names)
    out_dir.joinpath("index.html").write_text(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"/>"
        "<title>Game manuals</title></head>\n"
        f"<body><h1>Game manuals</h1>\n<ul>\n{items}\n</ul>\n</body></html>\n", encoding="utf-8")
