"""End-to-end manual generation: parse, compile, play out, render, write.

``generate`` takes a loaded game and plain arguments.  All stages are
deterministic for fixed arguments: playout seeds are ``seed .. seed +
playouts - 1``, each trace depends only on its own seed, and asset ids are
content hashes of move signatures and ending result keys.

``generate --format json`` exports the playouts as ``traces.json`` through
``_write_traces``, which builds the text from templates instead of building
``engine.trace_to_dict`` dicts and passing them to ``json.dumps(indent=2)``
(the pure-Python encoder, since ``indent`` disables the C one).  Each move
signature gets one ``%``-template, each distinct move is filled in once per
write through a memo, and each trace is streamed to the file as soon as it
is formatted, so the writer's peak memory stays below the file's size.  Its
output is the same bytes; ``trace_to_dict`` stays as the debug export that
the tests hold the writer to.  Every file is written as UTF-8, whatever the
locale.  A game whose first mover has no legal move cannot be played out,
so ``generate`` and ``playout-stats`` reject it.

The engine, render, taxonomy and ``hashlib`` are imported by the functions
that run them, once per call, so that ``translate``, which reads only
``load_game``, loads none of them.
"""

from __future__ import annotations

import json
from html import escape
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import TYPE_CHECKING
from urllib.parse import quote

from .compiler import GameSpec, compile_game
from .english import translate_game
from .manual import build_manual, check_assets
from .registry import CompileError
from .sexpr import ParseError, parse

if TYPE_CHECKING:
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


def run_playouts(spec: GameSpec, seed: int, count: int) -> list[engine.PlayoutTrace]:
    if count < 1:  # no playout, no move or ending to show
        raise ValueError("playout count must be at least 1")
    from . import engine
    return [engine.random_playout(spec, s) for s in range(seed, seed + count)]


def _asset_id(key: tuple) -> str:  # of a move signature or an ending's result key
    import hashlib  # once per image pair, not per move
    return hashlib.sha1(repr(tuple(key)).encode()).hexdigest()[:10]


def _write_pair(svg_dir: Path, stem: str, pair: tuple[str, str]) -> dict:
    """Write ``svg/<stem>_before.svg`` and ``_after.svg``; their manifest paths by side."""
    for side, svg in zip(("before", "after"), pair):
        (svg_dir / f"{stem}_{side}.svg").write_text(svg, encoding="utf-8")
    return {side: f"svg/{stem}_{side}.svg" for side in ("before", "after")}


def _render_move_assets(spec: GameSpec, distinct: list[DistinctMove],
                        traces_by_seed: dict, svg_dir: Path,
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
            **_write_pair(svg_dir, f"move_{sig_id}", pair),
        })
    return leaves


def _render_ending_assets(spec: GameSpec, endings: list[EndingExample],
                          traces_by_seed: dict, svg_dir: Path,
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
            **_write_pair(svg_dir, f"end_{_asset_id(example.result_key)}", pair),
        })
    return out


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _array(items: list[str], pad: str) -> str:
    """JSON array of encoded ``items`` laid out as ``json.dumps(indent=2)`` does at ``pad``."""
    if not items:
        return "[]"
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


_MOVE = ('{\n        "mover": %d,\n        "piece": %s,\n        "origin_ludeme": %d,\n'
         '        "from": %s,\n        "to": %s,\n        "actions": %s\n      }')
_TRACE = ('{\n    "seed": %d,\n    "moves": %s,\n    "outcome": {\n      "players": %s,\n'
          '      "result": %s,\n      "end_ludeme": %s,\n      "winning_sites": %s\n    }\n  }')


class _MoveTexts(dict):
    """Move -> its JSON text; a miss fills the template of its ``move[:4]`` signature.

    The template bakes in the quoted piece (``%`` doubled); the quoted
    from/to labels fill its ``%(f)s`` and ``%(t)s`` as values.
    """

    def __init__(self, labels: list[str]):
        from .engine import move_actions
        super().__init__()
        self.labels = labels
        self.move_actions = move_actions
        self.templates: dict[tuple, str] = {}

    def __missing__(self, move: engine.Move) -> str:
        template = self.templates.get(move[:4])
        if template is None:
            piece = _quote(move.piece).replace("%", "%%")
            actions = [_array([_quote(kind), *args], " " * 10)
                       for kind, *args in self.move_actions(move, piece, "%(f)s", "%(t)s")]
            template = self.templates[move[:4]] = _MOVE % (
                move.mover, piece, move.origin_id, "%(f)s", "%(t)s", _array(actions, " " * 8))
        labels = self.labels
        text = self[move] = template % {"f": labels[move.from_site], "t": labels[move.to_site]}
        return text


def _write_traces(path: Path, traces: list[engine.PlayoutTrace], spec: GameSpec) -> None:
    """Write ``json.dumps([engine.trace_to_dict(t, spec) ...], indent=2)`` plus a newline.

    The text comes from templates of that layout, with no dict per move or
    trace, and strings go through json's C encoder.  Each distinct move is
    formatted once per write, through the ``_MoveTexts`` memo, and each
    trace is streamed to the file as soon as it is formatted.  So only one
    trace's text and the memo are alive at a time, and the peak memory stays
    below the size of the file.
    """
    labels = list(map(_quote, spec.board.labels))
    texts = _MoveTexts(labels)
    with open(path, "w", encoding="utf-8") as out:
        sep = "[\n  "
        for trace in traces:
            outcome = trace.outcome
            sites = outcome.winning_sites
            out.write(sep)
            out.write(_TRACE % (
                trace.seed, _array(list(map(texts.__getitem__, trace.moves)), "    "),
                _array([str(p) for p in outcome.players], "      "), _quote(outcome.outcome),
                "null" if outcome.end_id is None else outcome.end_id,
                _array([labels[s] for s in sites], "      ") if sites else "null"))
            sep = ",\n  "
        out.write("\n]\n" if traces else "[]\n")


def generate(spec: GameSpec, seed: int, playouts: int, out_dir: Path,
             strategy_lines: list[str] | None, similar: bool, dump_json: bool) -> Path:
    """Run the whole pipeline for one ``load_playable`` game; returns its output dir.

    With ``strategy_lines`` None the Heuristics section shows its placeholder.
    """
    from . import engine, render, taxonomy
    traces = run_playouts(spec, seed, playouts)
    traces_by_seed = {t.seed: t for t in traces}
    distinct = taxonomy.collect_distinct(traces, spec)
    endings = taxonomy.collect_endings(traces, spec)
    coverage = taxonomy.coverage_report(distinct, spec)
    translation = translate_game(spec)

    game_dir = Path(out_dir) / spec.name
    svg_dir = game_dir / "svg"
    svg_dir.mkdir(parents=True, exist_ok=True)

    layout = render._Layout(spec)  # every image of the game shares its cells
    setup_svg = render.render_board(spec, engine.initial_state(spec), layout=layout)
    (svg_dir / "setup.svg").write_text(setup_svg, encoding="utf-8")

    move_leaves = _render_move_assets(spec, distinct, traces_by_seed, svg_dir, similar, layout)
    ending_entries = _render_ending_assets(spec, endings, traces_by_seed, svg_dir, layout)

    html, manifest = build_manual(spec, translation, strategy_lines,
                                  "svg/setup.svg", ending_entries, move_leaves)
    manifest["coverage"] = coverage
    (game_dir / "manual.html").write_text(html, encoding="utf-8")
    _write_json(game_dir / "manual.json", manifest)
    check_assets(manifest, game_dir)

    if dump_json:
        _write_traces(game_dir / "traces.json", traces, spec)
        _write_json(game_dir / "taxonomy.json",
                    {"distinct_moves": move_leaves, "coverage": coverage})
    return game_dir


def playout_stats(spec: GameSpec, seed: int, playouts: int) -> str:
    """Outcome frequencies and move-ludeme coverage for a playout batch of a loaded game."""
    from . import taxonomy
    traces = run_playouts(spec, seed, playouts)
    distinct = taxonomy.collect_distinct(traces, spec)
    coverage = taxonomy.coverage_report(distinct, spec)

    counts: dict[str, int] = {}
    for trace in traces:
        outcome = trace.outcome
        label = outcome.outcome if outcome.outcome == "Draw" else \
            f"{outcome.outcome} P{'/P'.join(map(str, outcome.players))}"
        counts[label] = counts.get(label, 0) + 1
    lines = [f"{spec.name}: {len(traces)} playouts, seeds "
             f"{seed}..{seed + playouts - 1}"]
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
    items = "\n".join(f'<li><a href="{quote(name)}/manual.html">{escape(name)}</a></li>'
                       for name in game_names)
    out_dir.joinpath("index.html").write_text(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"/>"
        "<title>Game manuals</title></head>\n"
        f"<body><h1>Game manuals</h1>\n<ul>\n{items}\n</ul>\n</body></html>\n", encoding="utf-8")
