"""End-to-end manual generation: parse, compile, play out, render, write.

All stages are deterministic for a fixed RunConfig: playout seeds are
``seed .. seed + playouts - 1``, each trace depends only on its own seed,
and asset ids are content hashes of move signatures.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from . import engine, render, strategy, taxonomy
from .compiler import GameSpec, compile_game
from .english import translate_game
from .manual import build_manual, check_assets
from .sexpr import parse
from .taxonomy import DistinctMove, EndingExample


@dataclass
class RunConfig:
    game_path: Path
    playouts: int = 100
    seed: int = 0
    out_dir: Path = Path("out")
    heuristics_path: Path | None = None
    similar_moves: bool = True
    dump_json: bool = False

    def __post_init__(self):
        if self.playouts < 1:
            raise ValueError("playout count must be at least 1")


def load_game(path: Path) -> GameSpec:
    text = Path(path).read_text(encoding="utf-8")
    return compile_game(parse(text))


def run_playouts(spec: GameSpec, seed: int, count: int) -> list[engine.PlayoutTrace]:
    return [engine.random_playout(spec, s) for s in range(seed, seed + count)]


def _signature_id(sig: taxonomy.MoveSignature) -> str:
    key = repr((sig.mover, sig.piece, sig.origin_id, sig.action_types))
    return hashlib.sha1(key.encode()).hexdigest()[:10]


def _ending_id(example: EndingExample) -> str:
    return hashlib.sha1(repr(example.result_key).encode()).hexdigest()[:10]


def _render_move_assets(spec: GameSpec, distinct: list[DistinctMove],
                        traces_by_seed: dict, svg_dir: Path,
                        similar: bool) -> list[dict]:
    mode = "all-similar" if similar else "selected-only"
    leaves = []
    for d in distinct:
        seed, index = d.exemplar
        trace = traces_by_seed[seed]
        state = engine.replay(spec, trace, upto=index)
        move = trace.moves[index]
        before, after = render.render_move_pair(spec, state, move, mode)
        sig_id = _signature_id(d.signature)
        (svg_dir / f"move_{sig_id}_before.svg").write_text(before)
        (svg_dir / f"move_{sig_id}_after.svg").write_text(after)
        leaves.append({
            "id": sig_id,
            "mover": d.signature.mover,
            "piece": d.signature.piece,
            "origin_ludeme": d.signature.origin_id,
            "action_types": list(d.signature.action_types),
            "rule_text": d.rule_text,
            "exemplar": {"seed": seed, "move_index": index},
            "before": f"svg/move_{sig_id}_before.svg",
            "after": f"svg/move_{sig_id}_after.svg",
        })
    return leaves


def _render_ending_assets(spec: GameSpec, endings: list[EndingExample],
                          traces_by_seed: dict, svg_dir: Path) -> list[dict]:
    out = []
    for example in endings:
        trace = traces_by_seed[example.exemplar_seed]
        if not trace.moves:
            continue  # degenerate game over before any move
        state = engine.replay(spec, trace, upto=len(trace.moves) - 1)
        move = trace.moves[-1]
        before, after = render.render_ending_pair(spec, state, move)
        end_id = _ending_id(example)
        (svg_dir / f"end_{end_id}_before.svg").write_text(before)
        (svg_dir / f"end_{end_id}_after.svg").write_text(after)
        outcome, players, ludeme = example.result_key
        out.append({
            "text": example.text,
            "result": {"outcome": outcome, "players": list(players),
                       "end_ludeme": ludeme},
            "winning_sites": [spec.board.sites[s].label for s in example.winning_sites]
            if example.winning_sites else None,
            "exemplar_seed": example.exemplar_seed,
            "before": f"svg/end_{end_id}_before.svg",
            "after": f"svg/end_{end_id}_after.svg",
        })
    return out


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def generate(config: RunConfig) -> Path:
    """Run the whole pipeline for one game; returns the game's output dir."""
    spec = load_game(config.game_path)
    traces = run_playouts(spec, config.seed, config.playouts)
    traces_by_seed = {t.seed: t for t in traces}
    distinct = taxonomy.collect_distinct(traces, spec)
    endings = taxonomy.collect_endings(traces, spec)
    coverage = taxonomy.coverage_report(distinct, spec)
    translation = translate_game(spec)

    strategy_lines = None
    if config.heuristics_path is not None:
        entries = strategy.parse_heuristics(
            Path(config.heuristics_path).read_text(encoding="utf-8"))
        strategy_lines = strategy.explain_heuristics(entries, spec)

    game_dir = Path(config.out_dir) / spec.name
    svg_dir = game_dir / "svg"
    svg_dir.mkdir(parents=True, exist_ok=True)

    setup_svg = render.render_board(spec, engine.initial_state(spec))
    (svg_dir / "setup.svg").write_text(setup_svg)

    move_leaves = _render_move_assets(spec, distinct, traces_by_seed, svg_dir,
                                      config.similar_moves)
    ending_entries = _render_ending_assets(spec, endings, traces_by_seed, svg_dir)

    html, manifest = build_manual(spec, translation, strategy_lines,
                                  "svg/setup.svg", ending_entries, move_leaves)
    manifest["coverage"] = coverage
    (game_dir / "manual.html").write_text(html)
    _write_json(game_dir / "manual.json", manifest)
    check_assets(manifest, game_dir)

    if config.dump_json:
        _write_json(game_dir / "traces.json",
                    [engine.trace_to_dict(t, spec) for t in traces])
        _write_json(game_dir / "taxonomy.json",
                    {"distinct_moves": move_leaves, "coverage": coverage})
    return game_dir


def playout_stats(config: RunConfig) -> str:
    """Outcome frequencies and move-ludeme coverage for a playout batch."""
    spec = load_game(config.game_path)
    traces = run_playouts(spec, config.seed, config.playouts)
    distinct = taxonomy.collect_distinct(traces, spec)
    coverage = taxonomy.coverage_report(distinct, spec)

    counts: dict[str, int] = {}
    for trace in traces:
        outcome = trace.outcome
        label = outcome.outcome if outcome.outcome == "Draw" else \
            f"{outcome.outcome} P{'/P'.join(map(str, outcome.players))}"
        counts[label] = counts.get(label, 0) + 1
    lines = [f"{spec.name}: {len(traces)} playouts, seeds "
             f"{config.seed}..{config.seed + config.playouts - 1}"]
    for label in sorted(counts):
        lines.append(f"  {label}: {counts[label]}")
    lines.append(f"  distinct move signatures: {len(distinct)}")
    if coverage["complete"]:
        lines.append("  move-rule coverage: complete")
    else:
        missing = ", ".join(map(str, coverage["unexercised"]))
        lines.append(f"  move-rule coverage: INCOMPLETE (unexercised ludemes: {missing}); "
                     "consider more playouts")
    return "\n".join(lines)


def write_index(out_dir: Path, game_names: list[str]) -> None:
    items = "\n".join(
        f'<li><a href="{name}/manual.html">{name}</a></li>' for name in game_names)
    out_dir.joinpath("index.html").write_text(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"/>"
        "<title>Game manuals</title></head>\n"
        f"<body><h1>Game manuals</h1>\n<ul>\n{items}\n</ul>\n</body></html>\n")
