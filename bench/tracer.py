"""Span tracer for the traced run.

The program has no timers of its own yet, so the benchmark wraps each layer's
public functions from outside, at the name each caller looks up: a function
bound by `from ... import` is wrapped in the importing module, a module
global in its own module, a method on its class. Every call then records a
span (name, layer, start, end, parent span, op id); spans stay in memory
until the run ends. A layer's self time is the time in its spans minus the
time in their child spans, so the self times of all layers add up to the
root `cli.main` span, which covers the whole op.

Counts that need a walk over a result (tree nodes, board rays) are deferred
until the op has ended, so the walk is not charged to the caller's self time.
"""

from __future__ import annotations

import pathlib
from collections import Counter
from functools import wraps
from time import perf_counter_ns

from gamescribe import boards, cli, engine, pipeline, registry, render, taxonomy
from gamescribe.sexpr import Call, children

# Columns of a span record.
NAME, LAYER, START, END, PARENT, OP, CHILD_NS, OUTERMOST = range(8)

UNITS = {
    "engine.playout_s": "s",
    "engine.plies": "count",
    "engine.us_per_ply": "us",
    "engine.legal_moves_s": "s",
    "engine.check_end_s": "s",
    "engine.moves_built_per_ply": "ratio",
    "engine.replay_s": "s",
    "engine.self_s": "s",
    "taxonomy.collect_s": "s",
    "taxonomy.moves_classified": "count",
    "taxonomy.similar_s": "s",
    "taxonomy.self_s": "s",
    "render.svg_s": "s",
    "render.svgs": "count",
    "render.svg_bytes": "bytes",
    "manual.build_ms": "ms",
    "manual.check_assets_ms": "ms",
    "pipeline.write_s": "s",
    "pipeline.bytes_written": "bytes",
    "pipeline.self_s": "s",
    "sexpr.parse_ms": "ms",
    "sexpr.nodes": "count",
    "registry.validate_ms": "ms",
    "boards.build_ms": "ms",
    "boards.sites": "count",
    "boards.ray_cells": "count",
    "compiler.compile_ms": "ms",
    "compiler.ludemes": "count",
    "english.translate_ms": "ms",
    "english.translate_node_calls": "count",
    "cli.self_ms": "ms",
    "trace.overhead_frac": "frac",
}

COUNTS = tuple(name for name, unit in UNITS.items() if unit in ("count", "bytes"))

# Every span belongs to one layer; "write" is file output under the pipeline.
LAYERS = ("cli", "pipeline", "write", "sexpr", "registry", "boards", "compiler",
          "english", "engine", "taxonomy", "render", "manual")


def _walk(tree) -> tuple[int, int]:
    """(nodes, calls) of a parsed tree; call heads count as nodes."""
    nodes = calls = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        nodes += 1
        calls += isinstance(node, Call)
        stack.extend(children(node))
    return nodes, calls


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._deferred: list[tuple[str, object]] = []
        self._saved: list[tuple[object, str, object]] = []

    # --- wrappers -------------------------------------------------------

    def _span(self, fn, layer: str, before=None, after=None):
        spans, stack, active, name = self.spans, self._stack, self._active, fn.__name__

        @wraps(fn)
        def wrapper(*args, **kwargs):
            pre = before(args) if before is not None else None
            parent = stack[-1] if stack else -1
            rec = [name, layer, 0, 0, parent, self.op, 0, active[name] == 0]
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            rec[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = rec[END] = perf_counter_ns()
                stack.pop()
                active[name] -= 1
                if parent >= 0:
                    spans[parent][CHILD_NS] += end - rec[START]
            if after is not None:
                after(args, result, pre)
            return result
        return wrapper

    def _counted(self, fn, key: str):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _plan(self):
        c = self.counts

        def add(key, value):
            c[key] += value

        def defer(kind):
            return lambda args, result, pre: self._deferred.append((kind, result))

        def built_in_playout(args):
            # The state caches its move list, so a call builds only if none is cached.
            return self._active["random_playout"] > 0 and \
                getattr(args[1], "_legal", None) is None

        def moves_built(args, result, in_playout):
            if in_playout:
                add("moves_built", len(result))

        return [
            (cli, "main", "cli"),
            (cli, "generate", "pipeline"),
            (cli, "load_game", "pipeline"),
            (cli, "write_index", "pipeline"),
            (cli, "translate_game", "english"),
            (pipeline, "parse", "sexpr", None, defer("tree")),
            (pipeline, "compile_game", "compiler", None,
             lambda args, result, pre: self._deferred.append(("ludemes", args[0]))),
            (pipeline, "translate_game", "english"),
            (pipeline, "build_manual", "manual"),
            (pipeline, "check_assets", "manual"),
            (pathlib.Path, "write_text", "write", None,
             lambda args, result, pre: add("pipeline.bytes_written", result)),
            (registry.Registry, "validate_tree", "registry"),
            (boards, "build_square", "boards", None, defer("board")),
            (boards, "build_hex_diamond", "boards", None, defer("board")),
            (engine, "random_playout", "engine", None,
             lambda args, result, pre: add("engine.plies", len(result.moves))),
            (engine, "replay", "engine"),
            (engine, "initial_state", "engine"),
            (engine, "legal_moves", "engine", built_in_playout, moves_built),
            (engine, "apply_move", "engine"),
            (engine, "check_end", "engine"),
            (engine, "trace_to_dict", "engine"),
            (taxonomy, "legal_moves", "engine", built_in_playout, moves_built),
            (render, "apply_move", "engine"),
            (taxonomy, "collect_distinct", "taxonomy"),
            (taxonomy, "collect_endings", "taxonomy"),
            (taxonomy, "coverage_report", "taxonomy"),
            (render, "similar_legal_moves", "taxonomy"),
            (taxonomy, "translate_node", "english", None,
             lambda args, result, pre: add("english.translate_node_calls", 1)),
            (render, "render_board", "render", None,
             lambda args, result, pre: (add("render.svgs", 1),
                                        add("render.svg_bytes", len(result)))),
            (render, "render_move_pair", "render"),
            (render, "render_ending_pair", "render"),
        ]

    def install(self) -> None:
        for owner, attr, layer, *hooks in self._plan():
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._span(fn, layer, *hooks))
        fn = taxonomy.move_signature
        self._saved.append((taxonomy, "move_signature", fn))
        taxonomy.move_signature = self._counted(fn, "taxonomy.moves_classified")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def settle(self) -> None:
        """Count what the deferred results hold; call after each op."""
        for kind, obj in self._deferred:
            if kind == "tree":
                self.counts["sexpr.nodes"] += _walk(obj)[0]
            elif kind == "ludemes":
                self.counts["compiler.ludemes"] += _walk(obj)[1]
            else:
                self.counts["boards.sites"] += obj.site_count
                self.counts["boards.ray_cells"] += sum(len(ray) for rays in obj.rays
                                                       for ray in rays)
        self._deferred.clear()

    # --- derived metrics ------------------------------------------------

    def layer_self_ns(self, first: int) -> Counter:
        """Self time per layer over the spans recorded since index ``first``."""
        out: Counter = Counter()
        for rec in self.spans[first:]:
            out[rec[LAYER]] += rec[END] - rec[START] - rec[CHILD_NS]
        return out

    def pass_metrics(self, first: int, ops: int) -> dict[str, float]:
        """Per-op layer metrics (every UNITS entry but the overhead) for one pass."""
        layer, by_name, outer = self.layer_self_ns(first), Counter(), Counter()
        for rec in self.spans[first:]:
            by_name[rec[NAME]] += rec[END] - rec[START] - rec[CHILD_NS]
            if rec[OUTERMOST]:
                outer[rec[NAME]] += rec[END] - rec[START]
        plies = self.counts["engine.plies"]

        def sec(ns):
            return ns / ops / 1e9

        def ms(ns):
            return ns / ops / 1e6

        metrics = {
            "engine.playout_s": sec(outer["random_playout"]),
            "engine.us_per_ply": outer["random_playout"] / plies / 1e3 if plies else 0.0,
            "engine.legal_moves_s": sec(outer["legal_moves"]),
            "engine.check_end_s": sec(outer["check_end"]),
            "engine.moves_built_per_ply": self.counts["moves_built"] / plies if plies else 0.0,
            "engine.replay_s": sec(outer["replay"]),
            "engine.self_s": sec(layer["engine"]),
            "taxonomy.collect_s": sec(outer["collect_distinct"] + outer["collect_endings"]
                                      + outer["coverage_report"]),
            "taxonomy.similar_s": sec(outer["similar_legal_moves"]),
            "taxonomy.self_s": sec(layer["taxonomy"]),
            "render.svg_s": sec(layer["render"]),
            "manual.build_ms": ms(by_name["build_manual"]),
            "manual.check_assets_ms": ms(by_name["check_assets"]),
            "pipeline.write_s": sec(layer["write"]),
            "pipeline.self_s": sec(layer["pipeline"]),
            "sexpr.parse_ms": ms(layer["sexpr"]),
            "registry.validate_ms": ms(layer["registry"]),
            "boards.build_ms": ms(layer["boards"]),
            "compiler.compile_ms": ms(layer["compiler"]),
            "english.translate_ms": ms(layer["english"]),
            "cli.self_ms": ms(layer["cli"]),
        }
        metrics.update({name: self.counts[name] / ops for name in COUNTS})
        return metrics

    def write_spans(self, path: pathlib.Path) -> None:
        """One tab-separated line per span: op, name, layer, start, end, parent."""
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(f"{rec[OP]}\t{rec[NAME]}\t{rec[LAYER]}\t{rec[START]}\t"
                        f"{rec[END]}\t{rec[PARENT]}\n")
