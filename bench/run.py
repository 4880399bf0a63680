"""gamescribe benchmark.

Usage (from the root of a checkout):

    python3 bench/run.py --workload hex-manual --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each op calls `gamescribe.cli.main(argv)` in-process with stdout captured:
one single-threaded client in a closed loop (the next op starts when the
previous one returns), never with `--jobs`. Outputs are checked after each op,
outside its timed region, against the references in `tests/`.

`--trace 0` prints the end-to-end metrics. Their times are given at reference
speed, because on a shared machine the CPU speed can drift by up to 2x from one
minute to the next (see speed.py); the wall-clock median goes to stderr. `--trace 1`
alternates untraced and traced passes over a fixed list of ops and prints the
per-layer metrics (see tracer.py). The last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the line before
it gives the same figures as one row, with fail_frac.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import speed

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
WORK = ROOT / ".bench_out"
WORKLOADS = ("hex-manual", "piece-manuals", "rules-translate")
PIECE_GAMES = ("Breakthrough", "Amazons", "TicTacToe")
PLAYOUTS = 100
SETUP_SAMPLES = 7
SEGMENT_S = 0.5  # ops timed between two speed factors
E2E_UNITS = {"op_ms_p50": "ms", "op_ms_p90": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

# Run in a fresh interpreter: the cost every CLI call pays before its first stage.
SETUP_SNIPPET = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import gamescribe.cli
from gamescribe.registry import default_registry
default_registry()
print(time.perf_counter() - start)
"""


class MissingProgram(Exception):
    pass


def load_program():
    """Put the checkout's sources and test references on sys.path and import them."""
    needed = [ROOT / "src" / "gamescribe" / "cli.py", ROOT / "tests" / "oracles.py",
              ROOT / "tests" / "goldens.py"]
    needed += [CORPUS / f"{stem}.lud" for stem in ("Hex",) + PIECE_GAMES]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise MissingProgram(f"not a gamescribe checkout; missing {', '.join(missing)}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    global checks, goldens, inputs, pipeline, cli, tracer
    import checks
    import goldens
    import inputs
    import tracer
    from gamescribe import cli, pipeline


@dataclass
class Op:
    argv: list[str]
    check: Callable[[str], list[str]]  # captured stdout -> problems
    out_dir: Path | None = None        # emptied before the op runs


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"op failed: {'; '.join(problems)}", file=sys.stderr)


def run_op(op: Op, trace=None, sampler=None) -> tuple[float, list[str]]:
    """Run one op; returns its wall seconds and the problems its output check found.

    With a speed ``sampler``, the time its samples took during the op is left out.
    """
    if op.out_dir is not None:
        shutil.rmtree(op.out_dir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    if trace is not None:
        trace.op += 1
        trace.install()
    busy = sampler.busy if sampler is not None else 0.0
    try:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a raising op is a failed op; the run goes on
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if sampler is not None:
            elapsed -= sampler.busy - busy
    finally:
        if trace is not None:
            trace.uninstall()
            trace.settle()
    if code != 0:
        return elapsed, [f"{' '.join(op.argv[:3])}: exit {code} {err.getvalue().strip()[:300]}"]
    try:
        return elapsed, op.check(out.getvalue())
    except Exception as exc:  # malformed output the check could not read
        return elapsed, [f"check raised {type(exc).__name__}: {exc}"]


# --- workloads: each returns (op for index i, the fixed ops of one traced pass) ---

def hex_manual(seed: int, work: Path):
    spec = pipeline.load_game(CORPUS / "Hex.lud")
    size = spec.board.rows
    out = work / "out"

    def op(i: int) -> Op:
        def check(stdout: str) -> list[str]:
            manifest, problems = checks.check_manual(out / spec.name, spec, goldens.HEX)
            return problems + (checks.check_hex_endings(manifest, size) if manifest else [])
        argv = ["generate", "--game", str(CORPUS / "Hex.lud"), "--playouts", str(PLAYOUTS),
                "--seed", str(seed * 1_000_000 + i * PLAYOUTS), "--out", str(out)]
        return Op(argv, check, out)
    return op, [op(0)]


def piece_manuals(seed: int, work: Path):
    specs = {stem: pipeline.load_game(CORPUS / f"{stem}.lud") for stem in PIECE_GAMES}
    out = work / "out"

    def check(stdout: str) -> list[str]:
        problems = checks.check_index(out, [s.name for s in specs.values()])
        for stem, spec in specs.items():
            game_dir = out / spec.name
            manifest, found = checks.check_manual(game_dir, spec, inputs.CORPUS_EXPECTED[stem])
            problems += found
            if manifest is None:
                continue
            problems += checks.check_dumps(game_dir, manifest)
            if stem == "TicTacToe":
                problems += checks.check_tictactoe_endings(manifest)
        return problems

    def op(i: int) -> Op:
        argv = ["generate", "--format", "json", "--playouts", str(PLAYOUTS),
                "--seed", str(seed * 1_000_000 + i * PLAYOUTS), "--out", str(out)]
        for stem in PIECE_GAMES:
            argv += ["--game", str(CORPUS / f"{stem}.lud")]
        return Op(argv, check, out)
    return op, [op(0)]


def rules_translate(seed: int, work: Path):
    drawn = inputs.draw(seed)
    paths = inputs.write(drawn, CORPUS, work / "lud")

    def translate(path: Path, item) -> Op:
        def check(stdout: str) -> list[str]:
            return [] if stdout == item.expected else [f"{item.name}: translation differs"]
        return Op(["translate", "--game", str(path)], check)
    ops = [translate(path, item) for path, item in zip(paths, drawn)]
    return (lambda i: ops[i % len(ops)]), ops


BUILDERS = {"hex-manual": hex_manual, "piece-manuals": piece_manuals,
            "rules-translate": rules_translate}


def warm_up(tally: Tally) -> None:
    """One untimed translate: loads the registry and touches the front-end code."""
    item = inputs.CORPUS_EXPECTED["Hex"]
    _, problems = run_op(Op(["translate", "--game", str(CORPUS / "Hex.lud")],
                            lambda out: [] if out == item else ["warm-up translation differs"]))
    tally.record(problems)


def setup_seconds(sampler) -> float:
    """Median seconds, at reference speed, for a fresh interpreter to import the CLI
    and load the registry; each sample is scaled by reference samples around it."""
    samples = []
    sampler.sample()
    for _ in range(SETUP_SAMPLES):
        first = len(sampler.samples) - 1
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(ROOT / "src")],
                              capture_output=True, text=True, timeout=60, check=True)
        sampler.sample()
        samples.append(float(proc.stdout) * sampler.factor(first))
    return statistics.median(samples)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_untraced(op_at, seconds: float, tally: Tally) -> dict[str, float]:
    """Closed loop for ``seconds``; op times are scaled per segment of at least
    SEGMENT_S to reference speed (see speed.py)."""
    warm_up(tally)
    sampler = speed.SpeedSampler()
    latencies, wall = [], []
    with sampler:
        start = time.perf_counter()
        while not latencies or time.perf_counter() - start < seconds:
            first, segment = len(sampler.samples), []
            segment_start = time.perf_counter()
            while not segment or time.perf_counter() - segment_start < SEGMENT_S:
                elapsed, problems = run_op(op_at(len(wall) + len(segment)), sampler=sampler)
                tally.record(problems)
                segment.append(elapsed)
            factor = sampler.factor(first)
            wall += segment
            latencies += [t * factor for t in segment]
    metrics = {
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "op_ms_p90": quantile(latencies, 90) * 1e3,
        "setup_s": setup_seconds(sampler),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"# {len(latencies)} timed ops; wall p50 {statistics.median(wall) * 1e3:.4f} ms; "
          f"machine at {speed.REFERENCE_S / statistics.fmean(sampler.samples):.3f} "
          "of reference speed", file=sys.stderr)
    return metrics


def run_traced(ops: list[Op], seconds: float, tally: Tally, work: Path) -> dict[str, float]:
    """Alternate untraced and traced passes over ``ops``; medians over the passes."""
    warm_up(tally)
    trace = tracer.Tracer()
    plain, traced, passes, shares = [], [], [], []

    def one_pass(traced_pass: bool) -> float:
        total = 0.0
        first = len(trace.spans)
        trace.counts.clear()
        for op in ops:
            elapsed, problems = run_op(op, trace if traced_pass else None)
            tally.record(problems)
            total += elapsed
        if traced_pass:
            passes.append(trace.pass_metrics(first, len(ops)))
            shares.append(trace.layer_self_ns(first))
        return total / len(ops)

    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for traced_pass in order:
            (traced if traced_pass else plain).append(one_pass(traced_pass))
    trace.write_spans(work / "spans.tsv")

    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    untraced_op, traced_op = statistics.median(plain), statistics.median(traced)
    metrics["trace.overhead_frac"] = traced_op / untraced_op - 1
    self_ms = {layer: statistics.median(s[layer] for s in shares) / len(ops) / 1e6
               for layer in tracer.LAYERS}
    total = sum(self_ms.values())
    print("# self ms per op: " + " ".join(f"{k}={v:.3f}" for k, v in self_ms.items()
                                          if v), file=sys.stderr)
    print(f"# {len(passes)} traced and {len(plain)} untraced passes of {len(ops)} ops; "
          f"layer self times sum to {total:.3f} ms per op, {total / (untraced_op * 1e3) - 1:+.4f} "
          f"of the untraced op ({untraced_op * 1e3:.3f} ms); "
          f"engine share {self_ms['engine'] / total:.3f}", file=sys.stderr)
    return metrics


def result_line(tally: Tally, metrics: dict[str, float], units: dict[str, str]) -> str:
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })


def row(workload: str, tally: Tally, metrics: dict[str, float], units: dict[str, str]) -> str:
    fields = [f"{workload:<16}", f"fail_frac={tally.failed / tally.attempted:.4f} "
              f"({tally.failed}/{tally.attempted})"]
    # The per-command names: generate on the manual workloads, translate on the other.
    if "op_ms_p50" in metrics:
        if workload == "rules-translate":
            fields += [f"translate_ms_p50={metrics['op_ms_p50']:.4f} ms",
                       f"translate_ms_p90={metrics['op_ms_p90']:.4f} ms"]
        else:
            fields.append(f"generate_s={metrics['op_ms_p50'] / 1e3:.4f} s")
    fields += [f"{name}={value:.6g} {units[name]}" for name, value in metrics.items()]
    return "  ".join(fields)


def header(args) -> str:
    return (f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
            f"trace={args.trace} nproc={os.cpu_count()} python={platform.python_version()}")


def run_workload(args) -> int:
    try:
        load_program()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(header(args))
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    op_at, pass_ops = BUILDERS[args.workload](args.seed, work)
    tally = Tally()
    if args.trace:
        metrics, units = run_traced(pass_ops, args.seconds, tally, work), tracer.UNITS
    else:
        metrics, units = run_untraced(op_at, args.seconds, tally), E2E_UNITS
    shutil.rmtree(work / "out", ignore_errors=True)
    print(row(args.workload, tally, metrics, units))
    print(result_line(tally, metrics, units))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is the workload's own."""
    rows, results = [], {}
    print(header(args))
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        rows.append(lines[-2])
        results[workload] = json.loads(lines[-1])
    print("\n".join(rows))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
