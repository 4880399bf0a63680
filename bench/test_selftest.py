"""Self-test of the benchmark; run with `python3 -m pytest -q bench` (about 2 minutes).

It checks that each workload prints every metric BENCHMARK.json names, with
its unit; that the count metrics repeat exactly for one seed; that every drawn
rules-translate text compiles; that a corrupted expected output makes ops
fail, so the checks cannot pass vacuously; and that the benchmark refuses to
run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run


def _invoke(workload: str, trace: int, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=cwd)


@pytest.fixture(scope="module")
def spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = _invoke(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.fixture(scope="module")
def program():
    run.load_program()
    return run


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_printed_with_unit(spec, results, workload, trace):
    result = results[workload, trace]
    listed = spec["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_for_one_seed(results, workload):
    proc = _invoke(workload, 1)
    again = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    first = results[workload, 1]["metrics"]
    counts = [name for name, m in first.items() if m["unit"] in ("count", "bytes")] + \
        ["engine.moves_built_per_ply"]
    assert {n: first[n]["value"] for n in counts} == {n: again[n]["value"] for n in counts}


def test_layer_predictions_cover_every_layer_metric(spec):
    predictions = json.loads((run.ROOT / "bench" / "predictions.json").read_text())
    assert set(predictions["per_layer"]) == {m["name"] for m in spec["per_layer"]}
    assert set(predictions["workloads"]) == {w["name"] for w in spec["workloads"]}


@pytest.mark.parametrize("seed", range(4))
def test_every_drawn_text_compiles(program, seed):
    from gamescribe.compiler import compile_game
    from gamescribe.sexpr import parse
    drawn = run.inputs.draw(seed)
    assert drawn == run.inputs.draw(seed)
    for item in drawn:
        if item.text is not None:
            compile_game(parse(item.text))


def _fail_frac(workload: str, tmp_path) -> float:
    op_at, _ = run.BUILDERS[workload](3, tmp_path)
    tally = run.Tally()
    run.run_untraced(op_at, 0.01, tally)
    return tally.failed / tally.attempted


def test_corrupted_translation_golden_fails(program, tmp_path, monkeypatch):
    monkeypatch.setattr(run.goldens, "TICTACTOE", run.goldens.TICTACTOE.replace("Discs", "Disks"))
    assert _fail_frac("rules-translate", tmp_path) > 0


def test_corrupted_signature_oracle_fails(program, tmp_path, monkeypatch):
    real = run.checks.oracles.enumerate_signatures
    monkeypatch.setattr(run.checks.oracles, "enumerate_signatures",
                        lambda spec: real(spec) | {(None, "Marker3", 0, ("Add",))})
    assert _fail_frac("hex-manual", tmp_path) > 0


def test_corrupted_connectivity_oracle_fails(program, tmp_path, monkeypatch):
    monkeypatch.setattr(run.checks.oracles, "hex_sides_connected", lambda *args: False)
    assert _fail_frac("hex-manual", tmp_path) > 0


def test_corrupted_line_oracle_fails(program, tmp_path, monkeypatch):
    monkeypatch.setattr(run.checks.oracles, "ttt_line_through", lambda *args: False)
    assert _fail_frac("piece-manuals", tmp_path) > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _invoke("hex-manual", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
