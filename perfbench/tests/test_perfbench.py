"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import functools
import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Printed in the report of every plain run, besides the JSON metrics.
REPORT_ONLY = {"failed_frac"}
REPORT_PLAIN = {"wall_s"}
REPORT_IN_PROCESS = {"max_eps", "max_br_residual"}
REPORT_CLI = {"launch_ms_p50"}
REPORT_SWEEP = {"capped_rows"}


@functools.cache
def tiny_run(workload: str, trace: int, seed: int, repeat: int = 0) -> tuple[list[str], dict]:
    """Report lines and final JSON of one tiny run; ``repeat`` makes a fresh run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def reported(lines: list[str]) -> dict[str, str]:
    """Metric name -> the rest of its report line."""
    out = {}
    for line in lines:
        if line.startswith("# metric "):
            name, _, rest = line[len("# metric "):].partition(" = ")
            out[name] = rest
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    lines, result = tiny_run(workload, trace, 1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    names = set(reported(lines))
    assert {m["name"] for m in spec} | REPORT_ONLY <= names
    if trace == 0:
        assert REPORT_PLAIN | (REPORT_CLI if workload == "cli-cold" else REPORT_IN_PROCESS) <= names
        assert (workload == "sweep") == (REPORT_SWEEP <= names)
    assert all("(n=" in rest for rest in reported(lines).values())


def _deterministic(lines: list[str], result: dict) -> dict:
    """The parts of a traced run that must repeat exactly for one seed."""
    keep = {
        name: m["value"]
        for name, m in result["metrics"].items()
        if name.endswith(".calls")
        or name.startswith("solver.rounds_per_solve")
        or name in ("solver.nonconverged", "solver.cycles", "pt.scalar_per_br",
                    "solver.br_per_solve", "experiments.coverage.solves_per_search")
    }
    keep["outputs"] = sorted(line for line in lines if "sha256" in line)
    return keep


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_outputs_and_call_counts(workload):
    first = _deterministic(*tiny_run(workload, 1, 2, repeat=0))
    second = _deterministic(*tiny_run(workload, 1, 2, repeat=1))
    assert first == second
    assert first["solver.iterate_best_response.calls"] > 0


def test_seed0_is_byte_identical_to_run_experiments(tmp_path):
    published = tmp_path / "published"
    subprocess.run(
        [sys.executable, "scripts/run_experiments.py", "--experiment", "all",
         "--out-dir", str(published)],
        cwd=ROOT, env=bench.child_env(), check=True, capture_output=True, timeout=170,
    )
    expected = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in published.glob("*.csv")}
    reference = json.loads(bench.REFERENCE.read_text())["seed0_csv_sha256"]
    assert expected == reference

    import gridstore as gs

    got = {}
    for workload, one_pass in (("sweep", workloads.sweep_pass), ("coverage", workloads.coverage_pass)):
        inputs = workloads.make_inputs(workload, 0, ROOT)
        outputs, _ = one_pass(gs, inputs, time.perf_counter)
        got.update(bench.write_csvs(gs, workload, inputs, outputs, tmp_path / workload))
    assert got == expected


def test_row_at_the_round_cap_is_counted_not_failed():
    import checks
    import gridstore as gs

    # R = 13.345 lies in the band where the solver stops at its round cap.
    inputs = workloads.SweepInputs(references=(13.345,), asymmetric_references=(5.0,))
    outputs, _ = workloads.sweep_pass(gs, inputs, time.perf_counter)
    assert not outputs["reference"][1].converged
    quality = checks.Quality()
    verdicts = checks.check_sweep(gs, inputs, outputs, quality, quadrature_every=1)
    assert verdicts == [True] * inputs.ops
    assert (quality.capped_rows, quality.rows_checked) == (1, inputs.ops)


def test_other_seeds_shift_the_grids():
    zero = workloads.make_inputs("sweep", 0, ROOT)
    seeded = workloads.make_inputs("sweep", 7, ROOT)
    assert len(seeded.references) == len(zero.references)
    shift = seeded.references[0] - zero.references[0]
    assert 0.0 < shift < 0.25
    assert workloads.make_inputs("sweep", 7, ROOT) == seeded
    assert workloads.make_inputs("cli-cold", 7, ROOT) != workloads.make_inputs("cli-cold", 8, ROOT)


def test_absent_trace_target_reads_zero(monkeypatch):
    import gridstore.pt

    monkeypatch.setitem(tracing.TARGETS, "pt", ("expected_pt_utility_grid", "no_such_function"))
    tracer = tracing.Tracer(modules=("pt",))
    tracer.install()
    try:
        assert hasattr(gridstore.pt.expected_pt_utility_grid, "__wrapped__")
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    assert snap["absent"] == ["pt.no_such_function"]
    assert snap["stats"]["pt.no_such_function"]["calls"] == 0
    assert not hasattr(gridstore.pt.expected_pt_utility_grid, "__wrapped__")


def test_outside_a_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
