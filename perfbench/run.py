"""Benchmark of the gridstore equilibrium solver.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sweep,coverage,cli-cold} \
        --seed N --seconds S --trace {0,1}

One client drives the package in a closed loop, one operation at a time,
in its shipped default configuration (``GRIDSTORE_THREADS`` unset, so the
sweep pool uses one thread per core).  A run repeats passes of its
workload for ``--seconds`` seconds, checks every output outside the timed
region, and prints a report followed, as the last line, by one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics: ``cpu_s`` (median CPU
seconds, user plus system, per pass: all threads of this process for
``sweep`` and ``coverage``, the launched processes for ``cli-cold``),
``setup_s`` (median wall time of a fresh process that imports gridstore
and builds the workload's inputs) and ``peak_rss_mb``.  Wall time per
pass is printed as a report line, not bounded: the package's default
pool runs two GIL-bound threads, and on a shared two-core host their
wall time per pass varied about twice as much between runs of the same
code as their CPU time did.
``--trace 1`` measures half of the time untraced and half with the
per-layer tracer installed, and reports the per-layer metrics.

Operations are sweep rows, covering-price searches and CLI launches.  An
operation fails when its output fails a check (see ``checks.py``), when
a sweep row ended in a cycle, when a CLI launch exits non-zero,
or when a later pass, traced or not, gives a different output than the
first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
LAUNCH_TIMEOUT_S = 120
clock = time.perf_counter
cpu_clock = time.process_time  # user + system time of every thread of this process


def children_cpu() -> float:
    """User + system time of the waited-for child processes so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GRIDSTORE_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


# --- set-up ---------------------------------------------------------------


def measure_setup(workload: str, seed: int, tiny: bool, samples: int) -> list[float]:
    """Wall time of fresh processes that import gridstore and build the inputs."""
    code = (
        "import gridstore, workloads; from pathlib import Path; "
        f"workloads.make_inputs({workload!r}, {seed}, Path({str(ROOT)!r}), {tiny})"
    )
    times = []
    for _ in range(samples):
        t0 = clock()
        subprocess.run(
            [sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True,
            timeout=LAUNCH_TIMEOUT_S,
        )
        times.append(clock() - t0)
    return times


def import_times(samples: int) -> tuple[float, float]:
    """Median cumulative import time of gridstore and of scipy.integrate, from -X importtime."""
    totals, scipy_parts = [], []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gridstore"],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=LAUNCH_TIMEOUT_S,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        totals.append(cumulative.get("gridstore", 0.0))
        scipy_parts.append(cumulative.get("scipy.integrate", 0.0))
    return median(totals), median(scipy_parts)


# --- in-process workloads --------------------------------------------------


def flatten(workload: str, outputs: dict) -> list:
    if workload == "sweep":
        return [*outputs["reference"], *outputs["price_sensitivity"], *outputs["asymmetric"]]
    return [row for rows in outputs["coverage"] for row in rows]


def run_passes(gs, workload, inputs, seconds, tracer=None) -> list[dict]:
    """Repeat passes for ``seconds``; each pass records its wall and CPU time and outputs."""
    one_pass = workloads.sweep_pass if workload == "sweep" else workloads.coverage_pass
    passes = []
    start = clock()
    while not passes or clock() - start < seconds:
        before = tracer.snapshot() if tracer else None
        t0, c0 = clock(), cpu_clock()
        try:
            outputs, families = one_pass(gs, inputs, clock)
            error = None
        except Exception as exc:  # the run goes on and counts the pass as failed
            outputs, families, error = None, {}, f"{type(exc).__name__}: {exc}"
        wall, cpu = clock() - t0, cpu_clock() - c0
        trace = tracing.diff(tracer.snapshot(), before) if tracer else None
        passes.append({"wall": wall, "cpu": cpu, "families": families, "outputs": outputs,
                       "error": error, "trace": trace})
    return passes


def gate_in_process(gs, workload, inputs, passes, quality) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes): check the first good pass, compare every pass to it."""
    notes = []
    good = next((p for p in passes if p["outputs"] is not None), None)
    attempted = inputs.ops * len(passes)
    if good is None:
        notes.append(f"every pass raised: {passes[0]['error']}")
        return attempted, attempted, notes
    if workload == "sweep":
        every = max(1, inputs.ops // 6)
        verdicts = checks.check_sweep(gs, inputs, good["outputs"], quality, every)
    else:
        verdicts = checks.check_coverage(gs, inputs, good["outputs"], quality)
    reference = flatten(workload, good["outputs"])
    if len(verdicts) != inputs.ops or len(reference) != inputs.ops:
        notes.append(f"expected {inputs.ops} outputs, got {len(reference)}")
        return attempted, attempted, notes
    failed = 0
    for p in passes:
        if p["outputs"] is None:
            failed += inputs.ops
            continue
        rows = flatten(workload, p["outputs"])
        same = len(rows) == len(reference)
        for i, ok in enumerate(verdicts):
            if not (ok and same and rows[i] == reference[i]):
                failed += 1
    bad = [i for i, ok in enumerate(verdicts) if not ok]
    if bad:
        notes.append(f"ops failing checks in every pass: {bad[:20]}")
    return attempted, failed, notes


def write_csvs(gs, workload, inputs, outputs, out: Path) -> dict:
    """SHA-256 of each CSV the package's writers produce for one pass, written into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    if workload == "sweep":
        price_rows = [getattr(r, "to_sweep_row", lambda r=r: r)() for r in outputs["price_sensitivity"]]
        paths.append(gs.write_sweep_csv(outputs["reference"], out / "reference_sweep.csv"))
        paths.append(gs.write_sweep_csv(price_rows, out / "price_sensitivity.csv"))
        paths.append(gs.write_sweep_csv(outputs["asymmetric"], out / "asymmetric.csv"))
    else:
        for reference, rows in zip(inputs.references, outputs["coverage"]):
            path = out / f"coverage_price_R{reference:g}.csv"
            paths.append(gs.write_required_price_csv(rows, path))
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}


# --- cli-cold --------------------------------------------------------------


def run_launches(inputs, seconds, traced=False) -> list[dict]:
    """Back-to-back console launches, one pass of every command per override set."""
    launches = []
    start = clock()
    n_pass = 0
    while n_pass == 0 or clock() - start < seconds:
        set_index = n_pass % len(inputs.override_sets)
        overrides = inputs.override_sets[set_index]
        for command in workloads.CLI_COMMANDS:
            trace_path = OUT_DIR / f"launch_trace_{len(launches)}.json"
            if traced:
                cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_path),
                       *workloads.cli_argv(command, overrides)]
            else:
                cmd = workloads.cli_command(command, overrides)
            t0, c0 = clock(), children_cpu()
            try:
                proc = subprocess.run(
                    cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                    timeout=LAUNCH_TIMEOUT_S,
                )
                code, stdout = proc.returncode, proc.stdout
            except subprocess.TimeoutExpired:
                code, stdout = -1, ""
            wall, cpu = clock() - t0, children_cpu() - c0
            trace = None
            if traced and trace_path.exists():
                trace = json.loads(trace_path.read_text())
                trace_path.unlink()
            launches.append({"pass": n_pass, "command": command, "set": set_index,
                             "wall": wall, "cpu": cpu, "code": code, "stdout": stdout, "trace": trace})
        n_pass += 1
    return launches


def per_pass(launches, key="wall") -> list[float]:
    """Sum of each launch's ``key`` over the launches of each pass."""
    totals = {}
    for launch in launches:
        totals[launch["pass"]] = totals.get(launch["pass"], 0.0) + launch[key]
    return list(totals.values())


def gate_cli(gs, inputs, launches) -> tuple[int, int, list[str]]:
    expected = {}
    for i, overrides in enumerate(inputs.override_sets):
        for command in workloads.CLI_COMMANDS:
            expected[command, i] = checks.expected_cli_output(gs, inputs.config, command, overrides)
    failed = [
        f"{l['command']} set {l['set']} exit {l['code']}"
        for l in launches
        if not checks.cli_output_ok(l["command"], l["code"], l["stdout"], expected[l["command"], l["set"]])
    ]
    return len(launches), len(failed), failed[:5]


# --- report ----------------------------------------------------------------


def metadata(args, tracer_threads=None) -> dict:
    import numpy
    import scipy

    src = ROOT / "src" / "gridstore"
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # GRIDSTORE_THREADS is removed from the environment, so the pool
        # runs at its default of one thread per core.
        "threads_configured": os.cpu_count(),
        "commit": commit(),
        "src_gridstore_lines": sum(
            len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))
        ),
    }
    if tracer_threads is not None:
        meta["threads_observed"] = tracer_threads
    return meta


def commit() -> str:
    """The checked-out commit, or "unknown" outside a git work tree."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def output_notes(gs, args, inputs, runs) -> list[str]:
    """Digests of the first pass's outputs: CSV hashes, or the launches' stdout."""
    if args.workload == "cli-cold":
        stdout = "".join(l["stdout"] for l in runs if l["pass"] == 0)
        return [f"output sha256 first pass: {hashlib.sha256(stdout.encode()).hexdigest()}"]
    good = next((p for p in runs if p["outputs"] is not None), None)
    if good is None:
        return []
    hashes = write_csvs(gs, args.workload, inputs, good["outputs"], OUT_DIR / args.workload)
    notes = [f"csv sha256 {name}: {h}" for name, h in sorted(hashes.items())]
    return notes + ["fingerprint " + fingerprint_status(args.seed, args.tiny, hashes)]


def fingerprint_status(seed, tiny, hashes) -> str:
    if seed != 0 or tiny or not hashes:
        return "n/a (published grids only at seed 0)"
    reference = json.loads(REFERENCE.read_text())["seed0_csv_sha256"]
    changed = sorted(name for name, h in hashes.items() if reference.get(name) != h)
    return "match" if not changed else "changed: " + ", ".join(changed)


def emit(report: list[tuple], meta: dict, notes: list[str], correct, attempted, failed, metrics):
    print("# gridstore benchmark")
    print("# meta " + json.dumps(meta, sort_keys=True))
    for note in notes:
        print("# note " + note)
    for name, value, unit, n in report:
        print(f"# metric {name} = {value!r} {unit} (n={n})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


# --- per-layer metrics --------------------------------------------------------


def per_layer(first: dict, merged: dict, n_traced: int, extra: dict) -> dict:
    """Per-layer metrics from the first traced pass (counts) and all traced passes (times)."""
    none = {"calls": 0, "self_s": 0.0, "in_solve": 0, "durations": []}

    def stat(snapshot, key):
        return snapshot["stats"].get(key, none)

    def calls(key):
        return stat(first, key)["calls"]

    def self_s(key):
        return stat(merged, key)["self_s"] / n_traced

    def ms(key, q):
        durations = stat(merged, key)["durations"]
        return 1e3 * (median(durations) if q == 50 else p90(durations))

    scalar, grid = "pt.expected_pt_utility_scalar", "pt.expected_pt_utility_grid"
    gbr, solve = "solver.grid_best_response", "solver.iterate_best_response"
    cgt_br = "cgt.best_response_cgt"
    solves = calls(solve)
    rounds = first["rounds"]
    m = {
        f"{scalar}.calls": (calls(scalar), "count"),
        f"{scalar}.self_s": (self_s(scalar), "s"),
        f"{grid}.calls": (calls(grid), "count"),
        f"{grid}.self_s": (self_s(grid), "s"),
        "pt.scalar_per_br": (calls(scalar) / calls(gbr) if calls(gbr) else 0.0, "ratio"),
        f"{gbr}.calls": (calls(gbr), "count"),
        f"{gbr}.self_s": (self_s(gbr), "s"),
        f"{gbr}.ms_p50": (ms(gbr, 50), "ms"),
        f"{solve}.calls": (solves, "count"),
        f"{solve}.ms_p50": (ms(solve, 50), "ms"),
        f"{solve}.ms_p90": (ms(solve, 90), "ms"),
        "solver.rounds_per_solve_p50": (median(rounds), "count"),
        "solver.rounds_per_solve_p90": (p90(rounds), "count"),
        "solver.br_per_solve": (
            (stat(first, gbr)["in_solve"] + stat(first, cgt_br)["in_solve"]) / solves
            if solves else 0.0,
            "ratio",
        ),
        "solver.nonconverged": (first["nonconverged"], "count"),
        "solver.cycles": (first["cycles"], "count"),
        f"{cgt_br}.calls": (calls(cgt_br), "count"),
        f"{cgt_br}.self_s": (self_s(cgt_br), "s"),
        "cgt.enumerate_bne.self_s": (self_s("cgt.enumerate_bne"), "s"),
        "model.validate_scenario.calls": (calls("model.validate_scenario"), "count"),
        "model.validate_scenario.self_s": (self_s("model.validate_scenario"), "s"),
        "cli.run.self_s": (self_s("cli.run"), "s"),
    }
    m.update(extra)
    return m


FAMILIES = ("reference", "price_sensitivity", "asymmetric", "coverage")


# --- main -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="first few points of every grid (for the benchmark's own tests)")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/gridstore/__init__.py", "configs/defaults.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a gridstore checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    os.environ.pop("GRIDSTORE_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    import gridstore as gs

    inputs = workloads.make_inputs(args.workload, args.seed, ROOT, args.tiny)
    quality = checks.Quality()
    if args.trace:
        return traced_run(gs, args, inputs, quality)
    return plain_run(gs, args, inputs, quality)


def plain_run(gs, args, inputs, quality) -> int:
    setup = measure_setup(args.workload, args.seed, args.tiny, 1 if args.tiny else SETUP_SAMPLES)
    report, notes = [], []
    if args.workload == "cli-cold":
        launches = run_launches(inputs, args.seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        walls, cpus = per_pass(launches), per_pass(launches, "cpu")
        attempted, failed, notes = gate_cli(gs, inputs, launches)
        launch_ms = [1e3 * l["wall"] for l in launches]
        report.append(("launch_ms_p50", median(launch_ms), "ms", len(launch_ms)))
        notes += output_notes(gs, args, inputs, launches)
    else:
        passes = run_passes(gs, args.workload, inputs, args.seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        walls, cpus = [p["wall"] for p in passes], [p["cpu"] for p in passes]
        attempted, failed, notes = gate_in_process(gs, args.workload, inputs, passes, quality)
        notes += output_notes(gs, args, inputs, passes)
        report.append(("max_eps", quality.max_eps, "utility", quality.players_checked))
        report.append(("max_br_residual", quality.max_br_residual, "fraction", quality.players_checked))
        if args.workload == "sweep":
            report.append(("capped_rows", quality.capped_rows, "count", quality.rows_checked))
        report.append(("ops_per_pass", inputs.ops, "count", len(passes)))
    metrics = {
        "cpu_s": (median(cpus), "s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    report = [
        ("cpu_s", metrics["cpu_s"][0], "s", len(cpus)),
        ("wall_s", median(walls), "s", len(walls)),
        ("setup_s", metrics["setup_s"][0], "s", len(setup)),
        ("peak_rss_mb", metrics["peak_rss_mb"][0], "MB", 1),
        ("failed_frac", failed / attempted, "ratio", attempted),
    ] + report
    emit(report, metadata(args), notes, failed == 0, attempted, failed, metrics)
    return 0


def traced_run(gs, args, inputs, quality) -> int:
    import_s, scipy_s = import_times(1 if args.tiny else IMPORTTIME_SAMPLES)
    half = args.seconds / 2.0
    notes = []
    if args.workload == "cli-cold":
        plain = run_launches(inputs, half)
        traced = run_launches(inputs, half, traced=True)
        attempted, failed, notes = gate_cli(gs, inputs, plain + traced)
        notes += output_notes(gs, args, inputs, plain)
        first = tracing.merge([l["trace"] for l in traced if l["trace"] and l["pass"] == 0])
        merged = tracing.merge([l["trace"] for l in traced if l["trace"]])
        n_traced = len({l["pass"] for l in traced})
        untraced_wall, traced_wall = median(per_pass(plain)), median(per_pass(traced))
        family_walls, busy_over_wall, solves_per_search = {}, 0.0, 0.0
        threads = merged["solve_threads"]
    else:
        plain = run_passes(gs, args.workload, inputs, half)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_passes(gs, args.workload, inputs, half, tracer)
        finally:
            tracer.uninstall()
        attempted, failed, notes = gate_in_process(gs, args.workload, inputs, plain + traced, quality)
        notes += output_notes(gs, args, inputs, plain)
        first = traced[0]["trace"]
        merged = tracing.merge([p["trace"] for p in traced])
        n_traced = len(traced)
        untraced_wall = median([p["wall"] for p in plain])
        traced_wall = median([p["wall"] for p in traced])
        family_walls = {
            f: median([p["families"][f] for p in plain if f in p["families"]]) for f in FAMILIES
        }
        busy = merged["stats"][tracing.SOLVE]["total_s"]
        family_total = sum(sum(p["families"].values()) for p in traced)
        busy_over_wall = busy / family_total if family_total else 0.0
        solves_per_search = (
            first["stats"][tracing.SOLVE]["calls"] / inputs.ops if args.workload == "coverage" else 0.0
        )
        threads = first["solve_threads"]
    if merged["absent"]:
        notes.append("absent trace targets (reported as 0): " + ", ".join(merged["absent"]))
    extra = {
        "experiments.coverage.solves_per_search": (solves_per_search, "ratio"),
        **{f"experiments.{f}.wall_s": (family_walls.get(f, 0.0), "s") for f in FAMILIES},
        "experiments.solve_busy_over_wall": (busy_over_wall, "ratio"),
        "cli.import_s": (import_s, "s"),
        "cli.import_scipy_integrate_s": (scipy_s, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "check.max_eps": (quality.max_eps, "utility"),
        "check.max_br_residual": (quality.max_br_residual, "fraction"),
    }
    metrics = per_layer(first, merged, n_traced, extra)
    report = [(name, value, unit, n_traced) for name, (value, unit) in metrics.items()]
    report.append(("failed_frac", failed / attempted, "ratio", attempted))
    emit(report, metadata(args, threads), notes, failed == 0, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
