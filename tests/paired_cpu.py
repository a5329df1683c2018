"""Paired in-process CPU comparison of two trees of the package, with work counts.

Not a test module (pytest does not collect it); run it from the repository
root as::

    PYTHONPATH=src python tests/paired_cpu.py BASE [HEAD] [--pairs N] [--seed S]
        [--workload {sweep,coverage}]

``BASE`` is a git ref.  Its ``src/gridstore`` is extracted with
``git archive`` into a temporary directory and imported as the package
``gs_base``; the working tree's ``src/gridstore``, or that of the ref
``HEAD`` when one is given, is imported as ``gs_head``.  The ``sweep`` and
``coverage`` passes of ``perfbench/workloads.py`` (seed ``S``, 0 by
default: the published battery grids), or the one ``--workload`` names,
then run on the two trees alternately, ``N`` pairs each, the tree that
runs first swapping every pair.  A seed not used while writing a change
checks its claim on inputs it was not tuned to.  For each workload it
prints the median of head/base process CPU time over the pairs, the
quartiles of that ratio, the share of pairs head won, and whether both
trees returned the same rows.  Then it prints the work of one pass on
each tree: solves, framed best responses, evaluator reads and
root-search reads, as ``helpers.framed_work`` counts them.  The counts do
not depend on the host; the CPU ratio does, so two identical trees
(``BASE`` and ``HEAD`` the same ref) show the noise floor of the machine.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

from helpers import framed_work

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py, read only)

PASSES = {"sweep": workloads.sweep_pass, "coverage": workloads.coverage_pass}


def extract(ref: str, into: Path) -> Path:
    """``src/gridstore`` of the git ref ``ref``, extracted under ``into``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src/gridstore"],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / "src" / "gridstore"


def load(tree: Path, name: str):
    """The package in directory ``tree``, imported as ``name`` with its modules."""
    spec = importlib.util.spec_from_file_location(
        name, tree / "__init__.py", submodule_search_locations=[str(tree)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("experiments", "pt", "solver"):
        importlib.import_module(f"{name}.{module}")
    return package


def work_of_one_pass(gs, run) -> dict[str, int]:
    """What one pass of ``run`` costs on package ``gs``, counted."""
    solves = []
    solve = gs.experiments.iterate_best_response

    def counted_solve(s):
        solves.append(s)
        return solve(s)

    gs.experiments.iterate_best_response = counted_solve
    try:
        with framed_work(gs.solver, gs.pt) as work:
            run(gs)
    finally:
        gs.experiments.iterate_best_response = solve
    return {
        "solves": len(solves),
        "responses": len(work.responses),
        "slope": work.reads["slope"],
        "curvature": work.reads["curvature"],
        "utility": work.reads["utility"],
        "root reads": sum(work.roots),
    }


def cpu_of_one_pass(gs, run) -> tuple[float, str]:
    """Process CPU seconds of one pass of ``run`` on ``gs``, and its rows as text."""
    start = time.process_time()
    outputs = run(gs)
    return time.process_time() - start, repr(outputs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git ref of the tree to compare against")
    parser.add_argument("head", nargs="?", help="git ref of the other tree (default: working tree)")
    parser.add_argument("--pairs", type=int, default=60, help="alternating pairs per workload, 2 or more")
    parser.add_argument("--seed", type=int, default=0, help="perfbench input seed (0: the battery)")
    parser.add_argument("--workload", choices=PASSES, help="run this workload alone")
    args = parser.parse_args()
    if args.pairs < 2:  # the ratio's quartiles need two
        parser.error(f"argument --pairs: needs at least 2 pairs, not {args.pairs}")

    with tempfile.TemporaryDirectory() as tmp:
        base = load(extract(args.base, Path(tmp) / "base"), "gs_base")
        head_tree = ROOT / "src" / "gridstore"
        if args.head is not None:
            head_tree = extract(args.head, Path(tmp) / "head")
        head = load(head_tree, "gs_head")
        trees = {"base": base, "head": head}
        counts = {}
        for workload, run_pass in PASSES.items():
            if args.workload not in (None, workload):
                continue
            inputs = workloads.make_inputs(workload, args.seed, ROOT)

            def run(gs):
                return run_pass(gs, inputs, time.perf_counter)[0]

            for label, gs in trees.items():
                counts[workload, label] = work_of_one_pass(gs, run)
            ratios, outputs = [], set()
            for i in range(args.pairs):
                cpu = {}
                for label in ("base", "head") if i % 2 == 0 else ("head", "base"):
                    cpu[label], rows = cpu_of_one_pass(trees[label], run)
                    outputs.add(rows)
                ratios.append(cpu["head"] / cpu["base"])
            q1, median, q3 = statistics.quantiles(ratios, n=4)
            won = sum(r < 1.0 for r in ratios)
            same = "same rows" if len(outputs) == 1 else "ROWS DIFFER"
            print(
                f"{workload:<9} seed {args.seed} head/base CPU {median:.3f} (quartiles {q1:.3f}-{q3:.3f}), "
                f"head won {won}/{len(ratios)} pairs, {same}"
            )
    names = list(next(iter(counts.values())))
    print("\nwork of one pass   " + "  ".join(f"{name:>10}" for name in names))
    for (workload, label), work in counts.items():
        print(f"{workload:<9} {label:<8}" + "  ".join(f"{work[name]:>10}" for name in names))


if __name__ == "__main__":
    main()
