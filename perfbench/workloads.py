"""Workload inputs and one pass of each workload.

Seed 0 reproduces the published battery grids of
``scripts/run_experiments.py``.  Any other seed shifts each grid by a
random fraction of its step; ``cli-cold`` also draws its ``--override``
values from the seed.  Only names exported by ``gridstore`` and the
``gridstore`` console entry are used, so the workloads survive internal
refactors of the package.

Why these workloads:

* ``sweep`` is bound by the fixed-point iteration and the framed best
  response (``solver`` and ``pt``): about 220 solves, interior points
  taking 45 to 113 best-response rounds.
* ``coverage`` is bound by how many solves the covering-price search
  makes (``experiments``): about 250 short solves driven by a coarse
  scan, bisection and a fine scan.  A faster fixed-point iteration
  barely moves it; a cheaper search moves only it.
* ``cli-cold`` is bound by interpreter start, import and scenario
  validation: fresh ``gridstore`` processes that do almost no solving.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep", "coverage", "cli-cold")

PRICES = (10.2, 11.0, 12.0)  # price-sensitivity emergency prices, at lambda = 4
COVERAGE_REFERENCES = (11.5, 12.5)
CLI_COMMANDS = ("solve-pt", "enumerate", "validate")
CLI_OVERRIDE_SETS = 4


def _grid(lo: float, hi: float, step: float, shift: float) -> tuple[float, ...]:
    # Built exactly as scripts/run_experiments.py builds it, so that seed 0
    # (shift 0) gives byte-identical CSVs.
    return tuple(np.arange(lo, hi + 1e-9, step) + shift)


@dataclass(frozen=True)
class SweepInputs:
    references: tuple[float, ...]
    asymmetric_references: tuple[float, ...]

    @property
    def ops(self) -> int:
        """Rows per pass: baseline + reference sweep + price grid + asymmetric."""
        n = len(self.references)
        return 1 + n + len(PRICES) * n + len(self.asymmetric_references)


@dataclass(frozen=True)
class CoverageInputs:
    lambdas: tuple[float, ...]
    references: tuple[float, ...]

    @property
    def ops(self) -> int:
        """Covering-price searches per pass."""
        return len(self.lambdas) * len(self.references)


@dataclass(frozen=True)
class CliInputs:
    config: dict
    # One tuple of (path, value) overrides per launch set; pass i uses
    # set i modulo the number of sets.
    override_sets: tuple[tuple[tuple[str, float], ...], ...]

    @property
    def ops(self) -> int:
        """Launches per pass."""
        return len(CLI_COMMANDS)


def make_inputs(workload: str, seed: int, root: Path, tiny: bool = False):
    """Inputs of one workload, a pure function of the seed.

    ``tiny`` keeps the first few points of every grid; it exists for the
    benchmark's own tests.
    """
    rng = random.Random(seed)
    if workload == "sweep":
        shifts = (0.0, 0.0) if seed == 0 else (rng.random() * 0.25, rng.random() * 0.5)
        inputs = SweepInputs(
            references=_grid(5.0, 16.0, 0.25, shifts[0]),
            asymmetric_references=_grid(5.0, 25.0, 0.5, shifts[1]),
        )
        if tiny:
            inputs = SweepInputs(inputs.references[:2], inputs.asymmetric_references[:2])
        return inputs
    if workload == "coverage":
        # lambda = 1 (no loss aversion) anchors the axis for every seed:
        # the search cost there is several times that of any other point
        # and varies steeply with lambda, so shifting it would make the
        # seed, not the program, set the workload's cost.
        shift = 0.0 if seed == 0 else rng.random() * 0.5
        lambdas = (1.0,) + _grid(1.5, 4.0, 0.5, shift)
        inputs = CoverageInputs(lambdas=lambdas, references=COVERAGE_REFERENCES)
        if tiny:
            inputs = CoverageInputs(lambdas[1:3], COVERAGE_REFERENCES[:1])
        return inputs
    if workload == "cli-cold":
        config = json.loads((root / "configs" / "defaults.json").read_text())
        if seed == 0:
            sets = (_overrides_from_config(config),)
        else:
            sets = tuple(
                tuple(
                    (f"prospect.{p}.{name}", round(rng.uniform(lo, hi), 2))
                    for p in (0, 1)
                    for name, lo, hi in (("r", 5.0, 16.0), ("lambda", 1.0, 4.0))
                )
                for _ in range(CLI_OVERRIDE_SETS)
            )
        if tiny:
            sets = sets[:1]
        return CliInputs(config=config, override_sets=sets)
    raise ValueError(f"unknown workload {workload!r}")


def _overrides_from_config(config: dict) -> tuple[tuple[str, float], ...]:
    return tuple(
        (f"prospect.{p}.{name}", float(config["prospect"][p][name]))
        for p in (0, 1)
        for name in ("r", "lambda")
    )


# --- one pass of each in-process workload ----------------------------------
#
# Each returns (outputs, family wall times).  Outputs are the row lists the
# public family functions return, keyed by family.


def sweep_pass(gs, inputs: SweepInputs, clock) -> tuple[dict, dict]:
    outputs, walls = {}, {}
    t0 = clock()
    outputs["reference"] = gs.sweep_reference_point(
        gs.SweepSpec(
            base=gs.default_scenario(),
            swept_parameter="reference_point",
            values=inputs.references,
        )
    )
    t1 = clock()
    outputs["price_sensitivity"] = gs.sweep_emergency_price(
        gs.SweepSpec(
            base=gs.default_scenario(lam=4.0),
            swept_parameter="emergency_price",
            values=PRICES,
            reference_values=inputs.references,
        )
    )
    t2 = clock()
    outputs["asymmetric"] = gs.asymmetric_equilibrium(
        gs.default_scenario(), inputs.asymmetric_references
    )
    t3 = clock()
    walls["reference"] = t1 - t0
    walls["price_sensitivity"] = t2 - t1
    walls["asymmetric"] = t3 - t2
    return outputs, walls


def coverage_pass(gs, inputs: CoverageInputs, clock) -> tuple[dict, dict]:
    t0 = clock()
    rows = [
        gs.required_emergency_price(gs.default_scenario(reference=r), inputs.lambdas)
        for r in inputs.references
    ]
    t1 = clock()
    return {"coverage": rows}, {"coverage": t1 - t0}


def cli_argv(command: str, overrides) -> list[str]:
    """Arguments of one console launch, as a user would type them after ``gridstore``."""
    argv = [command, "--config", "configs/defaults.json"]
    for path, value in overrides:
        argv += ["--override", f"{path}={value!r}"]
    return argv


# The console script installed for ``gridstore`` runs exactly this.
CONSOLE_ENTRY = "import sys; from gridstore.cli import main; sys.exit(main())"


def cli_command(command: str, overrides) -> list[str]:
    return [sys.executable, "-c", CONSOLE_ENTRY, *cli_argv(command, overrides)]
