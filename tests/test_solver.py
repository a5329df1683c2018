"""Quadrature oracle, brute-force best response, and iteration solver."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

import gridstore
from gridstore import (
    ProspectParams,
    StrategyProfile,
    best_response_cgt,
    grid_best_response,
    iterate_best_response,
    quadrature_expected_utility,
)
from gridstore.solver import MAX_ROUNDS, TOL

from helpers import BENCH_PROSPECT, benchmark_scenario, framed_benchmark

CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "defaults.json")
INTERIOR_BR = 0.7614942528735631
BNE4_ALPHA = 0.8748114630467568


def test_quadrature_uncontested_zero_storage():
    s = benchmark_scenario()
    u = quadrature_expected_utility(0, StrategyProfile.of(0.0, 0.7), s)
    assert u == pytest.approx(12.0, rel=1e-10)


def test_quadrature_contested_matches_closed_form_value():
    s = benchmark_scenario()
    u = quadrature_expected_utility(0, StrategyProfile.of(INTERIOR_BR, 1.0), s)
    assert u == pytest.approx(13.13103448275844, rel=1e-9)


# Every name ``gridstore`` exports; the lazy loader must keep this set.
EXPORTS = {
    "Belief", "BestResponseCase", "DegenerateOpponentStrategy", "EmergencyPriceRow",
    "EquilibriumResult", "GridParams", "GridStoreError", "InvalidScenario",
    "MicrogridConfig", "MissingProspectParams", "NoCoveragePrice", "NotTwoPlayer",
    "ProspectParams", "PtBranchTerms", "RequiredPriceRow", "Scenario", "StrategyProfile",
    "SweepRow", "SweepSpec", "asymmetric_equilibrium", "best_response_cgt",
    "bne_candidates", "default_scenario", "enumerate_bne", "expected_pt_utility",
    "expected_utility_cgt", "grid_best_response", "iterate_best_response",
    "load_scenario", "max_deviation_by_price", "pt_branch_terms", "pt_value",
    "purchased_energy", "quadrature_expected_utility", "realized_utility",
    "required_emergency_price", "run_sweep", "scenario_from_dict",
    "sweep_emergency_price", "sweep_reference_point", "validate_scenario", "verify_bne",
    "violations", "write_required_price_csv", "write_sweep_csv",
}


def test_package_and_cli_load_no_scipy_until_the_oracle_runs():
    # A fresh interpreter, so modules other tests imported do not count.
    # The rational commands must load neither NumPy nor SciPy; resolving
    # every export afterwards loads the framed solver, still without SciPy.
    src = Path(gridstore.__file__).resolve().parent.parent
    script = textwrap.dedent(
        f"""
        import contextlib, io, json, sys
        import gridstore, gridstore.cli

        def heavy():
            return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))

        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                gridstore.cli.run([command, "--config", {CONFIG!r}])
                for command in ("validate", "enumerate", "solve-cgt")
            ]
        rational = heavy()
        unresolved = [name for name in gridstore.__all__ if not hasattr(gridstore, name)]
        try:
            gridstore.no_such_export
            unknown = "resolved"
        except AttributeError:
            unknown = "AttributeError"
        scipy_before_oracle = [m for m in heavy() if m.split(".")[0] == "scipy"]
        s = gridstore.load_scenario({CONFIG!r})
        profile = gridstore.StrategyProfile.of({INTERIOR_BR!r}, 1.0)
        u = gridstore.quadrature_expected_utility(0, profile, s)
        print(json.dumps(dict(
            codes=codes, rational=rational, names=gridstore.__all__, unresolved=unresolved,
            unknown=unknown, scipy_before_oracle=scipy_before_oracle, u=u,
        )))
        """
    )
    path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0, 0, 0]
    assert report["rational"] == []
    assert set(report["names"]) == EXPORTS
    assert report["unresolved"] == []
    assert report["unknown"] == "AttributeError"
    assert report["scipy_before_oracle"] == []
    assert report["u"] == pytest.approx(13.13103448275844, rel=1e-9)


def test_quadrature_neutral_framing_is_a_shift():
    neutral = ProspectParams(r=3.0, lam=1.0, beta_plus=1.0, beta_minus=1.0)
    s = benchmark_scenario(prospect=(neutral, None))
    profile = StrategyProfile.of(0.8, 0.9)
    framed = quadrature_expected_utility(0, profile, s, framed=True)
    plain = quadrature_expected_utility(0, profile, s, framed=False)
    assert framed == pytest.approx(plain - 3.0, rel=1e-9)


# Neutral framing (r=0, lambda=1, beta=1) values a utility as itself, so
# the framed grid search must find the rational closed-form response.
NEUTRAL = ProspectParams(r=0.0, lam=1.0, beta_plus=1.0, beta_minus=1.0)


def test_grid_best_response_refines_to_interior_optimum():
    s = benchmark_scenario(prospect=(NEUTRAL, None))
    rational, _ = best_response_cgt(0, 1.0, s)
    assert rational == pytest.approx(INTERIOR_BR, abs=1e-12)
    # Ternary refinement inside the winning bracket resolves far below
    # the grid step; comparison noise on the flat quadratic top caps the
    # attainable accuracy near sqrt(eps).
    assert grid_best_response(0, 1.0, s) == pytest.approx(rational, abs=1e-6)


def test_grid_best_response_store_all_branch():
    s = benchmark_scenario(prospect=(NEUTRAL, None))
    rational, _ = best_response_cgt(0, 0.5, s)
    assert rational == 1.0
    assert grid_best_response(0, 0.5, s) == pytest.approx(rational, abs=1e-6)


def test_grid_best_response_neutral_framing_matches_rational():
    s = benchmark_scenario(prospect=(NEUTRAL, None))
    for tenths in range(11):
        opp = tenths / 10.0
        framed = grid_best_response(0, opp, s)
        rational, _ = best_response_cgt(0, opp, s)
        assert framed == pytest.approx(rational, abs=1e-6)


def test_iteration_rational_players_reach_interior_equilibrium():
    s = benchmark_scenario()
    res = iterate_best_response(s)
    assert res.converged
    assert res.classification == "BNE4"
    assert res.profile[0] == pytest.approx(BNE4_ALPHA, abs=2e-5)
    assert res.profile[1] == pytest.approx(BNE4_ALPHA, abs=2e-5)
    assert res.residual <= 1e-6


def test_iteration_framed_pair_benchmark_reference():
    s = framed_benchmark()
    res = iterate_best_response(s)
    assert res.converged
    assert res.classification == "PT-Iterated"
    assert res.iterations == 2
    assert res.profile[0] == pytest.approx(0.700822, abs=1e-6)
    assert res.profile[1] == 1.0


def test_iteration_framed_pair_high_reference():
    # A reference far above attainable utility puts both players deep in
    # the loss region, where hedging pulls storage toward 0.88.
    s = framed_benchmark(reference=25.0)
    res = iterate_best_response(s)
    assert res.converged
    for p in (0, 1):
        assert abs(res.profile[p] - 0.88) <= 0.01


def test_iteration_one_framed_one_rational():
    p0 = replace(BENCH_PROSPECT, r=13.0)
    s = benchmark_scenario(prospect=(p0, None))
    res = iterate_best_response(s)
    assert res.converged
    assert res.profile[0] == pytest.approx(0.6231968815715443, abs=1e-4)
    assert res.profile[1] == 1.0


def test_iteration_result_is_a_fixed_point():
    p0 = replace(BENCH_PROSPECT, r=13.0)
    s = benchmark_scenario(prospect=(p0, None))
    res = iterate_best_response(s)
    again0 = grid_best_response(0, res.profile[1], s)
    again1, _ = best_response_cgt(1, res.profile[0], s)
    assert abs(again0 - res.profile[0]) <= 1e-9
    assert again1 == res.profile[1]


def test_iteration_is_deterministic():
    s = framed_benchmark()
    a = iterate_best_response(s)
    b = iterate_best_response(s)
    assert tuple(a.profile) == tuple(b.profile)
    assert a.expected_utilities == b.expected_utilities
    assert a.iterations == b.iterations


def test_iteration_round_cap_reported_as_non_convergence():
    # Near R = 13.357 the symmetric equilibrium's best-response slope is
    # about -0.986, so alternating best responses settle too slowly to
    # meet the tolerance within the cap.
    res = iterate_best_response(framed_benchmark(reference=13.357))
    assert not res.converged
    assert res.iterations == MAX_ROUNDS
    assert res.residual > TOL

