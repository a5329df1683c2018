"""Quadrature oracle, brute-force best response, and iteration solver."""

from __future__ import annotations

import ast
import json
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gridstore
from gridstore import (
    GridParams,
    MicrogridConfig,
    ProspectParams,
    Scenario,
    StrategyProfile,
    asymmetric_equilibrium,
    best_response_cgt,
    default_scenario,
    enumerate_bne,
    grid_best_response,
    iterate_best_response,
    quadrature_expected_utility,
    required_emergency_price,
    sweep_emergency_price,
    sweep_reference_point,
    SweepSpec,
)
from gridstore import pt, solver
from gridstore.experiments import inclusive_grid
from gridstore.solver import TOL

from helpers import (
    BENCH_PROSPECT,
    FEASIBLE_CELLS,
    benchmark_scenario,
    count_framed_work,
    dense_framed_argmax,
    framed_benchmark,
    framed_region_draw,
    plain_rounds,
    priced_game,
    random_scenario,
)

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
    "BestResponseCase", "EmergencyPriceRow",
    "EquilibriumResult", "GridParams", "GridStoreError", "InvalidScenario",
    "MicrogridConfig", "MissingProspectParams", "NoCoveragePrice", "NotConverged",
    "NotTwoPlayer",
    "ProspectParams", "RequiredPriceRow", "Scenario", "StrategyProfile",
    "SweepRow", "SweepSpec", "asymmetric_equilibrium", "best_response_cgt",
    "bne_candidates", "default_scenario", "enumerate_bne", "expected_pt_utility",
    "expected_utility_cgt", "grid_best_response", "iterate_best_response",
    "load_scenario", "max_deviation_by_price", "pt_value",
    "purchased_energy", "quadrature_expected_utility", "realized_utility",
    "required_emergency_price", "run_sweep", "scenario_from_dict",
    "sweep_emergency_price", "sweep_reference_point", "validate_scenario", "verify_bne",
    "violations", "write_required_price_csv", "write_sweep_csv",
}


def test_package_and_cli_load_no_scipy_until_the_oracle_runs(tmp_path):
    # A fresh interpreter, so modules other tests imported do not count.
    # The rational commands must load neither NumPy nor SciPy.  The framed
    # commands and every export load the framed solver, still without
    # NumPy; only the quadrature oracle brings in SciPy (and NumPy with it).
    src = Path(gridstore.__file__).resolve().parent.parent
    sweep_out, price_out = str(tmp_path / "sweep.csv"), str(tmp_path / "price.csv")
    script = textwrap.dedent(
        f"""
        import contextlib, io, json, sys
        import gridstore, gridstore.cli

        def heavy():
            return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))

        config = ["--config", {CONFIG!r}]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                gridstore.cli.run([command] + config)
                for command in ("validate", "enumerate", "solve-cgt")
            ]
            rational = heavy()
            codes += [
                gridstore.cli.run(["solve-pt"] + config),
                gridstore.cli.run(
                    ["sweep"] + config + ["--param", "reference-point", "--from", "11.5",
                                          "--to", "12", "--step", "0.5", "--out", {sweep_out!r}]
                ),
                gridstore.cli.run(
                    ["find-price"] + config + ["--from", "1", "--to", "1.5", "--step", "0.5",
                                               "--out", {price_out!r}]
                ),
            ]
        unresolved = [name for name in gridstore.__all__ if not hasattr(gridstore, name)]
        try:
            gridstore.no_such_export
            unknown = "resolved"
        except AttributeError:
            unknown = "AttributeError"
        before_oracle = heavy()
        s = gridstore.load_scenario({CONFIG!r})
        profile = gridstore.StrategyProfile.of({INTERIOR_BR!r}, 1.0)
        u = gridstore.quadrature_expected_utility(0, profile, s)
        print(json.dumps(dict(
            codes=codes, rational=rational, names=gridstore.__all__, unresolved=unresolved,
            unknown=unknown, before_oracle=before_oracle, u=u,
            scipy_after_oracle="scipy" in sys.modules,
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
    assert report["codes"] == [0] * 6
    assert report["rational"] == []
    assert set(report["names"]) == EXPORTS
    assert report["unresolved"] == []
    assert report["unknown"] == "AttributeError"
    assert report["before_oracle"] == []
    assert report["scipy_after_oracle"]
    assert report["u"] == pytest.approx(13.13103448275844, rel=1e-9)


def _unused_functions(src: Path, private: bool = False) -> list[str]:
    """``module.function`` for each public module-level function in ``src`` (with
    ``private``, each ``_``-prefixed one but the dunders) that ``gridstore`` does
    not export and no package code names outside its own body."""
    defined, named = [], []  # (module, function); (name, module, enclosing top-level def)
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            if owner is not None and owner.startswith("_") == private and owner[:2] != "__":
                defined.append((path.stem, owner))
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    named.append((name, path.stem, owner))
    return [
        f"{module}.{fn}"
        for module, fn in defined
        if fn not in gridstore._EXPORTS
        and not any(name == fn and (where, owner) != (module, fn) for name, where, owner in named)
    ]


def test_every_public_function_is_exported_or_used_by_the_package():
    # A public function that only tests or the benchmark call is a wrapper
    # to fold into its callers.
    assert _unused_functions(Path(gridstore.__file__).resolve().parent) == []


def test_only_the_package_declares_a_public_surface():
    # ``gridstore._EXPORTS`` is the one list of public names; a module's own
    # ``__all__`` would be a second copy for it to drift from.
    declared = []
    for path in sorted(Path(gridstore.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                declared.append(path.stem)
    assert declared == ["__init__"]


def test_every_private_function_is_used_by_the_package():
    # A private helper that nothing calls is left over from a refactor.
    assert _unused_functions(Path(gridstore.__file__).resolve().parent, private=True) == []


def _raise_sites(src: Path, errors: set[str]) -> list[tuple[str, str]]:
    """``(error, "module.Enclosing.def")`` for each ``raise`` of one of ``errors`` in ``src``."""
    sites = []

    def walk(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = getattr(exc, "id", getattr(exc, "attr", None))
                if name in errors:
                    sites.append((name, where))
            walk(child, where)

    for path in sorted(src.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem)
    return sites


def test_each_player_rule_is_raised_in_one_place():
    # ``model.Scenario`` owns the two-player count and the framing guard;
    # the covering-price search alone adds its "at least one framed player".
    src = Path(gridstore.__file__).resolve().parent
    sites = _raise_sites(src, {"NotTwoPlayer", "MissingProspectParams"})
    allowed = ("model.Scenario.prospect_of", "experiments.required_emergency_price")
    stray = [
        (error, where)
        for error, where in sites
        if not (
            where.startswith("model.Scenario.") if error == "NotTwoPlayer" else where in allowed
        )
    ]
    assert stray == []
    assert ("NotTwoPlayer", "model.Scenario.__post_init__") in sites
    assert ("MissingProspectParams", "model.Scenario.prospect_of") in sites


def test_each_rational_branch_is_decided_in_one_place():
    # ``cgt._case`` alone decides a rational best response's branch; the
    # best response and every existence-condition label read it there, so
    # the threshold algebra has one copy.
    src = Path(gridstore.__file__).resolve().parent
    sites = set()
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for node in ast.walk(stmt):
                called = getattr(node, "func", None)
                if getattr(called, "id", getattr(called, "attr", None)) == "BestResponseCase":
                    sites.add(f"{path.stem}.{getattr(stmt, 'name', '<module>')}")
    assert sites == {"cgt._case"}


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
    # The root of the analytic slope resolves the flat quadratic top to
    # float precision.
    assert grid_best_response(0, 1.0, s) == pytest.approx(rational, abs=1e-12)


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


def test_rational_solve_takes_the_class_of_the_equilibrium_it_reaches():
    # A rational solve reads its class from the best-response branches at
    # its own profile; that must be the class of the closed-form
    # equilibrium there, from (1, 1) and from a random start alike.
    rng = random.Random("rational-solve-class")
    for _ in range(3_000):
        s = random_scenario(rng)
        closed = enumerate_bne(s)
        for start in (None, StrategyProfile.of(rng.random(), rng.random())):
            res = iterate_best_response(s, start)
            assert res.converged
            reached = [
                eq.classification
                for eq in closed
                if all(abs(res.profile[p] - eq.profile[p]) <= 1e-9 for p in (0, 1))
            ]
            assert reached == [res.classification]


def test_unconverged_rational_solve_is_not_classified(monkeypatch):
    monkeypatch.setattr(solver, "MAX_ROUNDS", 1)
    res = iterate_best_response(benchmark_scenario())
    assert not res.converged
    assert res.classification == "PT-Iterated"


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


def test_a_solve_reuses_its_repeated_best_responses(monkeypatch):
    # A covering-price row at lam = 1 that settles one-sided in 2 rounds:
    # round 2 asks both players the same questions as round 1.
    s = default_scenario(lam=1.0)
    s = replace(s, grid=replace(s.grid, rho_c=11.28))
    calls = count_framed_work(monkeypatch).responses
    res = iterate_best_response(s)
    assert res.converged and res.iterations == 2
    assert max(res.profile) == 1.0
    assert len(calls) == len(set(calls)) == 2


def mutual_residual(s, profile) -> float:
    """Largest distance of a player's fraction from its best response to the other's."""
    gaps = []
    for p in (0, 1):
        if s.prospect[p] is not None:
            br = grid_best_response(p, profile[1 - p], s)
        else:
            br = best_response_cgt(p, profile[1 - p], s)[0]
        gaps.append(abs(br - profile[p]))
    return max(gaps)


def _framed_utility(s, player: int, a1: float, a2: float) -> float:
    return pt.framed_game(*s.duel(player), s.prospect[player])(a2)[0](a1)


def _price_row(rho_c: float, reference: float):
    s = default_scenario(reference=reference, lam=4.0)
    return replace(s, grid=replace(s.grid, rho_c=rho_c))


# R = 13.357 sits in the flip band of the symmetric equilibrium: its
# best-response slope is about -0.986, so plain alternating rounds
# contract by about 0.97 a round.
CAP_BAND_REFERENCE = 13.357


def test_iteration_converges_in_the_flip_band():
    s = framed_benchmark(reference=CAP_BAND_REFERENCE)
    res = iterate_best_response(s)
    assert res.converged
    assert res.iterations < 30
    assert res.residual <= TOL
    assert mutual_residual(s, res.profile) <= 1e-10


def test_iteration_round_cap_reported_as_non_convergence(monkeypatch):
    # The round cap is a guard; one round from (1, 1) cannot settle here.
    monkeypatch.setattr(solver, "MAX_ROUNDS", 1)
    res = iterate_best_response(framed_benchmark(reference=CAP_BAND_REFERENCE))
    assert not res.converged
    assert res.iterations == 1
    assert res.residual > TOL


# Benchmark sweep rows whose extrapolated limit for player 2 lies past 1.
# A limit clipped to 1 restarted the solve at its own first round, which it
# then repeated until the round cap, ending off equilibrium.
@pytest.mark.parametrize(
    ("rho_c", "reference"),
    [
        (None, 14.033591061028101),
        (None, 14.032630057475167),
        (12.0, 14.5412373699583),
        (12.0, 11.239990232548738),
        (12.0, 11.257638830046844),
        (12.0, 11.240195189188809),
    ],
)
def test_iteration_converges_where_an_extrapolated_limit_leaves_the_unit_interval(
    rho_c, reference
):
    s = default_scenario(reference=reference) if rho_c is None else _price_row(rho_c, reference)
    res = iterate_best_response(s)
    assert res.converged
    assert res.residual <= TOL
    assert mutual_residual(s, res.profile) <= 1e-10


CRAWL_ROW = (8.25, 1.0, 11.16)  # best-response slope -0.9989 to -1.0008 over [0.8, 0.9]
FLIP_BAND_ROWS = [(r, 2.25, 11.6) for r in (13.335, 13.345, CAP_BAND_REFERENCE)]
# Symmetric rows where an extrapolated step once left the equilibrium that
# plain rounds select.  BR's orbit heads slowly for a 2-cycle around a
# stable symmetric equilibrium (the first two); a step of the round map
# carries player 2 across the symmetric equilibrium, into the mirrored
# 2-cycle (the next two); steps near 1e-12 read rounding as growth, and
# BR's iteration gave up on the symmetric equilibrium it had reached.
EXTRAPOLATION_ROWS = [
    (11.501059446975177, 1.387527026370651, 12.246307984561685),
    (11.384475234685336, 1.0375958746375034, 11.657405064900638),
    (12.891887386775611, 2.04759845695147, 10.816463773345253),
    (12.884506166755104, 2.531917581061179, 10.838758147283723),
    (15.865285984969583, 3.2189487472258715, 11.08032525984515),
]


def _selection_rows():
    named = {"flip-band": FLIP_BAND_ROWS, "crawl": [CRAWL_ROW], "extrapolation": EXTRAPOLATION_ROWS}
    rows = [
        pytest.param(*row, False, id=f"{kind}-{i}")
        for kind, kind_rows in named.items()
        for i, row in enumerate(kind_rows)
    ]
    # Known gap (README): BR(BR(x)) - x is positive only on 0.875-0.898
    # here, a stable 2-cycle close to a stable symmetric equilibrium, and
    # the solve reports the symmetric one where plain rounds settle on the
    # 2-cycle (the previous solver reported the mirrored 2-cycle).
    fold = pytest.mark.xfail(strict=True, reason="selection near a 2-cycle's fold")
    rows.append(pytest.param(12.910028996890734, 1.0, 10.89, False, id="fold-0", marks=fold))
    rng = random.Random("fixed-point-selection")
    for kind, n, r_hi in (("symmetric", 64, 16.0), ("mixed", 32, 25.0)):
        for i in range(n):
            row = (rng.uniform(5.0, r_hi), rng.uniform(1.0, 4.0), rng.uniform(10.2, 14.0))
            rows.append(pytest.param(*row, kind == "mixed", id=f"{kind}-{i}"))
    return rows


@pytest.mark.parametrize(("reference", "lam", "rho_c", "mixed"), _selection_rows())
def test_iteration_selects_what_plain_rounds_reach(reference, lam, rho_c, mixed):
    # The selection rule is alternating rounds from (1, 1); the solver may
    # reach their equilibrium faster, never another one.  The profile is
    # compared in player order, so a mirrored one-sided equilibrium fails.
    s = priced_game(reference, lam, rho_c, mixed)
    res = iterate_best_response(s)
    reference_profile, settled = plain_rounds(s)
    if settled:
        assert res.converged
        assert tuple(res.profile) == pytest.approx(reference_profile, abs=1e-8)
    else:
        assert not res.converged or mutual_residual(s, res.profile) <= 1e-10


@pytest.mark.parametrize(
    ("row", "per_player"),
    [pytest.param(CRAWL_ROW, 20, id="crawl"), pytest.param(FLIP_BAND_ROWS[2], 10, id="flip-band")],
)
def test_iteration_response_budget(row, per_player, monkeypatch):
    # Rounds crawl at the crawl row (200 rounds left it 9.6e-5 from a fixed
    # point) and in the flip band (16 rounds at R = 13.357).  Both players
    # answer by one map here and share its responses, so a budget of n
    # responses a player allows 2n in all.
    calls = count_framed_work(monkeypatch).responses
    s = priced_game(*row)
    res = iterate_best_response(s)
    assert res.converged and res.residual <= TOL
    assert mutual_residual(s, res.profile) <= 1e-10
    assert len(calls) <= 2 * per_player


def test_mixed_game_bottleneck_reports_no_other_equilibrium():
    # Known gap (README): rounds move player 2's fraction down by 6e-4 to
    # 1.6e-3, each step about 1.005 times the last (the round map's slope
    # near 0.798), so no extrapolation applies and the solve stops at the
    # round cap.  Plain rounds settle on (1.0, 0.66268...) after 274.  The
    # solve may stay unconverged, but must not report another profile.
    s = priced_game(22.367499079434737, 2.25, 11.09148149472901, mixed=True)
    reference_profile, settled = plain_rounds(s, rounds=3_000)
    assert settled and reference_profile[0] == 1.0
    assert reference_profile[1] == pytest.approx(0.66268, abs=1e-5)
    res = iterate_best_response(s)
    if res.converged:
        assert tuple(res.profile) == pytest.approx(reference_profile, abs=1e-8)


def test_best_response_finds_a_maximum_inside_the_last_step():
    # Price-sensitivity row rho_c = 11, R = 13.1992: a scan in steps of
    # 1e-3 picks alpha = 1, but the maximum lies inside [0.999, 1].
    s = _price_row(11.0, 13.1992)
    br = grid_best_response(1, 0.667686, s)
    assert br == pytest.approx(0.99933445053, abs=1e-9)
    assert _framed_utility(s, 1, br, 0.667686) > _framed_utility(s, 1, 1.0, 0.667686)


def test_best_response_keeps_the_narrow_peak_the_scan_finds():
    # A coarser scan picks the basin at 0.9217 here, which scores 5.2e-3
    # below the narrow peak near 0.98693.
    s = _price_row(12.0, 14.368642669672138)
    br = grid_best_response(0, 0.98693454, s)
    assert br == pytest.approx(0.98693454, abs=1e-6)
    wide = max(np.linspace(0.9, 0.95, 501), key=lambda a: _framed_utility(s, 0, float(a), 0.98693454))
    assert abs(wide - 0.9217) < 1e-3
    assert _framed_utility(s, 0, br, 0.98693454) > _framed_utility(s, 0, float(wide), 0.98693454) + 5e-3


# Exponent overrides of a drawn player: as drawn, linear (the slope steps
# by lam - 1 at the reference), and one side linear (the slope is finite
# on one side of the reference and infinite on the other).
EXPONENTS = ({}, {"beta_plus": 1.0, "beta_minus": 1.0}, {"beta_plus": 1.0}, {"beta_minus": 1.0})


def _cell_draws(want_gain: bool, want_branch: str, n: int = 8):
    """The first ``n`` (scenario, drawn opponent fraction) pairs of one branch cell."""
    rng = random.Random(f"best-response-{want_branch}")
    for _ in range(n):
        s, (_, a2) = framed_region_draw(rng, want_gain, want_branch)
        yield s, a2


def _with_exponents(s: Scenario, j: int) -> Scenario:
    return replace(s, prospect=(replace(s.prospect[0], **EXPONENTS[j]), None))


def _single_rows():
    """Single (scenario, opponent fraction) rows:

    * the narrow peak just past the reference crossing;
    * a maximum just past the contested boundary, which the curvature read
      at the boundary itself (the uncontested one) hides;
    * a maximum at 0.5928 left of a reference crossing at 0.9097 where the
      slope is -21 from the left and +inf from the right, which the slope
      read at the crossing itself hides;
    * a maximum at the kink of a reference crossing, steep on the loss
      side, where the crossing's closed form lies a few ulps off the point
      where the slope changes sign;
    * no surplus, which zeroes every breakpoint's rate and flattens the
      utility.
    """
    yield _price_row(12.0, 14.368642669672138), 0.98693454
    s = default_scenario(reference=12.85, lam=3.54)
    yield replace(s, grid=replace(s.grid, rho_c=10.858)), 1.0
    yield Scenario(
        grid=GridParams(
            rho=0.7009989227108102, rho_c=5.712334200431124,
            theta=0.15438876021220094, l_c=74.1856469751302,
        ),
        microgrids=(
            MicrogridConfig(q=56.260231929379344, q_max=65.0552637105447),
            MicrogridConfig(q=38.12419804401427, q_max=69.24778566344968),
        ),
        prospect=(
            ProspectParams(
                r=48.69752893198437, lam=3.4332039799074963,
                beta_plus=0.984525123173021, beta_minus=1.0,
            ),
            None,
        ),
    ), 1.0
    yield Scenario(
        grid=GridParams(
            rho=0.7578652962182401, rho_c=27.093221034816168,
            theta=0.03080212746523331, l_c=213.22672581976448,
        ),
        microgrids=(
            MicrogridConfig(q=102.67529034748063, q_max=161.0570165057236),
            MicrogridConfig(q=130.47235909031383, q_max=141.77907009299577),
        ),
        prospect=(
            ProspectParams(
                r=85.60506635200112, lam=2.576124563383098,
                beta_plus=1.0, beta_minus=0.7566832261288802,
            ),
            None,
        ),
    ), 0.9829114519617657
    s = framed_benchmark()
    yield replace(s, microgrids=(replace(s.microgrids[0], q=0.0), s.microgrids[1])), 1.0


def _best_response_cases():
    """(scenario, opponent fraction) pairs for the exact framed best response.

    Every feasible branch cell of ``framed_region_draw``, at each of
    ``EXPONENTS``, against the drawn, an idle and a full opponent; then
    ``_single_rows``.
    """
    for want_gain, want_branch in FEASIBLE_CELLS:
        for s, a2 in _cell_draws(want_gain, want_branch):
            for j in range(len(EXPONENTS)):
                for opp in (a2, 0.0, 1.0):
                    yield _with_exponents(s, j), opp
    yield from _single_rows()


# Framed best responses pinned bit for bit, as float.hex, from the root
# finder with Brent's safeguards against a crawl.  Keyed by (branch cell,
# draw of ``_cell_draws``, ``EXPONENTS`` index): the answers against the
# drawn, an idle and a full opponent.  The draws are mostly ones with an
# interior answer, where a changed evaluator would show.
PINNED_DRAW_RESPONSES = {
    ("AllGain", 0, 0): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.e2e94004662eep-1"),
    ("AllGain", 0, 3): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.d7b4906de7db8p-1"),
    ("AllGain", 1, 0): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("Mixed", 1, 0): ("0x1.3652e463e4d48p-1", "0x1.0000000000000p+0", "0x1.0eb7b7f67462ap-1"),
    ("Mixed", 1, 1): ("0x1.28efcc95f96c6p-1", "0x1.0000000000000p+0", "0x1.d68317f66b026p-2"),
    ("Mixed", 5, 3): ("0x1.c541de41ed41ep-1", "0x1.0000000000000p+0", "0x1.c4fbd58590dc2p-1"),
    ("AllLoss", 2, 0): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.ca70379354b3cp-1"),
    ("AllLoss", 2, 1): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.c09a76a2fb95ep-1"),
    ("AllLoss", 0, 0): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
}
# The narrow peak, the maximum past the contested boundary and no
# surplus: rows 0, 1 and 4 of ``_single_rows``.
PINNED_ROW_RESPONSES = {0: "0x1.f94f7be60a980p-1", 1: "0x1.4a3764e2a6feap-1", 4: "0x0.0p+0"}


def test_framed_best_responses_are_pinned_bit_for_bit():
    draws = {cell: list(_cell_draws(gain, cell, 6)) for gain, cell in FEASIBLE_CELLS}
    for (cell, i, j), pinned in PINNED_DRAW_RESPONSES.items():
        s, a2 = draws[cell][i]
        s = _with_exponents(s, j)
        got = tuple(grid_best_response(0, opp, s).hex() for opp in (a2, 0.0, 1.0))
        assert got == pinned, (cell, i, j)
    rows = list(_single_rows())
    for i, pinned in PINNED_ROW_RESPONSES.items():
        s, opp = rows[i]
        assert grid_best_response(0, opp, s).hex() == pinned, i


def test_a_best_response_builds_its_evaluators_once(monkeypatch):
    work = count_framed_work(monkeypatch)
    for s, opp in _best_response_cases():
        grid_best_response(0, opp, s)
        assert len(work.games) == len(work.evaluators) == len(work.responses) == 1, (s, opp)
        for counts in work:
            counts.clear()


def _solve_draws(n: int, seed: str):
    """Symmetric, heterogeneous (both framed, unlike) and mixed framed games, in turn."""
    rng = random.Random(seed)
    for i in range(n):
        if i % 3 == 0:
            r, lam, rho_c = rng.uniform(5.0, 16.0), rng.uniform(1.0, 4.0), rng.uniform(10.2, 14.0)
            yield priced_game(r, lam, rho_c)
            continue
        s = random_scenario(rng, framed=True)
        other = None if i % 3 == 2 else replace(s.prospect[0], r=s.prospect[0].r * rng.uniform(0.8, 1.2))
        yield replace(s, prospect=(s.prospect[0], other))


def test_a_solve_builds_each_framed_game_once(monkeypatch):
    # Players framed alike share one game; any other framed player builds its own.
    work = count_framed_work(monkeypatch)
    for s in _solve_draws(60, "framed-games"):
        framed = [p for p in (0, 1) if s.prospect[p] is not None]
        shared = len(framed) == 2 and s.prospect[0] == s.prospect[1] and s.duel(0) == s.duel(1)
        iterate_best_response(s)
        assert len(work.games) == len(framed) - shared, s
        assert work.games == [(*s.duel(p), s.prospect[p]) for p in framed[: len(work.games)]]
        for counts in work:
            counts.clear()


def test_framed_utilities_are_the_closed_form_at_the_reported_profile():
    # A solve reads a framed player's utility from its record when that
    # player's last response is its reported fraction; the rest it scores.
    for s in _solve_draws(240, "reported-utilities"):
        res = iterate_best_response(s)
        for p in (0, 1):
            if s.prospect[p] is not None:
                assert res.expected_utilities[p] == pt.expected_pt_utility(p, res.profile, s), s


def test_framed_best_response_never_rises_in_the_opponent_fraction():
    # ROADMAP direction 2: BR is nonincreasing, so rounds from (1, 1)
    # descend to the greatest fixed point of BR(BR(x)).
    rng = random.Random("monotone-best-response")
    fractions = [i / 100 for i in range(101)]
    for _ in range(40):
        s = random_scenario(rng, framed=True)
        responses = [grid_best_response(0, a, s) for a in fractions]
        rises = [hi - lo for lo, hi in zip(responses, responses[1:])]
        assert max(rises) <= 1e-9, (s, max(rises))


def test_best_response_scores_no_lower_than_a_dense_argmax():
    for s, opp in _best_response_cases():
        br = grid_best_response(0, opp, s)
        dense = dense_framed_argmax(0, opp, s)
        u_br, u_dense = _framed_utility(s, 0, br, opp), _framed_utility(s, 0, dense, opp)
        assert u_br >= u_dense - 1e-12 * max(1.0, abs(u_dense)), (s, opp, br, dense)


def test_root_finder_takes_a_bracket_in_either_direction():
    # Negating every read is exact in the false-position step, so the
    # curvature's rising root and its negation's falling root are the same bits.
    rising_roots = 0
    for s, opp in _best_response_cases():
        _, _, curvature, inner = pt.framed_game(*s.duel(0), s.prospect[0])(opp)
        cuts = [0.0, *inner, 1.0]
        for lo, hi in zip(cuts, cuts[1:]):
            inset = (hi - lo) * 2.0**-30
            lo, hi = lo + inset, hi - inset
            c_lo, c_hi = curvature(lo), curvature(hi)
            if not c_lo < 0.0 < c_hi:
                continue
            rising = solver._bracketed_root(curvature, lo, hi, c_lo, c_hi)
            falling = solver._bracketed_root(lambda a: -curvature(a), lo, hi, -c_lo, -c_hi)
            assert rising == falling, (s, opp, lo, hi)
            rising_roots += 1
    assert rising_roots > 0


def _root_reads(f, lo, hi):
    """``solver._bracketed_root`` of ``f`` on [lo, hi], and how many reads it took."""
    reads = []

    def read(a):
        reads.append(a)
        return f(a)

    return solver._bracketed_root(read, lo, hi, f(lo), f(hi)), len(reads)


@pytest.mark.parametrize(
    ("f", "lo", "hi", "most_reads"),
    [
        # The false-position step rounds onto the end that reads 1e-16
        # (plain Illinois steps bisect toward it: 46 reads).
        pytest.param(
            lambda a: 1e-16 - 4.0 * (0.75 - a) - 4.0 * (0.75 - a) ** 2, 0.25, 0.75, 1, id="tiny-end"
        ),
        # A singular end reads 6.6e10 against -8, as the curvature does
        # next to a curved reference (halving its weight: 58 reads).
        pytest.param(lambda a: 5.0 * (1.0 - a) ** -1.12 - 13.0, 0.0, 1.0 - 2.0**-30, 14, id="singular-end"),
        # A slope that runs flat into the end reading 1e-16, as near a
        # double root, with the sign change 5.8e-9 inside it (43 reads;
        # one bisection after every three stalled steps runs out of steps).
        pytest.param(lambda a: 1e-16 - 3.0 * (1.0 - a) ** 2, 0.0, 1.0, 41, id="flat-end"),
    ],
)
def test_root_finder_does_not_crawl(f, lo, hi, most_reads):
    half = 0.5 * solver._ROOT_XTOL
    for sign in (1.0, -1.0):
        root, reads = _root_reads(lambda a: sign * f(a), lo, hi)
        assert f(root - half) < 0.0 < f(root + half), (sign, root)
        assert reads <= most_reads, (sign, reads)


def test_only_the_turning_piece_can_hide_a_maximum():
    # The pt docstring's argument, sampled: on every piece but the turning
    # one, the curvature never reads - at the lower probe and + at the
    # upper, so the best response searches no other piece for a turn.
    rng = random.Random("turning-piece")
    pieces = turning = turns = 0
    for _ in range(3000):
        s = random_scenario(rng, framed=True)
        game = pt.framed_game(*s.duel(0), s.prospect[0])
        for opp in (0.25, 0.5, 0.75, 1.0):
            _, _, curvature, cuts = game(opp)
            bounds = [0.0, *cuts, 1.0]
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                inset = (hi - lo) * 2.0**-30
                turn = curvature(lo + inset) < 0.0 < curvature(hi - inset)
                assert turn <= (i == cuts.turning), (s, opp, i)
                pieces, turning, turns = pieces + 1, turning + (i == cuts.turning), turns + turn
    assert turns > 0 and pieces > 10 * turning


def test_best_response_refuses_a_utility_that_is_not_finite():
    # lam * loss overflows to -inf in a float product, which raises nothing
    # by itself; no candidate may win on such a score.
    s = framed_benchmark(reference=100.0, lam=1e308)
    with pytest.raises(FloatingPointError):
        grid_best_response(0, 1.0, s)


def test_slope_is_quasi_convex_on_every_piece():
    # The pt docstring's argument, sampled: between two breakpoints the
    # slope falls, rises, or falls and then rises.
    for s, opp in _best_response_cases():
        _, slope, _, inner = pt.framed_game(*s.duel(0), s.prospect[0])(opp)
        cuts = [0.0, *inner, 1.0]
        for lo, hi in zip(cuts, cuts[1:]):
            xs = np.linspace(lo, hi, 203)[1:-1]
            slopes = np.array([slope(float(x)) for x in xs])
            steps = np.diff(slopes)
            tol = 1e-9 * float(np.max(np.abs(slopes)))
            turn = int(np.argmin(slopes))
            assert np.all(steps[:turn] <= tol) and np.all(steps[turn:] >= -tol), (s, opp, lo, hi)


def test_best_response_through_an_infinite_slope_under_raising_errstate():
    # At R = 13.8 the untrimmed utility meets the reference at a1 = 0.9375,
    # inside the bracket [0.937, 0.938] of the answer, where the slope is
    # +inf; a NumPy scalar opponent fraction must not turn that into a
    # FloatingPointError.
    s = default_scenario(reference=13.8)
    with np.errstate(all="raise"):
        br = grid_best_response(0, np.float64(0.8), s)
    assert 0.9375 < br < 0.938
    fine = np.linspace(0.937, 0.938, 10001)
    best = max(_framed_utility(s, 0, float(a), 0.8) for a in fine)
    assert _framed_utility(s, 0, br, 0.8) >= best - 1e-12


def test_mixed_game_equilibrium_does_not_depend_on_the_start():
    s = replace(default_scenario(reference=25.0), prospect=(replace(BENCH_PROSPECT, r=25.0), None))
    results = [
        iterate_best_response(s, StrategyProfile.of(a, a)).profile for a in (1.0, 0.5, 0.0)
    ]
    for profile in results[1:]:
        assert profile[0] == pytest.approx(results[0][0], abs=1e-10)
        assert profile[1] == pytest.approx(results[0][1], abs=1e-10)


def published_battery():
    """(scenario, profile) of every row the published battery reports."""
    refs = inclusive_grid(5.0, 16.0, 0.25)
    base = default_scenario()
    for row in sweep_reference_point(
        SweepSpec(base=base, swept_parameter="reference_point", values=refs)
    )[1:]:
        yield default_scenario(reference=row.value), row
    spec = SweepSpec(
        base=default_scenario(lam=4.0),
        swept_parameter="emergency_price",
        values=(10.2, 11.0, 12.0),
        reference_values=refs,
    )
    for row in sweep_emergency_price(spec):
        yield _price_row(row.rho_c, row.reference), row
    lams = inclusive_grid(1.0, 4.0, 0.5)
    for reference in (11.5, 12.5):
        for row in required_emergency_price(default_scenario(reference=reference), lams):
            s = default_scenario(reference=reference, lam=row.lam)
            yield replace(s, grid=replace(s.grid, rho_c=row.rho_c_star)), row
    for row in asymmetric_equilibrium(base, inclusive_grid(5.0, 25.0, 0.5)):
        yield replace(base, prospect=(replace(base.prospect[0], r=row.value), None)), row


def test_every_published_row_is_a_mutual_best_response():
    rows = 0
    for s, row in published_battery():
        profile = StrategyProfile.of(row.alpha_1, row.alpha_2)
        assert row.converged
        assert mutual_residual(s, profile) <= 1e-10, (row.sweep_param, row.value)
        rows += 1
    assert rows == 45 + 3 * 45 + 14 + 41
