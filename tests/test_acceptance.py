"""Acceptance gate: one test per shipped guarantee, in order.

Every test prints a single CRITERION line carrying the measured
evidence, so a run documents itself pass or fail.  Tolerances are
pinned, not tuned: one check (the rational side of the asymmetric
high-reference anchor in criterion 6) currently fails by a small,
reproducible margin; its message carries the measured values, and the
surrounding module tests freeze the behavior actually observed.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import gridstore
from gridstore import (
    ProspectParams,
    SweepSpec,
    asymmetric_equilibrium,
    best_response_cgt,
    default_scenario,
    enumerate_bne,
    expected_pt_utility,
    expected_utility_cgt,
    iterate_best_response,
    max_deviation_by_price,
    quadrature_expected_utility,
    required_emergency_price,
    sweep_emergency_price,
    sweep_reference_point,
    verify_bne,
)

from helpers import (
    FEASIBLE_CELLS,
    covering_kind,
    expected_utility_grid_cgt,
    framed_region_draw,
    interior_case_draw,
    random_profile,
    random_scenario,
    symmetric_framed_equilibrium,
)

MODULE_T0 = time.perf_counter()
CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "defaults.json")

REFERENCE_GRID = tuple(5.0 + 0.25 * i for i in range(45))  # 5..16


def _report(n: int, ok: bool, detail: str) -> str:
    print(f"CRITERION {n:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return detail


def test_criterion_01_rational_closed_form_matches_quadrature():
    rng = random.Random(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        s = random_scenario(rng)
        profile = random_profile(rng)
        player = rng.randrange(2)
        closed = expected_utility_cgt(player, profile, s)
        oracle = quadrature_expected_utility(player, profile, s)
        worst = max(worst, abs(closed - oracle) / abs(oracle))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    detail = _report(
        1,
        ok,
        f"worst relative deviation {worst:.3e} over 10^4 scenario/profile draws "
        f"in {elapsed:.1f}s (limits 1e-9, 10s)",
    )
    assert ok, detail


def test_criterion_02_framed_closed_form_matches_quadrature():
    rng = random.Random(202)
    t0 = time.perf_counter()
    worst_ratio = 0.0
    per_cell = 25
    for want_gain, want_branch in FEASIBLE_CELLS:
        for _ in range(per_cell):
            drawn = framed_region_draw(rng, want_gain, want_branch)
            assert drawn is not None, f"sampler starved on {want_gain}/{want_branch}"
            s, profile = drawn
            closed = expected_pt_utility(0, profile, s)
            oracle = quadrature_expected_utility(0, profile, s, framed=True)
            allowance = max(1e-6 * abs(oracle), 1e-8)
            worst_ratio = max(worst_ratio, abs(closed - oracle) / allowance)
    elapsed = time.perf_counter() - t0
    ok = worst_ratio <= 1.0 and elapsed < 30.0
    detail = _report(
        2,
        ok,
        f"worst deviation at {worst_ratio:.2e}x the rel-1e-6 allowance over "
        f"{per_cell} draws in each of the {len(FEASIBLE_CELLS)} reachable "
        f"sign/branch cells, {elapsed:.1f}s (limit 30s)",
    )
    assert ok, detail


def test_criterion_03_best_response_matches_dense_grid_argmax():
    rng = random.Random(303)
    grid = np.linspace(0.0, 1.0, 100_001)
    step = 1e-5
    worst_gap = 0.0
    worst_slope = 0.0
    n_interior = 0
    cases = [(random_scenario(rng), rng.random()) for _ in range(700)]
    while len(cases) < 1_000:
        drawn = interior_case_draw(rng)
        assert drawn is not None
        cases.append(drawn)
    for s, opp in cases:
        br, case = best_response_cgt(0, opp, s)
        q1, q2max = s.surpluses[0], s.microgrids[1].q_max
        vals = expected_utility_grid_cgt(
            grid, opp, q1, q2max, s.grid.rho, s.grid.emergency_value, s.grid.l_c
        )
        worst_gap = max(worst_gap, abs(br - float(grid[int(np.argmax(vals))])))
        if case.case_id == "InteriorOptimum" and 1e-4 < br < 1.0 - 1e-4:
            n_interior += 1
            h = 1e-6
            hi = expected_utility_grid_cgt(
                br + h, opp, q1, q2max, s.grid.rho, s.grid.emergency_value, s.grid.l_c
            )[0]
            lo = expected_utility_grid_cgt(
                br - h, opp, q1, q2max, s.grid.rho, s.grid.emergency_value, s.grid.l_c
            )[0]
            scale = max(1.0, s.grid.emergency_value * q1)
            worst_slope = max(worst_slope, abs(hi - lo) / (2.0 * h) / scale)
    ok = worst_gap <= step + 1e-12 and worst_slope <= 1e-4 and n_interior >= 300
    detail = _report(
        3,
        ok,
        f"argmax gap <= {worst_gap:.2e} (one step = 1e-5) over 10^3 pairs; "
        f"stationarity slope <= {worst_slope:.2e} on {n_interior} interior cases",
    )
    assert ok, detail


def test_criterion_04_benchmark_equilibrium_pinned():
    s = default_scenario(framed=False)
    results = enumerate_bne(s)
    eq = results[0] if results else None
    ok = (
        len(results) == 1
        and eq.classification == "BNE4"
        and abs(eq.profile[0] - 0.874811) <= 1e-6
        and abs(eq.profile[1] - 0.874811) <= 1e-6
        and verify_bne(eq.profile, s, tol=1e-9)
        and "4a" in eq.conditions
    )
    got = tuple(eq.profile) if eq else None
    detail = _report(
        4,
        ok,
        f"enumeration -> {len(results)} equilibrium {got} with conditions "
        f"{eq.conditions if eq else ()} verified at tol 1e-9",
    )
    assert ok, detail


def test_criterion_05_neutral_framing_recovers_rational_solution():
    rng = random.Random(505)
    neutral = ProspectParams(r=0.0, lam=1.0, beta_plus=1.0, beta_minus=1.0)
    matched = 0
    attempts = 0
    worst = 0.0
    while matched < 100 and attempts < 400:
        attempts += 1
        s_plain = random_scenario(rng)
        s_neutral = replace(s_plain, prospect=(neutral, neutral))
        rational = iterate_best_response(s_plain)
        framed = iterate_best_response(s_neutral)
        if not (rational.converged and framed.converged):
            continue
        gap = max(
            abs(rational.profile[p] - framed.profile[p]) for p in (0, 1)
        )
        worst = max(worst, gap)
        assert gap <= 1e-3, f"profiles diverge by {gap:.2e} on attempt {attempts}"
        matched += 1
    ok = matched == 100
    detail = _report(
        5,
        ok,
        f"{matched}/100 scenario pairs matched within the 1e-3 grid step "
        f"(worst gap {worst:.2e}, {attempts} draws including redraws of "
        f"non-convergent pairs)",
    )
    assert ok, detail


def test_criterion_06_asymmetric_reference_anchors():
    t0 = time.perf_counter()
    rows = asymmetric_equilibrium(default_scenario(), r_values=(13.0, 25.0))
    elapsed = time.perf_counter() - t0
    r13, r25 = rows
    ok13 = abs(r13.alpha_1 - 0.625) <= 0.02 and r13.alpha_2 == 1.0
    ok25 = abs(r25.alpha_1 - 0.88) <= 0.01 and abs(r25.alpha_2 - 0.88) <= 0.01
    ok = ok13 and ok25 and elapsed < 60.0
    off_band = max(0.0, abs(r25.alpha_2 - 0.88) - 0.01)
    rational_br, _ = best_response_cgt(1, r25.alpha_1, default_scenario())
    both = iterate_best_response(default_scenario(reference=25.0)).profile
    detail = _report(
        6,
        ok,
        f"R=13 -> ({r13.alpha_1:.4f}, {r13.alpha_2:.4f}) vs (0.625 +/- 0.02, 1.0); "
        f"R=25 -> ({r25.alpha_1:.4f}, {r25.alpha_2:.4f}) vs 0.88 +/- 0.01 both; "
        f"{elapsed:.1f}s. The rational side settles at {r25.alpha_2:.4f} "
        f"(its closed-form best response to {r25.alpha_1:.4f} is "
        f"{rational_br:.4f}), {off_band:.4f} outside the band; solving R=25 "
        f"with both players framed gives ({both[0]:.4f}, {both[1]:.4f})",
    )
    assert ok, detail


def test_criterion_07_total_storage_curve_shape():
    spec = SweepSpec(
        base=default_scenario(),
        swept_parameter="reference_point",
        values=REFERENCE_GRID,
    )
    rows = sweep_reference_point(spec)
    baseline = rows[0].total_stored_kwh
    totals = [r.total_stored_kwh for r in rows[1:]]
    i_min = int(np.argmin(totals))
    run = 0
    j = i_min
    while j > 0 and totals[j] < totals[j - 1]:
        run += 1
        j -= 1
    flat_start = abs(totals[0] - baseline) <= 0.02 * baseline
    deep_dip = totals[i_min] <= 0.97 * baseline
    rises_above = max(totals[i_min:]) > baseline
    returns = abs(totals[-1] - baseline) <= 0.02 * baseline
    ok = flat_start and run >= 5 and deep_dip and rises_above and returns
    detail = _report(
        7,
        ok,
        f"baseline {baseline:.2f} kWh; start {totals[0]:.2f}, min {totals[i_min]:.2f} "
        f"at R={REFERENCE_GRID[i_min]:g} after a {run}-point strict decrease, "
        f"post-dip max {max(totals[i_min:]):.2f}, end {totals[-1]:.2f}",
    )
    assert ok, detail


def test_criterion_08_price_sensitivity_ordering():
    spec = SweepSpec(
        base=default_scenario(lam=4.0),
        swept_parameter="emergency_price",
        values=(10.2, 11.0, 12.0),
        reference_values=REFERENCE_GRID,
    )
    devs = max_deviation_by_price(sweep_emergency_price(spec))
    ordered = devs[10.2] <= devs[11.0] <= devs[12.0]
    detail = _report(
        8,
        ordered,
        "max |deviation| of stored total across the reference range: "
        + ", ".join(f"rho_c={p:g} -> {devs[p]:.2f}%" for p in (10.2, 11.0, 12.0))
        + " (must be nondecreasing in the price)",
    )
    assert ordered, detail


def test_criterion_09_covering_price_monotone_and_dominant():
    lams = tuple(1.0 + 0.5 * i for i in range(7))
    lo = required_emergency_price(default_scenario(), lams)
    hi = required_emergency_price(default_scenario(reference=12.5), lams)
    stars_lo = [r.rho_c_star for r in lo]
    stars_hi = [r.rho_c_star for r in hi]
    nondecreasing = all(
        b >= a for a, b in zip(stars_lo, stars_lo[1:])
    ) and all(b >= a for a, b in zip(stars_hi, stars_hi[1:]))
    # The framed game can have several equilibria, and each star belongs
    # to the one iteration reaches from (1, 1).  When the two references
    # reach different kinds, compare them on the symmetric branch, which
    # both have: R=11.5's symmetric equilibrium covering at R=12.5's star
    # puts R=11.5's star on that branch at or below it.  A best-response
    # slope below -1 makes that equilibrium repel the iteration, which is
    # why the solver reports the one-sided one instead.
    dominant = True
    notes = []
    for l, h in zip(lo, hi):
        kinds = (covering_kind(l), covering_kind(h))
        if kinds[0] == kinds[1]:
            dominant = dominant and h.rho_c_star >= l.rho_c_star
            continue
        if kinds != ("one-sided", "symmetric"):
            dominant = False
            notes.append(f"lambda={l.lam:g}: no like-for-like rule for {kinds}")
            continue
        base = default_scenario(lam=l.lam)
        s = replace(base, grid=replace(base.grid, rho_c=h.rho_c_star))
        eq = symmetric_framed_equilibrium(s)
        stored = eq.alpha * sum(s.surpluses)
        covers = stored >= s.grid.l_c
        dominant = (
            dominant and covers and abs(eq.residual) <= 1e-8 and eq.br_slope < -1.0
        )
        notes.append(
            f"lambda={l.lam:g}: R=11.5 reaches one-sided "
            f"({l.alpha_1:.4f}, {l.alpha_2:.4f}), R=12.5 symmetric "
            f"({h.alpha_1:.4f}, {h.alpha_2:.4f}); at rho_c={s.grid.rho_c:g} the "
            f"R=11.5 symmetric equilibrium {eq.alpha:.4f} (residual "
            f"{eq.residual:.1e}, best-response slope {eq.br_slope:.3f}) stores "
            f"{stored:.2f} kWh, covers {s.grid.l_c:g}: {covers}"
        )
    ok = nondecreasing and dominant
    detail = _report(
        9,
        ok,
        f"R=11.5 stars {stars_lo}; R=12.5 stars {stars_hi}; both nondecreasing "
        f"in lambda: {nondecreasing}; R=12.5 dominates pointwise on the same "
        f"equilibrium branch: {dominant}. " + "; ".join(notes),
    )
    assert ok, detail


def test_criterion_10_cli_determinism_within_budget(tmp_path):
    args = [
        sys.executable,
        "-m",
        "gridstore.cli",
        "sweep",
        "--config",
        CONFIG,
        "--param",
        "reference-point",
        "--from",
        "11",
        "--to",
        "12",
        "--step",
        "0.5",
    ]
    # The child interpreter finds the package where this one did, even
    # when it was never installed.
    src = str(Path(gridstore.__file__).resolve().parent.parent)
    search = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(search))
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for path in (first, second):
        proc = subprocess.run(
            args + ["--out", str(path)], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
    identical = first.read_bytes() == second.read_bytes()
    elapsed = time.perf_counter() - MODULE_T0
    ok = identical and elapsed < 300.0
    detail = _report(
        10,
        ok,
        f"two CLI sweep invocations byte-identical: {identical}; acceptance "
        f"module wall time {elapsed:.1f}s (limit 300s)",
    )
    assert ok, detail
