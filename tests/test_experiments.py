"""Sweep experiments: row semantics, covering-price search, CSV output."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import sys
from dataclasses import replace
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridstore import (
    InvalidScenario,
    MicrogridConfig,
    SweepSpec,
    asymmetric_equilibrium,
    default_scenario,
    enumerate_bne,
    expected_pt_utility,
    iterate_best_response,
    max_deviation_by_price,
    required_emergency_price,
    run_sweep,
    sweep_emergency_price,
    sweep_reference_point,
    write_required_price_csv,
    write_sweep_csv,
)
from gridstore import experiments, solver
from gridstore.errors import NoCoveragePrice, NotConverged

from helpers import (
    FramedWork,
    covering_kind,
    dense_framed_argmax,
    expected_pt_utility_grid,
    expected_utility_grid_cgt,
    plain_rounds,
    random_scenario,
    stride_bisect_covering_price,
)

ROOT = Path(__file__).resolve().parent.parent

CSV_HEADER = (
    "sweep_param,value,alpha_1,alpha_2,total_stored_kwh,"
    "expected_utility_1,expected_utility_2,classification,converged,iterations"
)


def test_spec_rejects_unknown_parameter():
    with pytest.raises(ValueError, match="swept_parameter"):
        SweepSpec(base=default_scenario(), swept_parameter="voltage", values=(1.0,))


def test_spec_rejects_bad_grids():
    with pytest.raises(ValueError, match="nonempty"):
        SweepSpec(base=default_scenario(), swept_parameter="reference_point", values=())
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepSpec(
            base=default_scenario(),
            swept_parameter="reference_point",
            values=(12.0, 11.0),
        )
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepSpec(
            base=default_scenario(),
            swept_parameter="emergency_price",
            values=(10.2,),
            reference_values=(12.5, 11.5),
        )


def test_spec_refuses_reference_values_outside_the_price_sweep():
    # No other family reads a second axis, so it would be dropped unseen.
    for kind in ("reference_point", "reference_point_asymmetric"):
        with pytest.raises(ValueError, match="reference_values"):
            SweepSpec(default_scenario(), kind, values=(11.5,), reference_values=(5.0, 6.0))


def test_spec_refuses_a_price_sweep_without_reference_values(monkeypatch):
    solves = _count_solves(monkeypatch)
    with pytest.raises(ValueError, match="reference_values"):
        run_sweep(SweepSpec(default_scenario(), "emergency_price", values=(11.5,)))
    assert solves == []


def test_inclusive_grid_refuses_what_its_contract_excludes():
    for lo, hi, step in ((0.0, 1.0, 0.0), (2.0, 1.0, 0.5), (0.0, 1.0, -0.5),
                         (math.nan, 1.0, 0.5), (0.0, math.inf, 0.5)):
        with pytest.raises(ValueError):
            experiments.inclusive_grid(lo, hi, step)


_GRID_FAMILIES = {
    "reference": lambda bad: run_sweep(
        SweepSpec(base=default_scenario(), swept_parameter="reference_point", values=(5.0, bad))
    ),
    "price": lambda bad: run_sweep(
        SweepSpec(
            base=default_scenario(),
            swept_parameter="emergency_price",
            values=(10.2, bad),
            reference_values=(11.5,),
        )
    ),
    "price-reference": lambda bad: run_sweep(
        SweepSpec(
            base=default_scenario(),
            swept_parameter="emergency_price",
            values=(10.2,),
            reference_values=(11.5, bad),
        )
    ),
    "coverage": lambda bad: required_emergency_price(default_scenario(), (1.0, bad)),
    "asymmetric": lambda bad: asymmetric_equilibrium(default_scenario(), (5.0, bad)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("family", sorted(_GRID_FAMILIES))
def test_non_finite_grid_value_is_refused_before_any_solve(family, bad, monkeypatch):
    solves = _count_solves(monkeypatch)
    with pytest.raises(ValueError, match="must be finite"):
        _GRID_FAMILIES[family](bad)
    assert solves == []


def test_spec_kind_mismatch_rejected():
    spec = SweepSpec(
        base=default_scenario(), swept_parameter="reference_point", values=(11.5,)
    )
    with pytest.raises(ValueError, match="expected"):
        sweep_emergency_price(spec)


def test_reference_sweep_baseline_row_repeats_closed_form():
    spec = SweepSpec(
        base=default_scenario(),
        swept_parameter="reference_point",
        values=(11.0, 11.5),
    )
    rows = sweep_reference_point(spec)
    assert len(rows) == 3
    base = rows[0]
    eq = enumerate_bne(default_scenario(framed=False))[0]
    assert base.sweep_param == "cgt_baseline"
    assert base.value is None
    assert base.alpha_1 == eq.profile[0]
    assert base.alpha_2 == eq.profile[1]
    assert base.total_stored_kwh == pytest.approx(209.95475113122163, rel=1e-12)
    assert base.expected_utility_1 == pytest.approx(13.390045248868779, rel=1e-12)
    assert base.classification == "BNE4"
    assert base.converged and base.iterations == 0


def test_reference_sweep_rows_follow_grid_order():
    spec = SweepSpec(
        base=default_scenario(),
        swept_parameter="reference_point",
        values=(11.0, 11.5),
    )
    rows = sweep_reference_point(spec)[1:]
    assert [r.value for r in rows] == [11.0, 11.5]
    for row in rows:
        assert row.sweep_param == "reference_point"
        assert row.classification == "PT-Iterated"
        assert row.converged
        assert row.total_stored_kwh == pytest.approx(120.0 * (row.alpha_1 + row.alpha_2))
    # Benchmark reference: the framed pair holds slightly back on one side.
    assert rows[1].alpha_1 == pytest.approx(0.700822, abs=1e-6)
    assert rows[1].alpha_2 == 1.0


def _framed_by_hand(s, **changes):
    """``s`` with ``changes`` applied to each framed player, built by ``replace``."""
    prospect = tuple(None if p is None else replace(p, **changes) for p in s.prospect)
    return replace(s, prospect=prospect)


@pytest.mark.parametrize("family", ["reference", "price", "asymmetric", "covering"])
def test_family_row_matches_direct_solve(family):
    # One point of each family against a solve of a scenario built here,
    # through no code the families share.
    base = default_scenario()
    if family == "reference":
        row = sweep_reference_point(SweepSpec(base, "reference_point", values=(12.0,)))[1]
        direct = _framed_by_hand(base, r=12.0)
    elif family == "price":
        spec = SweepSpec(
            default_scenario(lam=4.0), "emergency_price", values=(12.0,), reference_values=(12.0,)
        )
        row = sweep_emergency_price(spec)[0]
        priced = replace(base, grid=replace(base.grid, rho_c=12.0))
        direct = _framed_by_hand(priced, r=12.0, lam=4.0)
    elif family == "asymmetric":
        row = asymmetric_equilibrium(base, (13.0,))[0]
        direct = _framed_by_hand(replace(base, prospect=(base.prospect[0], None)), r=13.0)
    else:
        row = required_emergency_price(base, (2.0,), reference=11.5)[0]
        priced = replace(base, grid=replace(base.grid, rho_c=row.rho_c_star))
        direct = _framed_by_hand(priced, r=11.5, lam=2.0)
    res = iterate_best_response(direct)
    assert (row.alpha_1, row.alpha_2) == tuple(res.profile)
    assert row.iterations == res.iterations
    assert (row.expected_utility_1, row.expected_utility_2) == tuple(res.expected_utilities)


def test_emergency_price_sweep_rows_and_deviation():
    spec = SweepSpec(
        base=default_scenario(),
        swept_parameter="emergency_price",
        values=(10.2,),
        reference_values=(11.5, 12.5),
    )
    rows = sweep_emergency_price(spec)
    assert [(r.rho_c, r.reference) for r in rows] == [(10.2, 11.5), (10.2, 12.5)]
    assert rows[0].pct_deviation_from_r_min == 0.0
    expected = 100.0 * (
        rows[1].total_stored_kwh - rows[0].total_stored_kwh
    ) / rows[0].total_stored_kwh
    assert rows[1].pct_deviation_from_r_min == pytest.approx(expected, rel=1e-12)
    assert max_deviation_by_price(rows) == {
        10.2: pytest.approx(abs(expected), rel=1e-12)
    }


def test_emergency_price_sweep_validates_every_price_up_front():
    # 9.0 breaks the incentive condition (theta * rho_c < rho); the sweep
    # must refuse the whole grid rather than fail midway.
    spec = SweepSpec(
        base=default_scenario(),
        swept_parameter="emergency_price",
        values=(9.0, 10.2),
        reference_values=(11.5,),
    )
    with pytest.raises(InvalidScenario):
        sweep_emergency_price(spec)


def test_covering_price_search_frozen_values():
    rows = required_emergency_price(default_scenario(), lambda_values=(1.0, 2.0))
    assert [r.lam for r in rows] == [1.0, 2.0]
    assert [r.rho_c_star for r in rows] == [11.28, 11.37]
    for row in rows:
        assert row.reference == 11.5
        assert row.total_stored_kwh >= 200.0
        assert row.converged


def test_covering_price_is_minimal_on_the_cent_grid():
    row = required_emergency_price(default_scenario(), lambda_values=(1.0,))[0]
    below = replace(
        default_scenario(lam=1.0),
        grid=replace(default_scenario().grid, rho_c=row.rho_c_star - 0.01),
    )
    res = iterate_best_response(below)
    assert res.converged
    assert 120.0 * (res.profile[0] + res.profile[1]) < 200.0


def test_covering_price_reference_shift_reverses_at_unit_loss_aversion():
    # Raising the reference point raises the covering price at every
    # loss-averse level, but at lam = 1 the two references report
    # different equilibrium branches: R = 11.5 reaches a one-sided
    # equilibrium (its symmetric one repels best-response iteration),
    # while R = 12.5 reaches the symmetric one.  The reported stars
    # therefore compare different branches and the shift flips sign.
    lo = required_emergency_price(default_scenario(), lambda_values=(1.0, 1.5))
    hi = required_emergency_price(
        default_scenario(reference=12.5), lambda_values=(1.0, 1.5)
    )
    assert covering_kind(lo[0]) == "one-sided"
    assert covering_kind(hi[0]) == "symmetric"
    diffs = [h.rho_c_star - l.rho_c_star for h, l in zip(hi, lo)]
    assert diffs[0] == pytest.approx(-0.02, abs=1e-9)
    assert diffs[1] >= 0.15


def _count_solves(monkeypatch, limit: int = 1_000) -> list[float]:
    """Record the price of every solve the search makes; fail past ``limit``."""
    prices = []
    real = experiments.iterate_best_response

    def counted(scenario, *args, **kwargs):
        prices.append(scenario.grid.rho_c)
        assert len(prices) <= limit, f"more than {limit} solves"
        return real(scenario, *args, **kwargs)

    monkeypatch.setattr(experiments, "iterate_best_response", counted)
    return prices


def test_covering_price_search_solves_each_price_once(monkeypatch):
    # At lam = 1 the search solves the covering price 11.28 before the
    # row is built from it.
    prices = _count_solves(monkeypatch)
    row = required_emergency_price(default_scenario(), lambda_values=(1.0,))[0]
    assert row.rho_c_star == 11.28
    assert row.rho_c_star in prices
    assert len(prices) == len(set(prices))


def test_covering_price_search_refuses_differing_references(monkeypatch):
    base = default_scenario()
    uneven = replace(base, prospect=(base.prospect[0], replace(base.prospect[1], r=14.0)))
    solves = _count_solves(monkeypatch)
    with pytest.raises(ValueError, match=r"reference points differ \(11.5, 14\)"):
        required_emergency_price(uneven, lambda_values=(1.0,))
    assert solves == []
    # An explicit reference, or one the framed players share, is applied to both.
    given = required_emergency_price(uneven, lambda_values=(1.0,), reference=11.5)
    assert given == required_emergency_price(base, lambda_values=(1.0,))
    one_framed = replace(base, prospect=(None, replace(base.prospect[1], r=14.0)))
    assert required_emergency_price(one_framed, (1.0,))[0].reference == 14.0


def test_covering_price_search_reports_unreachable_target():
    with pytest.raises(NoCoveragePrice) as exc_info:
        required_emergency_price(
            default_scenario(), lambda_values=(1.0,), price_hi=10.5
        )
    assert exc_info.value.lam == 1.0
    assert exc_info.value.price_hi == 10.5


def _stored_at(base, price: float) -> float:
    scenario = replace(base, grid=replace(base.grid, rho_c=price))
    profile = iterate_best_response(scenario).profile
    return sum(profile[p] * scenario.surpluses[p] for p in (0, 1))


def _assert_local_crossing(reference: float, lam: float, star: float) -> None:
    # The benchmark's coverage contract: the star covers, and the cent
    # below it does not unless it lies at or below the incentive floor.
    base = default_scenario(reference=reference, lam=lam)
    target = base.grid.l_c
    assert _stored_at(base, star) >= target
    below = round(star - experiments.PRICE_STEP, 2)
    floor = base.grid.rho / base.grid.theta * (1.0 + 1e-6)
    assert below <= floor or _stored_at(base, below) < target


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    reference=st.floats(min_value=5.0, max_value=16.0),
    lam=st.floats(min_value=1.0, max_value=4.0),
)
def test_covering_price_is_a_local_crossing(reference, lam):
    row = required_emergency_price(default_scenario(reference=reference), (lam,))[0]
    _assert_local_crossing(reference, lam, row.rho_c_star)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("reference", [11.5, 12.5])
def test_covering_price_is_a_local_crossing_on_shifted_grids(seed, reference):
    # The benchmark's coverage workload: lambda = 1 plus 1.5..4 step 0.5
    # shifted by a seeded fraction of half a step.
    shift = random.Random(seed).random() * 0.5
    lams = (1.0,) + tuple(1.5 + 0.5 * i + shift for i in range(6))
    rows = required_emergency_price(default_scenario(reference=reference), lams)
    for lam, row in zip(lams, rows):
        _assert_local_crossing(reference, lam, row.rho_c_star)


def test_covering_price_finds_a_window_between_branches():
    # Here 11.01..11.25 cover, 11.26..12.08 do not, and 12.09 covers
    # again.  The earlier coarse scan from rho/theta in steps of 0.5
    # stepped over the first window and reported 12.09.  A ceiling of 12
    # or 11.5 puts the top cent in the gap; solving it up front raised
    # NoCoveragePrice there, though the strides reach the window first.
    reference, lam = 13.251545058135042, 2.4340982337820005
    base = default_scenario(reference=reference)
    for price_hi in (30.0, 12.0, 11.5):
        row = required_emergency_price(base, (lam,), price_hi=price_hi)[0]
        assert row.rho_c_star == 11.01
    _assert_local_crossing(reference, lam, 11.01)


def test_covering_price_battery_solve_budget(battery):
    # The published battery's 14 searches: 92 solves (159 when the
    # search bisected on coverage alone after solving the top cent).
    assert len(battery.solves["coverage-price"]) <= 92


def _assert_matches_stride_bisect(base, price_hi: float = 30.0) -> None:
    """The library reports the reference search's star, or raises its
    exception, and solves no more prices than the reference."""
    try:
        expected = stride_bisect_covering_price(base, price_hi)
    except (NoCoveragePrice, NotConverged) as exc:
        expected = exc
    lam = base.prospect[0].lam
    with pytest.MonkeyPatch.context() as mp:
        prices = _count_solves(mp)
        try:
            got = required_emergency_price(base, (lam,), price_hi=price_hi)[0].rho_c_star
        except (NoCoveragePrice, NotConverged) as exc:
            got = exc
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and got.args == expected.args
        return
    star, solves = expected
    assert got == star
    assert len(prices) <= solves


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    reference=st.floats(min_value=5.0, max_value=16.0),
    lam=st.floats(min_value=1.0, max_value=4.0),
)
def test_covering_price_matches_the_stride_bisect_search(reference, lam):
    _assert_matches_stride_bisect(default_scenario(reference=reference, lam=lam))


def test_covering_price_matches_the_stride_bisect_search_at_far_prices():
    # A far price ceiling, and rho/theta = 1e16 with a ceiling at 4e16.
    base = default_scenario(lam=1.0)
    _assert_matches_stride_bisect(base, price_hi=1e15)
    huge_floor = replace(base, grid=replace(base.grid, rho=1e14, rho_c=2e16))
    _assert_matches_stride_bisect(huge_floor, price_hi=4e16)


def test_battery_framed_best_response_budget(battery):
    # The script's battery.  A solve reuses its repeated responses, and a
    # symmetric one iterates one best-response map with Steffensen steps,
    # secant steps after two: 1,094 framed responses in the three sweep
    # families (1,179 with Aitken steps only, 1,639 when every solve
    # alternated rounds, 2,063 when it waited for three fresh rounds).  The
    # covering-price family makes 214 (244 with rounds; 434 when it
    # bisected on coverage).  A framed player's reported utility comes from
    # the record where it answered the final profile: 97 sweep and 4
    # covering-price evaluator sets score the rest (401 and 184 before).
    # The responses read the curvature on the turning piece alone (5,972
    # sweep and 1,160 covering-price reads when every piece was searched),
    # and no root search crawls (13,123 and 2,413 slope reads, and up to 55
    # and 58 reads a search, with plain Illinois steps).
    sweeps = [battery.work[family] for family in ("reference-sweep", "price-sensitivity", "asymmetric")]
    work = FramedWork(*(sum(parts[1:], parts[0]) for parts in zip(*sweeps)))  # added up
    assert len(work.responses) <= 1095
    assert len(work.evaluators) - len(work.responses) <= 100
    assert work.reads["slope"] <= 11_787
    assert work.reads["curvature"] <= 1_411
    assert work.reads["utility"] <= 3_272
    assert max(work.roots) <= 30
    work = battery.work["coverage-price"]
    assert len(work.responses) <= 214
    assert len(work.evaluators) - len(work.responses) <= 4
    assert work.reads["slope"] <= 2_354
    assert work.reads["curvature"] <= 133
    assert work.reads["utility"] <= 565
    assert max(work.roots) <= 30


def test_battery_validates_every_solve_without_building_a_check(battery):
    # Every solve validates its scenario on entry, and on a valid one that
    # is the boolean pass alone: no ``Check`` and no message is built.
    passes = list(chain.from_iterable(battery.validated.values()))
    checks = list(chain.from_iterable(battery.checks.values()))
    assert checks == []
    assert len(passes) >= 313


def _replaced_variant(base, rho_c=None, **framing):
    """What ``experiments._variant`` returns, built with ``dataclasses.replace``."""
    grid = base.grid if rho_c is None else replace(base.grid, rho_c=rho_c)
    prospect = tuple(p if p is None or not framing else replace(p, **framing) for p in base.prospect)
    return replace(base, grid=grid, prospect=prospect)


def _symmetric(s) -> bool:
    """``solver.iterate_best_response``'s test for players framed alike."""
    return None not in s.prospect and s.prospect[0] == s.prospect[1] and s.duel(0) == s.duel(1)


def test_variant_equals_the_scenario_built_with_replace():
    rng = random.Random("variant")
    for _ in range(400):
        kind = rng.choice(["shared", "equal", "different", "mixed", "rational"])
        base = default_scenario(rng.uniform(5.0, 16.0), rng.uniform(1.0, 4.0), kind != "rational")
        if rng.random() < 0.5:
            base = replace(random_scenario(rng), prospect=base.prospect)
        p = base.prospect[0]
        if kind == "equal":
            base = replace(base, prospect=(p, replace(p)))
        elif kind == "different":
            base = replace(base, prospect=(p, replace(p, beta_minus=rng.uniform(0.5, 1.0))))
        elif kind == "mixed":
            base = replace(base, prospect=(None, p) if rng.random() < 0.5 else (p, None))
        rho_c = rng.choice([None, rng.uniform(10.2, 14.0)])
        framing = {
            name: rng.uniform(*bounds)
            for name, bounds in (("r", (5.0, 16.0)), ("lam", (1.0, 4.0)))
            if rng.random() < 0.6
        }
        variant = experiments._variant(base, rho_c, **framing)
        assert variant == _replaced_variant(base, rho_c, **framing)
        # Players that share one framing still share one, and the solver's
        # test for players framed alike reads as it did.
        shared = base.prospect[0] is base.prospect[1] is not None
        assert (variant.prospect[0] is variant.prospect[1] is not None) == shared
        assert _symmetric(variant) == _symmetric(_replaced_variant(base, rho_c, **framing))


def _scores_no_lower(u_reported: float, u_dense: float) -> bool:
    return u_reported >= u_dense - 1e-12 * max(1.0, abs(u_dense))


def test_every_battery_solve_passes_checks_that_share_no_solver_code(battery):
    # Each of the battery's 313 solves, against references that share no
    # code with the solver: each framed player's fraction scores no lower
    # than a dense argmax of the mask-based NumPy utility, each rational
    # player's no lower than a dense scan of the NumPy closed form, and
    # each reported framed utility is the closed form there.  The profile
    # is the one plain alternating rounds from (1, 1) settle on.
    solves = list(chain.from_iterable(battery.solves.values()))
    assert len(solves) == 313
    grid = np.linspace(0.0, 1.0, 2_001)
    for s, res in solves:
        reference_profile, settled = plain_rounds(s, 3_000)
        assert settled and res.converged, s
        assert tuple(res.profile) == pytest.approx(reference_profile, abs=1e-8), s
        for p in (0, 1):
            a_own, a_opp, pp = res.profile[p], res.profile[1 - p], s.prospect[p]
            if pp is None:
                scan = expected_utility_grid_cgt(grid, a_opp, *s.duel(p))
                u = expected_utility_grid_cgt(a_own, a_opp, *s.duel(p))[0]
                assert _scores_no_lower(u, scan.max()), (s, p)
                assert abs(a_own - grid[scan.argmax()]) <= grid[1], (s, p)
                continue
            assert res.expected_utilities[p] == expected_pt_utility(p, res.profile, s), s
            dense = dense_framed_argmax(p, a_opp, s, points=2_001)
            u, u_dense = expected_pt_utility_grid([a_own, dense], a_opp, *s.duel(p), pp)
            assert _scores_no_lower(u, u_dense), (s, p, a_own, dense)


@pytest.mark.parametrize("price_hi", [1e15, 1e307, sys.float_info.max])
def test_covering_price_search_ignores_a_far_price_ceiling(price_hi, monkeypatch):
    # Past about 1.8e306 the ceiling over PRICE_STEP overflows a float;
    # the search still stops at the first covering cent.
    _count_solves(monkeypatch, limit=20)
    row = required_emergency_price(default_scenario(), (1.0,), price_hi=price_hi)[0]
    assert row.rho_c_star == 11.28


@pytest.mark.parametrize(("rho", "theta"), [(1e14, 0.01), (1e-3, 1e-19)])
def test_covering_price_search_survives_a_huge_incentive_floor(rho, theta, monkeypatch):
    # rho/theta = 1e16, where neighbouring cents are the same float.  At
    # theta = 1e-19 the game near the star has one symmetric equilibrium
    # with best-response slope -0.99999, where 200 alternating rounds
    # stopped still moving; one best-response map settles it.
    _count_solves(monkeypatch, limit=200)
    base = default_scenario()
    base = replace(base, grid=replace(base.grid, rho=rho, theta=theta, rho_c=2e16))
    row = required_emergency_price(base, (1.0,), price_hi=4e16)[0]
    assert 1e16 < row.rho_c_star < 4e16
    assert row.total_stored_kwh >= base.grid.l_c
    assert row.converged


def test_covering_price_search_refuses_a_solve_at_the_round_cap(monkeypatch):
    # rho/theta = 1e16 again, with one round allowed, so that the solve at
    # the cent below the covering price the search lands on stops at the
    # round cap: its profile cannot decide coverage.
    monkeypatch.setattr(solver, "MAX_ROUNDS", 1)
    base = default_scenario()
    base = replace(base, grid=replace(base.grid, rho=1e-3, theta=1e-19, rho_c=2e16))
    with pytest.raises(NotConverged) as exc_info:
        required_emergency_price(base, (1.0,), price_hi=4e16)
    assert exc_info.value.lam == 1.0
    assert 1e16 < exc_info.value.price < 4e16


@pytest.mark.parametrize("price_hi", [11.285, 11.28])
def test_covering_price_ceiling_at_or_just_above_the_star(price_hi):
    row = required_emergency_price(default_scenario(), (1.0,), price_hi=price_hi)[0]
    assert row.rho_c_star == 11.28
    assert row.alpha_1 == pytest.approx(0.6672697936325961, abs=1e-9)
    assert row.alpha_2 == 1.0
    assert row.total_stored_kwh == pytest.approx(200.07237523591152, abs=1e-7)
    assert row.iterations == 2


def test_covering_price_when_the_first_cent_covers():
    # With q_max = q = 120 and l_c = 140 the first cent above
    # rho/theta = 10 already covers.
    base = default_scenario()
    microgrid = MicrogridConfig(q=120.0, q_max=120.0)
    base = replace(base, microgrids=(microgrid, microgrid), grid=replace(base.grid, l_c=140.0))
    rows = required_emergency_price(base, (1.0, 2.25, 4.0))
    assert [r.rho_c_star for r in rows] == [10.01, 10.01, 10.01]
    for row, alpha in zip(rows, (0.5839161817543079, 0.5839161817197567, 0.5839161819768217)):
        assert row.alpha_1 == pytest.approx(alpha, abs=1e-9)
        assert row.total_stored_kwh == pytest.approx(140.13988361683337, abs=1e-7)


def test_asymmetric_rows_frozen_profiles():
    rows = asymmetric_equilibrium(default_scenario(), r_values=(13.0, 25.0))
    assert [r.value for r in rows] == [13.0, 25.0]
    assert all(r.sweep_param == "reference_point_asymmetric" for r in rows)
    assert rows[0].alpha_1 == pytest.approx(0.6231968891721665, abs=1e-9)
    assert rows[0].alpha_2 == 1.0
    assert rows[1].alpha_1 == pytest.approx(0.8873091547989967, abs=1e-9)
    assert rows[1].alpha_2 == pytest.approx(0.86349889723654, abs=1e-9)


def test_sweep_csv_format(tmp_path):
    spec = SweepSpec(
        base=default_scenario(),
        swept_parameter="reference_point",
        values=(11.5,),
    )
    rows = run_sweep(spec)
    text = write_sweep_csv(rows, tmp_path / "rows.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(rows)
    assert lines[1].startswith("cgt_baseline,,0.874811463,")
    assert lines[1].endswith(",BNE4,true,0")
    assert text.endswith("\n")


def test_sweep_csv_rerun_is_byte_identical(tmp_path):
    spec = SweepSpec(
        base=default_scenario(),
        swept_parameter="reference_point",
        values=(11.0, 11.5),
    )
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_sweep_csv(sweep_reference_point(spec), first)
    write_sweep_csv(sweep_reference_point(spec), second)
    assert first.read_bytes() == second.read_bytes()


def test_covering_price_csv_carries_star_column(tmp_path):
    rows = required_emergency_price(default_scenario(), lambda_values=(1.0,))
    path = write_required_price_csv(rows, tmp_path / "stars.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER.replace("value,", "value,rho_c_star,")
    assert lines[1].startswith("required_emergency_price:R=11.5,1,11.28,")


def _values_sha256(text: str) -> str:
    """SHA-256 of a CSV with its ``iterations`` column removed."""
    table = list(csv.reader(io.StringIO(text)))
    drop = table[0].index("iterations")
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(row[:drop] + row[drop + 1:] for row in table)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_published_battery_reproduces_reference_hashes(battery):
    """``run_experiments.py --experiment all`` writes the CSVs pinned in
    ``tests/data/battery_sha256.json``: whole files by ``sha256``, and every
    column but ``iterations`` by ``values_sha256``, so a change that moves
    only round counts fails the first and passes the second."""
    expected = json.loads((ROOT / "tests" / "data" / "battery_sha256.json").read_text())
    values = {name: _values_sha256(data.decode()) for name, data in battery.csv.items()}
    assert values == expected["values_sha256"]
    written = {name: hashlib.sha256(data).hexdigest() for name, data in battery.csv.items()}
    assert written == expected["sha256"]


def test_paired_cpu_refuses_fewer_than_two_pairs(monkeypatch):
    # The ratio's quartiles need two pairs; one used to crash only after
    # every pass had run.  The refusal comes before any tree is extracted.
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool adds perfbench/
    import paired_cpu
    monkeypatch.setattr(paired_cpu.subprocess, "run", lambda *a, **k: pytest.fail(f"ran {a}"))
    for pairs in ("1", "0"):
        monkeypatch.setattr(sys, "argv", ["paired_cpu.py", "HEAD", "--pairs", pairs])
        with pytest.raises(SystemExit, match="^2$"):
            paired_cpu.main()
