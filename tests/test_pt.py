"""Framed valuation checks: the value function, branch geometry, integrals.

The closed-form framed expectation is compared against adaptive
quadrature of the ex-post framed utility, branch by branch.  Only three
of the six (uncontested sign x contested branch) combinations can occur:
the uncontested utility is the maximum over the opponent's types and the
contested segment starts at that same value, so an uncontested loss
forces AllLoss and an uncontested gain rules it out.  That structural
fact gets its own test.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from gridstore import (
    ProspectParams,
    StrategyProfile,
    expected_pt_utility,
    expected_utility_cgt,
    pt_value,
    quadrature_expected_utility,
)
from gridstore.errors import MissingProspectParams
from gridstore.pt import framed_game

from helpers import (
    BENCH_PROSPECT,
    FEASIBLE_CELLS,
    benchmark_scenario,
    contested_profile,
    contested_terms,
    framed_benchmark,
    framed_region_draw,
    random_scenario,
)
from helpers import expected_pt_utility_grid as dense_pt_utility_grid

CGT_AT_INTERIOR_BR = 13.13103448275844


def test_value_function_reference_examples():
    p = BENCH_PROSPECT
    assert pt_value(p.r, p) == 0.0
    assert pt_value(p.r + 1.0, p) == pytest.approx(1.0, rel=1e-15)
    assert pt_value(p.r - 1.0, p) == pytest.approx(-2.25, rel=1e-15)
    assert pt_value(p.r + 32.0, p) == pytest.approx(21.112126572366307, rel=1e-12)


@given(
    st.floats(min_value=-500.0, max_value=500.0),
    st.floats(min_value=-500.0, max_value=500.0),
)
@settings(max_examples=200, deadline=None)
def test_value_function_monotone(u1, u2):
    lo, hi = sorted((u1, u2))
    assert pt_value(lo, BENCH_PROSPECT) <= pt_value(hi, BENCH_PROSPECT)


@given(
    st.floats(min_value=1e-6, max_value=400.0),
    st.floats(min_value=1.0, max_value=5.0),
    st.floats(min_value=0.3, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_losses_loom_larger_than_gains(x, lam, beta):
    p = ProspectParams(r=10.0, lam=lam, beta_plus=beta, beta_minus=beta)
    gain = pt_value(p.r + x, p)
    # At lam = 1 the two sides coincide; leave room for last-ulp noise.
    assert abs(pt_value(p.r - x, p)) >= gain - 1e-12 * max(1.0, gain)


def test_value_function_continuous_at_reference():
    p = BENCH_PROSPECT
    eps = 1e-12
    assert abs(pt_value(p.r + eps, p)) < 1e-10
    assert abs(pt_value(p.r - eps, p)) < 1e-10


def test_branch_terms_benchmark_point():
    s = framed_benchmark()
    terms = contested_terms(StrategyProfile.of(0.8, 0.8), s)
    assert terms.split == pytest.approx(130.0, rel=1e-12)
    assert terms.branch == "AllGain"
    # The contested segment starts at the uncontested utility and falls
    # from there.
    assert terms.u_hi < terms.u1
    assert terms.m_g < 0.0 and terms.m_l < 0.0


def test_low_reference_point_makes_every_type_a_gain():
    rng = random.Random(7)
    hits = 0
    while hits < 20:
        s = random_scenario(rng, framed=True)
        profile = contested_profile(rng, s)
        if profile is None:
            continue
        terms = contested_terms(profile, s)
        if terms.u_hi <= 0.0:
            continue
        low = replace(s.prospect[0], r=0.5 * terms.u_hi)
        s_low = replace(s, prospect=(low, None))
        assert contested_terms(profile, s_low).branch == "AllGain"
        hits += 1


def test_idle_opponent_leaves_the_uncontested_value():
    # An idle opponent never triggers trimming, so the framed value is the
    # uncontested one.
    s = framed_benchmark()
    u = expected_pt_utility(0, StrategyProfile.of(0.8, 0.0), s)
    assert u == pytest.approx(pt_value(0.1 * 120 * 0.2 + 0.116 * 120 * 0.8, s.prospect[0]))


def test_missing_prospect_parameters_rejected():
    with pytest.raises(MissingProspectParams):
        expected_pt_utility(0, StrategyProfile.of(0.8, 0.8), benchmark_scenario())
    one_sided = benchmark_scenario(prospect=(BENCH_PROSPECT, None))
    expected_pt_utility(0, StrategyProfile.of(0.8, 0.8), one_sided)
    with pytest.raises(MissingProspectParams):
        expected_pt_utility(1, StrategyProfile.of(0.8, 0.8), one_sided)


def test_linear_neutral_framing_reduces_to_rational_value():
    # lam = 1 and unit exponents make the value function the identity
    # shifted by the reference, so the framed expectation must equal the
    # rational one minus the reference, for any reference.
    neutral = ProspectParams(r=1e-9, lam=1.0, beta_plus=1.0, beta_minus=1.0)
    s = benchmark_scenario(prospect=(neutral, None))
    profile = StrategyProfile.of(0.7614942528735631, 1.0)
    assert expected_pt_utility(0, profile, s) == pytest.approx(
        CGT_AT_INTERIOR_BR, rel=1e-9
    )


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=80, deadline=None)
def test_linear_framing_shift_identity(seed):
    rng = random.Random(seed)
    s = random_scenario(rng)
    profile = contested_profile(rng, s) or StrategyProfile.of(0.5, 0.5)
    r = rng.uniform(0.1, 2.0) * s.grid.emergency_value * s.surpluses[0]
    linear = ProspectParams(r=r, lam=1.0, beta_plus=1.0, beta_minus=1.0)
    s = replace(s, prospect=(linear, None))
    framed = expected_pt_utility(0, profile, s)
    rational = expected_utility_cgt(0, profile, s)
    assert framed + r == pytest.approx(rational, rel=1e-9, abs=1e-9)


def test_linear_loss_averse_all_loss_frozen_value():
    # Unit exponents with lam = 2.25 and a reference far above every
    # attainable utility: the expectation collapses to lam times the
    # rational shortfall.
    pp = ProspectParams(r=100.0, lam=2.25, beta_plus=1.0, beta_minus=1.0)
    s = benchmark_scenario(prospect=(pp, None))
    profile = StrategyProfile.of(0.7614942528735631, 1.0)
    u = expected_pt_utility(0, profile, s)
    assert u == pytest.approx(-195.4551724137936, rel=1e-12)
    assert u == pytest.approx(2.25 * (CGT_AT_INTERIOR_BR - 100.0), rel=1e-12)


def test_benchmark_point_matches_quadrature():
    s = framed_benchmark()
    profile = StrategyProfile.of(0.8, 0.8)
    closed = expected_pt_utility(0, profile, s)
    oracle = quadrature_expected_utility(0, profile, s, framed=True)
    assert closed == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("want_gain,want_branch", FEASIBLE_CELLS)
def test_each_feasible_branch_matches_quadrature(want_gain, want_branch):
    rng = random.Random(hash((want_gain, want_branch)) & 0xFFFF)
    for _ in range(6):
        drawn = framed_region_draw(rng, want_gain, want_branch)
        assert drawn is not None, f"no draw for {want_gain}/{want_branch}"
        s, profile = drawn
        closed = expected_pt_utility(0, profile, s)
        oracle = quadrature_expected_utility(0, profile, s, framed=True)
        assert closed == pytest.approx(oracle, rel=1e-6, abs=1e-8)


@given(st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=150, deadline=None)
def test_uncontested_sign_pins_the_branch(seed):
    # The uncontested utility is the global maximum over opponent types,
    # and the contested segment starts at it.  A framed loss there makes
    # every type a loss; a framed gain leaves AllLoss unreachable.
    rng = random.Random(seed)
    profile = None
    while profile is None:
        s = random_scenario(rng, framed=True)
        profile = contested_profile(rng, s)
    terms = contested_terms(profile, s)
    r = s.prospect[0].r
    assume(terms.u1 != r)
    if terms.u1 > r:
        assert terms.branch in ("AllGain", "Mixed")
    else:
        assert terms.branch == "AllLoss"
    assert terms.u_hi < terms.u1


def _twin_cases():
    """(scenario, profile) per feasible branch cell, plus uncontested and idle-opponent ones."""
    for want_gain, want_branch in FEASIBLE_CELLS:
        rng = random.Random(f"twins-{want_branch}")
        for _ in range(20):
            yield framed_region_draw(rng, want_gain, want_branch)
    rng = random.Random("twins-uncontested")
    for _ in range(20):
        s = random_scenario(rng, framed=True)
        a1 = rng.uniform(0.0, 1.0)
        q1, q2max, *_, lc = s.duel(0)
        slack = max(0.0, min(1.0, (lc - a1 * q1) / q2max))
        yield s, StrategyProfile.of(a1, rng.uniform(0.0, slack))
        yield s, StrategyProfile.of(a1, 0.0)


def test_scalar_and_grid_evaluators_agree():
    # Not bit for bit: the reference's NumPy power may differ from libm's
    # in the last place.
    for s, (a1, a2) in _twin_cases():
        q1, q2max, rho, k, lc = s.duel(0)
        pp = s.prospect[0]
        dense = float(dense_pt_utility_grid(a1, a2, q1, q2max, rho, k, lc, pp)[0])
        scalar = framed_game(q1, q2max, rho, k, lc, pp)(a2)[0](a1)
        assert scalar == pytest.approx(dense, rel=1e-12)


def test_framed_value_continuous_at_trimming_onset():
    s = framed_benchmark()
    a2 = 1.0
    onset = (s.grid.l_c - a2 * s.microgrids[1].q_max) / s.microgrids[0].q
    eps = 1e-9
    below = expected_pt_utility(0, StrategyProfile.of(onset - eps, a2), s)
    at = expected_pt_utility(0, StrategyProfile.of(onset, a2), s)
    above = expected_pt_utility(0, StrategyProfile.of(onset + eps, a2), s)
    assert below == pytest.approx(at, abs=1e-6)
    assert above == pytest.approx(at, abs=1e-6)


# --- slope in the own fraction ------------------------------------------


def _slope(s, a1: float, a2: float) -> float:
    return framed_game(*s.duel(0), s.prospect[0])(a2)[1](a1)


def _quadrature_slope(s, a1: float, a2: float, h: float = 1e-6) -> float:
    """Central difference of the independent oracle, which shares no algebra with the slope."""
    up = quadrature_expected_utility(0, StrategyProfile.of(a1 + h, a2), s, framed=True)
    down = quadrature_expected_utility(0, StrategyProfile.of(a1 - h, a2), s, framed=True)
    return (up - down) / (2.0 * h)


@pytest.mark.parametrize(("want_gain", "want_branch"), FEASIBLE_CELLS)
def test_slope_matches_quadrature_in_each_branch(want_gain, want_branch):
    rng = random.Random(f"slope-{want_branch}")
    for _ in range(4):
        draw = framed_region_draw(rng, want_gain, want_branch)
        assert draw is not None
        s, (a1, a2) = draw
        assert _slope(s, a1, a2) == pytest.approx(_quadrature_slope(s, a1, a2), rel=1e-6, abs=1e-6)


def test_slope_continuous_across_the_contested_boundary():
    s = framed_benchmark()
    a2 = 0.9
    onset = (s.grid.l_c - a2 * s.microgrids[1].q_max) / s.microgrids[0].q
    for a1 in (onset - 1e-3, onset + 1e-3):
        assert _slope(s, a1, a2) == pytest.approx(_quadrature_slope(s, a1, a2), rel=1e-6)
    eps = 1e-9
    assert _slope(s, onset - eps, a2) == pytest.approx(_slope(s, onset + eps, a2), rel=1e-6)


def test_slope_with_unit_exponents_jumps_by_loss_aversion_at_the_reference():
    # With beta = 1 the value function has a kink, not a cusp: its slope
    # steps from lam below the reference to 1 above it.
    p = ProspectParams(r=13.0, lam=2.25, beta_plus=1.0, beta_minus=1.0)
    s = benchmark_scenario(prospect=(p, p))
    a2 = 1.0
    q1, _, rho, k, _ = s.duel(0)
    crossing = (p.r - rho * q1) / (q1 * (k - rho))
    for a1 in (crossing - 1e-3, crossing + 1e-3):
        assert _slope(s, a1, a2) == pytest.approx(_quadrature_slope(s, a1, a2), rel=1e-6)
    eps = 1e-9
    below, above = _slope(s, crossing - eps, a2), _slope(s, crossing + eps, a2)
    split = (s.grid.l_c - crossing * q1) / a2
    own_share = q1 * (k - rho) * split / s.microgrids[1].q_max
    assert below - above == pytest.approx((p.lam - 1.0) * own_share, rel=1e-6)


def test_slope_is_infinite_where_utility_meets_a_curved_reference():
    # The reference sits exactly at the untrimmed utility of a1 = 0.5.
    q1, _, rho, k, _ = framed_benchmark().duel(0)
    a1 = 0.5
    s = framed_benchmark(reference=rho * q1 * (1.0 - a1) + k * q1 * a1)
    assert _slope(s, a1, 1.0) == math.inf
    for side in (-1.0, 1.0):
        near, far = _slope(s, a1 + side * 1e-12, 1.0), _slope(s, a1 + side * 1e-6, 1.0)
        assert math.isfinite(near) and near > far > 0.0


def _curvature_cases():
    """(scenario, a1, a2) per feasible branch cell, at unit and curved exponents."""
    for want_gain, want_branch in FEASIBLE_CELLS:
        rng = random.Random(f"curvature-{want_branch}")
        for _ in range(8):
            s, (a1, a2) = framed_region_draw(rng, want_gain, want_branch)
            yield s, a1, a2
            yield s, a1, 0.0
            unit = replace(s.prospect[0], beta_plus=1.0, beta_minus=1.0)
            yield replace(s, prospect=(unit, None)), a1, a2


def test_curvature_matches_a_central_difference_of_the_slope():
    checked = 0
    for s, a1, a2 in _curvature_cases():
        _, _, curvature, cuts, _ = framed_game(*s.duel(0), s.prospect[0])(a2)
        h = 1e-6
        # Away from every cut, so the difference stays on one piece.
        if min((abs(a1 - b) for b in cuts), default=1.0) < 1e-3:
            continue
        up, down = _slope(s, a1 + h, a2), _slope(s, a1 - h, a2)
        assert curvature(a1) == pytest.approx((up - down) / (2.0 * h), rel=1e-5, abs=1e-6 * max(1.0, abs(up)))
        checked += 1
    assert checked >= 40
