"""Construction invariants, allocation rule, and ex-post utilities."""

import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridstore.errors import InvalidScenario, MissingProspectParams, NotTwoPlayer
from gridstore.model import (
    GridParams,
    MicrogridConfig,
    ProspectParams,
    Scenario,
    StrategyProfile,
    load_scenario,
    purchased_energy,
    realized_utility,
    scenario_from_dict,
    validate_scenario,
    violations,
)

from helpers import benchmark_scenario, framed_benchmark


def test_benchmark_scenario_is_valid():
    assert violations(benchmark_scenario()) == []
    assert validate_scenario(framed_benchmark()) is not None


def test_incentive_condition_rejected_at_equality_and_below():
    grid = GridParams(rho=0.1, rho_c=9.0, theta=0.01, l_c=200.0)
    s = Scenario(grid=grid, microgrids=benchmark_scenario().microgrids)
    codes = {c.code for c in violations(s)}
    assert "IncentiveViolation" in codes
    with pytest.raises(InvalidScenario, match="IncentiveViolation"):
        validate_scenario(s)
    # theta*rho_c == rho is still rejected: the restriction is strict.
    grid_eq = GridParams(rho=0.1, rho_c=10.0, theta=0.01, l_c=200.0)
    s_eq = Scenario(grid=grid_eq, microgrids=benchmark_scenario().microgrids)
    assert "IncentiveViolation" in {c.code for c in violations(s_eq)}


def test_capacity_must_stay_below_critical_load():
    s = Scenario(
        grid=GridParams(rho=0.1, rho_c=11.6, theta=0.01, l_c=140.0),
        microgrids=(
            MicrogridConfig(q=120.0, q_max=150.0),
            MicrogridConfig(q=120.0, q_max=150.0),
        ),
    )
    assert "CapacityExceedsCriticalLoad" in {c.code for c in violations(s)}


def test_prospect_parameter_bounds():
    bad = ProspectParams(r=10.0, lam=0.5, beta_plus=1.2, beta_minus=0.0)
    s = benchmark_scenario(prospect=(bad, None))
    codes = [c.code for c in violations(s)]
    assert codes.count("BadProspectParams") == 3


def test_purchased_energy_splits_excess_equally():
    grid = GridParams(rho=0.1, rho_c=11.6, theta=0.01, l_c=200.0)
    # stored (180, 100): 80 kWh over the load, 40 subtracted from each
    bought = purchased_energy((1.0, 1.0), (180.0, 100.0), grid)
    assert tuple(bought) == (140.0, 60.0)


def test_a_profile_is_a_tuple_of_floats():
    profile = StrategyProfile.of(1, 0.5)
    assert isinstance(profile, tuple)
    assert profile == (1.0, 0.5)
    assert [type(a) for a in profile] == [float, float]


def test_realized_utility_store_all_uncontested():
    s = benchmark_scenario()
    u = realized_utility(0, StrategyProfile.of(1.0, 0.0), (120.0, 120.0), s.grid)
    assert u == pytest.approx(0.116 * 120.0, rel=1e-12)


def test_realized_utility_zero_storage_is_market_revenue():
    s = benchmark_scenario()
    for a2 in (0.0, 0.3, 1.0):
        u = realized_utility(0, StrategyProfile.of(0.0, a2), (120.0, 120.0), s.grid)
        assert u == pytest.approx(0.1 * 120.0, rel=1e-12)


def test_realized_utility_trimmed_store_all():
    s = benchmark_scenario()
    # both store everything: 240 stored, 40 over, each sells 100
    u = realized_utility(0, StrategyProfile.of(1.0, 1.0), (120.0, 120.0), s.grid)
    assert u == pytest.approx(0.116 * 100.0, rel=1e-12)


grids = st.builds(
    GridParams,
    rho=st.floats(0.05, 1.0),
    rho_c=st.floats(5.0, 50.0),
    theta=st.floats(0.05, 1.0),
    l_c=st.floats(50.0, 500.0),
)


@st.composite
def allocation_cases(draw):
    grid = draw(grids)
    n = draw(st.integers(2, 5))
    q = [draw(st.floats(1.0, 200.0)) for _ in range(n)]
    alpha = [draw(st.floats(0.0, 1.0)) for _ in range(n)]
    return grid, tuple(q), tuple(alpha)


@given(allocation_cases())
@settings(max_examples=300, deadline=None)
def test_allocation_bounded_by_stored_energy(case):
    grid, q, alpha = case
    bought = purchased_energy(alpha, q, grid)
    assert purchased_energy(StrategyProfile.of(*alpha), q, grid) == bought
    for n in range(len(q)):
        assert -1e-12 <= bought[n] <= alpha[n] * q[n] + 1e-12


@given(allocation_cases())
@settings(max_examples=300, deadline=None)
def test_allocation_exhausts_load_when_unclamped(case):
    grid, q, alpha = case
    stored = [a * qn for a, qn in zip(alpha, q)]
    total = sum(stored)
    if total <= grid.l_c:
        return
    cut = (total - grid.l_c) / len(q)
    if any(s < cut for s in stored):
        return  # a clamp binds; the equal-cut identity no longer applies
    bought = purchased_energy(alpha, q, grid)
    assert purchased_energy(StrategyProfile.of(*alpha), q, grid) == bought
    assert sum(bought) == pytest.approx(grid.l_c, rel=1e-9, abs=1e-9)


@given(allocation_cases(), st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_realized_utility_continuous_at_load_boundary(case, a1):
    """The two allocation branches agree where total stored hits the load."""
    grid, q, alpha = case
    if a1 * q[0] > grid.l_c:
        return
    # pick opponents scaled so the total lands exactly on l_c
    rest = sum(a * qn for a, qn in zip(alpha[1:], q[1:]))
    if rest <= 0:
        return
    scale = (grid.l_c - a1 * q[0]) / rest
    if not 0.0 <= scale <= 1.0:
        return
    at = (a1,) + tuple(a * scale for a in alpha[1:])
    u = realized_utility(0, at, q, grid)
    assert realized_utility(0, StrategyProfile.of(*at), q, grid) == u
    untrimmed = grid.rho * q[0] * (1 - a1) + grid.theta * grid.rho_c * a1 * q[0]
    assert u == pytest.approx(untrimmed, rel=1e-9)


@given(allocation_cases())
@settings(max_examples=200, deadline=None)
def test_zero_storage_utility_is_price_times_surplus(case):
    grid, q, alpha = case
    profile = (0.0,) + alpha[1:]
    u = realized_utility(0, profile, q, grid)
    assert realized_utility(0, StrategyProfile.of(*profile), q, grid) == u
    assert u == pytest.approx(grid.rho * q[0], rel=1e-12)


def test_scenario_round_trip_from_json(tmp_path):
    data = {
        "grid": {"rho": 0.1, "rho_c": 11.6, "theta": 0.01, "l_c": 200},
        "microgrids": [
            {"q": 120, "q_max": 150},
            {"q": 120, "q_max": 150},
        ],
        "prospect": [
            {"r": 11.5, "lambda": 2.25, "beta_plus": 0.88, "beta_minus": 0.88},
            None,
        ],
    }
    s = scenario_from_dict(data)
    assert len(s.microgrids) == 2
    assert s.prospect[0].lam == 2.25
    assert s.prospect[1] is None

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    loaded = load_scenario(path)
    assert loaded == s


def test_prospect_count_other_than_two_is_refused():
    # A lone entry would reach iterate_best_response and fail there with
    # IndexError; a third would be ignored.
    s = framed_benchmark()
    pp = s.prospect[0]
    with pytest.raises(NotTwoPlayer, match="need 2 prospect entries, scenario has 1"):
        Scenario(s.grid, s.microgrids, (pp,))
    with pytest.raises(NotTwoPlayer, match="need 2 prospect entries, scenario has 3"):
        replace(s, prospect=(pp, pp, None))
    for empty in (None, (), []):
        assert Scenario(s.grid, s.microgrids, empty).prospect == (None, None)


def test_prospect_of_names_the_unframed_player():
    s = framed_benchmark()
    one_framed = replace(s, prospect=(s.prospect[0], None))
    assert one_framed.prospect_of(0) is s.prospect[0]
    with pytest.raises(MissingProspectParams) as exc_info:
        one_framed.prospect_of(1)
    assert exc_info.value.player == 1


def test_missing_prospect_key_defaults_to_unframed():
    data = {
        "grid": {"rho": 0.1, "rho_c": 11.6, "theta": 0.01, "l_c": 200},
        "microgrids": [{"q": 120, "q_max": 150}, {"q": 120, "q_max": 150}],
    }
    s = scenario_from_dict(data)
    assert s.prospect == (None, None)


def test_over_allocation_quirk_is_literal():
    """When one stake is tiny the clamp can push total purchases past the load.

    The allocation rule is applied exactly as specified, so this case is
    locked in as documented behavior rather than "fixed" silently.
    """
    grid = GridParams(rho=0.1, rho_c=11.6, theta=0.01, l_c=100.0)
    bought = purchased_energy((1.0, 1.0), (150.0, 1.0), grid)
    # cut = 25.5 each; player 2 clamps to 0, player 1 sells 124.5
    assert tuple(bought) == pytest.approx((124.5, 0.0))
    assert sum(bought) > grid.l_c
