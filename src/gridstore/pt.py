"""Framed (prospect-theoretic) valuation of the storage game.

A framed player measures realized utility against a reference point:
gains are compressed by a power ``beta_plus``, losses by ``beta_minus``
and additionally scaled by the loss-aversion multiplier ``lam``.  The
expected framed utility against a uniform opponent type still splits
into an uncontested part (a point mass in utility space) and a contested
integral, which takes the antiderivative of each value segment, gain and
loss, between the untrimmed utility and the trimmed one at the largest
opponent surplus.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MissingProspectParams
from .model import ProspectParams, Scenario, StrategyProfile

__all__ = [
    "ProspectParams",
    "pt_value",
    "expected_pt_utility",
]


def pt_value(u: float, p: ProspectParams) -> float:
    """Framed value of a realized utility: 0 at the reference point."""
    d = u - p.r
    if d > 0.0:
        return d**p.beta_plus
    if d < 0.0:
        return -p.lam * (-d) ** p.beta_minus
    return 0.0


def _pt_value_vec(u: np.ndarray, p: ProspectParams) -> np.ndarray:
    d = u - p.r
    out = np.zeros_like(d)
    gain = d > 0.0
    loss = d < 0.0
    out[gain] = d[gain] ** p.beta_plus
    out[loss] = -p.lam * (-d[loss]) ** p.beta_minus
    return out


def _require_framed(player: int, s: Scenario) -> ProspectParams:
    p = s.prospect[player]
    if p is None:
        raise MissingProspectParams(player)
    return p


def _contested(a1, a2, q1, q2max, rho, k, lc, pp: ProspectParams):
    """Geometry of the contested region, for a float or an array of own fractions.

    Returns ``(split, u_hi, m_g, m_l)``: the opponent surplus where
    trimming starts, the trimmed utility at the largest opponent surplus,
    and the gain/loss antiderivative coefficients carrying the uniform
    belief density.  The trimmed utility is linear and decreasing in the
    opponent surplus, which gives all of them in closed form.
    """
    split = (lc - a1 * q1) / a2
    u_hi = rho * q1 * (1.0 - a1) + 0.5 * k * (a1 * q1 + lc - a2 * q2max)
    m_g = -2.0 / ((pp.beta_plus + 1.0) * k * a2 * q2max)
    m_l = -2.0 * pp.lam / ((pp.beta_minus + 1.0) * k * a2 * q2max)
    return split, u_hi, m_g, m_l


def _contested_expectation(a1, a2, u1, v1, q1, q2max, rho, k, lc, pp: ProspectParams, clamp):
    """Expected framed utility of contested own fractions ``a1``.

    ``u1`` is the untrimmed utility and ``v1`` its framed value, which
    holds for the opponent types below the split.  Past the split the
    trimmed utility falls linearly from ``u1`` to ``u_hi``, so each
    segment of the value function integrates to its antiderivative taken
    between those two utilities.  A segment the utility never enters has
    both bases exactly 0, so no branch on the reference crossing is
    needed.  ``clamp`` is ``max`` for floats and ``np.maximum`` for arrays.
    """
    split, u_hi, m_g, m_l = _contested(a1, a2, q1, q2max, rho, k, lc, pp)
    r, bp1, bm1 = pp.r, pp.beta_plus + 1.0, pp.beta_minus + 1.0
    gain = m_g * (clamp(u_hi - r, 0.0) ** bp1 - clamp(u1 - r, 0.0) ** bp1)
    loss = m_l * (clamp(r - u_hi, 0.0) ** bm1 - clamp(r - u1, 0.0) ** bm1)
    return (split / q2max) * v1 + (gain + loss)


def expected_pt_utility_grid(
    own_alpha: np.ndarray | float,
    opp_alpha: float,
    q1: float,
    q2max: float,
    rho: float,
    k: float,
    lc: float,
    pp: ProspectParams,
) -> np.ndarray:
    """Expected framed utility over a vector of own storage fractions."""
    a1 = np.atleast_1d(np.asarray(own_alpha, dtype=float))
    u_lin = rho * q1 * (1.0 - a1) + k * q1 * a1
    out = _pt_value_vec(u_lin, pp)
    if opp_alpha > 0.0:
        contested = a1 * q1 + opp_alpha * q2max > lc
        if np.any(contested):
            out[contested] = _contested_expectation(
                a1[contested], opp_alpha, u_lin[contested], out[contested],
                q1, q2max, rho, k, lc, pp, np.maximum,
            )
    return out


def expected_pt_utility_scalar(
    a1: float,
    a2: float,
    q1: float,
    q2max: float,
    rho: float,
    k: float,
    lc: float,
    pp: ProspectParams,
) -> float:
    """Plain-float twin of the grid evaluator, for tight refinement loops."""
    u1 = rho * q1 * (1.0 - a1) + k * q1 * a1
    v1 = pt_value(u1, pp)
    if a2 <= 0.0 or a1 * q1 + a2 * q2max <= lc:
        return v1
    return _contested_expectation(a1, a2, u1, v1, q1, q2max, rho, k, lc, pp, max)


def _pt_value_slope(u: float, p: ProspectParams) -> float:
    """Derivative of ``pt_value``; at the reference the steeper side's (+inf if curved)."""
    d = u - p.r
    if d > 0.0:
        return p.beta_plus * d ** (p.beta_plus - 1.0)
    if d < 0.0:
        return p.lam * p.beta_minus * (-d) ** (p.beta_minus - 1.0)
    return math.inf if min(p.beta_plus, p.beta_minus) < 1.0 else max(1.0, p.lam)


def expected_pt_utility_slope(a1, a2, q1, q2max, rho, k, lc, pp: ProspectParams) -> float:
    """Derivative of ``expected_pt_utility_scalar`` in the own fraction ``a1``.

    The terms at the split cancel (the trimmed utility starts at the
    untrimmed one), and past it the trimmed utility moves by
    ``q1 * (k/2 - rho)`` per unit of ``a1``, so that segment integrates
    the value's slope in closed form.  Continuous across the contested
    boundary; +inf where the untrimmed utility meets the reference (beta < 1).
    """
    u1 = rho * q1 * (1.0 - a1) + k * q1 * a1
    own = q1 * (k - rho) * _pt_value_slope(u1, pp)
    if a2 <= 0.0 or a1 * q1 + a2 * q2max <= lc:
        return own
    split, u_hi, _, _ = _contested(a1, a2, q1, q2max, rho, k, lc, pp)
    drift = q1 * (0.5 * k - rho) * 2.0 / (k * a2 * q2max)
    return (split / q2max) * own + drift * (pt_value(u1, pp) - pt_value(u_hi, pp))


def expected_pt_utility(player: int, profile: StrategyProfile, s: Scenario) -> float:
    """Closed-form expected framed utility of ``player``.

    Uncontested profiles collapse to the framed value of a deterministic
    utility; contested ones add the trimmed-region integral, split into
    gain and loss segments at the reference crossing.
    """
    pp = _require_framed(player, s)
    a1, a2 = profile[player], profile[1 - player]
    return float(expected_pt_utility_grid(a1, a2, *s.duel(player), pp)[0])
