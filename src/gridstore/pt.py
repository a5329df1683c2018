"""Framed (prospect-theoretic) valuation of the storage game.

A framed player measures realized utility against a reference point:
gains are compressed by a power ``beta_plus``, losses by ``beta_minus``
and additionally scaled by the loss-aversion multiplier ``lam``.  The
expected framed utility against a uniform opponent type still splits
into an uncontested part (a point mass in utility space) and a contested
integral, which takes the antiderivative of each value segment, gain and
loss, between the untrimmed utility and the trimmed one at the largest
opponent surplus.  Terms of the own fraction alone are computed once, so a
grid of own fractions can be scored against many opponent fractions.
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


def _own_terms(a1, q1, rho, k, pp: ProspectParams, value, clamp):
    """Terms the opponent leaves alone, for a float or an array of own fractions ``a1``.

    ``(keep, stored, v1, g1, l1)``: the sale value ``rho*q1*(1 - a1)``, the
    stored energy ``a1*q1``, the framed value of the untrimmed utility (by
    ``value``), and the gain and loss antiderivative bases at that utility.
    """
    keep, stored = rho * q1 * (1.0 - a1), a1 * q1
    u1 = keep + k * q1 * a1
    g1 = clamp(u1 - pp.r, 0.0) ** (pp.beta_plus + 1.0)
    l1 = clamp(pp.r - u1, 0.0) ** (pp.beta_minus + 1.0)
    return keep, stored, value(u1, pp), g1, l1


def _contested(keep, stored, a2, q2max, k, lc, pp: ProspectParams):
    """Geometry of the contested region, from own terms that are floats or arrays.

    Returns ``(split, u_hi, m_g, m_l)``: the opponent surplus where
    trimming starts, the trimmed utility at the largest opponent surplus,
    and the gain/loss antiderivative coefficients carrying the uniform
    belief density.  The trimmed utility is linear and decreasing in the
    opponent surplus, which gives all of them in closed form.
    """
    split = (lc - stored) / a2
    u_hi = keep + 0.5 * k * (stored + lc - a2 * q2max)
    m_g = -2.0 / ((pp.beta_plus + 1.0) * k * a2 * q2max)
    m_l = -2.0 * pp.lam / ((pp.beta_minus + 1.0) * k * a2 * q2max)
    return split, u_hi, m_g, m_l


def _contested_expectation(own, a2, q2max, k, lc, pp: ProspectParams, clamp):
    """Expected framed utility of contested own fractions, from their ``_own_terms``.

    ``v1`` holds for the opponent types below the split.  Past it the
    trimmed utility falls linearly from the untrimmed ``u1`` to ``u_hi``, so
    each value segment integrates to its antiderivative between the two.  A
    segment the utility never enters has both bases exactly 0.  ``clamp`` is
    ``max`` for floats and ``np.maximum`` for arrays.
    """
    keep, stored, v1, g1, l1 = own
    split, u_hi, m_g, m_l = _contested(keep, stored, a2, q2max, k, lc, pp)
    r, bp1, bm1 = pp.r, pp.beta_plus + 1.0, pp.beta_minus + 1.0
    gain = m_g * (clamp(u_hi - r, 0.0) ** bp1 - g1)
    loss = m_l * (clamp(r - u_hi, 0.0) ** bm1 - l1)
    return (split / q2max) * v1 + (gain + loss)


def grid_own_terms(a1: np.ndarray, q1, rho, k, pp: ProspectParams) -> tuple[np.ndarray, ...]:
    """``_own_terms`` over an ascending array of own fractions."""
    return _own_terms(a1, q1, rho, k, pp, _pt_value_vec, np.maximum)


def expected_pt_utility_grid(own, opp_alpha: float, q2max, k, lc, pp: ProspectParams) -> np.ndarray:
    """Expected framed utility over the ascending own fractions ``own`` was built on.

    Trimming starts where ``a1*q1 + opp_alpha*q2max`` passes the critical
    load, which is monotone in ``a1``, so only that suffix is contested.
    """
    _, stored, v1, _, _ = own
    out, n = v1.copy(), len(v1)
    i = int(np.searchsorted(stored + opp_alpha * q2max, lc, side="right")) if opp_alpha > 0.0 else n
    if i < n:
        tail = tuple(term[i:] for term in own)  # views of the contested suffix
        out[i:] = _contested_expectation(tail, opp_alpha, q2max, k, lc, pp, np.maximum)
    return out


def expected_pt_utility_scalar(a1, a2, q1, q2max, rho, k, lc, pp: ProspectParams) -> float:
    """Plain-float twin of the grid evaluator, for tight refinement loops."""
    own = _own_terms(a1, q1, rho, k, pp, pt_value, max)
    _, stored, v1, _, _ = own
    if a2 <= 0.0 or stored + a2 * q2max <= lc:
        return v1
    return _contested_expectation(own, a2, q2max, k, lc, pp, max)


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
    split, u_hi, _, _ = _contested(rho * q1 * (1.0 - a1), a1 * q1, a2, q2max, k, lc, pp)
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
    q1, q2max, rho, k, lc = s.duel(player)
    own = grid_own_terms(np.array([a1], dtype=float), q1, rho, k, pp)
    return float(expected_pt_utility_grid(own, a2, q2max, k, lc, pp)[0])
