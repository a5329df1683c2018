"""Framed (prospect-theoretic) valuation of the storage game.

A framed player measures realized utility against a reference point:
gains are compressed by a power ``beta_plus``, losses by ``beta_minus``
and additionally scaled by the loss-aversion multiplier ``lam``.  The
expected framed utility against a uniform opponent type still splits
into an uncontested part (a point mass in utility space) and a contested
integral whose gain/loss decomposition depends on where the opponent
surplus pushes the realized utility through the reference point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import DegenerateOpponentStrategy, MissingProspectParams
from .model import ProspectParams, Scenario, StrategyProfile

__all__ = [
    "ProspectParams",
    "PtBranchTerms",
    "pt_value",
    "pt_branch_terms",
    "expected_pt_utility",
]

Branch = Literal["AllLoss", "Mixed", "AllGain"]


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


@dataclass(frozen=True)
class PtBranchTerms:
    """Geometry of the contested framed integral at one profile.

    ``a`` is the opponent surplus beyond which trimming starts, ``q2r``
    the (unclamped) surplus at which the trimmed utility crosses the
    reference point, and ``b`` the own fraction at which the untrimmed
    utility crosses it.  ``m_g``/``m_l`` are the antiderivative
    coefficients of the gain and loss segments, already carrying the
    uniform belief density.  ``u_i1`` is the untrimmed utility, and
    ``u_a2`` and ``u_max2`` the trimmed utility at the split point and
    at the largest opponent surplus.
    """

    a: float
    b: float
    q2r: float
    m_g: float
    m_l: float
    u_i1: float
    u_max2: float
    u_a2: float
    branch: Branch


def _require_framed(player: int, s: Scenario) -> ProspectParams:
    p = s.prospect[player]
    if p is None:
        raise MissingProspectParams(player)
    return p


def _contested(a1, a2, q1, q2max, rho, k, lc, pp: ProspectParams):
    """Geometry of the contested region, for a float or an array of own fractions.

    Returns ``(split, u_hi, q2r, m_g, m_l, all_gain, all_loss)``: the
    opponent surplus where trimming starts, the trimmed utility at the
    largest opponent surplus, the (unclamped) surplus where the trimmed
    utility crosses the reference, the gain/loss antiderivative
    coefficients carrying the uniform belief density, and whether the
    crossing lies past the largest surplus (all gain) or before the split
    (all loss).  The trimmed utility is linear and decreasing in the
    opponent surplus, which gives all of them in closed form.
    """
    split = (lc - a1 * q1) / a2
    u_hi = rho * q1 * (1.0 - a1) + 0.5 * k * (a1 * q1 + lc - a2 * q2max)
    q2r = (2.0 / (k * a2)) * (rho * q1 * (1.0 - a1) + 0.5 * k * (a1 * q1 + lc) - pp.r)
    m_g = -2.0 / ((pp.beta_plus + 1.0) * k * a2 * q2max)
    m_l = -2.0 * pp.lam / ((pp.beta_minus + 1.0) * k * a2 * q2max)
    return split, u_hi, q2r, m_g, m_l, q2r > q2max, q2r < split


def pt_branch_terms(player: int, profile: StrategyProfile, s: Scenario) -> PtBranchTerms:
    """Classify the contested integral and expose its building blocks."""
    pp = _require_framed(player, s)
    a1, a2 = profile[player], profile[1 - player]
    if a2 == 0.0:
        raise DegenerateOpponentStrategy(
            "opponent stores nothing, contested split point is undefined"
        )
    q1, q2max, rho, k, lc = s.duel(player)
    u_i1 = rho * q1 * (1.0 - a1) + k * q1 * a1
    a, u_max2, q2r, m_g, m_l, all_gain, all_loss = _contested(
        a1, a2, q1, q2max, rho, k, lc, pp
    )
    if q1 > 0.0:
        b = (pp.r - rho * q1) / (q1 * (k - rho))
    else:
        # Zero surplus pins the untrimmed utility at 0, so the crossing
        # degenerates to whichever side the reference sits on.
        b = np.inf if pp.r >= 0.0 else -np.inf
    if all_gain:
        branch: Branch = "AllGain"
    elif all_loss:
        branch = "AllLoss"
    else:
        branch = "Mixed"
    return PtBranchTerms(
        a=a,
        b=b,
        q2r=q2r,
        m_g=m_g,
        m_l=m_l,
        u_i1=u_i1,
        u_max2=u_max2,
        u_a2=u_i1,
        branch=branch,
    )


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
            ac = a1[contested]
            u1 = u_lin[contested]
            split, u_hi, _, m_g, m_l, all_gain, all_loss = _contested(
                ac, opp_alpha, q1, q2max, rho, k, lc, pp
            )
            i1 = (split / q2max) * _pt_value_vec(u1, pp)
            bp1 = pp.beta_plus + 1.0
            bm1 = pp.beta_minus + 1.0
            # Clamp bracket bases at zero: each branch keeps them
            # nonnegative exactly, the clamp only absorbs float dust.
            gain_hi = np.maximum(u_hi - pp.r, 0.0)
            gain_lo = np.maximum(u1 - pp.r, 0.0)
            loss_hi = np.maximum(pp.r - u_hi, 0.0)
            loss_lo = np.maximum(pp.r - u1, 0.0)

            i2 = np.empty_like(ac)
            mixed = ~(all_gain | all_loss)
            i2[all_gain] = m_g * (gain_hi[all_gain] ** bp1 - gain_lo[all_gain] ** bp1)
            i2[all_loss] = m_l * (loss_hi[all_loss] ** bm1 - loss_lo[all_loss] ** bm1)
            # At the crossing the framed value is exactly zero, so the
            # mixed branch keeps only the outer endpoint of each segment.
            i2[mixed] = -m_g * gain_lo[mixed] ** bp1 + m_l * loss_hi[mixed] ** bm1
            out[contested] = i1 + i2
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
    if a2 <= 0.0 or a1 * q1 + a2 * q2max <= lc:
        return pt_value(u1, pp)
    split, u_hi, _, m_g, m_l, all_gain, all_loss = _contested(a1, a2, q1, q2max, rho, k, lc, pp)
    i1 = (split / q2max) * pt_value(u1, pp)
    bp1 = pp.beta_plus + 1.0
    bm1 = pp.beta_minus + 1.0
    gain_hi = max(u_hi - pp.r, 0.0)
    gain_lo = max(u1 - pp.r, 0.0)
    loss_hi = max(pp.r - u_hi, 0.0)
    loss_lo = max(pp.r - u1, 0.0)
    if all_gain:
        i2 = m_g * (gain_hi**bp1 - gain_lo**bp1)
    elif all_loss:
        i2 = m_l * (loss_hi**bm1 - loss_lo**bm1)
    else:
        i2 = -m_g * gain_lo**bp1 + m_l * loss_hi**bm1
    return i1 + i2


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
    split, u_hi, *_ = _contested(a1, a2, q1, q2max, rho, k, lc, pp)
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
