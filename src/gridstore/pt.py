"""Framed (prospect-theoretic) valuation of the storage game.

A framed player measures realized utility against a reference point:
gains are compressed by a power ``beta_plus``, losses by ``beta_minus``
and additionally scaled by the loss-aversion multiplier ``lam``.  The
expected framed utility against a uniform opponent type still splits
into an uncontested part (a point mass in utility space) and a contested
integral, which takes the antiderivative of each value segment, gain and
loss, between the untrimmed utility and the trimmed one at the largest
opponent surplus.  Everything runs on plain floats.

For a fixed opponent fraction ``a2``, ``utility_breakpoints`` cut the own
fractions [0, 1] into pieces on each of which the slope is quasi-convex:
it falls, rises, or falls and then rises.  With ``c = q1*(k - rho) > 0``
and ``e = q1*(k/2 - rho)`` the rates of ``u1`` and ``u_hi`` in ``a1``, the
curvature (``expected_pt_utility_curvature``) is ``c**2 v''(u1)``
uncontested, and contested::

    (split * c**2 v''(u1) - 2/(k*a2) * (rho*q1*c v'(u1) + e**2 v'(u_hi))) / q2max

where ``v' > 0`` and ``v''`` has the sign of ``r - u1`` (``beta <= 1``).
Uncontested, the slope falls on gains and rises on losses.  Contested
with ``u1 > r`` every term is at most 0 and one is negative, so the slope
falls, across ``u_hi = r`` too.  Contested with ``u1 < r``, times
``q2max/(lam*beta*X**(beta - 1))`` (``X = r - u1``) the curvature is
``(1 - beta)*c**2 * split/X`` minus a constant minus a positive multiple
of ``(1 + (k*a2/2) * (q2max - split)/X)**(beta - 1)``.  That power falls
as ``a1`` grows, and ``split/X`` (a ratio of affine functions) rises
whenever ``r <= u1(lc/q1)``, so the curvature changes sign at most once,
from - to + (at ``beta = 1`` it keeps one sign).  A higher reference is
covered by sampling in the property test of ``tests/test_solver.py``.
"""

from __future__ import annotations

import math

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


def _require_framed(player: int, s: Scenario) -> ProspectParams:
    p = s.prospect[player]
    if p is None:
        raise MissingProspectParams(player)
    return p


def _contested(keep, stored, a2, q2max, k, lc, pp: ProspectParams):
    """Contested geometry from the own sale value ``keep`` and stored energy.

    ``(split, u_hi, m_g, m_l)``: the opponent surplus where trimming
    starts, the trimmed utility at the largest opponent surplus, and the
    gain/loss antiderivative coefficients carrying the uniform belief
    density.  The trimmed utility is linear in the opponent surplus.
    """
    split = (lc - stored) / a2
    u_hi = keep + 0.5 * k * (stored + lc - a2 * q2max)
    m_g = -2.0 / ((pp.beta_plus + 1.0) * k * a2 * q2max)
    m_l = -2.0 * pp.lam / ((pp.beta_minus + 1.0) * k * a2 * q2max)
    return split, u_hi, m_g, m_l


def expected_pt_utility_scalar(a1, a2, q1, q2max, rho, k, lc, pp: ProspectParams) -> float:
    """Expected framed utility of the own fraction ``a1`` against the opponent's ``a2``.

    The untrimmed utility's framed value ``v1`` holds for the opponent
    types below the split.  Past it the trimmed utility falls linearly
    from the untrimmed ``u1`` to ``u_hi``, so each value segment, gain and
    loss, integrates to its antiderivative between the two.  A segment
    the utility never enters has both bases exactly 0.
    """
    keep, stored = rho * q1 * (1.0 - a1), a1 * q1
    u1 = keep + k * q1 * a1
    v1 = pt_value(u1, pp)
    if a2 <= 0.0 or stored + a2 * q2max <= lc:
        return v1
    split, u_hi, m_g, m_l = _contested(keep, stored, a2, q2max, k, lc, pp)
    r, bp1, bm1 = pp.r, pp.beta_plus + 1.0, pp.beta_minus + 1.0
    gain = m_g * (max(u_hi - r, 0.0) ** bp1 - max(u1 - r, 0.0) ** bp1)
    loss = m_l * (max(r - u_hi, 0.0) ** bm1 - max(r - u1, 0.0) ** bm1)
    return (split / q2max) * v1 + (gain + loss)


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


def _pt_value_curvature(u: float, p: ProspectParams) -> float:
    """Second derivative of ``pt_value`` off the reference; 0 at it."""
    d = u - p.r
    if d > 0.0:
        return p.beta_plus * (p.beta_plus - 1.0) * d ** (p.beta_plus - 2.0)
    if d < 0.0:
        return p.lam * p.beta_minus * (1.0 - p.beta_minus) * (-d) ** (p.beta_minus - 2.0)
    return 0.0


def expected_pt_utility_curvature(a1, a2, q1, q2max, rho, k, lc, pp: ProspectParams) -> float:
    """Derivative of ``expected_pt_utility_slope`` in ``a1`` (module docstring).

    It jumps at the contested boundary, and is -inf (right) and +inf
    (left) where ``u1`` meets a curved reference: read it inside a piece.
    """
    c = q1 * (k - rho)
    u1 = rho * q1 * (1.0 - a1) + k * q1 * a1
    own = c * c * _pt_value_curvature(u1, pp)
    if a2 <= 0.0 or a1 * q1 + a2 * q2max <= lc:
        return own
    split, u_hi, _, _ = _contested(rho * q1 * (1.0 - a1), a1 * q1, a2, q2max, k, lc, pp)
    e = q1 * (0.5 * k - rho)
    pull = rho * q1 * c * _pt_value_slope(u1, pp) + e * e * _pt_value_slope(u_hi, pp)
    return (split * own - 2.0 * pull / (k * a2)) / q2max


def utility_breakpoints(a2, q1, q2max, rho, k, lc, pp: ProspectParams) -> list[float]:
    """Own fractions in (0, 1) that cut the slope into quasi-convex pieces, ascending.

    The contested boundary (the curvature jumps) and where ``u1`` meets the
    reference (the slope jumps or is infinite); a crossing at rate 0 has none.
    """
    crossings = ((lc - a2 * q2max, q1), (pp.r - rho * q1, q1 * (k - rho)))
    return sorted({x / rate for x, rate in crossings if rate != 0.0 and 0.0 < x / rate < 1.0})


def expected_pt_utility(player: int, profile: StrategyProfile, s: Scenario) -> float:
    """Closed-form expected framed utility of ``player`` at ``profile``."""
    pp = _require_framed(player, s)
    return expected_pt_utility_scalar(profile[player], profile[1 - player], *s.duel(player), pp)
