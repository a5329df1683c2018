"""Framed (prospect-theoretic) valuation of the storage game.

A framed player measures realized utility against a reference point:
gains are compressed by a power ``beta_plus``, losses by ``beta_minus``
and additionally scaled by the loss-aversion multiplier ``lam``.  The
expected framed utility against a uniform opponent type still splits
into an uncontested part (a point mass in utility space) and a contested
integral, which takes the antiderivative of each value segment, gain and
loss, between the untrimmed utility and the trimmed one at the largest
opponent surplus.  ``framed_game`` computes a player's constants once and
returns, per opponent fraction, four values at once: it, its slope and
its curvature in the own fraction, and the cuts where those break,
which name the turning piece.
Everything runs on plain floats.

For a fixed opponent fraction ``a2``, the cuts split the own fractions
[0, 1] into pieces on each of which the slope is quasi-convex: it falls,
rises, or falls and then rises.  With ``c = q1*(k - rho) > 0`` and
``e = q1*(k/2 - rho)`` the rates of ``u1`` and ``u_hi`` in ``a1``, the
curvature is ``c**2 v''(u1)`` uncontested, and contested::

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
covered by sampling in the property tests of ``tests/test_solver.py``.
On every other piece the slope only falls or only rises, so this one,
the turning piece, is the only one where it can fall and then rise.
"""

from __future__ import annotations

import math

from .model import ProspectParams, Scenario, StrategyProfile


def pt_value(u: float, p: ProspectParams) -> float:
    """Framed value of a realized utility: 0 at the reference point."""
    d = u - p.r
    if d > 0.0:
        return d**p.beta_plus
    if d < 0.0:
        return -p.lam * (-d) ** p.beta_minus
    return 0.0


class Cuts(list):
    """The own fractions in (0, 1), ascending, that split [0, 1] into pieces.

    ``turning`` is the index, in ``[0, *cuts, 1]``, of the one piece where
    the slope can fall and then rise, or None.
    """

    __slots__ = ("turning",)


def framed_game(q1, q2max, rho, k, lc, pp: ProspectParams):
    """The framed game's constants, once per player: ``evaluators(a2)`` per opponent fraction.

    ``evaluators(a2)`` returns the expected framed utility, its slope and
    its curvature in the own fraction ``a1`` (three closures against a
    fixed ``a2`` that compute every term free of ``a1`` once), and the
    ``Cuts`` that split the slope into quasi-convex pieces.  They are the
    contested boundary (the curvature jumps) and where ``u1`` meets the
    reference (the slope jumps or is infinite); a crossing at rate 0 has
    none.  The turning piece runs from the contested boundary (or 0) to
    the reference crossing (or 1): contested with ``u1`` below the
    reference, the one kind where the module docstring lets the slope
    fall and then rise.  Past the split the trimmed utility falls
    linearly from ``u1`` to ``u_hi``, so each value segment, gain and
    loss, integrates to its antiderivative between the two, and in the
    slope the terms at the split cancel.  Where ``u1`` meets a curved
    reference the slope is +inf and the curvature infinite; the curvature
    also jumps at the contested boundary, so read it inside a piece.  The
    constants dividing by ``k*a2*q2max`` wait for the first contested
    read, which alone raises at 0.
    """
    r, lam, bp, bm = pp.r, pp.lam, pp.beta_plus, pp.beta_minus
    rq, kq, hk, c = rho * q1, k * q1, 0.5 * k, q1 * (k - rho)
    e, bp1, bm1 = q1 * (hk - rho), bp + 1.0, bm + 1.0
    cc, rqc, ee, lbm, bp_1, bm_1 = c * c, rq * c, e * e, lam * bm, bp - 1.0, bm - 1.0
    bpc, lbmc, bp_2, bm_2 = bp * bp_1, lbm * (1.0 - bm), bp - 2.0, bm - 2.0
    at_ref = math.inf if min(bp, bm) < 1.0 else max(1.0, lam)  # the steeper side's
    crossing = (r - rq) / c if c != 0.0 else -math.inf  # where u1 meets r
    ref_cuts = {crossing} if 0.0 < crossing < 1.0 else set()

    def value_slope(d):  # of pt_value at u = r + d
        if d > 0.0:
            return bp * d**bp_1
        return lbm * (-d) ** bm_1 if d < 0.0 else at_ref

    def evaluators(a2):
        a2q, idle, ka2 = a2 * q2max, a2 <= 0.0, k * a2
        m_g = m_l = drift = None
        x = (lc - a2q) / q1 if q1 != 0.0 else 0.0
        cuts = Cuts(sorted(ref_cuts | {x} if 0.0 < x < 1.0 else ref_cuts))
        cuts.turning = int(x > 0.0) if not idle and max(x, 0.0) < min(crossing, 1.0) else None

        # Each closure writes the contested geometry out (the split is
        # (lc - stored)/a2), and the slope its two values (d is u - r): a
        # shared helper's call costs a tenth of a response.
        def utility(a1):
            nonlocal m_g, m_l
            keep, stored = rq * (1.0 - a1), a1 * q1
            u1 = keep + kq * a1
            v1 = pt_value(u1, pp)
            if idle or stored + a2q <= lc:
                return v1
            u_hi = keep + hk * (stored + lc - a2q)
            if m_g is None:
                m_g, m_l = -2.0 / (bp1 * k * a2 * q2max), -2.0 * lam / (bm1 * k * a2 * q2max)
            gain = m_g * (max(u_hi - r, 0.0) ** bp1 - max(u1 - r, 0.0) ** bp1)
            loss = m_l * (max(r - u_hi, 0.0) ** bm1 - max(r - u1, 0.0) ** bm1)
            return ((lc - stored) / a2 / q2max) * v1 + (gain + loss)

        def slope(a1):
            nonlocal drift
            keep, stored = rq * (1.0 - a1), a1 * q1
            d = keep + kq * a1 - r
            own = c * value_slope(d)
            if idle or stored + a2q <= lc:
                return own
            if drift is None:
                drift = e * 2.0 / (ka2 * q2max)
            d_hi = keep + hk * (stored + lc - a2q) - r
            v1 = d**bp if d > 0.0 else -lam * (-d) ** bm if d < 0.0 else 0.0
            v_hi = d_hi**bp if d_hi > 0.0 else -lam * (-d_hi) ** bm if d_hi < 0.0 else 0.0
            return ((lc - stored) / a2 / q2max) * own + drift * (v1 - v_hi)

        def curvature(a1):
            keep, stored = rq * (1.0 - a1), a1 * q1
            d = keep + kq * a1 - r
            own = cc * (bpc * d**bp_2 if d > 0.0 else lbmc * (-d) ** bm_2 if d < 0.0 else 0.0)
            if idle or stored + a2q <= lc:
                return own
            d_hi = keep + hk * (stored + lc - a2q) - r
            pull = rqc * value_slope(d) + ee * value_slope(d_hi)
            return (((lc - stored) / a2) * own - 2.0 * pull / ka2) / q2max

        return utility, slope, curvature, cuts

    return evaluators


def expected_pt_utility(player: int, profile: StrategyProfile, s: Scenario) -> float:
    """Closed-form expected framed utility of ``player`` at ``profile``."""
    pp = s.prospect_of(player)
    return framed_game(*s.duel(player), pp)(profile[1 - player])[0](profile[player])
