"""Numerical oracles and the best-response iteration solver.

The quadrature oracle integrates the ex-post utility (optionally framed)
over the opponent's uniform type directly, so it shares no algebra with
the closed forms it is used to check.  Only tests and the benchmark call
it, so it imports ``scipy.integrate`` (the ``test`` extra) on its first
call rather than with this module.  The framed best response takes the
roots of the closed form's analytic slope, with ``pt.framed_evaluators``
built once per response; the iteration solver alternates best responses,
with Steffensen's form of Aitken steps, to a fixed point.  All but the
oracle runs on plain floats.

The numerics are fixed: a 1e-12 fixed-point tolerance (``TOL``), a
200-round guard (``MAX_ROUNDS``), a 1e-5 match to a rational BNE
(``CLASSIFY_TOL``) and a 1e-10 relative quadrature tolerance
(``QUAD_REL_TOL``).
"""

from __future__ import annotations

import math
from typing import Callable

from . import cgt, pt
from .model import Scenario, StrategyProfile, realized_utility

__all__ = [
    "TOL",
    "MAX_ROUNDS",
    "CLASSIFY_TOL",
    "QUAD_REL_TOL",
    "quadrature_expected_utility",
    "grid_best_response",
    "iterate_best_response",
]

TOL = 1e-12
MAX_ROUNDS = 200
QUAD_REL_TOL = 1e-10
CLASSIFY_TOL = 1e-5
_ROOT_XTOL, _ROOT_STEPS = 1e-14, 100  # root finder: bracket width, step limit

# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------


def quadrature_expected_utility(
    player: int,
    profile: StrategyProfile,
    s: Scenario,
    framed: bool = False,
) -> float:
    """Expected (framed) utility by adaptive quadrature over the opponent type.

    The integrand is the ex-post utility built from the allocation rule,
    weighted by the uniform belief density; ``framed=True`` wraps it in
    the player's prospect value first.  The domain is split at the
    trimming onset and, when framed, at the reference crossing, so each
    piece is smooth except for an integrable endpoint kink.
    """
    # Deferred so that importing the package does not load scipy.
    from scipy.integrate import quad

    opp = 1 - player
    q2max = s.microgrids[opp].q_max
    density = 1.0 / q2max  # uniform on [0, q2max], the whole domain integrated
    a_own, a_opp = profile[player], profile[opp]
    q_own = s.microgrids[player].q
    grid = s.grid
    pp = s.prospect_of(player) if framed else None

    surpluses = [0.0, 0.0]
    surpluses[player] = q_own

    def utility(q2: float) -> float:
        surpluses[opp] = q2
        return realized_utility(player, profile, surpluses, grid)

    def integrand(q2: float) -> float:
        u = utility(q2)
        v = pt.pt_value(u, pp) if pp is not None else u
        return v * density

    cuts = {0.0, q2max}
    split = (grid.l_c - a_own * q_own) / a_opp if a_opp > 0.0 else q2max
    if 0.0 < split < q2max:
        cuts.add(split)
        if pp is not None:
            # Past the split the ex-post utility falls linearly in the
            # opponent surplus, so its reference crossing is one secant step.
            u_split, u_max = utility(split), utility(q2max)
            if u_max < pp.r < u_split:
                cuts.add(split + (u_split - pp.r) / (u_split - u_max) * (q2max - split))
    points = sorted(cuts)
    total = 0.0
    for lo, hi in zip(points[:-1], points[1:]):
        val, _ = quad(
            integrand,
            lo,
            hi,
            epsabs=1e-13,
            epsrel=QUAD_REL_TOL,
            limit=200,
        )
        total += val
    return total


# ---------------------------------------------------------------------------
# framed best response
# ---------------------------------------------------------------------------


def _bracketed_root(f: Callable[[float], float], lo, hi, f_lo, f_hi) -> float:
    """Root of ``f`` between ``lo`` and ``hi``, whose reads ``f_lo``, ``f_hi`` differ in sign.

    Illinois false position; a step outside the bracket bisects instead.  A
    read with ``f_lo``'s sign replaces ``lo``; any other, 0 or NaN, ``hi``.
    """
    sign, side = (1.0 if f_lo > 0.0 else -1.0), 0
    for _ in range(_ROOT_STEPS):
        if hi - lo <= _ROOT_XTOL:
            break
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if sign * fx > 0.0:
            lo, f_lo, f_hi = x, fx, f_hi * (0.5 if side > 0 else 1.0)
            side = 1
        else:
            hi, f_hi, f_lo = x, fx, f_lo * (0.5 if side < 0 else 1.0)
            side = -1
    return 0.5 * (lo + hi)


def grid_best_response(player: int, opponent_alpha: float, s: Scenario) -> float:
    """Argmax of the framed closed-form expected utility over the own fraction.

    [0, 1] is cut where slope or curvature jump or blow up (the cuts
    ``pt.framed_evaluators`` returns with them), so each piece is read
    2**-30 of its width inside its ends.  The slope falls, rises, or
    falls and then rises on a piece (the ``pt`` docstring), so every
    maximum is a root where the slope goes from + to - between two reads
    (across a cut, a kink), or left of the slope's minimum, a root of
    the curvature, when the slope dips below 0 there.  The best-scoring of
    0, 1 and those roots wins, the smaller on a tie; a score that is not
    finite raises ``FloatingPointError``.
    """
    pp, a_opp = s.prospect_of(player), float(opponent_alpha)
    utility, slope, curvature, inner = pt.framed_evaluators(a_opp, *s.duel(player), pp)
    cuts = [0.0, *inner, 1.0]
    probes = []
    for lo, hi in zip(cuts, cuts[1:]):
        inset = (hi - lo) * 2.0**-30
        probes += [lo + inset, hi - inset]
    slopes = [slope(a) for a in probes]
    candidates = [0.0, 1.0]
    # Even steps span a piece, odd ones a cut.
    for i, (lo, hi, f_lo, f_hi) in enumerate(zip(probes, probes[1:], slopes, slopes[1:])):
        if i % 2 == 0 and f_lo > 0.0 and f_hi > 0.0:
            c_lo, c_hi = curvature(lo), curvature(hi)
            if not c_lo < 0.0 < c_hi:
                continue
            hi = _bracketed_root(curvature, lo, hi, c_lo, c_hi)
            f_hi = slope(hi)
        if f_lo > 0.0 > f_hi:
            candidates.append(_bracketed_root(slope, lo, hi, f_lo, f_hi))
    candidates.sort()
    scores = [utility(a) for a in candidates]
    if not all(map(math.isfinite, scores)):
        raise FloatingPointError("framed utility is not finite")
    return candidates[scores.index(max(scores))]  # the first, so the smallest, best


# ---------------------------------------------------------------------------
# best-response iteration
# ---------------------------------------------------------------------------


def _aitken(x0: float, x1: float, x2: float) -> float | None:
    """Aitken's delta-squared limit of three successive iterates, or None unless
    their steps shrink with one sign (a ratio in (0, 1)) toward a limit in [0, 1].

    A limit outside [0, 1] is discarded, not clipped: a guess clipped to a
    bound can land on the starting point and repeat the same rounds.
    """
    d1, d2 = x1 - x0, x2 - x1
    if d1 == 0.0 or not 0.0 < d2 / d1 < 1.0:
        return None
    limit = x2 + d2 * d2 / (d1 - d2)
    return limit if 0.0 <= limit <= 1.0 else None


def iterate_best_response(
    s: Scenario,
    initial: StrategyProfile | None = None,
) -> cgt.EquilibriumResult:
    """Fixed point of alternating best responses.

    Each round player 0 responds to player 1's fraction, then player 1
    to player 0's new one.  Players carrying prospect parameters respond
    with the framed best response, the others with the closed form.
    Convergence means a round whose largest strategy update is at most
    ``TOL``.  Rounds crawl near a best-response slope of -1, so once
    player 2's trail (from the start or a kept guess) holds three fractions,
    one round is tried from their Aitken limit, Steffensen's method, and
    kept only if it moves player 2 less than the last plain round did.
    ``iterations`` counts every round, tried ones included; a result
    still moving after the ``MAX_ROUNDS`` guard is not converged.  A framed
    response to an opponent fraction this solve has already met is reused.
    """
    framed = tuple(p is not None for p in s.prospect)
    responses: tuple[dict[float, float], ...] = ({}, {})  # per player, by opponent fraction

    def respond(p: int, a_opp: float) -> float:
        if not framed[p]:
            return cgt.best_response_cgt(p, a_opp, s)[0]
        if a_opp not in responses[p]:
            responses[p][a_opp] = grid_best_response(p, a_opp, s)
        return responses[p][a_opp]

    def play(a: tuple[float, float]) -> tuple[tuple[float, float], float]:
        a1 = respond(0, a[1])
        nxt = (a1, respond(1, a1))
        return nxt, max(abs(nxt[0] - a[0]), abs(nxt[1] - a[1]))

    a = (1.0, 1.0) if initial is None else (float(initial[0]), float(initial[1]))
    trail = [a[1]]  # player 2's fraction along the current run of rounds
    rounds, delta = 0, math.inf
    while delta > TOL and rounds < MAX_ROUNDS:
        a, delta = play(a)
        rounds += 1
        trail.append(a[1])
        guess = _aitken(*trail[-3:]) if len(trail) >= 3 else None
        if guess is not None and delta > TOL and rounds < MAX_ROUNDS:
            trial, moved = play((a[0], guess))
            rounds += 1
            if abs(trial[1] - guess) < abs(trail[-1] - trail[-2]):
                a, delta = trial, moved
                trail = [guess, a[1]]
            else:
                trail = [a[1]]
    profile = StrategyProfile.of(*a)
    utilities = tuple(
        pt.expected_pt_utility(p, profile, s)
        if framed[p]
        else cgt.expected_utility_cgt(p, profile, s)
        for p in (0, 1)
    )
    return cgt.EquilibriumResult(
        profile=profile,
        classification=_classify(profile, s, framed),
        conditions=(),
        expected_utilities=utilities,
        converged=delta <= TOL,
        iterations=rounds,
        residual=delta,
    )


def _classify(
    profile: StrategyProfile,
    s: Scenario,
    framed: tuple[bool, ...],
) -> str:
    """Label an iterated result; purely rational runs map onto a closed-form BNE."""
    if any(framed):
        return "PT-Iterated"
    for res in cgt.enumerate_bne(s):
        if all(abs(profile[p] - res.profile[p]) <= CLASSIFY_TOL for p in (0, 1)):
            return res.classification
    return "PT-Iterated"
