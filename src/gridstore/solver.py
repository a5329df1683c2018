"""Numerical oracles and the best-response iteration solver.

The quadrature oracle integrates the ex-post utility (optionally framed)
over the opponent's uniform type directly, so it shares no algebra with
the closed forms it is used to check.  Only tests and the benchmark call
it, so it imports ``scipy.integrate`` on its first call rather than with
this module.  The grid searcher maximizes the framed closed-form
expected utility by brute force, and the iteration solver alternates
the two players' best responses until a fixed point or the round cap.

The numerics are fixed: a 1e-3 search grid (``GRID_STEP``), a 1e-6
fixed-point tolerance (``TOL``), a 200-round cap (``MAX_ROUNDS``) and a
1e-10 relative quadrature tolerance (``QUAD_REL_TOL``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import cgt, pt
from .model import Scenario, StrategyProfile, realized_utility

__all__ = [
    "GRID_STEP",
    "TOL",
    "MAX_ROUNDS",
    "QUAD_REL_TOL",
    "quadrature_expected_utility",
    "grid_best_response",
    "iterate_best_response",
]

GRID_STEP = 1e-3
TOL = 1e-6
MAX_ROUNDS = 200
QUAD_REL_TOL = 1e-10

# The brute-force search grid: [0, 1] in steps of GRID_STEP.
_UNIT_GRID = np.linspace(0.0, 1.0, round(1.0 / GRID_STEP) + 1)
_UNIT_GRID.flags.writeable = False


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
    belief = s.belief_about(opp)
    q2max = belief.upper
    a_own, a_opp = profile[player], profile[opp]
    q_own = s.microgrids[player].q
    grid = s.grid
    pp = pt._require_framed(player, s) if framed else None

    surpluses = [0.0, 0.0]
    surpluses[player] = q_own

    def utility(q2: float) -> float:
        surpluses[opp] = q2
        return realized_utility(player, profile, surpluses, grid)

    def integrand(q2: float) -> float:
        u = utility(q2)
        v = pt.pt_value(u, pp) if pp is not None else u
        return v * belief.density(q2)

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
# brute-force best response
# ---------------------------------------------------------------------------


def _ternary_refine(
    f: Callable[[float], float], lo: float, hi: float, width_tol: float = 1e-10
) -> float:
    """Shrink a bracket around a presumed-unimodal maximum."""
    while hi - lo > width_tol:
        third = (hi - lo) / 3.0
        m1 = lo + third
        m2 = hi - third
        if f(m1) < f(m2):
            lo = m1
        else:
            hi = m2
    return 0.5 * (lo + hi)


def grid_best_response(player: int, opponent_alpha: float, s: Scenario) -> float:
    """Brute-force argmax of the framed closed-form expected utility.

    Ties break toward the smaller fraction.  An interior grid maximum is
    refined by ternary search inside its one-step bracket; the refined
    point is kept only if it does not score below the grid winner, so a
    non-unimodal bracket can never make the answer worse.
    """
    pp = pt._require_framed(player, s)
    q1, q2max, rho, k, lc = s.duel(player)

    def utility(a1: float) -> float:
        return pt.expected_pt_utility_scalar(a1, opponent_alpha, q1, q2max, rho, k, lc, pp)

    grid = _UNIT_GRID
    values = pt.expected_pt_utility_grid(grid, opponent_alpha, q1, q2max, rho, k, lc, pp)
    i = int(np.argmax(values))
    best_alpha = float(grid[i])
    if 0 < i < len(grid) - 1:
        refined = _ternary_refine(utility, float(grid[i - 1]), float(grid[i + 1]))
        f_ref = utility(refined)
        f_best = float(values[i])
        if f_ref > f_best or (f_ref == f_best and refined < best_alpha):
            best_alpha = refined
    return best_alpha


# ---------------------------------------------------------------------------
# best-response iteration
# ---------------------------------------------------------------------------


# An overflow in the framed closed form raises FloatingPointError rather
# than steering the grid argmax with inf or NaN.
@np.errstate(over="raise", invalid="raise")
def iterate_best_response(
    s: Scenario,
    initial: StrategyProfile | None = None,
) -> cgt.EquilibriumResult:
    """Fixed point of alternating best responses.

    Each round player 0 responds to player 1's fraction, then player 1
    to player 0's new one.  Players carrying prospect parameters respond
    with the framed grid search, the others with the closed form.
    Convergence means the largest strategy update in a round is at most
    ``TOL``; after ``MAX_ROUNDS`` rounds the result is reported as not
    converged.
    """
    framed = tuple(p is not None for p in s.prospect)

    def respond(p: int, a_opp: float) -> float:
        if framed[p]:
            return grid_best_response(p, a_opp, s)
        return cgt.best_response_cgt(p, a_opp, s)[0]

    a = (1.0, 1.0) if initial is None else (initial[0], initial[1])
    for rounds in range(1, MAX_ROUNDS + 1):
        a1 = respond(0, a[1])
        nxt = (a1, respond(1, a1))
        delta = max(abs(nxt[0] - a[0]), abs(nxt[1] - a[1]))
        a = nxt
        if delta <= TOL:
            break
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
    atol = 10.0 * TOL
    for res in cgt.enumerate_bne(s):
        if all(abs(profile[p] - res.profile[p]) <= atol for p in (0, 1)):
            return res.classification
    return "PT-Iterated"
