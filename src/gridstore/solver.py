"""Numerical oracles and the best-response iteration solver.

The quadrature oracle integrates the ex-post utility (optionally framed)
over the opponent's uniform type directly, so it shares no algebra with
the closed forms it is used to check.  The grid searcher maximizes the
closed-form expected utility by brute force, and the iteration solver
alternates best responses until a fixed point, a cycle, or the round cap.

The numerics are fixed: a 1e-3 search grid (``GRID_STEP``), a 1e-6
fixed-point tolerance (``TOL``), a 200-round cap (``MAX_ROUNDS``) and a
1e-10 relative quadrature tolerance (``QUAD_REL_TOL``).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from . import cgt, pt
from .errors import CycleDetected
from .model import Scenario, StrategyProfile, realized_utility, require_two_player

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
    require_two_player(s)
    opp = 1 - player
    belief = s.belief_about(opp)
    q2max = belief.upper
    a_own, a_opp = profile[player], profile[opp]
    q_own = s.microgrids[player].q
    grid = s.grid
    pp = pt._require_framed(player, s) if framed else None

    surpluses = [0.0, 0.0]
    surpluses[player] = q_own

    def integrand(q2: float) -> float:
        surpluses[opp] = q2
        u = realized_utility(player, profile, surpluses, grid)
        v = pt.pt_value(u, pp) if pp is not None else u
        return v * belief.density(q2)

    cuts = {0.0, q2max}
    if a_opp > 0.0:
        split = (grid.l_c - a_own * q_own) / a_opp
        if 0.0 < split < q2max:
            cuts.add(split)
        if pp is not None:
            terms = pt.pt_branch_terms(player, profile, s)
            if 0.0 < terms.q2r < q2max:
                cuts.add(terms.q2r)
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


def _objective(
    player: int, s: Scenario, framed: bool
) -> tuple[Callable[[np.ndarray, float], np.ndarray], Callable[[float, float], float]]:
    """Vector and scalar evaluators of own expected utility vs a fixed opponent."""
    opp = 1 - player
    q1 = s.microgrids[player].q
    q2max = s.microgrids[opp].q_max
    g = s.grid
    rho, k, lc = g.rho, g.emergency_value, g.l_c
    if framed:
        pp = pt._require_framed(player, s)

        def vec(a1, a2):
            return pt.expected_pt_utility_grid(a1, a2, q1, q2max, rho, k, lc, pp)

        def scalar(a1, a2):
            return pt.expected_pt_utility_scalar(a1, a2, q1, q2max, rho, k, lc, pp)

    else:

        def vec(a1, a2):
            return cgt.expected_utility_grid_cgt(a1, a2, q1, q2max, rho, k, lc)

        def scalar(a1, a2):
            return float(cgt.expected_utility_grid_cgt(a1, a2, q1, q2max, rho, k, lc)[0])

    return vec, scalar


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


def grid_best_response(
    player: int,
    opponent_alpha: float,
    s: Scenario,
    framed: bool = False,
) -> float:
    """Brute-force argmax of the closed-form expected utility.

    Ties break toward the smaller fraction.  An interior grid maximum is
    refined by ternary search inside its one-step bracket; the refined
    point is kept only if it does not score below the grid winner, so a
    non-unimodal bracket can never make the answer worse.
    """
    require_two_player(s)
    vec, scalar = _objective(player, s, framed)
    grid = _UNIT_GRID
    values = vec(grid, opponent_alpha)
    i = int(np.argmax(values))
    best_alpha = float(grid[i])
    if 0 < i < len(grid) - 1:
        refined = _ternary_refine(
            lambda a: scalar(a, opponent_alpha), float(grid[i - 1]), float(grid[i + 1])
        )
        f_ref = scalar(refined, opponent_alpha)
        f_best = float(values[i])
        if f_ref > f_best or (f_ref == f_best and refined < best_alpha):
            best_alpha = refined
    return best_alpha


# ---------------------------------------------------------------------------
# best-response iteration
# ---------------------------------------------------------------------------


def _iterate(
    responders: Sequence[Callable[[float], float]],
    initial: tuple[float, float],
) -> tuple[tuple[float, float], bool, int, float]:
    """Alternate best responses in index order until fixed point or cycle.

    Returns (profile, converged, rounds, last round's max update).  A
    period-2 repeat of the round-end profile raises ``CycleDetected``
    with both points of the cycle.
    """
    current = initial
    history = [current]
    delta = float("inf")
    for rounds in range(1, MAX_ROUNDS + 1):
        a = list(current)
        for p, respond in enumerate(responders):
            a[p] = respond(a[1 - p])
        nxt = (a[0], a[1])
        delta = max(abs(nxt[0] - current[0]), abs(nxt[1] - current[1]))
        if delta <= TOL:
            return nxt, True, rounds, delta
        if len(history) >= 2 and nxt == history[-2] and nxt != history[-1]:
            raise CycleDetected(history[-1], nxt, iterations=rounds)
        history.append(nxt)
        current = nxt
    return current, False, MAX_ROUNDS, delta


def iterate_best_response(
    s: Scenario,
    initial: StrategyProfile | None = None,
) -> cgt.EquilibriumResult:
    """Fixed point of alternating best responses.

    Players carrying prospect parameters respond with the framed grid
    search, the others with the closed form.  Convergence means the
    largest strategy update in a round is at most ``TOL``; after
    ``MAX_ROUNDS`` rounds the result is reported as not converged.
    """
    require_two_player(s)
    framed = tuple(p is not None for p in s.prospect)
    start = (1.0, 1.0) if initial is None else (initial[0], initial[1])

    def responder(p: int) -> Callable[[float], float]:
        if framed[p]:
            return lambda a_opp: grid_best_response(p, a_opp, s, True)
        return lambda a_opp: cgt.best_response_cgt(p, a_opp, s)[0]

    final, converged, rounds, delta = _iterate((responder(0), responder(1)), start)
    profile = StrategyProfile.of(*final)
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
        converged=converged,
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
