"""Numerical oracles and the best-response iteration solver.

The quadrature oracle integrates the ex-post utility (optionally framed)
over the opponent's uniform type directly, so it shares no algebra with
the closed forms it is used to check.  Only tests and the benchmark call
it, so it imports ``scipy.integrate`` (the ``test`` extra) on its first
call rather than with this module.  The framed best response takes the
roots of the closed form's analytic slope, in the ``pt.framed_game`` a
solve builds once.  The iteration solver takes Steffensen steps on a map
of player 2's fraction, a symmetric game's one best response or else a
round of both; framed utilities come from the record of scored
responses.  All but the oracle runs on plain floats.

The numerics are fixed: a 1e-12 fixed-point tolerance (``TOL``), a
200-round guard (``MAX_ROUNDS``) and a 1e-10 relative quadrature
tolerance (``QUAD_REL_TOL``).
"""

from __future__ import annotations

import math
from typing import Callable

from . import cgt, pt
from .model import Scenario, StrategyProfile, realized_utility, validate_scenario

TOL = 1e-12
MAX_ROUNDS = 200
QUAD_REL_TOL = 1e-10
_ROOT_XTOL, _ROOT_STEPS = 1e-14, 100  # root finder: bracket width, step limit
_ROOT_EDGE = 0.5 * _ROOT_XTOL  # the closest a step comes to a bracket end
_SETTLING = 1e-10  # fixed-point steps this short read _ROOT_XTOL into their ratio

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

    Illinois false position (the kept end's read halves when the other
    end is replaced twice in a row), until the bracket is at most
    ``_ROOT_XTOL`` wide, with Brent's two safeguards against a crawl: a
    step within ``_ROOT_EDGE`` of an end lands that far inside it, and
    after three replacements of the same end in a row (a stall) the next
    step bisects, as does a step outside the bracket.  At a later stall
    of the same end the steps bisect until one replaces it: a slope that
    runs flat into an end, near a double root, would otherwise cost
    three stalled steps per halving.  A read with ``f_lo``'s sign
    replaces ``lo``; any other, 0 or NaN, ``hi``.
    """
    # run: replacements in a row of lo (+) or hi (-); stalls: the ends (lo 1,
    # hi 2) that have stalled; stale: the end to replace by bisection.
    sign, run, stalls, stale = (1.0 if f_lo > 0.0 else -1.0), 0, 0, 0
    for _ in range(_ROOT_STEPS):
        if hi - lo <= _ROOT_XTOL:
            break
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        stall = not -3 < run < 3
        if stall and not stale:
            end = 1 if run > 0 else 2
            stale, stalls = stalls & end, stalls | end
        if stall or stale or not lo <= x <= hi:
            x = 0.5 * (lo + hi)
        elif x < lo + _ROOT_EDGE:
            x = lo + _ROOT_EDGE
        elif x > hi - _ROOT_EDGE:
            x = hi - _ROOT_EDGE
        fx = f(x)
        if sign * fx > 0.0:
            lo, f_lo, stale = x, fx, stale & 2
            if run > 0:
                f_hi, run = 0.5 * f_hi, run + 1
            else:
                run = 1
        else:
            hi, f_hi, stale = x, fx, stale & 1
            if run < 0:
                f_lo, run = 0.5 * f_lo, run - 1
            else:
                run = -1
    return 0.5 * (lo + hi)


def grid_best_response(player: int, opponent_alpha: float, s: Scenario) -> float:
    """Argmax of the framed closed-form expected utility over the own fraction.

    [0, 1] is cut where slope or curvature jump or blow up (the cuts
    ``pt.framed_game`` returns with them), so each piece is read
    2**-30 of its width inside its ends.  The slope falls, rises, or
    falls and then rises on a piece (the ``pt`` docstring), so every
    maximum is a root where the slope goes from + to - between two reads
    (across a cut, a kink), or, on the one piece where the slope can
    turn, left of the slope's minimum, a root of the curvature, when the
    slope dips below 0 there.  The best-scoring of 0, 1 and those roots
    wins, the smaller on a tie; a score that is not finite raises
    ``FloatingPointError``.
    """
    game = pt.framed_game(*s.duel(player), s.prospect_of(player))
    return _framed_response(game, float(opponent_alpha))[0]


def _framed_response(game: Callable, a_opp: float) -> tuple[float, float]:
    """``grid_best_response`` in ``game`` (``pt.framed_game``'s), with its score."""
    utility, slope, curvature, cuts, turning = game(a_opp)
    candidates, lo, top, f_top = [0.0, 1.0], 0.0, None, 0.0
    for i, hi in enumerate([*cuts, 1.0]):
        inset = (hi - lo) * 2.0**-30
        a, b = lo + inset, hi - inset
        f_a, f_b = slope(a), slope(b)
        if f_top > 0.0 > f_a:  # across the cut at lo
            candidates.append(_bracketed_root(slope, top, a, f_top, f_a))
        lo, top, f_top = hi, b, f_b
        if i == turning and f_a > 0.0 and f_b > 0.0:
            c_a, c_b = curvature(a), curvature(b)
            if c_a < 0.0 < c_b:
                b = _bracketed_root(curvature, a, b, c_a, c_b)
                f_b = slope(b)
        if f_a > 0.0 > f_b:
            candidates.append(_bracketed_root(slope, a, b, f_a, f_b))
    candidates.sort()
    scores = [utility(a) for a in candidates]
    if not all(map(math.isfinite, scores)):
        raise FloatingPointError("framed utility is not finite")
    best = scores.index(max(scores))  # the first, so the smallest, best
    return candidates[best], scores[best]


# ---------------------------------------------------------------------------
# best-response iteration
# ---------------------------------------------------------------------------


def _secant_root(x0: float, x1: float, d1: float, d2: float) -> float:
    """Root of the line through (x0, d1) and (x1, d2), two steps F(x) - x of a map."""
    return x1 - d2 * (x1 - x0) / (d2 - d1)


def _steffensen(
    step: Callable[[float, float], tuple[float, float, float]],
    start: tuple[float, float],
    keep: Callable[[float, float, float], bool] | None = None,
    stop_unless_shrinking: bool = False,
) -> tuple[float, float, float, int] | None:
    """Apply ``step`` from ``start`` until it moves no fraction by more than ``TOL``.

    ``step(p, x)`` returns player 1's fraction it computed, player 2's
    next one and the largest update.  Once player 2's last three
    fractions take shrinking steps (any under ``_SETTLING`` counts), the
    next step starts from their Aitken limit, Steffensen's method, if it
    lies in [0, 1] (clipped, it could restart the run) and
    ``keep(p, x, limit)``, when given, allows it; after two limits, from
    that of a shrinking step and the one before.  Aitken's limit of three
    fractions is the secant root of F(x) - x through their two steps, so
    both take ``_secant_root``.  Under ``stop_unless_shrinking`` three
    that do not shrink, or a run still moving after ``MAX_ROUNDS`` steps,
    end it with None.  Returns the last (p, x), its update and the steps.
    """
    (p, x), xs, steps, delta, limits, before = start, [start[1]], 0, math.inf, 0, None
    while delta > TOL and steps < MAX_ROUNDS:
        (p, x, delta), steps = step(p, x), steps + 1
        xs = [*xs[-2:], x]
        if delta <= TOL or len(xs) == 2 and limits < 2:
            continue
        # The last two (x, F(x) - x): of three iterates, or one and the step before its limit.
        (x0, d1), x1 = (before, xs[0]) if len(xs) == 2 else ((xs[0], xs[1] - xs[0]), xs[1])
        d2 = x - x1
        if abs(d2) >= abs(d1) > _SETTLING:
            if stop_unless_shrinking and len(xs) == 3:
                return None
        elif d1 != d2:
            limit = _secant_root(x0, x1, d1, d2)
            if 0.0 <= limit <= 1.0 and (keep is None or keep(p, x, limit)):
                limits, before = limits + 1, (x1, d2)
                x, xs = limit, [limit]
    return None if stop_unless_shrinking and delta > TOL else (p, x, delta, steps)


def _rounds_stop_short(play: Callable, x0: float, x_sym: float) -> bool:
    """Whether rounds (``play``) from player 2's fraction ``x0`` stop short of ``x_sym``.

    ``x_sym`` is the fixed point of BR, the one best response of a
    symmetric game.  A round maps player 2's fraction by BR(BR(x)),
    whatever player 1's is, which keeps order where BR falls, so rounds
    move one way and stop at the first fixed point of BR(BR(x)) on their
    way to ``x_sym``.  They stop short when the Aitken limit
    (``_secant_root``) of their first three fractions does and
    BR(BR(x)) - x has turned just past that limit.
    """
    x2 = play(x0, x0)[1]
    x4 = play(x2, x2)[1]
    e1, e2 = x2 - x0, x4 - x2
    if e1 == 0.0 or not 0.0 <= e2 / e1 < 1.0:
        return False
    stop = _secant_root(x0, x2, e1, e2)
    past = 2.0 * stop - x4
    if (past - x_sym) * e1 >= 0.0:
        past = 0.5 * (stop + x_sym)
    return (stop - x_sym) * e1 < 0.0 and (play(past, past)[1] - past) * e1 <= 0.0


def iterate_best_response(
    s: Scenario,
    initial: StrategyProfile | None = None,
) -> cgt.EquilibriumResult:
    """Fixed point of alternating best responses.

    It selects the equilibrium that rounds from ``initial`` ((1, 1) by
    default) reach, player 0 responding first in each; framed players use
    the framed best response, the others the closed form, and a solve
    reuses its framed responses.  Both solve paths are maps of player 2's
    fraction.  Players framed alike (equal parameters and sides) respond
    by one map BR, so rounds follow the orbit x, BR(x), BR(BR(x)), ... of
    player 2's start: the solve iterates BR itself to x* = BR(x*) and
    reports (x, BR(x)).  It restarts on rounds, x -> BR(BR(x)), when BR's
    steps stop shrinking (a 2-cycle lies ahead) or when rounds stop short
    of x* (``_rounds_stop_short``); any other game iterates rounds.  Both
    take ``_steffensen`` steps; symmetric rounds skip any that would carry
    player 2's fraction across x*, which rounds never cross.  One map
    application moving no fraction by more than ``TOL`` converges;
    ``iterations`` counts the applications of the map that ends the solve,
    at most ``MAX_ROUNDS``, after which a moving result is not converged.
    A converged solve of two rational players takes the class
    ``BNE<digit>`` of the existence condition its two best-response
    branches meet (``cgt``); any other solve is ``PT-Iterated``.  An
    invalid scenario raises ``InvalidScenario`` before any response.
    """
    validate_scenario(s)
    (p0, p1), duels = s.prospect, (s.duel(0), s.duel(1))
    framed = (p0 is not None, p1 is not None)
    symmetric = all(framed) and (p0 is p1 or p0 == p1) and duels[0] == duels[1]

    def game(p: int) -> Callable | None:
        return pt.framed_game(*duels[p], s.prospect[p]) if framed[p] else None

    # One game and one record of (response, score) by opponent fraction
    # per player, or one of each for both.
    games = (game(0),) * 2 if symmetric else (game(0), game(1))
    responses: tuple[dict[float, tuple[float, float]], ...] = ({},) * 2 if symmetric else ({}, {})

    def respond(p: int, a_opp: float) -> float:
        if not framed[p]:
            return cgt.best_response_cgt(p, a_opp, s)[0]
        if a_opp not in responses[p]:
            responses[p][a_opp] = _framed_response(games[p], a_opp)
        return responses[p][a_opp][0]

    def reflect(p: float, x: float) -> tuple[float, float, float]:
        b = respond(1, x)
        return x, b, abs(b - x)

    def play(p: float, x: float) -> tuple[float, float, float]:
        p1 = respond(0, x)
        x1 = respond(1, p1)
        return p1, x1, max(abs(p1 - p), abs(x1 - x))

    def same_side(p: float, x: float, limit: float) -> bool:
        return (limit - respond(0, limit)) * (x - p) > 0.0

    start = (1.0, 1.0) if initial is None else (float(initial[0]), float(initial[1]))
    run = _steffensen(reflect, start, stop_unless_shrinking=True) if symmetric else None
    if run and _rounds_stop_short(play, start[1], run[1]):
        run = None
    *a, delta, rounds = run or _steffensen(play, start, same_side if symmetric else None)
    profile = StrategyProfile(a)

    def utility(p: int) -> float:  # a framed player's from the record when it answered there
        if not framed[p]:
            return cgt.expected_utility_cgt(p, profile, s)
        response, score = responses[p].get(a[1 - p], (None, None))
        return score if response == a[p] else games[p](a[1 - p])[0](a[p])

    utilities = (utility(0), utility(1))
    labelled = delta <= TOL and not any(framed)
    return cgt.EquilibriumResult(
        profile=profile,
        classification="BNE" + cgt._condition(a, s)[0] if labelled else "PT-Iterated",
        conditions=(),
        expected_utilities=utilities,
        converged=delta <= TOL,
        iterations=rounds,
        residual=delta,
    )
