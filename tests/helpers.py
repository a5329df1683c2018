"""Scenario builders and randomized draws shared across the test modules."""

from __future__ import annotations

import math
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator, NamedTuple

import numpy as np

from gridstore.cgt import best_response_cgt
from gridstore.errors import NoCoveragePrice, NotConverged
from gridstore.experiments import PRICE_STEP, default_scenario
from gridstore.model import (
    GridParams,
    MicrogridConfig,
    ProspectParams,
    Scenario,
    StrategyProfile,
)
from gridstore import pt, solver
from gridstore.solver import TOL, grid_best_response, iterate_best_response

BENCH_PROSPECT = ProspectParams(r=11.5, lam=2.25, beta_plus=0.88, beta_minus=0.88)
# The only (uncontested sign, contested branch) cells a valid contested
# profile can produce; the other three are geometrically empty because
# the contested segment starts at the uncontested utility, which is the
# maximum over opponent types.
FEASIBLE_CELLS = ((True, "AllGain"), (True, "Mixed"), (False, "AllLoss"))


def benchmark_scenario(
    prospect: tuple[ProspectParams | None, ...] | None = None,
    l_c: float = 200.0,
) -> Scenario:
    """The benchmark parameter set used throughout the reported results."""
    return Scenario(
        grid=GridParams(rho=0.1, rho_c=11.6, theta=0.01, l_c=l_c),
        microgrids=(
            MicrogridConfig(q=120.0, q_max=150.0),
            MicrogridConfig(q=120.0, q_max=150.0),
        ),
        prospect=prospect,
    )


def framed_benchmark(reference: float = 11.5, lam: float = 2.25) -> Scenario:
    p = replace(BENCH_PROSPECT, r=reference, lam=lam)
    return benchmark_scenario(prospect=(p, p))


def priced_game(reference: float, lam: float, rho_c: float, mixed: bool = False) -> Scenario:
    """The default scenario at one reference, loss aversion and emergency
    price; ``mixed`` leaves player 2 rational."""
    s = default_scenario(reference=reference, lam=lam)
    s = replace(s, grid=replace(s.grid, rho_c=rho_c))
    return replace(s, prospect=(s.prospect[0], None)) if mixed else s


def random_scenario(rng: random.Random, framed: bool = False) -> Scenario:
    """A valid two-player scenario with wide parameter spread.

    The emergency uplift theta*rho_c/rho is drawn in [1.05, 3] so the
    incentive condition always holds but both best-response branches
    stay reachable.
    """
    rho = rng.uniform(0.05, 1.0)
    theta = rng.uniform(0.005, 0.2)
    uplift = rng.uniform(1.05, 3.0)
    rho_c = rho * uplift / theta
    q_max = (rng.uniform(50.0, 180.0), rng.uniform(50.0, 180.0))
    l_c = max(q_max) * rng.uniform(1.05, 2.5)
    q = tuple(rng.uniform(0.1, 1.0) * qm for qm in q_max)
    prospect = None
    if framed:
        # Reference drawn around the attainable utility range so gains,
        # losses, and mixed framing all occur.
        scale = rho_c * theta * q[0]
        prospect = (
            ProspectParams(
                r=rng.uniform(0.2, 1.6) * scale,
                lam=rng.uniform(1.0, 4.0),
                beta_plus=rng.uniform(0.5, 1.0),
                beta_minus=rng.uniform(0.5, 1.0),
            ),
            None,
        )
    return Scenario(
        grid=GridParams(rho=rho, rho_c=rho_c, theta=theta, l_c=l_c),
        microgrids=(
            MicrogridConfig(q=q[0], q_max=q_max[0]),
            MicrogridConfig(q=q[1], q_max=q_max[1]),
        ),
        prospect=prospect,
    )


def expected_utility_grid_cgt(
    own_alpha: np.ndarray | float,
    opp_alpha: float,
    q1: float,
    q2max: float,
    rho: float,
    k: float,
    lc: float,
) -> np.ndarray:
    """Rational expected utility over a vector of own storage fractions.

    The dense-grid reference for the closed-form best response: one
    NumPy pass over a whole grid, agreeing bit for bit with the
    package's plain-float ``expected_utility_cgt`` at every point.
    ``k`` is the expected emergency value theta*rho_c.  Vectorized in the
    own fraction only; the opponent's fraction is a fixed scalar.
    """
    a1 = np.atleast_1d(np.asarray(own_alpha, dtype=float))
    out = rho * q1 * (1.0 - a1) + k * q1 * a1
    if opp_alpha > 0.0:
        # Contested only when the largest opponent surplus can push the
        # pair past the critical load; ties stay uncontested.
        contested = a1 * q1 + opp_alpha * q2max > lc
        if np.any(contested):
            ac = a1[contested]
            split = (lc - ac * q1) / opp_alpha
            trimmed = (
                k * ac * q1 * split
                + 0.5
                * k
                * (
                    (ac * q1 + lc) * (q2max - split)
                    - 0.5 * opp_alpha * (q2max**2 - split**2)
                )
            ) / q2max
            out[contested] = rho * q1 * (1.0 - ac) + trimmed
    return out


def _pt_value_vec(u: np.ndarray, p: ProspectParams) -> np.ndarray:
    d = u - p.r
    out = np.zeros_like(d)
    gain = d > 0.0
    loss = d < 0.0
    out[gain] = d[gain] ** p.beta_plus
    out[loss] = -p.lam * (-d[loss]) ** p.beta_minus
    return out


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
    """Expected framed utility over a vector of own storage fractions.

    The dense-grid reference for the package's plain-float evaluator: it
    builds every term at every own fraction and gathers the contested ones
    by a boolean mask.
    """
    a1 = np.atleast_1d(np.asarray(own_alpha, dtype=float))
    u_lin = rho * q1 * (1.0 - a1) + k * q1 * a1
    out = _pt_value_vec(u_lin, pp)
    if opp_alpha > 0.0:
        contested = a1 * q1 + opp_alpha * q2max > lc
        if np.any(contested):
            ac, u1, v1 = a1[contested], u_lin[contested], out[contested]
            split = (lc - ac * q1) / opp_alpha
            u_hi = rho * q1 * (1.0 - ac) + 0.5 * k * (ac * q1 + lc - opp_alpha * q2max)
            m_g = -2.0 / ((pp.beta_plus + 1.0) * k * opp_alpha * q2max)
            m_l = -2.0 * pp.lam / ((pp.beta_minus + 1.0) * k * opp_alpha * q2max)
            r, bp1, bm1 = pp.r, pp.beta_plus + 1.0, pp.beta_minus + 1.0
            gain = m_g * (np.maximum(u_hi - r, 0.0) ** bp1 - np.maximum(u1 - r, 0.0) ** bp1)
            loss = m_l * (np.maximum(r - u_hi, 0.0) ** bm1 - np.maximum(r - u1, 0.0) ** bm1)
            out[contested] = (split / q2max) * v1 + (gain + loss)
    return out


def dense_framed_argmax(player: int, opp_alpha: float, s: Scenario, points: int = 10_001) -> float:
    """Best own fraction of the mask-based reference: a dense scan, refined.

    Shares nothing with the solver's breakpoints or slope.  The scan's
    best point and its two neighbours bracket a maximum; scans of 101
    points close in on it, each keeping its best point's two neighbours,
    until the bracket is 1e-15 wide.  The better of the first scan's and
    the last refined point is returned.
    """
    q1, q2max, rho, k, lc = s.duel(player)
    pp = s.prospect[player]

    def utility(a):
        return expected_pt_utility_grid(a, opp_alpha, q1, q2max, rho, k, lc, pp)

    def bracket(grid: np.ndarray) -> tuple[float, float, float]:
        i = int(np.argmax(utility(grid)))
        return float(grid[i]), float(grid[max(i - 1, 0)]), float(grid[min(i + 1, len(grid) - 1)])

    scanned, lo, hi = bracket(np.linspace(0.0, 1.0, points))
    refined = scanned
    while hi - lo > 1e-15:
        refined, lo, hi = bracket(np.linspace(lo, hi, 101))
    return max((scanned, refined), key=lambda a: float(utility(a)[0]))


def random_profile(rng: random.Random) -> StrategyProfile:
    return StrategyProfile.of(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))


def interior_case_draw(
    rng: random.Random, max_tries: int = 500
) -> tuple[Scenario, float] | None:
    """(scenario, opponent fraction) pair on the interior best-response branch.

    Uniform draws land there rarely: it needs a tight critical load, a
    large own surplus, a modest emergency uplift, and a heavy-storing
    opponent all at once, so the draw is biased toward that corner.
    """
    from gridstore.cgt import best_response_cgt

    for _ in range(max_tries):
        rho = rng.uniform(0.05, 1.0)
        theta = rng.uniform(0.005, 0.2)
        uplift = rng.uniform(1.05, 1.4)
        m1 = rng.uniform(50.0, 180.0)
        m2 = rng.uniform(50.0, 180.0)
        s = Scenario(
            grid=GridParams(
                rho=rho,
                rho_c=rho * uplift / theta,
                theta=theta,
                l_c=max(m1, m2) * rng.uniform(1.02, 1.2),
            ),
            microgrids=(
                MicrogridConfig(q=rng.uniform(0.75, 1.0) * m1, q_max=m1),
                MicrogridConfig(q=rng.uniform(0.1, 1.0) * m2, q_max=m2),
            ),
        )
        opp = rng.uniform(0.7, 1.0)
        br, case = best_response_cgt(0, opp, s)
        if case.case_id == "InteriorOptimum" and 1e-4 < br < 1.0 - 1e-4:
            return s, opp
    return None


def contested_profile(rng: random.Random, s: Scenario) -> StrategyProfile | None:
    """A profile inside the three-term region (both integrals active)."""
    q1 = s.microgrids[0].q
    q2max = s.microgrids[1].q_max
    t = (s.grid.l_c - q1) / q2max
    if t >= 1.0:
        return None
    a2 = rng.uniform(max(t, 1e-6), 1.0)
    if a2 <= t:
        return None
    lo = max(0.0, (s.grid.l_c - a2 * q2max) / q1)
    if lo >= 1.0:
        return None
    a1 = rng.uniform(lo, 1.0)
    return StrategyProfile.of(a1, a2)


class ContestedTerms(NamedTuple):
    """Player 0's contested geometry at one profile, and the branch it falls in."""

    split: float  # opponent surplus where trimming starts
    u1: float  # untrimmed utility; the trimmed one starts here at the split
    u_hi: float  # trimmed utility at the largest opponent surplus
    m_g: float  # gain-segment antiderivative coefficient
    m_l: float  # loss-segment antiderivative coefficient
    branch: str  # "AllGain", "AllLoss" or "Mixed": where [u_hi, u1] sits against r


def contested_terms(profile: StrategyProfile, s: Scenario) -> ContestedTerms:
    """Player 0's contested geometry at ``profile``, with the branch it implies.

    Every trimmed utility lies in [u_hi, u1], so all types gain when
    ``u_hi > r``, all lose when ``u1 < r``, and the rest straddle ``r``.
    """
    pp = s.prospect[0]
    a1, a2 = profile
    q1, q2max, rho, k, lc = s.duel(0)
    keep, stored = rho * q1 * (1.0 - a1), a1 * q1
    u1 = keep + k * q1 * a1
    split = (lc - stored) / a2
    u_hi = keep + 0.5 * k * (stored + lc - a2 * q2max)
    m_g = -2.0 / ((pp.beta_plus + 1.0) * k * a2 * q2max)
    m_l = -2.0 * pp.lam / ((pp.beta_minus + 1.0) * k * a2 * q2max)
    if u_hi > pp.r:
        branch = "AllGain"
    elif u1 < pp.r:
        branch = "AllLoss"
    else:
        branch = "Mixed"
    return ContestedTerms(split, u1, u_hi, m_g, m_l, branch)


def framed_region_draw(
    rng: random.Random, want_gain: bool, want_branch: str, max_tries: int = 4000
) -> tuple[Scenario, StrategyProfile] | None:
    """Scenario/profile whose contested terms hit one (I_1 sign, I_2 branch) cell."""
    for _ in range(max_tries):
        s = random_scenario(rng, framed=True)
        profile = contested_profile(rng, s)
        if profile is None:
            continue
        terms = contested_terms(profile, s)
        if terms.branch != want_branch:
            continue
        gain = terms.u1 > s.prospect[0].r
        if gain == want_gain and terms.u1 != s.prospect[0].r:
            return s, profile
    return None


class SymmetricEquilibrium(NamedTuple):
    """Symmetric fixed point a = BR(a) of a framed game with identical players."""

    alpha: float
    residual: float  # BR(alpha) - alpha
    br_slope: float  # dBR/da at alpha; below -1 it repels best-response iteration


def symmetric_framed_equilibrium(s: Scenario) -> SymmetricEquilibrium:
    """Bisect grid_best_response(0, a, s) - a on [0.5, 1].

    Both players must share one configuration, so player 2's response to
    a equals player 1's and every root is a symmetric equilibrium.  It
    exists whenever the gap changes sign on the bracket, even where
    iteration from (1, 1) reports a one-sided equilibrium instead.
    """
    if s.microgrids[0] != s.microgrids[1] or s.prospect[0] != s.prospect[1]:
        raise ValueError("players differ, so a = BR(a) is not an equilibrium")

    def gap(a: float) -> float:
        return grid_best_response(0, a, s) - a

    lo, hi = 0.5, 1.0
    if not gap(lo) > 0.0 > gap(hi):
        raise ValueError("no sign change of BR(a) - a on [0.5, 1]")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    h = 1e-4
    slope = (
        grid_best_response(0, alpha + h, s)
        - grid_best_response(0, alpha - h, s)
    ) / (2.0 * h)
    return SymmetricEquilibrium(alpha, gap(alpha), slope)


def plain_rounds(s: Scenario, rounds: int = 20_000) -> tuple[tuple[float, float], bool]:
    """The selection rule itself: alternating best responses from (1, 1).

    Each round player 0 responds to player 1's fraction, then player 1 to
    player 0's new one (framed players by ``grid_best_response``, the
    others by the closed form), with no extrapolation and no record of
    responses.  Returns the last profile and whether a round moved no
    fraction by more than ``TOL`` within ``rounds``.
    """

    def respond(p: int, a_opp: float) -> float:
        if s.prospect[p] is None:
            return best_response_cgt(p, a_opp, s)[0]
        return grid_best_response(p, a_opp, s)

    a = (1.0, 1.0)
    for _ in range(rounds):
        a1 = respond(0, a[1])
        nxt = (a1, respond(1, a1))
        if max(abs(nxt[0] - a[0]), abs(nxt[1] - a[1])) <= TOL:
            return nxt, True
        a = nxt
    return a, False


class FramedWork(NamedTuple):
    """What framed best responses cost, appended to as the package runs."""

    responses: list  # (game, opponent fraction) per framed best response
    games: list  # the duel and prospect of each ``pt.framed_game`` build
    evaluators: list  # the opponent fraction of each evaluator set built
    reads: Counter  # reads of each evaluator: "utility", "slope", "curvature"
    roots: list  # the reads of each ``solver._bracketed_root`` search


@contextmanager
def framed_work(solver_module=solver, pt_module=pt) -> Iterator[FramedWork]:
    """Count the framed work of every solve and ``grid_best_response`` call.

    Inside the block it patches ``solver_module._framed_response``, which
    every framed best response goes through, ``pt_module.framed_game``,
    whose games build the evaluator sets and whose evaluators it counts
    read by read, and ``solver_module._bracketed_root``; the modules are
    one package's, this one's by default.  Evaluator sets beyond the
    responses score a final profile.
    """
    work = FramedWork([], [], [], Counter(), [])
    respond, root = solver_module._framed_response, solver_module._bracketed_root
    build = pt_module.framed_game

    def counted_response(game, a_opp):
        work.responses.append((game, a_opp))
        return respond(game, a_opp)

    def counted(name, evaluator):
        def read(a):
            work.reads[name] += 1
            return evaluator(a)

        return read

    def counted_game(*args):
        work.games.append(args)
        evaluators = build(*args)

        def counted_evaluators(a2):
            work.evaluators.append(a2)
            utility, slope, curvature, *rest = evaluators(a2)
            return (*map(counted, ("utility", "slope", "curvature"), (utility, slope, curvature)), *rest)

        return counted_evaluators

    def counted_root(f, *bracket):
        work.roots.append(0)

        def read(a):
            work.roots[-1] += 1
            return f(a)

        return root(read, *bracket)

    solver_module._framed_response, pt_module.framed_game = counted_response, counted_game
    solver_module._bracketed_root = counted_root
    try:
        yield work
    finally:
        solver_module._framed_response, pt_module.framed_game = respond, build
        solver_module._bracketed_root = root


def covering_kind(row) -> str:
    """Equilibrium branch of a covering-price row's reported profile.

    "symmetric" when both fractions agree within 1e-4, "one-sided" when
    one player stores everything, "asymmetric" otherwise.
    """
    if abs(row.alpha_1 - row.alpha_2) <= 1e-4:
        return "symmetric"
    if max(row.alpha_1, row.alpha_2) == 1.0:
        return "one-sided"
    return "asymmetric"


def stride_bisect_covering_price(s: Scenario, price_hi: float = 30.0) -> tuple[float, int]:
    """Reference covering-price search: whole-cent strides, then bisection.

    ``s`` carries the reference point and the loss aversion of one
    ``experiments.required_emergency_price`` search.  It solves the top
    cent first and raises NoCoveragePrice if that does not cover, then
    strides up from rho/theta by 50 cents (or 1/64 of the price) to the
    first covering cent, and bisects between it and the cent it stepped
    from on coverage alone.  Raises NotConverged as the library does.
    Returns the covering price and the number of prices solved.
    """
    lam = s.prospect[0].lam
    solved = {}

    def solve(i: int):
        price = round(i * PRICE_STEP, 2)
        if price not in solved:
            solved[price] = iterate_best_response(replace(s, grid=replace(s.grid, rho_c=price)))
        return solved[price]

    def covers(i: int) -> bool:
        profile = solve(i).profile
        return profile[0] * s.surpluses[0] + profile[1] * s.surpluses[1] >= s.grid.l_c

    lo_floor = s.grid.rho / s.grid.theta * (1.0 + 1e-6)
    first, last = (math.ceil(p / PRICE_STEP - 1e-9) for p in (lo_floor, price_hi))
    if not covers(last):
        raise NoCoveragePrice(lam, price_hi)
    lo, hi = first - 1, first
    while not covers(hi):
        lo, hi = hi, min(hi + max(50, hi // 64), last)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if covers(mid):
            hi = mid
        else:
            lo = mid
    for i in (lo, hi) if lo >= first else (hi,):
        if not solve(i).converged:
            raise NotConverged(lam, round(i * PRICE_STEP, 2))
    return round(hi * PRICE_STEP, 2), len(solved)
