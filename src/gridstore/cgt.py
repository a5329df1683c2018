"""Closed-form expected utilities and equilibria for two rational players.

With uniform beliefs the expected utility of a player has two regimes:
an uncontested one where the pair can never exceed the critical load,
and a contested one where the opponent's surplus decides whether the
purchase gets trimmed.  Both admit closed forms, and so do the best
response and the four Bayesian Nash equilibrium candidates built from it.
Each existence condition of a candidate names a pair of best-response
branches, and the labels are read from those branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .model import Scenario, StrategyProfile

CaseId = Literal["BelowLoadStoreAll", "InteriorOptimum", "PriceDominatedStoreAll"]

# Snap tolerance for best responses that float error pushes out of [0, 1].
_SNAP = 1e-12


@dataclass(frozen=True)
class BestResponseCase:
    """Which branch of the best response fired, with its diagnostics.

    ``threshold_t`` is the opponent storage fraction below which the pair
    can never exceed the critical load.  ``slack`` is the margin of the
    interior-optimum condition: positive means the interior optimum is
    feasible and beats storing everything.
    """

    case_id: CaseId
    threshold_t: float
    slack: float


@dataclass(frozen=True)
class EquilibriumResult:
    """One equilibrium: the profile plus how it was found and checked."""

    profile: StrategyProfile
    classification: str
    conditions: tuple[str, ...]
    expected_utilities: tuple[float, ...]
    converged: bool
    iterations: int
    residual: float = 0.0


def expected_utility_cgt(player: int, profile: StrategyProfile, s: Scenario) -> float:
    """Expected utility of a rational player against a uniform opponent type.

    ``k`` is the expected emergency value theta*rho_c.  Opponent
    surpluses beyond ``split`` push the pair past the critical load and
    trim the purchase.
    """
    q1, q2max, rho, k, lc = s.duel(player)
    a1, a2 = profile[player], profile[1 - player]
    kept = rho * q1 * (1.0 - a1)
    # Contested only when the largest opponent surplus can push the
    # pair past the critical load; ties stay uncontested.
    if a2 > 0.0 and a1 * q1 + a2 * q2max > lc:
        split = (lc - a1 * q1) / a2
        trimmed = (
            k * a1 * q1 * split
            + 0.5
            * k
            * (
                (a1 * q1 + lc) * (q2max - split)
                - 0.5 * a2 * (q2max**2 - split * split)
            )
        ) / q2max
        return kept + trimmed
    return kept + k * q1 * a1


def _snap_unit(x: float) -> float:
    if -_SNAP <= x < 0.0:
        return 0.0
    if 1.0 < x <= 1.0 + _SNAP:
        return 1.0
    return x


def _case(player: int, opponent_alpha: float, s: Scenario) -> BestResponseCase:
    """Which branch ``player``'s best response to ``opponent_alpha`` takes.

    The one place the threshold and the interior slack are computed: the
    best response and every existence-condition label read them here.
    """
    q1, q2max, rho, k, lc = s.duel(player)
    t = (lc - q1) / q2max
    gap = 2.0 * rho / k - 1.0
    slack = gap * opponent_alpha - t
    if opponent_alpha <= t:
        return BestResponseCase("BelowLoadStoreAll", t, slack)
    if slack > 0.0:
        return BestResponseCase("InteriorOptimum", t, slack)
    return BestResponseCase("PriceDominatedStoreAll", t, slack)


def best_response_cgt(
    player: int, opponent_alpha: float, s: Scenario
) -> tuple[float, BestResponseCase]:
    """Closed-form best response of ``player`` to a fixed opponent fraction.

    Three branches:
      * BelowLoadStoreAll: the opponent stores so little that trimming is
        impossible, so storing everything is optimal.
      * InteriorOptimum: trimming risk justifies holding back; the unique
        stationary point of the contested expected utility is optimal.
      * PriceDominatedStoreAll: the emergency premium is large enough that
        storing everything beats the interior candidate.
    """
    case = _case(player, opponent_alpha, s)
    if case.case_id != "InteriorOptimum":
        return 1.0, case
    # The line exists here: a player without one has t > 1 and returned above.
    intercept, slope = _interior_coefficients(player, s)
    return _snap_unit(intercept + slope * opponent_alpha), case


def _best_response_gaps(profile: StrategyProfile, s: Scenario, tol: float) -> list[float] | None:
    """Each player's distance from its best response, or None if one exceeds ``tol``."""
    gaps = [abs(profile[p] - best_response_cgt(p, profile[1 - p], s)[0]) for p in (0, 1)]
    return None if gaps[0] > tol or gaps[1] > tol else gaps


def verify_bne(profile: StrategyProfile, s: Scenario, tol: float = 1e-9) -> bool:
    """Check mutual best responses within ``tol``."""
    return _best_response_gaps(profile, s, tol) is not None


def _interior_coefficients(player: int, s: Scenario) -> tuple[float, float] | None:
    """Interior best response written as own = intercept + slope * opponent.

    ``None`` for a player without surplus: it has no interior best
    response and always stores everything.  A subnormal surplus counts
    as none, because ``q1 * k`` underflows to 0 or the coefficients
    overflow.
    """
    q1, q2max, rho, k, lc = s.duel(player)
    qk = q1 * k
    if qk == 0.0:
        return None
    intercept, slope = lc / q1, (k - 2.0 * rho) * q2max / qk
    if not (math.isfinite(intercept) and math.isfinite(slope)):
        return None
    return intercept, slope


# The existence condition each pair of branches meets: player 0's best
# response to player 1's fraction, then player 1's to player 0's.  The
# digit is the class of equilibrium the pair supports: 1 where both store
# all, 2 where only player 1 holds back, 3 only player 0, 4 both.
_CONDITIONS = {
    ("BelowLoadStoreAll", "BelowLoadStoreAll"): "1a",
    ("BelowLoadStoreAll", "PriceDominatedStoreAll"): "1b",
    ("PriceDominatedStoreAll", "BelowLoadStoreAll"): "1c",
    ("PriceDominatedStoreAll", "PriceDominatedStoreAll"): "1d",
    ("BelowLoadStoreAll", "InteriorOptimum"): "2a",
    ("PriceDominatedStoreAll", "InteriorOptimum"): "2b",
    ("InteriorOptimum", "BelowLoadStoreAll"): "3a",
    ("InteriorOptimum", "PriceDominatedStoreAll"): "3b",
    ("InteriorOptimum", "InteriorOptimum"): "4a",
}


def _condition(profile: tuple[float, float], s: Scenario) -> str:
    """The existence condition that ``profile``'s two best-response branches meet."""
    return _CONDITIONS[_case(0, profile[1], s).case_id, _case(1, profile[0], s).case_id]


def bne_candidates(s: Scenario) -> list[tuple[str, StrategyProfile, tuple[str, ...]]]:
    """The closed-form equilibrium candidates, possibly out of range.

    Each entry is ``(label, profile, conditions)``: the candidate's label
    (BNE1..BNE4), its unverified profile, and the sufficient existence
    condition it meets, if any: the one its pair of best-response branches
    names, kept only when that condition's digit is the candidate's class.
    Candidates that need the interior best response of a player without
    surplus are left out, and so are candidates whose arithmetic overflows
    (a surplus near the bottom of the float range): an infinite or NaN
    fraction is no equilibrium.
    """
    one = _interior_coefficients(0, s)
    two = _interior_coefficients(1, s)
    candidates = [("BNE1", (1.0, 1.0))]
    if two is not None:
        candidates.append(("BNE2", (1.0, _snap_unit(two[0] + two[1]))))
    if one is not None:
        candidates.append(("BNE3", (_snap_unit(one[0] + one[1]), 1.0)))
    if one is not None and two is not None:
        (d1, c1), (d2, c2) = one, two
        denom = 1.0 - c1 * c2
        if denom != 0.0:
            a1 = (d1 + c1 * d2) / denom
            a2 = (d2 + c2 * d1) / denom
            candidates.append(("BNE4", (_snap_unit(a1), _snap_unit(a2))))
    entries = []
    for label, cand in candidates:
        if all(math.isfinite(a) for a in cand):
            condition = _condition(cand, s)
            met = (condition,) if label == "BNE" + condition[0] else ()
            entries.append((label, StrategyProfile.of(*cand), met))
    return entries


def enumerate_bne(s: Scenario) -> list[EquilibriumResult]:
    """Every closed-form candidate that verifies as a mutual best response.

    Candidates whose fractions leave [0, 1] are discarded; the rest are
    verified directly against the best response rather than trusting the
    condition labels.  Survivors keep the condition ``bne_candidates``
    gives them.  Of survivors that coincide within ``_SNAP`` (at a
    threshold tie) the first that meets its condition is kept, else the first.
    """
    results: list[EquilibriumResult] = []
    for classification, profile, conditions in bne_candidates(s):
        if not all(0.0 <= a <= 1.0 for a in profile):
            continue
        gaps = _best_response_gaps(profile, s, 1e-9)
        if gaps is None:
            continue
        results.append(
            EquilibriumResult(
                profile=profile,
                classification=classification,
                conditions=conditions,
                expected_utilities=(
                    expected_utility_cgt(0, profile, s),
                    expected_utility_cgt(1, profile, s),
                ),
                converged=True,
                iterations=0,
                residual=max(gaps),
            )
        )
    kept: list[EquilibriumResult] = []
    for eq in sorted(results, key=lambda r: not r.conditions):
        if all(abs(eq.profile[0] - k.profile[0]) > _SNAP or abs(eq.profile[1] - k.profile[1]) > _SNAP for k in kept):
            kept.append(eq)
    return sorted(kept, key=lambda r: r.classification)
