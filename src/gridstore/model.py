"""Domain types, validation, and the ex-post payoff rules of the storage game.

Each microgrid operator holds a private energy surplus and commits a
fraction of it to storage.  Stored energy is bought back at the emergency
price if an emergency occurs (probability ``theta``); unstored energy is
sold immediately at the market price.  When total stored energy exceeds
the critical load, the utility trims every purchase by an equal share of
the excess.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import InvalidScenario, MissingProspectParams, NotTwoPlayer


# ---------------------------------------------------------------------------
# configuration dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridParams:
    """Market environment shared by every player.

    Attributes:
        rho: immediate sale price in $/kWh.
        rho_c: emergency buyback price in $/kWh.
        theta: probability that an emergency occurs.
        l_c: critical load in kWh that the utility covers during an emergency.
    """

    rho: float
    rho_c: float
    theta: float
    l_c: float

    @property
    def emergency_value(self) -> float:
        """Expected revenue per stored kWh when purchases are untrimmed."""
        return self.theta * self.rho_c


@dataclass(frozen=True)
class MicrogridConfig:
    """One operator: realized surplus ``q`` and surplus capacity ``q_max``."""

    q: float
    q_max: float


@dataclass(frozen=True)
class ProspectParams:
    """Framing parameters of one player.

    ``lam`` is the loss-aversion multiplier (written ``lambda`` in config
    files), ``beta_plus``/``beta_minus`` are the diminishing-sensitivity
    exponents for gains and losses, and ``r`` is the reference utility in $.
    """

    r: float
    lam: float
    beta_plus: float
    beta_minus: float


class StrategyProfile(tuple):
    """Storage fractions, one float per player, each in [0, 1]."""

    __slots__ = ()

    @classmethod
    def of(cls, *alphas: float) -> "StrategyProfile":
        return cls(float(a) for a in alphas)


@dataclass(frozen=True)
class Scenario:
    """Full game description: environment, the two players, optional framing.

    The game has exactly two microgrids and two prospect entries (``None``
    for a rational player); any other count raises ``NotTwoPlayer`` here,
    so no solver checks it again.
    """

    grid: GridParams
    microgrids: tuple[MicrogridConfig, ...]
    prospect: tuple[ProspectParams | None, ...] | None = ()

    def __post_init__(self):
        object.__setattr__(self, "microgrids", tuple(self.microgrids))
        if len(self.microgrids) != 2:
            raise NotTwoPlayer(
                f"need exactly 2 players, scenario has {len(self.microgrids)}"
            )
        prospect = tuple(self.prospect or ()) or (None, None)
        if len(prospect) != 2:
            raise NotTwoPlayer(f"need 2 prospect entries, scenario has {len(prospect)}")
        object.__setattr__(self, "prospect", prospect)

    def prospect_of(self, player: int) -> ProspectParams:
        """``player``'s framing, or ``MissingProspectParams`` if it is rational."""
        p = self.prospect[player]
        if p is None:
            raise MissingProspectParams(player)
        return p

    def duel(self, player: int) -> tuple[float, float, float, float, float]:
        """Constants of the game seen from ``player``'s side.

        ``(q1, q2max, rho, k, l_c)``: own surplus, the opponent's surplus
        capacity, sale price, emergency value theta*rho_c, critical load.
        """
        g = self.grid
        q1, q2max = self.microgrids[player].q, self.microgrids[1 - player].q_max
        return q1, q2max, g.rho, g.emergency_value, g.l_c

    @property
    def surpluses(self) -> tuple[float, ...]:
        return tuple(m.q for m in self.microgrids)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One validation check: a stable code, outcome, and human detail."""

    code: str
    ok: bool
    detail: str


# Every construction invariant, written once.  Each kind of subject (the
# grid, a microgrid, a framing) has one test, which returns whether each
# of its rules holds, and a table of the rules' codes and details in the
# same order.  A detail says what failed, after the subject's name; it
# reads the subject as ``x`` and the grid as ``g``.
def _grid_holds(x: GridParams, g: GridParams) -> tuple[bool, ...]:
    return (g.rho > 0 and math.isfinite(g.rho), g.rho_c > 0 and math.isfinite(g.rho_c),
            g.l_c > 0 and math.isfinite(g.l_c), 0.0 <= g.theta <= 1.0, g.emergency_value > g.rho)


_GRID_DETAILS = (
    ("BadPrice", "rho = {g.rho:g} must be finite and > 0"),
    ("BadPrice", "rho_c = {g.rho_c:g} must be finite and > 0"),
    ("BadCriticalLoad", "l_c = {g.l_c:g} must be finite and > 0"),
    ("BadProbability", "theta = {g.theta:g} must lie in [0, 1]"),
    ("IncentiveViolation", "theta*rho_c = {g.emergency_value:g} must exceed rho = {g.rho:g}"),
)


def _microgrid_holds(x: MicrogridConfig, g: GridParams) -> tuple[bool, ...]:
    return x.q_max > 0, 0.0 <= x.q <= x.q_max, x.q_max < g.l_c


_MICROGRID_DETAILS = (
    ("BadCapacity", "q_max = {x.q_max:g} must be > 0"),
    ("SurplusOutOfRange", "q = {x.q:g} must lie in [0, q_max = {x.q_max:g}]"),
    ("CapacityExceedsCriticalLoad", "q_max = {x.q_max:g} must be < l_c = {g.l_c:g}"),
)


def _framing_holds(x: ProspectParams, g: GridParams) -> tuple[bool, ...]:
    return (x.lam >= 1.0 and math.isfinite(x.lam), 0.0 < x.beta_plus <= 1.0,
            0.0 < x.beta_minus <= 1.0, math.isfinite(x.r))


_FRAMING_DETAILS = (
    ("BadProspectParams", "lambda = {x.lam:g} must be finite and >= 1"),
    ("BadProspectParams", "beta_plus = {x.beta_plus:g} must lie in (0, 1]"),
    ("BadProspectParams", "beta_minus = {x.beta_minus:g} must lie in (0, 1]"),
    ("BadProspectParams", "r = {x.r:g} must be finite"),
)


def _valid(s: Scenario) -> bool:
    """Whether every invariant holds, building no ``Check``; a shared framing is tested once."""
    g, (m1, m2), (p1, p2) = s.grid, s.microgrids, s.prospect
    return (
        all(_grid_holds(g, g))
        and all(_microgrid_holds(m1, g))
        and all(_microgrid_holds(m2, g))
        and (p1 is None or all(_framing_holds(p1, g)))
        and (p2 is None or p2 is p1 or all(_framing_holds(p2, g)))
    )


def scenario_checks(s: Scenario) -> list[Check]:
    """Evaluate every construction invariant, passing or not."""
    g = s.grid
    subjects = (
        ("", (g,), _grid_holds, _GRID_DETAILS),
        ("microgrids", s.microgrids, _microgrid_holds, _MICROGRID_DETAILS),
        ("prospect", s.prospect, _framing_holds, _FRAMING_DETAILS),
    )
    return [
        Check(code, ok, (f"{name}[{i}]." if name else "") + detail.format(x=x, g=g))
        for name, entries, holds, details in subjects
        for i, x in enumerate(entries)
        if x is not None
        for ok, (code, detail) in zip(holds(x, g), details)
    ]


def violations(s: Scenario) -> list[Check]:
    """Only the failed checks."""
    return [c for c in scenario_checks(s) if not c.ok]


def validate_scenario(s: Scenario) -> Scenario:
    """Return ``s`` unchanged, or raise ``InvalidScenario`` listing every failure.

    A valid scenario costs one boolean pass over the rules; the checks
    and their messages are built only when it fails.
    """
    if not _valid(s):
        raise InvalidScenario(violations(s))
    return s


# ---------------------------------------------------------------------------
# configuration files
# ---------------------------------------------------------------------------


def _prospect_from_dict(d: dict | None) -> ProspectParams | None:
    if d is None:
        return None
    return ProspectParams(
        r=float(d["r"]),
        lam=float(d["lambda"]),
        beta_plus=float(d["beta_plus"]),
        beta_minus=float(d["beta_minus"]),
    )


def scenario_from_dict(data: dict) -> Scenario:
    """Build a scenario from parsed JSON.

    Expected shape::

        {"grid": {"rho": .., "rho_c": .., "theta": .., "l_c": ..},
         "microgrids": [{"q": .., "q_max": ..}, ...],
         "prospect": [{...} | null, ...]}        # optional key
    """
    g = data["grid"]
    microgrids = tuple(
        MicrogridConfig(q=float(m["q"]), q_max=float(m["q_max"]))
        for m in data["microgrids"]
    )
    grid = GridParams(
        rho=float(g["rho"]),
        rho_c=float(g["rho_c"]),
        theta=float(g["theta"]),
        l_c=float(g["l_c"]),
    )
    prospect = tuple(_prospect_from_dict(p) for p in data.get("prospect", []))
    return Scenario(grid=grid, microgrids=microgrids, prospect=prospect)


def load_scenario(path: str | Path) -> Scenario:
    with open(path) as f:
        return scenario_from_dict(json.load(f))


# ---------------------------------------------------------------------------
# ex-post payoffs
# ---------------------------------------------------------------------------


def purchased_energy(
    profile: StrategyProfile, surpluses: Sequence[float], grid: GridParams
) -> tuple[float, ...]:
    """Energy the utility buys back from each player in an emergency.

    If total stored energy fits under the critical load everyone sells
    all of their stored energy; otherwise each purchase is reduced by an
    equal 1/N share of the excess and floored at zero.
    """
    if len(profile) != len(surpluses):
        raise ValueError(
            f"profile has {len(profile)} entries but {len(surpluses)} surpluses given"
        )
    stored = tuple(a * float(q) for a, q in zip(profile, surpluses))
    total = sum(stored)
    if total <= grid.l_c:
        return stored
    cut = (total - grid.l_c) / len(profile)
    return tuple(max(x - cut, 0.0) for x in stored)


def realized_utility(
    player: int,
    profile: StrategyProfile,
    surpluses: Sequence[float],
    grid: GridParams,
) -> float:
    """Ex-post revenue of ``player``: immediate sales plus emergency buyback."""
    q = float(surpluses[player])
    sold = grid.rho * q * (1.0 - profile[player])
    bought = purchased_energy(profile, surpluses, grid)[player]
    return sold + grid.theta * grid.rho_c * bought
