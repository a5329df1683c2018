"""Parameter sweeps over families of storage-game scenarios.

Four experiment families:

* ``sweep_reference_point``: total stored energy as a shared reference
  point moves, against the rational-game baseline.
* ``sweep_emergency_price``: how strongly that curve reacts to the
  reference point at different emergency prices.
* ``required_emergency_price``: the minimal emergency price whose
  equilibrium covers the critical load, as loss aversion grows.
* ``asymmetric_equilibrium``: one framed and one rational player.

Every family builds each grid point's scenario from its validated base
through one variant step, which changes only the swept fields.  It
solves the points one after another, in grid order, and turns each
solved point into a ``SweepRow`` (or a subclass carrying the family's
extra fields) through one row builder.  The solver is
deterministic, so repeated runs produce byte-identical CSV files.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

from .cgt import EquilibriumResult, enumerate_bne
from .errors import (
    GridStoreError, MissingProspectParams, NoCoveragePrice, NotConverged, require_finite,
)
from .model import (
    GridParams,
    MicrogridConfig,
    ProspectParams,
    Scenario,
    StrategyProfile,
    validate_scenario,
)
from .solver import iterate_best_response

SWEPT_PARAMETERS = (
    "reference_point",
    "emergency_price",
    "reference_point_asymmetric",
)

# Step of the covering-price search: candidates are whole cents.
PRICE_STEP = 0.01
MAX_GRID_VALUES = 10_000


def inclusive_grid(lo: float, hi: float, step: float) -> tuple[float, ...]:
    """``lo``, ``lo + step``, ... through ``hi`` (``step > 0``, ``hi >= lo``), rounded to 12 digits.

    A last value within 1e-9 of a step past ``hi`` is kept.  A non-finite
    argument, ``step <= 0``, ``hi < lo`` or more than ``MAX_GRID_VALUES``
    values raise ``ValueError`` before any is built.
    """
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError("lo, hi and step must be finite")
    if step <= 0.0:
        raise ValueError("step must be > 0")
    if hi < lo:
        raise ValueError("hi must be >= lo")
    span = (hi - lo) / step + 1e-9
    if not span < MAX_GRID_VALUES:
        raise ValueError(f"more than {MAX_GRID_VALUES} grid values")
    return tuple(round(lo + i * step, 12) for i in range(int(span) + 1))


def default_scenario(
    reference: float = 11.5,
    lam: float = 2.25,
    framed: bool = True,
) -> Scenario:
    """Two identical microgrids on the benchmark grid parameters.

    With ``framed`` both players carry prospect parameters; otherwise
    the scenario is purely rational.
    """
    p = ProspectParams(r=reference, lam=lam, beta_plus=0.88, beta_minus=0.88)
    return Scenario(
        grid=GridParams(rho=0.1, rho_c=11.6, theta=0.01, l_c=200.0),
        microgrids=(
            MicrogridConfig(q=120.0, q_max=150.0),
            MicrogridConfig(q=120.0, q_max=150.0),
        ),
        prospect=(p, p) if framed else None,
    )


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a base scenario plus the parameter grid to walk."""

    base: Scenario
    swept_parameter: str
    values: tuple[float, ...]
    # Second axis of the emergency-price sweep, and of no other: the
    # reference points evaluated at each swept price.
    reference_values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.swept_parameter not in SWEPT_PARAMETERS:
            raise ValueError(
                f"swept_parameter must be one of {SWEPT_PARAMETERS}, "
                f"got {self.swept_parameter!r}"
            )
        object.__setattr__(self, "values", _grid("values", self.values))
        if (self.reference_values is None) == (self.swept_parameter == "emergency_price"):
            raise ValueError(
                "reference_values are required by the emergency_price sweep and taken by "
                f"no other, got {self.reference_values!r} for {self.swept_parameter!r}"
            )
        if self.reference_values is not None:
            object.__setattr__(
                self, "reference_values", _grid("reference_values", self.reference_values)
            )


def _grid(name: str, values: Iterable[float]) -> tuple[float, ...]:
    """``values`` as floats; they must be nonempty, finite and strictly increasing."""
    values = tuple(float(v) for v in values)
    if not values:
        raise ValueError(f"{name} must be nonempty")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} must be finite")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{name} must be strictly increasing")
    return values


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One solved scenario, flattened to the canonical CSV columns."""

    sweep_param: str
    value: float | None
    alpha_1: float
    alpha_2: float
    total_stored_kwh: float
    expected_utility_1: float
    expected_utility_2: float
    classification: str
    converged: bool
    iterations: int


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


@dataclass(frozen=True, kw_only=True, slots=True)
class EmergencyPriceRow(SweepRow):
    """Stored total at one (emergency price, reference point) pair.

    ``value`` is the reference point.  ``pct_deviation_from_r_min`` is
    the signed percent change of the stored total relative to the same
    price's total at the smallest reference point in the grid.
    """

    rho_c: float
    pct_deviation_from_r_min: float

    @property
    def reference(self) -> float:
        return self.value


@dataclass(frozen=True, kw_only=True, slots=True)
class RequiredPriceRow(SweepRow):
    """Minimal covering emergency price for one loss-aversion level.

    ``value`` is the loss-aversion level.
    """

    reference: float
    rho_c_star: float

    @property
    def lam(self) -> float:
        return self.value


# --- solving helpers -------------------------------------------------


def _total_stored(profile: StrategyProfile, scenario: Scenario) -> float:
    (a1, a2), (m1, m2) = profile, scenario.microgrids
    return 0.0 + a1 * m1.q + a2 * m2.q  # from 0, as ``sum`` adds: -0.0 totals 0.0


def _row(
    sweep_param: str,
    value: float | None,
    scenario: Scenario,
    res: EquilibriumResult | None = None,
    row_type: type[SweepRow] = SweepRow,
    **extra,
) -> SweepRow:
    """Flatten one solved point into the canonical columns plus ``extra``.

    Without ``res`` the row solves ``scenario`` itself.
    """
    if res is None:
        res = iterate_best_response(scenario)
    return row_type(
        sweep_param=sweep_param,
        value=value,
        alpha_1=res.profile[0],
        alpha_2=res.profile[1],
        total_stored_kwh=_total_stored(res.profile, scenario),
        expected_utility_1=res.expected_utilities[0],
        expected_utility_2=res.expected_utilities[1],
        classification=res.classification,
        converged=res.converged,
        iterations=res.iterations,
        **extra,
    )


def _variant(
    base: Scenario, rho_c: float | None = None, r: float | None = None, lam: float | None = None
) -> Scenario:
    """``base`` with emergency price ``rho_c``, and reference ``r`` and loss
    aversion ``lam`` for every framed player, each when given; nothing else
    changes, and players that share one framing in ``base`` still do."""
    g, (p1, p2) = base.grid, base.prospect
    grid = g if rho_c is None else GridParams(g.rho, rho_c, g.theta, g.l_c)
    if r is not None or lam is not None:

        def frame(p: ProspectParams | None) -> ProspectParams | None:
            if p is None:
                return None
            return ProspectParams(
                p.r if r is None else r, p.lam if lam is None else lam, p.beta_plus, p.beta_minus
            )

        p1, p2 = (frame(p1),) * 2 if p2 is p1 else (frame(p1), frame(p2))
    return Scenario(grid, base.microgrids, (p1, p2))


def _expect_kind(spec: SweepSpec, kind: str) -> None:
    if spec.swept_parameter != kind:
        raise ValueError(
            f"spec sweeps {spec.swept_parameter!r}, expected {kind!r}"
        )


# --- experiment families ---------------------------------------------


def sweep_reference_point(spec: SweepSpec) -> list[SweepRow]:
    """Equilibrium per reference point, preceded by the rational baseline.

    The baseline row repeats the first closed-form equilibrium of the
    unframed game; it does not depend on the swept reference.
    """
    _expect_kind(spec, "reference_point")
    base = validate_scenario(spec.base)
    for p in (0, 1):  # the reference sweep frames both players
        base.prospect_of(p)

    closed = enumerate_bne(base)
    if not closed:
        raise GridStoreError("base scenario has no closed-form equilibrium")
    baseline = _row("cgt_baseline", None, base, closed[0])
    return [baseline] + [_row("reference_point", r, _variant(base, r=r)) for r in spec.values]


def sweep_emergency_price(spec: SweepSpec) -> list[EmergencyPriceRow]:
    """Stored totals on the (emergency price, reference point) grid.

    ``spec.values`` holds the prices, ``spec.reference_values`` the
    reference grid applied to both framed players at each price.
    """
    _expect_kind(spec, "emergency_price")
    # Every swept price must leave a valid scenario (incentive
    # condition included) before any solve starts.
    priced = [validate_scenario(_variant(spec.base, rho_c)) for rho_c in spec.values]
    for p in (0, 1):  # the price sweep frames both players
        spec.base.prospect_of(p)

    rows = []
    for rho_c, base in zip(spec.values, priced):
        label = f"emergency_price:rho_c={rho_c:g}"
        # Deviation is measured against this price's total at the first
        # (smallest) reference point.
        anchor = None
        for r in spec.reference_values:
            scenario = _variant(base, r=r)
            res = iterate_best_response(scenario)
            total = _total_stored(res.profile, scenario)
            if anchor is None:
                anchor = total
            pct = 100.0 * (total - anchor) / anchor if anchor else math.nan
            extra = {"rho_c": rho_c, "pct_deviation_from_r_min": pct}
            rows.append(_row(label, r, scenario, res, EmergencyPriceRow, **extra))
    return rows


def max_deviation_by_price(rows: Iterable[EmergencyPriceRow]) -> dict[float, float]:
    """Largest absolute reference-point deviation (percent) per price."""
    out: dict[float, float] = {}
    for row in rows:
        dev = abs(row.pct_deviation_from_r_min)
        if not math.isnan(dev):
            out[row.rho_c] = max(out.get(row.rho_c, 0.0), dev)
    return out


def required_emergency_price(
    base: Scenario,
    lambda_values: Sequence[float],
    reference: float | None = None,
    price_hi: float = 30.0,
) -> list[RequiredPriceRow]:
    """Minimal emergency price whose equilibrium covers the critical load.

    ``reference`` is applied to every framed player; without it they keep
    the one they share in ``base`` (``ValueError`` if theirs differ).

    Candidate prices are whole cents (``PRICE_STEP``) from the first one
    above rho/theta (the smallest price respecting the incentive
    condition) to ``price_hi`` rounded up to a cent.  For each
    loss-aversion level the search steps upward from the first cent, 50
    cents at a time (or 1/64 of the price, once that is larger), to the
    first cent that covers.  Between that cent and the one it stepped
    from it reads the gap, stored total minus critical load, and steps
    by false position in the Illinois form (Dowell & Jarratt, BIT 11,
    1971): the next cent is the gaps' linear crossing, held strictly
    inside the bracket, and an end kept twice in a row has its gap
    halved.  The stored total is near-linear close to the load, so the
    first such cent usually lands on the answer or next to it.  Each
    price is solved at most once.  Raises NoCoveragePrice when the
    strides reach the top cent and it leaves the load uncovered, and
    NotConverged when the solve at the star or the cent below stopped
    at the round cap.

    The reported price covers the load, and the cent below it does not
    (or lies at or under the incentive floor): it is a local crossing.
    It is the first crossing whenever the stored total rises with the
    price, but not in general.  The framed game can have several
    equilibria at one price (for example a symmetric one and two
    one-sided ones), and "its equilibrium" is the one
    ``iterate_best_response`` reaches from (1, 1).  Where that selection
    jumps between branches the stored total is not monotone in the
    price, and a window of covering cents narrower than a stride can be
    stepped over.
    """
    framed = [p for p in base.prospect if p is not None]
    if not framed:
        raise MissingProspectParams(0)
    lams = _grid("lambda_values", lambda_values)

    # Each loss-aversion level's scenario is built once and validated
    # with the reference (when given) applied before any solve, so a
    # non-finite reference or a lambda below 1 is refused.
    r = None if reference is None else float(reference)
    scenarios = [validate_scenario(_variant(base, r=r, lam=lam)) for lam in lams]
    if reference is None and len({p.r for p in framed}) > 1:
        shown = ", ".join(f"{p.r:g}" for p in framed)
        raise ValueError(f"framed players' reference points differ ({shown}); pass one reference")
    reference = float(framed[0].r if reference is None else reference)
    target = base.grid.l_c
    lo_floor = base.grid.rho / base.grid.theta * (1.0 + 1e-6)
    if not (math.isfinite(price_hi) and price_hi > lo_floor):
        raise ValueError(
            f"price_hi = {price_hi:g} must be finite and exceed rho/theta = {lo_floor:.6g}"
        )

    # The search walks integer cent indices, so every price it solves
    # is a whole cent; the top one stands in for price_hi.  Past the
    # largest float's hundredth a price has no index, so they stop there.
    top = sys.float_info.max
    first, last = (math.ceil(min(p / PRICE_STEP, top) - 1e-9) for p in (lo_floor, price_hi))
    label = f"required_emergency_price:R={reference:g}"  # one string shared by the rows

    def search(lam: float, framed_base: Scenario) -> RequiredPriceRow:
        solved: dict[float, EquilibriumResult] = {}  # the row reuses the solve at the star

        def solve(rho_c: float) -> EquilibriumResult:  # a dict: cheaper to set up than a cache
            if rho_c not in solved:
                solved[rho_c] = iterate_best_response(_variant(framed_base, rho_c))
            return solved[rho_c]

        def price(i: int) -> float:
            return round(i * PRICE_STEP, 2)

        def gap(i: int) -> float:  # the price leaves the surpluses alone
            return _total_stored(solve(price(i)).profile, base) - target

        # Cent lo never covers (or lies under the floor).  Strides grow
        # with the price above 32, so the solves grow with the logarithm
        # of the price range, not with the range.
        lo, hi = first - 1, first
        while not (g_hi := gap(hi)) >= 0.0:
            if hi == last:
                raise NoCoveragePrice(lam, price_hi)
            lo, g_lo = hi, g_hi
            hi = min(hi + max(50, hi // 64), last)
        # lo lies under the floor only when hi is the first cent, so
        # inside this loop both ends carry a gap.
        moved = 0  # the end the last step replaced: +1 hi, -1 lo
        while hi - lo > 1:
            mid = hi - round(g_hi * (hi - lo) / (g_hi - g_lo))
            mid = min(max(mid, lo + 1), hi - 1)
            if (g := gap(mid)) >= 0.0:
                if moved == 1:  # lo kept twice
                    g_lo *= 0.5
                hi, g_hi, moved = mid, g, 1
            else:
                if moved == -1:  # hi kept twice
                    g_hi *= 0.5
                lo, g_lo, moved = mid, g, -1
        for i in (lo, hi) if lo >= first else (hi,):  # a moving profile decides nothing
            if not solve(price(i)).converged:
                raise NotConverged(lam, price(i))
        star = price(hi)
        return _row(
            label,
            lam,
            framed_base,
            solve(star),
            RequiredPriceRow,
            reference=reference,
            rho_c_star=star,
        )

    return [search(lam, scenario) for lam, scenario in zip(lams, scenarios)]


def asymmetric_equilibrium(
    base: Scenario,
    r_values: Sequence[float],
) -> list[SweepRow]:
    """Mixed game: player 1 frames outcomes at each reference, player 2 stays rational."""
    base = validate_scenario(base)
    one_framed = Scenario(base.grid, base.microgrids, (base.prospect_of(0), None))
    values = _grid("r_values", r_values)
    return [_row("reference_point_asymmetric", r, _variant(one_framed, r=r)) for r in values]


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Dispatch a sweep by its swept parameter; returns the family's rows."""
    if spec.swept_parameter == "reference_point":
        return sweep_reference_point(spec)
    if spec.swept_parameter == "emergency_price":
        return sweep_emergency_price(spec)
    return asymmetric_equilibrium(spec.base, spec.values)


# --- CSV serialization ------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def _write_csv(rows: Iterable[SweepRow], path: str | Path, header: tuple[str, ...]) -> Path:
    # Checked before the file is opened, so a non-finite result leaves
    # no partial CSV behind.
    table = [[getattr(row, column) for column in header] for row in rows]
    require_finite(*(x for line in table for x in line if isinstance(x, float)))
    path = Path(path)
    with path.open("w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(x) for x in line] for line in table)
    return path


def write_sweep_csv(rows: Iterable[SweepRow], path: str | Path) -> Path:
    """Canonical sweep table; column order is part of the contract."""
    return _write_csv(rows, path, CSV_COLUMNS)


def write_required_price_csv(rows: Iterable[RequiredPriceRow], path: str | Path) -> Path:
    """Covering-price table: canonical columns plus rho_c_star after value."""
    return _write_csv(rows, path, CSV_COLUMNS[:2] + ("rho_c_star",) + CSV_COLUMNS[2:])
