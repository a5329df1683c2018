"""Exception types raised across the package, and the finiteness rule for results."""

from __future__ import annotations

import math


class GridStoreError(Exception):
    """Base class for every error raised by this package."""


class InvalidScenario(GridStoreError):
    """A scenario violates one or more construction invariants.

    Carries the failed checks so callers can report every violation at
    once instead of stopping at the first.
    """

    def __init__(self, failures):
        self.failures = list(failures)
        lines = "; ".join(f"{c.code}: {c.detail}" for c in self.failures)
        super().__init__(f"invalid scenario ({lines})")


class NotTwoPlayer(GridStoreError):
    """An operation that needs exactly two players got something else."""


class MissingProspectParams(GridStoreError):
    """A framed evaluation was requested for a player without prospect parameters."""

    def __init__(self, player: int):
        self.player = player
        super().__init__(f"player {player} has no prospect parameters")


class NoCoveragePrice(GridStoreError):
    """The covering-price search's strides reached the ceiling's cent, which does not cover.

    Cents between strides are not solved, so a window of covering cents
    narrower than a stride can lie below the ceiling.
    """

    def __init__(self, lam: float, price_hi: float):
        self.lam = lam
        self.price_hi = price_hi
        super().__init__(
            f"total stored never reaches the critical load for loss aversion "
            f"{lam:g} with emergency price up to {price_hi:g}"
        )


class NotConverged(GridStoreError):
    """A covering-price solve stopped at the round cap, so it cannot decide coverage."""

    def __init__(self, lam: float, price: float):
        self.lam, self.price = lam, price
        super().__init__(
            f"the equilibrium for loss aversion {lam:g} at emergency price {price:.15g} "
            "is still moving at the round cap"
        )


def require_finite(*values: float) -> None:
    """Raise ``FloatingPointError`` unless every value is finite.

    The CLI and the CSV writers call it on the results they print or
    write, so an overflow anywhere upstream ends the command instead of
    reaching the output as inf or NaN.
    """
    for x in values:
        if not math.isfinite(x):
            raise FloatingPointError(f"{x!r} is not a finite number")
