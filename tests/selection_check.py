"""Compare the solver's selection with plain alternating rounds on random draws.

Not a test module (pytest does not collect it); run it from the repository
root as::

    PYTHONPATH=src python tests/selection_check.py

Each draw is the default scenario at one reference point R, loss aversion
lambda and emergency price rho_c.  ``iterate_best_response`` misses a draw
when ``helpers.plain_rounds`` (3,000 rounds from (1, 1)) settles and the
solve is unconverged or reports another profile, compared in player order
at 1e-8.  A draw whose plain rounds do not settle is counted as unsettled.
The three sets, drawn in this order from ``random.Random("fold")``:

* fold-band: 400 symmetric draws near a 2-cycle's fold (lambda = 1, R in
  [12.5, 13.2], rho_c in [10.8, 11.0]);
* wide: 300 symmetric draws (R in [5, 16], lambda in [1, 4], rho_c in
  [10.2, 14]);
* mixed: 200 draws with player 2 rational (R in [5, 25], lambda in [1, 4],
  rho_c in [10.2, 14]).
"""

from __future__ import annotations

import random

from gridstore import iterate_best_response

from helpers import plain_rounds, priced_game

ROUNDS = 3_000
ATOL = 1e-8


def _draws(rng: random.Random):
    """(set name, reference, lambda, rho_c, mixed) for every draw of the three sets."""
    for _ in range(400):
        yield "fold-band", rng.uniform(12.5, 13.2), 1.0, rng.uniform(10.8, 11.0), False
    for name, n, r_hi, mixed in (("wide", 300, 16.0, False), ("mixed", 200, 25.0, True)):
        for _ in range(n):
            r, lam, rho_c = rng.uniform(5.0, r_hi), rng.uniform(1.0, 4.0), rng.uniform(10.2, 14.0)
            yield name, r, lam, rho_c, mixed


def main() -> None:
    tally: dict[str, list[int]] = {}  # set name -> [draws, misses, unsettled]
    for name, *row, mixed in _draws(random.Random("fold")):
        s = priced_game(*row, mixed)
        res = iterate_best_response(s)
        reference, settled = plain_rounds(s, ROUNDS)
        counts = tally.setdefault(name, [0, 0, 0])
        counts[0] += 1
        if not settled:
            counts[2] += 1
        elif not res.converged or max(abs(a - b) for a, b in zip(res.profile, reference)) > ATOL:
            counts[1] += 1
    for name, (draws, misses, unsettled) in tally.items():
        print(f"{name:<10} {draws:>4} draws  {misses:>3} misses  {unsettled:>3} unsettled")


if __name__ == "__main__":
    main()
