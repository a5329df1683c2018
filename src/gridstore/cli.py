"""Command-line entry point.

Subcommands cover scenario validation, closed-form equilibrium
enumeration, the iterated prospect-theory solve, and the sweep
experiments.  Scenarios come from a JSON config file; ``--override``
patches individual scalars with dotted paths (``grid.rho_c=12``,
``prospect.0.lambda=4``) so sweeps can be scripted without editing
files.

Exit codes: 0 success, 2 unreadable config or bad flag values, 3
scenario validation failure (including a config without exactly two
microgrids or two prospect entries), 4 solver non-convergence
(including an unreachable coverage price) or a result that overflows
floating point: every number a command prints or writes is checked to
be finite first (``enumerate``'s candidates are finite by construction).

Only ``solve-pt``, ``sweep`` and ``find-price`` import the framed solver.
Every command runs on plain Python floats.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .cgt import bne_candidates, enumerate_bne, verify_bne
from .errors import (
    InvalidScenario,
    MissingProspectParams,
    NoCoveragePrice,
    NotConverged,
    NotTwoPlayer,
    require_finite,
)
from .model import Scenario, StrategyProfile, scenario_from_dict, scenario_checks, validate_scenario

_SWEEP_PARAMS = {
    "reference-point": "reference_point",
    "emergency-price": "emergency_price",
    "reference-point-asymmetric": "reference_point_asymmetric",
}


class _CliError(Exception):
    """Anything wrong with the invocation itself rather than the model."""


# --- config plumbing ---------------------------------------------------


def _apply_overrides(data: dict, overrides: Sequence[str]) -> dict:
    """Patch scalars addressed by dotted paths; paths must already exist."""
    for item in overrides:
        path, sep, raw = item.partition("=")
        if not sep or not path:
            raise _CliError(f"override {item!r} is not of the form path=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        segments = path.split(".")
        try:
            for seg in segments[:-1]:
                node = node[int(seg)] if isinstance(node, list) else node[seg]
            leaf = segments[-1]
            key = int(leaf) if isinstance(node, list) else leaf
            # Existence check so typos fail loudly instead of adding keys.
            node[key]
            node[key] = value
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise _CliError(f"override path {path!r} not found in config") from exc
    return data


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    try:
        with open(args.config) as f:
            data = json.load(f)
    except OSError as exc:
        raise _CliError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliError(f"config is not valid JSON: {exc}") from exc
    data = _apply_overrides(data, args.override)
    try:
        return scenario_from_dict(data)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise _CliError(f"config does not match the scenario schema: {exc!r}") from exc


def _inclusive_grid(lo: float, hi: float, step: float) -> tuple[float, ...]:
    from .experiments import inclusive_grid

    try:
        return inclusive_grid(lo, hi, step)
    except ValueError as exc:
        raise _CliError(f"--from, --to and --step: {exc}") from exc


# --- subcommand handlers -----------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    s = _scenario_from_args(args)
    checks = scenario_checks(s)
    failed = 0
    for c in checks:
        mark = "ok" if c.ok else "FAIL"
        print(f"{mark:<5} {c.code:<26} {c.detail}")
        failed += 0 if c.ok else 1
    if failed:
        print(f"scenario invalid ({failed} failed check{'s' if failed > 1 else ''})")
        return 3
    print("scenario valid")
    return 0


_CGT_HEADER = (
    f"{'classification':<14}  {'alpha_1':>8}  {'alpha_2':>8}  "
    f"{'expected_utility_1':>18}  {'expected_utility_2':>18}  conditions"
)


def _cmd_solve_cgt(args: argparse.Namespace) -> int:
    s = validate_scenario(_scenario_from_args(args))
    results = enumerate_bne(s)
    require_finite(*(x for res in results for x in (*res.profile, *res.expected_utilities)))
    if not results:
        print("no closed-form equilibrium verified")
        return 0
    print(_CGT_HEADER)
    for res in results:
        conds = ",".join(res.conditions) or "-"
        print(
            f"{res.classification:<14}  {res.profile[0]:>8.6f}  {res.profile[1]:>8.6f}  "
            f"{res.expected_utilities[0]:>18.9g}  {res.expected_utilities[1]:>18.9g}  {conds}"
        )
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    s = validate_scenario(_scenario_from_args(args))
    print(
        f"{'candidate':<9}  {'alpha_1':>9}  {'alpha_2':>9}  "
        f"{'in_range':<8}  {'equilibrium':<11}  conditions"
    )
    for classification, cand, conditions in bne_candidates(s):
        in_range = all(0.0 <= a <= 1.0 for a in cand)
        if in_range:
            verdict = "yes" if verify_bne(cand, s) else "no"
        else:
            verdict = "-"
        conds = ",".join(conditions) or "-"
        print(
            f"{classification:<9}  {cand[0]:>9.6f}  {cand[1]:>9.6f}  "
            f"{'yes' if in_range else 'no':<8}  {verdict:<11}  {conds}"
        )
    return 0


def _cmd_solve_pt(args: argparse.Namespace) -> int:
    from .solver import MAX_ROUNDS, iterate_best_response

    s = validate_scenario(_scenario_from_args(args))
    initial = None
    if args.start is not None:
        try:
            a1, a2 = (float(x) for x in args.start.split(","))
        except ValueError as exc:
            raise _CliError("--start must be two comma-separated numbers") from exc
        if not all(0.0 <= a <= 1.0 for a in (a1, a2)):
            raise _CliError("--start fractions must lie in [0, 1]")
        initial = StrategyProfile.of(a1, a2)
    res = iterate_best_response(s, initial=initial)
    require_finite(*res.profile, res.residual, *res.expected_utilities)
    print(f"{'alpha_1':<18} {res.profile[0]:.6f}")
    print(f"{'alpha_2':<18} {res.profile[1]:.6f}")
    print(f"{'classification':<18} {res.classification}")
    print(f"{'converged':<18} {'true' if res.converged else 'false'}")
    print(f"{'iterations':<18} {res.iterations}")
    print(f"{'residual':<18} {res.residual:.9g}")
    print(f"{'expected_utility_1':<18} {res.expected_utilities[0]:.9g}")
    print(f"{'expected_utility_2':<18} {res.expected_utilities[1]:.9g}")
    if not res.converged:
        print(
            f"error: no fixed point within {MAX_ROUNDS} rounds",
            file=sys.stderr,
        )
        return 4
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments import SweepSpec, run_sweep, write_sweep_csv

    s = _scenario_from_args(args)  # each family validates the scenarios it solves
    kind = _SWEEP_PARAMS[args.param]
    grid = _inclusive_grid(args.from_, args.to, args.step)
    values = grid
    reference_values = None
    if kind == "emergency_price":
        if not args.values:
            raise _CliError("--values (the swept prices) is required for emergency-price")
        try:
            values = tuple(float(v) for v in args.values.split(","))
        except ValueError as exc:
            raise _CliError("--values must be comma-separated numbers") from exc
        reference_values = grid
    elif args.values:
        raise _CliError("--values only applies to --param emergency-price")
    try:
        spec = SweepSpec(
            base=s,
            swept_parameter=kind,
            values=values,
            reference_values=reference_values,
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    write_sweep_csv(run_sweep(spec), args.out)
    print(args.out)
    return 0


def _cmd_find_price(args: argparse.Namespace) -> int:
    from .experiments import required_emergency_price, write_required_price_csv

    s = _scenario_from_args(args)
    lams = _inclusive_grid(args.from_, args.to, args.step)
    try:
        rows = required_emergency_price(
            s, lams, reference=args.reference, price_hi=args.price_max
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    write_required_price_csv(rows, args.out)
    print(args.out)
    return 0


# --- parser ------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="scenario JSON file")
    sub.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="PATH=VALUE",
        help="patch a config scalar by dotted path (repeatable)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridstore",
        description="Equilibria of the two-microgrid emergency storage game.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check every scenario invariant")
    _add_common(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("solve-cgt", help="closed-form equilibria of the rational game")
    _add_common(p)
    p.set_defaults(handler=_cmd_solve_cgt)

    p = sub.add_parser("enumerate", help="all closed-form candidates with diagnostics")
    _add_common(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("solve-pt", help="iterated best responses with framing")
    _add_common(p)
    p.add_argument("--start", default=None, metavar="A1,A2", help="initial profile")
    p.set_defaults(handler=_cmd_solve_pt)

    p = sub.add_parser("sweep", help="run one sweep family and write its CSV")
    _add_common(p)
    p.add_argument("--param", required=True, choices=sorted(_SWEEP_PARAMS))
    p.add_argument("--from", dest="from_", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument(
        "--values",
        default=None,
        help="comma-separated emergency prices (emergency-price sweeps)",
    )
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser(
        "find-price", help="minimal emergency price covering the critical load"
    )
    _add_common(p)
    p.add_argument("--from", dest="from_", type=float, default=1.0, help="first loss-aversion value")
    p.add_argument("--to", type=float, default=4.0, help="last loss-aversion value")
    p.add_argument("--step", type=float, default=0.5)
    p.add_argument(
        "--reference",
        type=float,
        default=None,
        help="reference point for framed players (default: theirs, which must be equal)",
    )
    p.add_argument("--price-max", type=float, default=30.0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=_cmd_find_price)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse and execute one invocation; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidScenario, MissingProspectParams, NotTwoPlayer) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NoCoveragePrice, NotConverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (OverflowError, FloatingPointError) as exc:
        # A finite config can still drive a result past the float range.
        print(f"error: result overflows floating point: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
