"""Run the full sweep battery with the documented default grids.

Writes one CSV per experiment family into --out-dir and prints a short
summary of each. The grids match the reported protocol: reference
points 5..16 step 0.25, emergency prices {10.2, 11, 12} at loss
aversion 4, loss aversion 1..4 step 0.5 at references 11.5 and 12.5,
and the asymmetric game over references 5..25 step 0.5.
"""

import argparse
from pathlib import Path

from gridstore.experiments import (
    SweepSpec,
    asymmetric_equilibrium,
    default_scenario,
    inclusive_grid,
    max_deviation_by_price,
    required_emergency_price,
    sweep_emergency_price,
    sweep_reference_point,
    write_required_price_csv,
    write_sweep_csv,
)

EXPERIMENTS = ("reference-sweep", "price-sensitivity", "coverage-price", "asymmetric", "all")


def reference_sweep(out_dir: Path) -> None:
    spec = SweepSpec(
        base=default_scenario(),
        swept_parameter="reference_point",
        values=inclusive_grid(5.0, 16.0, 0.25),
    )
    rows = sweep_reference_point(spec)
    path = write_sweep_csv(rows, out_dir / "reference_sweep.csv")
    baseline, swept = rows[0], rows[1:]
    lo = min(swept, key=lambda r: r.total_stored_kwh)
    hi = max(swept, key=lambda r: r.total_stored_kwh)
    print(f"reference sweep -> {path}")
    print(f"  rational baseline total: {baseline.total_stored_kwh:.2f} kWh")
    print(f"  minimum {lo.total_stored_kwh:.2f} kWh at R={lo.value:g}")
    print(f"  maximum {hi.total_stored_kwh:.2f} kWh at R={hi.value:g}")
    print(f"  final   {swept[-1].total_stored_kwh:.2f} kWh at R={swept[-1].value:g}")


def price_sensitivity(out_dir: Path) -> None:
    spec = SweepSpec(
        base=default_scenario(lam=4.0),
        swept_parameter="emergency_price",
        values=(10.2, 11.0, 12.0),
        reference_values=inclusive_grid(5.0, 16.0, 0.25),
    )
    rows = sweep_emergency_price(spec)
    path = write_sweep_csv(rows, out_dir / "price_sensitivity.csv")
    print(f"price sensitivity -> {path}")
    for rho_c, dev in sorted(max_deviation_by_price(rows).items()):
        print(f"  rho_c={rho_c:g}: max reference-point deviation {dev:.2f}%")


def coverage_price(out_dir: Path) -> None:
    lams = inclusive_grid(1.0, 4.0, 0.5)
    for reference in (11.5, 12.5):
        rows = required_emergency_price(default_scenario(reference=reference), lams)
        path = out_dir / f"coverage_price_R{reference:g}.csv"
        write_required_price_csv(rows, path)
        stars = ", ".join(f"{r.rho_c_star:.2f}" for r in rows)
        print(f"coverage price (R={reference:g}) -> {path}")
        print(f"  lambda {lams[0]:g}..{lams[-1]:g}: rho_c* = {stars}")


def asymmetric(out_dir: Path) -> None:
    rows = asymmetric_equilibrium(default_scenario(), inclusive_grid(5.0, 25.0, 0.5))
    path = out_dir / "asymmetric.csv"
    write_sweep_csv(rows, path)
    print(f"asymmetric game -> {path}")
    for r in rows:
        if r.value in (13.0, 25.0):
            print(
                f"  R={r.value:g}: framed player {r.alpha_1:.4f}, "
                f"rational player {r.alpha_2:.4f}"
            )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--experiment", choices=EXPERIMENTS, default="all")
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    runners = {
        "reference-sweep": reference_sweep,
        "price-sensitivity": price_sensitivity,
        "coverage-price": coverage_price,
        "asymmetric": asymmetric,
    }
    names = runners if args.experiment == "all" else [args.experiment]
    for name in names:
        runners[name](args.out_dir)


if __name__ == "__main__":
    main()
