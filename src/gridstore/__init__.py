"""Storage equilibria for a two-microgrid emergency buyback game.

Classical and prospect-theoretic Bayesian equilibria in closed form,
independent numerical oracles to check them, and the parameter sweeps
built on top.

Every export is loaded from its module on first use (PEP 562), so the
rational game and validation never import the framed solver.  The
package runs on plain floats; only the quadrature oracle needs SciPy.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the module that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "BestResponseCase",
            "EquilibriumResult",
            "best_response_cgt",
            "bne_candidates",
            "enumerate_bne",
            "expected_utility_cgt",
            "verify_bne",
        ),
        "cgt",
    ),
    **dict.fromkeys(
        (
            "GridStoreError",
            "InvalidScenario",
            "MissingProspectParams",
            "NoCoveragePrice",
            "NotConverged",
            "NotTwoPlayer",
        ),
        "errors",
    ),
    **dict.fromkeys(
        (
            "EmergencyPriceRow",
            "RequiredPriceRow",
            "SweepRow",
            "SweepSpec",
            "asymmetric_equilibrium",
            "default_scenario",
            "max_deviation_by_price",
            "required_emergency_price",
            "run_sweep",
            "sweep_emergency_price",
            "sweep_reference_point",
            "write_required_price_csv",
            "write_sweep_csv",
        ),
        "experiments",
    ),
    **dict.fromkeys(
        (
            "GridParams",
            "MicrogridConfig",
            "ProspectParams",
            "Scenario",
            "StrategyProfile",
            "load_scenario",
            "purchased_energy",
            "realized_utility",
            "scenario_from_dict",
            "validate_scenario",
            "violations",
        ),
        "model",
    ),
    **dict.fromkeys(("expected_pt_utility", "pt_value"), "pt"),
    **dict.fromkeys(
        ("grid_best_response", "iterate_best_response", "quadrature_expected_utility"),
        "solver",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
