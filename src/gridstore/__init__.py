"""Storage equilibria for a two-microgrid emergency buyback game.

Classical and prospect-theoretic Bayesian equilibria in closed form,
independent numerical oracles to check them, and the parameter sweeps
built on top.
"""

from .cgt import (
    BestResponseCase,
    EquilibriumResult,
    best_response_cgt,
    bne_candidates,
    enumerate_bne,
    expected_utility_cgt,
    verify_bne,
)
from .errors import (
    DegenerateOpponentStrategy,
    GridStoreError,
    InvalidScenario,
    MissingProspectParams,
    NoCoveragePrice,
    NotTwoPlayer,
)
from .experiments import (
    EmergencyPriceRow,
    RequiredPriceRow,
    SweepRow,
    SweepSpec,
    asymmetric_equilibrium,
    default_scenario,
    max_deviation_by_price,
    required_emergency_price,
    run_sweep,
    sweep_emergency_price,
    sweep_reference_point,
    write_required_price_csv,
    write_sweep_csv,
)
from .model import (
    Belief,
    GridParams,
    MicrogridConfig,
    ProspectParams,
    Scenario,
    StrategyProfile,
    load_scenario,
    purchased_energy,
    realized_utility,
    scenario_from_dict,
    validate_scenario,
    violations,
)
from .pt import PtBranchTerms, expected_pt_utility, pt_branch_terms, pt_value
from .solver import (
    grid_best_response,
    iterate_best_response,
    quadrature_expected_utility,
)

__version__ = "0.1.0"

__all__ = [
    "Belief",
    "BestResponseCase",
    "DegenerateOpponentStrategy",
    "EmergencyPriceRow",
    "EquilibriumResult",
    "GridParams",
    "GridStoreError",
    "InvalidScenario",
    "MicrogridConfig",
    "MissingProspectParams",
    "NoCoveragePrice",
    "NotTwoPlayer",
    "ProspectParams",
    "PtBranchTerms",
    "RequiredPriceRow",
    "Scenario",
    "StrategyProfile",
    "SweepRow",
    "SweepSpec",
    "asymmetric_equilibrium",
    "best_response_cgt",
    "bne_candidates",
    "default_scenario",
    "enumerate_bne",
    "expected_pt_utility",
    "expected_utility_cgt",
    "grid_best_response",
    "iterate_best_response",
    "load_scenario",
    "max_deviation_by_price",
    "pt_branch_terms",
    "pt_value",
    "purchased_energy",
    "quadrature_expected_utility",
    "realized_utility",
    "required_emergency_price",
    "run_sweep",
    "scenario_from_dict",
    "sweep_emergency_price",
    "sweep_reference_point",
    "validate_scenario",
    "verify_bne",
    "violations",
    "write_required_price_csv",
    "write_sweep_csv",
]
