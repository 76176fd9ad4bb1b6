"""Consensus-based energy management: deterministic simulator and verification toolkit."""

from .best_response import (
    consumer_response,
    generator_response_corrected,
    generator_response_original,
    lambda_init,
)
from .engine import (
    InvalidScenarioError,
    IterationRecord,
    RunResult,
    lambda_step,
    mismatch,
    power_step,
    run,
)
from .oracle import (
    BracketError,
    BruteForceResult,
    CentralSolution,
    InfeasibleScenarioError,
    KktReport,
    brute_force_reference,
    implied_prices,
    kkt_check,
    objective_value,
    solve_centralized,
)
from .presets import random_scenario, table1_scenario
from .scenario import (
    ConsumerParams,
    Digraph,
    GeneratorParams,
    NodeKind,
    Scenario,
    Violation,
    WeightMatrices,
    build_uniform_weights,
    check_feasibility_condition,
    load_scenario,
    ring_digraph,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)

__version__ = "0.1.0"
