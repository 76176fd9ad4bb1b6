"""The verdicts on fixed points: a run's summary and the counterexample's contradiction test."""

from __future__ import annotations

import numpy as np

from . import best_response, engine, oracle
from .scenario import Scenario

# spread of loss-adjusted marginal costs across interior generators above
# which a fixed point is flagged as inconsistent with optimality
PRICE_DISAGREEMENT_TOL = 1e-3

# a contradiction is exhibited when all three hold: the original update's
# implied prices at the optimum spread by at least ORIGINAL_SPREAD_MIN, the
# original fixed point leaves a generator stationarity residual of at least
# ORIGINAL_STATIONARITY_MIN, and the corrected fixed point certifies to
# CORRECTED_RESIDUAL_MAX
ORIGINAL_SPREAD_MIN = 0.1
ORIGINAL_STATIONARITY_MIN = 1e-2
CORRECTED_RESIDUAL_MAX = 1e-4


def interior(scenario: Scenario, P_gen: np.ndarray) -> np.ndarray:
    """Whether each generator's power is inside its box by more than ACTIVE_BOUND_TOL."""
    gens, tol = scenario.agents.by_kind[0][1], oracle.ACTIVE_BOUND_TOL
    return (gens.p_min + tol < P_gen) & (P_gen < gens.p_max - tol)


def implied_prices(scenario: Scenario, P_gen: np.ndarray) -> dict:
    """{variant: its implied generator prices at generator powers P_gen}."""
    return {v: oracle.implied_prices(P_gen, scenario, v) for v in best_response.VARIANTS}


def implied_price_lists(scenario: Scenario, P_gen: np.ndarray) -> dict:
    """{"implied_prices_<variant>": those prices as a list}, the report fields."""
    return {f"implied_prices_{v}": p.tolist() for v, p in implied_prices(scenario, P_gen).items()}


def price_spread(prices: np.ndarray, interior: np.ndarray) -> float:
    """max - min of the interior generators' prices; 0 with fewer than two."""
    vals = prices[interior]
    return float(vals.max() - vals.min()) if vals.size >= 2 else 0.0


def run_summary(scenario: Scenario, result: engine.RunResult) -> dict:
    """The report of one run: how it ended, and both variants' prices at its powers."""
    final = result.final
    P_gen = final.P[scenario.agents.by_kind[0][0]]
    inner = interior(scenario, P_gen)
    summary = {
        "variant": result.variant,
        "terminated": result.terminated,
        "rounds": result.rounds,
        "final_lambda": final.lam.tolist(),
        "final_P": final.P.tolist(),
        "final_xi": final.xi.tolist(),
        "mismatch": final.mismatch,
        "lambda_spread": final.lambda_spread,
        "max_conservation_gap": result.max_conservation_gap,
        "interior_generators": inner.tolist(),
    }
    for variant, prices in implied_prices(scenario, P_gen).items():
        summary[f"implied_prices_{variant}"] = prices.tolist()
        summary[f"implied_price_spread_{variant}"] = price_spread(prices, inner)
    summary["implied_prices_disagree"] = (
        summary["implied_price_spread_corrected"] > PRICE_DISAGREEMENT_TOL)
    return summary


def counterexample(scenario: Scenario) -> dict:
    """The oracle's and both runs' report; `contradiction_exhibited` only if both
    runs end by tolerance. Raises what oracle.solve_centralized raises."""
    sol = oracle.solve_centralized(scenario)
    gen_nodes = scenario.agents.by_kind[0][0]
    P_opt = sol.P[gen_nodes]
    at_opt = implied_prices(scenario, P_opt)
    payload = {
        "oracle": {"lambda": sol.lam, "P": sol.P.tolist(), "objective": sol.objective,
                   "kkt_max_residual": oracle.kkt_check(sol.P, sol.lam, scenario).max_residual},
        "implied_prices_at_oracle_optimum": {v: p.tolist() for v, p in at_opt.items()},
        "original_price_spread_at_optimum": price_spread(at_opt["original"], interior(scenario, P_opt)),
    }

    variants = payload["variants"] = {}
    for variant in best_response.VARIANTS:
        result = engine.run(scenario, variant)
        final = result.final
        entry = variants[variant] = {
            "terminated": result.terminated,
            "rounds": result.rounds,
            "lambda_spread": final.lambda_spread,
            "final_P": final.P.tolist(),
            "mismatch": final.mismatch,
            "lambda_consensus": float(final.lam.mean()),
        }
        if result.terminated == engine.TERMINATED_BY_TOLERANCE:
            entry |= implied_price_lists(scenario, final.P[gen_nodes])
            report = oracle.kkt_check(final.P, entry["lambda_consensus"], scenario)
            entry["kkt_max_residual"] = report.max_residual
            entry["kkt_generator_stationarity"] = np.abs(report.stationarity[gen_nodes]).tolist()

    if all(v["terminated"] == engine.TERMINATED_BY_TOLERANCE for v in variants.values()):
        payload["contradiction_exhibited"] = bool(
            payload["original_price_spread_at_optimum"] >= ORIGINAL_SPREAD_MIN
            and max(variants["original"]["kkt_generator_stationarity"]) >= ORIGINAL_STATIONARITY_MIN
            and variants["corrected"]["kkt_max_residual"] <= CORRECTED_RESIDUAL_MAX
        )
    return payload
