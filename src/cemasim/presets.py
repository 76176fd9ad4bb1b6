"""Built-in scenarios: the table1 benchmark and random ring instances."""

from __future__ import annotations

import numpy as np

from .oracle import InfeasibleScenarioError, solve_centralized
from .scenario import (
    ConsumerParams,
    GeneratorParams,
    Scenario,
    build_uniform_weights,
    ring_digraph,
)

# Two-decimal reference dispatch for the table1 scenario. The bisection
# optimum lands within 1.5 MW of it; the reference itself carries a ~0.2 MW
# balance gap, so it anchors a loose cross-check only.
TABLE1_REFERENCE_DISPATCH = (81.98, 124.80)

# Default feedback gain for the bundled scenarios. With table1's cost
# curvatures (slopes up to 1/(2a) ~ 208 MW per price unit) the stable range
# also depends on the mixing: on the bundled ring the corrected iteration
# converges at eta = 0.0035 and runs to a 20 000-round cap at 0.006, while
# another 4-node digraph with uniform weights converges at 0.009 and not at
# 0.012 (tests/test_engine.py::TestGainStabilityDependsOnMixing). 0.002
# converges for both generator-update variants in under 300 rounds.
TABLE1_ETA = 0.002


def table1_scenario() -> Scenario:
    """The two-generator / two-consumer benchmark on the default 4-node ring."""
    generators = (
        GeneratorParams(a=0.0024, b=5.56, c=30.0, B=0.00021, p_min=60.0, p_max=339.69),
        GeneratorParams(a=0.0056, b=4.32, c=25.0, B=0.00031, p_min=25.0, p_max=479.10),
    )
    consumers = (
        ConsumerParams(w=18.43, alpha=0.0545, p_min=50.0, p_max=100.34),
        ConsumerParams(w=13.17, alpha=0.0877, p_min=100.0, p_max=159.13),
    )
    graph = ring_digraph(2, 2)
    return Scenario(
        generators=generators,
        consumers=consumers,
        graph=graph,
        weights=build_uniform_weights(graph),
        eta=TABLE1_ETA,
        eps_m=1e-8,
        eps_l=1e-8,
        max_iters=200000,
    )


def _stable_eta(generators, consumers) -> float:
    """Feedback gain with margin against the per-node response slopes."""
    slope = max(1.0 / (2.0 * g.a) for g in generators)
    slope = max(slope, max(1.0 / (2.0 * c.alpha) for c in consumers))
    return min(0.35 / slope, 0.2)


def random_scenario(seed: int, n_generators: int = 2, n_consumers: int = 2) -> Scenario:
    """Random valid, feasible scenario; deterministic per seed.

    Parameters are drawn in the same order of magnitude as the table1
    benchmark. Rejection enforces solvability and a binding balance at the
    optimum, a price above 0 from `solve_centralized` (floor supply below
    saturated demand): with a slack balance the consensus iteration has no
    equality-balanced fixed point to find, even though the relaxed problem
    solves fine. The feedback gain is chosen from the response slopes so the
    iteration has a stability margin.
    """
    if n_generators < 1 or n_consumers < 1:
        raise ValueError("need at least one generator and one consumer")
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        generators = []
        for _ in range(n_generators):
            p_min = rng.uniform(20.0, 70.0)
            generators.append(
                GeneratorParams(
                    a=rng.uniform(0.0015, 0.008),
                    b=rng.uniform(3.5, 7.0),
                    c=rng.uniform(10.0, 50.0),
                    B=rng.uniform(0.00012, 0.0004),
                    p_min=p_min,
                    p_max=p_min + rng.uniform(120.0, 350.0),
                )
            )
        consumers = []
        for _ in range(n_consumers):
            p_min = rng.uniform(40.0, 110.0)
            consumers.append(
                ConsumerParams(
                    w=rng.uniform(11.0, 20.0),
                    alpha=rng.uniform(0.045, 0.11),
                    p_min=p_min,
                    p_max=p_min + rng.uniform(30.0, 90.0),
                )
            )
        graph = ring_digraph(n_generators, n_consumers)
        scenario = Scenario(
            generators=tuple(generators),
            consumers=tuple(consumers),
            graph=graph,
            weights=build_uniform_weights(graph),
            eta=_stable_eta(generators, consumers),
            eps_m=1e-8,
            eps_l=1e-8,
            max_iters=200000,
        )
        try:
            # lam = 0 is solve's slack balance: floor supply covers demand
            if solve_centralized(scenario).lam > 0.0:
                return scenario
        except InfeasibleScenarioError:
            pass
    raise RuntimeError(f"could not draw a feasible scenario for seed {seed}")
