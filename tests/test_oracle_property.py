"""Property test: the brute-force grid against a full evaluation of every point."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemasim import (
    ConsumerParams,
    GeneratorParams,
    InfeasibleScenarioError,
    brute_force_reference,
    consumer_response,
)
from cemasim.oracle import GRID_CHUNK_ROWS, _axis_grid, _consumer_allocation_value, _demand_curve
from test_oracle import _scenario


def _full_evaluation(scenario, grid_step):
    """The grid search with the consumer value evaluated at every point.

    Returns (P, objective, argmin at or above saturated demand, some
    chunk of GRID_CHUNK_ROWS rows wholly infeasible), or None when no point
    is feasible.
    """
    mu_knots, demand_knots = _demand_curve(scenario)
    floor = sum(c.p_min for c in scenario.consumers)
    gens = scenario.generators
    grids = [_axis_grid(g.p_min, g.p_max, grid_step) for g in gens]
    S = gens[0].net(grids[0])
    base = gens[0].cost(grids[0])
    for g, grid in zip(gens[1:], grids[1:]):
        S = S[..., None] + g.net(grid)
        base = base[..., None] + g.cost(grid)
    feasible = S >= floor - 1e-12
    obj = np.where(feasible, base - _consumer_allocation_value(scenario, S, mu_knots, demand_knots), np.inf)
    flat = int(np.argmin(obj))
    if not np.isfinite(obj.flat[flat]):
        return None
    idx = np.unravel_index(flat, obj.shape)
    best_gen = [grid[i] for grid, i in zip(grids, idx)]
    S_best = sum(g.net(x) for g, x in zip(gens, best_gen))
    d0 = demand_knots[0]
    mu = 0.0 if S_best >= d0 else float(np.interp(S_best, demand_knots[::-1], mu_knots[::-1]))
    P = np.empty(scenario.n_nodes)
    P[list(scenario.generator_nodes)] = best_gen
    P[list(scenario.consumer_nodes)] = [consumer_response(c, mu) for c in scenario.consumers]
    empty_chunk = any(not feasible[s:s + GRID_CHUNK_ROWS].any() for s in range(0, len(grids[0]), GRID_CHUNK_ROWS))
    return P, float(obj.flat[flat]), bool(S.flat[flat] >= d0), empty_chunk


@st.composite
def _grid_cases(draw):
    """A 1-3 generator scenario and a step giving at most about 25k grid points.

    Generator 0's axis may run past two 128-row chunks, and the demand floor
    is a drawn point of the net supply range, so leading chunks can be
    wholly infeasible; low marginal costs or high generator floors put the
    optimum at or above saturated demand.
    """
    n_gen = draw(st.integers(1, 3))
    step = draw(st.floats(0.05, 2.0))
    gens = []
    for k in range(n_gen):
        if k == 0:
            rows = draw(st.integers(2 * GRID_CHUNK_ROWS, [600, 400, 300][n_gen - 1])
                        if draw(st.booleans()) else st.integers(0, GRID_CHUNK_ROWS))
        else:
            rows = draw(st.integers(0, [30, 8][n_gen - 2]))
        p_min = draw(st.floats(0.0, 80.0))
        gens.append(GeneratorParams(
            a=draw(st.floats(0.001, 0.01)),
            b=draw(st.floats(0.05, 8.0)),
            c=draw(st.floats(0.0, 30.0)),
            B=draw(st.floats(0.0, 4e-4)),
            p_min=p_min,
            p_max=p_min + rows * step + draw(st.floats(0.0, 1.0)) * step,
        ))
    s_min = sum(g.net(g.p_min) for g in gens)
    s_max = sum(g.net(g.p_max) for g in gens)
    floor = s_min + draw(st.floats(0.0, 1.05)) * (s_max - s_min)
    n_con = draw(st.integers(1, 2))
    cons = []
    for _ in range(n_con):
        p_min = floor / n_con
        cons.append(ConsumerParams(
            w=draw(st.floats(2.0, 20.0)),
            alpha=draw(st.floats(0.01, 0.1)),
            p_min=p_min,
            p_max=p_min + draw(st.floats(0.0, 150.0)),
        ))
    return _scenario(gens, cons), step


class TestBruteForceProperty:
    def test_matches_full_evaluation(self):
        seen = set()

        @settings(derandomize=True, max_examples=150, database=None, deadline=None)
        @given(case=_grid_cases())
        def check(case):
            s, step = case
            ref = _full_evaluation(s, step)
            if ref is None:
                with pytest.raises(InfeasibleScenarioError):
                    brute_force_reference(s, step)
                return
            P, objective, saturated, empty_chunk = ref
            bf = brute_force_reference(s, step)
            assert np.float64(bf.objective).tobytes() == np.float64(objective).tobytes()
            assert bf.P.tobytes() == P.tobytes()
            seen.add(("generators", len(s.generators)))
            seen.add(("saturated", saturated))
            if empty_chunk:
                seen.add("empty chunk")

        check()
        assert seen >= {("generators", 1), ("generators", 2), ("generators", 3),
                        ("saturated", False), ("saturated", True), "empty chunk"}
