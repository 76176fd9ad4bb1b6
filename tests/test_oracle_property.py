"""Property test: the brute-force grid against a full evaluation of every point."""

import math
import tracemalloc

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
    oracle,
)
from cemasim.oracle import GRID_CHUNK_POINTS, _axis_points, _consumer_allocation_value, _demand_curve
from cemasim.presets import random_scenario, table1_scenario
from test_oracle import _axis_grid, _scenario

FULL_BLOCK_POINTS = 2**20  # grid points the reference evaluates at once


def _full_evaluation(scenario, grid_step, matrices=None):
    """The grid search with the consumer value evaluated at every point.

    The grid is a matrix of the flattened leading axes by the last axis,
    evaluated a block of rows at a time with ties to the first point.
    Returns (P, objective, argmin at or above saturated demand, feasibility
    matrix), or None when no point is feasible. A `matrices` dict also gets
    the "saturated" (supply >= saturated demand) and "objective" matrices.
    """
    mu_knots, demand_knots = _demand_curve(scenario)
    floor = sum(c.p_min for c in scenario.consumers)
    gens = scenario.generators
    grids = [_axis_grid(g.p_min, g.p_max, grid_step) for g in gens]
    if len(gens) == 1:
        S_lead = base_lead = None
    else:
        S_lead = gens[0].net(grids[0])
        base_lead = gens[0].cost(grids[0])
        for g, grid in zip(gens[1:-1], grids[1:-1]):
            S_lead = (S_lead[:, None] + g.net(grid)).ravel()
            base_lead = (base_lead[:, None] + g.cost(grid)).ravel()
    last, n_last = gens[-1], len(grids[-1])
    n_lead = math.prod(len(grid) for grid in grids[:-1])
    feasible = np.empty((n_lead, n_last), dtype=bool)
    if matrices is not None:
        matrices["saturated"] = np.empty_like(feasible)
        matrices["objective"] = np.empty(feasible.shape)
    best_val, best_flat = np.inf, None
    block = max(1, FULL_BLOCK_POINTS // n_last)
    for r0 in range(0, n_lead, block):
        if S_lead is None:
            S, base = last.net(grids[-1])[None, :], last.cost(grids[-1])[None, :]
        else:
            S = S_lead[r0:r0 + block, None] + last.net(grids[-1])
            base = base_lead[r0:r0 + block, None] + last.cost(grids[-1])
        ok = S >= floor - 1e-12
        feasible[r0:r0 + block] = ok
        obj = np.where(ok, base - _consumer_allocation_value(scenario, S, mu_knots, demand_knots), np.inf)
        if matrices is not None:
            matrices["saturated"][r0:r0 + block] = S >= demand_knots[0]
            matrices["objective"][r0:r0 + block] = obj
        flat = int(np.argmin(obj))
        if obj.flat[flat] < best_val:
            best_val, best_flat = float(obj.flat[flat]), r0 * n_last + flat
    if best_flat is None:
        return None
    idx = np.unravel_index(best_flat, [len(grid) for grid in grids])
    best_gen = [grid[i] for grid, i in zip(grids, idx)]
    S_best = sum(g.net(x) for g, x in zip(gens, best_gen))
    d0 = demand_knots[0]
    mu = 0.0 if S_best >= d0 else float(np.interp(S_best, demand_knots[::-1], mu_knots[::-1]))
    P = np.empty(scenario.n_nodes)
    P[list(scenario.generator_nodes)] = best_gen
    P[list(scenario.consumer_nodes)] = [consumer_response(c, mu) for c in scenario.consumers]
    return P, best_val, bool(S_best >= d0), feasible


def _chunks(n_lead, n_last, budget):
    """(rows, cols) slices of the grid matrix, one per block of at most
    `budget` points: whole rows while the last axis fits, else column blocks.
    The coverage tags read them: a grid over the budget, a last axis longer
    than it (evaluated per index, its rows split over pieces) and a block
    with no feasible point."""
    rows, cols = max(1, budget // n_last), min(n_last, budget)
    return [(slice(r, r + rows), slice(c, c + cols))
            for r in range(0, n_lead, rows) for c in range(0, n_last, cols)]


@st.composite
def _grid_cases(draw):
    """A 1-3 generator scenario, a step giving at most about 25k grid points,
    and a chunk budget of 7 or 64 points or the default.

    The last axis may be longer than a small budget or shorter, and the
    demand floor is a drawn point of the net supply range, so whole rows can
    be infeasible; low marginal costs or high generator floors put the
    optimum at or above saturated demand. A negative b makes a cost fall
    before it rises, so the last axis can be monotone only from some h > 0
    on; B may come within a factor 1 - 1e-9 of the 2*B*p_max < 1 limit;
    and the last generator may repeat the one before it, whose mirrored
    points then have the same objective bits.
    """
    n_gen = draw(st.integers(1, 3))
    step = draw(st.floats(0.05, 2.0))
    budget = draw(st.sampled_from([7, 64, GRID_CHUNK_POINTS]))
    limits = [[600], [400, 30], [300, 8, 8]][n_gen - 1]
    twin = n_gen > 1 and draw(st.booleans())
    if twin:
        limits[-2] = limits[-1]
    gens = []
    for k in range(n_gen):
        if twin and k == n_gen - 1:
            gens.append(gens[-1])
            continue
        p_min = draw(st.floats(0.0, 80.0))
        p_max = p_min + draw(st.integers(0, limits[k])) * step + draw(st.floats(0.0, 1.0)) * step
        near_limit = (1.0 - draw(st.floats(1e-9, 1e-2))) / (2.0 * p_max) if p_max > 0.0 else 0.0
        gens.append(GeneratorParams(
            a=draw(st.floats(0.001, 0.01)),
            b=draw(st.one_of(st.floats(0.05, 8.0), st.floats(-3.0, 0.0))),
            c=draw(st.floats(0.0, 30.0)),
            B=draw(st.one_of(st.floats(0.0, 4e-4), st.just(near_limit))),
            p_min=p_min,
            p_max=p_max,
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
    return _scenario(gens, cons), step, budget


def _monotone_from(g, grid):
    """The least h from which g's net and cost on `grid` never fall."""
    net, cost = g.net(grid), g.cost(grid)
    down = np.flatnonzero((net[1:] < net[:-1]) | (cost[1:] < cost[:-1]))
    return int(down[-1]) + 1 if down.size else 0


class TestBruteForceProperty:
    def test_matches_full_evaluation(self, monkeypatch):
        seen = set()

        @settings(derandomize=True, max_examples=150, database=None, deadline=None)
        @given(case=_grid_cases())
        def check(case):
            s, step, budget = case
            monkeypatch.setattr(oracle, "GRID_CHUNK_POINTS", budget)
            ref = _full_evaluation(s, step, matrices := {})
            if ref is None:
                with pytest.raises(InfeasibleScenarioError):
                    brute_force_reference(s, step)
                return
            P, objective, saturated, feasible = ref
            bf = brute_force_reference(s, step)
            assert np.float64(bf.objective).tobytes() == np.float64(objective).tobytes()
            assert bf.P.tobytes() == P.tobytes()
            last = s.generators[-1]
            h = _monotone_from(last, _axis_grid(last.p_min, last.p_max, step))
            if h > 0:
                seen.add("head h > 0")
            # each row's tail [h, n): its feasible points below and at or
            # above saturated demand
            tail_dense = (feasible & ~matrices["saturated"])[:, h:].any(axis=1)
            tail_saturated = (feasible & matrices["saturated"])[:, h:].any(axis=1)
            if (tail_saturated & ~tail_dense).any():
                seen.add("row tail all saturated")
            if (tail_saturated & tail_dense).any():
                seen.add("row with dense and saturated points")
            if np.count_nonzero(matrices["objective"] == objective) > 1:
                seen.add("tie")
            chunks = _chunks(*feasible.shape, budget)
            seen.add(("generators", len(s.generators)))
            seen.add(("saturated", saturated))
            if len(chunks) > 1:
                seen.add("multi-chunk")
            if feasible.shape[1] > budget:
                seen.add("column split")
            if any(not feasible[chunk].any() for chunk in chunks):
                seen.add("empty chunk")

        check()
        assert seen >= {("generators", 1), ("generators", 2), ("generators", 3),
                        ("saturated", False), ("saturated", True),
                        "multi-chunk", "column split", "empty chunk",
                        "head h > 0", "row tail all saturated", "row with dense and saturated points", "tie"}


class TestBruteForceMemory:
    def test_one_point_leading_axis_stays_within_chunk_budget(self):
        # generator 0 at p_min = p_max: a 1 x 3001 x 3001 grid, which whole
        # would take hundreds of MB of temporaries
        gens = [
            GeneratorParams(a=0.004, b=5.0, c=20.0, B=2e-4, p_min=50.0, p_max=50.0),
            GeneratorParams(a=0.002, b=3.0, c=5.0, B=1e-4, p_min=10.0, p_max=310.0),
            GeneratorParams(a=0.006, b=4.0, c=0.0, B=3e-4, p_min=20.0, p_max=320.0),
        ]
        cons = [ConsumerParams(w=15.0, alpha=0.02, p_min=150.0, p_max=400.0)]
        s = _scenario(gens, cons)
        step = 0.1
        assert [len(_axis_grid(g.p_min, g.p_max, step)) for g in gens] == [1, 3001, 3001]
        tracemalloc.start()
        try:
            bf = brute_force_reference(s, step)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
        P, objective, saturated, feasible = _full_evaluation(s, step)
        assert not feasible.all() and not saturated
        assert np.float64(bf.objective).tobytes() == np.float64(objective).tobytes()
        assert bf.P.tobytes() == P.tobytes()

    def test_long_single_axis_stays_within_chunk_budget(self):
        # one generator on a 4e6-step axis: its values, net and cost built
        # whole would take about 100 MB
        s = random_scenario(0, 1, 2)
        g = s.generators[0]
        step = (g.p_max - g.p_min) / 4e6
        assert _axis_points(g.p_min, g.p_max, step) == 4_000_001
        tracemalloc.start()
        try:
            bf = brute_force_reference(s, step)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
        # the bits the search gave with the whole axis built
        assert [x.hex() for x in bf.P.tolist()] == [
            "0x1.80e7f9cb34744p+7", "0x1.49dbb87b78e60p+6", "0x1.847061fc85a84p+6"]
        assert bf.objective.hex() == "-0x1.7382de6a60b22p+8"

    def test_three_generators_stay_within_3_mb(self):
        # 221 x 240 x 271 points: 53 040 rows, in blocks of half a chunk's
        # rows. The warm-up call builds what the scenario caches
        s = random_scenario(3, 3, 2)
        brute_force_reference(s, 1.0)
        tracemalloc.start()
        try:
            bf = brute_force_reference(s, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20
        # the bits of the search in blocks of a whole chunk's rows
        assert [x.hex() for x in bf.P.tolist()] == [
            "0x1.3a427986f49a1p+5", "0x1.1bcf6d2ccc3eep+6", "0x1.4c404f2da80bbp+5",
            "0x1.649c55513c5bdp+6", "0x1.e71acca100932p+5"]
        assert bf.objective.hex() == "-0x1.077d38b5b2a6cp+8"

    def test_table1_at_step_005_stays_within_4_mb(self):
        # 50.8 M points, of which the tail search evaluates about 2 M
        s = table1_scenario()
        tracemalloc.start()
        try:
            bf = brute_force_reference(s, 0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
        # the bits every point's evaluation gave
        assert [x.hex() for x in bf.P.tolist()] == [
            "0x1.4d66666666666p+6", "0x1.ec9999999999ap+6", "0x1.915bcc8076b30p+6", "0x1.9000000000000p+6"]
        assert bf.objective.hex() == "-0x1.4179f89358944p+9"
