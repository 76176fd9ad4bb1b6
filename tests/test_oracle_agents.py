"""The oracle's per-kind array evaluations against per-node reference loops.

`kkt_check`, `objective_value` and `implied_prices` read
`AgentView.by_kind` as array expressions and scatter them back with
`AgentView.node_order`. The loops below compute the same results node by
node, with `ConsumerParams.utility` and `.marginal_utility` written as scalar
branches; every result, and the view itself, must match them bit for bit.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemasim import (
    ConsumerParams,
    Digraph,
    GeneratorParams,
    KktReport,
    Scenario,
    WeightMatrices,
    implied_prices,
    kkt_check,
    mismatch,
    objective_value,
    solve_centralized,
)
from cemasim.best_response import VARIANTS, get_variant
from cemasim.oracle import ACTIVE_BOUND_TOL, CERTIFY_TOL
from cemasim.presets import random_scenario
from test_best_response import _bits, _stacked, _valid_consumer, _valid_generator


def _utility(c, x):
    """ConsumerParams.utility as one scalar branch per call."""
    if x <= c.saturation:
        return c.w * x - c.alpha * x * x
    return c.w * c.w / (4.0 * c.alpha)


def _marginal_utility(c, x):
    return max(0.0, c.w - 2.0 * c.alpha * x)


def _objective_loop(scenario, P):
    total = 0.0
    for params, x in zip(scenario.agents.params, np.asarray(P, dtype=float).tolist(),
                         strict=True):
        total += params.cost(x) if isinstance(params, GeneratorParams) else -_utility(params, x)
    return total


def _kkt_loop(P, lam, scenario, tol=CERTIFY_TOL) -> dict:
    """kkt_check's fields, node by node."""
    P = np.asarray(P, dtype=float)
    agents = scenario.agents
    n = scenario.n_nodes
    gamma = np.zeros(n)
    nu = np.zeros(n)
    stationarity = np.zeros(n)
    lower_slack = np.zeros(n)
    upper_slack = np.zeros(n)

    net_supply = 0.0
    demand = 0.0
    net = agents.net(P).tolist()
    for i, (params, Pi) in enumerate(zip(agents.params, P.tolist(), strict=True)):
        if isinstance(params, GeneratorParams):
            expr = params.marginal_cost(Pi) - lam * params.marginal_net(Pi)
            net_supply += net[i]
        else:
            expr = lam - _marginal_utility(params, Pi)
            demand += Pi
        lower_slack[i] = Pi - params.p_min
        upper_slack[i] = params.p_max - Pi
        at_lower = abs(Pi - params.p_min) <= ACTIVE_BOUND_TOL
        at_upper = abs(Pi - params.p_max) <= ACTIVE_BOUND_TOL
        if at_lower and expr >= 0.0:
            gamma[i] = expr
        elif at_upper and expr <= 0.0:
            nu[i] = -expr
        else:
            stationarity[i] = expr

    balance_slack = net_supply - demand
    balance_complementarity = lam * (demand - net_supply)
    lower_complementarity = np.abs(gamma * lower_slack)
    upper_complementarity = np.abs(nu * upper_slack)
    residuals = [
        float(np.abs(stationarity).max(initial=0.0)),
        abs(balance_complementarity),
        float(lower_complementarity.max(initial=0.0)),
        float(upper_complementarity.max(initial=0.0)),
        max(0.0, -balance_slack),
        float(np.maximum(-lower_slack, 0.0).max(initial=0.0)),
        float(np.maximum(-upper_slack, 0.0).max(initial=0.0)),
        max(0.0, -lam),
    ]
    max_residual = math.nan if any(map(math.isnan, residuals)) else max(residuals)
    return {
        "lam": float(lam), "gamma": gamma, "nu": nu, "stationarity": stationarity,
        "balance_complementarity": balance_complementarity,
        "lower_complementarity": lower_complementarity,
        "upper_complementarity": upper_complementarity,
        "balance_slack": balance_slack, "lower_slack": lower_slack, "upper_slack": upper_slack,
        "max_residual": max_residual, "certified": max_residual <= tol, "tol": tol,
    }


def _check_view_loop(scenario, P):
    """The view's sign, loss, net, by_kind and node_order against loops over
    its params, which must hold the generators and consumers in their order."""
    agents = scenario.agents
    params = agents.params
    is_gen = [isinstance(p, GeneratorParams) for p in params]
    assert is_gen == [k == "generator" for k in scenario.graph.node_kind]
    assert [p for p, g in zip(params, is_gen) if g] == list(scenario.generators)
    assert [p for p, g in zip(params, is_gen) if not g] == list(scenario.consumers)
    assert _bits(agents.sign) == _bits([-1.0 if g else 1.0 for g in is_gen])
    assert _bits(agents.loss) == _bits([p.B if g else 0.0 for p, g in zip(params, is_gen)])
    assert _bits(agents.net(P)) == _bits([p.net(x) if g else x
                                         for p, g, x in zip(params, is_gen, P.tolist())])
    for (nodes, arrays), cls in zip(agents.by_kind, (GeneratorParams, ConsumerParams)):
        want = [i for i, p in enumerate(params) if isinstance(p, cls)]
        assert nodes.dtype == np.intp and nodes.tolist() == want
        for f in dataclasses.fields(cls):
            assert _bits(getattr(arrays, f.name)) == _bits([getattr(params[i], f.name) for i in want])
    (_, gens), (_, cons) = agents.by_kind
    values = {GeneratorParams: iter(gens.a.tolist()), ConsumerParams: iter(cons.w.tolist())}
    assert _bits(agents.node_order(gens.a, cons.w)) == _bits([next(values[type(p)]) for p in params])


def _implied_prices_loop(P_gen, scenario, variant):
    price = get_variant(variant).implied_price
    return np.array([price(g, x) for g, x in zip(scenario.generators, P_gen.tolist())])


def _power(lo, hi):
    """A candidate power of an agent with box [lo, hi]: inside it, within or
    just past ACTIVE_BOUND_TOL of a bound, anywhere, or NaN and signed zeros."""
    tol = ACTIVE_BOUND_TOL
    return st.one_of(
        st.floats(lo, hi),
        st.sampled_from([lo, hi]).flatmap(lambda b: st.floats(b - 2.0 * tol, b + 2.0 * tol)),
        st.sampled_from([lo - tol, lo + tol, hi - tol, hi + tol]),
        st.floats(-1e3, 2e3),
        st.sampled_from([math.nan, 0.0, -0.0]),
    )


@st.composite
def _kkt_case(draw):
    """A scenario with kinds in drawn node order, a candidate P and prices
    below, at and above 0, including a price that zeroes some node's
    stationarity expression."""
    gens = draw(st.lists(_valid_generator(), min_size=1, max_size=4))
    cons = draw(st.lists(_valid_consumer(), min_size=1, max_size=4))
    kinds = draw(st.permutations(["generator"] * len(gens) + ["consumer"] * len(cons)))
    n = len(kinds)
    eye = np.eye(n)
    scenario = Scenario(
        generators=tuple(gens), consumers=tuple(cons),
        graph=Digraph(n=n, edges=[(i, i) for i in range(n)], node_kind=kinds),
        weights=WeightMatrices(W=eye, Q=eye), eta=0.002, eps_m=1e-8, eps_l=1e-8, max_iters=1,
    )
    P = [draw(_power(p.p_min, p.p_max)) for p in scenario.agents.params]
    # inside the box 1 - 2BP > 0, so the loss-adjusted price is defined
    zeroing = [p.loss_adjusted_marginal_cost(x) if isinstance(p, GeneratorParams)
               else _marginal_utility(p, x)
               for p, x in zip(scenario.agents.params, P) if p.p_min <= x <= p.p_max]
    lams = [-draw(st.floats(1e-300, 50.0)), 0.0, -0.0, draw(st.floats(1e-300, 100.0)),
            *zeroing[:1]]
    return scenario, np.array(P), lams


class TestAgainstPerNodeLoops:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(case=_kkt_case())
    def test_kkt_objective_and_prices_same_bits(self, case):
        scenario, P, lams = case
        _check_view_loop(scenario, P)
        for lam in lams:
            report = kkt_check(P, lam, scenario)
            want = _kkt_loop(P, lam, scenario)
            for f in dataclasses.fields(KktReport):
                got = getattr(report, f.name)
                assert np.asarray(got).tobytes() == np.asarray(want[f.name]).tobytes(), f.name
                if not isinstance(got, np.ndarray):
                    assert type(got) is type(want[f.name]), f.name
        got = objective_value(scenario, P)
        assert type(got) is float
        assert _bits(got) == _bits(_objective_loop(scenario, P))
        P_gen = P[list(scenario.generator_nodes)]
        for variant in VARIANTS:
            assert _bits(implied_prices(P_gen, scenario, variant)) == \
                _bits(_implied_prices_loop(P_gen, scenario, variant))

    @pytest.mark.parametrize("seed, n_gen, n_con", [(0, 2, 2), (1, 3, 5), (2, 100, 100)])
    def test_same_bits_at_the_optimum(self, seed, n_gen, n_con):
        s = random_scenario(seed, n_gen, n_con)
        sol = solve_centralized(s)
        _check_view_loop(s, sol.P)
        assert sol.objective == _objective_loop(s, sol.P)
        report = kkt_check(sol.P, sol.lam, s)
        want = _kkt_loop(sol.P, sol.lam, s)
        for f in dataclasses.fields(KktReport):
            assert np.asarray(getattr(report, f.name)).tobytes() == \
                np.asarray(want[f.name]).tobytes(), f.name
        assert report.certified

    @pytest.mark.parametrize("P", [np.ones(0), np.ones(3), np.ones(5), 100.0, [100.0],
                                   np.ones((4, 1))],
                             ids=["0", "3", "5", "()", "(1,)", "(4, 1)"])
    def test_wrong_power_count_rejected(self, table1, P):
        # one node-power shape rule: no other shape broadcasts into a result
        with pytest.raises(ValueError, match="expected 4 node powers"):
            kkt_check(P, 1.0, table1)
        with pytest.raises(ValueError, match="expected 4 node powers"):
            objective_value(table1, P)
        with pytest.raises(ValueError, match="expected 4 node powers"):
            mismatch(P, table1)


@st.composite
def _utility_case(draw):
    """Consumers and powers: each saturation point with its neighbouring
    floats, each bound, NaN, signed zeros and arbitrary powers."""
    cons = draw(st.lists(_valid_consumer(), min_size=1, max_size=5))
    points = [math.nan, 0.0, -0.0, *draw(st.lists(st.floats(-1e3, 1e3), max_size=5))]
    for c in cons:
        sat = c.saturation
        points += [math.nextafter(sat, -math.inf), sat, math.nextafter(sat, math.inf),
                   c.p_min, c.p_max]
    return cons, points


class TestConsumerArrayMethods:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(case=_utility_case())
    def test_same_bits_as_scalar_calls(self, case):
        cons, points = case
        for method, branch in (("utility", _utility), ("marginal_utility", _marginal_utility)):
            # one consumer at an array of powers: the brute-force grid
            for c in cons:
                scalar = [getattr(c, method)(x) for x in points]
                assert all(type(v) is float for v in scalar)
                assert _bits(getattr(c, method)(np.array(points))) == _bits(scalar) == \
                    _bits([branch(c, x) for x in points])
            # per-kind arrays at one power each: the oracle
            stacked = _stacked(cons)
            for x in points:
                assert _bits(getattr(stacked, method)(np.full(len(cons), x))) == \
                    _bits([getattr(c, method)(x) for c in cons])


class TestPythonTypesAtResults:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_solution_and_report_scalars(self, seed):
        s = random_scenario(seed, 2, 3)
        sol = solve_centralized(s)
        assert sol.iterations > 0  # through the bracket, not the slack case
        assert (type(sol.lam), type(sol.objective)) == (float, float)
        for lam, tol in ((sol.lam, CERTIFY_TOL), (np.float64(sol.lam), np.float64(CERTIFY_TOL))):
            report = kkt_check(sol.P, lam, s, tol=tol)
            assert type(report.certified) is bool
            for name in ("lam", "balance_complementarity", "balance_slack", "max_residual"):
                assert type(getattr(report, name)) is float, name
            assert json.loads(json.dumps(report.to_dict()))["certified"] is True
