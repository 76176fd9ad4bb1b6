"""Centralized solver, KKT certification, implied prices, brute-force reference."""

import dataclasses
import math
import struct
import time

import numpy as np
import pytest

from cemasim import (
    ConsumerParams,
    GeneratorParams,
    InfeasibleScenarioError,
    Scenario,
    brute_force_reference,
    build_uniform_weights,
    check_feasibility_condition,
    implied_prices,
    kkt_check,
    objective_value,
    run,
    solve_centralized,
    validate_scenario,
)
from cemasim import consumer_response, generator_response_corrected, oracle, presets
from cemasim.engine import power_step
from cemasim.oracle import (
    GRID_CHUNK_POINTS,
    _axis_points,
    _axis_values,
    _balance,
    _consumer_allocation_value,
    _demand_curve,
)
from cemasim.presets import random_scenario, ring_digraph


def _axis_grid(lo, hi, step):
    """The brute-force axis built whole, the reference for _axis_points and
    _axis_values: lo + step*i for i up to floor((hi - lo)/step), then hi
    when those points fall short of it."""
    g = lo + step * np.arange(int(np.floor((hi - lo) / step)) + 1)
    if g[-1] < hi:
        g = np.append(g, hi)
    return g


def _scenario(gens, cons, **kw):
    graph = ring_digraph(len(gens), len(cons))
    return Scenario(
        generators=tuple(gens),
        consumers=tuple(cons),
        graph=graph,
        weights=build_uniform_weights(graph),
        eta=kw.get("eta", 0.002),
        eps_m=1e-8,
        eps_l=1e-8,
        max_iters=kw.get("max_iters", 200000),
    )


def _scalar_responses(scenario, lam):
    """The per-node scalar loop at one price, the reference for the array form."""
    return power_step(scenario, generator_response_corrected, [lam] * scenario.n_nodes)


def _feasibility_by_agent(scenario) -> tuple:
    """check_feasibility_condition as Python sums over the parameter tuples:
    the reference for the node-order helper sums."""
    lhs = sum(c.p_max for c in scenario.consumers)
    rhs = sum(g.p_min - g.B * g.p_max * g.p_max for g in scenario.generators)
    slack = lhs - rhs
    return slack >= 0.0, slack


def _bits(result) -> tuple:
    holds, slack = result
    return type(holds), holds, struct.pack("<d", slack)


class TestFeasibilityConditionSums:
    """The headroom condition sums in node order through oracle._ordered_sum,
    with the bits of the per-agent Python sums."""

    @pytest.mark.parametrize("n_generators, n_consumers",
                             [(1, 1), (1, 4), (3, 2), (7, 9), (25, 25)])
    def test_equals_the_per_agent_sums_on_generated_scenarios(self, n_generators, n_consumers):
        rng = np.random.default_rng(n_generators * 100 + n_consumers)
        signs = set()
        for _ in range(200):
            gens = [GeneratorParams(a=0.004, b=4.0, c=0.0, B=rng.uniform(0.0, 1e-3),
                                    p_min=p_min, p_max=p_min + rng.uniform(0.0, 400.0))
                    for p_min in rng.uniform(0.0, 300.0, n_generators).tolist()]
            # a cap scale per draw, so the headroom both holds and fails
            cap = rng.uniform(0.0, 600.0) * n_generators / n_consumers
            cons = [ConsumerParams(w=15.0, alpha=0.08, p_min=0.0, p_max=p_max)
                    for p_max in rng.uniform(0.0, cap, n_consumers).tolist()]
            s = _scenario(gens, cons)
            assert _bits(check_feasibility_condition(s)) == _bits(_feasibility_by_agent(s))
            signs.add(check_feasibility_condition(s)[0])
        assert signs == {True, False}

    @pytest.mark.parametrize("gen_bounds, con_caps, B", [
        # exact zeros: integer sums, and B * p_max^2 = 1 exactly
        ([(10.0, 20.0), (20.0, 30.0)], [15.0, 15.0], 0.0),
        ([(11.0, 32.0)], [5.0, 5.0], 2.0 ** -10),
        ([(0.0, 0.0)], [0.0], 0.0),
        # one rounding either side of zero: 0.1 + 0.2 is 0.30000000000000004
        ([(0.3, 1.0)], [0.1, 0.2], 0.0),
        ([(0.1, 1.0), (0.2, 1.0)], [0.3], 0.0),
    ])
    def test_equals_the_per_agent_sums_at_the_equality_boundary(self, gen_bounds, con_caps, B):
        gens = [GeneratorParams(a=0.004, b=4.0, c=0.0, B=B, p_min=lo, p_max=hi)
                for lo, hi in gen_bounds]
        cons = [ConsumerParams(w=15.0, alpha=0.08, p_min=0.0, p_max=cap) for cap in con_caps]
        s = _scenario(gens, cons)
        assert _bits(check_feasibility_condition(s)) == _bits(_feasibility_by_agent(s))


def _floor_supply_rule(scenario) -> bool:
    """random_scenario's earlier acceptance rule, the reference: solvable,
    and the net supply with every generator at p_min below saturated demand."""
    if oracle.infeasibility(scenario) is not None:
        return False
    floor_supply = sum(g.net(g.p_min) for g in scenario.generators)
    saturated_demand = sum(consumer_response(c, 0.0) for c in scenario.consumers)
    return floor_supply < saturated_demand


class TestRandomScenarioAcceptance:
    """random_scenario keeps a draw when solve_centralized prices it above 0:
    the floor-supply rule, decided by solve's own slack-balance test."""

    def test_agrees_with_the_floor_supply_rule_on_every_draw(self, monkeypatch):
        candidates = []
        solve = presets.solve_centralized

        def recorded(scenario):
            candidates.append(scenario)
            return solve(scenario)

        monkeypatch.setattr(presets, "solve_centralized", recorded)
        infeasible = slack = 0
        for sizes in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (4, 4)]:
            for seed in range(30):
                candidates.clear()
                drawn = random_scenario(seed, *sizes)
                assert candidates[-1] is drawn
                for i, s in enumerate(candidates):
                    accepted = i == len(candidates) - 1
                    assert _floor_supply_rule(s) is accepted
                    try:
                        assert (solve(s).lam > 0.0) is accepted
                    except InfeasibleScenarioError:
                        assert not accepted
                        infeasible += 1
                    else:
                        slack += not accepted
        # rejected draws of both kinds were compared
        assert infeasible > 0 and slack > 0


class TestArrayFormBisection:
    @pytest.mark.parametrize("seed, n_gen, n_con", [
        *[(seed, n_gen, n_con) for seed in range(8) for n_gen, n_con in ((1, 1), (2, 3), (3, 2))],
        (0, 100, 100), (1, 100, 100),
    ])
    def test_same_bits_as_scalar_bisection(self, monkeypatch, seed, n_gen, n_con):
        # g(lam) through _responses at every size, so that the array forms
        # price every bisection step here
        monkeypatch.setattr(oracle, "ARRAY_BALANCE_MIN_NODES", 0)
        s = random_scenario(seed, n_gen, n_con)
        got = solve_centralized(s)
        with monkeypatch.context() as m:
            m.setattr(oracle, "_responses", _scalar_responses)
            want = solve_centralized(s)
        assert (got.lam, got.objective, got.iterations, got.balance_residual) == \
            (want.lam, want.objective, want.iterations, want.balance_residual)
        assert got.P.tobytes() == want.P.tobytes()

    @pytest.mark.parametrize("field, value", [("a", 0.0), ("a", -1e-3), ("B", -1e-4)])
    def test_rejects_generators_the_array_form_cannot_price(self, table1, field, value):
        # a + lam*B can reach 0 at some lam >= 0, where only the scalar form's
        # concave branch is right
        gen = dataclasses.replace(table1.generators[0], **{field: value})
        with pytest.raises(ValueError, match="a > 0 and B >= 0"):
            solve_centralized(dataclasses.replace(table1, generators=(gen, table1.generators[1])))


class TestSolveCentralized:
    def test_table1_regression(self, table1):
        sol = solve_centralized(table1)
        assert sol.lam == pytest.approx(6.174467483250394, abs=1e-9)
        assert sol.P[0] == pytest.approx(83.11166183245287, abs=1e-6)
        assert sol.P[1] == pytest.approx(123.39942275352091, abs=1e-6)
        np.testing.assert_array_equal(sol.P[2:], [100.34, 100.0])
        assert abs(sol.balance_residual) <= 1e-9

    def test_table1_evaluates_each_price_once(self, table1, monkeypatch):
        # g(0), g at the bracket's upper end (no doubling needed) and 40
        # bisection steps: the upper end's value is kept, not recomputed
        from cemasim import oracle

        prices = []

        def balance(scenario, lam):
            prices.append(lam)
            return _balance(scenario, lam)

        monkeypatch.setattr(oracle, "_balance", balance)
        sol = solve_centralized(table1)
        assert sol.iterations == 40
        assert len(prices) == 42
        assert len(set(prices)) == len(prices)
        assert sol.lam == 6.174467483250394
        assert sol.P.tolist() == [83.11166183245287, 123.39942275352091, 100.34, 100.0]
        assert sol.objective == -642.9540409082808

    def test_table1_loss_adjusted_prices_equalize(self, table1):
        sol = solve_centralized(table1)
        prices = implied_prices(sol.P[:2], table1, "corrected")
        np.testing.assert_allclose(prices, sol.lam, atol=1e-7)

    def test_single_generator_pinned_consumer(self):
        gen = GeneratorParams(a=1.0, b=0.0, c=0.0, B=0.0, p_min=0.1, p_max=10.0)
        con = ConsumerParams(w=1.0, alpha=0.25, p_min=1.0, p_max=1.0)
        sol = solve_centralized(_scenario([gen], [con]))
        assert sol.lam == pytest.approx(2.0, abs=1e-8)
        assert sol.P[0] == pytest.approx(1.0, abs=1e-8)
        assert sol.P[1] == 1.0

    def test_slack_balance_returns_zero_price(self):
        # the generator floor already covers saturated demand, so the balance
        # constraint stays slack and the price is zero
        gen = GeneratorParams(a=0.001, b=2.0, c=0.0, B=1e-5, p_min=100.0, p_max=200.0)
        con = ConsumerParams(w=10.0, alpha=0.06, p_min=10.0, p_max=150.0)
        s = _scenario([gen], [con])
        sol = solve_centralized(s)
        assert sol.lam == 0.0
        assert sol.P[0] == 100.0
        assert sol.P[1] == pytest.approx(con.saturation, abs=0)
        assert sol.balance_residual > 0
        report = kkt_check(sol.P, sol.lam, s)
        assert report.max_residual <= 1e-9

    def test_infeasible_demand_floor(self):
        gen = GeneratorParams(a=0.01, b=1.0, c=0.0, B=1e-6, p_min=1.0, p_max=40.0)
        con = ConsumerParams(w=10.0, alpha=0.01, p_min=100.0, p_max=200.0)
        with pytest.raises(InfeasibleScenarioError):
            solve_centralized(_scenario([gen], [con]))

    def test_infeasible_headroom_condition(self):
        gen = GeneratorParams(a=0.01, b=1.0, c=0.0, B=1e-12, p_min=100.0, p_max=200.0)
        con = ConsumerParams(w=10.0, alpha=0.01, p_min=20.0, p_max=50.0)
        with pytest.raises(InfeasibleScenarioError):
            solve_centralized(_scenario([gen], [con]))

    def test_balance_function_is_nondecreasing(self):
        rng = np.random.default_rng(17)
        for seed in range(6):
            s = random_scenario(seed)
            lams = np.sort(rng.uniform(0.0, 30.0, size=12))
            vals = [_balance(s, lam) for lam in lams]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_self_certifies_on_random_scenarios(self):
        for seed in range(12):
            s = random_scenario(seed)
            sol = solve_centralized(s)
            assert kkt_check(sol.P, sol.lam, s).max_residual <= 1e-6


class TestBisectionPaths:
    """solve_centralized's bracket and stopping rules, driven by a patched
    monotone balance g. The scenario's price bound is 0 (marginal cost -8 at
    the generator's cap, marginal utility 0 at the consumer's floor), so the
    bracket's upper end starts at 1.0."""

    @pytest.fixture
    def scenario(self):
        gen = GeneratorParams(a=0.01, b=-10.0, c=0.0, B=0.0, p_min=0.0, p_max=100.0)
        con = ConsumerParams(w=10.0, alpha=0.05, p_min=100.0, p_max=150.0)
        return _scenario([gen], [con])

    @staticmethod
    def _priced(monkeypatch, g) -> list:
        """Patches oracle._balance to g; returns the prices it is asked for."""
        prices = []

        def balance(scenario, lam):
            prices.append(lam)
            return g(lam)

        monkeypatch.setattr(oracle, "_balance", balance)
        return prices

    def test_bracket_from_one_by_doubling(self, scenario, monkeypatch):
        prices = self._priced(monkeypatch, lambda lam: lam - 3.0)
        sol = solve_centralized(scenario)
        # g(0), the start at 1.0 and two doublings, then the bisection
        assert prices[:4] == [0.0, 1.0, 2.0, 4.0]
        assert (sol.lam, sol.balance_residual, sol.iterations) == (3.0, 0.0, 31)
        assert len(prices) == 4 + sol.iterations
        assert sol.bracket_width <= oracle.DEFAULT_SOLVE_TOL * sol.lam

    def test_could_not_bracket(self, scenario, monkeypatch):
        prices = self._priced(monkeypatch, lambda lam: -1.0)
        with pytest.raises(oracle.BracketError) as info:
            solve_centralized(scenario)
        assert str(info.value) == f"could not bracket the balance price; g({2.0 ** 61}) < 0"
        # g(0), then 1.0 and its MAX_BRACKET_DOUBLINGS doublings
        assert prices == [0.0] + [2.0 ** k for k in range(oracle.MAX_BRACKET_DOUBLINGS + 1)]

    def test_stalls_at_the_epsilon_stop(self, scenario, monkeypatch):
        # a step of g at 3.0: the bracket closes on it to a relative width of
        # one machine epsilon with |g(hi)| = 1 left
        prices = self._priced(monkeypatch, lambda lam: -1.0 if lam < 3.0 else 1.0)
        with pytest.raises(oracle.BracketError) as info:
            solve_centralized(scenario)
        assert str(info.value) == "bisection stalled: |g(lam)| = 1.0 > tol = 1e-09 at lam = 3.0"
        # 3.0 is the second step's mid; the k-th step after it leaves
        # lo = 3 - 2**-k, which meets the epsilon stop 3 - lo <= eps*3 at
        # k = 51, the 53rd step
        assert prices[4:6] == [2.0, 3.0]
        assert len(prices) == 4 + 53
        assert 3.0 - max(p for p in prices if p < 3.0) == 2.0 ** -51

    def test_iteration_cap(self, scenario, monkeypatch):
        # a consumer whose marginal utility at its floor is 1e60 puts the
        # bracket's upper end there: about 198 halvings bring it down to g's
        # root at 3.0, too few of MAX_BISECT_ITERS left to reach the tolerance
        con = dataclasses.replace(scenario.consumers[0], w=1e60)
        prices = self._priced(monkeypatch, lambda lam: lam - 3.0)
        with pytest.raises(oracle.BracketError,
                           match="^bisection failed to reach the requested tolerance$"):
            solve_centralized(dataclasses.replace(scenario, consumers=(con,)))
        assert prices[:2] == [0.0, 1e60]
        assert len(prices) == 2 + oracle.MAX_BISECT_ITERS


class TestKktCheck:
    def test_original_fixed_point_fails_with_loss_residual(self, table1):
        result = run(table1, "original")
        lam_c = float(result.final.lam.mean())
        report = kkt_check(result.final.P, lam_c, table1)
        gen_nodes = table1.generator_nodes
        for idx, node in enumerate(gen_nodes):
            g = table1.generators[idx]
            P = result.final.P[node]
            # interior original response equalizes raw marginal cost, leaving
            # lam * 2B * P as the stationarity defect
            expected = lam_c * 2.0 * g.B * P
            assert report.stationarity[node] == pytest.approx(expected, abs=1e-6)
        assert max(abs(report.stationarity[i]) for i in gen_nodes) > 0.1
        assert not report.certified

    def test_corrected_fixed_point_certifies(self, table1):
        result = run(table1, "corrected")
        lam_c = float(result.final.lam.mean())
        report = kkt_check(result.final.P, lam_c, table1, tol=1e-4)
        assert report.max_residual <= 1e-4
        assert report.certified

    def test_interior_loss_adjusted_price_zeroes_stationarity(self):
        gen = GeneratorParams(a=0.002, b=3.0, c=5.0, B=2e-4, p_min=10.0, p_max=300.0)
        P_gen = 150.0
        lam = gen.marginal_cost(P_gen) / (1.0 - 2.0 * gen.B * P_gen)
        net = P_gen - gen.B * P_gen * P_gen
        con = ConsumerParams(w=30.0, alpha=0.01, p_min=net, p_max=net)
        s = _scenario([gen], [con])
        report = kkt_check(np.array([P_gen, net]), lam, s)
        assert report.stationarity[0] == pytest.approx(0.0, abs=1e-12)
        assert report.max_residual <= 1e-9

    def test_bound_multipliers_recovered(self, table1):
        sol = solve_centralized(table1)
        report = kkt_check(sol.P, sol.lam, table1)
        # consumer 1 pinned at its cap by marginal utility above the price,
        # consumer 2 pinned at its floor by flat utility
        assert report.nu[2] == pytest.approx(7.49294 - sol.lam, abs=1e-6)
        assert report.gamma[3] == pytest.approx(sol.lam, abs=1e-9)
        assert report.gamma[2] == report.nu[3] == 0.0

    def test_out_of_box_reported_not_raised(self, table1):
        P = np.array([10.0, 124.8, 100.34, 100.0])  # below generator 1 floor
        report = kkt_check(P, 6.0, table1)
        assert report.lower_slack[0] < 0
        assert report.max_residual >= 50.0
        assert not report.certified

    def test_negative_price_is_a_residual(self, table1):
        sol = solve_centralized(table1)
        report = kkt_check(sol.P, -1.0, table1)
        assert report.max_residual >= 1.0

    def test_nan_residual_anywhere_fails_certification(self, table1):
        # NaN consumer powers leave stationarity at 0.0, so the first NaN
        # residual is the balance complementarity, not the first entry
        report = kkt_check(np.array([60.0, 25.0, np.nan, np.nan]), 0.0, table1)
        assert report.stationarity.tolist() == [0.0] * 4
        assert np.isnan(report.max_residual)
        assert not report.certified

    @pytest.mark.parametrize("case, residual", [
        ("inf-P", np.nan), ("inf-lambda", np.nan), ("huge-P", np.inf)])
    def test_non_finite_or_huge_candidate_is_a_residual(self, table1, case, residual):
        # inf - inf and overflow in the evaluation would raise here, because
        # the suite turns numpy's warnings into errors
        sol = solve_centralized(table1)
        P, lam = sol.P.copy(), sol.lam
        if case == "inf-P":
            P = np.array([np.inf, 100.0, 100.0, 100.0])
        elif case == "inf-lambda":
            lam = np.inf
        else:
            P[0] = 1e200
        report = kkt_check(P, lam, table1)
        assert np.array_equal(report.max_residual, residual, equal_nan=True)
        assert not report.certified

    @pytest.mark.parametrize("lam, read_as", [(10**400, math.inf), (-10**400, -math.inf)],
                             ids=["10**400", "-10**400"])
    def test_integer_lambda_past_float_range_reads_as_inf(self, table1, lam, read_as):
        # the report of the infinite price, residuals and all, not an OverflowError
        sol = solve_centralized(table1)
        report = kkt_check(sol.P, lam, table1)
        assert report.lam == read_as
        assert repr(report.to_dict()) == repr(kkt_check(sol.P, read_as, table1).to_dict())
        assert not report.certified

    def test_serializes_to_json_dict(self, table1):
        import json

        sol = solve_centralized(table1)
        report = kkt_check(sol.P, sol.lam, table1)
        text = json.dumps(report.to_dict())
        parsed = json.loads(text)
        assert parsed["certified"] is True
        assert len(parsed["stationarity"]) == 4


class TestImpliedPrices:
    def test_reference_dispatch_reproduces_disagreement(self, table1):
        prices = implied_prices(np.array([81.98, 124.80]), table1, "original")
        np.testing.assert_allclose(prices, [5.953504, 5.71776], atol=1e-12)
        assert [round(p, 2) for p in prices] == [5.95, 5.72]

    def test_corrected_prices_agree_at_optimum(self, table1):
        sol = solve_centralized(table1)
        prices = implied_prices(sol.P[:2], table1, "corrected")
        assert prices.max() - prices.min() <= 1e-4

    def test_original_prices_disagree_at_optimum(self, table1):
        sol = solve_centralized(table1)
        prices = implied_prices(sol.P[:2], table1, "original")
        assert prices.max() - prices.min() >= 0.2

    def test_zero_loss_formulas_coincide(self):
        gens = [GeneratorParams(a=0.004, b=3.0, c=1.0, B=0.0, p_min=10.0, p_max=200.0)]
        cons = [ConsumerParams(w=12.0, alpha=0.05, p_min=10.0, p_max=100.0)]
        s = _scenario(gens, cons)
        P = np.array([123.4])
        np.testing.assert_array_equal(
            implied_prices(P, s, "original"), implied_prices(P, s, "corrected")
        )

    def test_wrong_length_rejected(self, table1):
        # a (2, 1) or (1, 2) array has table1's two entries, not its shape
        for shape in [(3,), (2, 1), (1, 2)]:
            with pytest.raises(ValueError, match="expected one power per generator"):
                implied_prices(np.ones(shape), table1, "original")


class TestBruteForceReference:
    def test_table1_objective_agreement(self, table1):
        sol = solve_centralized(table1)
        bf = brute_force_reference(table1, 0.2)
        assert bf.objective >= sol.objective - 1e-9
        assert bf.objective - sol.objective <= 0.1

    def test_single_point_boxes_match_solver_exactly(self):
        B = 2.0 ** -13
        gen = GeneratorParams(a=0.01, b=1.0, c=0.0, B=B, p_min=128.0, p_max=128.0)
        con = ConsumerParams(w=10.0, alpha=0.05, p_min=126.0, p_max=126.0)
        s = _scenario([gen], [con])
        sol = solve_centralized(s)
        bf = brute_force_reference(s, 0.5)
        np.testing.assert_array_equal(bf.P, sol.P)
        assert bf.objective == sol.objective

    def test_nested_refinement_never_hurts(self, table1):
        sol = solve_centralized(table1)
        gap_coarse = brute_force_reference(table1, 0.8).objective - sol.objective
        gap_fine = brute_force_reference(table1, 0.4).objective - sol.objective
        assert gap_fine <= gap_coarse + 1e-12

    def test_one_generator_path(self):
        gen = GeneratorParams(a=0.002, b=3.0, c=5.0, B=2e-4, p_min=10.0, p_max=300.0)
        con = ConsumerParams(w=15.0, alpha=0.05, p_min=20.0, p_max=120.0)
        s = _scenario([gen], [con])
        sol = solve_centralized(s)
        bf = brute_force_reference(s, 0.01)
        assert abs(bf.objective - sol.objective) <= 1e-2

    def test_three_generator_path(self):
        s = random_scenario(3, n_generators=3, n_consumers=2)
        sol = solve_centralized(s)
        bf = brute_force_reference(s, 2.0)
        assert bf.objective >= sol.objective - 1e-9

    def test_rejects_too_many_generators(self):
        s = random_scenario(0, n_generators=4, n_consumers=2)
        with pytest.raises(ValueError):
            brute_force_reference(s, 1.0)

    def test_rejects_bad_step(self, table1):
        for step in (0.0, -1.0, float("inf"), float("-inf"), float("nan"), 10**400, -10**400,
                     True, False, "0.5", 1 + 0j, None):
            with pytest.raises(ValueError, match="grid_step must be a positive finite number"):
                brute_force_reference(table1, step)

    @pytest.mark.parametrize("lo, hi, step", [
        (0.0, 1.0, 0.1), (0.0, 1.0, 0.3), (1.0, 1.0, 0.5), (24.375, 300.0, 0.125),
        (60.0, 339.69, 0.05), (0.0, 1.0, 1e-3), (0.1, 0.7, 0.2),
    ])
    def test_axis_points_counts_axis_grid(self, lo, hi, step):
        grid = _axis_grid(lo, hi, step)
        assert _axis_points(lo, hi, step) == len(grid)
        assert _axis_values(lo, hi, step, np.arange(len(grid))).tobytes() == grid.tobytes()

    @pytest.mark.parametrize("step", [1e-4, 1e-9, 5e-324])
    def test_rejects_grid_above_point_budget(self, table1, step):
        # 1e-9 would allocate about 2 TiB, 1e-4 run for hours, and 5e-324
        # overflows the count to inf: each is refused before any allocation
        start = time.perf_counter()
        with pytest.raises(ValueError, match="above the budget"):
            brute_force_reference(table1, step)
        assert time.perf_counter() - start < 0.5

    def test_infeasible_grid(self):
        gen = GeneratorParams(a=0.01, b=1.0, c=0.0, B=1e-6, p_min=1.0, p_max=5.0)
        con = ConsumerParams(w=10.0, alpha=0.01, p_min=100.0, p_max=200.0)
        with pytest.raises(InfeasibleScenarioError):
            brute_force_reference(_scenario([gen], [con]), 0.1)

    def test_objective_value_matches_brute_objective(self, table1):
        bf = brute_force_reference(table1, 0.5)
        assert objective_value(table1, bf.P) == pytest.approx(bf.objective, abs=1e-9)


def _twin_scenario(gen_p_min=20.0, con_p_max=140.0):
    """Two identical generators: (x, y) and (y, x) have the same objective bits."""
    gen = GeneratorParams(a=0.004, b=5.0, c=20.0, B=0.0002, p_min=gen_p_min, p_max=300.0)
    con = ConsumerParams(w=15.0, alpha=0.06, p_min=60.0, p_max=con_p_max)
    return _scenario([gen, gen], [con])


class TestBruteForceTies:
    """Equal objectives resolve to the lexicographically smallest grid point,
    within a chunk and across chunks of `budget` points."""

    @pytest.mark.parametrize(
        "gen_p_min, con_p_max, step, expected, rows, budget, split, saturated",
        [
            # 561-point axes: both points in the first chunk of 116 rows
            (20.0, 140.0, 0.5, (40.0, 40.5), (40, 41), GRID_CHUNK_POINTS, False, False),
            # 2206-point axes in 64-row chunks: 40.25 is row 127 (second
            # chunk), 40.375 row 128 (third chunk)
            (24.375, 140.0, 0.125, (40.25, 40.375), (127, 128), 64 * 2206, True, False),
            # consumer capped at 70 MW: the tie lies at supply >= saturated demand
            (20.0, 70.0, 0.5, (35.0, 35.5), (30, 31), GRID_CHUNK_POINTS, False, True),
            # 41-row chunks: row 40 ends the first chunk, row 41 starts the second
            (20.0, 140.0, 0.5, (40.0, 40.5), (40, 41), 41 * 561, True, False),
            # 500-column chunks: the last axis is split, one row per chunk
            (20.0, 140.0, 0.5, (40.0, 40.5), (40, 41), 500, True, False),
            (20.0, 70.0, 0.5, (35.0, 35.5), (30, 31), 500, True, True),
        ],
    )
    def test_tied_points_resolve_to_smallest(self, monkeypatch, gen_p_min, con_p_max, step, expected,
                                             rows, budget, split, saturated):
        s = _twin_scenario(gen_p_min, con_p_max)
        assert validate_scenario(s) == []
        grid = _axis_grid(gen_p_min, 300.0, step)
        assert (grid[rows[0]], grid[rows[1]]) == expected
        # the tie is (rows[0], rows[1]) against its mirror (rows[1], rows[0]);
        # a chunk is a block of whole rows, or of columns of one row
        n = len(grid)
        chunk_rows, chunk_cols = max(1, budget // n), min(n, budget)
        chunks = [(r // chunk_rows, c // chunk_cols) for r, c in (rows, rows[::-1])]
        assert (chunks[0] != chunks[1]) == split
        mu_knots, demand_knots = _demand_curve(s)
        g = s.generators[0]
        x, y = expected
        S = np.array([g.net(x) + g.net(y), g.net(y) + g.net(x)])
        base = np.array([g.cost(x) + g.cost(y), g.cost(y) + g.cost(x)])
        obj = base - _consumer_allocation_value(s, S, mu_knots, demand_knots)
        assert obj[0] == obj[1]
        assert bool(S[0] >= demand_knots[0]) == saturated
        monkeypatch.setattr(oracle, "GRID_CHUNK_POINTS", budget)
        bf = brute_force_reference(s, step)
        assert tuple(bf.P[list(s.generator_nodes)]) == expected
        assert bf.objective == obj[0]
