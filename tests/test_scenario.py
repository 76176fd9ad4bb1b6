"""Domain model: validation, weights, feasibility, net injection, JSON files."""

import dataclasses
import gc
import json
import math
import reprlib
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemasim import (
    ConsumerParams,
    Digraph,
    GeneratorParams,
    Scenario,
    WeightMatrices,
    brute_force_reference,
    build_uniform_weights,
    check_feasibility_condition,
    kkt_check,
    load_scenario,
    run,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from cemasim import scenario as scenario_module
from cemasim.best_response import generator_response_corrected
from cemasim.presets import ring_digraph
from cemasim.scenario import (
    STOCHASTIC_TOL,
    NodeKind,
    Violation,
    _plain,
    is_integer,
    is_real,
    real_array,
)


GEN1 = GeneratorParams(a=0.0024, b=5.56, c=30.0, B=0.00021, p_min=60.0, p_max=339.69)
GEN2 = GeneratorParams(a=0.0056, b=4.32, c=25.0, B=0.00031, p_min=25.0, p_max=479.10)


class TestNetInjection:
    """GeneratorParams.net, the output after quadratic transmission loss."""

    def test_table1_values(self):
        # arithmetic cross-checked by hand: P - B*P^2
        assert GEN1.net(81.98) == pytest.approx(80.568648716, abs=1e-12)
        assert GEN2.net(124.80) == pytest.approx(119.9717376, abs=1e-12)

    def test_zero_loss_is_identity(self):
        p = GeneratorParams(a=1.0, b=0.0, c=0.0, B=0.0, p_min=1.0, p_max=50.0)
        for P in (1.0, 7.25, 50.0):
            assert p.net(P) == P

    def test_strictly_monotone_on_box(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            lo, hi = sorted(rng.uniform(GEN2.p_min, GEN2.p_max, size=2))
            if lo == hi:
                continue
            assert GEN2.net(hi) > GEN2.net(lo)


class TestGeneratorLossModel:
    @pytest.mark.parametrize("gen", [GEN1, GEN2])
    def test_array_forms_equal_scalar_calls_bit_for_bit(self, gen):
        grid = np.linspace(gen.p_min, gen.p_max, 1001)
        for method in (gen.net, gen.marginal_net, gen.loss_adjusted_marginal_cost):
            scalar = np.array([method(x) for x in grid.tolist()])
            assert method(grid).tobytes() == scalar.tobytes()

    def test_loss_adjusted_marginal_cost_is_the_corrected_inverse(self):
        # the corrected best response to the loss-adjusted marginal cost at an
        # interior P is P itself
        rng = np.random.default_rng(5)
        for gen in (GEN1, GEN2):
            for P in rng.uniform(gen.p_min + 1.0, gen.p_max - 1.0, size=200).tolist():
                lam = gen.loss_adjusted_marginal_cost(P)
                assert abs(generator_response_corrected(gen, lam) - P) <= 1e-9

    def test_values_match_the_formulas(self):
        P = 81.98
        assert GEN1.net(P) == P - GEN1.B * P * P
        assert GEN1.marginal_net(P) == 1.0 - 2.0 * GEN1.B * P
        assert GEN1.loss_adjusted_marginal_cost(P) == (
            (2.0 * GEN1.a * P + GEN1.b) / (1.0 - 2.0 * GEN1.B * P))


class TestUniformWeights:
    def test_two_node_bidirectional(self):
        g = Digraph(n=2, edges=[(0, 0), (1, 1), (0, 1), (1, 0)],
                    node_kind=["generator", "consumer"])
        w = build_uniform_weights(g)
        np.testing.assert_array_equal(w.W, np.full((2, 2), 0.5))
        np.testing.assert_array_equal(w.Q, np.full((2, 2), 0.5))

    def test_single_node(self):
        g = Digraph(n=1, edges=[(0, 0)], node_kind=["generator"])
        w = build_uniform_weights(g)
        np.testing.assert_array_equal(w.W, [[1.0]])
        np.testing.assert_array_equal(w.Q, [[1.0]])

    def test_directed_four_cycle(self):
        edges = [(i, i) for i in range(4)] + [(i, (i + 1) % 4) for i in range(4)]
        g = Digraph(n=4, edges=edges, node_kind=["generator"] * 2 + ["consumer"] * 2)
        w = build_uniform_weights(g)
        # every node: in-degree 2 (self + predecessor), out-degree 2
        for i in range(4):
            assert sorted(w.W[i][w.W[i] > 0]) == [0.5, 0.5]
            assert sorted(w.Q[:, i][w.Q[:, i] > 0]) == [0.5, 0.5]

    def test_stochasticity_exact_on_random_rings(self):
        for ng, nc in [(1, 1), (2, 2), (3, 4), (5, 3)]:
            g = ring_digraph(ng, nc)
            w = build_uniform_weights(g)
            assert np.abs(w.W.sum(axis=1) - 1.0).max() <= 1e-12
            assert np.abs(w.Q.sum(axis=0) - 1.0).max() <= 1e-12

    def test_rejects_missing_self_loop(self):
        g = Digraph(n=2, edges=[(0, 0), (0, 1), (1, 0)], node_kind=["generator", "consumer"])
        with pytest.raises(ValueError, match="self-loop"):
            build_uniform_weights(g)

    def test_rejects_disconnected(self):
        g = Digraph(n=2, edges=[(0, 0), (1, 1), (0, 1)], node_kind=["generator", "consumer"])
        with pytest.raises(ValueError, match="strongly connected"):
            build_uniform_weights(g)


    def test_rejects_huge_node_count_before_walking_it(self):
        graph = Digraph(n=10**12, edges=[(0, 0)], node_kind=["generator"])
        with pytest.raises(ValueError, match="node_kind has 1 entries for 1000000000000 nodes"):
            build_uniform_weights(graph)


class TestFeasibilityCondition:
    def test_table1(self, table1):
        holds, slack = check_feasibility_condition(table1)
        assert holds
        # 259.47 - (60 - 0.00021*339.69^2 + 25 - 0.00031*479.10^2)
        assert slack == pytest.approx(269.85816328100003, abs=1e-9)

    def test_equality_boundary(self):
        gen = GeneratorParams(a=1.0, b=1.0, c=0.0, B=0.0, p_min=10.0, p_max=20.0)
        con = ConsumerParams(w=5.0, alpha=0.1, p_min=5.0, p_max=10.0)
        s = _scenario([gen], [con])
        holds, slack = check_feasibility_condition(s)
        assert holds and slack == 0.0

    def test_violated(self):
        gen = GeneratorParams(a=1.0, b=1.0, c=0.0, B=1e-12, p_min=100.0, p_max=200.0)
        con = ConsumerParams(w=5.0, alpha=0.1, p_min=25.0, p_max=50.0)
        s = _scenario([gen], [con])
        holds, slack = check_feasibility_condition(s)
        assert not holds
        assert slack == pytest.approx(-50.0, abs=1e-6)


def _scenario(gens, cons, **kw):
    graph = ring_digraph(len(gens), len(cons))
    return Scenario(
        generators=tuple(gens),
        consumers=tuple(cons),
        graph=graph,
        weights=build_uniform_weights(graph),
        eta=kw.get("eta", 0.002),
        eps_m=kw.get("eps_m", 1e-8),
        eps_l=kw.get("eps_l", 1e-8),
        max_iters=kw.get("max_iters", 200000),
    )


# (rule, field of table1, the changed value) for rules no other test reaches
RULE_CASES = [
    ("con.alpha_positive", "consumers",
     lambda s: (dataclasses.replace(s.consumers[0], alpha=0.0), s.consumers[1])),
    ("con.box", "consumers",
     lambda s: (dataclasses.replace(s.consumers[0], p_min=200.0), s.consumers[1])),
    ("weights.shape", "weights", lambda s: WeightMatrices(W=np.eye(3), Q=np.eye(3))),
    ("weights.W_nonnegative", "weights",
     lambda s: WeightMatrices(W=s.weights.W - 0.5 * np.eye(4), Q=s.weights.Q)),
    ("weights.Q_nonnegative", "weights",
     lambda s: WeightMatrices(W=s.weights.W, Q=s.weights.Q - 0.5 * np.eye(4))),
    ("graph.kinds_length", "graph",
     lambda s: Digraph(n=4, edges=s.graph.edges, node_kind=s.graph.node_kind[:3])),
]


class TestValidateScenario:
    def test_table1_is_valid(self, table1):
        assert validate_scenario(table1) == []

    def test_net_monotonicity_bound(self):
        # B*p_max = 0.9582 < 1 but 2*B*p_max = 1.9164 >= 1: net injection is
        # not increasing on the box
        bad = GeneratorParams(a=0.0056, b=4.32, c=25.0, B=0.002, p_min=25.0, p_max=479.10)
        s = _scenario([GEN1, bad], [ConsumerParams(w=18.43, alpha=0.0545, p_min=50.0, p_max=100.34),
                                    ConsumerParams(w=13.17, alpha=0.0877, p_min=100.0, p_max=159.13)])
        rules = [v.rule for v in validate_scenario(s)]
        assert rules == ["gen.net_monotone"]

    def test_unreachable_node(self):
        graph = ring_digraph(2, 2)
        # drop every edge into node 3 except its self-loop
        edges = [e for e in graph.edges if e[1] != 3 or e == (3, 3)]
        broken = Digraph(n=4, edges=edges, node_kind=graph.node_kind)
        s = Scenario(
            generators=(GEN1, GEN2),
            consumers=(ConsumerParams(w=18.43, alpha=0.0545, p_min=50.0, p_max=100.34),
                       ConsumerParams(w=13.17, alpha=0.0877, p_min=100.0, p_max=159.13)),
            graph=broken,
            weights=WeightMatrices(W=np.eye(4), Q=np.eye(4)),
            eta=0.002, eps_m=1e-8, eps_l=1e-8, max_iters=1000,
        )
        rules = {v.rule for v in validate_scenario(s)}
        assert "graph.strongly_connected" in rules

    def test_missing_self_loops_flagged_per_node(self, table1):
        edges = [e for e in table1.graph.edges if e not in ((1, 1), (3, 3))]
        graph = Digraph(n=4, edges=edges, node_kind=table1.graph.node_kind)
        assert graph.missing_self_loops() == [1, 3]
        violations = validate_scenario(dataclasses.replace(table1, graph=graph))
        assert [(v.node, v.rule) for v in violations if v.rule == "graph.self_loop"] == [
            (1, "graph.self_loop"), (3, "graph.self_loop")]

    def test_zero_loss_flagged(self):
        gen = GeneratorParams(a=0.002, b=5.0, c=1.0, B=0.0, p_min=10.0, p_max=100.0)
        con = ConsumerParams(w=10.0, alpha=0.05, p_min=10.0, p_max=90.0)
        rules = [v.rule for v in validate_scenario(_scenario([gen], [con]))]
        assert rules == ["gen.B_positive"]

    def test_eta_out_of_range(self, table1):
        s = dataclasses.replace(table1, eta=1.5)
        assert [v.rule for v in validate_scenario(s)] == ["scenario.eta"]

    def test_weight_stochasticity_violations(self, table1):
        W = table1.weights.W.copy()
        W[0, 0] += 1e-6
        s = dataclasses.replace(table1, weights=WeightMatrices(W=W, Q=table1.weights.Q))
        rules = [v.rule for v in validate_scenario(s)]
        assert rules == ["weights.W_row_stochastic"]

    def test_weight_sparsity_violation(self, table1):
        # ring4 has no edge 2 -> 0; putting mass there must be flagged
        W = table1.weights.W.copy()
        W[0, 2] = W[0, 0]
        W[0, 0] = 0.0
        s = dataclasses.replace(table1, weights=WeightMatrices(W=W, Q=table1.weights.Q))
        rules = {v.rule for v in validate_scenario(s)}
        assert rules == {"weights.W_sparsity"}
        # moving column 2's self-loop mass of Q to row 0 keeps Q stochastic
        Q = table1.weights.Q.copy()
        Q[0, 2] = Q[2, 2]
        Q[2, 2] = 0.0
        s = dataclasses.replace(table1, weights=WeightMatrices(W=W, Q=Q))
        assert [(v.node, v.rule, v.message) for v in validate_scenario(s)] == [
            (0, "weights.Q_sparsity", "Q[0][2] > 0 without edge 2->0"),
            (0, "weights.W_sparsity", "W[0][2] > 0 without edge 2->0"),
        ]

    @pytest.mark.parametrize("name", ["W", "Q"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weights_flagged(self, table1, name, bad):
        M = getattr(table1.weights, name).copy()
        M[1, 1] = bad
        weights = WeightMatrices(**{"W": table1.weights.W, "Q": table1.weights.Q, name: M})
        violations = validate_scenario(dataclasses.replace(table1, weights=weights))
        assert (-1, "weights.finite", f"{name} has non-finite entries") in [
            (v.node, v.rule, v.message) for v in violations
        ]

    @pytest.mark.parametrize("max_iters", [2.5, float("nan"), 0, "10"])
    def test_max_iters_must_be_integer(self, table1, max_iters):
        s = dataclasses.replace(table1, max_iters=max_iters)
        assert [v.rule for v in validate_scenario(s)] == ["scenario.max_iters"]

    @pytest.mark.parametrize("name, value", [
        ("eta", True), ("eta", "0.002"), ("eps_m", True), ("eps_l", np.True_),
        ("eps_l", None), ("max_iters", True),
    ])
    def test_non_numeric_constants_flagged(self, table1, name, value):
        s = dataclasses.replace(table1, **{name: value})
        assert [v.rule for v in validate_scenario(s)] == [f"scenario.{name}"]

    @pytest.mark.parametrize("value", [0.0024 + 0j, np.complex128(0.0024)],
                             ids=["complex", "complex128"])
    @pytest.mark.parametrize("kind, field, rule", [
        ("generators", "a", "gen.finite"),
        ("consumers", "w", "con.finite"),
    ])
    def test_complex_agent_parameter_flagged(self, table1, kind, field, rule, value):
        # a complex number is finite to np.isfinite, but no closed form is defined on it
        group = getattr(table1, kind)
        changed = dataclasses.replace(group[0], **{field: value})
        s = dataclasses.replace(table1, **{kind: (changed, *group[1:])})
        assert [v.rule for v in validate_scenario(s)] == [rule]

    @pytest.mark.parametrize("value", [0.002 + 0j, np.complex128(0.002)],
                             ids=["complex", "complex128"])
    @pytest.mark.parametrize("name", ["eta", "eps_m", "eps_l"])
    def test_complex_constant_flagged(self, table1, name, value):
        s = dataclasses.replace(table1, **{name: value})
        assert [v.rule for v in validate_scenario(s)] == [f"scenario.{name}"]

    @pytest.mark.parametrize("field", ["a", "b", "c", "B", "p_min", "p_max"])
    def test_bool_generator_parameter_flagged(self, table1, field):
        gen = dataclasses.replace(table1.generators[0], **{field: True})
        s = dataclasses.replace(table1, generators=(gen, table1.generators[1]))
        assert [v.rule for v in validate_scenario(s)] == ["gen.finite"]

    @pytest.mark.parametrize("field", ["w", "alpha", "p_min", "p_max"])
    def test_bool_consumer_parameter_flagged(self, table1, field):
        con = dataclasses.replace(table1.consumers[1], **{field: True})
        s = dataclasses.replace(table1, consumers=(table1.consumers[0], con))
        assert [v.rule for v in validate_scenario(s)] == ["con.finite"]

    # a = 1e308 overflows the starting price at p_min; a = 1e306 only the
    # bisection bracket at p_max
    @pytest.mark.parametrize("a", [1e308, 1e306])
    def test_overflowing_price_flagged(self, table1, a):
        gen = dataclasses.replace(table1.generators[0], a=a)
        s = dataclasses.replace(table1, generators=(gen, table1.generators[1]))
        assert [(v.node, v.rule) for v in validate_scenario(s)] == [(0, "gen.price_finite")]

    def test_count_mismatch_is_a_violation_not_an_error(self, table1):
        s = dataclasses.replace(table1, consumers=table1.consumers[:1])
        rules = {v.rule for v in validate_scenario(s)}
        assert {"scenario.node_count", "scenario.kind_counts"} <= rules
        with pytest.raises(ValueError):
            s.agents

    @pytest.mark.parametrize("rule, field, change", [
        pytest.param(*case, id=case[0]) for case in RULE_CASES])
    def test_each_rule_is_reached(self, table1, rule, field, change):
        s = dataclasses.replace(table1, **{field: change(table1)})
        assert rule in {v.rule for v in validate_scenario(s)}

    def test_huge_node_count_is_reported_without_walking_it(self, table1):
        # a 2 KB file may declare 10**12 nodes: only kinds_length may judge it
        graph = Digraph(n=10**12, edges=table1.graph.edges, node_kind=table1.graph.node_kind)
        start = time.perf_counter()
        rules = {v.rule for v in validate_scenario(dataclasses.replace(table1, graph=graph))}
        assert time.perf_counter() - start < 1.0
        assert "graph.kinds_length" in rules
        assert not rules & {"graph.self_loop", "graph.strongly_connected"}

    def test_ordering_deterministic(self):
        bad_gen = GeneratorParams(a=-1.0, b=5.0, c=1.0, B=0.0, p_min=-2.0, p_max=-3.0)
        con = ConsumerParams(w=-1.0, alpha=0.05, p_min=10.0, p_max=90.0)
        s = _scenario([bad_gen], [con])
        v1 = validate_scenario(s)
        v2 = validate_scenario(s)
        assert v1 == v2
        assert v1 == sorted(v1)
        assert len(v1) >= 4


class TestWeightEntryRule:
    """Weights built in code follow the type rule of scenario files."""

    @pytest.mark.parametrize("matrix", ["W", "Q"])
    @pytest.mark.parametrize("entry", ["0.5", True, None])
    def test_non_numeric_list_entries_rejected(self, table1, matrix, entry):
        rows = getattr(table1.weights, matrix).tolist()
        rows[0][0] = entry
        weights = {"W": table1.weights.W, "Q": table1.weights.Q, matrix: rows}
        with pytest.raises(ValueError, match=f"{matrix} has non-numeric entries"):
            WeightMatrices(**weights)

    @pytest.mark.parametrize("dtype", [bool, object])
    def test_non_numeric_array_dtype_rejected(self, table1, dtype):
        Q = table1.weights.Q.astype(dtype)
        with pytest.raises(ValueError, match="Q has non-numeric entries"):
            WeightMatrices(W=table1.weights.W, Q=Q)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_int_and_float_arrays_accepted_read_only(self, dtype):
        M = np.eye(3, dtype=dtype)
        w = WeightMatrices(W=M, Q=M)
        for A in (w.W, w.Q):
            assert A.dtype == np.float64 and not A.flags.writeable
            np.testing.assert_array_equal(A, np.eye(3))
        assert M.flags.writeable


class TestNodeMapping:
    def test_interleaved_kinds(self):
        gens = [GEN1, GEN2]
        cons = [ConsumerParams(w=18.43, alpha=0.0545, p_min=50.0, p_max=100.34),
                ConsumerParams(w=13.17, alpha=0.0877, p_min=100.0, p_max=159.13)]
        kinds = ["generator", "consumer", "generator", "consumer"]
        edges = [(i, i) for i in range(4)] + [(i, (i + 1) % 4) for i in range(4)] + \
                [(i, (i - 1) % 4) for i in range(4)]
        graph = Digraph(n=4, edges=sorted(set(edges)), node_kind=kinds)
        s = Scenario(generators=gens, consumers=cons, graph=graph,
                     weights=build_uniform_weights(graph),
                     eta=0.002, eps_m=1e-8, eps_l=1e-8, max_iters=10)
        assert validate_scenario(s) == []
        assert s.generator_nodes == (0, 2)
        assert s.consumer_nodes == (1, 3)
        assert s.agents.params[0] is s.generators[0]
        assert s.agents.params[2] is s.generators[1]
        assert s.agents.params[1] is s.consumers[0]
        assert s.agents.params[3] is s.consumers[1]

    def test_agent_view_interleaved_kinds(self):
        cons = (ConsumerParams(w=18.43, alpha=0.0545, p_min=50.0, p_max=100.34),
                ConsumerParams(w=13.17, alpha=0.0877, p_min=100.0, p_max=159.13))
        edges = [(i, i) for i in range(4)] + [(i, (i + 1) % 4) for i in range(4)]
        graph = Digraph(n=4, edges=edges,
                        node_kind=["generator", "consumer", "generator", "consumer"])
        s = Scenario(generators=(GEN1, GEN2), consumers=cons, graph=graph,
                     weights=build_uniform_weights(graph),
                     eta=0.002, eps_m=1e-8, eps_l=1e-8, max_iters=10)
        agents = s.agents
        assert s.agents is agents
        assert agents.params == (GEN1, cons[0], GEN2, cons[1])
        np.testing.assert_array_equal(agents.sign, [-1.0, 1.0, -1.0, 1.0])
        np.testing.assert_array_equal(agents.loss, [GEN1.B, 0.0, GEN2.B, 0.0])
        np.testing.assert_array_equal(
            agents.net(np.array([81.98, 90.0, 124.80, 110.0])),
            [GEN1.net(81.98), 90.0, GEN2.net(124.80), 110.0],
        )


class TestScenarioFiles:
    def test_round_trip_bit_exact(self, table1, tmp_path):
        path = tmp_path / "t1.json"
        save_scenario(table1, path)
        again = load_scenario(path)
        assert again.generators == table1.generators
        assert again.consumers == table1.consumers
        assert again.graph.edges == table1.graph.edges
        assert again.graph.node_kind == table1.graph.node_kind
        np.testing.assert_array_equal(again.weights.W, table1.weights.W)
        np.testing.assert_array_equal(again.weights.Q, table1.weights.Q)
        assert (again.eta, again.eps_m, again.eps_l, again.max_iters) == (
            table1.eta, table1.eps_m, table1.eps_l, table1.max_iters)

    def test_numpy_scalars_save_as_python_numbers(self, table1, tmp_path):
        path = tmp_path / "t1.json"
        graph = dataclasses.replace(table1.graph, n=np.int64(4))
        s = dataclasses.replace(table1, graph=graph, max_iters=np.int64(100), eta=np.float32(0.002))
        assert validate_scenario(s) == []
        save_scenario(s, path)
        again = load_scenario(path)
        assert (type(again.graph.n), again.graph.n) == (int, 4)
        assert (type(again.max_iters), again.max_iters) == (int, 100)
        assert (type(again.eta), again.eta) == (float, float(np.float32(0.002)))

    def test_unwritable_scenario_leaves_the_file_as_it_was(self, table1, tmp_path):
        path = tmp_path / "t1.json"
        save_scenario(table1, path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            save_scenario(dataclasses.replace(table1, eta=Fraction(1, 500)), path)
        assert path.read_bytes() == before

    def test_round_trip_dict(self, table1):
        d = scenario_to_dict(table1)
        s = scenario_from_dict(json.loads(json.dumps(d)))
        assert s.generators == table1.generators
        np.testing.assert_array_equal(s.weights.Q, table1.weights.Q)

    def test_preset_and_uniform_shorthand(self, table1):
        d = scenario_to_dict(table1)
        d["graph"] = {"preset": "ring4"}
        d["weights"] = "uniform"
        s = scenario_from_dict(d)
        assert s.graph.edges == table1.graph.edges
        np.testing.assert_array_equal(s.weights.W, table1.weights.W)

    @pytest.mark.parametrize("max_iters", [2.5, float("nan"), "10"])
    def test_non_integer_max_iters_loads_unconverted(self, table1, max_iters):
        d = scenario_to_dict(table1)
        d["max_iters"] = max_iters
        s = scenario_from_dict(json.loads(json.dumps(d)))
        assert [v.rule for v in validate_scenario(s)] == ["scenario.max_iters"]

    def test_integral_float_max_iters_loads_as_int(self, table1):
        d = scenario_to_dict(table1)
        d["max_iters"] = 300.0
        s = scenario_from_dict(d)
        assert type(s.max_iters) is int and s.max_iters == 300
        assert validate_scenario(s) == []

    @pytest.mark.parametrize("name, value", [
        ("eta", "0.002"), ("eta", True), ("eps_m", True), ("eps_l", None),
        ("max_iters", True),
    ])
    def test_non_numeric_constants_load_unconverted(self, table1, name, value):
        d = scenario_to_dict(table1)
        d[name] = value
        s = scenario_from_dict(json.loads(json.dumps(d)))
        assert type(getattr(s, name)) is type(value) and getattr(s, name) == value
        assert [v.rule for v in validate_scenario(s)] == [f"scenario.{name}"]

    def test_integer_constants_load_as_float(self, table1):
        d = scenario_to_dict(table1)
        d["eps_m"] = 1
        d["eps_l"] = 2
        s = scenario_from_dict(json.loads(json.dumps(d)))
        assert (type(s.eps_m), s.eps_m, type(s.eps_l), s.eps_l) == (float, 1.0, float, 2.0)
        assert validate_scenario(s) == []

    def test_bool_generator_parameter_in_file_flagged(self, table1):
        d = scenario_to_dict(table1)
        d["generators"][1]["a"] = True
        s = scenario_from_dict(json.loads(json.dumps(d)))
        assert [(v.node, v.rule) for v in validate_scenario(s)] == [(1, "gen.finite")]

    @pytest.mark.parametrize("matrix", ["W", "Q"])
    @pytest.mark.parametrize("entry", ["0.3333333333333333", True, None, [0.5]])
    def test_non_numeric_weight_entries_rejected(self, table1, matrix, entry):
        d = scenario_to_dict(table1)
        d["weights"][matrix][0][0] = entry
        with pytest.raises(ValueError, match=f"{matrix} has non-numeric entries"):
            scenario_from_dict(json.loads(json.dumps(d)))

    def test_integer_weight_entries_load_as_float(self, table1):
        # ring4 has no edge 2 -> 0, so W[0][2] and Q[0][2] are zero
        d = scenario_to_dict(table1)
        d["weights"]["W"][0][2] = 0
        d["weights"]["Q"][0][2] = 0
        s = scenario_from_dict(json.loads(json.dumps(d)))
        assert s.weights.W.dtype == s.weights.Q.dtype == np.float64
        np.testing.assert_array_equal(s.weights.W, table1.weights.W)
        assert validate_scenario(s) == []

    @pytest.mark.parametrize("edge", [[0, 1.7], [0, True], [1.0, 0], ["0", 1]])
    def test_non_integer_edge_endpoints_rejected(self, table1, edge):
        d = scenario_to_dict(table1)
        d["graph"]["edges"].append(edge)
        with pytest.raises(ValueError, match="non-integer endpoint"):
            scenario_from_dict(json.loads(json.dumps(d)))

    @pytest.mark.parametrize("n", [4.0, 4.5, True])
    def test_non_integer_node_count_rejected(self, table1, n):
        # range(n) in validation would raise TypeError on 4.0, and true would
        # count as one node
        d = scenario_to_dict(table1)
        d["graph"]["n"] = n
        with pytest.raises(ValueError, match=f"graph node count {n!r} is not an integer"):
            scenario_from_dict(json.loads(json.dumps(d)))

    def test_unknown_preset_rejected(self, table1):
        d = scenario_to_dict(table1)
        d["graph"] = {"preset": "mesh9"}
        with pytest.raises(ValueError, match="preset"):
            scenario_from_dict(d)


@pytest.fixture
def collector_setting():
    """Restores the garbage collector's setting after the test."""
    was_on = gc.isenabled()
    yield
    (gc.enable if was_on else gc.disable)()


class TestCollectorPausedWhileLoading:
    """load_scenario turns the cyclic collector off while it reads and
    converts a file, and leaves the caller's setting as it found it."""

    @pytest.mark.parametrize("collector_on", [True, False])
    @pytest.mark.parametrize("outcome", ["loads", "unreadable", "invalid JSON", "bad edge"])
    def test_setting_restored_on_every_exit(self, table1, tmp_path, collector_setting,
                                            collector_on, outcome):
        path = tmp_path / "s.json"
        if outcome == "loads":
            save_scenario(table1, path)
        elif outcome == "invalid JSON":
            path.write_text("{")
        elif outcome == "bad edge":
            d = scenario_to_dict(table1)
            d["graph"]["edges"][0] = [0, 1.5]
            path.write_text(json.dumps(d))
        (gc.enable if collector_on else gc.disable)()
        if outcome == "loads":
            load_scenario(path)
        else:
            with pytest.raises((OSError, ValueError)):
                load_scenario(path)
        assert gc.isenabled() == collector_on

    def test_collector_off_while_reading_and_converting(self, table1, tmp_path, monkeypatch,
                                                        collector_setting):
        path = tmp_path / "s.json"
        save_scenario(table1, path)
        seen = []
        for name in ("read_json", "scenario_from_dict"):
            def spy(arg, _fn=getattr(scenario_module, name)):
                seen.append(gc.isenabled())
                return _fn(arg)
            monkeypatch.setattr(scenario_module, name, spy)
        gc.enable()
        load_scenario(path)
        assert seen == [False, False] and gc.isenabled()

    @pytest.mark.parametrize("collector_on", [True, False])
    def test_many_threads_leave_the_setting(self, table1, tmp_path, collector_setting, collector_on):
        path = tmp_path / "s.json"
        save_scenario(table1, path)
        loaded = []
        interval = sys.getswitchinterval()
        (gc.enable if collector_on else gc.disable)()
        try:
            sys.setswitchinterval(1e-6)
            threads = [threading.Thread(target=lambda: loaded.extend(load_scenario(path) for _ in range(20)))
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(loaded) == 160 and all(s.eta == table1.eta for s in loaded)
        assert gc.isenabled() == collector_on


class TestDigraphConstruction:
    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Digraph(n=2, edges=[(0, 0), (1, 1), (2, 0)], node_kind=["generator", "consumer"])

    def test_numpy_integer_endpoints_accepted(self):
        g = Digraph(n=2, edges=[(np.int64(0), np.int64(1)), (0, 0), (1, 1), (1, 0)],
                    node_kind=["generator", "consumer"])
        assert g.edges[0] == (0, 1) and type(g.edges[0][0]) is int

    def test_adjacency_marks_receiver_row_sender_column(self):
        # edge (u, v) means u sends to v, so it sets entry [v, u]; duplicate
        # edges set it once, and a graph without edges gives all False
        g = Digraph(n=3, edges=[(0, 1), (0, 1), (2, 2), (1, 0)], node_kind=["generator"] * 3)
        assert g.adjacency().tolist() == [[False, True, False],
                                          [True, False, False],
                                          [False, False, True]]
        assert not Digraph(n=2, edges=[], node_kind=["generator"] * 2).adjacency().any()

    def test_negative_edge_index_rejected(self):
        # negative indices would silently wrap when building weight matrices
        with pytest.raises(ValueError, match="out of range"):
            Digraph(n=2, edges=[(0, 0), (-1, 1)], node_kind=["generator", "consumer"])

    @pytest.mark.parametrize("edge", [(1, -1), (2, 0), (0, 2)])
    def test_either_endpoint_out_of_range_rejected(self, edge):
        with pytest.raises(ValueError, match=rf"edge \({edge[0]}, {edge[1]}\) out of range for 2 nodes"):
            Digraph(n=2, edges=[(0, 0), edge], node_kind=["generator", "consumer"])

    @pytest.mark.parametrize("edges", [
        [(0, 0), (1, 1), (0, 1, 1)],
        [(0, 0), (1,)],
        [(0, 0), 5],
        [(0, 0), None],
        # the first offender is named even when a later edge is malformed
        [(0, 1.5), (1,)],
        [(0, 0), (1,), (0, 1.5)],
        [(0, 0), (5, 0), (1,)],
    ])
    def test_malformed_edges_keep_their_error(self, edges):
        # what the edge-by-edge walk raises: each edge unpacked as (u, v),
        # every endpoint type checked, then every endpoint's range
        want = None
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError) as exc:
                want = (type(exc), str(exc))
                break
            if not all(type(x) is int for x in (u, v)):
                want = (ValueError, f"edge ({u!r}, {v!r}) has a non-integer endpoint")
                break
        else:
            want = (ValueError, "edge (5, 0) out of range for 2 nodes")
        with pytest.raises(Exception) as exc:
            Digraph(n=2, edges=edges, node_kind=["generator", "consumer"])
        assert (type(exc.value), str(exc.value)) == want

    @pytest.mark.parametrize("edge, error", [
        ([0, 1, 1], ValueError), ([0], ValueError), (5, TypeError), (None, TypeError),
    ])
    def test_malformed_file_edges_keep_their_error(self, table1, edge, error):
        d = scenario_to_dict(table1)
        d["graph"]["edges"].append(edge)
        try:
            u, v = tuple(edge)
        except (TypeError, ValueError) as exc:
            want = str(exc)
        with pytest.raises(error) as exc:
            scenario_from_dict(json.loads(json.dumps(d)))
        assert str(exc.value) == want

    def test_one_shot_edge_iterator_keeps_its_edges(self):
        edges = [(0, 0), (1, 1), (0, 1), (1, 0)]
        g = Digraph(n=2, edges=iter(edges), node_kind=["generator", "consumer"])
        assert g.edges == tuple(edges)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            Digraph(n=0, edges=[], node_kind=[])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Digraph(n=1, edges=[(0, 0)], node_kind=["storage"])


def _accepted(call) -> bool:
    """Whether call() runs without raising ValueError."""
    try:
        call()
    except ValueError:
        return False
    return True


# each site of the number rule: does it accept x as a number?
NUMBER_SITES = {
    "graph.n": lambda table1, x: _accepted(
        lambda: Digraph(n=x, edges=[(0, 0)], node_kind=["generator"])),
    "graph.edge": lambda table1, x: _accepted(
        lambda: Digraph(n=2, edges=[(0, 0), (x, 1), (1, 0)], node_kind=["generator", "consumer"])),
    "real_array": lambda table1, x: _accepted(lambda: real_array([[x]], "W", 2)),
    "gen.finite": lambda table1, x: "gen.finite" not in {v.rule for v in validate_scenario(
        dataclasses.replace(table1, generators=(dataclasses.replace(table1.generators[0], a=x),
                                                *table1.generators[1:])))},
    "file.eta": lambda table1, x: type(scenario_from_dict(
        {**scenario_to_dict(table1), "eta": x}).eta) is float,
    "max_iters": lambda table1, x: "scenario.max_iters" not in {
        v.rule for v in validate_scenario(dataclasses.replace(table1, max_iters=x))},
    "trace_stride": lambda table1, x: _accepted(
        lambda: run(table1, "corrected", trace_stride=x)),
    "grid_step": lambda table1, x: _accepted(lambda: brute_force_reference(table1, x)),
    "kkt.lam": lambda table1, x: _accepted(lambda: kkt_check(np.zeros(4), x, table1)),
}
INTEGER_SITES = {"graph.n", "graph.edge", "max_iters", "trace_stride"}
NUMBERS = {
    "True": True, "np.bool_": np.True_, "Fraction": Fraction(1), "complex": 1 + 0j, "str": "1",
    "int": 1, "np.int64": np.int64(1), "float": 1.0, "np.float32": np.float32(1.0),
}
INTEGERS = {"int", "np.int64"}
REALS = INTEGERS | {"float", "np.float32"}


class TestNumberRule:
    """One rule at every site: an int (integer sites), or an int or a float
    (real sites), numpy's included, never a bool."""

    @pytest.mark.parametrize("site", sorted(NUMBER_SITES))
    @pytest.mark.parametrize("name", sorted(NUMBERS))
    def test_site_follows_the_rule(self, table1, site, name):
        accepted = NUMBER_SITES[site](table1, NUMBERS[name])
        assert accepted == (name in (INTEGERS if site in INTEGER_SITES else REALS))

    def test_real_grid_step_runs_in_float(self, table1):
        # np.float32 arithmetic would move the grid's points
        want = brute_force_reference(table1, 0.5)
        got = brute_force_reference(table1, np.float32(0.5))
        assert type(got.grid_step) is float
        assert (got.P.tobytes(), got.objective) == (want.P.tobytes(), want.objective)


# ---------------------------------------------------------------------------
# validate_scenario against a reference copy of its earlier, unoptimized form


def _reference_finite(x) -> bool:
    try:
        return is_real(x) and math.isfinite(x)
    except OverflowError:
        return False


def _reference_adjacency(graph) -> np.ndarray:
    adj = np.zeros((graph.n, graph.n), dtype=bool)
    u, v = np.array(graph.edges, dtype=np.intp).reshape(-1, 2).T
    adj[v, u] = True
    return adj


def _reference_validate(s: Scenario) -> list:
    """validate_scenario as it was before its dense passes were cut: every
    rule walks its whole input, with no fast path."""
    out = []

    def add(node, rule, message):
        out.append(Violation(node=node, rule=rule, message=message))

    kinds = s.graph.node_kind
    n_gen_nodes = sum(1 for k in kinds if k is NodeKind.GENERATOR)
    n_con_nodes = len(kinds) - n_gen_nodes
    if len(kinds) != s.graph.n:
        add(-1, "graph.kinds_length", f"node_kind has {len(kinds)} entries for {s.graph.n} nodes")
    if s.graph.n != len(s.generators) + len(s.consumers):
        add(-1, "scenario.node_count",
            f"graph has {s.graph.n} nodes but {len(s.generators)} generators + "
            f"{len(s.consumers)} consumers")
    if n_gen_nodes != len(s.generators) or n_con_nodes != len(s.consumers):
        add(-1, "scenario.kind_counts",
            f"kinds declare {n_gen_nodes} generator / {n_con_nodes} consumer nodes, "
            f"params give {len(s.generators)} / {len(s.consumers)}")

    if len(kinds) == s.graph.n:
        for i in s.graph.missing_self_loops():
            add(i, "graph.self_loop", f"node {i} has no self-loop")
        if not s.graph.is_strongly_connected():
            add(-1, "graph.strongly_connected", "graph is not strongly connected")

    gen_nodes = tuple(i for i, k in enumerate(kinds) if k is NodeKind.GENERATOR)
    for j, g in enumerate(s.generators):
        node = gen_nodes[j] if j < len(gen_nodes) else -1
        if not all(_reference_finite(x) for x in (g.a, g.b, g.c, g.B, g.p_min, g.p_max)):
            add(node, "gen.finite", f"generator {j} has non-finite or non-numeric parameters")
            continue
        before = len(out)
        if g.a <= 0:
            add(node, "gen.a_positive", f"generator {j}: a = {g.a} must be > 0")
        if g.B <= 0:
            add(node, "gen.B_positive", f"generator {j}: B = {g.B} must be > 0")
        if not (0 < g.p_min <= g.p_max):
            add(node, "gen.box", f"generator {j}: need 0 < p_min <= p_max, got [{g.p_min}, {g.p_max}]")
        if 2 * g.B * g.p_max >= 1:
            add(node, "gen.net_monotone", f"generator {j}: 2B*p_max = {2 * g.B * g.p_max} >= 1")
        if len(out) == before and not all(
            _reference_finite(g.loss_adjusted_marginal_cost(P)) for P in (g.p_min, g.p_max)
        ):
            add(node, "gen.price_finite",
                f"generator {j}: loss-adjusted marginal cost is not finite at p_min or p_max")

    con_nodes = tuple(i for i, k in enumerate(kinds) if k is NodeKind.CONSUMER)
    for j, c in enumerate(s.consumers):
        node = con_nodes[j] if j < len(con_nodes) else -1
        if not all(_reference_finite(x) for x in (c.w, c.alpha, c.p_min, c.p_max)):
            add(node, "con.finite", f"consumer {j} has non-finite or non-numeric parameters")
            continue
        if c.w <= 0:
            add(node, "con.w_positive", f"consumer {j}: w = {c.w} must be > 0")
        if c.alpha <= 0:
            add(node, "con.alpha_positive", f"consumer {j}: alpha = {c.alpha} must be > 0")
        if not (0 < c.p_min <= c.p_max):
            add(node, "con.box", f"consumer {j}: need 0 < p_min <= p_max, got [{c.p_min}, {c.p_max}]")

    W, Q = s.weights.W, s.weights.Q
    n = s.graph.n
    if W.shape != (n, n) or Q.shape != (n, n):
        add(-1, "weights.shape", f"W {W.shape} / Q {Q.shape} do not match node count {n}")
    else:
        if np.any(W < 0):
            add(-1, "weights.W_nonnegative", "W has negative entries")
        if np.any(Q < 0):
            add(-1, "weights.Q_nonnegative", "Q has negative entries")
        row_err = np.abs(W.sum(axis=1) - 1.0)
        for i in np.nonzero(row_err > STOCHASTIC_TOL)[0]:
            add(int(i), "weights.W_row_stochastic",
                f"row {i} of W sums to {float(W[i].sum())!r}, off by {row_err[i]:.3e}")
        col_err = np.abs(Q.sum(axis=0) - 1.0)
        for j in np.nonzero(col_err > STOCHASTIC_TOL)[0]:
            add(int(j), "weights.Q_col_stochastic",
                f"column {j} of Q sums to {float(Q[:, j].sum())!r}, off by {col_err[j]:.3e}")
        no_edge = ~(_reference_adjacency(s.graph) | np.eye(n, dtype=bool))
        for name, M in (("W", W), ("Q", Q)):
            if not np.all(np.isfinite(M)):
                add(-1, "weights.finite", f"{name} has non-finite entries")
            for i, j in zip(*np.nonzero((M > 0) & no_edge)):
                add(int(i), f"weights.{name}_sparsity",
                    f"{name}[{i}][{j}] > 0 without edge {j}->{i}")

    if not (_reference_finite(s.eta) and 0 < s.eta < 1):
        add(-1, "scenario.eta", f"eta = {reprlib.repr(_plain(s.eta))} must satisfy 0 < eta < 1")
    if not (_reference_finite(s.eps_m) and s.eps_m > 0):
        add(-1, "scenario.eps_m", f"eps_m = {reprlib.repr(_plain(s.eps_m))} must be > 0")
    if not (_reference_finite(s.eps_l) and s.eps_l > 0):
        add(-1, "scenario.eps_l", f"eps_l = {reprlib.repr(_plain(s.eps_l))} must be > 0")
    if not (is_integer(s.max_iters) and s.max_iters >= 1):
        add(-1, "scenario.max_iters",
            f"max_iters = {reprlib.repr(_plain(s.max_iters))} must be an integer >= 1")

    return sorted(out)


# what a parameter or constant may be replaced with: non-finite, non-numeric
# or out-of-range values, numpy's included, and an int past float range
_BAD_VALUES = st.sampled_from([
    math.nan, math.inf, -math.inf, True, False, "0.5", None, 0.0, -1.0, -0.25, 2.5, 0, 1,
    10**400, np.float64(math.nan), np.float32(math.inf), np.int64(-3), 1e308, 1e306,
])
# what a weight entry may be set to: off-stochastic by more and by less than
# the tolerance, negative, non-finite, and large enough that a row or column
# sum overflows while every entry is finite
_BAD_WEIGHTS = st.sampled_from([
    "+1e-6", "+1e-14", -0.1, -0.0, 0.0, 0.5, math.nan, math.inf, -math.inf, 1e308,
])
_GEN_FIELDS = ("a", "b", "c", "B", "p_min", "p_max")
_CON_FIELDS = ("w", "alpha", "p_min", "p_max")
_CONSTANTS = ("eta", "eps_m", "eps_l", "max_iters")


def _numpy_scalar(x):
    """x as the numpy scalar of its type: np.bool_, np.int64 (an int within
    its range) or np.float64; any other value as given."""
    if isinstance(x, bool):
        return np.bool_(x)
    if isinstance(x, int) and -2**63 <= x < 2**63:
        return np.int64(x)
    if isinstance(x, float):
        return np.float64(x)
    return x


@st.composite
def _broken_scenarios(draw, numpy_scalars=False):
    """A generated ring with up to eight bad parameters, constants or weight
    entries, a cut edge or node, and kinds and parameters that may disagree
    in count. With numpy_scalars every parameter and constant is a numpy
    scalar, as a scenario built in code may hold."""
    n_gen, n_con = draw(st.integers(2, 20)), draw(st.integers(2, 20))
    n = n_gen + n_con
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gens = []
    for _ in range(n_gen):
        p_min = rng.uniform(20.0, 70.0)
        gens.append(GeneratorParams(a=rng.uniform(0.0015, 0.008), b=rng.uniform(3.5, 7.0),
                                    c=rng.uniform(10.0, 50.0), B=rng.uniform(0.00012, 0.0004),
                                    p_min=p_min, p_max=p_min + rng.uniform(120.0, 350.0)))
    cons = []
    for _ in range(n_con):
        p_min = rng.uniform(40.0, 110.0)
        cons.append(ConsumerParams(w=rng.uniform(11.0, 20.0), alpha=rng.uniform(0.045, 0.11),
                                   p_min=p_min, p_max=p_min + rng.uniform(30.0, 90.0)))
    graph = ring_digraph(n_gen, n_con)
    weights = build_uniform_weights(graph)
    W, Q = weights.W.copy(), weights.Q.copy()
    constants = {"eta": 0.002, "eps_m": 1e-8, "eps_l": 1e-8, "max_iters": 1000}
    for _ in range(draw(st.integers(0, 8))):
        where = draw(st.sampled_from(["generator", "consumer", "constant", "W", "Q"]))
        if where == "generator":
            j = draw(st.integers(0, n_gen - 1))
            gens[j] = dataclasses.replace(gens[j], **{draw(st.sampled_from(_GEN_FIELDS)): draw(_BAD_VALUES)})
        elif where == "consumer":
            j = draw(st.integers(0, n_con - 1))
            cons[j] = dataclasses.replace(cons[j], **{draw(st.sampled_from(_CON_FIELDS)): draw(_BAD_VALUES)})
        elif where == "constant":
            constants[draw(st.sampled_from(_CONSTANTS))] = draw(_BAD_VALUES)
        else:
            M = W if where == "W" else Q
            # any entry: on the ring's support, on the diagonal or off it
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            value = draw(_BAD_WEIGHTS)
            M[i, j] = M[i, j] + float(value) if isinstance(value, str) else value
    cut = draw(st.sampled_from(["none", "edge", "node"]))
    if cut != "none":
        # a dropped edge leaves its weights off the support and may be a
        # self-loop; a node whose in-edges all go but its self-loop is
        # unreachable
        edges = list(graph.edges)
        if cut == "edge":
            del edges[draw(st.integers(0, len(edges) - 1))]
        else:
            k = draw(st.integers(0, n - 1))
            edges = [(u, v) for u, v in edges if v != k or u == k]
        graph = Digraph(n=n, edges=edges, node_kind=graph.node_kind)
    if draw(st.booleans()):
        # kinds and parameters that disagree in count
        cons = cons[:draw(st.integers(0, n_con - 1))]
    if numpy_scalars:
        gens, cons = ([type(p)(*map(_numpy_scalar, dataclasses.astuple(p))) for p in group]
                      for group in (gens, cons))
        constants = {name: _numpy_scalar(x) for name, x in constants.items()}
    return Scenario(generators=tuple(gens), consumers=tuple(cons), graph=graph,
                    weights=WeightMatrices(W=W, Q=Q), **constants)


class TestViolationsMatchTheReference:
    """validate_scenario reports the reference's violations in its order and
    with its messages, which Violation's own equality would not compare."""

    @staticmethod
    def _both(s):
        # both forms sum the weights, and a sum may overflow or meet inf - inf
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = validate_scenario(s), _reference_validate(s)
        return ([(v.node, v.rule, v.message) for v in got],
                [(v.node, v.rule, v.message) for v in want])

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(s=_broken_scenarios())
    def test_generated_scenarios(self, s):
        got, want = self._both(s)
        assert got == want

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(s=_broken_scenarios())
    def test_weight_messages_print_plain_floats(self, s):
        # a weight sum is a numpy scalar, whose repr reads np.float64(...)
        # under numpy 2 and a bare number under 1.x
        with np.errstate(over="ignore", invalid="ignore"):
            messages = [v.message for v in validate_scenario(s) if v.rule.startswith("weights.")]
        assert not [m for m in messages if "np." in m]

    def test_messages_print_plain_numbers(self):
        # a numpy scalar's repr reads np.int64(-3) under numpy 2 and -3 under
        # 1.x; every rule's message prints the plain number
        seen = set()

        @settings(derandomize=True, database=None, max_examples=100, deadline=None)
        @given(s=_broken_scenarios(numpy_scalars=True))
        def check(s):
            got, want = self._both(s)
            assert got == want
            assert not [m for _, _, m in got if "np." in m]
            seen.update(rule for _, rule, _ in got)

        check()
        assert {f"scenario.{name}" for name in _CONSTANTS} <= seen

    @pytest.mark.parametrize("name, value, message", [
        ("eta", np.int64(-3), "eta = -3 must satisfy 0 < eta < 1"),
        ("eps_m", np.float32(math.inf), "eps_m = inf must be > 0"),
        ("eps_l", np.float64(math.nan), "eps_l = nan must be > 0"),
        ("max_iters", np.float64(2.5), "max_iters = 2.5 must be an integer >= 1"),
    ])
    def test_numpy_scalar_constant_prints_plain(self, table1, name, value, message):
        s = dataclasses.replace(table1, **{name: value})
        assert [v.message for v in validate_scenario(s)] == [message]

    def test_off_stochastic_row_prints_its_sum(self, table1):
        W = table1.weights.W.copy()
        W[0, 0] += 1e-6
        Q = table1.weights.Q.copy()
        Q[0, 0] += 1e308
        s = dataclasses.replace(table1, weights=WeightMatrices(W=W, Q=Q))
        with np.errstate(over="ignore", invalid="ignore"):
            messages = {v.rule: v.message for v in validate_scenario(s)}
        assert messages["weights.W_row_stochastic"].startswith(f"row 0 of W sums to {float(W[0].sum())!r}, ")
        assert messages["weights.Q_col_stochastic"].startswith("column 0 of Q sums to 1e+308, ")

    def test_overflowing_sum_of_finite_weights(self, table1):
        # finite entries whose row and column sums overflow: weights.finite
        # must not be reported however the sums read
        W = table1.weights.W.copy()
        W[0, 0] = W[0, 1] = 1e308
        s = dataclasses.replace(table1, weights=WeightMatrices(W=W, Q=W.T.copy()))
        got, want = self._both(s)
        assert got == want
        assert "weights.finite" not in {rule for _, rule, _ in got}
