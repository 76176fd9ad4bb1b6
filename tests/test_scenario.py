"""Domain model: validation, weights, feasibility, net injection, JSON files."""

import dataclasses
import json

import numpy as np
import pytest

from cemasim import (
    ConsumerParams,
    Digraph,
    GeneratorParams,
    Scenario,
    WeightMatrices,
    build_uniform_weights,
    check_feasibility_condition,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from cemasim.best_response import generator_response_corrected
from cemasim.presets import ring_digraph


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

    def test_unknown_preset_rejected(self, table1):
        d = scenario_to_dict(table1)
        d["graph"] = {"preset": "mesh9"}
        with pytest.raises(ValueError, match="preset"):
            scenario_from_dict(d)


class TestDigraphConstruction:
    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Digraph(n=2, edges=[(0, 0), (1, 1), (2, 0)], node_kind=["generator", "consumer"])

    def test_numpy_integer_endpoints_accepted(self):
        g = Digraph(n=2, edges=[(np.int64(0), np.int64(1)), (0, 0), (1, 1), (1, 0)],
                    node_kind=["generator", "consumer"])
        assert g.edges[0] == (0, 1) and type(g.edges[0][0]) is int

    def test_negative_edge_index_rejected(self):
        # negative indices would silently wrap when building weight matrices
        with pytest.raises(ValueError, match="out of range"):
            Digraph(n=2, edges=[(0, 0), (-1, 1)], node_kind=["generator", "consumer"])

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            Digraph(n=0, edges=[], node_kind=[])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Digraph(n=1, edges=[(0, 0)], node_kind=["storage"])
