"""Domain model: validation, weights, feasibility, net injection, JSON files."""

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
    net_injection,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from cemasim.presets import ring_digraph


GEN1 = GeneratorParams(a=0.0024, b=5.56, c=30.0, B=0.00021, p_min=60.0, p_max=339.69)
GEN2 = GeneratorParams(a=0.0056, b=4.32, c=25.0, B=0.00031, p_min=25.0, p_max=479.10)


class TestNetInjection:
    def test_table1_values(self):
        # arithmetic cross-checked by hand: P - B*P^2
        assert net_injection(GEN1, 81.98) == pytest.approx(80.568648716, abs=1e-12)
        assert net_injection(GEN2, 124.80) == pytest.approx(119.9717376, abs=1e-12)

    def test_zero_loss_is_identity(self):
        p = GeneratorParams(a=1.0, b=0.0, c=0.0, B=0.0, p_min=1.0, p_max=50.0)
        for P in (1.0, 7.25, 50.0):
            assert net_injection(p, P) == P

    def test_out_of_box_rejected(self):
        with pytest.raises(ValueError):
            net_injection(GEN1, 10.0)
        with pytest.raises(ValueError):
            net_injection(GEN1, 400.0)

    def test_strictly_monotone_on_box(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            lo, hi = sorted(rng.uniform(GEN2.p_min, GEN2.p_max, size=2))
            if lo == hi:
                continue
            assert net_injection(GEN2, hi) > net_injection(GEN2, lo)


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


class TestValidateScenario:
    def test_table1_is_valid(self, table1):
        assert validate_scenario(table1) == []

    def test_net_monotonicity_bound(self):
        # B*p_max = 0.9582 < 1 but 2*B*p_max = 1.9164 >= 1: only the second
        # rule fires
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

    def test_zero_loss_flagged(self):
        gen = GeneratorParams(a=0.002, b=5.0, c=1.0, B=0.0, p_min=10.0, p_max=100.0)
        con = ConsumerParams(w=10.0, alpha=0.05, p_min=10.0, p_max=90.0)
        rules = [v.rule for v in validate_scenario(_scenario([gen], [con]))]
        assert rules == ["gen.B_positive"]

    def test_eta_out_of_range(self, table1):
        import dataclasses
        s = dataclasses.replace(table1, eta=1.5)
        assert [v.rule for v in validate_scenario(s)] == ["scenario.eta"]

    def test_weight_stochasticity_violations(self, table1):
        import dataclasses
        W = table1.weights.W.copy()
        W[0, 0] += 1e-6
        s = dataclasses.replace(table1, weights=WeightMatrices(W=W, Q=table1.weights.Q))
        rules = [v.rule for v in validate_scenario(s)]
        assert rules == ["weights.W_row_stochastic"]

    def test_weight_sparsity_violation(self, table1):
        import dataclasses
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
        import dataclasses
        M = getattr(table1.weights, name).copy()
        M[1, 1] = bad
        weights = WeightMatrices(**{"W": table1.weights.W, "Q": table1.weights.Q, name: M})
        violations = validate_scenario(dataclasses.replace(table1, weights=weights))
        assert (-1, "weights.finite", f"{name} has non-finite entries") in [
            (v.node, v.rule, v.message) for v in violations
        ]

    @pytest.mark.parametrize("max_iters", [2.5, float("nan"), 0, "10"])
    def test_max_iters_must_be_integer(self, table1, max_iters):
        import dataclasses
        s = dataclasses.replace(table1, max_iters=max_iters)
        assert [v.rule for v in validate_scenario(s)] == ["scenario.max_iters"]

    def test_count_mismatch_is_a_violation_not_an_error(self, table1):
        import dataclasses
        s = dataclasses.replace(table1, consumers=table1.consumers[:1])
        rules = {v.rule for v in validate_scenario(s)}
        assert {"scenario.node_count", "scenario.kind_counts"} <= rules
        with pytest.raises(ValueError):
            s.agents

    def test_ordering_deterministic(self):
        bad_gen = GeneratorParams(a=-1.0, b=5.0, c=1.0, B=0.0, p_min=-2.0, p_max=-3.0)
        con = ConsumerParams(w=-1.0, alpha=0.05, p_min=10.0, p_max=90.0)
        s = _scenario([bad_gen], [con])
        v1 = validate_scenario(s)
        v2 = validate_scenario(s)
        assert v1 == v2
        assert v1 == sorted(v1)
        assert len(v1) >= 4


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
        assert s.node_params(0) is s.generators[0]
        assert s.node_params(2) is s.generators[1]
        assert s.node_params(1) is s.consumers[0]
        assert s.node_params(3) is s.consumers[1]

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
            [net_injection(GEN1, 81.98), 90.0, net_injection(GEN2, 124.80), 110.0],
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

    def test_unknown_preset_rejected(self, table1):
        d = scenario_to_dict(table1)
        d["graph"] = {"preset": "mesh9"}
        with pytest.raises(ValueError, match="preset"):
            scenario_from_dict(d)


class TestDigraphConstruction:
    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Digraph(n=2, edges=[(0, 0), (1, 1), (2, 0)], node_kind=["generator", "consumer"])

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
