"""Consensus engine: round updates, conservation, termination, determinism."""

import dataclasses
import io
import pickle
import tracemalloc

import numpy as np
import pytest

from cemasim import (
    ConsumerParams,
    Digraph,
    GeneratorParams,
    InvalidScenarioError,
    Scenario,
    Violation,
    WeightMatrices,
    best_response,
    build_uniform_weights,
    engine,
    generator_response_corrected,
    generator_response_original,
    implied_prices,
    kkt_check,
    lambda_init,
    mismatch,
    run,
    solve_centralized,
)
from cemasim.engine import (
    TERMINATED_BY_MAX_ITERS,
    TERMINATED_BY_TOLERANCE,
    TERMINATED_DIVERGED,
    IterationRecord,
    lambda_step,
    power_step,
)
from cemasim.presets import random_scenario, ring_digraph, table1_scenario
from cemasim.trace import BLOCK_ROUNDS, BLOCK_VALUES, csv_sink, write_block
from conftest import reference_csv


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


def _kept(scenario, variant, trace_stride=1):
    """`run` with a list sink: (the result, its kept records in order)."""
    records = []
    return run(scenario, variant, trace_stride, sink=records.append), records


def _sink_csv(scenario, records) -> tuple:
    """(trace CSV, round-summary CSV) bytes of `records` written through
    trace.csv_sink."""
    trace, rounds = io.BytesIO(), io.BytesIO()
    with csv_sink(scenario, trace, rounds) as sink:
        for rec in records:
            sink(rec)
    return trace.getvalue(), rounds.getvalue()


class TestLambdaStep:
    def test_consensus_is_fixed_point(self):
        W = np.full((3, 3), 1.0 / 3.0)
        lam = np.array([4.2, 4.2, 4.2])
        out = lambda_step(lam, np.zeros(3), W, 0.5)
        np.testing.assert_allclose(out, lam, atol=1e-15)

    def test_two_node_arithmetic(self):
        W = np.full((2, 2), 0.5)
        out = lambda_step(np.array([0.0, 2.0]), np.array([1.0, 0.0]), W, 0.5)
        np.testing.assert_array_equal(out, [1.5, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lambda_step(np.zeros(3), np.zeros(2), np.eye(3), 0.1)


class TestPowerStep:
    def test_zero_loss_variants_coincide(self):
        gens = [GeneratorParams(a=0.004, b=3.0, c=1.0, B=0.0, p_min=10.0, p_max=200.0),
                GeneratorParams(a=0.002, b=4.0, c=1.0, B=0.0, p_min=20.0, p_max=300.0)]
        cons = [ConsumerParams(w=12.0, alpha=0.05, p_min=10.0, p_max=100.0),
                ConsumerParams(w=9.0, alpha=0.08, p_min=10.0, p_max=80.0)]
        s = _scenario(gens, cons)
        lams = np.array([4.4, 5.1, 3.2, 6.0])
        np.testing.assert_array_equal(
            power_step(s, generator_response_original, lams),
            power_step(s, generator_response_corrected, lams),
        )

    def test_lower_clip_both_variants(self, table1):
        lams = np.full(4, 5.56)
        for response in (generator_response_original, generator_response_corrected):
            assert power_step(table1, response, lams)[0] == 60.0

    def test_consumers_at_moderate_price(self, table1):
        out = power_step(table1, generator_response_corrected, np.full(4, 6.2))
        np.testing.assert_array_equal(out[2:], [100.34, 100.0])

    def test_unknown_variant(self, table1):
        with pytest.raises(ValueError):
            run(table1, "fixed")

    def test_dimension_mismatch(self, table1):
        with pytest.raises(ValueError, match="zip.. argument 2 is shorter than argument 1"):
            power_step(table1, generator_response_corrected, np.zeros(3))


class TestResponseCounts:
    """The counting contract bench/spans.py relies on: a best response rebound
    on `cemasim.best_response` is the one `run` calls, once per node and
    round, and the variant is looked up once per run."""

    @pytest.mark.parametrize("make", [table1_scenario, lambda: random_scenario(1, 8, 8)],
                             ids=["table1", "random-8-8"])
    @pytest.mark.parametrize("variant", best_response.VARIANTS)
    def test_one_call_per_node_and_round(self, monkeypatch, make, variant):
        scenario = make()
        calls = dict.fromkeys(("generator_response_original", "generator_response_corrected",
                               "consumer_response", "get_variant"), 0)

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(best_response, name, counted(name, getattr(best_response, name)))
        result = run(scenario, variant)
        assert result.terminated == TERMINATED_BY_TOLERANCE
        other = ({"original", "corrected"} - {variant}).pop()
        assert calls == {
            f"generator_response_{variant}": result.rounds * len(scenario.generators),
            f"generator_response_{other}": 0,
            "consumer_response": result.rounds * len(scenario.consumers),
            "get_variant": 1,
        }


class TestSurplusStep:
    """Surplus routing, xi <- Q @ xi + sign * (net(P_new) - net(P_old)), as run
    executes it."""

    def test_pure_mixing_conserves_sum(self, table1):
        # with no power change the update is the column-stochastic Q alone
        rng = np.random.default_rng(5)
        Q = table1.weights.Q
        for _ in range(50):
            xi = rng.normal(size=4) * 10
            assert (Q @ xi).sum() == pytest.approx(xi.sum(), abs=1e-12)

    def test_first_round_sum_equals_mismatch(self, table1):
        # xi(0) = 0 and P(0) = 0, so the first surplus vector must sum to the
        # round-1 power mismatch
        _, records = _kept(table1, "corrected")
        rec = records[1]
        assert rec.k == 1
        assert rec.xi.sum() == pytest.approx(mismatch(rec.P, table1), abs=1e-12)


class TestRoundOneRegression:
    """Round-1 state of the benchmark run, generated once and pinned."""

    def test_corrected_round_one(self, table1):
        _, records = _kept(table1, "corrected")
        rec = records[1]
        assert rec.k == 1
        np.testing.assert_array_equal(
            rec.lam,
            [3.5572006227840514, 6.054847289450718, 4.055120849839174, 4.497373106278211],
        )
        np.testing.assert_array_equal(rec.P, [60.0, 116.01221561645325, 100.34, 100.0])
        np.testing.assert_array_equal(
            rec.xi, [-59.244, -111.83997702305933, 100.34, 100.0]
        )
        assert rec.mismatch == 29.25602297694067
        assert rec.lambda_spread == 2.497646666666667

    def test_original_round_one(self, table1):
        _, records = _kept(table1, "original")
        rec = records[1]
        np.testing.assert_array_equal(
            rec.lam,
            [3.5572006227840514, 6.054847289450718, 4.055120849839174, 4.497373106278211],
        )
        np.testing.assert_array_equal(rec.P, [60.0, 154.89707941524267, 100.34, 100.0])
        np.testing.assert_array_equal(
            rec.xi, [-59.244, -147.45921679971735, 100.34, 100.0]
        )

    def test_step_composition_reproduces_round_one(self, table1):
        # chaining the three step operations by hand must yield the same
        # round-1 row the engine records
        agents = table1.agents
        lam0 = np.array([lambda_init(agents.params[i]) for i in range(4)])
        lam1 = lambda_step(lam0, np.zeros(4), table1.weights.W, table1.eta)
        P1 = power_step(table1, generator_response_corrected, lam1)
        # routing from the zero state: Q @ 0 + sign * (net(P1) - net(0))
        xi1 = agents.sign * agents.net(P1)
        _, records = _kept(table1, "corrected")
        rec = records[1]
        np.testing.assert_array_equal(lam1, rec.lam)
        np.testing.assert_array_equal(P1, rec.P)
        np.testing.assert_array_equal(xi1, rec.xi)


class TestRun:
    def test_corrected_reaches_oracle_optimum(self, table1):
        result = run(table1, "corrected")
        sol = solve_centralized(table1)
        assert result.terminated == TERMINATED_BY_TOLERANCE
        np.testing.assert_allclose(result.final.P, sol.P, atol=1e-3)
        lam = result.final.lam
        assert abs(lam.mean() - sol.lam) <= 1e-6
        assert lam.max() - lam.min() <= 1e-6

    def test_original_misses_oracle_optimum(self, table1):
        result = run(table1, "original")
        sol = solve_centralized(table1)
        assert result.terminated == TERMINATED_BY_TOLERANCE
        gen_nodes = table1.generator_nodes
        for i in gen_nodes:
            assert abs(result.final.P[i] - sol.P[i]) > 1.0

    def test_pinned_scenario_exact_balance(self):
        # boxes force P = (128, 126) with net injection exactly matching
        B = 2.0 ** -13
        gen = GeneratorParams(a=0.01, b=1.0, c=0.0, B=B, p_min=128.0, p_max=128.0)
        con = ConsumerParams(w=10.0, alpha=0.05, p_min=126.0, p_max=126.0)
        s = _scenario([gen], [con], eta=0.01)
        result = run(s, "corrected")
        assert result.terminated == TERMINATED_BY_TOLERANCE
        np.testing.assert_array_equal(result.final.P, [128.0, 126.0])
        assert mismatch(result.final.P, s) == 0.0

    def test_large_gain_fails_to_converge(self, table1):
        s = dataclasses.replace(table1, eta=0.9, max_iters=3000)
        result = run(s, "corrected", trace_stride=500)
        assert result.terminated in (TERMINATED_BY_MAX_ITERS, TERMINATED_DIVERGED)

    def test_divergence_guard_on_overflowing_state(self):
        # valid parameters whose net injection overflows float range as soon
        # as the generator is pushed to its cap
        gen = GeneratorParams(a=1e-170, b=1.0, c=0.0, B=1e-170, p_min=1.0, p_max=1e160)
        con = ConsumerParams(w=1e155, alpha=1e-10, p_min=1e150, p_max=1e155)
        s = _scenario([gen], [con], max_iters=50)
        result = run(s, "original", trace_stride=1)
        assert result.terminated == TERMINATED_DIVERGED

    def test_non_finite_price_ends_run_diverged(self, table1, monkeypatch):
        # valid scenarios keep their prices finite, so the mixed prices of
        # round 3 are made non-finite by hand: -inf hides from a test that
        # reads only the max, +inf from one that reads only the min, and NaN
        # from one that looks for +-inf alone
        mix = engine.lambda_step
        for bad in (np.inf, -np.inf, np.nan):
            rounds = []

            def lambda_step(*args):
                lam = mix(*args)
                rounds.append(None)
                if len(rounds) == 3:
                    lam[1] = bad
                return lam

            monkeypatch.setattr(engine, "lambda_step", lambda_step)
            result, records = _kept(table1, "corrected")
            assert result.terminated == TERMINATED_DIVERGED
            assert result.rounds == 3
            last, before = records[-1], records[-2]
            assert last is result.final
            assert (last.k, before.k) == (3, 2)
            assert np.array_equal(last.lam[1], bad, equal_nan=True)
            assert np.all(np.isfinite(np.delete(last.lam, 1)))
            expected = float(last.lam.max() - last.lam.min())
            assert np.array_equal(last.lambda_spread, expected, equal_nan=True)
            # no best response ran: the record keeps the state round 3 mixed from
            assert last.P is before.P and last.xi is before.xi
            assert last.mismatch == before.mismatch
            assert last.max_abs_xi == before.max_abs_xi

    @pytest.mark.parametrize("stride", [2.5, float("nan"), 3.0, "3", True, None, 0, -1])
    def test_trace_stride_must_be_integer(self, table1, stride):
        with pytest.raises(ValueError, match="trace_stride must be an integer >= 1"):
            run(table1, "corrected", trace_stride=stride)

    def test_invalid_scenario_rejected(self, table1):
        s = dataclasses.replace(table1, eta=2.0)
        with pytest.raises(InvalidScenarioError):
            run(s, "corrected")

    def test_result_pickles_with_its_round_count(self, table1):
        # rounds is read from the final record, not stored: a result that
        # crosses a process boundary pickled still carries it
        result = run(table1, "corrected")
        back = pickle.loads(pickle.dumps(result))
        assert back.rounds == result.rounds == result.final.k == 254
        assert back.final.P.tobytes() == result.final.P.tobytes()

    def test_invalid_scenario_error_pickles(self):
        # a forked `run --variant both` sends the child's exception back pickled
        violations = [Violation(-1, "x", "bad"), Violation(2, "gen.y", "worse")]
        exc = pickle.loads(pickle.dumps(InvalidScenarioError(violations)))
        assert type(exc) is InvalidScenarioError
        assert [(v.node, v.rule, v.message) for v in exc.violations] == [
            (-1, "x", "bad"), (2, "gen.y", "worse")]
        assert str(exc) == "invalid scenario: bad; worse"

    def test_non_finite_weights_rejected(self, table1):
        W = table1.weights.W.copy()
        W[0, 1] = np.nan
        s = dataclasses.replace(table1, weights=WeightMatrices(W=W, Q=table1.weights.Q))
        with pytest.raises(InvalidScenarioError, match="W has non-finite entries"):
            run(s, "corrected")

    def test_trace_stride_keeps_endpoints(self, table1):
        for stride in (100, np.int64(100)):
            result, records = _kept(table1, "corrected", trace_stride=stride)
            ks = [rec.k for rec in records]
            assert ks == [0, 100, 200, result.rounds]
            assert result.rounds == 254

    @pytest.mark.parametrize("overrides, ended, kept", [
        ({}, TERMINATED_BY_TOLERANCE, [0, 100, 200, 254]),
        ({"max_iters": 100}, TERMINATED_BY_MAX_ITERS, [0, 100])], ids=["tolerance", "cap"])
    def test_without_a_sink_only_the_final_round_is_recorded(self, table1, monkeypatch,
                                                            overrides, ended, kept):
        made = []
        record = engine.IterationRecord

        def counted(*args):
            made.append(args[0])
            return record(*args)

        monkeypatch.setattr(engine, "IterationRecord", counted)
        s = dataclasses.replace(table1, **overrides)
        for stride in (1, 7, 100):
            made.clear()
            result = run(s, "corrected", trace_stride=stride)
            assert result.terminated == ended
            assert made == [result.rounds] == [result.final.k]
        # the same run with a sink records every kept round
        made.clear()
        records = _kept(s, "corrected", trace_stride=100)[1]
        assert made == [rec.k for rec in records] == kept

    def test_without_a_sink_peak_memory_flat_in_rounds(self, table1):
        # tolerances table1 cannot meet, so both variants run to the cap;
        # the same bound as the streamed CLI run's
        def peak(rounds):
            s = dataclasses.replace(table1, eps_m=1e-300, eps_l=1e-300, max_iters=rounds)
            tracemalloc.start()
            try:
                for variant in best_response.VARIANTS:
                    assert run(s, variant).rounds == rounds
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # first-use allocations out of the comparison
        assert peak(1000) - peak(100) <= 64 * 1024

    def test_interleaved_node_kinds_reach_same_optimum(self, table1):
        # same four agents on an alternating ring: node indices change, the
        # per-agent dispatch must not
        kinds = ["generator", "consumer", "generator", "consumer"]
        edges = sorted({(i, i) for i in range(4)}
                       | {(i, (i + 1) % 4) for i in range(4)}
                       | {(i, (i - 1) % 4) for i in range(4)})
        from cemasim import Digraph

        graph = Digraph(n=4, edges=edges, node_kind=kinds)
        s = Scenario(generators=table1.generators, consumers=table1.consumers,
                     graph=graph, weights=build_uniform_weights(graph),
                     eta=table1.eta, eps_m=table1.eps_m, eps_l=table1.eps_l,
                     max_iters=table1.max_iters)
        result = run(s, "corrected")
        assert result.terminated == TERMINATED_BY_TOLERANCE
        sol = solve_centralized(table1)
        # interleaved node order: generators at 0, 2 and consumers at 1, 3
        np.testing.assert_allclose(
            result.final.P[[0, 2, 1, 3]], sol.P, atol=1e-6
        )

    def test_determinism_bit_identical(self, table1):
        r1, kept1 = _kept(table1, "corrected")
        r2, kept2 = _kept(table1, "corrected")
        assert r1.rounds == r2.rounds
        assert len(kept1) == len(kept2) == r1.rounds + 1
        for a, b in zip(kept1, kept2):
            np.testing.assert_array_equal(a.lam, b.lam)
            np.testing.assert_array_equal(a.P, b.P)
            np.testing.assert_array_equal(a.xi, b.xi)


class TestGainStabilityDependsOnMixing:
    """The stable range of the feedback gain depends on the mixing matrices:
    at table1's parameters the bundled ring converges at eta = 0.0035 and
    runs to a 20 000-round cap at 0.006, while another 4-node digraph with
    uniform weights converges to the optimum at 0.004, 0.006 and 0.009."""

    # self-loops plus (0,3) (1,2) (1,3) (2,0) (2,1) (2,3) (3,2)
    EDGES = [(0, 0), (1, 1), (2, 2), (3, 3),
             (0, 3), (1, 2), (1, 3), (2, 0), (2, 1), (2, 3), (3, 2)]

    def _digraph_scenario(self, table1, eta):
        graph = Digraph(n=4, edges=self.EDGES, node_kind=table1.graph.node_kind)
        return dataclasses.replace(table1, graph=graph, weights=build_uniform_weights(graph),
                                   eta=eta, max_iters=20000)

    @pytest.mark.parametrize("eta, rounds", [(0.004, 117), (0.006, 98), (0.009, 132)])
    def test_digraph_converges_to_the_optimum(self, table1, eta, rounds):
        s = self._digraph_scenario(table1, eta)
        result = run(s, "corrected", trace_stride=s.max_iters)
        assert (result.terminated, result.rounds) == (TERMINATED_BY_TOLERANCE, rounds)
        assert kkt_check(result.final.P, float(result.final.lam.mean()), s).certified
        assert np.abs(result.final.P - solve_centralized(s).P).max() <= 1e-7

    def test_digraph_runs_to_the_cap_at_0_012(self, table1):
        s = self._digraph_scenario(table1, 0.012)
        result = run(s, "corrected", trace_stride=s.max_iters)
        assert (result.terminated, result.rounds) == (TERMINATED_BY_MAX_ITERS, 20000)

    @pytest.mark.parametrize("eta, terminated, rounds", [
        (0.0035, TERMINATED_BY_TOLERANCE, 680), (0.006, TERMINATED_BY_MAX_ITERS, 20000)])
    def test_bundled_ring(self, eta, terminated, rounds):
        s = table1_scenario(eta=eta, max_iters=20000)
        result = run(s, "corrected", trace_stride=s.max_iters)
        assert (result.terminated, result.rounds) == (terminated, rounds)


class TestConservationAndTermination:
    def test_surplus_tracks_mismatch_every_round(self, table1):
        for variant in ("original", "corrected"):
            result, records = _kept(table1, variant)
            assert result.max_conservation_gap <= 1e-9
            for rec in records[1:]:
                assert abs(rec.xi.sum() - rec.mismatch) <= 1e-9

    def test_conservation_on_random_scenarios(self):
        for seed in range(8):
            s = random_scenario(seed)
            result = run(s, "corrected", trace_stride=10)
            assert result.terminated == TERMINATED_BY_TOLERANCE
            assert result.max_conservation_gap <= 1e-9

    def test_tolerance_bounds_final_mismatch(self, table1):
        result = run(table1, "corrected")
        n = table1.n_nodes
        assert abs(mismatch(result.final.P, table1)) <= n * table1.eps_m

    def test_by_tolerance_state_meets_both_thresholds(self, table1):
        result, records = _kept(table1, "corrected")
        assert result.terminated == TERMINATED_BY_TOLERANCE
        assert np.abs(result.final.xi).max() <= table1.eps_m
        # stride 1 keeps the second-to-last round for the lambda-change test
        assert np.abs(records[-1].lam - records[-2].lam).max() <= table1.eps_l

    def test_record_mismatch_matches_operation(self, table1):
        for rec in _kept(table1, "corrected", trace_stride=25)[1]:
            assert rec.mismatch == mismatch(rec.P, table1)

    def test_consensus_spread_at_termination(self, table1):
        for variant in ("original", "corrected"):
            result = run(table1, variant)
            lam = result.final.lam
            assert lam.max() - lam.min() <= 10 * table1.eps_l

    def test_fixed_point_prices_agree(self, table1):
        price_formula = {"original": "original", "corrected": "corrected"}
        for variant, formula in price_formula.items():
            result = run(table1, variant)
            gen_P = np.array([result.final.P[i] for i in table1.generator_nodes])
            prices = implied_prices(gen_P, table1, formula)
            assert prices.max() - prices.min() <= 1e-4


class TestTraceSerialization:
    def test_trace_csv_format_and_round_trip(self, table1):
        _, records = _kept(table1, "corrected", trace_stride=50)
        trace, _ = _sink_csv(table1, records)
        assert trace == reference_csv(table1, records)[0]
        lines = trace.decode().splitlines()
        assert lines[0] == "k,node_id,kind,lambda,P,xi"
        assert len(lines) == 1 + 4 * len(records)
        # 17 significant digits round-trip the exact float
        k, node, kind, lam, P, xi = lines[5].split(",")
        assert (int(k), int(node), kind) == (records[1].k, 0, "generator")
        assert float(lam) == records[1].lam[0]
        assert float(P) == records[1].P[0]
        assert float(xi) == records[1].xi[0]

    def test_round_summary_csv(self, table1):
        result, records = _kept(table1, "corrected", trace_stride=50)
        _, rounds = _sink_csv(table1, records)
        assert rounds == reference_csv(table1, records)[1]
        lines = rounds.decode().splitlines()
        assert lines[0] == "k,mismatch,lambda_spread,max_abs_xi"
        assert len(lines) == 1 + len(records)
        last = lines[-1].split(",")
        assert int(last[0]) == result.rounds
        assert abs(float(last[3])) <= table1.eps_m

    @pytest.mark.parametrize("variant", best_response.VARIANTS)
    def test_16_node_run_equals_the_reference(self, variant):
        # every kept round of a 16-node ring: many full blocks, a partial
        # last one, and values over many decades
        s = random_scenario(1, 8, 8)
        result, records = _kept(s, variant)
        assert result.terminated == TERMINATED_BY_TOLERANCE
        assert len(records) % BLOCK_ROUNDS != 0
        assert _sink_csv(s, records) == reference_csv(s, records)

    def test_a_wide_ring_writes_blocks_of_at_most_block_values(self, monkeypatch):
        # 30 nodes, 93 floats a round: 44 rounds a block, not 64
        s = dataclasses.replace(random_scenario(1, 15, 15), max_iters=200)
        result, records = _kept(s, "corrected")
        assert (result.terminated, len(records)) == (TERMINATED_BY_MAX_ITERS, 201)
        sizes = []

        def counted(trace_file, rounds_file, node_fields, block):
            sizes.append(len(block))
            write_block(trace_file, rounds_file, node_fields, block)

        monkeypatch.setattr("cemasim.trace.write_block", counted)
        assert _sink_csv(s, records) == reference_csv(s, records)
        assert BLOCK_VALUES // 93 == 44
        assert sizes == [44, 44, 44, 44, 25]

    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 129])
    def test_any_number_of_records_equals_the_reference(self, table1, count):
        records = _kept(table1, "original")[1][:count]
        assert _sink_csv(table1, records) == reference_csv(table1, records)

    def test_writers_match_csv_module_on_edge_values(self, table1, tmp_path):
        import csv

        edge = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e16 + 2, 0.1, -123.456]

        def rec(k, lam, P, xi, mism, spread):
            return IterationRecord(k=k, lam=np.array(lam), P=np.array(P), xi=np.array(xi),
                                   mismatch=mism, lambda_spread=spread,
                                   max_abs_xi=float(np.abs(np.array(xi)).max()))

        records = [
            rec(0, edge[0:4], edge[4:8], edge[2:6], -0.0, float("nan")),
            rec(7, edge[4:8], edge[0:4], [5e-324, -0.0, 1e16 + 2, 0.1], float("inf"), 5e-324),
            rec(10**6 + 3, edge[1:5], edge[3:7], [-0.0, 0.1, -123.456, float("-inf")],
                1e16 + 2, float("-inf")),
        ]
        trace, rounds = _sink_csv(table1, records)

        # the csv.writer path of the first writers, on numpy scalars
        kinds = [k.value for k in table1.graph.node_kind]
        with open(tmp_path / "trace_ref.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["k", "node_id", "kind", "lambda", "P", "xi"])
            for r in records:
                for i in range(table1.n_nodes):
                    writer.writerow([r.k, i, kinds[i], f"{r.lam[i]:.17g}", f"{r.P[i]:.17g}",
                                     f"{r.xi[i]:.17g}"])
        with open(tmp_path / "rounds_ref.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["k", "mismatch", "lambda_spread", "max_abs_xi"])
            for r in records:
                writer.writerow([r.k, f"{r.mismatch:.17g}", f"{r.lambda_spread:.17g}",
                                 f"{float(np.abs(r.xi).max()):.17g}"])

        assert trace == (tmp_path / "trace_ref.csv").read_bytes()
        assert rounds == (tmp_path / "rounds_ref.csv").read_bytes()
        rows = trace.split(b"\r\n")
        assert rows[1] == b"0,0,generator,-0,4.9406564584124654e-324,inf"
        assert rows[-2] == b"1000003,3,consumer,4.9406564584124654e-324,0.10000000000000001,-inf"


class TestMismatch:
    def test_all_zero_power(self, table1):
        assert mismatch(np.zeros(4), table1) == 0.0

    def test_reference_dispatch_gap(self, table1):
        # the two-decimal reference dispatch oversupplies by about 0.2 MW
        value = mismatch(np.array([81.98, 124.80, 100.34, 100.0]), table1)
        assert value == pytest.approx(-0.20038631599999235, abs=1e-12)

    def test_balanced_state(self):
        B = 2.0 ** -13
        gen = GeneratorParams(a=0.01, b=1.0, c=0.0, B=B, p_min=128.0, p_max=128.0)
        con = ConsumerParams(w=10.0, alpha=0.05, p_min=126.0, p_max=126.0)
        s = _scenario([gen], [con])
        assert mismatch(np.array([128.0, 126.0]), s) == 0.0
