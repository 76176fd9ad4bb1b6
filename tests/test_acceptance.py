"""Acceptance suite. Each test prints one PASS/FAIL line (run with -s to see
them all) and asserts its stated tolerances.

Two clauses are analytically unattainable and are kept as stated rather than
weakened, so they fail honestly:

* ``test_a2_brute_force_argmin_agreement`` - the benchmark optimum sits
  exactly on a kink of the consumer-value curve (supply equals saturated
  demand), so the argmin of a grid search localizes like grid_step^(2/3),
  about 0.24 MW at step 0.05. The 0.1 MW demand would need a step below
  ~0.002, i.e. ~6e10 grid points.
* ``test_a3_convergence_at_gain_0_05`` - the surplus feedback loop multiplies
  each generator's own surplus by eta * dP/dlambda per round; with the
  benchmark cost curvatures (dP/dlambda up to 208 MW per price unit) the gain
  at eta = 0.05 is ~10, an eigenvalue no stochastic mixing matrix can pull
  inside the unit circle. The iteration provably cannot terminate by
  tolerance; the bundled scenarios therefore default to eta = 0.002, at which
  the same claims hold with wide margin (the companion test).
"""

import filecmp
import time

import numpy as np
import pytest

from cemasim import (
    GeneratorParams,
    brute_force_reference,
    consumer_response,
    generator_response_corrected,
    generator_response_original,
    implied_prices,
    kkt_check,
    run,
    solve_centralized,
)
from cemasim.cli import main
from cemasim.presets import TABLE1_REFERENCE_DISPATCH, random_scenario, table1_scenario
from conftest import (
    consumer_compare,
    generator_corrected_compare,
    generator_original_compare,
    golden_section_argmin,
)
from test_best_response import _random_consumer, _random_generator
from test_engine import _kept

N_RANDOM_SCENARIOS = 50
N_RESPONSE_DRAWS = 10_000
N_REDUCTION_DRAWS = 1_000


def _report(label: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def oracle_solution(table1):
    return solve_centralized(table1)


@pytest.fixture(scope="module")
def table1_runs(table1):
    """{variant: (result, every round's record)}"""
    return {variant: _kept(table1, variant) for variant in ("original", "corrected")}


@pytest.fixture(scope="module")
def gain_005_run(table1):
    hot = table1_scenario(eta=0.05)
    return run(hot, "corrected", trace_stride=2000)


@pytest.fixture(scope="module")
def random_runs():
    """(seed, scenario, result, kept records); the first ten seeds keep every
    round."""
    out = []
    for seed in range(N_RANDOM_SCENARIOS):
        scenario = random_scenario(seed)
        stride = 1 if seed < 10 else 100
        out.append((seed, scenario, *_kept(scenario, "corrected", trace_stride=stride)))
    return out


@pytest.fixture(scope="module")
def brute_005(table1):
    return brute_force_reference(table1, 0.05)


class TestA1CounterexampleReproduction:
    def test_a1_counterexample_command(self, tmp_path):
        t0 = time.monotonic()
        report_path = tmp_path / "cx.txt"
        code = main(["counterexample", "--report", str(report_path)])
        elapsed = time.monotonic() - t0

        import json

        payload = json.loads((tmp_path / "cx.json").read_text())
        ref_prices = payload["reference_dispatch"]["implied_prices_original"]
        checks = {
            "exit code 0": code == 0,
            "runtime <= 30 s": elapsed <= 30.0,
            "reference prices (5.95, 5.72)": [round(p, 2) for p in ref_prices] == [5.95, 5.72],
            "original stationarity >= 1e-2": max(
                payload["variants"]["original"]["kkt_generator_stationarity"]
            ) >= 1e-2,
            "corrected residual <= 1e-4": payload["variants"]["corrected"][
                "kkt_max_residual"
            ] <= 1e-4,
        }
        _report("A1 counterexample reproduction", all(checks.values()))
        assert all(checks.values()), checks


class TestA2OracleAgreement:
    def test_a2_reference_dispatch_within_1_5_mw(self, table1, oracle_solution):
        P_gen = oracle_solution.P[:2]
        diffs = np.abs(P_gen - np.array(TABLE1_REFERENCE_DISPATCH))
        ok = bool(np.all(diffs <= 1.5))
        _report("A2 optimum within 1.5 MW of the reference dispatch", ok)
        assert ok, f"generator coordinates {P_gen} vs {TABLE1_REFERENCE_DISPATCH}"

    def test_a2_brute_force_objective_agreement(self, oracle_solution, brute_005):
        gap = abs(brute_005.objective - oracle_solution.objective)
        ok = gap <= 1e-2
        _report("A2 brute-force objective gap <= 1e-2 at step 0.05", ok)
        assert ok, f"objective gap {gap}"

    def test_a2_brute_force_argmin_agreement(self, table1, oracle_solution, brute_005):
        """Stated clause: grid argmin within 0.1 MW per coordinate at step 0.05.

        Analytically unattainable: the optimum lies on the kink where supply
        equals saturated demand, so the directional derivative jumps (about
        -1.3 below, +6.2 above per MW of supply) and the best lattice point
        trades split optimality against kink proximity. Localization shrinks
        only like step^(2/3); measured 0.24 MW at step 0.05 and still 0.26 at
        0.02. Kept as stated; see the objective-gap companion above for the
        agreement the landscape does admit.
        """
        gen_nodes = table1.generator_nodes
        diffs = np.abs(
            np.array([brute_005.P[i] for i in gen_nodes]) - oracle_solution.P[:2]
        )
        ok = bool(np.all(diffs <= 0.1))
        _report("A2 brute-force argmin within 0.1 MW at step 0.05", ok)
        assert ok, (
            f"per-coordinate argmin distance {diffs} exceeds 0.1 MW; a kink optimum "
            "bounds grid localization to ~step^(2/3) (~0.24 MW at step 0.05), so this "
            "clause cannot hold at this resolution"
        )


class TestA3BalanceAndConsensus:
    def test_a3_convergence_at_gain_0_05(self, gain_005_run):
        """Stated clause: corrected variant, benchmark scenario, eta = 0.05.

        Analytically unattainable: the per-node loop gain
        eta / (2 * a_min) ~ 10 makes the tolerance state unreachable for any
        row/column-stochastic mixing (a local eigenvalue of magnitude ~10).
        Verified empirically: the iteration wanders inside the capacity boxes
        and hits the iteration cap. Kept as stated; the companion test below
        demonstrates the same claims at the bundled stable gain.
        """
        ok = gain_005_run.terminated == "by-tolerance"
        _report("A3 balance and consensus at gain 0.05 (as stated)", ok)
        assert ok, (
            f"terminated {gain_005_run.terminated} after {gain_005_run.rounds} rounds; "
            "the surplus feedback is provably divergent at gain 0.05 for these cost "
            "curvatures (per-node gain eta/(2a) ~ 10 > 1)"
        )

    def test_a3_balance_and_consensus_at_preset_gain(self, table1, table1_runs):
        result, _ = table1_runs["corrected"]
        from cemasim import mismatch

        checks = {
            "terminates by tolerance": result.terminated == "by-tolerance",
            "rounds <= 200000": result.rounds <= 200_000,
            "|mismatch| <= 1e-6": abs(mismatch(result.final.P, table1)) <= 1e-6,
            "lambda spread <= 1e-6": float(
                result.final.lam.max() - result.final.lam.min()
            ) <= 1e-6,
        }
        _report("A3 balance and consensus at the preset gain", all(checks.values()))
        assert all(checks.values()), checks


class TestA4CorrectedFixedPointsCertify:
    def test_a4_table1_and_random_scenarios(self, table1, table1_runs, random_runs):
        failures = []
        cases = [(-1, table1, table1_runs["corrected"][0])] + [
            (seed, scenario, result) for seed, scenario, result, _ in random_runs
        ]
        converged = 0
        for seed, scenario, result in cases:
            if result.terminated != "by-tolerance":
                failures.append((seed, "did not converge"))
                continue
            converged += 1
            lam_c = float(result.final.lam.mean())
            report = kkt_check(result.final.P, lam_c, scenario, tol=1e-4)
            if report.max_residual > 1e-4:
                failures.append((seed, f"kkt residual {report.max_residual}"))
            gen_nodes = scenario.generator_nodes
            P_gen = np.array([result.final.P[i] for i in gen_nodes])
            prices = implied_prices(P_gen, scenario, "corrected")
            interior = np.array(
                [g.p_min + 1e-9 < p < g.p_max - 1e-9
                 for g, p in zip(scenario.generators, P_gen)]
            )
            vals = prices[interior]
            if vals.size >= 2 and vals.max() - vals.min() > 1e-4:
                failures.append((seed, f"price spread {vals.max() - vals.min()}"))
        ok = not failures and converged == N_RANDOM_SCENARIOS + 1
        _report("A4 corrected fixed points certify on benchmark + 50 random", ok)
        assert ok, failures


class TestA5SurplusConservation:
    def test_a5_conservation_every_round_every_run(
        self, table1_runs, gain_005_run, random_runs
    ):
        worst = 0.0
        results = [r for r, _ in table1_runs.values()] + [gain_005_run] + [
            r for (_, _, r, _) in random_runs
        ]
        for result in results:
            worst = max(worst, result.max_conservation_gap)
        # recheck against the recorded traces where every round was kept
        for records in [kept for _, kept in table1_runs.values()] + [
            kept for (seed, _, _, kept) in random_runs if seed < 10
        ]:
            for rec in records[1:]:
                worst = max(worst, abs(float(rec.xi.sum()) - rec.mismatch))
        ok = worst <= 1e-9
        _report("A5 surplus conservation within 1e-9 on every round", ok)
        assert ok, f"worst conservation gap {worst}"


class TestA6BestResponseEquivalence:
    def test_a6_numeric_minimizer_agreement(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(N_RESPONSE_DRAWS):
            lam = rng.uniform(-20.0, 40.0)
            g = _random_generator(rng)
            got = generator_response_original(g, lam)
            want = golden_section_argmin(generator_original_compare(g, lam), g.p_min, g.p_max)
            worst = max(worst, abs(got - want))
            got = generator_response_corrected(g, lam)
            want = golden_section_argmin(generator_corrected_compare(g, lam), g.p_min, g.p_max)
            worst = max(worst, abs(got - want))
            c = _random_consumer(rng)
            got = consumer_response(c, lam)
            want = golden_section_argmin(consumer_compare(c, lam), c.p_min, c.p_max)
            worst = max(worst, abs(got - want))
        ok = worst <= 1e-7
        _report("A6 closed forms match the numeric minimizer within 1e-7", ok)
        assert ok, f"worst argument gap {worst}"

    def test_a6_zero_loss_reduction_exact(self):
        rng = np.random.default_rng(2025)
        ok = True
        for _ in range(N_REDUCTION_DRAWS):
            g = _random_generator(rng)
            lossless = GeneratorParams(a=g.a, b=g.b, c=g.c, B=0.0, p_min=g.p_min, p_max=g.p_max)
            lam = rng.uniform(-20.0, 40.0)
            if generator_response_corrected(lossless, lam) != generator_response_original(
                lossless, lam
            ):
                ok = False
                break
        _report("A6 zero-loss reduction is bit-exact", ok)
        assert ok


class TestA7Determinism:
    def test_a7_repeated_runs_byte_identical(self, tmp_path):
        from cemasim.scenario import save_scenario

        scenario_path = tmp_path / "table1.json"
        save_scenario(table1_scenario(), scenario_path)
        dirs = [tmp_path / "first", tmp_path / "second"]
        for d in dirs:
            code = main(["run", "--scenario", str(scenario_path), "--variant", "both",
                         "--output-dir", str(d)])
            assert code == 0
        ok = True
        for name in ("trace_original.csv", "trace_corrected.csv",
                     "rounds_original.csv", "rounds_corrected.csv"):
            if not filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False):
                ok = False
        _report("A7 repeated runs produce byte-identical traces", ok)
        assert ok
