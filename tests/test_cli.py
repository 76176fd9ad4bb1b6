"""CLI contract: subcommands, exit codes, file outputs, determinism."""

import json

import pytest

from cemasim import (
    ConsumerParams,
    Digraph,
    GeneratorParams,
    Scenario,
    build_uniform_weights,
    load_scenario,
    save_scenario,
    scenario_to_dict,
    validate_scenario,
)
from cemasim.cli import main
from cemasim.presets import ring_digraph, table1_scenario


@pytest.fixture(scope="module")
def table1_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenarios") / "table1.json"
    save_scenario(table1_scenario(), path)
    return str(path)


@pytest.fixture
def short_supply_file(tmp_path):
    """A valid scenario whose demand floor exceeds its maximal net supply:
    no rule of validate_scenario covers it, but the oracle finds it infeasible."""
    gen = GeneratorParams(a=0.01, b=1.0, c=0.0, B=1e-6, p_min=1.0, p_max=5.0)
    con = ConsumerParams(w=10.0, alpha=0.01, p_min=100.0, p_max=200.0)
    graph = ring_digraph(1, 1)
    s = Scenario(generators=(gen,), consumers=(con,), graph=graph,
                 weights=build_uniform_weights(graph),
                 eta=0.002, eps_m=1e-8, eps_l=1e-8, max_iters=20)
    assert validate_scenario(s) == []
    path = tmp_path / "short.json"
    save_scenario(s, path)
    return str(path)


class TestRunCommand:
    def test_corrected_run_writes_outputs(self, table1_file, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--scenario", table1_file, "--variant", "corrected",
                     "--output-dir", str(out)])
        assert code == 0
        assert (out / "trace_corrected.csv").exists()
        assert (out / "rounds_corrected.csv").exists()
        report = json.loads((out / "report_corrected.json").read_text())
        assert report["terminated"] == "by-tolerance"
        assert abs(report["mismatch"]) <= 1e-6
        assert not report["implied_prices_disagree"]

    def test_original_run_flags_price_disagreement(self, table1_file, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--scenario", table1_file, "--variant", "original",
                     "--output-dir", str(out)])
        assert code == 0
        report = json.loads((out / "report_original.json").read_text())
        assert report["implied_prices_disagree"]
        assert report["implied_price_spread_corrected"] > 0.1

    def test_both_variants(self, table1_file, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--scenario", table1_file, "--variant", "both",
                     "--output-dir", str(out), "--trace-stride", "10"])
        assert code == 0
        for variant in ("original", "corrected"):
            assert (out / f"trace_{variant}.csv").exists()

    def test_scenario_without_generators_reports(self, tmp_path):
        # valid with no generator: the report's generator lists are empty
        graph = Digraph(n=1, edges=[(0, 0)], node_kind=["consumer"])
        s = Scenario(generators=(),
                     consumers=(ConsumerParams(w=10.0, alpha=0.05, p_min=10.0, p_max=90.0),),
                     graph=graph, weights=build_uniform_weights(graph),
                     eta=0.002, eps_m=1e-8, eps_l=1e-8, max_iters=5)
        assert validate_scenario(s) == []
        save_scenario(s, tmp_path / "consumer.json")
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(tmp_path / "consumer.json"),
                     "--output-dir", str(out)])
        assert code == 2
        report = json.loads((out / "report_corrected.json").read_text())
        assert report["terminated"] == "by-max-iters"
        assert report["interior_generators"] == report["implied_prices_original"] == []
        assert report["implied_price_spread_corrected"] == 0.0
        assert report["implied_prices_disagree"] is False

    def test_demand_floor_above_supply_validates_and_exits_two(self, short_supply_file,
                                                               tmp_path, capsys):
        # a demand floor no generator output can meet is not a validation
        # rule: run drifts to its cap and solve reports the scenario infeasible
        out = tmp_path / "out"
        assert main(["run", "--scenario", short_supply_file, "--variant", "both",
                     "--output-dir", str(out)]) == 2
        for variant in ("original", "corrected"):
            report = json.loads((out / f"report_{variant}.json").read_text())
            assert (report["terminated"], report["rounds"]) == ("by-max-iters", 20)
        capsys.readouterr()
        assert main(["solve", "--scenario", short_supply_file]) == 2
        assert "infeasible scenario: demand floor" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["run", "--scenario", str(tmp_path / "nope.json"),
                     "--output-dir", str(tmp_path)]) == 1

    def test_invalid_scenario_exits_one(self, tmp_path):
        path = tmp_path / "bad.json"
        d = scenario_to_dict(table1_scenario())
        d["eta"] = 3.0
        path.write_text(json.dumps(d))
        assert main(["run", "--scenario", str(path), "--output-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("matrix", ["W", "Q"])
    def test_non_finite_weights_exit_one_without_traceback(self, tmp_path, capsys, matrix):
        path = tmp_path / "bad.json"
        d = scenario_to_dict(table1_scenario())
        d["weights"][matrix][1][1] = float("nan")
        path.write_text(json.dumps(d))
        assert main(["run", "--scenario", str(path), "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert (f"invalid scenario: node=-1 rule=weights.finite: {matrix} has non-finite entries"
                in err.splitlines())
        assert "Traceback" not in err

    @pytest.mark.parametrize("max_iters", [2.5, float("nan"), "10"])
    def test_non_integer_max_iters_exit_one_without_traceback(self, tmp_path, capsys,
                                                               max_iters):
        path = tmp_path / "bad.json"
        d = scenario_to_dict(table1_scenario())
        d["max_iters"] = max_iters
        path.write_text(json.dumps(d))
        assert main(["run", "--scenario", str(path), "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "invalid scenario: node=-1 rule=scenario.max_iters: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, value", [("eta", "0.002"), ("eps_m", True),
                                             ("max_iters", True)])
    def test_non_numeric_constants_exit_one_without_traceback(self, tmp_path, capsys,
                                                              name, value):
        path = tmp_path / "bad.json"
        d = scenario_to_dict(table1_scenario())
        d[name] = value
        path.write_text(json.dumps(d))
        assert main(["run", "--scenario", str(path), "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"invalid scenario: node=-1 rule=scenario.{name}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("section, key, value", [
        ("weights", "W", "0.3333333333333333"),
        ("weights", "Q", True),
        ("graph", "edges", 1.7),
    ])
    def test_non_numeric_file_entries_exit_one_without_traceback(self, tmp_path, capsys,
                                                                section, key, value):
        path = tmp_path / "bad.json"
        d = scenario_to_dict(table1_scenario())
        d[section][key][0][1] = value
        path.write_text(json.dumps(d))
        assert main(["run", "--scenario", str(path), "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read scenario {str(path)!r}: ")
        assert "Traceback" not in err

    def test_unwritable_output_dir_exits_one(self, table1_file, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out"
        assert main(["run", "--scenario", table1_file, "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"cannot write {str(out)!r}: ")

    @pytest.mark.parametrize("flag, value, message", [
        ("--eta", "5", "eta = 5.0 must satisfy 0 < eta < 1"),
        ("--eps-m", "0", "eps_m = 0.0 must be > 0"),
        ("--max-iters", "0", "max_iters = 0 must be an integer >= 1"),
    ])
    def test_invalid_override_exits_one(self, table1_file, tmp_path, capsys,
                                        flag, value, message):
        assert main(["run", "--scenario", table1_file, "--output-dir", str(tmp_path),
                     flag, value]) == 1
        assert capsys.readouterr().err.splitlines() == [f"invalid override: {message}"]
        assert not (tmp_path / "trace_corrected.csv").exists()

    def test_non_converging_overrides_exit_two(self, table1_file, tmp_path):
        code = main(["run", "--scenario", table1_file, "--variant", "corrected",
                     "--output-dir", str(tmp_path), "--eta", "0.9",
                     "--max-iters", "500", "--trace-stride", "100"])
        assert code == 2

    def test_bad_stride_exits_one(self, table1_file, tmp_path):
        assert main(["run", "--scenario", table1_file, "--output-dir", str(tmp_path),
                     "--trace-stride", "0"]) == 1

    def test_one_failing_variant_exits_two(self, table1_file, tmp_path):
        # at gain 0.003 the corrected update still converges but the original
        # one oscillates, so a "both" run must report failure
        code = main(["run", "--scenario", table1_file, "--variant", "both",
                     "--output-dir", str(tmp_path), "--eta", "0.003",
                     "--max-iters", "3000", "--trace-stride", "500"])
        assert code == 2
        corrected = json.loads((tmp_path / "report_corrected.json").read_text())
        original = json.loads((tmp_path / "report_original.json").read_text())
        assert corrected["terminated"] == "by-tolerance"
        assert original["terminated"] == "by-max-iters"


class TestSolveCommand:
    def test_table1_certifies(self, table1_file):
        assert main(["solve", "--scenario", table1_file]) == 0

    def test_infeasible_exits_two(self, tmp_path):
        gen = GeneratorParams(a=0.01, b=1.0, c=0.0, B=1e-12, p_min=100.0, p_max=200.0)
        con = ConsumerParams(w=10.0, alpha=0.01, p_min=20.0, p_max=50.0)
        graph = ring_digraph(1, 1)
        s = Scenario(generators=(gen,), consumers=(con,), graph=graph,
                     weights=build_uniform_weights(graph),
                     eta=0.002, eps_m=1e-8, eps_l=1e-8, max_iters=1000)
        path = tmp_path / "infeasible.json"
        save_scenario(s, path)
        assert main(["solve", "--scenario", str(path)]) == 2

    def test_garbage_file_exits_one(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["solve", "--scenario", str(path)]) == 1

    def test_tol_option_removed(self, table1_file, capsys):
        # solve certifies at a fixed 1e-6, so a bisection tolerance set from
        # the command line could only break it
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--scenario", table1_file, "--tol", "1e-3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err


class TestKktCommand:
    def test_default_candidate_certifies(self, table1_file, tmp_path):
        out = tmp_path / "kkt.json"
        code = main(["kkt", "--scenario", table1_file, "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["certified"] is True
        assert report["max_residual"] <= 1e-6

    def test_suboptimal_candidate_exits_two(self, table1_file, tmp_path):
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps(
            {"P": [67.646, 139.705, 100.34, 100.0], "lambda": 5.8847}))
        assert main(["kkt", "--scenario", table1_file, "--candidate", str(cand)]) == 2

    def test_nan_candidate_exits_two(self, table1_file, tmp_path):
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps({"P": [60.0, 25.0, float("nan"), float("nan")], "lambda": 0.0}))
        out = tmp_path / "kkt.json"
        assert main(["kkt", "--scenario", table1_file, "--candidate", str(cand),
                     "--output", str(out)]) == 2
        report = json.loads(out.read_text())
        assert report["max_residual"] != report["max_residual"]  # NaN
        assert report["certified"] is False

    def test_malformed_candidate_exits_one(self, table1_file, tmp_path):
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps({"P": [1.0, 2.0], "lambda": 5.0}))
        assert main(["kkt", "--scenario", table1_file, "--candidate", str(cand)]) == 1

    @pytest.mark.parametrize("content", [
        [1, 2],
        {"P": [67.646, 139.705, 100.34, 100.0], "lambda": None},
        {"P": [[1, 2], [3, 4]], "lambda": 1},
    ], ids=["list", "null-lambda", "2d-P"])
    def test_malformed_candidate_files_exit_one_without_traceback(self, table1_file, tmp_path,
                                                                  capsys, content):
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps(content))
        assert main(["kkt", "--scenario", table1_file, "--candidate", str(cand)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read candidate {str(cand)!r}: ")
        assert "Traceback" not in err

    def test_no_candidate_and_infeasible_scenario_exits_one(self, short_supply_file, capsys):
        assert main(["kkt", "--scenario", short_supply_file]) == 1
        assert capsys.readouterr().err.startswith(
            "no candidate given and solve failed: demand floor")

    def test_unwritable_output_exits_one(self, table1_file, tmp_path, capsys):
        out = tmp_path / "missing" / "k.json"
        assert main(["kkt", "--scenario", table1_file, "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"cannot write {str(out)!r}: ")


class TestCounterexampleCommand:
    def test_builtin_benchmark_exhibits_contradiction(self, tmp_path):
        report = tmp_path / "cx.txt"
        code = main(["counterexample", "--report", str(report)])
        assert code == 0
        payload = json.loads((tmp_path / "cx.json").read_text())
        assert payload["contradiction_exhibited"] is True
        ref = payload["reference_dispatch"]["implied_prices_original"]
        assert [round(x, 2) for x in ref] == [5.95, 5.72]
        assert payload["original_price_spread_at_optimum"] >= 0.1
        assert max(payload["variants"]["original"]["kkt_generator_stationarity"]) >= 1e-2
        assert payload["variants"]["corrected"]["kkt_max_residual"] <= 1e-4
        text = report.read_text()
        assert "contradiction exhibited: yes" in text

    def test_zero_loss_scenario_exits_three(self, tmp_path):
        gens = (GeneratorParams(a=0.004, b=3.0, c=1.0, B=0.0, p_min=10.0, p_max=200.0),
                GeneratorParams(a=0.002, b=4.0, c=1.0, B=0.0, p_min=20.0, p_max=300.0))
        cons = (ConsumerParams(w=12.0, alpha=0.05, p_min=10.0, p_max=100.0),
                ConsumerParams(w=9.0, alpha=0.08, p_min=10.0, p_max=80.0))
        graph = ring_digraph(2, 2)
        s = Scenario(generators=gens, consumers=cons, graph=graph,
                     weights=build_uniform_weights(graph),
                     eta=0.002, eps_m=1e-8, eps_l=1e-8, max_iters=1000)
        path = tmp_path / "lossless.json"
        save_scenario(s, path)
        report = tmp_path / "cx.txt"
        code = main(["counterexample", "--scenario", str(path), "--report", str(report)])
        assert code == 3
        assert "coincide" in report.read_text()

    def test_zero_loss_scenario_is_still_validated(self, tmp_path, capsys):
        d = scenario_to_dict(table1_scenario(eta=5.0))
        for g in d["generators"]:
            g["B"] = 0.0
        d["weights"]["W"][0][0] = float("nan")
        path = tmp_path / "lossless-bad.json"
        path.write_text(json.dumps(d))
        report = tmp_path / "cx.txt"
        code = main(["counterexample", "--scenario", str(path), "--report", str(report)])
        assert code == 1
        err = capsys.readouterr().err
        assert "rule=weights.finite" in err
        assert "rule=scenario.eta" in err
        assert not report.exists()

    def test_non_converging_scenario_exits_two(self, tmp_path):
        s = table1_scenario(eta=0.9, max_iters=2000)
        path = tmp_path / "hot.json"
        save_scenario(s, path)
        assert main(["counterexample", "--scenario", str(path)]) == 2

    def test_missing_scenario_file_exits_one(self, tmp_path):
        assert main(["counterexample", "--scenario", str(tmp_path / "nope.json")]) == 1

    def test_infeasible_scenario_exits_one(self, short_supply_file, capsys):
        assert main(["counterexample", "--scenario", short_supply_file]) == 1
        assert capsys.readouterr().err.startswith("centralized solve failed: demand floor")

    def test_json_report_gets_a_sidecar_suffix(self, tmp_path):
        # the sidecar of cx.json would be cx.json itself
        report = tmp_path / "cx.json"
        assert main(["counterexample", "--report", str(report)]) == 0
        assert report.read_text().startswith("counterexample report\n")
        payload = json.loads((tmp_path / "cx.json.sidecar.json").read_text())
        assert payload["contradiction_exhibited"] is True

    def test_unwritable_report_exits_one(self, tmp_path, capsys):
        report = tmp_path / "missing" / "cx.txt"
        assert main(["counterexample", "--report", str(report)]) == 1
        assert capsys.readouterr().err.startswith(f"cannot write {str(report)!r}: ")

    def test_generated_scenario_runs_end_to_end(self, tmp_path):
        scenario_path = tmp_path / "gen.json"
        assert main(["gen-scenario", "--seed", "11", "--output", str(scenario_path)]) == 0
        report = tmp_path / "cx.txt"
        code = main(["counterexample", "--scenario", str(scenario_path),
                     "--report", str(report)])
        # smaller loss coefficients may fail the spread gate; both outcomes
        # are legitimate, crashing or stalling is not
        assert code in (0, 3)
        payload = json.loads((tmp_path / "cx.json").read_text())
        for variant in ("original", "corrected"):
            assert payload["variants"][variant]["terminated"] == "by-tolerance"


class TestOverflowingPrice:
    @pytest.mark.parametrize("command", [
        ["run", "--output-dir", "out"], ["solve"], ["kkt"], ["counterexample"],
    ])
    def test_commands_exit_one_without_traceback(self, tmp_path, capsys, monkeypatch,
                                                 command):
        # a = 1e308 validated before and overflowed lambda_init to inf
        d = scenario_to_dict(table1_scenario())
        d["generators"][0]["a"] = 1e308
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(d))
        monkeypatch.chdir(tmp_path)
        assert main([command[0], "--scenario", str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "invalid scenario: node=0 rule=gen.price_finite: generator 0: "
            "loss-adjusted marginal cost is not finite at p_min or p_max"
        ]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


class TestGenScenarioCommand:
    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen-scenario", "--seed", "7", "--output", str(a)]) == 0
        assert main(["gen-scenario", "--seed", "7", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_is_valid_and_solvable(self, tmp_path):
        from cemasim import solve_centralized

        path = tmp_path / "s.json"
        assert main(["gen-scenario", "--seed", "3", "--generators", "3",
                     "--consumers", "2", "--output", str(path)]) == 0
        s = load_scenario(path)
        assert validate_scenario(s) == []
        # balance binds at the optimum by construction, so the engine has a
        # fixed point to find
        assert solve_centralized(s).lam > 0

    def test_unwritable_path_exits_one(self):
        assert main(["gen-scenario", "--seed", "1",
                     "--output", "/nonexistent-dir/x.json"]) == 1

    def test_bad_sizes_exit_one(self, tmp_path):
        assert main(["gen-scenario", "--seed", "1", "--generators", "0",
                     "--output", str(tmp_path / "x.json")]) == 1
