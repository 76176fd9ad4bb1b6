"""CLI contract: subcommands, exit codes, file outputs, determinism."""

import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemasim import (
    ConsumerParams,
    Digraph,
    GeneratorParams,
    Scenario,
    Violation,
    build_uniform_weights,
    engine,
    load_scenario,
    save_scenario,
    scenario_to_dict,
    validate_scenario,
)
from cemasim import cli
from cemasim.cli import main
from cemasim.presets import random_scenario, ring_digraph, table1_scenario
from cemasim.scenario import MAX_JSON_DEPTH
from conftest import reference_csv
from test_engine import _kept


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

    def test_unwritable_trace_file_exits_one_without_traceback(self, table1_file, tmp_path,
                                                              capsys):
        # the directory exists, so the failure is the first write in the loop
        (tmp_path / "trace_corrected.csv").mkdir()
        assert main(["run", "--scenario", table1_file, "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {str(tmp_path)!r}: [Errno 21] ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

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


def _overflow_file(directory):
    """A valid scenario whose net injection overflows float range once the
    generator is pushed to its cap: both variants end `diverged` at round 1."""
    graph = ring_digraph(1, 1)
    s = Scenario(
        generators=(GeneratorParams(a=1e-170, b=1.0, c=0.0, B=1e-170, p_min=1.0, p_max=1e160),),
        consumers=(ConsumerParams(w=1e155, alpha=1e-10, p_min=1e150, p_max=1e155),),
        graph=graph, weights=build_uniform_weights(graph),
        eta=0.002, eps_m=1e-8, eps_l=1e-8, max_iters=50,
    )
    path = directory / "overflow.json"
    save_scenario(s, path)
    return str(path)


class TestStreamedRunOutputs:
    """`run` streams the kept rounds' rows to its CSVs while the engine runs;
    the files equal the reference rows of the records a list sink kept, also
    when the run fails, and memory is flat in rounds."""

    # each ending gets a stride that divides its last round and one that
    # does not; `last` is the last round of (original, corrected)
    @pytest.mark.parametrize("case, stride, overrides, ended, last", [
        ("table1", 1, {}, "by-tolerance", (284, 254)),
        ("table1", 7, {}, "by-tolerance", (284, 254)),
        ("table1", 127, {}, "by-tolerance", (284, 254)),
        ("table1", 10, {"max_iters": 100}, "by-max-iters", (100, 100)),
        ("table1", 30, {"max_iters": 100}, "by-max-iters", (100, 100)),
        # the |xi| guard
        ("overflow", 1, {}, "diverged", (1, 1)),
        ("overflow", 3, {}, "diverged", (1, 1)),
        # a non-finite mixed price, made by hand below
        ("non-finite-price", 2, {}, "diverged", (2, 2)),
        ("non-finite-price", 3, {}, "diverged", (2, 2)),
    ])
    def test_streamed_files_equal_the_in_memory_writers(self, table1_file, tmp_path,
                                                         monkeypatch, case, stride,
                                                         overrides, ended, last):
        path = _overflow_file(tmp_path) if case == "overflow" else table1_file
        if case == "non-finite-price":
            mix = engine.lambda_step

            def lambda_step(lam, xi, W, eta):
                # round 1 mixes the all-zero surplus, round 2 the first non-zero one
                out = mix(lam, xi, W, eta)
                if xi.any():
                    out[1] = np.inf
                return out

            monkeypatch.setattr(engine, "lambda_step", lambda_step)
        streamed = tmp_path / "streamed"
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in overrides.items()]
        assert main(["run", "--scenario", path, "--variant", "both", "--output-dir",
                     str(streamed), "--trace-stride", str(stride), *flags]) == (
            0 if ended == "by-tolerance" else 2)
        scenario = dataclasses.replace(load_scenario(path), **overrides)
        assert engine.VARIANTS == ("original", "corrected")
        for variant, rounds in zip(engine.VARIANTS, last):
            result, records = _kept(scenario, variant, trace_stride=stride)
            assert (result.terminated, result.rounds) == (ended, rounds)
            assert records[-1] is result.final
            assert ((streamed / f"trace_{variant}.csv").read_bytes(),
                    (streamed / f"rounds_{variant}.csv").read_bytes()
                    ) == reference_csv(scenario, records)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_a_failed_run_leaves_the_rows_of_the_rounds_kept_before(
            self, table1_file, tmp_path, monkeypatch, error, stride):
        # round 100's best responses raise: the files hold rounds 0-99's
        # kept rows, the rows the per-round writers left before the blocks
        step = engine.power_step
        calls = []

        def power_step(*args):
            calls.append(1)
            if len(calls) == 100:
                raise error("round 100")
            return step(*args)

        scenario = load_scenario(table1_file)
        records = [rec for rec in _kept(scenario, "corrected", trace_stride=stride)[1]
                   if rec.k < 100]
        monkeypatch.setattr(engine, "power_step", power_step)
        with pytest.raises(error, match="round 100"):
            main(["run", "--scenario", table1_file, "--output-dir", str(tmp_path),
                  "--trace-stride", str(stride)])
        assert ((tmp_path / "trace_corrected.csv").read_bytes(),
                (tmp_path / "rounds_corrected.csv").read_bytes()
                ) == reference_csv(scenario, records)

    def test_peak_memory_flat_in_rounds(self, table1_file, tmp_path):
        # tolerances table1 cannot meet, so both variants run to the cap.
        # Holding the kept rounds costs about 1.2 MB more at 10x the rounds;
        # streaming them leaves a few kB
        def peak(rounds):
            argv = ["run", "--scenario", table1_file, "--variant", "both",
                    "--output-dir", str(tmp_path / str(rounds)), "--eps-m", "1e-300",
                    "--eps-l", "1e-300", "--max-iters", str(rounds)]
            tracemalloc.start()
            try:
                assert main(argv) == 2
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # first-use allocations out of the comparison
        assert peak(1000) - peak(100) <= 64 * 1024


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

    @pytest.mark.parametrize("n", [4.0, 4.5, True])
    def test_non_integer_node_count_exits_one_without_traceback(self, tmp_path, capsys, n):
        path = tmp_path / "bad.json"
        d = scenario_to_dict(table1_scenario())
        d["graph"]["n"] = n
        path.write_text(json.dumps(d))
        assert main(["solve", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read scenario {str(path)!r}: graph node count ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("entries", [[1e308, 1e308], [math.inf, -math.inf]],
                             ids=["finite-overflow", "inf-minus-inf"])
    def test_weight_sums_out_of_range_print_only_the_violations(self, tmp_path, capsys,
                                                                entries):
        # row 0 of W sums to inf from finite entries, or to NaN from +-inf
        # ones: stderr holds the violations and no numpy warning
        path = tmp_path / "bad.json"
        d = scenario_to_dict(table1_scenario())
        d["weights"]["W"][0][:2] = entries
        path.write_text(json.dumps(d))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", "--scenario", str(path)]) == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert err and all(line.startswith("invalid scenario: node=") for line in err)

    def test_tol_option_removed(self, table1_file, capsys):
        # solve certifies at a fixed 1e-6, so a bisection tolerance set from
        # the command line could only break it
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--scenario", table1_file, "--tol", "1e-3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err


class TestDeeplyNestedFiles:
    """Nesting past scenario.MAX_JSON_DEPTH is bad input, whichever parser
    would read the file (a NaN sends it to the standard library's)."""

    @pytest.mark.parametrize("middle", ["", "NaN"], ids=["orjson", "fallback"])
    @pytest.mark.parametrize("role", ["scenario", "candidate"])
    def test_exit_one_with_one_line(self, table1_file, tmp_path, capsys, role, middle):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + middle + "]" * 100_000)
        if role == "scenario":
            argv = ["solve", "--scenario", str(path)]
        else:
            argv = ["kkt", "--scenario", table1_file, "--candidate", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read {role} {str(path)!r}: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("where, depth", [
        ("eta", 1020), ("max_iters", 1020), ("graph.n", 1020), ("kind", 1020),
        ("edge", 1019), ("preset", 1020),
    ])
    def test_deep_value_within_the_limit_exits_one(self, tmp_path, capsys, where, depth):
        # the file reads, and the message naming the value prints a bounded
        # repr of it: the full repr would exceed the recursion limit
        d = scenario_to_dict(table1_scenario())
        if where == "graph.n":
            d["graph"]["n"] = "DEEP"
        elif where == "kind":
            d["graph"]["kinds"][0] = "DEEP"
        elif where == "edge":
            d["graph"]["edges"][0] = ["DEEP", 0]
        elif where == "preset":
            d["graph"] = {"preset": "DEEP"}
        else:
            d[where] = "DEEP"
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(d).replace('"DEEP"', "[" * depth + "]" * depth))
        assert main(["solve", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert "[[[[[[[...]]]]]]]" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err


# where a bad value may go in a scenario dict, as a path of keys and indices;
# table1 has 2 generators, 2 consumers, 4 nodes and 12 edges
_VALUE_SITES = {
    "weights": [("weights", m, i, j) for m in ("W", "Q") for i in range(4) for j in range(4)],
    "generators": [("generators", j, f) for j in range(2) for f in ("a", "b", "c", "B", "p_min", "p_max")],
    "consumers": [("consumers", j, f) for j in range(2) for f in ("w", "alpha", "p_min", "p_max")],
    "constants": [("eta",), ("eps_m",), ("eps_l",), ("max_iters",)],
    "edges": [("graph", "edges", k, e) for k in range(12) for e in range(2)],
}
_KEYS = (
    [(k,) for k in ("generators", "consumers", "graph", "weights", "eta", "eps_m", "eps_l",
                    "max_iters")]
    + [("graph", k) for k in ("n", "kinds", "edges")] + [("weights", "W"), ("weights", "Q")]
    + [("generators", 1, f) for f in ("a", "B", "p_max")] + [("consumers", 0, f) for f in ("w", "p_min")]
)
_DEEP = "DEEP"


def _value_site():
    # a part of the file first, so that each is drawn about as often
    return st.sampled_from(sorted(_VALUE_SITES)).flatmap(lambda part: st.sampled_from(_VALUE_SITES[part]))


def _at(d, path):
    for key in path[:-1]:
        d = d[key]
    return d, path[-1]


@st.composite
def _malformed_files(draw):
    """The text of a table1 scenario file broken in one way that the readers
    or validate_scenario must turn into bad input."""
    d = scenario_to_dict(table1_scenario())
    kind = draw(st.sampled_from(["drop", "value", "truncate", "deep", "n"]))
    if kind == "drop":
        parent, key = _at(d, draw(st.sampled_from(_KEYS)))
        del parent[key]
    elif kind == "value":
        parent, key = _at(d, draw(_value_site()))
        parent[key] = draw(st.sampled_from([True, False, "0.5", None, [[0.5]], [1, [2]]]))
    elif kind == "n":
        d["graph"]["n"] = draw(st.integers(-2, 12).filter(lambda n: n != 4))
    elif kind == "deep":
        parent, key = _at(d, draw(_value_site()))
        parent[key] = _DEEP
    text = json.dumps(d, indent=2, sort_keys=True)
    if kind == "truncate":
        # every proper prefix of an object's text is invalid JSON
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif kind == "deep":
        depth = draw(st.integers(MAX_JSON_DEPTH, 3 * MAX_JSON_DEPTH))
        text = text.replace(json.dumps(_DEEP), "[" * depth + "]" * depth)
    return text


class TestMalformedScenarioFiles:
    """Generated malformed scenario files through `main`: every command that
    reads one exits 1 with a one-kind message and no traceback, and leaves
    the garbage collector's setting as it found it."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(text=_malformed_files(), collector_on=st.booleans())
    def test_bad_input_exits_one(self, tmp_path_factory, text, collector_on):
        directory = tmp_path_factory.mktemp("malformed")
        path = directory / "bad.json"
        path.write_text(text)
        prefixes = (f"cannot read scenario {str(path)!r}: ", "invalid scenario: ")
        was_on = gc.isenabled()
        try:
            (gc.enable if collector_on else gc.disable)()
            for argv in (["solve", "--scenario", str(path)],
                         ["kkt", "--scenario", str(path), "--output", str(directory / "kkt.json")],
                         ["run", "--scenario", str(path), "--output-dir", str(directory / "out")]):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                assert gc.isenabled() == collector_on, argv
                lines = err.getvalue().splitlines()
                assert code == 1, (argv, lines)
                assert lines and "Traceback" not in err.getvalue()
                assert lines[0].startswith(prefixes), lines
                if lines[0].startswith(prefixes[1]):
                    assert all(line.startswith(prefixes[1]) for line in lines), lines
                else:
                    assert len(lines) == 1, lines
        finally:
            (gc.enable if was_on else gc.disable)()


CANDIDATE_FAULTS = ("dropped-key", "bool", "string", "null", "nested-list", "wrong-length",
                    "truncated", "deep")


@st.composite
def _malformed_candidates(draw, good):
    """(fault, text): the candidate file `good` broken one way. A key dropped;
    a bool, string, null or nested list for lambda or one entry of P; a P of
    another length; the text cut short; or the whole file, lambda or one
    entry of P nested 1024-3072 arrays or objects deep."""
    fault = draw(st.sampled_from(CANDIDATE_FAULTS))
    cand = {"P": list(good["P"]), "lambda": good["lambda"]}
    key = draw(st.sampled_from(["P", "lambda"]))
    entry = draw(st.integers(0, len(cand["P"]) - 1))

    def replace(value):
        """Puts value in place of lambda or of P's entry; returns the old one."""
        holder, at = (cand["P"], entry) if key == "P" else (cand, "lambda")
        old, holder[at] = holder[at], value
        return old

    if fault == "dropped-key":
        del cand[key]
    elif fault == "wrong-length":
        n = draw(st.integers(0, 2 * len(cand["P"])).filter(lambda n: n != len(cand["P"])))
        cand["P"] = [cand["P"][i % len(cand["P"])] for i in range(n)]
    elif fault in ("bool", "string", "null", "nested-list"):
        replace(draw({
            "bool": st.booleans(),
            "string": st.text(max_size=8),
            "null": st.none(),
            "nested-list": st.recursive(st.lists(st.floats(allow_nan=False), max_size=2),
                                        lambda inner: st.lists(inner, max_size=2), max_leaves=4),
        }[fault]))
    text = json.dumps(cand)
    if fault == "truncated":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif fault == "deep":
        # nested in the text: json.dumps would recurse that deep
        depth = draw(st.integers(1024, 3072))
        opening, closing = draw(st.sampled_from([("[", "]"), ('{"x": ', "}")]))
        if draw(st.booleans()):
            text = opening * depth + text + closing * depth
        else:
            value = json.dumps(replace("@"))
            text = json.dumps(cand).replace('"@"', opening * depth + value + closing * depth)
    return fault, text


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

    def test_infinite_candidate_exits_two_with_empty_stderr(self, table1_file, tmp_path, capsys):
        # an Infinity literal reaches kkt_check, whose inf - inf is a NaN
        # residual, not a numpy warning on stderr
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps({"P": [float("inf"), 100.0, 100.0, 100.0], "lambda": 6.0}))
        assert main(["kkt", "--scenario", table1_file, "--candidate", str(cand)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["certified"] is False

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

    @pytest.mark.parametrize("key, entry", [
        ("lambda", str), ("P", str), ("lambda", lambda x: True), ("P", lambda x: None),
    ], ids=["string-lambda", "string-P", "true-lambda", "null-P"])
    def test_non_numeric_candidate_entries_exit_one_without_traceback(
            self, table1_file, tmp_path, capsys, key, entry):
        # candidate files follow the type rule of scenario files: the optimum
        # certifies, and one entry of it in another JSON type is bad input
        from cemasim import solve_centralized

        sol = solve_centralized(load_scenario(table1_file))
        cand = tmp_path / "cand.json"
        content = {"P": sol.P.tolist(), "lambda": sol.lam}
        cand.write_text(json.dumps(content))
        assert main(["kkt", "--scenario", table1_file, "--candidate", str(cand)]) == 0
        if key == "P":
            content["P"][2] = entry(content["P"][2])
        else:
            content["lambda"] = entry(content["lambda"])
        cand.write_text(json.dumps(content))
        capsys.readouterr()
        assert main(["kkt", "--scenario", table1_file, "--candidate", str(cand)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"cannot read candidate {str(cand)!r}: {key} has ")
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
        assert captured.out == ""

    def test_generated_malformed_candidates_exit_one(self, table1_file, tmp_path, capsys):
        # every fault of _malformed_candidates is bad input: exit 1, one
        # stderr line naming the candidate or its length, nothing on stdout
        from cemasim import solve_centralized

        sol = solve_centralized(load_scenario(table1_file))
        good = {"P": sol.P.tolist(), "lambda": sol.lam}
        path = tmp_path / "cand.json"
        seen = set()

        @settings(derandomize=True, database=None, max_examples=60, deadline=None)
        @given(case=_malformed_candidates(good))
        def check(case):
            fault, text = case
            path.write_text(text)
            assert main(["kkt", "--scenario", table1_file, "--candidate", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1 and "Traceback" not in captured.err, captured.err
            assert lines[0].startswith((f"cannot read candidate {str(path)!r}: ", "candidate has "))
            seen.add(fault)

        check()
        assert seen == set(CANDIDATE_FAULTS)

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
    def test_tol_outside_finite_non_negative_exits_one(self, table1_file, tmp_path, capsys, tol):
        # NaN would echo as invalid JSON and certify nothing, inf certify anything
        out = tmp_path / "kkt.json"
        assert main(["kkt", "--scenario", table1_file, f"--tol={tol}", "--output", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == ["--tol must be a finite number >= 0"]
        assert not out.exists()

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

    def test_spread_at_the_optimum_skips_a_generator_at_its_bound(self, tmp_path):
        # the second generator of this draw sits at p_min at the optimum, where
        # only an inequality binds its price: over all three generators the
        # original update's prices spread by 0.6233, over the two interior ones
        # by 0.0849
        scenario = random_scenario(1, 3, 3)
        path = tmp_path / "s1.json"
        save_scenario(scenario, path)
        report = tmp_path / "cx.txt"
        code = main(["counterexample", "--scenario", str(path), "--report", str(report)])
        payload = json.loads((tmp_path / "cx.json").read_text())
        P_gen = np.array(payload["oracle"]["P"])[list(scenario.generator_nodes)]
        assert P_gen[1] == scenario.generators[1].p_min
        prices = payload["implied_prices_at_oracle_optimum"]["original"]
        assert max(prices) - min(prices) > 0.6
        interior = [prices[0], prices[2]]
        assert payload["original_price_spread_at_optimum"] == max(interior) - min(interior)
        assert payload["original_price_spread_at_optimum"] < 0.1
        assert payload["contradiction_exhibited"] is False
        assert "contradiction exhibited: no" in report.read_text()
        assert code == 3

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


class TestParserBuiltOnce:
    """main keeps one parser per process; no option may outlive its call."""

    def test_one_parser_per_process(self):
        from cemasim import cli

        assert cli._parser() is cli._parser()

    def test_kkt_tol_falls_back_to_default(self, table1_file, tmp_path):
        from cemasim.oracle import CERTIFY_TOL

        loose, default = tmp_path / "loose.json", tmp_path / "default.json"
        assert main(["kkt", "--scenario", table1_file, "--tol", "1e-3",
                     "--output", str(loose)]) == 0
        assert main(["kkt", "--scenario", table1_file, "--output", str(default)]) == 0
        assert json.loads(loose.read_text())["tol"] == 1e-3
        assert json.loads(default.read_text())["tol"] == CERTIFY_TOL

    def test_run_overrides_fall_back_to_the_file(self, table1_file, tmp_path):
        from cemasim import run

        # a gain of 0.05 with a 3-round cap stops at the cap (exit 2); the
        # next call must run the file's gain and cap to tolerance again
        assert main(["run", "--scenario", table1_file, "--eta", "0.05", "--max-iters", "3",
                     "--output-dir", str(tmp_path / "a")]) == 2
        assert main(["run", "--scenario", table1_file, "--output-dir", str(tmp_path / "b")]) == 0
        report = json.loads((tmp_path / "b" / "report_corrected.json").read_text())
        assert report["rounds"] == run(load_scenario(table1_file), "corrected").rounds


class TestTraceModuleLoadedOnlyToWriteATrace:
    """cemasim.trace, the CSV writers and the "%.17g" formatter, is imported
    by `run` alone: a process that writes no trace never compiles it."""

    def test_only_run_imports_it(self, table1_file, tmp_path):
        script = f"""
import json, sys
import cemasim
from cemasim.cli import main

loaded = {{"import": "cemasim.trace" in sys.modules}}
for name, argv in [
    ("solve", ["solve", "--scenario", {table1_file!r}]),
    ("kkt", ["kkt", "--scenario", {table1_file!r}, "--output", {str(tmp_path / "kkt.json")!r}]),
    ("counterexample", ["counterexample", "--report", {str(tmp_path / "cx.txt")!r}]),
    ("run", ["run", "--scenario", {table1_file!r}, "--output-dir", {str(tmp_path)!r}]),
]:
    code = main(argv)
    loaded[name] = (code, "cemasim.trace" in sys.modules)
print(json.dumps(loaded))
"""
        package_root = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [package_root, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout
        assert json.loads(out.splitlines()[-1]) == {
            "import": False,
            "solve": [0, False],
            "kkt": [0, False],
            "counterexample": [0, False],
            "run": [0, True],
        }


@pytest.fixture(scope="module")
def forked_files(tmp_path_factory):
    """{seed: path} of generated scenarios with cli.FORK_MIN_NODES nodes, the
    fewest on which `run --variant both` forks."""
    half = -(-cli.FORK_MIN_NODES // 2)
    d = tmp_path_factory.mktemp("forked")
    files = {}
    for seed in (1, 3):
        files[seed] = str(d / f"random-{seed}.json")
        save_scenario(random_scenario(seed, half, cli.FORK_MIN_NODES - half), files[seed])
    return files


@pytest.mark.skipif(sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
                    reason="run --variant both forks only on Linux with two usable CPUs")
class TestForkedBothRun:
    """`run --variant both` above the node threshold: `original` runs in a
    forked child while `corrected` runs in the parent."""

    @pytest.fixture(autouse=True)
    def no_child_left_and_a_deadline(self):
        # a hang fails the test instead of the suite; afterwards this process
        # has no child, running or unreaped
        def expire(signum, frame):
            raise TimeoutError("forked test still running after 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.fixture
    def forks(self, monkeypatch):
        """The number of times cli._forked has been called."""
        calls = []
        forked = cli._forked

        def counted(*fns):
            calls.append(fns)
            return forked(*fns)

        monkeypatch.setattr(cli, "_forked", counted)
        return calls

    def test_the_gate(self, forked_files):
        assert cli._runs_forked(load_scenario(forked_files[1]))
        # table1's 4 nodes run serially: forking costs more than it overlaps
        assert not cli._runs_forked(table1_scenario())

    def test_same_bytes_as_single_variants_and_the_serial_path(self, forked_files, tmp_path,
                                                             capsys, monkeypatch, forks):
        path = forked_files[1]
        assert main(["run", "--scenario", path, "--variant", "both",
                     "--output-dir", str(tmp_path / "forked")]) == 0
        forked_out = capsys.readouterr().out
        assert len(forks) == 1
        for variant in engine.VARIANTS:
            assert main(["run", "--scenario", path, "--variant", variant,
                         "--output-dir", str(tmp_path / "single")]) == 0
        single_out = capsys.readouterr().out
        monkeypatch.setattr(cli, "FORK_MIN_NODES", math.inf)
        assert main(["run", "--scenario", path, "--variant", "both",
                     "--output-dir", str(tmp_path / "serial")]) == 0
        assert capsys.readouterr().out == single_out == forked_out
        assert len(forks) == 1
        assert forked_out.startswith("[original] ")
        names = sorted(p.name for p in (tmp_path / "forked").iterdir())
        assert len(names) == 6
        for other in ("single", "serial"):
            assert sorted(p.name for p in (tmp_path / other).iterdir()) == names
            for name in names:
                assert ((tmp_path / other / name).read_bytes()
                        == (tmp_path / "forked" / name).read_bytes())

    @pytest.mark.parametrize("seed, capped", [(1, "corrected"), (3, "original")])
    def test_one_variant_at_the_cap_exits_two(self, forked_files, tmp_path, forks, seed, capped):
        scenario = load_scenario(forked_files[seed])
        rounds = {v: engine.run(scenario, v).rounds for v in engine.VARIANTS}
        assert max(rounds, key=rounds.get) == capped
        cap = min(rounds.values())
        assert main(["run", "--scenario", forked_files[seed], "--variant", "both",
                     "--max-iters", str(cap), "--output-dir", str(tmp_path)]) == 2
        assert len(forks) == 1
        for variant in engine.VARIANTS:
            report = json.loads((tmp_path / f"report_{variant}.json").read_text())
            assert report["rounds"] == cap
            assert report["terminated"] == (
                "by-max-iters" if variant == capped else "by-tolerance")

    @pytest.mark.parametrize("variant", engine.VARIANTS)
    def test_an_unwritable_trace_exits_one_without_traceback(self, forked_files, tmp_path,
                                                            capsys, forks, variant):
        # original fails in the child, corrected in the parent
        (tmp_path / f"trace_{variant}.csv").mkdir()
        assert main(["run", "--scenario", forked_files[1], "--variant", "both",
                     "--output-dir", str(tmp_path)]) == 1
        assert len(forks) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"cannot write {str(tmp_path)!r}: [Errno 21] ")
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / f"report_{variant}.json").exists()

    def test_a_result_larger_than_the_pipe_buffer(self):
        payload = list(range(250_000))
        assert len(pickle.dumps(payload)) > 1 << 20
        assert cli._forked(lambda: payload, lambda: "parent") == (payload, "parent")

    def test_the_childs_exception_is_raised_with_its_data(self):
        violations = [Violation(-1, "x", "bad")]

        def fail():
            raise engine.InvalidScenarioError(violations)

        with pytest.raises(engine.InvalidScenarioError, match="invalid scenario: bad") as info:
            cli._forked(fail, lambda: None)
        assert [(v.node, v.rule, v.message) for v in info.value.violations] == [(-1, "x", "bad")]

    def test_an_unpicklable_result_is_a_child_process_error(self):
        with pytest.raises(ChildProcessError, match="exited with code 1 and no result"):
            cli._forked(lambda: (lambda: None), lambda: None)

    def test_an_interrupted_parent_kills_the_child(self):
        def interrupted():
            raise KeyboardInterrupt

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            cli._forked(lambda: time.sleep(30), interrupted)
        assert time.monotonic() - start < 10

    def test_a_killed_parent_takes_the_child_with_it(self, tmp_path):
        # SIGKILL runs no finally: the kernel ends the child (PR_SET_PDEATHSIG)
        pid_file = tmp_path / "child.pid"

        def child():
            pid_file.write_text(f"{os.getpid()}\n")
            time.sleep(30)

        parent = os.fork()
        if parent == 0:
            try:
                cli._forked(child, lambda: time.sleep(30))
            finally:
                os._exit(1)
        try:
            while not pid_file.exists() or not pid_file.read_text().endswith("\n"):
                time.sleep(0.01)
        finally:
            os.kill(parent, signal.SIGKILL)
            os.waitpid(parent, 0)
        stat = Path(f"/proc/{int(pid_file.read_text())}/stat")

        def running():
            # a dead child is gone, or a zombie until its new parent reaps it
            try:
                return stat.read_text().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
            except FileNotFoundError:
                return False

        start = time.monotonic()
        while running():
            assert time.monotonic() - start < 10, "the child outlived its killed parent"
            time.sleep(0.01)
