"""The verdict layer called directly, without `cli.main`.

`verdict.run_summary` must give the bytes of the CLI's reports,
`verdict.counterexample` the builtin verdict, `verdict.interior` the bits of
a per-generator reference loop, and the named thresholds the numbers the
README states.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from cemasim import best_response, engine, save_scenario, solve_centralized, verdict
from cemasim.cli import main
from cemasim.oracle import ACTIVE_BOUND_TOL
from cemasim.presets import random_scenario, table1_scenario
from cemasim.scenario import json_text

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("scenario", [
    table1_scenario(),
    # 16 nodes: with two usable CPUs on Linux, `run --variant both` runs
    # `original` in a forked child and its report comes back from there
    random_scenario(1, 8, 8),
], ids=["table1", "ring16"])
def test_run_summary_is_the_cli_report(scenario, tmp_path, capsys):
    path = tmp_path / "s.json"
    save_scenario(scenario, path)
    assert main(["run", "--scenario", str(path), "--variant", "both",
                 "--output-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    for variant in best_response.VARIANTS:
        text = json_text(verdict.run_summary(scenario, engine.run(scenario, variant)))
        assert text == (tmp_path / "out" / f"report_{variant}.json").read_text()


def test_counterexample_exhibits_the_contradiction_on_table1():
    payload = verdict.counterexample(table1_scenario())
    assert payload["contradiction_exhibited"] is True
    assert "reference_dispatch" not in payload


def test_counterexample_gives_no_verdict_when_a_variant_stops_at_its_cap():
    payload = verdict.counterexample(table1_scenario(max_iters=100))
    assert "contradiction_exhibited" not in payload
    assert {v["terminated"] for v in payload["variants"].values()} == {
        engine.TERMINATED_BY_MAX_ITERS}


@pytest.mark.parametrize("name", [
    "PRICE_DISAGREEMENT_TOL", "ORIGINAL_SPREAD_MIN", "ORIGINAL_STATIONARITY_MIN",
    "CORRECTED_RESIDUAL_MAX",
])
def test_thresholds_are_the_numbers_the_readme_states(name):
    stated = re.findall(rf"`verdict\.{name}` = (\d[\d.e+-]*\d)", README.read_text())
    assert stated, f"README states no value for verdict.{name}"
    assert {float(x) for x in stated} == {getattr(verdict, name)}


def _interior_loop(scenario, P_gen):
    """verdict.interior as it was first written, one generator at a time."""
    return np.array(
        [g.p_min + ACTIVE_BOUND_TOL < float(p) < g.p_max - ACTIVE_BOUND_TOL
         for g, p in zip(scenario.generators, P_gen)],
        dtype=bool,
    )


def _powers(scenario, rng):
    """Rows of generator powers: drawn across and beyond each box, the
    optimum, each bound, each bound moved in by ACTIVE_BOUND_TOL and that
    value one ulp either side."""
    lo = np.array([g.p_min for g in scenario.generators])
    hi = np.array([g.p_max for g in scenario.generators])
    rows = [rng.uniform(lo - 1.0, hi + 1.0) for _ in range(20)]
    rows.append(solve_centralized(scenario).P[list(scenario.generator_nodes)])
    for edge in (lo, hi, lo + ACTIVE_BOUND_TOL, hi - ACTIVE_BOUND_TOL):
        rows += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
    return rows


@pytest.mark.parametrize("seed, n_gen, n_con", [(1, 3, 3), (2, 2, 2), (7, 5, 5), (3, 1, 2)])
def test_interior_is_the_per_generator_loop_bit_for_bit(seed, n_gen, n_con):
    scenario = random_scenario(seed, n_gen, n_con)
    rng = np.random.default_rng(seed)
    seen = set()
    for P_gen in _powers(scenario, rng):
        got = verdict.interior(scenario, P_gen)
        want = _interior_loop(scenario, P_gen)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        seen.update(got.tolist())
    assert seen == {True, False}


def test_interior_at_the_edges_of_the_tolerance():
    scenario = table1_scenario()
    g = scenario.generators
    inner = np.array([g[0].p_min + ACTIVE_BOUND_TOL, g[1].p_max - ACTIVE_BOUND_TOL])
    assert verdict.interior(scenario, inner).tolist() == [False, False]
    assert verdict.interior(scenario, np.nextafter(inner, [np.inf, -np.inf])).tolist() == [
        True, True]
    assert verdict.interior(scenario, np.array([np.nan, np.inf])).tolist() == [False, False]
