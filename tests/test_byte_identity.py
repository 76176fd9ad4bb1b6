"""Pinned SHA-256 digests of CLI outputs: refactors must keep every byte.

The digests were recorded from the CLI before the node-order agent view and
the shared best-response loop existed; the strided and capped cases were
recorded before the trace writers dropped `csv.writer`; the brute-force grid,
`gen-scenario` and `counterexample` digests were recorded before the loss
model moved into `GeneratorParams`; the `kkt` stdout digest was recorded
before the CLI's JSON writers became one helper; the diverged-run digests
were recorded before `engine.run` appended its final record at one site;
every `run` digest was recorded before `run` streamed its rows to the CSVs. A
change to any number, its 17-digit formatting, the order of a sum or the
layout of a report shows up here.

The `run` digests hold on numpy's OpenBLAS kernels with fused multiply-add.
Run with `OPENBLAS_CORETYPE` set on an AVX-512 Xeon, they pass under the
default kernel, SkylakeX, Haswell, Zen, Cooperlake and SapphireRapids, and
all five fail under Sandybridge, Nehalem, Prescott and Atom, whose matvecs
`W @ lam` and `Q @ xi` round differently. Every other pin passes under all
of them: the oracle never calls BLAS.
"""

import hashlib
import json

import pytest

from cemasim import (
    ConsumerParams,
    GeneratorParams,
    Scenario,
    brute_force_reference,
    build_uniform_weights,
    save_scenario,
)
from cemasim.cli import main
from cemasim.presets import random_scenario, ring_digraph, table1_scenario

RUN_FILES = ("trace_{}.csv", "rounds_{}.csv", "report_{}.json")

RUN_DIGESTS = {
    "table1": {
        "trace_original": "8a9bc2e4482c1d94ae30129f7ad2f7da80793c4b6ee144e6404946d487e244b6",
        "rounds_original": "3656396d7901a2ac558c151c452792d4f57cc754e410ed388726224865a2fbe4",
        "report_original": "9f72723fc794caaa52a4a0fd34f1c33c68fda399be7cc51a333f36741f0939d6",
        "trace_corrected": "272aed3e76f43594890f6e220bc271669b04d91576b57950d45a8e6e2d2674cb",
        "rounds_corrected": "a794c7fd4f5b9a6545a0851f774c8d101bd82d070cb19b403473c5a69d66d44e",
        "report_corrected": "acf514aafb8c4fba395b9a6a05c9cd72fb2eb0002b4456439e17022c5d99fd0f",
    },
    "random-1-5-5": {
        "trace_original": "f0162b7bc05b856205064b16f9f08962b65c3f618845e8a78592fde7cf0c2852",
        "rounds_original": "2e52fb70d292406fca1cf1ca0c698a8a36eb97bac3a0e6adb1e21cb75b67be81",
        "report_original": "c1a750e98a4b4e64119043c9d1d25656aea8468fa59b1a84cf91697da7d425f2",
        "trace_corrected": "fb8b2dcb205c2af45fe0d4be854bbab7dfb087d08fd9e7ac11532ca5acf464ca",
        "rounds_corrected": "ae49f1cdda9655afb042bc9f451c7c755046e47b9c2153782f83291b6f68410c",
        "report_corrected": "8f11aa18a82fe9d29c02ebe7fe3228cf8a4e247bf03b7fa822e89e82ec8732a8",
    },
    "table1-eta-0.05": {
        "trace_original": "08e710b56d43bdc4d07d1cc4d6fd27221b031aee1cb5cbbf3dc95d9aedb7cbbd",
        "rounds_original": "5e0d35095068dd0f3eea7aae261ce92f9b202a65507c075f8dc5302226a0f5e4",
        "report_original": "715d85deaa4f6c103dd7e9abfa4130da35dbfbc08f77332200b1cca8e2dddd14",
        "trace_corrected": "64eb3308e65d87270a6f7632df46bce1672ffd0a1c957f8d0d745c1b5bb61a99",
        "rounds_corrected": "102c81a58e1d6554e853fe48c12ddb21b2317cecb048d5d39237baeb4e09cf6b",
        "report_corrected": "68f156d2c411bc8a419e6b85e9de3dd9fd11cf9ac275958f84eb644011b19b0b",
    },
    "table1-stride-7": {
        "trace_original": "ace5fc977a448e49dc15f408a7e3637aa7e31c287fb30ebb314eccc6dec2bba3",
        "rounds_original": "11ca2285cabe706b7293ea59f597e6263cd740d1060b3cbae7d2815a9fdeef2f",
        "report_original": "9f72723fc794caaa52a4a0fd34f1c33c68fda399be7cc51a333f36741f0939d6",
        "trace_corrected": "58f37de7a1b70bcfcf76495e34364448a8f126052f90369ee6172c763c5c4469",
        "rounds_corrected": "46fc035a20277c17d1a10c1c9d9e94b02bdf661238da25018ac3e52a86fa49ea",
        "report_corrected": "acf514aafb8c4fba395b9a6a05c9cd72fb2eb0002b4456439e17022c5d99fd0f",
    },
    "random-1-5-5-capped": {
        "trace_original": "441a6f8f882e5b7788cfb5f0931ebf6ec99ab55b4a6fb21002cabb3d5be4bb5a",
        "rounds_original": "371e5522c73bdb090a7b2c299db5f2989837f441b8d5fb6666675217cd915b43",
        "report_original": "3dfb5c4ed2c85a9f1f56f853a64a3c6a5a6667053decbb5abd0adbbe8945053c",
        "trace_corrected": "01b53ff46e0e70db7095aa9e89f3b879dcd8e1e60008e8848c3fd0e5c5ff6a8e",
        "rounds_corrected": "22aaf2c3b0c8731dcdf1ff0d0f46ec79c7a60a518b868532eb27442e15eb137a",
        "report_corrected": "d8c9f7d925aabcaae07a10c5ea9e0d8378e1600ccd365adca0d6c0b646494f98",
    },
}
# both variants stop `diverged` at round 1 on the |xi| guard
DIVERGED_RUN_DIGESTS = {
    "trace_original": "89714f6960909e3779aa6bcb43fccf15fe0da2be6afe948379ff09c48ad5f4a5",
    "rounds_original": "32aedc03c5dbf55b22faf622bd4fe3c307c5f5c33ec5946ef704b41a01239beb",
    "report_original": "756c42a86307d3a6145a6042b764c980a855e582db1cb1f16451f165ae6b84f4",
    "trace_corrected": "89714f6960909e3779aa6bcb43fccf15fe0da2be6afe948379ff09c48ad5f4a5",
    "rounds_corrected": "32aedc03c5dbf55b22faf622bd4fe3c307c5f5c33ec5946ef704b41a01239beb",
    "report_corrected": "e0368b7257f7b9f0721653a5499e547926625d0647911d2071941c279a7ba9f4",
}
SOLVE_STDOUT_DIGEST = "75d121a22d16f92d18985f7e498af56dc5c8f162ae718e968f8496481cf0a591"
KKT_REPORT_DIGEST = "9517318e0df3b670afe02580f9ee75ff00ad2152519c480e69a122e1ca78afb7"
# printed and written reports carry the same bytes
KKT_STDOUT_DIGEST = "9517318e0df3b670afe02580f9ee75ff00ad2152519c480e69a122e1ca78afb7"
# SHA-256 of the JSON of (P, objective, grid_step)
BRUTE_FORCE_DIGESTS = {
    "table1-0.5": "6f37e7cc1ed50c8fd3f26b4f9b4de19bd821a2f1cb6f0dccacd20d5bbdfd3078",
    "random-3-1-2-0.01": "6a4fc70c28161d5427ebac77be684ef0f2f60c2324ed3793f35b8e75a1822596",
    "random-1-3-1-2.0": "df02bf913a1afdfc31ff86de7c7b4ae9e09708d5e5896f93c55c2a8f07c89fbb",
}
GEN_SCENARIO_DIGESTS = {
    (0, 1, 4): "1e7707c899156f137de696779f276a36f0048b70abcce086a312752664d4278e",
    (1, 3, 1): "ec4b808e83845232b86de67a6a3522eb6e944c3de0cd7bd73d9c8430213a846a",
}
COUNTEREXAMPLE_REPORT_DIGEST = "e7f46efe6885ba294f39ec6d4b731151b44af87a65907314535091e927a8293e"
COUNTEREXAMPLE_SIDECAR_DIGEST = "ead4159c4254f7a71c6af0af2001453974ae50f77b48c215cf6bb03e33321b71"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digests(out) -> dict:
    return {
        name.format(variant).split(".")[0]: _sha((out / name.format(variant)).read_bytes())
        for variant in ("original", "corrected")
        for name in RUN_FILES
    }


def _run_digests(scenario_path, out, extra=()) -> dict:
    main(["run", "--scenario", str(scenario_path), "--variant", "both",
          "--output-dir", str(out), *extra])
    return _file_digests(out)


@pytest.fixture(scope="module")
def scenario_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    files = {}
    for name, scenario in (("table1", table1_scenario()),
                           ("random-1-5-5", random_scenario(1, 5, 5)),
                           ("random-1-100-100", random_scenario(1, 100, 100))):
        files[name] = d / f"{name}.json"
        save_scenario(scenario, files[name])
    return files


@pytest.mark.parametrize(
    "case, scenario, extra",
    [
        ("table1", "table1", ()),
        ("random-1-5-5", "random-1-5-5", ()),
        # the gain that reaches the concave (curv <= 0) generator branch
        ("table1-eta-0.05", "table1", ("--eta", "0.05", "--max-iters", "500")),
        # a strided trace whose final rows (284, 254) are off the stride
        ("table1-stride-7", "table1", ("--trace-stride", "7")),
        # both variants stop by-max-iters at round 300 (tolerance needs 418/433)
        ("random-1-5-5-capped", "random-1-5-5", ("--max-iters", "300", "--trace-stride", "50")),
    ],
)
def test_run_outputs_byte_identical(scenario_files, tmp_path, case, scenario, extra):
    assert _run_digests(scenario_files[scenario], tmp_path, extra) == RUN_DIGESTS[case]


def test_diverged_run_byte_identical(tmp_path):
    # valid parameters whose net injection overflows float range as soon as
    # the generator is pushed to its cap (test_engine's overflow scenario)
    graph = ring_digraph(1, 1)
    s = Scenario(
        generators=(GeneratorParams(a=1e-170, b=1.0, c=0.0, B=1e-170, p_min=1.0, p_max=1e160),),
        consumers=(ConsumerParams(w=1e155, alpha=1e-10, p_min=1e150, p_max=1e155),),
        graph=graph, weights=build_uniform_weights(graph),
        eta=0.002, eps_m=1e-8, eps_l=1e-8, max_iters=50,
    )
    save_scenario(s, tmp_path / "overflow.json")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(tmp_path / "overflow.json"), "--variant", "both",
                 "--output-dir", str(out)]) == 2
    assert _file_digests(out) == DIVERGED_RUN_DIGESTS
    for variant in ("original", "corrected"):
        report = json.loads((out / f"report_{variant}.json").read_text())
        assert (report["terminated"], report["rounds"]) == ("diverged", 1)


def test_solve_and_kkt_outputs_byte_identical(scenario_files, tmp_path, capsys):
    path = scenario_files["random-1-100-100"]
    assert main(["solve", "--scenario", str(path)]) == 0
    assert _sha(capsys.readouterr().out.encode()) == SOLVE_STDOUT_DIGEST
    kkt = tmp_path / "kkt.json"
    assert main(["kkt", "--scenario", str(path), "--output", str(kkt)]) == 0
    assert _sha(kkt.read_bytes()) == KKT_REPORT_DIGEST
    capsys.readouterr()
    assert main(["kkt", "--scenario", str(path)]) == 0
    assert _sha(capsys.readouterr().out.encode()) == KKT_STDOUT_DIGEST


# one case per generator count: 2, 1 and 3
BRUTE_FORCE_CASES = {
    "table1-0.5": (table1_scenario, (), 0.5),
    "random-3-1-2-0.01": (random_scenario, (3, 1, 2), 0.01),
    "random-1-3-1-2.0": (random_scenario, (1, 3, 1), 2.0),
}


@pytest.mark.parametrize("case", sorted(BRUTE_FORCE_CASES))
def test_brute_force_reference_byte_identical(case):
    make, args, step = BRUTE_FORCE_CASES[case]
    res = brute_force_reference(make(*args), step)
    text = json.dumps({"P": res.P.tolist(), "objective": res.objective, "grid_step": res.grid_step})
    assert _sha(text.encode()) == BRUTE_FORCE_DIGESTS[case]


# seed 0 with 1 generator / 4 consumers rejects its first draw on the maximal
# net supply; seed 1 with 3 generators / 1 consumer rejects ten draws, one on
# the demand headroom and the rest on the floor supply against saturated demand
@pytest.mark.parametrize("seed, n_gen, n_con", sorted(GEN_SCENARIO_DIGESTS))
def test_gen_scenario_file_byte_identical(tmp_path, seed, n_gen, n_con):
    out = tmp_path / "scenario.json"
    assert main(["gen-scenario", "--seed", str(seed), "--generators", str(n_gen),
                 "--consumers", str(n_con), "--output", str(out)]) == 0
    assert _sha(out.read_bytes()) == GEN_SCENARIO_DIGESTS[(seed, n_gen, n_con)]


def test_counterexample_report_byte_identical(tmp_path):
    report = tmp_path / "cx.txt"
    assert main(["counterexample", "--report", str(report)]) == 0
    assert _sha(report.read_bytes()) == COUNTEREXAMPLE_REPORT_DIGEST
    assert _sha((tmp_path / "cx.json").read_bytes()) == COUNTEREXAMPLE_SIDECAR_DIGEST
