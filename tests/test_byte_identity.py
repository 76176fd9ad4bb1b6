"""Pinned SHA-256 digests of CLI outputs: refactors must keep every byte.

The digests were recorded from the CLI before the node-order agent view and
the shared best-response loop existed; the strided and capped cases were
recorded before the trace writers dropped `csv.writer`. A change to any
number, its 17-digit formatting, the order of a sum or the layout of a report
shows up here.
"""

import hashlib

import pytest

from cemasim import save_scenario
from cemasim.cli import main
from cemasim.presets import random_scenario, table1_scenario

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
SOLVE_STDOUT_DIGEST = "75d121a22d16f92d18985f7e498af56dc5c8f162ae718e968f8496481cf0a591"
KKT_REPORT_DIGEST = "9517318e0df3b670afe02580f9ee75ff00ad2152519c480e69a122e1ca78afb7"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_digests(scenario_path, out, extra=()) -> dict:
    main(["run", "--scenario", str(scenario_path), "--variant", "both",
          "--output-dir", str(out), *extra])
    return {
        name.format(variant).split(".")[0]: _sha((out / name.format(variant)).read_bytes())
        for variant in ("original", "corrected")
        for name in RUN_FILES
    }


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


def test_solve_and_kkt_outputs_byte_identical(scenario_files, tmp_path, capsys):
    path = scenario_files["random-1-100-100"]
    assert main(["solve", "--scenario", str(path)]) == 0
    assert _sha(capsys.readouterr().out.encode()) == SOLVE_STDOUT_DIGEST
    kkt = tmp_path / "kkt.json"
    assert main(["kkt", "--scenario", str(path), "--output", str(kkt)]) == 0
    assert _sha(kkt.read_bytes()) == KKT_REPORT_DIGEST
