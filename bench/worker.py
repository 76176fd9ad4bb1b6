"""One benchmark worker: set up, run a workload's jobs, check every op.

`run.py` starts this file as a fresh process for each part of a run:

    python3 bench/worker.py CONFIG.json

CONFIG holds the workload name, its input files, the mode (`setup`,
`measure` or `trace`), the length of the window in seconds, the checked-in
digests and the path the result JSON is written to. One client, closed
loop: each op starts when the previous one has been checked.

An op is a workload's unit of work. It runs in a fresh output directory,
is timed around the calls into `cemasim` alone, then checked and hashed,
and its directory removed. A job is the workload's fixed list of ops; its
time is the sum of its ops' latencies.

Times are reported at a reference machine speed. On a shared machine the
speed one process gets drifts by up to 2x over tens of seconds, which moves
every wall time of a 30 s run by 15-35% from run to run. So right before and
right after each op the worker times a fixed calibration loop, and scales the
op's wall time by the mean of the two speeds, where a speed is
CAL_REF_S / (the loop's time). The set-up is scaled by the speed right after
it: before it, numpy is not yet imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402

# The corrected fixed point (stopped at 1e-8 tolerances) lands within ~3e-8
# MW of the bisection optimum; `solve` prints P with 9 significant digits.
P_TOL_MW = 1e-5
KKT_TOL = 1e-4
BRUTE_GAP_TOL = 1e-2
BRUTE_STEP = 0.05
PROBLEMS_KEPT = 20
CAL_ITERS = 1500
CAL_REF_S = 0.003  # the calibration loop's time at the reference speed
_P_LINE = re.compile(r"P\* = (\S+)")


def _calibration_loop(n: int) -> int:
    """Fixed work of the kinds the workloads do: interpreted float and dict
    operations, small numpy products and 17-digit float formatting."""
    import numpy as np

    W = np.full((16, 16), 1.0 / 16)
    x = np.arange(16.0)
    buf = io.StringIO()
    s = 0.0
    d = {}
    for i in range(n):
        s += (i * 0.5) % 7.0
        d[i & 63] = s
        if i % 4 == 0:
            x = W @ x + 0.001
            buf.write(f"{i},{x[i & 15]:.17g},{s:.17g}\n")
    return len(buf.getvalue()) + len(d)


def speed() -> float:
    """Machine speed now relative to the reference: CAL_REF_S over the best
    of three timings of the calibration loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _calibration_loop(CAL_ITERS)
        best = min(best, time.perf_counter() - start)
    return CAL_REF_S / best


def sha256_file(path: Path):
    """(hex digest, size in bytes, newline count) in one pass."""
    h = hashlib.sha256()
    size = lines = 0
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            h.update(chunk)
            size += len(chunk)
            lines += chunk.count(b"\n")
    return h.hexdigest(), size, lines


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Op:
    """calls(directory) -> [(name, fn() -> (exit code, stdout))], where every
    call must exit 0; check(directory, stdouts) -> [problem]. Only `primary`
    ops feed the op latency percentiles."""

    def __init__(self, key, inputs, calls, check, primary=True):
        self.key = key
        self.inputs = inputs
        self.calls = calls
        self.check = check
        self.primary = primary
        self.input_sha = hashlib.sha256(
            "".join(sha256_file(Path(p))[0] for p in inputs).encode()
        ).hexdigest()


class Bench:
    def __init__(self, cfg, cemasim, cli, scenarios):
        self.cfg = cfg
        self.api = cemasim
        self.cli = cli
        self.scenarios = scenarios
        self.work = Path(cfg["work"])
        self.checked_in = cfg.get("digests", {})
        self.first = {}
        self.observed = {}
        self.rounds = {}
        self.problems = []
        self.attempted = self.failed = 0
        self.n_dirs = 0
        self.tracer = None
        self.reset_stats()
        self.job = getattr(self, "job_" + cfg["workload"].replace("-", "_"))()

    def reset_stats(self):
        self.op_times = []
        self.speeds = []
        self.stats = {"cli_calls": 0, "cli_failed": 0, "bytes_out": 0, "trace_rows": 0,
                      "trace_bytes": 0}

    # -- calls into the program ------------------------------------------

    def cli_call(self, argv):
        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main([str(a) for a in argv])
            self.stats["cli_calls"] += 1
            self.stats["cli_failed"] += rc != 0
            return rc, buf.getvalue()

        return call

    def corrected_point_problems(self, d: Path, scenario, P_ref) -> list:
        report = json.loads((d / "report_corrected.json").read_text())
        P = report["final_P"]
        lam = sum(report["final_lambda"]) / len(report["final_lambda"])
        out = []
        if len(P) != len(P_ref):
            out.append(f"corrected P has {len(P)} entries, the solve P {len(P_ref)}")
        elif (gap := max(abs(a - b) for a, b in zip(P, P_ref))) > P_TOL_MW:
            out.append(f"corrected P differs from the solve P by {gap:.3e} MW")
        residual = self.api.kkt_check(P, lam, scenario).max_residual
        if residual > KKT_TOL:
            out.append(f"corrected fixed point KKT residual {residual:.3e} > {KKT_TOL}")
        return out

    def record_rounds(self, name, d: Path):
        if name not in self.rounds:
            self.rounds[name] = {
                v: json.loads((d / f"report_{v}.json").read_text())["rounds"]
                for v in ("original", "corrected")
            }

    # -- workloads -------------------------------------------------------

    def job_table1_verify(self):
        """One verification cycle on the paper's table1 case, ten times."""
        (path,) = self.cfg["inputs"]
        scenario = self.scenarios[path]

        def check(d, stdouts):
            out = []
            if json.loads((d / "cx.json").read_text()).get("contradiction_exhibited") is not True:
                out.append("counterexample: contradiction_exhibited is not true")
            P_solve = [float(x) for x in _P_LINE.findall(stdouts["solve"])]
            out += self.corrected_point_problems(d, scenario, P_solve)
            if json.loads((d / "kkt.json").read_text()).get("certified") is not True:
                out.append("kkt: solve result not certified")
            self.record_rounds(Path(path).name, d)
            return out

        def calls(d):
            return [
                ("counterexample", self.cli_call(["counterexample", "--report", d / "cx.txt"])),
                ("run", self.cli_call(["run", "--scenario", path, "--variant", "both",
                                       "--output-dir", d])),
                ("solve", self.cli_call(["solve", "--scenario", path])),
                ("kkt", self.cli_call(["kkt", "--scenario", path, "--output", d / "kkt.json"])),
            ]

        return [Op("cycle", [path], calls, check)] * 10

    def job_ring_trace(self):
        """`run --variant both --trace-stride 1` on one ring, four times."""
        (path,) = self.cfg["inputs"]
        scenario = self.scenarios[path]
        P_ref = self.api.solve_centralized(scenario).P.tolist()

        def check(d, stdouts):
            self.record_rounds(Path(path).name, d)
            return self.corrected_point_problems(d, scenario, P_ref)

        def calls(d):
            return [("run", self.cli_call(["run", "--scenario", path, "--variant", "both",
                                           "--trace-stride", 1, "--output-dir", d]))]

        return [Op("run", [path], calls, check)] * 4

    def job_oracle_scale(self):
        """The table1 brute-force grid, then solve + kkt per large ring, three passes."""
        *rings, table1_path = self.cfg["inputs"]
        table1 = self.scenarios[table1_path]
        objective_ref = self.api.solve_centralized(table1).objective

        def brute_call():
            res = self.api.brute_force_reference(table1, BRUTE_STEP)
            return 0, json.dumps({"P": res.P.tolist(), "objective": res.objective})

        def brute_check(d, stdouts):
            gap = abs(json.loads(stdouts["brute"])["objective"] - objective_ref)
            return [] if gap <= BRUTE_GAP_TOL else [f"brute-force objective gap {gap:.3e}"]

        def kkt_check(d, stdouts):
            if json.loads((d / "kkt.json").read_text()).get("certified") is not True:
                return ["kkt: solve result not certified"]
            return []

        def ring_op(i, path):
            def calls(d):
                return [("solve", self.cli_call(["solve", "--scenario", path])),
                        ("kkt", self.cli_call(["kkt", "--scenario", path,
                                               "--output", d / "kkt.json"]))]

            return Op(f"ring-{i}", [path], calls, kkt_check)

        brute = Op("brute", [table1_path], lambda d: [("brute", brute_call)], brute_check,
                   primary=False)
        return [brute] + [ring_op(i, p) for i, p in enumerate(rings)] * 3

    # -- running and checking --------------------------------------------

    def run_op(self, op: Op) -> float:
        """Runs, checks and hashes one op; returns its scaled latency."""
        self.attempted += 1
        d = self.work / f"op{self.n_dirs}"
        self.n_dirs += 1
        d.mkdir(parents=True)
        stdouts, problems = {}, []
        before = speed()
        start = time.perf_counter()
        try:
            for name, call in op.calls(d):
                rc, stdouts[name] = call()
                if rc != 0:
                    problems.append(f"{name}: exit code {rc}, expected 0")
        except Exception:
            problems.append(traceback.format_exc(limit=4))
        wall = time.perf_counter() - start
        factor = (before + speed()) / 2
        self.speeds.append(factor)
        latency = wall * factor
        if not problems:
            try:
                problems += op.check(d, stdouts)
            except Exception:
                problems.append(traceback.format_exc(limit=4))
        problems += self.digest_problems(op, d, stdouts)
        shutil.rmtree(d)
        if problems:
            self.failed += 1
            self.problems += [f"{op.key}: {p}" for p in problems]
            del self.problems[PROBLEMS_KEPT:]
        if op.primary:
            self.op_times.append(latency)
        return latency

    def digest_problems(self, op: Op, d: Path, stdouts: dict) -> list:
        digests = {}
        for f in sorted(d.iterdir()):
            digests[f.name], size, lines = sha256_file(f)
            self.stats["bytes_out"] += size
            if f.name.startswith(("trace_", "rounds_")):
                self.stats["trace_bytes"] += size
            if f.name.startswith("trace_"):
                self.stats["trace_rows"] += lines - 1
        for name, text in stdouts.items():
            digests["stdout:" + name] = sha256_text(text)
            self.stats["bytes_out"] += len(text.encode())
        out = []
        first = self.first.setdefault(op.key, digests)
        if digests != first:
            out.append("output digests differ from the first op on the same input")
        recorded = self.checked_in.get(op.key)
        if recorded and recorded["input"] == op.input_sha and recorded["outputs"] != digests:
            out.append("output digests differ from the checked-in digests for this input")
        self.observed[op.key] = {"input": op.input_sha, "outputs": digests}
        return out

    def run_jobs(self, window: float) -> list:
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < window:
            times.append(sum(self.run_op(op) for op in self.job))
        return times

    def measure(self) -> dict:
        seconds = self.cfg["seconds"]
        if self.cfg["mode"] == "measure":
            jobs = self.run_jobs(seconds)
            out = {"job_times": jobs, "op_times": self.op_times, "speed": median(self.speeds)}
        else:
            untraced = self.run_jobs(seconds / 2)
            self.reset_stats()
            self.tracer = spans.Tracer()
            self.tracer.install()
            traced = self.run_jobs(seconds / 2)
            self.tracer.write(self.cfg["spans_out"])
            out = {"layers": self.layers(traced, untraced)}
        out.update(attempted=self.attempted, failed=self.failed, problems=self.problems,
                   rounds=self.rounds, digests=self.observed)
        return out

    def layers(self, traced: list, untraced: list) -> dict:
        """Per-job layer metrics of the traced jobs, with span times scaled
        by the median speed over the traced ops."""
        jobs = len(traced)
        k = median(self.speeds)
        t = {name: {"calls": v["calls"], "total_s": v["total_s"] * k, "self_s": v["self_s"] * k}
             for name, v in self.tracer.totals().items()}
        c = self.tracer.counts

        def total(name):
            return t.get(name, {}).get("total_s", 0.0)

        def ratio(a, b):
            return a / b if b else 0.0

        power_s = total("engine.power_step")
        return {
            "engine.power_step_s": power_s / jobs,
            "best_response.ns_per_node": ratio(power_s, c["engine.node_evals"]) * 1e9,
            "best_response.calls": c["best_response.calls"] / jobs,
            "engine.lambda_step_s": total("engine.lambda_step") / jobs,
            "engine.run_self_s": t.get("engine.run", {}).get("self_s", 0.0) / jobs,
            "engine.rounds": c["engine.rounds"] / jobs,
            "engine.node_rounds_per_s": ratio(c["engine.node_rounds"], total("engine.run")),
            "engine.write_trace_s": total("engine.write_trace_csv") / jobs,
            "engine.write_rounds_s": total("engine.write_round_summary_csv") / jobs,
            "engine.trace_rows": self.stats["trace_rows"] / jobs,
            "engine.trace_bytes": self.stats["trace_bytes"] / jobs,
            "oracle.solve_s": total("oracle.solve_centralized") / jobs,
            "oracle.bisect_iters": c["oracle.bisect_iters"] / jobs,
            "oracle.kkt_s": total("oracle.kkt_check") / jobs,
            "oracle.implied_prices_s": total("oracle.implied_prices") / jobs,
            "oracle.brute_s": total("oracle.brute_force_reference") / jobs,
            "oracle.brute_points": c["oracle.brute_points"] / jobs,
            "oracle.brute_mpoints_per_s": ratio(c["oracle.brute_points"],
                                                total("oracle.brute_force_reference")) / 1e6,
            "scenario.load_s": total("scenario.load_scenario") / jobs,
            "scenario.load_calls": t.get("scenario.load_scenario", {}).get("calls", 0) / jobs,
            "scenario.validate_s": total("scenario.validate_scenario") / jobs,
            "scenario.validate_calls": t.get("scenario.validate_scenario", {}).get("calls", 0) / jobs,
            "cli.self_s": t.get("cli.main", {}).get("self_s", 0.0) / jobs,
            "cli.ops": self.stats["cli_calls"] / jobs,
            "cli.failed_ops": self.stats["cli_failed"] / jobs,
            "cli.bytes_out": self.stats["bytes_out"] / jobs,
            "trace.overhead_frac": median(traced) / median(untraced) - 1.0,
        }


def main(config_path: str) -> int:
    with open(config_path) as f:
        cfg = json.load(f)
    start = time.perf_counter()
    import cemasim
    from cemasim import cli

    scenarios = {}
    for path in cfg["inputs"]:
        scenario = cemasim.load_scenario(path)
        violations = cemasim.validate_scenario(scenario)
        if violations:
            print(f"invalid input {path}: {violations[0].message}", file=sys.stderr)
            return 1
        scenarios[path] = scenario
    setup_s = (time.perf_counter() - start) * speed()

    if not Path(cemasim.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"cemasim imported from {cemasim.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    import numpy

    result = {"setup_s": setup_s, "python": sys.version.split()[0], "numpy": numpy.__version__}
    if cfg["mode"] != "setup":
        result.update(Bench(cfg, cemasim, cli, scenarios).measure())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(cfg["result"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
