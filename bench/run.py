"""Layered benchmark for cemasim.

    python3 bench/run.py --workload ring-trace --seed 3 --seconds 30 --trace 0

Run from a checkout: the worker imports `cemasim` from its `src/`. The
benchmark generates the workload's scenario files from the seed, times the
set-up of several fresh workers, then runs the workload in one more fresh
worker for `--seconds` (one client, closed loop, one process at a time) and
checks every op. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
A traced run spends half its window untraced and half with spans around the
public functions of every module, and writes the spans under `.bench_work/`.

Workloads:

  table1-verify  `counterexample --report`, `run --variant both`, `solve`,
                 `kkt` on the paper's 4-node table1 case; an op is one such
                 cycle, a job ten. Per-call overhead dominates, so array-form
                 best responses should barely move it. The seed is unused:
                 the case is the paper's.
  ring-trace     `run --variant both --trace-stride 1` on a generated
                 16-node ring; a job is four ops. The engine round loop, the
                 in-memory trace and the CSV writers do the work.
  oracle-scale   `solve` then `kkt` on each of three generated 400-node rings
                 with dense W/Q (an op per ring), after the brute-force grid
                 on table1 at step 0.05 (an op of its own, left out of the op
                 latency percentiles); a job is the grid and three passes
                 over the rings. The engine never runs.

`--record-digests` stores the output digests seen for this seed's inputs in
bench/digests.json; later runs on the same inputs must reproduce them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

sys.path.insert(0, str(BENCH))
import inputs  # noqa: E402

WORKLOADS = ("table1-verify", "ring-trace", "oracle-scale")
SETUP_PROBES = 5  # set-up-only workers; the measuring worker's set-up is one more sample
DEADLINE_S = 170  # every worker is killed by then, inside the 180 s a run may take
RING_SPREAD = 0.1
RING_ETA = 0.001
RING_TRACE_NODES = (8, 8)
ORACLE_RINGS = 3
ORACLE_RING_NODES = (200, 200)
TAIL_BEYOND = 10  # samples a tail percentile must have beyond it


def make_inputs(workload: str, seed: int, directory: Path) -> list:
    """Writes the workload's scenario files; returns one record per file, in
    order: its path, n, eta and SHA-256."""
    rng = np.random.default_rng(seed)
    if workload == "table1-verify":
        scenarios = [("table1.json", inputs.table1())]
    elif workload == "ring-trace":
        scenarios = [("ring16.json", inputs.random_ring(rng, *RING_TRACE_NODES, RING_SPREAD,
                                                        RING_ETA))]
    else:
        scenarios = [
            (f"ring400-{i}.json", inputs.random_ring(rng, *ORACLE_RING_NODES, RING_SPREAD,
                                                     RING_ETA))
            for i in range(ORACLE_RINGS)
        ] + [("table1.json", inputs.table1())]
    directory.mkdir(parents=True)
    records = []
    for name, scenario in scenarios:
        path = directory / name
        inputs.write(scenario, path)
        records.append({"path": str(path), "n": scenario["graph"]["n"], "eta": scenario["eta"],
                        "sha256": hashlib.sha256(path.read_bytes()).hexdigest()})
    return records


def run_worker(cfg: dict, work: Path, deadline: float) -> dict:
    name = f"worker{len(list(work.glob('worker*.json')))}"
    cfg = dict(cfg, result=str(work / f"{name}.result"))
    cfg_path = work / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(cfg_path)],
        env=env, stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(Path(cfg["result"]).read_text())


def tail(sorted_values: list):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it. When that percentile would not lie above the median, the
    samples are too few for a tail and it falls back to the maximum."""
    n = len(sorted_values)
    if n <= 2 * TAIL_BEYOND:
        return sorted_values[-1], 100.0
    return sorted_values[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def source_identity() -> dict:
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "cemasim").glob("*.py")):
        h.update(f.name.encode() + f.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or commit
        except OSError:
            pass
    return {"commit": commit, "src_sha256": h.hexdigest()}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def measure(args, spec: dict, work: Path, deadline: float):
    records = make_inputs(args.workload, args.seed, work / "inputs")
    paths = [r["path"] for r in records]
    digests = {} if args.record_digests else _load_digests().get(args.workload, {})
    cfg = {"workload": args.workload, "inputs": paths, "seconds": args.seconds,
           "work": str(work / "ops"), "digests": digests,
           "spans_out": str(WORK / "spans" / f"{args.workload}-seed{args.seed}.csv")}
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(dict(cfg, mode="setup"), work, deadline)["setup_s"])
    result = run_worker(dict(cfg, mode="trace" if args.trace else "measure"), work, deadline)

    if args.trace:
        values = result["layers"]
        notes = {"trace.overhead_frac": "traced job_s / untraced job_s - 1"}
        wanted = spec["per_layer"]
    else:
        ops = sorted(result["op_times"])
        tail_value, tail_pct = tail(ops)
        values = {
            "setup_s": median(setups + [result["setup_s"]]),
            "job_s": sum(result["job_times"]) / len(result["job_times"]),
            "op_p50_ms": median(ops) * 1e3,
            "op_tail_ms": tail_value * 1e3,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        notes = {
            "setup_s": f"median of {len(setups) + 1} fresh workers",
            "job_s": f"mean of {len(result['job_times'])} jobs",
            "op_p50_ms": f"median of {len(ops)} ops",
            "op_tail_ms": f"p{tail_pct:.1f} of {len(ops)} ops",
        }
        wanted = spec["end_to_end"]
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(missing)}")

    if args.record_digests:
        recorded = _load_digests()
        recorded[args.workload] = result["digests"]
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")

    attempted, failed = result["attempted"], result["failed"]
    for problem in result["problems"]:
        print(f"op failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops attempted, {failed} failed")
    for m in wanted:
        note = notes.get(m["name"])
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    print(f"  ops_failed_frac = {failed / attempted:.6g}  ({failed} of {attempted} ops)")
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu": cpu_model(), "nproc": os.cpu_count(),
        "python": result["python"], "numpy": result["numpy"], **source_identity(),
        "speed": result.get("speed"),
        "inputs": [{"file": Path(r["path"]).name, "n": r["n"], "eta": r["eta"],
                    "sha256": r["sha256"], "rounds": result["rounds"].get(Path(r["path"]).name)}
                   for r in records],
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


def _load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "cemasim" / "__init__.py").is_file():
        print(f"no cemasim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        measure(args, spec, work, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
