"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/spread.py --seeds 1      # every workload once
    python3 bench/spread.py --workloads ring-trace oracle-scale --seeds 1 2 3 4 5
    python3 bench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace-seeds 1 2 3 \\
        --out bench/baseline.json

Runs `run.py` once per workload and seed, one run at a time, for the
BENCHMARK.json `run_seconds`. For each metric it reports the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound.
`--trace-seeds` adds traced runs for the per-layer metrics. `--out` writes
every run's values and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    meta = next((json.loads(x[5:]) for x in lines if x.startswith("meta ")), {})
    return {"seed": seed, "meta": meta, **json.loads(lines[-1])}


def summarise(runs: list, specs: list) -> dict:
    out = {}
    for spec in specs:
        values = [r["metrics"][spec["name"]]["value"] for r in runs]
        mid = median(values)
        entry = {"unit": spec["unit"], "median": mid, "values": values}
        if len(values) >= 2:
            q1, _, q3 = quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / mid if mid else 0.0)
        if "bound" in spec:
            entry["bound"] = spec["bound"]
        out[spec["name"]] = entry
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=workloads, choices=workloads)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace-seeds", nargs="*", type=int, default=[])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workloads:
        runs = [run_once(workload, s, spec["run_seconds"], 0) for s in args.seeds]
        entry = {
            "runs": [{"seed": r["seed"], "attempted": r["attempted"], "failed": r["failed"],
                      "correct": r["correct"]} for r in runs],
            "meta": {k: runs[0]["meta"].get(k)
                     for k in ("cpu", "nproc", "python", "numpy", "commit", "src_sha256")},
            "end_to_end": summarise(runs, spec["end_to_end"]),
        }
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: ops_failed_frac = {failed / attempted:.6g} ({failed} of {attempted} "
              f"ops), all correct: {all(r['correct'] for r in runs)}")
        for name, e in entry["end_to_end"].items():
            flag = "" if e.get("spread", 0.0) < e["bound"] / 3 else "  <-- above bound/3"
            print(f"  {name:12s} median {e['median']:.6g} {e['unit']}  spread "
                  f"{e.get('spread', 0.0):.4f}  bound {e['bound']}{flag}")
        if args.trace_seeds:
            traced = [run_once(workload, s, spec["run_seconds"], 1) for s in args.trace_seeds]
            entry["per_layer"] = summarise(traced, spec["per_layer"])
            entry["trace_seeds"] = args.trace_seeds
        report[workload] = entry
        sys.stdout.flush()

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
