r"""Pass only when a traced bench run checked out and went through the named layers.

    python3 bench/run.py --workload ring-trace --seed 1 --seconds 1 --trace 1 > bench.log
    python .github/scripts/check_traced_bench.py bench.log \
        engine.lambda_step_s engine.power_step_s best_response.calls

Reads the last line of a `bench/run.py --trace 1` log. Exits 0 when every op
passed its checks and each metric named after the log is above zero; exits 1
otherwise. `bench/spans.py` times the public functions of every module and
counts the best responses, so a workload that bypasses a named layer (a
round loop that skips `engine.lambda_step`, an `oracle-scale` run without
the brute-force grid) reads zero there.
"""

from __future__ import annotations

import json
import sys


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    log, required = argv[0], argv[1:]
    with open(log) as f:
        last = f.read().splitlines()[-1]
    report = json.loads(last)
    ok = report["correct"] is True
    if not ok:
        print(f"{report['failed']} of {report['attempted']} ops failed their checks")
    for name in required:
        if name not in report["metrics"]:
            print(f"{name} is not a metric of this run")
            ok = False
            continue
        value = report["metrics"][name]["value"]
        print(f"{name} = {value:.6g}")
        if not value > 0:
            print(f"{name} is not above zero: the run did not go through that layer")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
