"""Pass only when a traced bench run checked out and timed the engine layers.

    python3 bench/run.py --workload ring-trace --seed 1 --seconds 1 --trace 1 > bench.log
    python .github/scripts/check_traced_bench.py bench.log

Reads the last line of a `bench/run.py --trace 1` log. Exits 0 when every op
passed its checks and each metric in REQUIRED is above zero; exits 1
otherwise. `bench/spans.py` times the mix and respond layers through
`engine.lambda_step` and `engine.power_step` and counts the best responses,
so a round loop that bypasses one of them reads zero here.
"""

from __future__ import annotations

import json
import sys

REQUIRED = ("engine.lambda_step_s", "engine.power_step_s", "best_response.calls")


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        last = f.read().splitlines()[-1]
    report = json.loads(last)
    ok = report["correct"] is True
    if not ok:
        print(f"{report['failed']} of {report['attempted']} ops failed their checks")
    for name in REQUIRED:
        value = report["metrics"][name]["value"]
        print(f"{name} = {value:.6g}")
        if not value > 0:
            print(f"{name} is not above zero: the run did not go through that layer")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
