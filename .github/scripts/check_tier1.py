"""Pass only when a tier-1 pytest run failed exactly the by-design tests.

    python .github/scripts/check_tier1.py junit.xml

Reads a pytest `--junitxml` report and names each test as
`<classname>::<name>`. Exits 0 when the failed and errored tests are exactly
EXPECTED_FAILURES and at least one test passed. Exits 1 when any other test
fails or errors (collection errors included), when any test is skipped,
because a skipped test is a check that no longer runs, or when a by-design
failure starts to pass, because its README entry is then out of date.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

# Clauses that are analytically unattainable and kept as stated (README,
# "Known analytic limitations"): the brute-force argmin at a kink optimum,
# and convergence at the gain 0.05.
EXPECTED_FAILURES = frozenset({
    "tests.test_acceptance.TestA2OracleAgreement::test_a2_brute_force_argmin_agreement",
    "tests.test_acceptance.TestA3BalanceAndConsensus::test_a3_convergence_at_gain_0_05",
})


def outcomes(path) -> tuple[set, int, int]:
    """(failed node ids, passed count, skipped count) of a junit report."""
    failed, passed, skipped = set(), 0, 0
    for case in ET.parse(path).getroot().iter("testcase"):
        node = f"{case.get('classname')}::{case.get('name')}"
        if case.find("failure") is not None or case.find("error") is not None:
            failed.add(node)
        elif case.find("skipped") is not None:
            skipped += 1
        else:
            passed += 1
    return failed, passed, skipped


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed, passed, skipped = outcomes(argv[0])
    print(f"{passed} passed, {len(failed)} failed, {skipped} skipped")
    ok = passed > 0
    if skipped:
        print(f"{skipped} skipped: tier-1 runs every test")
        ok = False
    for node in sorted(failed - EXPECTED_FAILURES):
        print(f"unexpected failure: {node}")
        ok = False
    for node in sorted(EXPECTED_FAILURES - failed):
        print(f"by-design failure no longer fails: {node}")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
