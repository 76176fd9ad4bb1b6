"""Synchronous-round consensus iteration for distributed dispatch.

One round, in order, all reads from the pre-round snapshot:

  1. price mixing        lam[i] <- sum_j W[i][j]*lam[j] + eta*xi[i]
  2. power best response P[i]   <- per-agent argmin at the new price
  3. surplus routing     xi[i]  <- sum_j Q[i][j]*xi[j] + local net change
  4. termination test    all |xi| <= eps_m and all |dlam| <= eps_l

Generators book the change of their net injection (production consumes
surplus), consumers the change of their demand. With column-stochastic Q and
the all-zero start, sum_i xi[i] equals the global power mismatch each round,
which is the engine's primary structural invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import best_response
from .scenario import Scenario, is_integer, validate_scenario

TERMINATED_BY_TOLERANCE = "by-tolerance"
TERMINATED_BY_MAX_ITERS = "by-max-iters"
TERMINATED_DIVERGED = "diverged"

VARIANTS = best_response.VARIANTS

SURPLUS_DIVERGENCE_LIMIT = 1e9


class InvalidScenarioError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(v.message for v in self.violations)
        super().__init__(f"invalid scenario: {lines}")

    def __reduce__(self):
        # BaseException pickles its args, the message; rebuild from the
        # violations instead, so the error crosses a process boundary
        return type(self), (self.violations,)


@dataclass(frozen=True, eq=False)
class IterationRecord:
    """One kept round k: its prices, powers and surplus, the mismatch, and
    the summaries max(lam) - min(lam) and max|xi| the round computed."""

    k: int
    lam: np.ndarray
    P: np.ndarray
    xi: np.ndarray
    mismatch: float
    lambda_spread: float
    max_abs_xi: float


@dataclass(frozen=True, eq=False)
class RunResult:
    terminated: str
    variant: str
    rounds: int
    # largest per-round |sum(xi) - mismatch| seen, tracked even when the
    # trace is strided
    max_conservation_gap: float
    # the last round's record, which a sink also received last
    final: IterationRecord


def mismatch(P: np.ndarray, scenario: Scenario) -> float:
    """Demand minus net supply, sum_cons P[j] - sum_gen (P[i] - B[i]*P[i]^2)."""
    agents = scenario.agents
    return float(np.sum(agents.sign * agents.net(np.asarray(P, dtype=float))))


def lambda_step(lam: np.ndarray, xi: np.ndarray, W: np.ndarray, eta: float) -> np.ndarray:
    """Price update: row-stochastic mixing plus the surplus feedback term."""
    lam = np.asarray(lam, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if W.shape != (lam.size, lam.size) or xi.size != lam.size:
        raise ValueError("dimension mismatch in lambda_step")
    return W @ lam + eta * xi


def power_step(scenario: Scenario, variant: str, new_lambdas: np.ndarray) -> np.ndarray:
    """Per-agent best responses to the freshly mixed prices."""
    gen_resp, _ = best_response.variant_pair(variant)
    if len(new_lambdas) != scenario.n_nodes:
        raise ValueError("dimension mismatch in power_step")
    return best_response.responses(scenario.agents, new_lambdas, gen_resp)


def run(scenario: Scenario, variant: str, trace_stride: int = 1, sink=None) -> RunResult:
    """Execute the full iteration until tolerance, divergence or the cap.

    Deterministic: fixed node order, no randomness, snapshot semantics. The
    kept rounds are the k = 0 initialization, every `trace_stride`-th round
    and the final round; each kept round's IterationRecord goes to
    `sink(record)` as soon as it is made. With no sink only the final round
    is recorded, as `RunResult.final`.
    """
    violations = validate_scenario(scenario)
    if violations:
        raise InvalidScenarioError(violations)
    best_response.variant_pair(variant)
    if not (is_integer(trace_stride) and trace_stride >= 1):
        raise ValueError("trace_stride must be an integer >= 1")

    n = scenario.n_nodes
    W = scenario.weights.W
    Q = scenario.weights.Q
    eta, eps_m, eps_l = scenario.eta, scenario.eps_m, scenario.eps_l
    max_iters = scenario.max_iters
    agents = scenario.agents
    sign = agents.sign
    # the ufuncs' own reductions: the np.max/np.sum wrappers cost more than
    # the arithmetic at these sizes, and sum in the same pairwise order
    amax, amin, total = np.maximum.reduce, np.minimum.reduce, np.add.reduce

    lam = np.array([best_response.lambda_init(p) for p in agents.params])
    P = np.zeros(n)
    # signed net injection: the surplus update books its change, and its sum
    # is the mismatch
    snet = sign * agents.net(P)
    xi = np.zeros(n)
    mism = 0.0
    spread = float(amax(lam) - amin(lam))
    max_abs_xi = 0.0

    terminated = None
    max_gap = 0.0
    k = 0
    while True:
        # the one emit site: round k's state is bound here on every path.
        # Every round binds fresh arrays and none is mutated afterwards, so a
        # record can hold them without copying. With no sink only the final
        # round gets a record
        if terminated or sink is not None and k % trace_stride == 0:
            final = IterationRecord(k, lam, P, xi, mism, spread, max_abs_xi)
            if sink is not None:
                sink(final)
        if terminated:
            break
        k += 1

        lam_new = lambda_step(lam, xi, W, eta)
        # one max/min pair is both the finiteness test and the spread: NaN
        # propagates through both, and +-inf shows in one of them
        hi, lo = float(amax(lam_new)), float(amin(lam_new))
        spread = hi - lo
        if not (-math.inf < lo and hi < math.inf):
            # the best responses reject a non-finite price: the round stops
            # here, its record holds the new prices and the state they mixed
            lam = lam_new
            terminated = TERMINATED_DIVERGED
            continue
        P_new = power_step(scenario, variant, lam_new)
        snet_new = sign * agents.net(P_new)
        xi_new = Q @ xi + (snet_new - snet)

        mism = float(total(snet_new))
        gap = abs(float(total(xi_new)) - mism)
        if gap > max_gap:
            max_gap = gap

        # NaN and +-inf fail the guard's comparison too
        max_abs_xi = float(amax(np.abs(xi_new)))
        if not max_abs_xi <= SURPLUS_DIVERGENCE_LIMIT:
            terminated = TERMINATED_DIVERGED
        elif max_abs_xi <= eps_m and amax(np.abs(lam_new - lam)) <= eps_l:
            terminated = TERMINATED_BY_TOLERANCE
        elif k == max_iters:
            terminated = TERMINATED_BY_MAX_ITERS
        lam, P, xi, snet = lam_new, P_new, xi_new, snet_new

    return RunResult(
        terminated=terminated,
        variant=variant,
        rounds=k,
        max_conservation_gap=max_gap,
        final=final,
    )


# ---------------------------------------------------------------------------
# trace serialization, 17 significant digits throughout
#
# Rows end in CRLF, the csv module's default line ending. "%.17g" % x and
# f"{x:.17g}" go through the same float formatter. Each file has one writer,
# which writes the header and returns a sink for `run`: one kept round is one
# %-operation on a per-file template and one write. The CLI passes the sinks
# to `run`, so rows are streamed as rounds are kept and memory stays flat in
# the number of rounds.


def trace_writer(scenario: Scenario, f):
    """Writes the trace header to text file `f` (opened with newline="");
    returns a sink writing a record's rows, one per node:
    k,node_id,kind,lambda,P,xi."""
    n = scenario.n_nodes
    template = "".join(
        f"%d,{i},{kind.value},%.17g,%.17g,%.17g\r\n"
        for i, kind in enumerate(scenario.graph.node_kind)
    )
    fields = [0] * (4 * n)
    f.write("k,node_id,kind,lambda,P,xi\r\n")

    def write(rec: IterationRecord) -> None:
        fields[0::4] = [rec.k] * n
        fields[1::4] = rec.lam.tolist()
        fields[2::4] = rec.P.tolist()
        fields[3::4] = rec.xi.tolist()
        f.write(template % tuple(fields))

    return write


def round_summary_writer(f):
    """Writes the round-summary header to text file `f` (opened with
    newline=""); returns a sink writing a record's one row:
    k,mismatch,lambda_spread,max_abs_xi."""
    f.write("k,mismatch,lambda_spread,max_abs_xi\r\n")

    def write(rec: IterationRecord) -> None:
        f.write("%d,%.17g,%.17g,%.17g\r\n"
                % (rec.k, rec.mismatch, rec.lambda_spread, rec.max_abs_xi))

    return write

