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
import numbers
from dataclasses import dataclass

import numpy as np

from . import best_response
from .scenario import Scenario, validate_scenario

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
    trace: list
    terminated: str
    variant: str
    rounds: int
    # largest per-round |sum(xi) - mismatch| seen, tracked even when the
    # trace is strided
    max_conservation_gap: float

    # the trace always ends with the final round; copies keep it unmutated
    @property
    def final_lambda(self) -> np.ndarray:
        return self.trace[-1].lam.copy()

    @property
    def final_P(self) -> np.ndarray:
        return self.trace[-1].P.copy()

    @property
    def final_xi(self) -> np.ndarray:
        return self.trace[-1].xi.copy()


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


def run(scenario: Scenario, variant: str, trace_stride: int = 1) -> RunResult:
    """Execute the full iteration until tolerance, divergence or the cap.

    Deterministic: fixed node order, no randomness, snapshot semantics. The
    trace always contains the k = 0 initialization row and the final row;
    intermediate rows are kept every `trace_stride` rounds.
    """
    violations = validate_scenario(scenario)
    if violations:
        raise InvalidScenarioError(violations)
    best_response.variant_pair(variant)
    if (isinstance(trace_stride, bool) or not isinstance(trace_stride, numbers.Integral)
            or trace_stride < 1):
        raise ValueError("trace_stride must be an integer >= 1")

    n = scenario.n_nodes
    W = scenario.weights.W
    Q = scenario.weights.Q
    eta, eps_m, eps_l = scenario.eta, scenario.eps_m, scenario.eps_l
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

    # every round binds fresh arrays and none is mutated afterwards, so a
    # record can hold them without copying
    trace = [IterationRecord(0, lam, P, xi, mism, spread, max_abs_xi)]
    terminated = TERMINATED_BY_MAX_ITERS
    max_gap = 0.0

    for k in range(1, scenario.max_iters + 1):
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
            break
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
        lam, P, xi, snet = lam_new, P_new, xi_new, snet_new
        if terminated != TERMINATED_BY_MAX_ITERS:
            break
        if k % trace_stride == 0:
            trace.append(IterationRecord(k, lam, P, xi, mism, spread, max_abs_xi))

    # every exit leaves round k's state bound: it is the final record
    if trace[-1].k != k:
        trace.append(IterationRecord(k, lam, P, xi, mism, spread, max_abs_xi))

    return RunResult(
        trace=trace,
        terminated=terminated,
        variant=variant,
        rounds=k,
        max_conservation_gap=max_gap,
    )


# ---------------------------------------------------------------------------
# trace serialization, 17 significant digits throughout
#
# Rows end in CRLF, the csv module's default line ending. "%.17g" % x and
# f"{x:.17g}" go through the same float formatter. One kept round is one
# %-operation on a per-file template and one write: nothing holds more than a
# round, so memory stays flat in the number of rounds.


def write_trace_csv(result: RunResult, scenario: Scenario, path) -> None:
    """One row per (round, node): k,node_id,kind,lambda,P,xi."""
    n = scenario.n_nodes
    template = "".join(
        f"%d,{i},{kind.value},%.17g,%.17g,%.17g\r\n"
        for i, kind in enumerate(scenario.graph.node_kind)
    )
    fields = [0] * (4 * n)
    with open(path, "w", newline="") as f:
        f.write("k,node_id,kind,lambda,P,xi\r\n")
        for rec in result.trace:
            fields[0::4] = [rec.k] * n
            fields[1::4] = rec.lam.tolist()
            fields[2::4] = rec.P.tolist()
            fields[3::4] = rec.xi.tolist()
            f.write(template % tuple(fields))


def write_round_summary_csv(result: RunResult, path) -> None:
    """One row per round: k,mismatch,lambda_spread,max_abs_xi."""
    with open(path, "w", newline="") as f:
        f.write("k,mismatch,lambda_spread,max_abs_xi\r\n")
        for rec in result.trace:
            f.write("%d,%.17g,%.17g,%.17g\r\n"
                    % (rec.k, rec.mismatch, rec.lambda_spread, rec.max_abs_xi))
