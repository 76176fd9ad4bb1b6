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

import csv
from dataclasses import dataclass

import numpy as np

from . import best_response
from .scenario import Scenario, validate_scenario

TERMINATED_BY_TOLERANCE = "by-tolerance"
TERMINATED_BY_MAX_ITERS = "by-max-iters"
TERMINATED_DIVERGED = "diverged"

VARIANT_ORIGINAL = "original"
VARIANT_CORRECTED = "corrected"
VARIANTS = (VARIANT_ORIGINAL, VARIANT_CORRECTED)

SURPLUS_DIVERGENCE_LIMIT = 1e9


class InvalidScenarioError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(v.message for v in self.violations)
        super().__init__(f"invalid scenario: {lines}")


@dataclass(frozen=True)
class NodeState:
    lam: float
    P: float
    xi: float


@dataclass(frozen=True, eq=False)
class IterationRecord:
    k: int
    lam: np.ndarray
    P: np.ndarray
    xi: np.ndarray
    mismatch: float
    lambda_spread: float


@dataclass(frozen=True, eq=False)
class RunResult:
    trace: list
    terminated: str
    final_states: list
    variant: str
    rounds: int
    # largest per-round |sum(xi) - mismatch| seen, tracked even when the
    # trace is strided
    max_conservation_gap: float

    @property
    def final_lambda(self) -> np.ndarray:
        return np.array([s.lam for s in self.final_states])

    @property
    def final_P(self) -> np.ndarray:
        return np.array([s.P for s in self.final_states])

    @property
    def final_xi(self) -> np.ndarray:
        return np.array([s.xi for s in self.final_states])


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
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if len(new_lambdas) != scenario.n_nodes:
        raise ValueError("dimension mismatch in power_step")
    gen_resp = (
        best_response.generator_response_original
        if variant == VARIANT_ORIGINAL
        else best_response.generator_response_corrected
    )
    return best_response.responses(scenario.agents, new_lambdas, gen_resp)


def surplus_step(
    scenario: Scenario,
    Q: np.ndarray,
    xi: np.ndarray,
    old_P: np.ndarray,
    new_P: np.ndarray,
) -> np.ndarray:
    """Surplus update: column-stochastic routing plus the local power delta."""
    xi = np.asarray(xi, dtype=float)
    if Q.shape != (xi.size, xi.size) or len(old_P) != xi.size or len(new_P) != xi.size:
        raise ValueError("dimension mismatch in surplus_step")
    agents = scenario.agents
    delta = agents.sign * (agents.net(np.asarray(new_P, dtype=float))
                           - agents.net(np.asarray(old_P, dtype=float)))
    return Q @ xi + delta


def run(scenario: Scenario, variant: str, trace_stride: int = 1) -> RunResult:
    """Execute the full iteration until tolerance, divergence or the cap.

    Deterministic: fixed node order, no randomness, snapshot semantics. The
    trace always contains the k = 0 initialization row and the final row;
    intermediate rows are kept every `trace_stride` rounds.
    """
    violations = validate_scenario(scenario)
    if violations:
        raise InvalidScenarioError(violations)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if trace_stride < 1:
        raise ValueError("trace_stride must be >= 1")

    n = scenario.n_nodes
    W = scenario.weights.W
    Q = scenario.weights.Q
    agents = scenario.agents
    sign = agents.sign

    lam = np.array([best_response.lambda_init(p) for p in agents.params])
    P = np.zeros(n)
    net = agents.net(P)
    xi = np.zeros(n)

    def record(k, lam_v, P_v, xi_v, mism):
        return IterationRecord(
            k=k,
            lam=lam_v.copy(),
            P=P_v.copy(),
            xi=xi_v.copy(),
            mismatch=mism,
            lambda_spread=float(lam_v.max() - lam_v.min()),
        )

    trace = [record(0, lam, P, xi, 0.0)]
    terminated = TERMINATED_BY_MAX_ITERS
    rounds = 0
    max_gap = 0.0

    for k in range(1, scenario.max_iters + 1):
        lam_new = lambda_step(lam, xi, W, scenario.eta)
        P_new = power_step(scenario, variant, lam_new)
        net_new = agents.net(P_new)
        xi_new = Q @ xi + sign * (net_new - net)

        rounds = k
        mism = float(np.sum(sign * net_new))
        gap = abs(float(xi_new.sum()) - mism)
        if gap > max_gap:
            max_gap = gap

        if not (np.all(np.isfinite(lam_new)) and np.all(np.isfinite(xi_new))) or (
            np.abs(xi_new).max() > SURPLUS_DIVERGENCE_LIMIT
        ):
            lam, P, xi = lam_new, P_new, xi_new
            trace.append(record(k, lam, P, xi, mism))
            terminated = TERMINATED_DIVERGED
            break

        done = (
            np.abs(xi_new).max() <= scenario.eps_m
            and np.abs(lam_new - lam).max() <= scenario.eps_l
        )
        lam, P, xi, net = lam_new, P_new, xi_new, net_new
        if done or k == scenario.max_iters or k % trace_stride == 0:
            trace.append(record(k, lam, P, xi, mism))
        if done:
            terminated = TERMINATED_BY_TOLERANCE
            break

    final_states = [NodeState(lam=float(lam[i]), P=float(P[i]), xi=float(xi[i])) for i in range(n)]
    return RunResult(
        trace=trace,
        terminated=terminated,
        final_states=final_states,
        variant=variant,
        rounds=rounds,
        max_conservation_gap=max_gap,
    )


# ---------------------------------------------------------------------------
# trace serialization, 17 significant digits throughout


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_trace_csv(result: RunResult, scenario: Scenario, path) -> None:
    """One row per (round, node): k,node_id,kind,lambda,P,xi."""
    kinds = [k.value for k in scenario.graph.node_kind]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["k", "node_id", "kind", "lambda", "P", "xi"])
        for rec in result.trace:
            for i in range(scenario.n_nodes):
                writer.writerow(
                    [rec.k, i, kinds[i], _fmt(rec.lam[i]), _fmt(rec.P[i]), _fmt(rec.xi[i])]
                )


def write_round_summary_csv(result: RunResult, path) -> None:
    """One row per round: k,mismatch,lambda_spread,max_abs_xi."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["k", "mismatch", "lambda_spread", "max_abs_xi"])
        for rec in result.trace:
            writer.writerow(
                [rec.k, _fmt(rec.mismatch), _fmt(rec.lambda_spread), _fmt(float(np.abs(rec.xi).max()))]
            )
