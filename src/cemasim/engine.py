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
from .scenario import GeneratorParams, Scenario, is_integer, validate_scenario

TERMINATED_BY_TOLERANCE = "by-tolerance"
TERMINATED_BY_MAX_ITERS = "by-max-iters"
TERMINATED_DIVERGED = "diverged"

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
    # largest per-round |sum(xi) - mismatch| seen, tracked even when the
    # trace is strided
    max_conservation_gap: float
    # the last round's record, which a sink also received last
    final: IterationRecord

    # the round k the run ended at, kept once, in the final record
    @property
    def rounds(self) -> int:
        return self.final.k


def mismatch(P: np.ndarray, scenario: Scenario) -> float:
    """Demand minus net supply, sum_cons P[j] - sum_gen (P[i] - B[i]*P[i]^2)."""
    agents = scenario.agents
    return float(np.sum(agents.sign * agents.net(agents.node_powers(P))))


# The round's first two phases. `run` calls both through this module once a
# round, so bench/spans.py can time them by rebinding the names. Neither
# re-checks its inputs: `run` validated W and builds lam and xi itself, and
# `power_step`, the one per-node best-response loop, rejects a price vector
# of the wrong length through its strict zip.


def lambda_step(lam: np.ndarray, xi: np.ndarray, W: np.ndarray, eta: float) -> np.ndarray:
    """Price update: row-stochastic mixing plus the surplus feedback term."""
    # ndarray.dot reaches the same dgemv as `@` with less dispatch per call
    return W.dot(lam) + eta * xi


def power_step(scenario: Scenario, generator_response, new_lambdas) -> np.ndarray:
    """Node-order best responses, node i to its mixed price new_lambdas[i].

    new_lambdas is a float array or the list of its floats, which `run`
    already holds. Scalar closed forms on purpose: at a handful of nodes
    numpy's per-call overhead costs more than the arithmetic it would
    vectorize. A generator is told by the type of its parameters: an
    identity test on the graph's node kinds measured slower at 4 nodes,
    because it zips a third iterable and reads an enum member per call.
    """
    if isinstance(new_lambdas, np.ndarray):
        new_lambdas = new_lambdas.tolist()
    # read off the module per call, so a consumer_response rebound there
    # (bench/spans.py counts calls that way) is the one called
    consumer_response = best_response.consumer_response
    return np.array([
        generator_response(p, x) if isinstance(p, GeneratorParams) else consumer_response(p, x)
        for p, x in zip(scenario.agents.params, new_lambdas, strict=True)
    ])


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
    # the variant fixes the generator's update for the whole run
    generator_response = best_response.get_variant(variant).response
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
    # lam's floats: power_step answers them, and a kept record's spread is
    # taken from them
    prices = lam.tolist()
    P = np.zeros(n)
    # signed net injection: the surplus update books its change, and its sum
    # is the mismatch
    snet = sign * agents.net(P)
    xi = np.zeros(n)
    mism = 0.0
    max_abs_xi = 0.0

    terminated = None
    max_gap = 0.0
    k = 0
    while True:
        # the one emit site: round k's state is bound here on every path.
        # Every round binds fresh arrays and none is mutated afterwards, so a
        # record can hold them without copying. With no sink only the final
        # round gets a record, so the spread of its own prices is taken here
        # rather than once a round. Python's max and min of the price list
        # give the ufuncs' bits on finite prices, a spread of signed zeros
        # included. A diverged round's prices may hold NaN, which Python's
        # max and min keep or drop by position, so the ufuncs take those,
        # subtracted as Python floats: inf - inf is a quiet NaN there and a
        # warning in numpy
        if terminated or sink is not None and k % trace_stride == 0:
            if terminated == TERMINATED_DIVERGED:
                spread = float(amax(lam)) - float(amin(lam))
            else:
                spread = max(prices) - min(prices)
            final = IterationRecord(k, lam, P, xi, mism, spread, max_abs_xi)
            if sink is not None:
                sink(final)
        if terminated:
            break
        k += 1

        lam_new = lambda_step(lam, xi, W, eta)
        prices = lam_new.tolist()
        # a finite sum means every price is finite (NaN and +-inf propagate
        # through it); finite prices can still overflow the sum, so only then
        # does the max/min pair decide
        if not -math.inf < sum(prices) < math.inf and not (
                -math.inf < amin(lam_new) and amax(lam_new) < math.inf):
            # the best responses reject a non-finite price: the round stops
            # here, its record holds the new prices and the state they mixed
            lam = lam_new
            terminated = TERMINATED_DIVERGED
            continue
        P_new = power_step(scenario, generator_response, prices)
        snet_new = sign * agents.net(P_new)
        xi_new = Q.dot(xi) + (snet_new - snet)

        mism = float(total(snet_new))
        xi_sum = float(total(xi_new))
        gap = abs(xi_sum - mism)
        if gap > max_gap:
            max_gap = gap

        # a finite sum means every entry is finite, and then Python's max of
        # abs is numpy's; otherwise the ufunc keeps a NaN, and NaN and +-inf
        # fail the guard's comparison
        if -math.inf < xi_sum < math.inf:
            max_abs_xi = max(map(abs, xi_new.tolist()))
        else:
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
        max_conservation_gap=max_gap,
        final=final,
    )
