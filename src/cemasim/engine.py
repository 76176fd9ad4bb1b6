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
from contextlib import contextmanager
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
# Rows end in CRLF, the csv module's default line ending, and every float is
# its "%.17g". `csv_sink` writes both headers and yields the sink the CLI
# passes to `run`: it keeps up to BLOCK_ROUNDS records, and no more than
# BLOCK_VALUES floats, and writes their rows as one block, formatted in one
# numpy pass (g17.format_g17). A block is a matrix of NUL-padded fields, one
# row per CSV row, and its bytes with the NULs removed are the rows' text.
# The block bounds what is held and the formatter's temporaries, so memory
# stays flat in the number of rounds and bounded in the number of nodes.

BLOCK_ROUNDS = 64
BLOCK_VALUES = 4096
TRACE_HEADER = b"k,node_id,kind,lambda,P,xi\r\n"
ROUNDS_HEADER = b"k,mismatch,lambda_spread,max_abs_xi\r\n"
_COMMA, _CRLF = np.frombuffer(b",", np.uint8), np.frombuffer(b"\r\n", np.uint8)


def _fields(texts) -> np.ndarray:
    """Byte strings as the rows of a NUL-padded uint8 matrix."""
    width = max(map(len, texts))
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts),
                         np.uint8).reshape(len(texts), width)


def _rows(shape: tuple, fields: list) -> bytearray:
    """Rows made of `fields`, NUL-padded uint8 arrays that broadcast to
    shape + (their width,), side by side, as the bytes of a uint8 matrix."""
    width = sum(field.shape[-1] for field in fields)
    buf = bytearray(math.prod(shape) * width)
    rows = np.frombuffer(buf, np.uint8).reshape(shape + (width,))
    start = 0
    for field in fields:
        rows[..., start:start + field.shape[-1]] = field
        start += field.shape[-1]
    return buf


def _block_rows(node_fields: np.ndarray, block: list) -> tuple:
    """(trace rows, round-summary rows) of the records in `block`, NUL-padded;
    all their floats go through one format_g17 call."""
    # imported here: a process that writes no trace never compiles it
    from .g17 import WIDTH, format_g17

    rounds, n = len(block), node_fields.shape[0]
    ks = _fields([b"%d" % rec.k for rec in block])
    text = format_g17(np.concatenate(
        [a for rec in block for a in (rec.lam, rec.P, rec.xi)]
        + [np.array([(rec.mismatch, rec.lambda_spread, rec.max_abs_xi) for rec in block]).ravel()]))
    lam, P, xi = text[:3 * n * rounds].reshape(rounds, 3, n, WIDTH).transpose(1, 0, 2, 3)
    mism, spread, max_xi = text[3 * n * rounds:].reshape(rounds, 3, WIDTH).transpose(1, 0, 2)
    return (_rows((rounds, n), [ks[:, None], node_fields, lam, _COMMA, P, _COMMA, xi, _CRLF]),
            _rows((rounds,), [ks, _COMMA, mism, _COMMA, spread, _COMMA, max_xi, _CRLF]))


def write_block(trace_file, rounds_file, node_fields: np.ndarray, block: list) -> None:
    """Writes the records in `block` to binary files `trace_file`, rows
    k,node_id,kind,lambda,P,xi, and `rounds_file`, one row
    k,mismatch,lambda_spread,max_abs_xi each; row i of `node_fields` is
    ",i,kind,". A row's text is its NUL-padded fields without the NULs."""
    trace_rows, round_rows = _block_rows(node_fields, block)
    trace_file.write(trace_rows.translate(None, b"\0"))
    rounds_file.write(round_rows.translate(None, b"\0"))


@contextmanager
def csv_sink(scenario: Scenario, trace_file, rounds_file):
    """Writes the trace and round-summary headers to binary files
    `trace_file` and `rounds_file`; yields a sink for `run` that writes each
    record's rows to both, a block of records at a time. The records still
    held are written on the way out, also when the run raises."""
    # a record has 3n + 3 floats
    block_rounds = max(1, min(BLOCK_ROUNDS, BLOCK_VALUES // (3 * scenario.n_nodes + 3)))
    node_fields = _fields([b",%d,%s," % (i, kind.value.encode())
                           for i, kind in enumerate(scenario.graph.node_kind)])
    trace_file.write(TRACE_HEADER)
    rounds_file.write(ROUNDS_HEADER)
    block = []

    def sink(rec: IterationRecord) -> None:
        block.append(rec)
        if len(block) == block_rounds:
            # emptied first: a write that fails is not repeated on the way out
            records = block.copy()
            block.clear()
            write_block(trace_file, rounds_file, node_fields, records)

    try:
        yield sink
    finally:
        if block:
            write_block(trace_file, rounds_file, node_fields, block)
