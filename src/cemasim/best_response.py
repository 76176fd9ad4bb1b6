"""Closed-form per-agent subproblem solutions and price initialization.

Each agent minimizes a scalar objective over its power box given a price
signal. The two generator variants differ in whether the price multiplies the
raw output P (original) or the loss-adjusted net injection P - B*P^2
(corrected). All minimizers here are exact, not iterative.
"""

from __future__ import annotations

import math

import numpy as np

from .scenario import AgentParams, AgentView, ConsumerParams, GeneratorParams


def _require_finite(lam: float) -> None:
    if not math.isfinite(lam):
        raise ValueError(f"price signal must be finite, got {lam!r}")


def _clip(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x


def generator_response_original(p: GeneratorParams, lam: float) -> float:
    """argmin over [p_min, p_max] of a*P^2 + b*P + c - lam*P."""
    _require_finite(lam)
    return _clip((lam - p.b) / (2.0 * p.a), p.p_min, p.p_max)


def generator_response_corrected(p: GeneratorParams, lam: float) -> float:
    """argmin over [p_min, p_max] of C(P) - lam*(P - B*P^2).

    The objective is (a + lam*B)*P^2 + (b - lam)*P + c. For a + lam*B > 0 the
    unique minimizer is the clipped stationary point; for a + lam*B <= 0 (a
    transient, price deeply negative) the objective is concave or linear, so
    the minimum sits at an endpoint. Ties go to p_min.
    """
    _require_finite(lam)
    curv = p.a + lam * p.B
    if curv > 0.0:
        return _clip((lam - p.b) / (2.0 * curv), p.p_min, p.p_max)
    lin = p.b - lam
    lo = curv * p.p_min * p.p_min + lin * p.p_min
    hi = curv * p.p_max * p.p_max + lin * p.p_max
    return p.p_min if lo <= hi else p.p_max


def consumer_response(p: ConsumerParams, lam: float) -> float:
    """Exact minimizer over [p_min, p_max] of lam*P - U(P).

    U is concave increasing up to its saturation point w/(2*alpha) and flat
    beyond it, so: positive price -> clipped stationary point of the concave
    branch; zero price -> smallest maximizer of U (the clipped saturation
    point); negative price -> p_max.
    """
    _require_finite(lam)
    if lam < 0.0:
        return p.p_max
    if lam == 0.0:
        return _clip(p.saturation, p.p_min, p.p_max)
    return _clip((p.w - lam) / (2.0 * p.alpha), p.p_min, p.p_max)


def _require_price(lam) -> None:
    # NaN fails both tests; initial=0.0 changes neither and lets an empty
    # price array through
    lo, hi = (lam, lam) if isinstance(lam, float) else (
        np.min(lam, initial=0.0), np.max(lam, initial=0.0))
    if not (lo >= 0.0 and hi < math.inf):
        raise ValueError(f"array-form prices must be finite and >= 0, got {lam!r}")


def _clip_array(x, lo, hi) -> np.ndarray:
    # _clip's result wherever lo <= hi; two ufunc calls cost less than np.clip
    return np.minimum(np.maximum(x, lo), hi)


def generator_response_corrected_array(p: GeneratorParams, lam) -> np.ndarray:
    """generator_response_corrected as one array expression at prices lam >= 0.

    p's fields and lam may be arrays; they broadcast together. With a > 0 and
    B >= 0, as validate_scenario requires, a + lam*B > 0 at every lam >= 0,
    so only the clipped stationary point is left, computed with the scalar
    form's operations in its order: the same bits.
    """
    _require_price(lam)
    return _clip_array((lam - p.b) / (2.0 * (p.a + lam * p.B)), p.p_min, p.p_max)


def consumer_response_array(p: ConsumerParams, lam) -> np.ndarray:
    """consumer_response as one array expression at prices lam >= 0.

    p's fields and lam may be arrays; they broadcast together. At lam = 0 the
    stationary point (w - 0)/(2*alpha) is the saturation point bit for bit,
    so one expression covers both branches left.
    """
    _require_price(lam)
    return _clip_array((p.w - lam) / (2.0 * p.alpha), p.p_min, p.p_max)


def responses(agents: AgentView, lam, generator_response) -> np.ndarray:
    """Node-order best responses, node i to the price lam[i].

    Scalar closed forms on purpose: at a handful of nodes numpy's per-call
    overhead costs more than the arithmetic it would vectorize. The oracle,
    which prices every node alike, uses the array forms above instead.
    """
    return np.array([
        generator_response(p, x) if isinstance(p, GeneratorParams) else consumer_response(p, x)
        for p, x in zip(agents.params, np.asarray(lam, dtype=float).tolist(), strict=True)
    ])


def _variant_table() -> dict:
    # rebuilt per lookup from the module's current names, so a response
    # function rebound on the module (bench/spans.py counts calls that way)
    # is the one a run calls
    return {
        "original": (generator_response_original, GeneratorParams.marginal_cost),
        "corrected": (generator_response_corrected, GeneratorParams.loss_adjusted_marginal_cost),
    }


VARIANTS = tuple(_variant_table())


def variant_pair(variant: str) -> tuple:
    """(generator best response, implied price) of a variant: the price at
    which an interior P is the variant's best response, raw marginal cost for
    `original` and loss-adjusted marginal cost for `corrected`."""
    try:
        return _variant_table()[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}") from None


def lambda_init(params: AgentParams) -> float:
    """Starting price of a node: marginal cost at the floor for generators
    (loss-adjusted), marginal utility at the cap for consumers.
    """
    if isinstance(params, GeneratorParams):
        if params.marginal_net(params.p_min) <= 0.0:
            raise ValueError("2*B*p_min >= 1; loss-adjusted marginal cost undefined")
        return params.loss_adjusted_marginal_cost(params.p_min)
    if isinstance(params, ConsumerParams):
        return params.marginal_utility(params.p_max)
    raise TypeError(f"unsupported agent parameters: {type(params).__name__}")
