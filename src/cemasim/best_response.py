"""Closed-form per-agent subproblem solutions and price initialization.

Each agent minimizes a scalar objective over its power box given a price
signal. The two generator variants differ in whether the price multiplies the
raw output P (original) or the loss-adjusted net injection P - B*P^2
(corrected). All minimizers here are exact, not iterative.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .scenario import AgentParams, ConsumerParams, GeneratorParams


def _not_finite(lam) -> ValueError:
    return ValueError(f"price signal must be finite, got {lam!r}")


# The scalar forms run once per node and round, so each tests its price and
# clips its result inline: two helper calls a node cost more than the
# arithmetic.


def generator_response_original(p: GeneratorParams, lam: float) -> float:
    """argmin over [p_min, p_max] of a*P^2 + b*P + c - lam*P."""
    if not math.isfinite(lam):
        raise _not_finite(lam)
    x = (lam - p.b) / (2.0 * p.a)
    return p.p_min if x < p.p_min else p.p_max if x > p.p_max else x


def generator_response_corrected(p: GeneratorParams, lam: float) -> float:
    """argmin over [p_min, p_max] of C(P) - lam*(P - B*P^2).

    The objective is (a + lam*B)*P^2 + (b - lam)*P + c. For a + lam*B > 0 the
    unique minimizer is the clipped stationary point; for a + lam*B <= 0 (a
    transient, price deeply negative) the objective is concave or linear, so
    the minimum sits at an endpoint. Ties go to p_min.
    """
    if not math.isfinite(lam):
        raise _not_finite(lam)
    curv = p.a + lam * p.B
    if curv > 0.0:
        x = (lam - p.b) / (2.0 * curv)
        return p.p_min if x < p.p_min else p.p_max if x > p.p_max else x
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
    if not math.isfinite(lam):
        raise _not_finite(lam)
    if lam < 0.0:
        return p.p_max
    # with w > 0, as validate_scenario requires, the stationary point
    # (w - lam)/(2*alpha) at lam = +-0 is the saturation point bit for bit,
    # so one expression covers the zero price too
    x = (p.w - lam) / (2.0 * p.alpha)
    return p.p_min if x < p.p_min else p.p_max if x > p.p_max else x


def _require_price(lam) -> None:
    # NaN fails both tests; initial=0.0 changes neither and lets an empty
    # price array through
    lo, hi = (lam, lam) if isinstance(lam, float) else (
        np.min(lam, initial=0.0), np.max(lam, initial=0.0))
    if not (lo >= 0.0 and hi < math.inf):
        raise ValueError(f"array-form prices must be finite and >= 0, got {lam!r}")


def _clip_array(x, lo, hi) -> np.ndarray:
    # the scalar forms' clip wherever lo <= hi; two ufunc calls cost less
    # than np.clip
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


@dataclass(frozen=True)
class Variant:
    """A generator update: its scalar best response and its implied price, the
    price at which an interior P is that best response (raw marginal cost for
    `original`, loss-adjusted marginal cost for `corrected`)."""

    response: Callable
    implied_price: Callable


VARIANTS = ("original", "corrected")


def get_variant(name: str) -> Variant:
    """The Variant record of `name`, one of VARIANTS."""
    # built per call from the module's current names, so a response function
    # rebound on the module (bench/spans.py counts calls that way) is the one
    # a run calls
    if name == "original":
        return Variant(generator_response_original, GeneratorParams.marginal_cost)
    if name == "corrected":
        return Variant(generator_response_corrected, GeneratorParams.loss_adjusted_marginal_cost)
    raise ValueError(f"unknown variant {name!r}")


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
