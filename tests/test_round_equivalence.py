"""engine.run against the round loop it replaced, bit for bit.

`_replaced_run` below is that loop verbatim, with the lambda_step, power_step and
scalar best responses it called: `W @ lam` and `Q @ xi`, a max/min pair that
is both the finiteness test and the spread of every round, and the best
responses' helper calls. engine.run must emit the same records, end the same
way and report the same conservation gap, with or without a sink, on stable
and unstable gains, on prices forced to NaN, +-inf, finite values whose sum
overflows, all one value or zeros of both signs, and on powers forced so that
the surplus xi holds a NaN or finite entries whose sum overflows.
"""

import contextlib
import dataclasses
import math
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemasim import engine, lambda_init, table1_scenario
from cemasim.best_response import VARIANTS
from cemasim.engine import (
    SURPLUS_DIVERGENCE_LIMIT,
    TERMINATED_BY_MAX_ITERS,
    TERMINATED_BY_TOLERANCE,
    TERMINATED_DIVERGED,
    InvalidScenarioError,
    IterationRecord,
    RunResult,
)
from cemasim.presets import random_scenario
from cemasim.scenario import (
    ConsumerParams,
    GeneratorParams,
    Scenario,
    is_integer,
    validate_scenario,
)

# ---------------------------------------------------------------------------
# the replaced round, verbatim


def _require_finite(lam: float) -> None:
    if not math.isfinite(lam):
        raise ValueError(f"price signal must be finite, got {lam!r}")


def _clip(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x


def _generator_response_original(p: GeneratorParams, lam: float) -> float:
    _require_finite(lam)
    return _clip((lam - p.b) / (2.0 * p.a), p.p_min, p.p_max)


def _generator_response_corrected(p: GeneratorParams, lam: float) -> float:
    _require_finite(lam)
    curv = p.a + lam * p.B
    if curv > 0.0:
        return _clip((lam - p.b) / (2.0 * curv), p.p_min, p.p_max)
    lin = p.b - lam
    lo = curv * p.p_min * p.p_min + lin * p.p_min
    hi = curv * p.p_max * p.p_max + lin * p.p_max
    return p.p_min if lo <= hi else p.p_max


def _consumer_response(p: ConsumerParams, lam: float) -> float:
    _require_finite(lam)
    if lam < 0.0:
        return p.p_max
    if lam == 0.0:
        return _clip(p.saturation, p.p_min, p.p_max)
    return _clip((p.w - lam) / (2.0 * p.alpha), p.p_min, p.p_max)


# the names the replaced loop read off cemasim.best_response
best_response = types.SimpleNamespace(
    variant_pair=lambda variant: {
        "original": (_generator_response_original,),
        "corrected": (_generator_response_corrected,),
    }[variant],
    consumer_response=_consumer_response,
    lambda_init=lambda_init,
)


def lambda_step(lam: np.ndarray, xi: np.ndarray, W: np.ndarray, eta: float) -> np.ndarray:
    return W @ lam + eta * xi


def power_step(scenario: Scenario, generator_response, new_lambdas: np.ndarray) -> np.ndarray:
    consumer_response = best_response.consumer_response
    return np.array([
        generator_response(p, x) if isinstance(p, GeneratorParams) else consumer_response(p, x)
        for p, x in zip(scenario.agents.params, new_lambdas.tolist(), strict=True)
    ])


def _replaced_run(scenario: Scenario, variant: str, trace_stride: int = 1, sink=None) -> RunResult:
    violations = validate_scenario(scenario)
    if violations:
        raise InvalidScenarioError(violations)
    # the variant fixes the generator's update for the whole run
    generator_response = best_response.variant_pair(variant)[0]
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
        P_new = power_step(scenario, generator_response, lam_new)
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
        max_conservation_gap=max_gap,
        final=final,
    )


# ---------------------------------------------------------------------------

SINKS = (None, 1, 7)  # no sink, or a list sink at this stride
FORCED = ("none", "nan", "inf", "-inf", "all-inf", "overflowing-sum", "equal", "signed-zeros",
          "overflowing-xi", "nan-xi")
NON_FINITE = ("nan", "inf", "-inf", "all-inf")
FORCED_XI = ("overflowing-xi", "nan-xi")
HUGE = 0.9e308  # finite; four or more such prices overflow their sum, two such xi entries theirs


def _forcing(mix, how: str, at: int):
    """`mix` with its output edited by hand at round `at`, as `how` says: one
    price NaN, inf or -inf, every price inf (the spread inf - inf is NaN),
    every price finite near HUGE, every price equal (for three rounds), or
    every price a zero, the signs alternating from node to node and the
    first node's flipping from round to round (for three rounds)."""
    calls = []

    def forced(lam, xi, W, eta):
        out = mix(lam, xi, W, eta)
        calls.append(None)
        k = len(calls)
        if how in ("nan", "inf", "-inf") and k == at:
            out[k % len(out)] = float(how)
        elif how == "all-inf" and k == at:
            out[:] = math.inf
        elif how == "overflowing-sum" and k == at:
            out[:] = np.linspace(HUGE, HUGE / 1.5, len(out))
        elif how == "equal" and at <= k < at + 3:
            out[:] = out[k % len(out)]
        elif how == "signed-zeros" and at <= k < at + 3:
            out[:] = np.where((np.arange(len(out)) + k) % 2 == 0, -0.0, 0.0)
        return out

    return forced


def _forcing_powers(respond, how: str, at: int):
    """`respond` with its output edited by hand at round `at`, as `how` says:
    every consumer's power HUGE, so the surplus entries stay finite while
    their sum overflows (a consumer's net is its power; there are at least
    two), or one node's power NaN, so one surplus entry is NaN, at a node
    that moves with the round."""
    calls = []

    def forced(scenario, generator_response, new_lambdas):
        out = respond(scenario, generator_response, new_lambdas)
        calls.append(None)
        k = len(calls)
        if how == "overflowing-xi" and k == at:
            out[list(scenario.consumer_nodes)] = HUGE
        elif how == "nan-xi" and k == at:
            out[k % len(out)] = math.nan
        return out

    return forced


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _record_bits(rec) -> tuple:
    return (rec.k, rec.lam.tobytes(), rec.P.tobytes(), rec.xi.tobytes(), _bits(rec.mismatch),
            _bits(rec.lambda_spread), _bits(rec.max_abs_xi))


def _compare(scenario, variant, stride, how="none", at=1):
    """Runs engine.run and the replaced loop the same way; asserts every
    emitted record and the result agree bit for bit; returns how it ended
    and at which round."""
    this = sys.modules[__name__]
    runs = []
    for module, fn in ((engine, engine.run), (this, _replaced_run)):
        records = []
        sink = None if stride is None else records.append
        # both loops sum the overflowing powers into the mismatch and the
        # surplus, which numpy warns of
        quiet = np.errstate(over="ignore") if how == "overflowing-xi" else contextlib.nullcontext()
        with pytest.MonkeyPatch.context() as mp, quiet:
            mp.setattr(module, "lambda_step", _forcing(module.lambda_step, how, at))
            mp.setattr(module, "power_step", _forcing_powers(module.power_step, how, at))
            result = fn(scenario, variant, 1 if stride is None else stride, sink=sink)
        assert result.final is (records[-1] if records else result.final)
        runs.append((result, [_record_bits(r) for r in records or [result.final]]))
    (got, got_records), (want, want_records) = runs
    assert (got.terminated, got.rounds, got.variant) == (want.terminated, want.rounds, want.variant)
    assert _bits(got.max_conservation_gap) == _bits(want.max_conservation_gap)
    assert got_records == want_records
    return got.terminated, got.rounds


@st.composite
def _cases(draw):
    """A generated 2+2 to 10+10 ring capped at a few hundred rounds, stable or
    at an unstable gain, a variant, a sink and a forced price or power edit."""
    m = draw(st.integers(2, 10))
    scenario = random_scenario(draw(st.integers(0, 10**6)), m, m)
    unstable = draw(st.booleans())
    scenario = dataclasses.replace(scenario, max_iters=draw(st.integers(1, 250)),
                                   **({"eta": 0.9} if unstable else {}))
    how = draw(st.sampled_from(FORCED))
    return (scenario, draw(st.sampled_from(VARIANTS)), draw(st.sampled_from(SINKS)),
            how, draw(st.integers(1, 40)), unstable)


class TestRunMatchesTheReplacedLoop:
    @pytest.mark.parametrize("stride", SINKS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_table1_to_tolerance(self, variant, stride):
        assert _compare(table1_scenario(), variant, stride)[0] == TERMINATED_BY_TOLERANCE

    @pytest.mark.parametrize("how", FORCED[1:])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_table1_forced_prices(self, variant, how):
        ended = _compare(dataclasses.replace(table1_scenario(), max_iters=40), variant, 1, how, 5)
        assert ended == ((TERMINATED_DIVERGED, 5) if how in NON_FINITE + FORCED_XI
                         else (TERMINATED_BY_MAX_ITERS, 40))

    @pytest.mark.parametrize("how", FORCED_XI)
    def test_table1_forced_xi_reaches_the_guard(self, how):
        # the forced round's surplus is what the case says: finite entries
        # whose sum overflows, or a NaN after the first entry, where Python's
        # max would skip it
        records = []
        with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore"):
            mp.setattr(engine, "power_step", _forcing_powers(engine.power_step, how, 5))
            engine.run(table1_scenario(), "corrected", sink=records.append)
            xi = records[-1].xi
            total = np.add.reduce(xi)
        if how == "overflowing-xi":
            assert np.isfinite(xi).all() and total == math.inf
        else:
            assert math.isnan(total) and np.flatnonzero(np.isnan(xi)).tolist() == [5 % len(xi)]
        assert records[-1].k == 5 and not records[-1].max_abs_xi <= SURPLUS_DIVERGENCE_LIMIT

    def test_table1_capped_at_an_unstable_gain(self):
        s = dataclasses.replace(table1_scenario(), eta=0.9, max_iters=300)
        for variant in VARIANTS:
            for stride in SINKS:
                assert _compare(s, variant, stride)[0] in (TERMINATED_BY_MAX_ITERS,
                                                           TERMINATED_DIVERGED)

    def test_generated_rings(self):
        seen = set()

        @settings(derandomize=True, max_examples=200, database=None, deadline=None)
        @given(case=_cases())
        def check(case):
            scenario, variant, stride, how, at, unstable = case
            ended, rounds = _compare(scenario, variant, stride, how, at)
            seen.update({("variant", variant), ("sink", stride), ("unstable", unstable),
                         ("ended", ended)})
            if rounds >= at:
                seen.add(("forced", how))

        check()
        want = {*(("variant", v) for v in VARIANTS), *(("sink", s) for s in SINKS),
                        *(("forced", how) for how in FORCED), ("unstable", True),
                        ("unstable", False), ("ended", TERMINATED_BY_MAX_ITERS),
                        ("ended", TERMINATED_DIVERGED)}
        assert want - seen == set()
