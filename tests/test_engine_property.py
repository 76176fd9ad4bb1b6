"""Property test: engine.run against a reference loop written out in full."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cemasim import (
    ConsumerParams,
    GeneratorParams,
    lambda_init,
    table1_scenario,
)
from cemasim.engine import (
    SURPLUS_DIVERGENCE_LIMIT,
    TERMINATED_BY_MAX_ITERS,
    TERMINATED_BY_TOLERANCE,
    TERMINATED_DIVERGED,
    VARIANTS,
    lambda_step,
    power_step,
)
from cemasim.presets import random_scenario
from test_engine import _kept, _scenario

STRIDES = (1, 7)


def _reference_run(scenario, variant, trace_stride):
    """The round loop in its long form: a whole-array finiteness test, the
    surplus update as sign * (net_new - net), and np.sum.

    Returns (kept rounds as (k, lam, P, xi, mismatch), terminated, rounds,
    max conservation gap).
    """
    W, Q = scenario.weights.W, scenario.weights.Q
    agents = scenario.agents
    sign = agents.sign
    lam = np.array([lambda_init(p) for p in agents.params])
    P = np.zeros(scenario.n_nodes)
    net = agents.net(P)
    xi = np.zeros(scenario.n_nodes)
    mism = 0.0
    kept = [(0, lam, P, xi, mism)]
    terminated = TERMINATED_BY_MAX_ITERS
    max_gap = 0.0
    for k in range(1, scenario.max_iters + 1):
        lam_new = lambda_step(lam, xi, W, scenario.eta)
        if not np.all(np.isfinite(lam_new)):
            lam = lam_new
            terminated = TERMINATED_DIVERGED
            break
        P_new = power_step(scenario, variant, lam_new)
        net_new = agents.net(P_new)
        xi_new = Q @ xi + sign * (net_new - net)
        mism = float(np.sum(sign * net_new))
        max_gap = max(max_gap, abs(float(xi_new.sum()) - mism))
        max_abs_xi = np.abs(xi_new).max()
        if not max_abs_xi <= SURPLUS_DIVERGENCE_LIMIT:
            terminated = TERMINATED_DIVERGED
        elif max_abs_xi <= scenario.eps_m and np.abs(lam_new - lam).max() <= scenario.eps_l:
            terminated = TERMINATED_BY_TOLERANCE
        lam, P, xi, net = lam_new, P_new, xi_new, net_new
        if terminated != TERMINATED_BY_MAX_ITERS:
            break
        if k % trace_stride == 0:
            kept.append((k, lam, P, xi, mism))
    if kept[-1][0] != k:
        kept.append((k, lam, P, xi, mism))
    return kept, terminated, k, max_gap


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _check(scenario, variant, stride):
    """Asserts run matches the reference bit for bit; returns how it ended."""
    result, records = _kept(scenario, variant, trace_stride=stride)
    kept, terminated, rounds, max_gap = _reference_run(scenario, variant, stride)
    assert (result.terminated, result.rounds) == (terminated, rounds)
    assert _bits(result.max_conservation_gap) == _bits(max_gap)
    assert records[-1] is result.final
    assert [rec.k for rec in records] == [row[0] for row in kept]
    for rec, (_, lam, P, xi, mism) in zip(records, kept):
        assert rec.lam.tobytes() == lam.tobytes()
        assert rec.P.tobytes() == P.tobytes()
        assert rec.xi.tobytes() == xi.tobytes()
        assert _bits(rec.mismatch) == _bits(mism)
        assert _bits(rec.lambda_spread) == _bits(float(lam.max() - lam.min()))
        assert _bits(rec.max_abs_xi) == _bits(np.abs(xi).max())
    return terminated


@st.composite
def _cases(draw):
    """A random 1-3 by 1-3 ring capped at a few hundred rounds, a variant and
    a stride."""
    scenario = random_scenario(draw(st.integers(0, 10**6)), draw(st.integers(1, 3)),
                               draw(st.integers(1, 3)))
    scenario = dataclasses.replace(scenario, max_iters=draw(st.integers(1, 300)))
    return scenario, draw(st.sampled_from(VARIANTS)), draw(st.sampled_from(STRIDES))


class TestRunMatchesReferenceLoop:
    def test_table1(self):
        s = table1_scenario()
        for variant in VARIANTS:
            for stride in STRIDES:
                assert _check(s, variant, stride) == TERMINATED_BY_TOLERANCE

    def test_surplus_divergence(self):
        # the surplus passes the 1e9 guard once the generator reaches its cap
        gen = GeneratorParams(a=1e-170, b=1.0, c=0.0, B=1e-170, p_min=1.0, p_max=1e160)
        con = ConsumerParams(w=1e155, alpha=1e-10, p_min=1e150, p_max=1e155)
        s = _scenario([gen], [con], max_iters=50)
        for variant in VARIANTS:
            for stride in STRIDES:
                assert _check(s, variant, stride) == TERMINATED_DIVERGED

    def test_random_scenarios(self):
        seen = set()

        @settings(derandomize=True, max_examples=60, database=None, deadline=None)
        @given(case=_cases())
        def check(case):
            scenario, variant, stride = case
            _check(scenario, variant, stride)
            seen.update({variant, stride})

        check()
        assert seen >= set(VARIANTS) | set(STRIDES)
