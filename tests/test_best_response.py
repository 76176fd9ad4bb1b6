"""Closed-form best responses against the independent numeric minimizer."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemasim import (
    ConsumerParams,
    GeneratorParams,
    consumer_response,
    generator_response_corrected,
    generator_response_original,
    implied_prices,
    lambda_init,
    run,
)
from cemasim.engine import power_step
from cemasim.best_response import (
    VARIANTS,
    consumer_response_array,
    generator_response_corrected_array,
    responses,
    variant_pair,
)
from conftest import (
    consumer_compare,
    generator_corrected_compare,
    generator_original_compare,
    golden_section_argmin,
)

GEN1 = GeneratorParams(a=0.0024, b=5.56, c=30.0, B=0.00021, p_min=60.0, p_max=339.69)
GEN2 = GeneratorParams(a=0.0056, b=4.32, c=25.0, B=0.00031, p_min=25.0, p_max=479.10)
CON1 = ConsumerParams(w=18.43, alpha=0.0545, p_min=50.0, p_max=100.34)
CON2 = ConsumerParams(w=13.17, alpha=0.0877, p_min=100.0, p_max=159.13)


def _random_generator(rng) -> GeneratorParams:
    p_min = rng.uniform(1.0, 200.0)
    return GeneratorParams(
        a=rng.uniform(5e-4, 0.02),
        b=rng.uniform(0.0, 10.0),
        c=rng.uniform(0.0, 50.0),
        B=rng.uniform(0.0, 8e-4),
        p_min=p_min,
        p_max=p_min + rng.uniform(1.0, 400.0),
    )


def _random_consumer(rng) -> ConsumerParams:
    p_min = rng.uniform(1.0, 200.0)
    return ConsumerParams(
        w=rng.uniform(1.0, 30.0),
        alpha=rng.uniform(0.005, 0.2),
        p_min=p_min,
        p_max=p_min + rng.uniform(1.0, 300.0),
    )


class TestGeneratorOriginal:
    def test_inverts_marginal_cost(self):
        # at lam = 2a*81.98 + b the interior stationary point is 81.98
        assert generator_response_original(GEN1, 5.953504) == pytest.approx(81.98, abs=1e-9)

    def test_lower_clip_at_lam_equals_b(self):
        assert generator_response_original(GEN1, 5.56) == 60.0

    def test_upper_clip(self):
        # (10 - 5.56) / 0.0048 = 925 -> clipped
        assert generator_response_original(GEN1, 10.0) == 339.69

    def test_rejects_non_finite(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                generator_response_original(GEN1, bad)


class TestGeneratorCorrected:
    def test_zero_loss_reduces_to_original_exactly(self):
        p = GeneratorParams(a=0.003, b=4.0, c=10.0, B=0.0, p_min=20.0, p_max=300.0)
        rng = np.random.default_rng(3)
        for lam in rng.uniform(-20.0, 40.0, size=200):
            assert generator_response_corrected(p, lam) == generator_response_original(p, lam)

    def test_lower_clip_at_lam_equals_b(self):
        assert generator_response_corrected(GEN1, 5.56) == 60.0

    def test_concave_transient_picks_better_endpoint(self):
        p = GeneratorParams(a=0.001, b=5.0, c=0.0, B=5e-4, p_min=10.0, p_max=400.0)
        lam = -10.0  # a + lam*B = -0.004 < 0
        assert p.a + lam * p.B < 0
        got = generator_response_corrected(p, lam)
        want = golden_section_argmin(generator_corrected_compare(p, lam), p.p_min, p.p_max)
        assert got == pytest.approx(want, abs=1e-7)

    def test_concave_exact_tie_goes_to_lower_bound(self):
        # constructed so the two endpoint objective values are equal floats;
        # only reachable with parameters outside the validated model, the
        # response stays total anyway
        p = GeneratorParams(a=1.0, b=0.0, c=0.0, B=0.5, p_min=1.0, p_max=3.0)
        lam = -4.0  # curvature -1, linear coefficient 4: f(1) = 3 = f(3)
        assert generator_response_corrected(p, lam) == 1.0

    def test_matches_centralized_optimum_coordinate(self):
        # at the balance price of the 4-agent benchmark the response must
        # reproduce the optimum coordinate of the centralized solver
        from cemasim import solve_centralized, table1_scenario

        s = table1_scenario()
        sol = solve_centralized(s)
        got = generator_response_corrected(GEN2, sol.lam)
        assert got == sol.P[1]
        assert 123.0 < got < 125.0
        want = golden_section_argmin(generator_corrected_compare(GEN2, sol.lam),
                                     GEN2.p_min, GEN2.p_max)
        assert got == pytest.approx(want, abs=1e-7)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            generator_response_corrected(GEN2, float("nan"))


class TestConsumerResponse:
    def test_interior_then_clip(self):
        # (18.43 - 6.17) / 0.109 = 112.5 -> clipped to the cap
        assert consumer_response(CON1, 6.17) == 100.34

    def test_flat_utility_pins_to_floor(self):
        # saturation 75.08 sits below the box, positive price pushes down
        for lam in (0.5, 3.0, 6.2, 13.0):
            assert consumer_response(CON2, lam) == 100.0

    def test_zero_root_clips_to_floor(self):
        assert consumer_response(CON1, 18.43) == 50.0

    def test_zero_price_takes_clipped_saturation(self):
        assert consumer_response(CON1, 0.0) == 100.34
        loose = ConsumerParams(w=18.43, alpha=0.0545, p_min=50.0, p_max=500.0)
        assert consumer_response(loose, 0.0) == pytest.approx(loose.saturation, abs=0)

    def test_negative_price_takes_cap(self):
        assert consumer_response(CON1, -2.5) == 100.34

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            consumer_response(CON1, float("inf"))


class TestLambdaInit:
    def test_table1_values(self):
        assert lambda_init(GEN1) == pytest.approx(5.999179318834632, abs=1e-12)
        assert lambda_init(GEN2) == pytest.approx(4.672422549517522, abs=1e-12)
        assert lambda_init(CON1) == pytest.approx(7.49294, abs=1e-9)

    def test_python_float_for_every_kind(self):
        assert [type(lambda_init(p)) for p in (GEN1, GEN2, CON1, CON2)] == [float] * 4

    def test_flat_branch_consumer(self):
        # cap beyond the saturation point: flat-branch derivative is zero
        assert CON2.p_max > CON2.saturation
        assert lambda_init(CON2) == 0.0

    def test_cap_at_saturation_consumer(self):
        # w - 2*alpha*p_max rounds to -1.8e-15 at this cap; the marginal
        # utility clamps it, so the starting price is not negative
        con = ConsumerParams(w=15.0, alpha=0.045, p_min=1.0, p_max=15.0 / 0.09)
        assert con.p_max == con.saturation
        assert lambda_init(con) == 0.0

    def test_rejects_degenerate_divisor(self):
        p = GeneratorParams(a=1.0, b=1.0, c=0.0, B=0.5, p_min=1.0, p_max=2.0)
        with pytest.raises(ValueError):
            lambda_init(p)

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            lambda_init(object())


class TestNumericOracleAgreement:
    """Spot-sized version of the exhaustive check in the acceptance suite."""

    N = 1500

    def test_generator_original(self):
        rng = np.random.default_rng(11)
        for _ in range(self.N):
            p = _random_generator(rng)
            lam = rng.uniform(-20.0, 40.0)
            got = generator_response_original(p, lam)
            want = golden_section_argmin(generator_original_compare(p, lam), p.p_min, p.p_max)
            assert got == pytest.approx(want, abs=1e-7)

    def test_generator_corrected(self):
        rng = np.random.default_rng(12)
        for _ in range(self.N):
            p = _random_generator(rng)
            lam = rng.uniform(-20.0, 40.0)
            got = generator_response_corrected(p, lam)
            want = golden_section_argmin(generator_corrected_compare(p, lam), p.p_min, p.p_max)
            assert got == pytest.approx(want, abs=1e-7)

    def test_consumer(self):
        rng = np.random.default_rng(13)
        for _ in range(self.N):
            p = _random_consumer(rng)
            lam = rng.uniform(-20.0, 40.0)
            got = consumer_response(p, lam)
            want = golden_section_argmin(consumer_compare(p, lam), p.p_min, p.p_max)
            assert got == pytest.approx(want, abs=1e-7)


class TestMonotonicity:
    def test_generator_responses_nondecreasing(self):
        rng = np.random.default_rng(21)
        for _ in range(400):
            p = _random_generator(rng)
            l1, l2 = sorted(rng.uniform(-20.0, 40.0, size=2))
            assert generator_response_original(p, l2) >= generator_response_original(p, l1)
            assert generator_response_corrected(p, l2) >= generator_response_corrected(p, l1)

    def test_consumer_response_nonincreasing(self):
        rng = np.random.default_rng(22)
        for _ in range(400):
            p = _random_consumer(rng)
            l1, l2 = sorted(rng.uniform(-20.0, 40.0, size=2))
            assert consumer_response(p, l2) <= consumer_response(p, l1)


class TestFixedPointIdentities:
    def test_original_interior_inverts_to_price(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 200:
            p = _random_generator(rng)
            lam = rng.uniform(0.0, 40.0)
            P = generator_response_original(p, lam)
            if not (p.p_min < P < p.p_max):
                continue
            checked += 1
            assert 2.0 * p.a * P + p.b == pytest.approx(lam, abs=1e-10)

    def test_corrected_interior_inverts_to_loss_adjusted_price(self):
        rng = np.random.default_rng(32)
        checked = 0
        while checked < 200:
            p = _random_generator(rng)
            lam = rng.uniform(0.0, 40.0)
            P = generator_response_corrected(p, lam)
            if not (p.p_min < P < p.p_max):
                continue
            checked += 1
            assert (2.0 * p.a * P + p.b) / (1.0 - 2.0 * p.B * P) == pytest.approx(lam, abs=1e-10)


class TestVariantTable:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_response_inverts_implied_price(self, table1, variant):
        response, price = variant_pair(variant)
        rng = np.random.default_rng(41)
        for g in table1.generators:
            for P in rng.uniform(g.p_min, g.p_max, size=200).tolist():
                assert abs(response(g, price(g, P)) - P) <= 1e-9

    def test_unknown_variant_message_is_shared(self, table1):
        calls = (
            lambda: variant_pair("bogus"),
            lambda: power_step(table1, "bogus", np.zeros(4)),
            lambda: run(table1, "bogus"),
            lambda: implied_prices(np.zeros(2), table1, "bogus"),
        )
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == "unknown variant 'bogus'"


class TestResponsesLoop:
    def test_matches_scalar_closed_forms_per_node(self, table1):
        lam = np.array([-3.0, 6.1745, 0.0, 12.5])
        for gen_resp in (generator_response_original, generator_response_corrected):
            want = [gen_resp(p, x) if isinstance(p, GeneratorParams) else consumer_response(p, x)
                    for p, x in zip(table1.agents.params, lam.tolist())]
            np.testing.assert_array_equal(responses(table1.agents, lam, gen_resp), want)

    def test_rejects_wrong_price_count(self, table1):
        with pytest.raises(ValueError):
            responses(table1.agents, [1.0, 2.0], generator_response_corrected)


@st.composite
def _valid_generator(draw) -> GeneratorParams:
    # the rules of validate_scenario: a > 0, B > 0, 0 < p_min <= p_max, 2*B*p_max < 1
    p_min = draw(st.floats(1e-3, 500.0))
    p_max = p_min + draw(st.one_of(st.just(0.0), st.floats(0.0, 500.0)))
    return GeneratorParams(
        a=draw(st.floats(1e-5, 0.1)),
        b=draw(st.floats(-5.0, 20.0)),
        c=draw(st.floats(0.0, 50.0)),
        B=draw(st.floats(1e-9, 0.99)) / (2.0 * p_max),
        p_min=p_min,
        p_max=p_max,
    )


@st.composite
def _valid_consumer(draw) -> ConsumerParams:
    p_min = draw(st.floats(1e-3, 300.0))
    return ConsumerParams(
        w=draw(st.floats(1e-3, 40.0)),
        alpha=draw(st.floats(1e-4, 0.5)),
        p_min=p_min,
        p_max=p_min + draw(st.one_of(st.just(0.0), st.floats(0.0, 300.0))),
    )


@st.composite
def _price_case(draw):
    """Agents and prices >= 0: zero exactly, arbitrary ones, and each agent's
    clip-boundary prices with their neighbouring floats."""
    gens = draw(st.lists(_valid_generator(), min_size=1, max_size=5))
    cons = draw(st.lists(_valid_consumer(), min_size=1, max_size=5))
    boundaries = [g.loss_adjusted_marginal_cost(x) for g in gens for x in (g.p_min, g.p_max)]
    boundaries += [c.marginal_utility(x) for c in cons for x in (c.p_min, c.p_max)]
    boundary = draw(st.sampled_from(boundaries).filter(lambda x: x >= 0.0))
    near = [max(0.0, math.nextafter(boundary, -math.inf)), boundary,
            math.nextafter(boundary, math.inf)]
    lams = [0.0, *near, *draw(st.lists(st.floats(0.0, 1e4), max_size=4))]
    return gens, cons, lams


def _stacked(group):
    """One params object whose fields are arrays over the group."""
    cls = type(group[0])
    return cls(*(np.array(column) for column in zip(*map(dataclasses.astuple, group))))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestArrayForms:
    """The oracle's one-price array forms against the scalar closed forms."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(case=_price_case())
    def test_same_bits_as_scalar_forms(self, case):
        gens, cons, lams = case
        pairs = ((generator_response_corrected_array, generator_response_corrected, gens),
                 (consumer_response_array, consumer_response, cons))
        for array_form, scalar_form, group in pairs:
            # params as arrays at one price: the oracle's bisection
            for lam in lams:
                assert _bits(array_form(_stacked(group), lam)) == \
                    _bits([scalar_form(p, lam) for p in group])
            # one agent at an array of prices: the brute-force grid
            for p in group:
                assert _bits(array_form(p, np.array(lams))) == \
                    _bits([scalar_form(p, lam) for lam in lams])

    @pytest.mark.parametrize("array_form, params", [
        (generator_response_corrected_array, GEN1),
        (consumer_response_array, CON1),
    ])
    @pytest.mark.parametrize("lam", [-1e-300, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_negative_or_non_finite_price(self, array_form, params, lam):
        with pytest.raises(ValueError, match="finite and >= 0"):
            array_form(params, lam)
        with pytest.raises(ValueError, match="finite and >= 0"):
            array_form(params, np.array([1.0, lam, 2.0]))
