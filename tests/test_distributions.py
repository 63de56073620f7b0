import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from transient_queue import (DIVERGENT, Deterministic, DistributionSpecError,
                             Erlang, Exponential, HyperExponential,
                             ServiceDistribution, Uniform, parse_service_spec)

ALL_KINDS = [
    Exponential(rate=1.0),
    Exponential(rate=2.5),
    Deterministic(value=1.0),
    Erlang(shape=2, rate=2.0),
    Erlang(shape=5, rate=4.0),
    HyperExponential(weights=(0.3, 0.7), rates=(1.0, 2.0)),
    Uniform(lo=0.5, hi=1.5),
]


def test_moment_examples():
    assert Exponential(1.0).moment(2) == pytest.approx(2.0)
    with pytest.raises(ValueError, match="must be 1 or 2"):
        Deterministic(1.0).moment(3)
    assert Erlang(2, 2.0).moment(2) == pytest.approx(1.5)


@pytest.mark.parametrize("lo, hi", [
    (1000.0, 1000.000001), (7.0, 7.000000000001), (1.0, 1.0 + 2**-40),
    (0.5, 1.5), (1e-3, 1e3),
])
def test_uniform_moments_match_exact_rationals(lo, hi):
    # hi^(k+1) - lo^(k+1) over (k+1)(hi - lo) cancels when hi is near lo
    exact = ((Fraction(lo) + Fraction(hi)) / 2,
             (Fraction(lo) ** 2 + Fraction(lo) * Fraction(hi)
              + Fraction(hi) ** 2) / 3)
    d = Uniform(lo, hi)
    for k, value in zip((1, 2), exact):
        assert abs(Fraction(d.moment(k)) - value) <= value * Fraction(1e-15)


def test_lst_examples():
    assert Exponential(1.0).lst(1.0) == pytest.approx(0.5)
    assert Exponential(1.0).lst(-0.5) == pytest.approx(2.0)
    assert Exponential(1.0).lst(-1.5) == DIVERGENT
    # a phase of zero weight plays no part, even where r + s = 0 for it
    assert HyperExponential((1.0, 0.0), (1.0, 0.5)).lst(-0.5) == 2.0


def test_cramer_abscissa_examples():
    assert Exponential(1.0).cramer_abscissa() == 1.0
    assert Deterministic(1.0).cramer_abscissa() == math.inf
    assert Erlang(2, 2.0).cramer_abscissa() == 2.0
    assert Uniform(0.5, 1.5).cramer_abscissa() == math.inf
    assert HyperExponential((0.3, 0.7), (1.0, 2.0)).cramer_abscissa() == 1.0


@pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.spec_string())
def test_cramer_boundary(dist):
    delta0 = dist.cramer_abscissa()
    if math.isinf(delta0):
        assert math.isfinite(dist.lst(-1000.0)) or dist.lst(-1000.0) == math.inf
        return
    eps = 1e-6
    assert math.isfinite(dist.lst(-delta0 + eps))
    assert dist.lst(-delta0 - eps) == DIVERGENT
    assert dist.lst(-delta0) == DIVERGENT


@pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.spec_string())
def test_moments_match_lst_derivatives(dist):
    # central finite differences of the transform at 0
    h = 1e-3
    b1 = -(dist.lst(h) - dist.lst(-h)) / (2 * h)
    b2 = (dist.lst(h) - 2 * dist.lst(0.0) + dist.lst(-h)) / h**2
    assert b1 == pytest.approx(dist.moment(1), rel=1e-4)
    assert b2 == pytest.approx(dist.moment(2), rel=1e-4)


@pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.spec_string())
def test_jensen(dist):
    assert dist.moment(1) > 0
    assert dist.moment(2) >= dist.moment(1) ** 2 - 1e-12


@pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.spec_string())
def test_lst_against_monte_carlo(dist):
    rng = np.random.default_rng(1234)
    x = np.asarray(dist.sample(rng, 200_000), dtype=float)
    delta0 = dist.cramer_abscissa()
    s_values = [0.7, 3.0, 5.0]
    if math.isfinite(delta0):
        s_values.append(-0.4 * delta0)  # keeps the estimator variance finite
    else:
        s_values.append(-1.0)
    for s in s_values:
        y = np.exp(-s * x)
        est = y.mean()
        se = y.std(ddof=1) / math.sqrt(len(y))
        assert abs(est - dist.lst(s)) <= 3 * se + 1e-12, f"s={s}"


@pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.spec_string())
def test_cdf_against_empirical(dist):
    rng = np.random.default_rng(99)
    x = np.sort(np.asarray(dist.sample(rng, 100_000), dtype=float))
    assert np.all(x > 0)
    if isinstance(dist, Deterministic):
        assert dist.cdf(dist.value - 1e-9) == 0.0
        assert dist.cdf(dist.value) == 1.0
        return
    for q in (0.25, 0.5, 0.9):
        t = float(np.quantile(x, q))
        assert dist.cdf(t) == pytest.approx(q, abs=0.01)


def test_sampling_reproducible():
    d = Exponential(1.0)
    a = d.sample(np.random.default_rng(7), 10)
    b = d.sample(np.random.default_rng(7), 10)
    assert np.array_equal(a, b)
    assert Deterministic(1.0).sample(np.random.default_rng(3)) == 1.0


@pytest.mark.parametrize("weights, rates", [
    ((0.3, 0.7), (1.0, 2.0)),
    ((1.0,), (2.0,)),
    ((1.0, 0.0), (1.0, 3.0)),
    ((0.0, 1.0), (1.0, 3.0)),
    ((0.2, 0.5, 0.3), (0.5, 1.0, 4.0)),
])
def test_hyperexp_draws_match_choice_then_exponential(weights, rates):
    # the sampler must pick each component with the very uniform that
    # Generator.choice(p=weights) consumes, and draw the very bits of
    # Generator.exponential, so seeded streams never move
    dist = HyperExponential(weights, rates)
    scales = 1.0 / np.asarray(rates)
    for seed in range(200):
        fast = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        got = [dist.sample(fast) for _ in range(12)]
        want = [ref.exponential(scales[ref.choice(len(rates), p=weights)])
                for _ in range(12)]
        assert got == want
        for size in (9, (2, 3), 12_000):
            idx = ref.choice(len(rates), p=weights, size=size)
            assert np.array_equal(dist.sample(fast, size),
                                  ref.exponential(scales[idx]))
        assert fast.bit_generator.state == ref.bit_generator.state


def test_law_of_large_numbers():
    rng = np.random.default_rng(2024)
    x = Exponential(1.0).sample(rng, 1_000_000)
    assert abs(x.mean() - 1.0) <= 3.0 / math.sqrt(1_000_000)


def test_moment_order_validation():
    for k in (0, 3, 10_000):
        with pytest.raises(ValueError, match="moment order must be 1 or 2"):
            Exponential(1.0).moment(k)


def test_parameter_validation():
    with pytest.raises(DistributionSpecError):
        Exponential(rate=-1.0)
    with pytest.raises(DistributionSpecError):
        Uniform(lo=2.0, hi=1.0)
    with pytest.raises(DistributionSpecError):
        HyperExponential(weights=(0.5, 0.6), rates=(1.0, 2.0))
    with pytest.raises(DistributionSpecError):
        HyperExponential(weights=(0.5, 0.5), rates=(1.0, -2.0))


def test_spec_string_round_trip():
    # parameters past six significant digits too, a numpy float among them,
    # and shapes given as a whole float or past :g's six digits
    for dist in ALL_KINDS + [
            Exponential(rate=1.0 / 3.0),
            Deterministic(value=2.0 / 3.0),
            Erlang(shape=3, rate=1.0 / 7.0),
            Erlang(shape=2.0, rate=1.0),
            Erlang(shape=10**7, rate=1.0),
            HyperExponential(weights=(1.0 / 3.0, 2.0 / 3.0),
                             rates=(0.1234567, 3.0)),
            Uniform(lo=0.1234567, hi=1.5),
            Exponential(rate=np.float64(1.0) / 3.0)]:
        assert parse_service_spec(dist.spec_string()) == dist


def test_spec_string_keeps_short_spellings():
    assert Exponential(1.0).spec_string() == "exp:rate=1"
    assert HyperExponential((0.5, 0.5), (0.6, 3.0)).spec_string() == (
        "hyperexp:w=0.5|0.5,rate=0.6|3")
    assert Uniform(0.5, 1.5).spec_string() == "uniform:lo=0.5,hi=1.5"
    assert Exponential(1.0 / 3.0).spec_string() == "exp:rate=0.3333333333333333"
    assert Erlang(2.0, 1.0).spec_string() == "erlang:shape=2,rate=1"


def test_erlang_whole_float_shape_is_stored_as_int():
    # the cdf's term loop runs range(shape), which takes no float
    assert type(Erlang(2.0, 1.0).shape) is int
    assert Erlang(2.0, 1.0).cdf(1.5) == Erlang(2, 1.0).cdf(1.5)


# one instance of every law: the guard below fails for a law missing here
EXAMPLES = {
    Exponential: Exponential(2.5),
    Deterministic: Deterministic(1.0),
    Erlang: Erlang(2, 2.0),
    HyperExponential: HyperExponential((0.3, 0.7), (1.0, 2.0)),
    Uniform: Uniform(0.5, 1.5),
}


def test_every_law_is_parsed_and_checked_for_finiteness():
    # a law added later cannot skip the spec parser or the finiteness check
    assert set(ServiceDistribution.__subclasses__()) == set(EXAMPLES)
    for law, dist in EXAMPLES.items():
        assert parse_service_spec(dist.spec_string()) == dist
        params = {f.name: getattr(dist, f.name) for f in dataclasses.fields(law)}
        for name, value in params.items():
            for bad in (math.inf, -math.inf, math.nan):
                given = dict(params)
                given[name] = value[:-1] + (bad,) if isinstance(value, tuple) else bad
                with pytest.raises(DistributionSpecError, match="finite"):
                    law(**given)


@pytest.mark.parametrize("spec", [
    "exp:rate=inf", "exp:rate=nan", "det:value=nan", "det:value=inf",
    "erlang:shape=2,rate=inf", "erlang:shape=2,rate=nan",
    "hyperexp:w=1,rate=inf", "hyperexp:w=0.5|nan,rate=1|2",
    "hyperexp:w=inf|0.5,rate=1|2", "hyperexp:w=0.5|0.5,rate=1|nan",
    "uniform:lo=0.5,hi=inf", "uniform:lo=nan,hi=1", "uniform:lo=-inf,hi=1",
    "uniform:lo=0.5,hi=nan",
])
def test_parse_rejects_non_finite_fields(spec):
    with pytest.raises(DistributionSpecError, match="finite"):
        parse_service_spec(spec)


@pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.spec_string())
def test_cdf_is_zero_off_the_support(dist):
    x = np.array([np.nan, -np.inf, -1.0, -0.0, 0.0])
    assert np.array_equal(dist.cdf(x), np.zeros(len(x)))
    assert dist.cdf(math.nan) == 0.0


def test_lst_is_inf_where_the_closed_form_overflows():
    # finite up to e^709.78, the largest double, and inf past it
    assert Deterministic(1.0).lst(-709.5) == math.exp(709.5)
    assert Deterministic(1.0).lst(-710.0) == math.inf
    assert Uniform(0.5, 1.5).lst(-600.0) == math.inf
    assert Uniform(0.5, 1.5).lst(-1500.0) == math.inf
    assert Erlang(2, 1.0).lst(-1.0 + 1e-200) == math.inf


def test_parse_errors():
    for bad in ("exp", "exp:r=1", "exp:rate=abc", "nope:rate=1",
                "uniform:lo=1,hi=0.5", "exp:rate=1,extra=2",
                "erlang:shape=2.0,rate=1", "erlang:shape=inf,rate=1"):
        with pytest.raises(DistributionSpecError):
            parse_service_spec(bad)


@given(rate=st.floats(0.05, 50.0))
def test_exponential_lst_identity(rate):
    d = Exponential(rate)
    for s in (0.0, 0.3, 2.0):
        assert d.lst(s) == pytest.approx(rate / (rate + s), rel=1e-12)


@settings(max_examples=60)
@given(
    lo=st.floats(0.01, 5.0),
    width=st.floats(0.01, 5.0),
    s=st.floats(-3.0, 6.0),
)
@example(lo=1.0, width=0.5, s=5e-324)  # s * width underflows to 0
def test_uniform_lst_bounds(lo, width, s):
    d = Uniform(lo, lo + width)
    value = d.lst(s)
    # e^{-s X} is monotone in X, so the transform sits between the endpoints
    bounds = sorted((math.exp(-s * lo), math.exp(-s * (lo + width))))
    assert bounds[0] - 1e-12 <= value <= bounds[1] + 1e-12


@settings(max_examples=40)
@given(shape=st.integers(1, 8), rate=st.floats(0.1, 10.0), k=st.integers(1, 2))
def test_erlang_moments_are_sums_of_exponentials(shape, rate, k):
    # Erlang(shape) is a sum of iid exponentials; check k-th moment against
    # quadrature of the density instead of the closed form under test
    d = Erlang(shape, rate)
    def integrand(x):
        return x**k * rate**shape * x**(shape - 1) * math.exp(-rate * x) / math.factorial(shape - 1)
    val, err = quad(integrand, 0, np.inf)
    assert d.moment(k) == pytest.approx(val, rel=1e-8)
