import math

import numpy as np
import pytest
import scipy.special

from transient_queue import mm1
from transient_queue import (Deterministic, Exponential, Mm1Model,
                             QueueModel, SeriesTruncationError, TimeGrid,
                             bessel_i_scaled_array, phi_asymptotic,
                             phi_curve, phi_exact, pn_array, theoretical_rate)

from oracles import (bessel_series_scaled, birth_death_phi, birth_death_pn,
                     mm1_gaps_mp, mm1_series_mp, rbm_mean_ratio, skellam_pn)

MM1 = Mm1Model(0.5, 1.0)


# ------------------------------------------------------------------ bessel

def test_bessel_trivial_values():
    assert bessel_i_scaled_array(0, 0.0)[0] == 1.0
    assert bessel_i_scaled_array(3, 0.0)[3] == 0.0
    # e^{-1} * 1.26606587775...; frozen from the power-series oracle
    assert bessel_i_scaled_array(0, 1.0)[0] == pytest.approx(0.4657596075936404,
                                                            abs=1e-12)


@pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 30.0])
def test_bessel_against_series(x):
    arr = bessel_i_scaled_array(60, x)
    for n in range(61):
        assert arr[n] == pytest.approx(bessel_series_scaled(n, x), abs=1e-13)


@pytest.mark.parametrize("x", [0.3, 3.0, 80.0, 500.0])
def test_bessel_against_scipy(x):
    arr = bessel_i_scaled_array(50, x)
    ref = scipy.special.ive(np.arange(51), x)
    assert np.abs(arr - ref).max() < 1e-13


def test_bessel_normalization_identity():
    # I~_0 + 2 sum I~_n = 1 with the (1,2,2,...) weights
    for x in (0.5, 7.0, 120.0):
        arr = bessel_i_scaled_array(int(x + 40 * math.sqrt(x) + 50), x)
        assert arr[0] + 2 * arr[1:].sum() == pytest.approx(1.0, abs=1e-12)


def test_bessel_rows_of_a_batch_are_each_row_run_alone():
    # each column starts the recurrence at its own order, not at the
    # batch's highest one, and sums its normalization up to that order, so
    # batching changes no bit of any row; the last column stops well short
    # of its decay point, where the orders past it are far from negligible
    x = np.array([1e-3, 0.7, 3.0, 30.0, 500.0, 30.0])
    start = mm1._miller_start_order(x) + np.array([5, 0, 60, 0, 0, -60])
    rows = mm1._skellam_rows(x, 0.0, 1.0, start)
    for j, s in enumerate(start):
        alone = mm1._skellam_rows(x[j : j + 1], 0.0, 1.0, start[j : j + 1])[0]
        assert np.array_equal(rows[j, : s + 1], alone)


def test_bessel_input_validation():
    with pytest.raises(ValueError):
        bessel_i_scaled_array(10, -1.0)
    with pytest.raises(ValueError):
        bessel_i_scaled_array(-1, 1.0)


def test_generating_identity_at_sqrt_rho():
    # sum_n y^n I~_n + sum_n y^{-n} I~_n reproduces e^{(x/2)(y+1/y) - x}
    lam, mu = 0.5, 1.0
    y = math.sqrt(mu / lam)
    for t in (1.0, 5.0, 20.0):
        x = 2.0 * math.sqrt(lam * mu) * t
        n_hi = int(x + 40 * math.sqrt(x) + 60)
        arr = bessel_i_scaled_array(n_hi, x)
        n = np.arange(n_hi + 1)
        total = float(np.dot(y**n, arr) + np.dot(y ** (-n[1:]), arr[1:]))
        expected = math.exp((x / 2.0) * (y + 1.0 / y) - x)
        assert total == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------- pn

def test_pn_initial_condition():
    assert pn_array(MM1, 0.0, 0)[0] == 1.0
    assert pn_array(MM1, 0.0, 4)[4] == 0.0


def test_pn_against_ode_oracle():
    oracle = birth_death_pn(0.5, 1.0, 5.0)
    mine = pn_array(MM1, 5.0, 50)
    assert np.abs(mine - oracle[:51]).max() < 1e-8


def test_pn_long_time_limit():
    # stationary rho^n (1-rho), reached within the decay-term tolerance
    assert pn_array(MM1, 200.0, 1)[1] == pytest.approx(0.25, abs=1e-6)
    assert pn_array(MM1, 200.0, 0)[0] == pytest.approx(0.5, abs=1e-6)


def test_pn_normalization():
    for t in (0.1, 1.0, 5.0, 20.0, 100.0):
        x = 2.0 * math.sqrt(0.5) * t
        n_hi = int(math.ceil(x + 40.0 * math.sqrt(x) + 60.0))
        p = pn_array(MM1, t, n_hi)
        assert abs(p.sum() - 1.0) < 1e-10


def test_pn_in_unit_interval():
    for t in (0.5, 2.0, 10.0, 50.0):
        p = pn_array(MM1, t, 80)
        assert np.all(p >= 0.0)
        assert np.all(p <= 1.0)


def test_pn_other_loads_against_oracle():
    for lam, mu in ((0.2, 1.0), (0.9, 1.2)):
        model = Mm1Model(lam, mu)
        oracle = birth_death_pn(lam, mu, 4.0, n_states=250)
        mine = pn_array(model, 4.0, 40)
        assert np.abs(mine - oracle[:41]).max() < 1e-8


@pytest.mark.parametrize("lam, t, n_max", [(0.2, 0.5, 40), (0.5, 5.0, 80),
                                           (0.9, 20.0, 150)])
def test_pn_top_entries_keep_their_own_suffix_sums(lam, t, n_max):
    # the entries near n_max sit far past the summands' peak, so each
    # needs the cut a full margin past n_max + 2 to keep its suffix sum
    np.testing.assert_allclose(pn_array(Mm1Model(lam, 1.0), t, n_max),
                               skellam_pn(lam, 1.0, t, n_max),
                               rtol=1e-12, atol=0.0)


def test_pn_rejects_negative():
    with pytest.raises(ValueError):
        pn_array(MM1, 1.0, -1)
    with pytest.raises(ValueError):
        pn_array(MM1, -1.0, 0)


# --------------------------------------------------------------------- phi

def test_phi_exact_at_zero():
    assert phi_exact(MM1, 0.0) == 0.0


def test_phi_curve_at_zero_on_the_analytic_grid():
    # t = 0 shares the series' first batch with the smallest positive times;
    # its row (1, 0, 0, ...) gives phi = 0 and P_0 = 1 exactly
    grid = TimeGrid.covering(100.0, 0.2)
    assert phi_curve(MM1, grid).values[0] == 0.0
    assert phi_curve(MM1, grid, paper_literal=True).values[0] == 1.0


def test_phi_exact_stationary_limits():
    assert phi_exact(MM1, 200.0) == pytest.approx(1.0, abs=1e-6)
    assert phi_exact(MM1, 200.0, paper_literal=True) == pytest.approx(
        1.5, abs=1e-6)


def test_phi_gap_monotone_decay():
    ts = np.arange(5.0, 60.0, 2.5)
    gaps = np.abs([phi_exact(MM1, float(t)) - 1.0 for t in ts])
    assert np.all(np.diff(gaps) < 0)


@pytest.mark.parametrize("rho", [0.9, 0.95, 0.99, 0.999])
def test_phi_approaches_the_rbm_mean_in_heavy_traffic(rho):
    # on the time scale t = tau lam E S^2 / (1 - rho)^2, phi(t) / phi_inf
    # tends to the reflected Brownian motion's H_1(tau) as rho -> 1; at
    # these loads it sits below H_1, by at most 0.5 (1 - rho)
    model = Mm1Model(rho, 1.0)
    phi_inf = rho / (1.0 - rho)
    for tau in (0.05, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0):
        t = tau * rho * 2.0 / (1.0 - rho) ** 2
        err = phi_exact(model, t) / phi_inf - rbm_mean_ratio(tau)
        assert -0.5 * (1.0 - rho) <= err <= 0.0, (tau, err)


def test_phi_curve_matches_pointwise():
    grid = TimeGrid(0.5, 7)
    curve = phi_curve(MM1, grid)
    for i, t in enumerate(grid.times()):
        assert curve.values[i] == phi_exact(MM1, float(t))


def test_phi_curve_point_that_fills_a_batch_alone_matches_phi_exact():
    # the point at t = 3e4 has cut 17,142, so its 17,143 orders fill a
    # batch alone: its sums run down a lone column, as in phi_exact, while
    # t = 1e4 and 2e4 share a batch of two
    grid = TimeGrid(10000.0, 4)
    for literal in (False, True):
        curve = phi_curve(MM1, grid, paper_literal=literal)
        for i, t in enumerate(grid.times()):
            assert curve.values[i] == phi_exact(MM1, float(t), literal)


@pytest.mark.parametrize("rows", [2, 9, 200, 1000])
@pytest.mark.parametrize("cols", [1, 2, 3, 500])
def test_numpy_sums_the_rows_of_a_c_ordered_array_in_order(rows, cols):
    # the series' sums over orders rely on this: for two or more columns,
    # sum(axis=0) adds the rows one after another, as a running sum does,
    # also on the reversed view.  A lone column is summed pairwise, so the
    # series reads that one off a running sum
    rng = np.random.default_rng(rows * 1000 + cols)
    a = rng.random((rows, cols)) * 10.0 ** rng.integers(-20, 20, (rows, cols))
    if cols > 1:
        for view in (a, a[::-1]):
            assert np.array_equal(view.sum(axis=0),
                                  np.cumsum(view, axis=0)[-1])
    elif rows == 1000:
        # the documented exception: pairwise sums differ in the last bits
        assert not np.array_equal(a.sum(axis=0), np.cumsum(a, axis=0)[-1])


def _spy(monkeypatch, name):
    """Record the positional arguments of every call to mm1.<name>."""
    calls = []
    real = getattr(mm1, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mm1, name, spy)
    return calls


# a sweep of loads and time scales: lam/mu from 1e-4 to 0.99, mu = 0.2 and 7,
# 60 times from 1e-6/mu to 1e3/mu
SWEEP = [(Mm1Model(rho * mu, mu), np.geomspace(1e-6, 1e3, 60) / mu,
          f"sweep-rho{rho:g}-mu{mu:g}")
         for rho in (1e-4, 0.01, 0.5, 0.99) for mu in (0.2, 7.0)]


def _values(model, grid, literal=False):
    """phi_curve's values on a TimeGrid, or the same sums at an array of
    times."""
    if isinstance(grid, TimeGrid):
        return phi_curve(model, grid, paper_literal=literal).values
    value, p0 = mm1._phi_and_p0(model, grid)
    return value + p0 if literal else value


@pytest.mark.parametrize("model, grid, expect", [
    # t = 0, small and large t in one call: several batches of the series
    (MM1, TimeGrid(0.75, 281), "batches"),
    # a start order of 0 puts the cut below the summands' peak
    (Mm1Model(0.01, 1.0), TimeGrid(50.0, 21), "margin"),
    # heavy traffic, where the geometric factor rho^n barely decays
    (Mm1Model(0.999, 1.0), TimeGrid(30.0, 3), "heavy"),
    *[(model, times, "sweep") for model, times, _ in SWEEP],
], ids=["mixed", "margin", "heavy", *[name for *_, name in SWEEP]])
def test_phi_curve_matches_pointwise_across_batches(model, grid, expect,
                                                    monkeypatch):
    if expect == "margin":
        # no start order past the guard's floor: the peak of the summands
        # at (mu - lam) t lies beyond the cut, so the guard must raise
        # rather than return a truncated sum
        with monkeypatch.context() as patch:
            patch.setattr(mm1, "_miller_start_order",
                          lambda x, log_r=0.0, n_min=0:
                          np.zeros(np.shape(x), int))
            with pytest.raises(SeriesTruncationError) as caught:
                phi_curve(model, grid)
        assert caught.value.achieved_bound > 2e-17
    bessel_calls = _spy(monkeypatch, "_skellam_rows")
    values = _values(model, grid)
    xs = np.concatenate([x for x, *_ in bessel_calls])
    times = grid.times() if isinstance(grid, TimeGrid) else grid
    # one pass per point: each time gets exactly one row of the Bessel
    # recurrence, sized once by the start-order rule
    assert len(xs) == len(np.unique(xs)) == len(times)
    if expect == "batches":
        assert len(bessel_calls) > 1
    for literal in (False, True):
        values = _values(model, grid, literal)
        for i, t in enumerate(times):
            assert values[i] == phi_exact(model, float(t), literal)


@pytest.mark.parametrize("lam", [0.2, 0.5, 0.9, 0.999])
def test_phi_and_p0_are_the_sums_of_pn_array(lam):
    # the weighted Bessel sums against a plain dot product of the state
    # probabilities, cut at the first K with rho^K K / (1-rho)^2 < 1e-18,
    # so that the geometric tail sum_{k>K} k rho^k (1-rho) is negligible;
    # they add in another order, so the tolerance is K rounding steps
    model = Mm1Model(lam, 1.0)
    K = 1
    while lam**K * K / (1.0 - lam) ** 2 >= 1e-18:
        K += 1
    for t in (30.0, 60.0) if lam == 0.999 else (0.3, 7.0, 60.0):
        p = pn_array(model, t, K)
        value, p0 = mm1._phi_and_p0(model, np.array([t]))
        assert p0[0] == p[0]
        assert value[0] == pytest.approx(np.dot(np.arange(1, K + 1), p[1:]),
                                         rel=K * np.finfo(float).eps)


@pytest.mark.parametrize("lam", [0.01, 0.2, 0.5, 0.9, 0.95])
def test_phi_exact_against_ode_oracle(lam):
    # the mean of the birth-death chain integrated on 600 states checks the
    # series' truncation independently of the package's own code
    model = Mm1Model(lam, 1.0)
    for t in (0.5, 5.0, 40.0):
        oracle = birth_death_phi(lam, 1.0, t, n_states=600)
        assert abs(phi_exact(model, t) - oracle) <= 1e-10


@pytest.mark.parametrize("lam, t", [
    *[(lam, t) for lam in (0.01, 0.1, 0.5, 0.99) for t in (1.0, 20.0, 80.0)],
    (0.01, 300.0)])
def test_phi_and_p0_against_a_40_digit_series(lam, t):
    # each summand from mpmath's Bessel function at 40 digits; at small lam
    # the summands span hundreds of e-folds in k, so a summand assembled as
    # the exp of large logs that cancel errs by about 1e-14 here
    phi, p0 = mm1_series_mp(lam, 1.0, t)
    value, p = mm1._phi_and_p0(Mm1Model(lam, 1.0), np.array([t]))
    assert value[0] == pytest.approx(phi, rel=4e-15, abs=0.0)
    assert p[0] == pytest.approx(p0, rel=4e-15, abs=0.0)


@pytest.mark.parametrize("lam", [0.5, 0.9])
def test_phi_and_p0_gaps_against_the_branch_cut_integrals(lam):
    # the gaps to the stationary values from 40-digit quadrature, which
    # shares no step with the series; measured worst errors were 7.9e-16
    # phi_inf for phi's gap and 2.2e-16 for P_0's, so the bounds are
    # 2e-15 phi_inf and 1e-15
    rho = lam
    phi_inf = rho / (1.0 - rho)
    t = np.array([0.0, 0.5, 2.0, 10.0, 40.0, 100.0, 200.0, 400.0])
    value, p0 = mm1._phi_and_p0(Mm1Model(lam, 1.0), t)
    for i, ti in enumerate(t):
        phi_gap, p0_gap = mm1_gaps_mp(lam, 1.0, ti)
        assert abs((phi_inf - value[i]) - phi_gap) <= 2e-15 * phi_inf, ti
        assert abs((p0[i] - (1.0 - rho)) - p0_gap) <= 1e-15, ti


def test_phi_truncation_cap():
    # at t = 3e5 the series needs order 156,729, under the cap, and the gap
    # to the stationary value is e^{-25,736}: phi is the
    # Pollaczek-Khinchine value rho / (mu (1 - rho)) = 1
    assert phi_exact(MM1, 3.0e5) == pytest.approx(1.0, rel=1e-9)
    # at t = 4e5 it needs order 207,766, past the cap of 200,000
    with pytest.raises(SeriesTruncationError, match="cap"):
        phi_exact(MM1, 4.0e5)
    with pytest.raises(SeriesTruncationError):
        phi_curve(MM1, TimeGrid(1.0e5, 5))


def test_series_where_rho_k_underflows():
    # at lam = 0.01, t = 200 the cut is order 361, and the weights rho^k of
    # the summands underflow past k ~ 154; the gap to the stationary law is
    # e^{-162}, so phi and P_n are the Pollaczek-Khinchine value and
    # (1 - rho) rho^n
    model = Mm1Model(0.01, 1.0)
    rho = model.rho
    assert phi_exact(model, 200.0) == pytest.approx(rho / (1.0 - rho),
                                                    rel=1e-12)
    n = np.arange(6)
    assert np.allclose(pn_array(model, 200.0, 5), (1.0 - rho) * rho**n,
                       rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("call", [
    lambda: pn_array(MM1, 1.0, 300_000),
    lambda: bessel_i_scaled_array(300_000, 1.0),
    lambda: bessel_i_scaled_array(0, 1.0e9),   # the start order alone
    lambda: pn_array(MM1, 0.0, 300_000),
    lambda: bessel_i_scaled_array(300_000, 0.0),
], ids=["pn_array", "bessel", "bessel-large-x", "pn_array-t0", "bessel-x0"])
def test_requested_orders_past_the_cap_raise(call):
    # the orders the caller asks for count against the cap, not only the
    # start-order rule, at t = 0 and x = 0 as elsewhere, and the call raises
    # before any row is built
    with pytest.raises(SeriesTruncationError, match="cap") as caught:
        call()
    assert caught.value.achieved_bound == math.inf


def test_cap_boundary_on_requested_orders(monkeypatch):
    # at t = 1, pn_array's cut is n_max + 2 plus the start-order margin
    # ceil(10 sqrt(1.5) + 20) = 33, and the Bessel start is n_max + 20 once
    # that passes the rule; an order equal to the cap still runs
    monkeypatch.setattr(mm1, "_PN_TAIL_CAP", 100)
    assert len(pn_array(MM1, 1.0, 65)) == 66
    assert len(bessel_i_scaled_array(80, 1.0)) == 81
    with pytest.raises(SeriesTruncationError, match="cap"):
        pn_array(MM1, 1.0, 66)
    with pytest.raises(SeriesTruncationError, match="cap"):
        bessel_i_scaled_array(81, 1.0)


# -------------------------------------------------------------- asymptotic

def test_asymptotic_coefficient_value():
    # direct arithmetic on the printed rational function at rho = 1/2
    u = math.sqrt(0.5)
    numerator = 1 + 3 * u + 4 * 0.5 + 4 * 0.5 * u + 3 * 0.25 - 0.25 * u
    denominator = 1.0 * (1 - u - 0.25 + 0.25 * u)
    assert numerator == pytest.approx(7.10876, abs=5e-6)
    assert denominator == pytest.approx(0.21967, abs=5e-6)
    coefficient = numerator / denominator
    assert coefficient == pytest.approx(32.36, abs=0.01)
    # the implementation carries exactly this coefficient
    t = 10.0
    prefactor = (math.exp(-theoretical_rate(MM1) * t)
                 / math.sqrt(4 * math.pi * math.sqrt(0.5) * t))
    assert phi_asymptotic(MM1, t) == pytest.approx(1.5 + prefactor * coefficient,
                                                   rel=1e-12)


def test_asymptotic_long_time_limit():
    assert phi_asymptotic(MM1, 1e6) == pytest.approx(1.5, abs=1e-12)


def test_asymptotic_requires_positive_t():
    with pytest.raises(ValueError):
        phi_asymptotic(MM1, 0.0)


def test_decay_exponent_value():
    assert theoretical_rate(MM1) == pytest.approx(0.08578644, abs=1e-8)
    assert theoretical_rate(Mm1Model(0.25, 1.0)) == pytest.approx(0.25)
    # critical slowing: rate vanishes as rho -> 1
    assert theoretical_rate(Mm1Model(0.999, 1.0)) < 1e-6


def test_asymptotic_approaches_exact_literal():
    # both tend to the same constant, so the difference dies out; the
    # printed 1/sqrt(t) coefficient overstates the true remainder, which
    # carries an extra t^{-1} factor, so no ratio check is made here
    diffs = [abs(phi_asymptotic(MM1, t) - phi_exact(MM1, t, paper_literal=True))
             for t in (25.0, 50.0, 100.0, 200.0)]
    assert all(d1 > d2 for d1, d2 in zip(diffs, diffs[1:]))
    assert diffs[-1] < 1e-7


def test_model_validation():
    with pytest.raises(ValueError):
        Mm1Model(1.0, 1.0)
    with pytest.raises(ValueError):
        Mm1Model(-0.5, 1.0)
    # NaN passes every comparison, inf makes rho 0 or NaN
    for rates in ((float("nan"), 1.0), (0.5, float("nan")), (0.5, float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            Mm1Model(*rates)
    # 49 * (1/49) rounds below 1 where 49 / 49 is 1; the series, which reads
    # rho as lam / mu, must refuse it
    with pytest.raises(ValueError, match="unstable"):
        phi_curve(Mm1Model(49.0, 49.0), TimeGrid(0.5, 3))


def test_every_accepted_mm1_model_has_lam_below_mu():
    # the model's one stability rule reads lam * (1/mu); the series read
    # lam / mu, which must then be < 1 too.  The pairs sit within a few
    # ulps of lam = mu, where the two can round to either side of 1
    rng = np.random.default_rng(4242)
    mus = 10.0 ** rng.uniform(-3.0, 3.0, 100_000)
    lams = mus * (1.0 - rng.integers(-2, 9, mus.size) * np.finfo(float).eps)
    accepted = 0
    for lam, mu in zip(lams.tolist(), mus.tolist()):
        try:
            model = Mm1Model(lam, mu)
        except ValueError:
            continue
        accepted += 1
        assert mm1._rates(model)[2] < 1.0, (lam, mu)
    assert accepted > 10_000


def test_mm1_model_is_the_exponential_queue_model():
    assert Mm1Model(0.5, 2.0) == QueueModel(0.5, Exponential(2.0))


@pytest.mark.parametrize("call", [
    lambda m: phi_curve(m, TimeGrid(0.5, 3)),
    lambda m: pn_array(m, 0.0, 3),
    lambda m: phi_asymptotic(m, 1.0),
    lambda m: phi_exact(m, 0.0),
    theoretical_rate,
], ids=["phi_curve", "pn_array", "phi_asymptotic", "phi_exact",
        "theoretical_rate"])
def test_series_rejects_other_service_laws(call):
    # t = 0 included: the answer there is known without the series
    with pytest.raises(ValueError, match="det:value=1"):
        call(QueueModel(0.5, Deterministic(1.0)))
