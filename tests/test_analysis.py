import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transient_queue import mm1
from transient_queue import (EXP_WITH_SQRT_T, EXP_WITH_T32_CORRECTED,
                             PURE_EXPONENTIAL, Curve,
                             Deterministic, Exponential, McConfig, Mm1Model,
                             QueueModel, TimeGrid, UnfitError, compare_methods,
                             fit_decay_rate, phi_curve, stationary_pk,
                             theoretical_rate)

MM1 = QueueModel(0.5, Exponential(1.0))


def grid(step, t_max):
    return TimeGrid(step=step, n_points=int(round(t_max / step)) + 1)


def synthetic_curve(rate, t_max=30.0, step=0.1, phi_inf=2.0, scale=1.0,
                    sqrt_factor=False):
    g = grid(step, t_max)
    t = g.times()
    with np.errstate(divide="ignore"):
        vals = phi_inf + scale * np.exp(-rate * t)
        if sqrt_factor:
            vals = phi_inf + scale * np.exp(-rate * t) / np.sqrt(np.maximum(t, step))
    return Curve(g, vals)


# -------------------------------------------------------------- stationary

def test_stationary_pk_examples():
    assert stationary_pk(MM1) == pytest.approx(1.0)
    assert stationary_pk(QueueModel(0.5, Deterministic(1.0))) == pytest.approx(0.5)
    assert stationary_pk(QueueModel(1e-6, Exponential(1.0))) < 1e-5


def test_stationary_pk_equals_mm1_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(100):
        mu = rng.uniform(0.2, 5.0)
        rho = rng.uniform(0.01, 0.95)
        lam = rho * mu
        model = QueueModel(lam, Exponential(mu))
        reference = rho / (mu * (1 - rho))
        assert abs(stationary_pk(model) - reference) < 1e-14 * max(reference, 1.0)


@pytest.mark.parametrize("model", [
    QueueModel(1e-300, Deterministic(1e200)),   # value^2 raises
    QueueModel(1e-300, Exponential(1e-160)),    # 2 / rate^2 is inf
    QueueModel(1e-300, Exponential(1e-170)),    # rate^2 is 0
    QueueModel(1e-300, Deterministic(1e-15)),   # lam b2 underflows to 0
], ids=["b2-overflow", "b2-inf", "rate-squared-underflow",
        "product-underflow"])
def test_stationary_pk_past_double_range_raises(model):
    with pytest.raises(ValueError, match="arrival rate 1e-300 with"):
        stationary_pk(model)


# --------------------------------------------------------------------- fit

def test_fit_recovers_exact_exponential():
    curve = synthetic_curve(0.3)
    fit = fit_decay_rate(curve, 2.0, (1.0, 25.0), PURE_EXPONENTIAL)
    assert fit.rate == pytest.approx(0.3, abs=1e-6)
    assert fit.r_squared > 1 - 1e-12
    assert fit.model == PURE_EXPONENTIAL


def test_fit_recovers_sqrt_model():
    curve = synthetic_curve(0.25, sqrt_factor=True)
    fit = fit_decay_rate(curve, 2.0, (1.0, 25.0), EXP_WITH_SQRT_T)
    assert fit.rate == pytest.approx(0.25, abs=1e-6)


def test_fit_sqrt_bias_demonstration():
    # a 1/sqrt(t) prefactor fitted with the pure model: rates differ by
    # window but both stay above 90% of the true exponent
    curve = synthetic_curve(0.3, t_max=90.0, sqrt_factor=True)
    early = fit_decay_rate(curve, 2.0, (10.0, 20.0), PURE_EXPONENTIAL)
    late = fit_decay_rate(curve, 2.0, (40.0, 80.0), PURE_EXPONENTIAL)
    assert abs(early.rate - late.rate) > 1e-4
    assert early.rate > 0.3 * 0.9
    assert late.rate > 0.3 * 0.9
    assert early.rate > late.rate  # bias shrinks as the window moves right


def test_fit_scale_equivariance():
    base = synthetic_curve(0.4, scale=1.0)
    scaled = synthetic_curve(0.4, scale=37.5)
    f1 = fit_decay_rate(base, 2.0, (2.0, 28.0), PURE_EXPONENTIAL)
    f2 = fit_decay_rate(scaled, 2.0, (2.0, 28.0), PURE_EXPONENTIAL)
    assert f1.rate == pytest.approx(f2.rate, abs=1e-9)
    assert f2.intercept - f1.intercept == pytest.approx(math.log(37.5), abs=1e-9)
    f3 = fit_decay_rate(base, 2.0, (2.0, 28.0), EXP_WITH_SQRT_T)
    f4 = fit_decay_rate(scaled, 2.0, (2.0, 28.0), EXP_WITH_SQRT_T)
    assert f3.rate == pytest.approx(f4.rate, abs=1e-9)


def test_fit_window_monotone_bias_on_exact_curve():
    model = Mm1Model(0.5, 1.0)
    g = grid(0.5, 160.0)
    curve = phi_curve(model, g)
    theta = theoretical_rate(model)
    rates = []
    for window in ((20.0, 80.0), (40.0, 100.0), (60.0, 150.0)):
        fit = fit_decay_rate(curve, 1.0, window, EXP_WITH_SQRT_T)
        rates.append(fit.rate)
    biases = [abs(r - theta) for r in rates]
    assert biases[0] > biases[1] > biases[2]
    assert all(r > theta for r in rates)


def test_fit_recovers_t32_corrected_model():
    g = grid(0.1, 80.0)
    t = g.times()
    values = np.full_like(t, 2.0)
    live = t > 0
    tl = t[live]
    values[live] += 3.0 * tl**-1.5 * np.exp(-0.12 * tl + 2.0 / tl)
    curve = Curve(g, values)
    fit = fit_decay_rate(curve, 2.0, (5.0, 60.0), EXP_WITH_T32_CORRECTED)
    assert fit.rate == pytest.approx(0.12, abs=1e-6)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-6)
    assert fit.model == EXP_WITH_T32_CORRECTED


def t32_gap_curve(g, rate, a):
    """C t^{-3/2} e^{-rate t + a/t} with C = 1, 0 at t = 0: exactly
    log-linear in the columns of the exp_with_t32_corrected fit."""
    t = g.times()
    values = np.zeros_like(t)
    live = t > 0
    values[live] = t[live] ** -1.5 * np.exp(-rate * t[live] + a / t[live])
    return Curve(g, values)


@pytest.mark.parametrize("t_hi", [7.0, 7e3, 7e5, 7e6, 7e7])
def test_fit_t32_corrected_in_any_time_unit(t_hi):
    # the window [2/r, 7/r] with a = 2/r: in raw t the 1/t column is about
    # t_hi^-2 of the others, and from t_hi ~ 7e6 least squares dropped it
    # as rank deficient, erring by +12%; in window units it is the same fit
    rate = 7.0 / t_hi
    g = TimeGrid(step=t_hi / 800, n_points=801)
    t_lo = 2.0 / rate
    fit = fit_decay_rate(t32_gap_curve(g, rate, t_lo), 0.0, (t_lo, t_hi),
                         EXP_WITH_T32_CORRECTED)
    assert fit.rate == pytest.approx(rate, rel=1e-9)


@pytest.mark.parametrize("model", [PURE_EXPONENTIAL, EXP_WITH_SQRT_T,
                                   EXP_WITH_T32_CORRECTED])
def test_fit_rate_scales_with_the_time_unit(model):
    # the same values on a time axis scaled by 10^k: the rate scales by
    # 10^-k, to the rounding of the scaled grid
    values = t32_gap_curve(TimeGrid(7.0 / 800, 801), 1.0, 2.0).values
    rates = {}
    for k in (-3, 0, 3, 7):
        g = TimeGrid(step=10.0**k * 7.0 / 800, n_points=801)
        window = (2.0 * 10.0**k, 7.07 * 10.0**k)
        fit = fit_decay_rate(Curve(g, values), 0.0, window, model)
        assert fit.n_points == 572  # t = 229 .. 800 steps
        rates[k] = fit.rate * 10.0**k
    for k in (-3, 3, 7):
        assert rates[k] == pytest.approx(rates[0], rel=1e-12)


def test_fit_t32_corrected_approaches_theta_from_below():
    # the M/M/1 gap is C t^{-3/2} e^{-theta t} (1 + a/t + ...); with the
    # first correction fitted, the leftover higher orders bias the rate low
    # by an amount that shrinks as the window moves out
    model = Mm1Model(0.5, 1.0)
    curve = phi_curve(model, grid(0.5, 160.0))
    theta = theoretical_rate(model)
    rates = [fit_decay_rate(curve, 1.0, window, EXP_WITH_T32_CORRECTED).rate
             for window in ((20.0, 80.0), (40.0, 100.0), (60.0, 150.0))]
    biases = [abs(r - theta) for r in rates]
    assert biases[0] > biases[1] > biases[2]
    assert all(r < theta for r in rates)


def test_fit_window_20_80_frozen_value():
    # the gap carries e^{-theta t} with a t^{-3/2} algebraic factor, so the
    # half-log-correction fit lands near 0.0986 on this window (measured;
    # see the window-monotonicity test for the approach to theta)
    model = Mm1Model(0.5, 1.0)
    curve = phi_curve(model, grid(0.1, 80.0))
    fit = fit_decay_rate(curve, 1.0, (20.0, 80.0), EXP_WITH_SQRT_T)
    assert fit.rate == pytest.approx(0.09861, abs=2e-4)


def test_fit_rejects_few_points():
    curve = synthetic_curve(0.3, step=1.0)
    with pytest.raises(UnfitError, match="usable points"):
        fit_decay_rate(curve, 2.0, (1.0, 5.0), PURE_EXPONENTIAL)


def test_fit_rejects_oscillation():
    g = grid(0.1, 20.0)
    t = g.times()
    curve = Curve(g, 2.0 + np.exp(-0.2 * t) * np.cos(2.0 * t))
    with pytest.raises(UnfitError, match="sign"):
        fit_decay_rate(curve, 2.0, (1.0, 18.0), PURE_EXPONENTIAL)


def test_fit_rejects_growth():
    g = grid(0.1, 20.0)
    curve = Curve(g, 2.0 + np.exp(0.05 * g.times()))
    with pytest.raises(UnfitError, match="decay"):
        fit_decay_rate(curve, 2.0, (1.0, 18.0), PURE_EXPONENTIAL)


def test_fit_respects_noise_floor():
    g = grid(0.1, 30.0)
    t = g.times()
    vals = 2.0 + np.exp(-0.3 * t)
    stderr = np.full(g.n_points, 1e-3)
    curve = Curve(g, vals, stderr=stderr)
    fit = fit_decay_rate(curve, 2.0, (1.0, 29.0), PURE_EXPONENTIAL)
    # points where e^{-0.3 t} <= 3e-3 (t >= ~19.4) must be excluded
    assert fit.n_points == int(np.sum((t >= 1.0) & (t <= 29.0)
                                      & (np.exp(-0.3 * t) > 3e-3)))
    assert fit.rate == pytest.approx(0.3, abs=1e-6)


@pytest.mark.parametrize("phi_inf", [math.inf, -math.inf, math.nan])
def test_fit_rejects_non_finite_phi_inf(phi_inf):
    with pytest.raises(ValueError, match="phi_inf"):
        fit_decay_rate(synthetic_curve(0.3), phi_inf, (1.0, 18.0),
                       PURE_EXPONENTIAL)


def test_fit_rejects_nan_rate():
    # an infinite value in the window makes the least-squares rate NaN,
    # which "rate <= 0" let through
    g = grid(0.1, 20.0)
    vals = 2.0 + np.exp(-0.3 * g.times())
    vals[50] = math.inf
    with np.errstate(invalid="ignore"), pytest.raises(UnfitError, match="decay"):
        fit_decay_rate(Curve(g, vals), 2.0, (1.0, 18.0), PURE_EXPONENTIAL)


def test_fit_window_validation():
    curve = synthetic_curve(0.3)
    with pytest.raises(ValueError):
        fit_decay_rate(curve, 2.0, (5.0, 5.0), PURE_EXPONENTIAL)
    with pytest.raises(ValueError):
        fit_decay_rate(curve, 2.0, (1.0, 10.0), "bogus")


@settings(max_examples=30, deadline=None)
@given(rate=st.floats(0.05, 1.5), scale=st.floats(0.1, 10.0))
def test_fit_exact_recovery_property(rate, scale):
    curve = synthetic_curve(rate, t_max=40.0, scale=scale)
    fit = fit_decay_rate(curve, 2.0, (0.5, 20.0 / max(rate, 0.3)),
                         PURE_EXPONENTIAL)
    assert fit.rate == pytest.approx(rate, rel=1e-6)


# ----------------------------------------------------------------- compare

@pytest.fixture(scope="module")
def mm1_report():
    cfg = McConfig(25_000, 5, grid(0.1, 30.0))
    return compare_methods(MM1, cfg)


def test_compare_methods_mm1(mm1_report):
    report = mm1_report
    assert report["methods"] == ["exact_series", "simulation", "renewal"]
    assert report["frac_within_3stderr"] >= 0.95
    assert report["max_rel_gap"] <= 0.05  # 25k replications; acceptance runs 1e6
    assert report["verdict"]["mc_within_3stderr_95pct"]
    assert set(report["curves"]) == {"exact_series", "simulation", "renewal"}
    assert report["fit"]["theoretical_rate"] == pytest.approx(0.0857864, abs=1e-6)
    assert report["fit"]["rel_err"] <= 0.05
    assert report["renewal_warnings"] == []


def test_compare_methods_reports_coarse_grid():
    report = compare_methods(MM1, McConfig(2_000, 3, grid(0.5, 10.0)))
    assert report["renewal_warnings"] == ["coarse_grid"]


def test_compare_methods_zero_stderr_is_no_agreement():
    # with 2 replications both paths are empty at some live points where
    # the exact phi > 0: their standard error is 0 and they miss the exact
    # value, so they count against the verdict, not for it
    report = compare_methods(MM1, McConfig(2, 11, grid(0.05, 10.0)))
    sim = report["curves"]["simulation"]
    exact = report["curves"]["exact_series"]
    live = sim.grid.times() > 0
    se, diff = sim.stderr[live], np.abs(sim.values - exact.values)[live]
    assert np.any((se == 0) & (diff > 0))
    assert report["frac_within_3stderr"] == 188 / 200
    assert not report["verdict"]["mc_within_3stderr_95pct"]
    assert report["max_z"] == np.max(diff[se > 0] / se[se > 0])


def test_compare_methods_reports_a_fit_the_series_cannot_reach(monkeypatch):
    # the compare grid (t <= 10) needs series orders up to about 64, under
    # the cap; the fit's own curve out to 7/s* = 82 needs 151 past t = 64.1
    monkeypatch.setattr(mm1, "_PN_TAIL_CAP", 150)
    report = compare_methods(MM1, McConfig(2_000, 3, grid(0.5, 10.0)))
    assert "cap" in report["fit"]["error"]
    assert report["methods"] == ["exact_series", "simulation", "renewal"]


def test_compare_methods_fits_mm1_in_heavy_traffic():
    # at rho = 0.985 the fit's curve runs to 7/s* = 1.24e5, where the
    # series needs about 6,800 orders, far under its cap
    report = compare_methods(QueueModel(0.985, Exponential(1.0)),
                             McConfig(2_000, 3, grid(0.5, 10.0)))
    assert "error" not in report["fit"]
    assert report["fit"]["rel_err"] <= 0.05


def test_compare_methods_md1():
    cfg = McConfig(20_000, 9, grid(0.1, 20.0))
    report = compare_methods(QueueModel(0.5, Deterministic(1.0)), cfg)
    assert report["methods"] == ["simulation", "renewal"]
    assert report["frac_two_method_agree"] >= 0.95
    assert report["verdict"]["two_method_agreement_95pct"]


COMMON_KEYS = {"model", "mc", "grid", "methods", "phi_stationary",
               "renewal_warnings", "max_rel_gap", "max_z", "verdict", "fit",
               "curves"}
MM1_SHAPE = (COMMON_KEYS | {"frac_within_3stderr"},
             {"mc_within_3stderr_95pct", "renewal_within_2pct"},
             ["exact_series", "simulation", "renewal"],
             ["simulation", "renewal", "exact_series"])
FIT_KEYS = {"rate", "intercept", "window", "r_squared", "model", "n_points"}


@pytest.mark.parametrize("model, shape, fit_keys", [
    (MM1, MM1_SHAPE, FIT_KEYS | {"theoretical_rate", "rel_err"}),
    (QueueModel(0.5, Deterministic(1.0)),
     (COMMON_KEYS | {"frac_two_method_agree"}, {"two_method_agreement_95pct"},
      ["simulation", "renewal"], ["simulation", "renewal"]),
     {"error"}),  # 7 points in (0.25, 0.9) t_max: too few to fit
    (QueueModel(0.9996, Exponential(1.0)), MM1_SHAPE, {"error"}),
], ids=["mm1", "md1", "mm1-past-the-series-cap"])
def test_compare_methods_report_shape(model, shape, fit_keys):
    keys, verdict, methods, curves = shape
    report = compare_methods(model, McConfig(200, 3, TimeGrid(0.5, 11)))
    assert set(report) == keys
    assert set(report["verdict"]) == verdict
    assert report["methods"] == methods
    assert list(report["curves"]) == curves
    assert set(report["fit"]) == fit_keys
