"""Stationary values, decay-rate fitting, and cross-method comparison."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import mm1
from .busy_period import QueueModel
from .distributions import Exponential
from .renewal import Curve, TimeGrid, phi_via_renewal, renewal_function
from .simulate import McConfig, estimate_phi, first_cycle_study

PURE_EXPONENTIAL = "pure_exponential"
EXP_WITH_SQRT_T = "exp_with_sqrt_t"
EXP_WITH_T32_CORRECTED = "exp_with_t32_corrected"
# each model's fixed power of t in the gap, and whether it fits an a/t column
_MODELS = {PURE_EXPONENTIAL: (0.0, False), EXP_WITH_SQRT_T: (0.5, False),
           EXP_WITH_T32_CORRECTED: (1.5, True)}

_MIN_FIT_POINTS = 10


class UnfitError(RuntimeError):
    """The requested window cannot support a decay-rate fit."""


@dataclass(frozen=True)
class FitResult:
    rate: float
    intercept: float
    window: tuple
    r_squared: float
    model: str
    n_points: int

    def as_dict(self) -> dict:
        return {**asdict(self), "window": list(self.window)}


def stationary_pk(model: QueueModel) -> float:
    """Stationary mean virtual waiting time lam * b2 / (2 (1 - rho)).  A
    value past double range, either way, raises ``ValueError``."""
    try:
        value = (model.arrival_rate * model.service.moment(2)
                 / (2.0 * (1.0 - model.rho)))
        if 0.0 < value < math.inf:
            return value
    except (OverflowError, ZeroDivisionError):  # a power past double range
        pass
    raise ValueError(f"the stationary mean at arrival rate "
                     f"{model.arrival_rate!r} with {model.service.spec_string()}"
                     f" is not a positive finite double")


def fit_decay_rate(curve: Curve, phi_inf: float, window: tuple,
                   model: str = EXP_WITH_SQRT_T) -> FitResult:
    """Least-squares decay rate of |curve - phi_inf| on the window.

    ``pure_exponential`` fits log-gap = c - r t; ``exp_with_sqrt_t`` adds a
    fixed -0.5 log t term to the model (a 1/sqrt(t) algebraic prefactor).
    ``exp_with_t32_corrected`` is the M/M/1 gap's form from empty,
    C t^{-3/2} e^{-r t} (1 + a/t): a fixed -1.5 log t term plus a free a/t
    column.  Points whose gap sits below 3 pointwise stderr are dropped as
    noise.  The fit runs in t / (largest fitted t), so the time unit scales
    the rate alone.
    """
    if model not in _MODELS:
        raise ValueError(f"unknown fit model {model!r}")
    if not math.isfinite(phi_inf):
        raise ValueError(f"phi_inf must be finite, got {phi_inf}")
    t_lo, t_hi = window
    if not t_lo < t_hi:
        raise ValueError(f"window must satisfy t_lo < t_hi, got {window}")
    t = curve.times()
    gap = curve.values - phi_inf
    mask = (t >= t_lo) & (t <= t_hi) & (t > 0) & (gap != 0.0)
    if curve.stderr is not None:
        mask &= np.abs(gap) > 3.0 * curve.stderr
    t_fit = t[mask]
    gap_fit = gap[mask]
    if len(t_fit) < _MIN_FIT_POINTS:
        raise UnfitError(
            f"only {len(t_fit)} usable points in window {window} "
            f"(need >= {_MIN_FIT_POINTS})")
    signs = np.sign(gap_fit)
    if np.any(signs != signs[0]):
        raise UnfitError(
            f"gap changes sign inside window {window}; curve oscillates "
            f"around phi_inf")
    power, corrected = _MODELS[model]
    y = np.log(np.abs(gap_fit)) + power * np.log(t_fit)
    # in raw t, a 1/t column far from t ~ 1 falls under lstsq's rank cutoff
    unit = t_fit[-1]
    tau = t_fit / unit
    columns = [np.ones_like(tau), -tau]
    if corrected:
        columns.append(1.0 / tau)
    design = np.column_stack(columns)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    intercept, rate = float(coef[0]), float(coef[1] / unit)
    ss_res = float(np.sum((y - design @ coef) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if not rate > 0:  # also catches a NaN rate
        raise UnfitError(
            f"fitted rate {rate:.3g} is not a decay (window {window})")
    return FitResult(rate=rate, intercept=intercept,
                     window=(float(t_lo), float(t_hi)),
                     r_squared=r_squared, model=model, n_points=len(t_fit))


def _max_rel_gap(curve: Curve, reference: Curve):
    """max |curve - reference| / reference where reference > 0.1, else None."""
    sel = reference.values > 0.1
    if not np.any(sel):
        return None
    ref = reference.values[sel]
    return float(np.max(np.abs(curve.values[sel] - ref) / ref))


def _mm1_fit(model: QueueModel, phi_inf: float) -> dict:
    """The gap's t^-3/2 (1 + a/t) form on [2/s*, 7/s*] of its own exact
    curve, s* the closed-form rate: the compare grid often ends before 7/s*."""
    rate_ref = mm1.theoretical_rate(model)
    window = (2.0 / rate_ref, 7.0 / rate_ref)
    try:
        curve = mm1.phi_curve(model, TimeGrid(window[1] / 800, 801))
        fit = fit_decay_rate(curve, phi_inf, window, EXP_WITH_T32_CORRECTED)
    except (UnfitError, mm1.SeriesTruncationError) as exc:
        # from about rho = 0.9995 the series passes its cap out at 7/s*
        return {"error": str(exc)}
    return {**fit.as_dict(), "theoretical_rate": rate_ref,
            "rel_err": abs(fit.rate - rate_ref) / rate_ref}


def _routes(model: QueueModel, cfg: McConfig, phi_inf: float, methods: list):
    """The two sampling routes, and the report keys every law shares."""
    sim = estimate_phi(model, cfg)
    study = first_cycle_study(model, cfg)
    renew = renewal_function(study.cycle_cdf)
    report = {
        "model": model.as_dict(), "methods": methods,
        "mc": {"replications": cfg.replications, "base_seed": cfg.base_seed},
        "grid": {"step": cfg.grid.step, "n_points": cfg.grid.n_points},
        "phi_stationary": phi_inf, "renewal_warnings": list(renew.warnings)}
    return report, sim, phi_via_renewal(study.q, renew)


def compare_methods(model: QueueModel, cfg: McConfig) -> dict:
    """Run the direct Monte-Carlo estimate and the renewal pipeline on one
    grid.  M/M/1 checks both against the exact series and fits its decay
    rate with ``_mm1_fit``; other laws check the two against each other and
    fit ``pure_exponential`` to the simulated curve on (0.25, 0.9) t_max."""
    phi_inf = stationary_pk(model)
    live = cfg.grid.times() > 0
    if isinstance(model.service, Exponential):
        exact = mm1.phi_curve(model, cfg.grid)
        report, sim, renewal = _routes(
            model, cfg, phi_inf, ["exact_series", "simulation", "renewal"])
        report["max_rel_gap"] = gap = _max_rel_gap(renewal, exact)
        se = sim.stderr[live]
        diff = np.abs(sim.values[live] - exact.values[live])
        z = diff / np.where(se > 0, se, np.inf)
        report["max_z"] = float(z.max())
        # a point with no spread agrees only where it hits the exact value
        within = np.where(se > 0, z <= 3.0, diff == 0.0)
        report["frac_within_3stderr"] = frac = float(np.mean(within))
        report["verdict"] = {
            "mc_within_3stderr_95pct": frac >= 0.95,
            "renewal_within_2pct": None if gap is None else gap <= 0.02}
        report["fit"] = _mm1_fit(model, phi_inf)
        report["curves"] = {"simulation": sim, "renewal": renewal,
                            "exact_series": exact}
    else:
        report, sim, renewal = _routes(
            model, cfg, phi_inf, ["simulation", "renewal"])
        report["max_rel_gap"] = _max_rel_gap(renewal, sim)
        # no exact reference: compare the two MC-backed routes against
        # each other, with a small allowance for the renewal grid bias
        combined = np.sqrt(sim.stderr**2 + renewal.stderr**2)[live]
        diff = np.abs(renewal.values[live] - sim.values[live])
        allowance = 0.02 * np.maximum(np.abs(sim.values[live]), 0.05)
        agree = float(np.mean(diff <= 3.0 * combined + allowance))
        report["frac_two_method_agree"] = agree
        report["max_z"] = float(np.max(diff / np.where(combined > 0,
                                                       combined, np.inf)))
        report["verdict"] = {"two_method_agreement_95pct": agree >= 0.95}
        window = (0.25 * cfg.grid.horizon, 0.9 * cfg.grid.horizon)
        try:
            report["fit"] = fit_decay_rate(sim, phi_inf, window,
                                           PURE_EXPONENTIAL).as_dict()
        except UnfitError as exc:
            report["fit"] = {"error": str(exc)}
        report["curves"] = {"simulation": sim, "renewal": renewal}
    return report
