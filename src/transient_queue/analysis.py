"""Stationary values, decay-rate fitting, and cross-method comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mm1
from .busy_period import QueueModel
from .distributions import Exponential
from .renewal import Curve, TimeGrid, phi_via_renewal, renewal_function
from .simulate import McConfig, estimate_phi, first_cycle_study

PURE_EXPONENTIAL = "pure_exponential"
EXP_WITH_SQRT_T = "exp_with_sqrt_t"
EXP_WITH_T32_CORRECTED = "exp_with_t32_corrected"
_MODELS = (PURE_EXPONENTIAL, EXP_WITH_SQRT_T, EXP_WITH_T32_CORRECTED)

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
        return {
            "rate": self.rate,
            "intercept": self.intercept,
            "window": list(self.window),
            "r_squared": self.r_squared,
            "model": self.model,
            "n_points": self.n_points,
        }


def stationary_pk(model: QueueModel) -> float:
    """Stationary mean virtual waiting time lam * b2 / (2 (1 - rho))."""
    return (model.arrival_rate * model.service.moment(2)
            / (2.0 * (1.0 - model.rho)))


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
    y = np.log(np.abs(gap_fit))
    # in raw t, a 1/t column far from t ~ 1 falls under lstsq's rank cutoff
    unit = t_fit[-1]
    tau = t_fit / unit
    columns = [np.ones_like(tau), -tau]
    if model == EXP_WITH_SQRT_T:
        y = y + 0.5 * np.log(t_fit)
    elif model == EXP_WITH_T32_CORRECTED:
        y = y + 1.5 * np.log(t_fit)
        columns.append(1.0 / tau)
    design = np.column_stack(columns)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    intercept, rate = float(coef[0]), float(coef[1] / unit)
    fitted = design @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if not rate > 0:  # also catches a NaN rate
        raise UnfitError(
            f"fitted rate {rate:.3g} is not a decay (window {window})")
    return FitResult(rate=rate, intercept=intercept,
                     window=(float(t_lo), float(t_hi)),
                     r_squared=r_squared, model=model, n_points=len(t_fit))


def _default_fit_window(t_max: float) -> tuple:
    return (0.25 * t_max, 0.9 * t_max)


def compare_methods(model: QueueModel, cfg: McConfig) -> dict:
    """Run every applicable method on one grid and cross-compare.

    Methods: exact series (M/M/1 only), renewal-equation pipeline (q and
    the cycle CDF simulated on first cycles, then the convolution
    solution), and the direct Monte-Carlo mean-workload estimate.  The
    M/M/1 decay rate is fitted with ``exp_with_t32_corrected`` on
    [2/s*, 7/s*] of an exact curve, s* the closed-form rate; other laws fit
    ``pure_exponential`` to the simulated curve on (0.25, 0.9) t_max.
    """
    grid = cfg.grid
    t = grid.times()
    phi_inf = stationary_pk(model)

    is_mm1 = isinstance(model.service, Exponential)
    methods = ["simulation", "renewal"]
    exact = None
    if is_mm1:
        methods.insert(0, "exact_series")
        exact = mm1.phi_curve(model, grid)

    sim_curve = estimate_phi(model, cfg)
    study = first_cycle_study(model, cfg)
    renew = renewal_function(study.cycle_cdf)
    renewal_curve = phi_via_renewal(study.q, renew)

    report: dict = {
        "model": model.as_dict(),
        "mc": {"replications": cfg.replications, "base_seed": cfg.base_seed},
        "grid": {"step": grid.step, "n_points": grid.n_points},
        "methods": methods,
        "phi_stationary": phi_inf,
        "renewal_warnings": list(renew.warnings),
    }

    reference = exact if exact is not None else sim_curve
    live = t > 0
    se = np.where(sim_curve.stderr[live] > 0, sim_curve.stderr[live], np.inf)
    z = np.abs(sim_curve.values[live] - reference.values[live]) / se
    if exact is not None:
        report["max_z"] = float(z.max())
        report["frac_within_3stderr"] = float(np.mean(z <= 3.0))
    else:
        # no exact reference: compare the two MC-backed routes against
        # each other, with a small allowance for the renewal grid bias
        combined = np.sqrt(sim_curve.stderr**2
                           + np.nan_to_num(renewal_curve.stderr) ** 2)[live]
        diff = np.abs(renewal_curve.values[live] - sim_curve.values[live])
        allowance = 0.02 * np.maximum(np.abs(sim_curve.values[live]), 0.05)
        ok = diff <= 3.0 * combined + allowance
        report["frac_two_method_agree"] = float(np.mean(ok))
        report["max_z"] = float(np.max(diff / np.where(combined > 0,
                                                       combined, np.inf)))

    ref_vals = reference.values
    sel = ref_vals > 0.1
    # None (JSON null) when no reference point is large enough to measure
    report["max_rel_gap"] = None
    if np.any(sel):
        rel = np.abs(renewal_curve.values[sel] - ref_vals[sel]) / ref_vals[sel]
        report["max_rel_gap"] = float(rel.max())

    try:
        if is_mm1:
            # the gap's t^-3/2 (1 + a/t) form on [2, 7] in units of 1/s*, on
            # its own exact curve: the compare grid often ends before 7/s*
            rate_ref = mm1.theoretical_rate(model)
            window = (2.0 / rate_ref, 7.0 / rate_ref)
            fit_curve = mm1.phi_curve(
                model, TimeGrid(step=window[1] / 800, n_points=801))
            fit = fit_decay_rate(fit_curve, phi_inf, window,
                                 EXP_WITH_T32_CORRECTED)
            report["fit"] = fit.as_dict()
            report["fit"]["theoretical_rate"] = rate_ref
            report["fit"]["rel_err"] = abs(fit.rate - rate_ref) / rate_ref
        else:
            report["fit"] = fit_decay_rate(
                sim_curve, phi_inf, _default_fit_window(grid.horizon),
                PURE_EXPONENTIAL).as_dict()
    except (UnfitError, mm1.SeriesTruncationError) as exc:
        # near rho = 1, 7/s* is far out: the series' start order there
        # passes its cap from about rho = 0.9995 (by the start-order rule)
        report["fit"] = {"error": str(exc)}

    verdict = {}
    if exact is not None:
        verdict["mc_within_3stderr_95pct"] = report["frac_within_3stderr"] >= 0.95
        verdict["renewal_within_2pct"] = (
            None if report["max_rel_gap"] is None
            else report["max_rel_gap"] <= 0.02)
    else:
        verdict["two_method_agreement_95pct"] = (
            report["frac_two_method_agree"] >= 0.95)
    report["verdict"] = verdict

    report["curves"] = {
        "simulation": sim_curve,
        "renewal": renewal_curve,
    }
    if exact is not None:
        report["curves"]["exact_series"] = exact
    return report
