"""Exact and asymptotic transient analysis of the M/M/1 queue.

All Bessel arithmetic is carried out on exponentially scaled values
e^{-x} I_n(x), so the e^{-(lam+mu)t} prefactor of the transient state
probabilities combines with the Bessel growth into a single factor
e^{-(sqrt(mu)-sqrt(lam))^2 t}.  That keeps every intermediate quantity
representable far beyond the t ~ 360 overflow point of unscaled I_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_PN_TAIL_CAP = 200_000
_PHI_TERM_CAP = 100_000


class SeriesTruncationError(RuntimeError):
    """A series could not be truncated within tolerance; carries the bound."""

    def __init__(self, message: str, achieved_bound: float):
        super().__init__(message)
        self.achieved_bound = achieved_bound


@dataclass(frozen=True)
class Mm1Model:
    """M/M/1 queue with Poisson arrivals and Exponential(service_rate) service."""

    arrival_rate: float
    service_rate: float

    def __post_init__(self):
        if self.arrival_rate <= 0 or self.service_rate <= 0:
            raise ValueError("arrival_rate and service_rate must be > 0")
        if self.rho >= 1:
            raise ValueError(
                f"unstable queue: rho = {self.rho:.6g} must be < 1")

    @property
    def rho(self) -> float:
        return self.arrival_rate / self.service_rate


def theoretical_rate(model: Mm1Model) -> float:
    """Exponential convergence rate (sqrt(mu) - sqrt(lam))^2."""
    return (math.sqrt(model.service_rate) - math.sqrt(model.arrival_rate)) ** 2


def _miller_start_order(x: float) -> int:
    return math.ceil(x + 40.0 * math.sqrt(x) + 40.0)


def bessel_i_scaled_array(n_max: int, x: float) -> np.ndarray:
    """Scaled modified Bessel values e^{-x} I_n(x) for n = 0 .. n_max."""
    return np.exp(log_bessel_i_scaled(n_max, x))


def log_bessel_i_scaled(n_max: int, x: float) -> np.ndarray:
    """log(e^{-x} I_n(x)) for n = 0 .. n_max.

    Backward (Miller) recurrence from a start order safely past the decay
    point of I_n(x) in n, carried on the ratios I_n / I_{n+1}, accumulated
    in the log domain and normalized through the generating identity at
    y = 1: the scaled values satisfy  I~_0 + 2 sum_{n>=1} I~_n = 1.  Stays
    accurate far past the point where the values themselves underflow.
    """
    if x < 0:
        raise ValueError(f"argument must be >= 0, got {x}")
    if n_max < 0:
        raise ValueError(f"order must be >= 0, got {n_max}")
    if x == 0.0:
        out = np.full(n_max + 1, -np.inf)
        out[0] = 0.0
        return out
    start = max(_miller_start_order(x), n_max + 20)
    q = np.empty(start + 1)
    q[start] = 2.0 * (start + 1) / x + x / (2.0 * (start + 2))
    for k in range(start - 1, -1, -1):
        q[k] = 2.0 * (k + 1) / x + 1.0 / q[k + 1]
    log_rel = np.concatenate([[0.0], np.cumsum(-np.log(q))])  # log(I_n / I_0)
    norm = 1.0 + 2.0 * float(np.exp(log_rel[1:]).sum())
    return (log_rel - math.log(norm))[: n_max + 1]


def _pn_terms(model: Mm1Model, t: float, n_max: int):
    """Scaled building blocks for P_n(t), n = 0 .. n_max.

    Returns (direct, tail) with
      direct[n] = e^{-(lam+mu)t} [ r^{-n} I_n(x) + r^{-n+1} I_{n+1}(x) ]
      tail[n]   = e^{-(lam+mu)t} sum_{k >= n+2} r^k I_k(x)
    where x = 2 sqrt(lam mu) t and r = sqrt(mu/lam).  Every product is
    assembled as exp(sum of logs), so huge r^k never meets a tiny scaled
    Bessel value head-on; each summand is <= 1 by the generating identity.
    """
    lam, mu = model.arrival_rate, model.service_rate
    x = 2.0 * math.sqrt(lam * mu) * t
    decay = theoretical_rate(model) * t  # (lam+mu)t - x
    log_r = 0.5 * math.log(mu / lam)

    margin = 0
    while True:
        n_arr = max(_miller_start_order(x), n_max + 2) + margin
        log_scaled = log_bessel_i_scaled(n_arr, x)
        k = np.arange(n_arr + 1)
        summand = np.exp(-decay + k * log_r + log_scaled)
        suffix = np.cumsum(summand[::-1])[::-1]
        # adequate truncation: the topmost summands must be negligible
        # against every suffix sum they feed (5-term guard)
        top = float(summand[-5:].sum())
        if top <= 1e-16 * max(float(suffix[0]), 1e-300):
            break
        if n_arr > _PN_TAIL_CAP:
            raise SeriesTruncationError(
                f"tail of the state-probability series not converged by "
                f"order {n_arr}", top)
        margin = max(2 * margin, n_arr // 2)

    n = np.arange(n_max + 1)
    direct = (np.exp(-decay - n * log_r + log_scaled[: n_max + 1])
              + np.exp(-decay - (n - 1) * log_r + log_scaled[1 : n_max + 2]))
    tail = np.zeros(n_max + 1)
    avail = min(n_max + 1, len(suffix) - 2)
    tail[:avail] = suffix[2 : avail + 2]
    return direct, tail


def pn_array(model: Mm1Model, t: float, n_max: int) -> np.ndarray:
    """P_n(t) for n = 0 .. n_max, starting from an empty system."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if n_max < 0:
        raise ValueError(f"order must be >= 0, got {n_max}")
    if t == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    rho = model.rho
    direct, tail = _pn_terms(model, t, n_max)
    n = np.arange(n_max + 1)
    with np.errstate(over="ignore"):
        geo = rho**n
    return direct + (1.0 - rho) * geo * tail


def _phi_truncation_order(model: Mm1Model, t: float) -> int:
    lam, rho = model.arrival_rate, model.rho
    bulk = lam * t + 10.0 * math.sqrt(lam * t + 1.0) + 20.0
    geometric = 30.0 / (-math.log(rho))
    return int(math.ceil(bulk + geometric)) + 20


def phi_exact(model: Mm1Model, t: float, paper_literal: bool = False) -> float:
    """Mean virtual waiting time at t from the transient state probabilities.

    Default mode sums P_k(t) k/mu over k >= 1 (the mean of the mixture law
    of the workload) and converges to the Pollaczek-Khinchine value.
    ``paper_literal`` additionally adds the P_0(t) term; the curve then
    approaches (1-rho) + rho/(mu(1-rho)), the constant of
    ``phi_asymptotic``.
    """
    value, p0 = _phi_and_p0(model, t)
    return value + p0 if paper_literal else value


def _phi_and_p0(model: Mm1Model, t: float) -> tuple[float, float]:
    """``phi_exact``'s default value and P_0(t), from one series evaluation;
    the paper-literal value is their sum."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return 0.0, 1.0
    mu, rho = model.service_rate, model.rho
    K = _phi_truncation_order(model, t)
    while True:
        if K > _PHI_TERM_CAP:
            raise SeriesTruncationError(
                f"phi series truncation index exceeded cap {_PHI_TERM_CAP}", K)
        probs = pn_array(model, t, K)
        # geometric tail bound: beyond K the probabilities sit below
        # M rho^k (1-rho); sum_{k>K} k rho^k has a closed form
        level = rho**K * (1.0 - rho)
        M = max(1.0, float(probs[K]) / level) if level > 0 else 1.0
        tail_bound = (M * (1.0 - rho) / mu * rho ** (K + 1)
                      * ((K + 1) * (1.0 - rho) + rho) / (1.0 - rho) ** 2)
        if tail_bound < 1e-10:
            break
        K *= 2
    k = np.arange(1, K + 1)
    return float(np.dot(probs[1:], k / mu)), float(probs[0])


def phi_asymptotic(model: Mm1Model, t: float) -> float:
    """The paper's large-t formula for the mean wait, as printed.

    Constant part (1-rho) + rho/(mu(1-rho)) plus a decaying term
    e^{-(sqrt(mu)-sqrt(lam))^2 t} / sqrt(4 pi sqrt(lam mu) t) times a fixed
    rational function of sqrt(rho).  The exact series confirms only the
    constant, which is the limit of ``phi_exact(..., paper_literal=True)``.
    The decaying term is not the true approach: the exact gap decays with a
    t^{-3/2} prefactor and the opposite sign.  At lam=0.5, mu=1 the printed
    term is +1.27e-3 at t=80 where the exact gap is -3.0e-5, and the ratio
    exact gap / printed term is -0.050, -0.036, -0.024, -0.014 at
    t = 20, 40, 80, 160 (see docs/decisions.md).
    """
    if t <= 0:
        raise ValueError(f"t must be > 0, got {t}")
    lam, mu, rho = model.arrival_rate, model.service_rate, model.rho
    u = math.sqrt(rho)
    constant = (1.0 - rho) + rho / (mu * (1.0 - rho))
    prefactor = (math.exp(-theoretical_rate(model) * t)
                 / math.sqrt(4.0 * math.pi * math.sqrt(lam * mu) * t))
    coefficient = ((1.0 + 3.0 * u + 4.0 * rho + 4.0 * rho * u
                    + 3.0 * rho**2 - rho**2 * u)
                   / (mu * (1.0 - u - rho**2 + rho**2 * u)))
    return constant + prefactor * coefficient


def phi_curve(model: Mm1Model, grid, paper_literal: bool = False):
    """phi_exact sampled on a TimeGrid, returned as a Curve."""
    from .renewal import Curve

    values = np.array([phi_exact(model, float(t), paper_literal)
                       for t in grid.times()])
    return Curve(grid, values)
