"""Busy-period and regeneration-cycle analysis for the stable M/G/1 queue.

The busy-period transform is the smallest root of a convex function built
from the service transform; everything here works on the real axis only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .distributions import ServiceDistribution

# lam * b1 is within a few ulps of the load; below this bound M/M/1 has
# lam / mu < 1, and above it the busy mean exceeds 10^15 services
_MAX_RHO = 1.0 - 4.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class QueueModel:
    """Poisson arrivals at ``arrival_rate`` into a single FIFO server."""

    arrival_rate: float
    service: ServiceDistribution

    def __post_init__(self):
        if not (math.isfinite(self.arrival_rate) and self.arrival_rate > 0):
            raise ValueError(
                f"arrival rate must be finite and > 0, got {self.arrival_rate}")
        if self.rho == 0.0:
            raise ValueError(f"load {self.arrival_rate!r} * mean service "
                             f"{self.service.moment(1)!r} underflows to 0")
        if self.rho >= _MAX_RHO:
            raise ValueError(f"unstable queue: rho = arrival_rate * "
                             f"mean_service = {self.rho!r} must be < 1 - 4 eps")

    @property
    def rho(self) -> float:
        return self.arrival_rate * self.service.moment(1)

    def as_dict(self) -> dict:
        return {
            "arrival_rate": self.arrival_rate,
            "service": self.service.spec_string(),
            "rho": self.rho,
        }


@dataclass(frozen=True)
class CycleMoments:
    """First two moments of one regeneration cycle (idle period + busy period)."""

    busy_mean: float
    cycle_mean: float
    cycle_second: float

    def __post_init__(self):
        if self.cycle_second < self.cycle_mean**2:
            raise ValueError(
                f"cycle_second {self.cycle_second:.6g} violates Jensen bound "
                f"{self.cycle_mean**2:.6g}"
            )


def busy_lst(model: QueueModel, s: float) -> float:
    """Busy-period transform E exp(-s * busy) for s >= 0.

    The smallest root of h(g) = beta(s + lam (1 - g)) - g, which is convex
    (beta is a Laplace-Stieltjes transform) and positive at 0: a chord
    through two points left of the root meets 0 left of it too, so secant
    steps from 0 and beta(s + lam) climb to it with no bracket or derivative,
    until h(b) stops being positive and falling; a step lost to b's rounding
    repeats h(b), which ends the loop too.  Near s = 0 rounding can pass
    B(0) = 1 by about eps / (1 - rho): clamped at 1.
    """
    if not s >= 0:
        raise ValueError(f"busy_lst requires s >= 0, got {s}; "
                         "busy_cramer_abscissa(model) gives how far below 0 "
                         "the transform stays finite")
    lam, lst = model.arrival_rate, model.service.lst

    def h(g):
        return lst(s + lam * (1.0 - g)) - g

    a, b = 0.0, lst(s + lam)
    h_a, h_b = b, h(b)  # h(0) = b
    while 0.0 < h_b < h_a:
        step = h_b * (b - a) / (h_a - h_b)
        a, h_a = b, h_b
        b += step
        h_b = h(b)
    return min(b, 1.0)


def busy_mean(model: QueueModel) -> float:
    """Mean busy period b1 / (1 - rho)."""
    return model.service.moment(1) / (1.0 - model.rho)


def cycle_moments(model: QueueModel) -> CycleMoments:
    """Exact first two moments of the regeneration cycle.

    The cycle is an independent sum of an idle period Exp(lam) and a busy
    period, whose second moment is the standard M/G/1 identity
    b2 / (1 - rho)^3.  A moment past double range raises ``ValueError``.
    """
    lam = model.arrival_rate
    try:
        tau_mean = busy_mean(model)
        tau_second = model.service.moment(2) / (1.0 - model.rho) ** 3
        cycle_second = 2.0 / lam**2 + 2.0 * (1.0 / lam) * tau_mean + tau_second
        moments = (tau_mean, 1.0 / lam + tau_mean, cycle_second)
        if all(0.0 < m < math.inf for m in moments):
            return CycleMoments(*moments)
    except (OverflowError, ZeroDivisionError):  # a power past double range
        pass
    raise ValueError(f"the cycle moments at arrival rate {lam!r} with "
                     f"{model.service.spec_string()} are not finite doubles")


def busy_cramer_abscissa(model: QueueModel, tol: float = 1e-4) -> float:
    """Cramer abscissa s* of the busy period: E exp(s * busy) is finite below s*.

    The busy-period transform at -s solves g = beta(z) with
    z = -s + lam * (1 - g), so s = lam * (1 - beta(z)) - z.  The largest s
    with a real root is the maximum of that concave function over
    z in (-delta0, 0], delta0 the service abscissa; golden section narrows
    the z-bracket [a, b], from a = max(log(rho) / b1, -delta0) and b = 0,
    until its width is at most ``tol * |a|``.  ``tol`` is relative because
    the maximizer z* < 0 shrinks to 0 as rho -> 1; since a <= z* < 0 the
    loop ends, and since the maximum is flat, the relative error in s* is
    second order in ``tol``.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    lam = model.arrival_rate

    def f(z: float) -> float:
        return lam * (1.0 - model.service.lst(z)) - z

    # z* solves lam E[S e^{-zS}] = 1, and for z < 0 Jensen gives
    # E[S e^{-zS}] >= b1 e^{-z b1}, so z* >= log(rho) / b1 (equal for det)
    a = max(math.log(model.rho) / model.service.moment(1),
            -model.service.cramer_abscissa())
    b = 0.0
    shrink = 0.5 * (math.sqrt(5.0) - 1.0)
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol * -a:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - shrink * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + shrink * (b - a)
            fd = f(d)
    return max(fc, fd)
