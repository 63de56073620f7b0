"""Exact and asymptotic transient analysis of the M/M/1 queue.

The summands e^{-(lam+mu)t} r^k I_k(x) of the transient state
probabilities are the Skellam law of Poisson(mu t) - Poisson(lam t), so
they are built from the ratios of successive Bessel values and divided by
the law's own total; no exponential prefactor and no unscaled I_n is ever
formed, so every intermediate quantity stays representable far beyond the
t ~ 360 overflow point of unscaled I_n.
"""

from __future__ import annotations

import math

import numpy as np

from .busy_period import QueueModel
from .distributions import Exponential
from .renewal import Curve

# the highest order to which any series or Bessel recurrence is run
_PN_TAIL_CAP = 200_000
# the series of many time points run together; each array of one batch holds
# at most this many (point, order) entries, so memory does not grow with the
# grid
_BATCH_ENTRIES = 1 << 15


class SeriesTruncationError(RuntimeError):
    """A series could not be truncated within its cap; carries the ratio of
    its topmost summands to its largest (inf if no row was built)."""

    def __init__(self, message: str, achieved_bound: float):
        super().__init__(message)
        self.achieved_bound = achieved_bound


def Mm1Model(arrival_rate: float, service_rate: float) -> QueueModel:
    """The M/M/1 queue, with Exponential(service_rate) service."""
    return QueueModel(arrival_rate, Exponential(service_rate))


def _rates(model: QueueModel):
    """(lam, mu, rho) of an M/M/1 model; other laws and lam mu past double
    range raise.  rho = lam / mu, not ``model.rho`` = lam * (1/mu), which
    differs in the last bit for a quarter of pairs; QueueModel keeps it < 1."""
    if not isinstance(model.service, Exponential):
        raise ValueError(f"the M/M/1 series needs exponential service, got "
                         f"{model.service.spec_string()}")
    lam, mu = model.arrival_rate, model.service.rate
    if not 0.0 < lam * mu < math.inf:
        raise ValueError(f"lambda * mu = {lam!r} * {mu!r} leaves double range")
    return lam, mu, lam / mu


def theoretical_rate(model: QueueModel) -> float:
    """Exponential convergence rate (sqrt(mu) - sqrt(lam))^2."""
    lam, mu, _ = _rates(model)
    return (math.sqrt(mu) - math.sqrt(lam)) ** 2


def _miller_start_order(x, log_r=0.0, n_min=0):
    """Order past which the summands r^k e^{-x} I_k(x) are negligible.

    By the Debye asymptotics of I_k(x) the summands peak at
    k = x sinh(log r) and fall off beyond it like a Gaussian of variance
    x cosh(log r); for r = sqrt(mu/lam) and x = 2 sqrt(lam mu) t they are,
    up to a constant factor, the Skellam law of Poisson(mu t) - Poisson(lam t),
    of mean (mu - lam) t and variance (mu + lam) t.  The order sits 10
    standard deviations past the peak, or past n_min if that is higher: the
    summands are log-concave in k, so past the peak they fall at least as
    fast from n_min as from the peak.  log_r = 0 sizes the Bessel values
    alone.
    """
    peak = np.maximum(x * math.sinh(log_r), n_min)
    spread = np.sqrt(x * math.cosh(log_r))
    return np.ceil(peak + 10.0 * spread + 20.0).astype(np.int64)


def _batches(widths: np.ndarray):
    """Split positions 0 .. len(widths)-1, taken in order of width, into
    batches of at most _BATCH_ENTRIES (points x widest point) entries; a
    point wider than that goes alone."""
    order = np.argsort(widths, kind="stable")
    # sorted j > i joins i's batch while (j-i+1) widths_j <= cap: over[j] <= i
    over = np.arange(1, len(order) + 1) - _BATCH_ENTRIES // widths[order]
    i = 0
    while i < len(order):
        j = max(int(np.searchsorted(over, i, side="right")), i + 1)
        yield order[i:j]
        i = j


def _sum_orders(a: np.ndarray) -> np.ndarray:
    """Column sums of a C-ordered (orders x points) array, adding its rows
    in order as a running sum does: numpy does so for two or more columns
    but sums a lone column pairwise, so that one is read off a cumsum."""
    return a.sum(axis=0) if a.shape[1] > 1 else np.cumsum(a, axis=0)[-1]


def _skellam_rows(x: np.ndarray, log_r: float, rho: float,
                  cut: np.ndarray) -> np.ndarray:
    """Row j holds s_k = r^k e^{-x_j} I_k(x_j) / C_j for k = 0 .. cut_j and 0
    past it (x_j >= 0, r = e^{log_r}), with C_j such that the row's own
    total s_0 + sum_{k>=1} (1 + rho^k) s_k is 1.

    At rho = 1/r^2 the summands are the Skellam law of Poisson(mu t) -
    Poisson(lam t), whose total is 1; at r = rho = 1 the total is the
    generating identity I_0 + 2 sum I_k = e^x, so the row is e^{-x} I_k(x).
    Successive entries differ by the factor r / q_k, with the Miller ratios
    q_k = I_k / I_{k+1} = 2(k+1)/x + 1/q_{k+1} run backward one order at a
    time across all x_j, each column from its own cut.  The logs of the
    factors are summed up each column and shifted by its largest, so no
    exponential overflows or cancels.  Orders run along axis 0 and the total
    adds them in order through the zeros past the cut (``_sum_orders``), so
    a column's bits do not depend on its batch; the result is the transpose.
    At x_j = 0 every ratio q_k is inf, so every factor is 0 and the row is
    (1, 0, 0, ...), the law of Poisson(0) - Poisson(0).
    """
    width = int(cut.max()) + 1
    with np.errstate(divide="ignore", invalid="ignore"):  # x_j = 0
        q = 2.0 * np.arange(width + 1)[:, None] / x   # row k + 1: 2(k+1)/x
        init = 2.0 * (cut + 1) / x + x / (2.0 * (cut + 2))
    order = np.argsort(cut, kind="stable")
    # the columns order[first[k]:first[k + 1]] start at order k
    first = np.searchsorted(cut[order], np.arange(width + 1)).tolist()
    inv = np.empty(len(x))
    prev = np.full(len(x), np.inf)  # so the top row starts as 2 width / x
    for k, row in zip(range(width - 1, -1, -1), q[:0:-1]):
        np.reciprocal(prev, inv)
        np.add(row, inv, row)
        if first[k] < first[k + 1]:
            cols = order[first[k] : first[k + 1]]
            row[cols] = init[cols]
        prev = row
    s = q[:-1]
    s[0] = 0.0                                       # log(s_0 / s_0)
    np.log(s[1:], out=s[1:])
    np.subtract(log_r, s[1:], out=s[1:])             # log(r / q_{k-1})
    np.cumsum(s, axis=0, out=s)                      # log(s_k / s_0)
    s[np.arange(width)[:, None] > cut] = -np.inf
    s -= s.max(axis=0)
    np.exp(s, out=s)
    weight = 1.0 + rho ** np.arange(width)
    weight[0] = 1.0
    s /= _sum_orders(s * weight[:, None])
    return s.T


def bessel_i_scaled_array(n_max: int, x: float) -> np.ndarray:
    """Scaled modified Bessel values e^{-x} I_n(x) for n = 0 .. n_max.

    The row of ``_skellam_rows`` at r = rho = 1, cut 20 orders past n_max
    or past the decay point of I_n(x) in n, whichever is higher; at x = 0
    that row is (1, 0, 0, ...).  Raises ``SeriesTruncationError`` if that
    cut is past _PN_TAIL_CAP, at x = 0 too.
    """
    if not (math.isfinite(x) and x >= 0):
        raise ValueError(f"argument must be finite and >= 0, got {x}")
    if n_max < 0:
        raise ValueError(f"order must be >= 0, got {n_max}")
    cut = max(int(_miller_start_order(x)), n_max + 20)
    if cut > _PN_TAIL_CAP:
        raise SeriesTruncationError(
            f"the Bessel values at x = {x:.6g} need order {cut}, past the "
            f"cap {_PN_TAIL_CAP}", math.inf)
    return _skellam_rows(np.array([x]), 0.0, 1.0,
                         np.array([cut]))[0, : n_max + 1]


def _summand_rows(model: QueueModel, t: np.ndarray, n_min: int):
    """Yield (positions, up) until every t_j >= 0 is done, where row i
    belongs to position j = positions[i] and holds, up to its cut,

      up[i, k] = e^{-(lam+mu)t} r^k I_k(x)

    with x = 2 sqrt(lam mu) t_j and r = sqrt(mu/lam); past the cut it is 0.
    The series' other summands e^{-(lam+mu)t} r^{-k} I_k(x) are rho^k up[k],
    since r^{-2} = rho, so the consumers weight this one row.  Together
    they are the Skellam law of Poisson(mu t) - Poisson(lam t), so each row
    is built by ``_skellam_rows`` from the ratios of its summands and
    normalized by the law's own total: no exponential prefactor is formed.
    The cut is ``_miller_start_order(x, log r, n_min)``, about 10 standard
    deviations past the peak at (mu - lam) t or past n_min.  Each point is
    run once: one whose cut would pass _PN_TAIL_CAP raises before any row
    is built, and one whose topmost five summands are not negligible
    against the largest raises, so an undersized cut is never a silent
    number.
    """
    lam, mu, rho = _rates(model)
    x_all = 2.0 * math.sqrt(lam * mu) * t
    log_r = 0.5 * math.log(mu / lam)
    # the guard reads the five orders up to the cut
    cuts = np.maximum(_miller_start_order(x_all, log_r, n_min), 4)
    over = np.flatnonzero(cuts > _PN_TAIL_CAP)
    if over.size:
        j = over[0]
        raise SeriesTruncationError(
            f"the series at t = {t[j]:.6g} needs order {cuts[j]}, past "
            f"the cap {_PN_TAIL_CAP}", math.inf)
    for idx in _batches(cuts + 1):
        cut = cuts[idx]
        up = _skellam_rows(x_all[idx], log_r, rho, cut)
        top = up.T[cut - np.arange(5)[:, None], np.arange(len(idx))]
        ratio = top.max(axis=0) / up.T.max(axis=0)
        bad = np.flatnonzero(~(ratio <= 2e-17))  # five below 1e-16
        if bad.size:
            i = bad[0]
            raise SeriesTruncationError(
                f"the series at t = {t[idx[i]]:.6g} is not negligible at its "
                f"cut {cut[i]}", float(ratio[i]))
        yield idx, up
        del up  # free this batch before the next one is built


def pn_array(model: QueueModel, t: float, n_max: int) -> np.ndarray:
    """P_n(t) for n = 0 .. n_max, starting from an empty system.

    In the summands of ``_summand_rows``,
      P_n(t) = rho^n (up[n] + up[n+1] + (1-rho) sum_{k>=n+2} up[k]),
    the suffix sum running down the row from its cut.  The start-order rule
    sets the cut its margin past both the peak and n_max + 2, so every entry
    keeps its own suffix sum and is accurate relative to itself while its
    summands do not underflow: at mu = 1 and (lam, t, n_max) = (0.2, 0.5,
    40), (0.5, 5, 80) and (0.9, 20, 150) each entry is within 4e-14 of a
    40-digit reference.  A cut past the cap raises ``SeriesTruncationError``,
    at t = 0 too.
    """
    _, _, rho = _rates(model)
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if n_max < 0:
        raise ValueError(f"order must be >= 0, got {n_max}")
    [(_, up)] = _summand_rows(model, np.array([float(t)]), n_max + 2)
    up = up[0]
    tail = np.cumsum(up[::-1])[::-1]  # sum_{k>=m} up[k], from the top
    probs = up[: n_max + 1] + up[1 : n_max + 2]
    probs += (1.0 - rho) * tail[2 : n_max + 3]
    probs *= rho ** np.arange(n_max + 1)
    return probs


def phi_exact(model: QueueModel, t: float, paper_literal: bool = False) -> float:
    """Mean virtual waiting time at t from the transient state probabilities.

    Default mode is sum_{k>=1} k P_k(t) / mu (the mean of the mixture law
    of the workload), evaluated as one weighted sum over the Bessel orders
    (see ``_phi_and_p0``); it converges to the Pollaczek-Khinchine value.
    ``paper_literal`` additionally adds the P_0(t) term; the curve then
    approaches (1-rho) + rho/(mu(1-rho)), the constant of
    ``phi_asymptotic``.
    """
    value, p0 = _phi_and_p0(model, np.array([t], dtype=float))
    return float(value[0] + p0[0]) if paper_literal else float(value[0])


def _phi_and_p0(model: QueueModel, t: np.ndarray):
    """``phi_exact``'s default values and P_0 at the times ``t``, from one
    series evaluation per point; the paper-literal values are their sum.

    Writing P_n in the summands of ``_summand_rows`` (see ``pn_array``) and
    summing n P_n over n first turns both into one weighted sum over the
    Bessel orders k, with S_m = sum_{n=1..m} n rho^n:

      mu phi = sum_{k>=1} up[k] (k rho^k + (k-1) rho^{k-1} + (1-rho) S_{k-2})
      P_0    = up[0] + up[1] + (1-rho) sum_{k>=2} up[k]

    so both end where the summands do.  No weight is negative, so nothing
    cancels.  Phi's sum and P_0's suffix sum add each point's orders in
    order down the contiguous (orders x points) array, through the zeros
    past its cut (``_sum_orders``): a point's bits do not depend on its batch.
    At t = 0 the row (1, 0, 0, ...) gives phi = 0 and P_0 = 1 exactly.
    """
    bad = ~(np.isfinite(t) & (t >= 0))
    if bad.any():
        raise ValueError(f"t must be finite and >= 0, got {t[bad][0]}")
    _, mu, rho = _rates(model)
    value = np.empty(len(t))
    p0 = np.empty(len(t))
    for j, up in _summand_rows(model, t, 0):
        up = up.T  # orders x points, C-ordered
        # the suffix sum of up from the top, as pn_array forms it
        p0[j] = up[0] + up[1] + (1.0 - rho) * _sum_orders(up[:1:-1])
        k = np.arange(len(up))
        k_rho_k = k * rho**k
        weight = k_rho_k.copy()
        weight[1:] += k_rho_k[:-1]
        weight[2:] += (1.0 - rho) * np.cumsum(k_rho_k[:-2])
        up *= weight[:, None]
        value[j] = _sum_orders(up) / mu
        del up  # free this batch before the next one is built
    return value, p0


def phi_asymptotic(model: QueueModel, t: float) -> float:
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
    lam, mu, rho = _rates(model)
    u = math.sqrt(rho)
    constant = (1.0 - rho) + rho / (mu * (1.0 - rho))
    prefactor = (math.exp(-(math.sqrt(mu) - math.sqrt(lam)) ** 2 * t)
                 / math.sqrt(4.0 * math.pi * math.sqrt(lam * mu) * t))
    coefficient = ((1.0 + 3.0 * u + 4.0 * rho + 4.0 * rho * u
                    + 3.0 * rho**2 - rho**2 * u)
                   / (mu * (1.0 - u - rho**2 + rho**2 * u)))
    return constant + prefactor * coefficient


def phi_curve(model: QueueModel, grid, paper_literal: bool = False):
    """phi_exact sampled on a TimeGrid, returned as a Curve."""
    value, p0 = _phi_and_p0(model, grid.times())
    return Curve(grid, value + p0 if paper_literal else value)
