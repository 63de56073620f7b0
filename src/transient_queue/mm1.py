"""Exact and asymptotic transient analysis of the M/M/1 queue.

All Bessel arithmetic is carried out on exponentially scaled values
e^{-x} I_n(x), so the e^{-(lam+mu)t} prefactor of the transient state
probabilities combines with the Bessel growth into a single factor
e^{-(sqrt(mu)-sqrt(lam))^2 t}.  That keeps every intermediate quantity
representable far beyond the t ~ 360 overflow point of unscaled I_n.
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
    """(lam, mu, rho) of an M/M/1 model; other laws raise.  rho = lam / mu,
    not ``model.rho`` = lam * (1/mu), which differs in the last bit for about
    a quarter of pairs; ``QueueModel``'s bound keeps lam / mu < 1."""
    if not isinstance(model.service, Exponential):
        raise ValueError(f"the M/M/1 series needs exponential service, got "
                         f"{model.service.spec_string()}")
    lam, mu = model.arrival_rate, model.service.rate
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
    batch = []
    for j in np.argsort(widths, kind="stable"):
        if batch and (len(batch) + 1) * widths[j] > _BATCH_ENTRIES:
            yield np.array(batch)
            batch = []
        batch.append(j)
    if batch:
        yield np.array(batch)


def _log_bessel_rows(x: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Row j holds log(e^{-x_j} I_n(x_j)) for n = 0 .. start_j + 1 (x_j > 0).

    Backward (Miller) recurrence on the ratios q_k = I_k / I_{k+1},
    q_k = 2(k+1)/x + 1/q_{k+1}, run one order at a time across all x_j;
    column j takes its starting value at its own order start_j, which the
    caller places past the decay point of I_n(x_j) in n (see
    ``_miller_start_order``).  The ratios are accumulated in the log domain
    and normalized through the generating identity at y = 1: the scaled
    values satisfy  I~_0 + 2 sum_{n>=1} I~_n = 1, with the sum over
    n <= start_j + 1 taken as a running sum along the column and read at
    the column's own order.  So each column sees exactly the arithmetic of
    a recurrence run for it alone, whatever the batch.  Entries past
    start_j + 1 are finite but meaningless.
    """
    width = int(start.max()) + 1
    q = 2.0 * np.arange(1, width + 1)[:, None] / x   # row k: 2(k+1)/x
    init = 2.0 * (start + 1) / x + x / (2.0 * (start + 2))
    begins = {}
    for j, s in enumerate(start.tolist()):
        begins.setdefault(s, []).append(j)
    inv = np.empty(len(x))
    prev = np.full(len(x), np.inf)  # so the top row starts as 2 width / x
    for k, row in zip(range(width - 1, -1, -1), q[::-1]):
        np.reciprocal(prev, inv)
        np.add(row, inv, row)
        cols = begins.get(k)
        if cols is not None:
            row[cols] = init[cols]
        prev = row
    np.log(q, out=q)
    np.negative(q, out=q)
    np.cumsum(q, axis=0, out=q)                      # log(I_{n+1} / I_0)
    out = np.empty((len(x), width + 1))
    out[:, 0] = 0.0                                  # log(I_0 / I_0)
    out[:, 1:] = q.T
    np.exp(q, out=q)
    np.cumsum(q, axis=0, out=q)                      # sum_{m<=n} I_{m+1} / I_0
    log_norm = np.log1p(2.0 * q[start, np.arange(len(x))])
    del q
    out -= log_norm[:, None]
    return out


def bessel_i_scaled_array(n_max: int, x: float) -> np.ndarray:
    """Scaled modified Bessel values e^{-x} I_n(x) for n = 0 .. n_max.

    See ``_log_bessel_rows`` for the recurrence.  Raises
    ``SeriesTruncationError`` if the recurrence would start past
    _PN_TAIL_CAP.
    """
    if not (math.isfinite(x) and x >= 0):
        raise ValueError(f"argument must be finite and >= 0, got {x}")
    if n_max < 0:
        raise ValueError(f"order must be >= 0, got {n_max}")
    if x == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    start = max(int(_miller_start_order(x)), n_max + 20)
    if start > _PN_TAIL_CAP:
        raise SeriesTruncationError(
            f"the Bessel values at x = {x:.6g} need order {start}, past the "
            f"cap {_PN_TAIL_CAP}", math.inf)
    return np.exp(
        _log_bessel_rows(np.array([x]), np.array([start]))[0, : n_max + 1])


def _summand_rows(model: QueueModel, t: np.ndarray, n_min: int):
    """Yield (positions, up, cuts) until every t_j > 0 is done, where row i
    belongs to position j = positions[i] and holds, for k = 0 .. cuts_i,

      up[i, k] = e^{-(lam+mu)t} r^k I_k(x)

    with x = 2 sqrt(lam mu) t_j and r = sqrt(mu/lam); past cuts_i it is 0.
    The series' other summands e^{-(lam+mu)t} r^{-k} I_k(x) are rho^k up[k],
    since r^{-2} = rho, so the consumers weight this one row.
    Every product is assembled as exp(sum of logs), so huge r^k never meets
    a tiny scaled Bessel value head-on; each summand is <= 1 by the
    generating identity.  The summands are a multiple of the Skellam law of
    Poisson(mu t) - Poisson(lam t), so the cut is ``_miller_start_order(x,
    log r, n_min)``, about 10 standard deviations past the peak at
    (mu - lam) t or past n_min.  Each point is run once: one whose cut would
    pass _PN_TAIL_CAP raises before any row is built, and one whose topmost
    five summands are not negligible against the largest raises, so an
    undersized cut is never a silent number.
    """
    lam, mu, _ = _rates(model)
    x_all = 2.0 * math.sqrt(lam * mu) * t
    decay_all = theoretical_rate(model) * t  # (lam+mu)t - x
    log_r = 0.5 * math.log(mu / lam)
    # the guard reads the five orders up to the cut
    cuts = np.maximum(_miller_start_order(x_all, log_r, n_min), 4)
    over = np.flatnonzero(cuts > _PN_TAIL_CAP)
    if over.size:
        j = over[0]
        raise SeriesTruncationError(
            f"the series at t = {t[j]:.6g} needs order {cuts[j]}, past "
            f"the cap {_PN_TAIL_CAP}", math.inf)
    for idx in _batches(cuts + 22):
        cut = cuts[idx]
        log_scaled = _log_bessel_rows(x_all[idx], cut + 20)
        k = np.arange(int(cut.max()) + 1)
        up = k * log_r - decay_all[idx][:, None]
        up += log_scaled[:, : k.size]
        del log_scaled
        up[k > cut[:, None]] = -np.inf
        # the guard compares logs: a cut below the peak can leave every
        # summand underflowed, and values would then pass any test
        top = up[np.arange(len(idx))[:, None], cut[:, None] - np.arange(5)]
        ratio = top.max(axis=1) - up.max(axis=1)
        bad = np.flatnonzero(~(ratio <= math.log(2e-17)))  # five below 1e-16
        if bad.size:
            i = bad[0]
            raise SeriesTruncationError(
                f"the series at t = {t[idx[i]]:.6g} is not negligible at its "
                f"cut {cut[i]}", float(np.exp(ratio[i])))
        np.exp(up, out=up)
        yield idx, up, cut
        del up  # free this batch before the next one is built


def pn_array(model: QueueModel, t: float, n_max: int) -> np.ndarray:
    """P_n(t) for n = 0 .. n_max, starting from an empty system.

    In the summands of ``_summand_rows``,
      P_n(t) = rho^n (up[n] + up[n+1] + (1-rho) sum_{k>=n+2} up[k]),
    the suffix sum running down the row from its cut.  The start-order rule
    sets the cut its margin past both the peak and n_max + 2, so every entry
    keeps its own suffix sum and is accurate relative to itself while its
    summands do not underflow: at lam = 0.2, mu = 1, t = 0.5 and n_max = 40
    each entry is within 4e-14 of a 40-digit reference.  A cut past the cap
    raises ``SeriesTruncationError``.
    """
    _, _, rho = _rates(model)
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if n_max < 0:
        raise ValueError(f"order must be >= 0, got {n_max}")
    if t == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    [(_, up, _)] = _summand_rows(model, np.array([float(t)]), n_max + 2)
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
    cancels.  S and phi's sum are running sums along their rows, read at
    each row's own cut, and P_0's sum runs down from it, past which the
    summands are 0, so a point's bits do not depend on its batch.
    """
    bad = ~(np.isfinite(t) & (t >= 0))
    if bad.any():
        raise ValueError(f"t must be finite and >= 0, got {t[bad][0]}")
    _, mu, rho = _rates(model)
    value = np.zeros(len(t))
    p0 = np.ones(len(t))
    pending = np.flatnonzero(t > 0)
    for positions, up, cut in _summand_rows(model, t[pending], 0):
        j = pending[positions]
        # the suffix sum of up from the top, as pn_array forms it
        p0[j] = (up[:, 0] + up[:, 1]
                 + (1.0 - rho) * np.cumsum(up[:, :1:-1], axis=1)[:, -1])
        k = np.arange(up.shape[1])
        k_rho_k = k * rho**k
        weight = k_rho_k.copy()
        weight[1:] += k_rho_k[:-1]
        weight[2:] += (1.0 - rho) * np.cumsum(k_rho_k[:-2])
        up *= weight
        np.cumsum(up, axis=1, out=up)
        value[j] = up[np.arange(len(j)), cut] / mu
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
