"""Regenerative discrete-event simulation of the M/G/1 workload process.

The workload (virtual waiting time) starts at 0, jumps by the service
requirement at each Poisson arrival and drains at unit rate.  Replication
streams are derived from (base_seed, domain, replication_index), so every
estimator is bit-reproducible and independent of how replications are
scheduled across threads.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .busy_period import QueueModel
from .renewal import Curve, TimeGrid

_EVENT_CAP = 10_000_000
_CHUNK = 1024  # fixed chunk size keeps merges identical for any thread count

# stream domains, so estimators never share draws for one base seed
_DOMAIN_PHI = 1
_DOMAIN_FIRST_CYCLE = 2
_DOMAIN_STATIONARY = 3


class CycleTruncationError(RuntimeError):
    """A single cycle exceeded the event cap (not expected for rho < 1)."""


@dataclass(frozen=True)
class CyclePath:
    """One regeneration cycle: idle period, then one busy period.

    ``epochs``/``services`` list the arrivals inside the cycle;
    the first epoch is the idle-period length.
    """

    epochs: np.ndarray
    services: np.ndarray
    cycle_length: float
    busy_length: float


@dataclass(frozen=True)
class McConfig:
    replications: int
    base_seed: int
    grid: TimeGrid

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")


def _stream(base_seed: int, domain: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([base_seed, domain, index]))


def simulate_cycle(model: QueueModel, rng: np.random.Generator) -> CyclePath:
    """Simulate one full regeneration cycle of the workload process."""
    lam = model.arrival_rate
    service = model.service
    idle = rng.exponential(1.0 / lam)
    epochs = [idle]
    services = [float(service.sample(rng))]
    epoch = idle
    workload = services[0]
    for _ in range(_EVENT_CAP):
        gap = rng.exponential(1.0 / lam)
        if gap >= workload:
            cycle_length = epoch + workload
            return CyclePath(
                epochs=np.asarray(epochs),
                services=np.asarray(services),
                cycle_length=cycle_length,
                busy_length=cycle_length - idle,
            )
        epoch += gap
        workload -= gap
        s = float(service.sample(rng))
        workload += s
        epochs.append(epoch)
        services.append(s)
    raise CycleTruncationError(
        f"cycle exceeded {_EVENT_CAP} events (arrival rate {lam}, "
        f"rho {model.rho:.3f})")


def _workload_after_arrivals(path: CyclePath) -> np.ndarray:
    # no zero hit between arrivals inside one busy period, so the workload
    # just after arrival i is cumulative service minus elapsed busy time
    return np.cumsum(path.services) - (path.epochs - path.epochs[0])


def workload_at(path: CyclePath, t: float) -> float:
    """Workload W(t) inside the cycle (0 before the first arrival and
    from the cycle end onward)."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t < path.epochs[0] or t >= path.cycle_length:
        return 0.0
    idx = int(np.searchsorted(path.epochs, t, side="right")) - 1
    after = _workload_after_arrivals(path)
    return max(float(after[idx] - (t - path.epochs[idx])), 0.0)


def _workload_on_grid(path: CyclePath, times: np.ndarray) -> np.ndarray:
    """Vectorized workload_at for sorted query times."""
    after = _workload_after_arrivals(path)
    idx = np.searchsorted(path.epochs, times, side="right")
    w = np.zeros(len(times))
    live = idx > 0
    j = idx[live] - 1
    w[live] = after[j] - (times[live] - path.epochs[j])
    np.maximum(w, 0.0, out=w)
    w[times >= path.cycle_length] = 0.0
    return w


def _map_chunks(worker, n_items: int, threads: int):
    """Apply ``worker`` to fixed-size index chunks, merging in chunk order."""
    starts = range(0, n_items, _CHUNK)
    chunks = [(s, min(s + _CHUNK, n_items)) for s in starts]
    if threads <= 1:
        return [worker(lo, hi) for lo, hi in chunks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda c: worker(*c), chunks))


def estimate_phi(model: QueueModel, cfg: McConfig, threads: int = 1) -> Curve:
    """Monte-Carlo mean workload curve over independent replications.

    Each replication simulates the workload path on [0, horizon] from an
    empty system and records W at every grid point; the returned curve is
    the pointwise mean with its standard error.
    """
    times = cfg.grid.times()
    horizon = cfg.grid.horizon
    lam = model.arrival_rate
    n = cfg.grid.n_points

    def worker(lo: int, hi: int):
        s1 = np.zeros(n)
        s2 = np.zeros(n)
        for rep in range(lo, hi):
            rng = _stream(cfg.base_seed, _DOMAIN_PHI, rep)
            count = rng.poisson(lam * horizon)
            epochs = np.sort(rng.uniform(0.0, horizon, count))
            services = np.asarray(model.service.sample(rng, count), dtype=float)
            cum = np.concatenate(([0.0], np.cumsum(services)))
            # free process X(t) = work arrived - t; its pre-arrival values
            # are the only running-minimum candidates besides X(t) itself
            premin = np.minimum.accumulate(
                np.concatenate(([0.0], cum[:-1] - epochs)))
            idx = np.searchsorted(epochs, times, side="right")
            x = cum[idx] - times
            w = x - np.minimum(premin[idx], x)
            s1 += w
            s2 += w * w
        return s1, s2

    parts = _map_chunks(worker, cfg.replications, threads)
    total = np.zeros(n)
    total_sq = np.zeros(n)
    for s1, s2 in parts:
        total += s1
        total_sq += s2
    reps = cfg.replications
    mean = total / reps
    if reps > 1:
        var = np.maximum(total_sq - reps * mean**2, 0.0) / (reps - 1)
        stderr = np.sqrt(var / reps)
    else:
        stderr = np.zeros(n)
    return Curve(cfg.grid, mean, stderr=stderr)


@dataclass(frozen=True)
class FirstCycleStats:
    """Monte-Carlo summary of the first regeneration cycle on a grid."""

    q: Curve              # E W(t) 1(cycle outlasts t)
    excess: Curve         # E (cycle_length - t)+
    cycle_cdf: Curve      # empirical CDF of the cycle length at grid points
    cycle_lengths: np.ndarray


def first_cycle_study(model: QueueModel, cfg: McConfig,
                      threads: int = 1) -> FirstCycleStats:
    """Estimate q, the cycle-length excess, and the empirical cycle CDF.

    One first cycle per replication, exactly matching the definition of
    q(t) as the pre-regeneration contribution to the mean workload.
    """
    times = cfg.grid.times()
    n = cfg.grid.n_points
    step = cfg.grid.step

    def worker(lo: int, hi: int):
        q1 = np.zeros(n)
        q2 = np.zeros(n)
        e1 = np.zeros(n)
        e2 = np.zeros(n)
        lengths = np.empty(hi - lo)
        for rep in range(lo, hi):
            rng = _stream(cfg.base_seed, _DOMAIN_FIRST_CYCLE, rep)
            path = simulate_cycle(model, rng)
            zeta = path.cycle_length
            lengths[rep - lo] = zeta
            m = min(n, int(math.floor(zeta / step)) + 1)  # grid points < zeta
            w = _workload_on_grid(path, times[:m])
            q1[:m] += w
            q2[:m] += w * w
            exc = np.maximum(zeta - times, 0.0)
            e1 += exc
            e2 += exc * exc
        return q1, q2, e1, e2, lengths

    parts = _map_chunks(worker, cfg.replications, threads)
    q1 = np.zeros(n)
    q2 = np.zeros(n)
    e1 = np.zeros(n)
    e2 = np.zeros(n)
    lengths = []
    for p_q1, p_q2, p_e1, p_e2, p_len in parts:
        q1 += p_q1
        q2 += p_q2
        e1 += p_e1
        e2 += p_e2
        lengths.append(p_len)
    lengths = np.concatenate(lengths)
    reps = cfg.replications

    def finish(s1, s2):
        mean = s1 / reps
        if reps > 1:
            var = np.maximum(s2 - reps * mean**2, 0.0) / (reps - 1)
            return mean, np.sqrt(var / reps)
        return mean, np.zeros(n)

    q_mean, q_se = finish(q1, q2)
    e_mean, e_se = finish(e1, e2)
    sorted_lengths = np.sort(lengths)
    cdf = np.searchsorted(sorted_lengths, times, side="right") / reps
    return FirstCycleStats(
        q=Curve(cfg.grid, q_mean, stderr=q_se),
        excess=Curve(cfg.grid, e_mean, stderr=e_se),
        cycle_cdf=Curve(cfg.grid, cdf),
        cycle_lengths=lengths,
    )


def _cycle_area(path: CyclePath) -> float:
    after = _workload_after_arrivals(path)
    gaps = np.diff(path.epochs)
    area = float(np.dot(after[:-1], gaps) - 0.5 * np.dot(gaps, gaps))
    return area + 0.5 * float(after[-1]) ** 2


def estimate_stationary(model: QueueModel, horizon: float,
                        seed: int) -> tuple[float, float]:
    """Long-run time average of the workload with a regenerative stderr.

    Simulates whole cycles until their total length covers ``horizon``;
    the ratio estimator sum(area)/sum(length) comes with the classical
    cycle-based standard error.
    """
    from .busy_period import cycle_moments

    cm = cycle_moments(model)
    if horizon < 1000.0 * cm.cycle_mean:
        raise ValueError(
            f"horizon {horizon:g} too short: need >= 1000 cycle means "
            f"({1000.0 * cm.cycle_mean:g})")
    rng = _stream(seed, _DOMAIN_STATIONARY, 0)
    areas = []
    lengths = []
    elapsed = 0.0
    while elapsed < horizon:
        path = simulate_cycle(model, rng)
        areas.append(_cycle_area(path))
        lengths.append(path.cycle_length)
        elapsed += path.cycle_length
    areas = np.asarray(areas)
    lengths = np.asarray(lengths)
    n = len(areas)
    mean = areas.sum() / lengths.sum()
    centered = areas - mean * lengths
    s_d = math.sqrt(float(np.dot(centered, centered)) / (n - 1))
    stderr = s_d / (float(lengths.mean()) * math.sqrt(n))
    return mean, stderr
