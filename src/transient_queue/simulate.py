"""Regenerative discrete-event simulation of the M/G/1 workload process.

The workload (virtual waiting time) starts at 0, jumps by the service
requirement at each Poisson arrival and drains at unit rate.  Every
estimator reads it off one kernel: the free process X(t) = (work arrived)
- t minus its running minimum.  Streams are derived from
(base_seed, domain, index): the index is the chunk for the phi curve, the
replication for first cycles and 0 for the one stationary path.
Replications run in fixed-size chunks in one thread, so every estimator is
bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .busy_period import QueueModel, cycle_moments
from .renewal import Curve, TimeGrid

_EVENT_CAP = 10_000_000
_CHUNK = 1024  # partial sums are merged per fixed-size chunk, in chunk order
_BLOCK_CELLS = 2**15  # grid cells (or arrival slots) per row block of the phi kernel

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
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")


def _seed_words(*values: int) -> np.ndarray:
    """The uint32 entropy SeedSequence derives from a list of ints: each
    value split into little-endian 32-bit words (one word for 0), in order.
    Handing it over as an array skips SeedSequence's per-int conversion."""
    words = []
    for value in values:
        if value < 0:
            raise ValueError(f"seed values must be >= 0, got {value}")
        words.append(value & 0xFFFFFFFF)
        while value := value >> 32:
            words.append(value & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


def _stream(base_seed: int, domain: int, index: int) -> np.random.Generator:
    """The generator of ``SeedSequence([base_seed, domain, index])``."""
    return np.random.default_rng(
        np.random.SeedSequence(_seed_words(base_seed, domain, index)))


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


def _free_minimum(epochs: np.ndarray, services: np.ndarray):
    """Work arrived ``cum`` and the running minimum ``low`` of the free
    process X(t) = cum - t, both indexed along the last axis by the number
    of arrivals so far (one path per row of a 2-D block).

    X is lowest just before an arrival, so its pre-arrival values (and
    X(0) = 0) are the only running-minimum candidates besides X(t) itself.
    """
    zero = np.zeros(services.shape[:-1] + (1,))
    cum = np.concatenate((zero, np.cumsum(services, axis=-1)), axis=-1)
    low = np.minimum.accumulate(
        np.concatenate((zero, cum[..., :-1] - epochs), axis=-1), axis=-1)
    return cum, low


def _workload_on_grid(epochs: np.ndarray, services: np.ndarray,
                      times: np.ndarray) -> np.ndarray:
    """Workload from empty at sorted ``times``, for arrivals at sorted
    ``epochs``: W(t) = X(t) - min(0, min_{s <= t} X(s))."""
    cum, low = _free_minimum(epochs, services)
    idx = np.searchsorted(epochs, times, side="right")
    x = cum[idx] - times
    return x - np.minimum(low[idx], x)


def workload_at(path: CyclePath, t: float) -> float:
    """Workload W(t) inside the cycle (0 before the first arrival and
    from the cycle end onward)."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t >= path.cycle_length:
        return 0.0
    return float(_workload_on_grid(path.epochs, path.services,
                                   np.array([t]))[0])


def _workload_rows(counts: np.ndarray, epochs: np.ndarray,
                   services: np.ndarray, times: np.ndarray):
    """Workload from empty at sorted ``times`` for many paths, yielded as
    (rows, len(times)) blocks in row order.

    Row r takes the next ``counts[r]`` entries of the flat ``epochs`` (in
    any order) and ``services``.  Each block is padded with epochs at inf
    and services of 0, which add nothing.  The drain deadline after an
    arrival, D = cum - low, never decreases along a row, and W(t) is the
    largest D of the arrivals at or before t, less t, floored at 0.
    """
    n = len(times)
    ends = np.cumsum(counts)
    per_block = max(1, _BLOCK_CELLS // max(n, int(counts.max(initial=0))))
    for lo in range(0, len(counts), per_block):
        c = counts[lo:lo + per_block]
        rows = len(c)
        filled = np.arange(c.max(initial=0)) < c[:, None]
        first, last = ends[lo] - c[0], ends[lo + rows - 1]
        e = np.full(filled.shape, np.inf)
        s = np.zeros(filled.shape)
        e[filled] = epochs[first:last]
        s[filled] = services[first:last]
        e.sort(axis=1)
        cum, low = _free_minimum(e, s)
        # each D goes to the first grid point at or after its arrival;
        # padding and arrivals past the grid land in the spare column n
        cell = np.searchsorted(times, e) + (n + 1) * np.arange(rows)[:, None]
        deadline = np.zeros(rows * (n + 1))
        np.maximum.at(deadline, cell.ravel(), (cum - low)[:, 1:].ravel())
        deadline = np.maximum.accumulate(
            deadline.reshape(rows, n + 1)[:, :n], axis=1)
        yield np.maximum(deadline - times, 0.0)


def _map_chunks(worker, n_items: int):
    """Apply ``worker`` to fixed-size index chunks, in chunk order."""
    return [worker(lo, min(lo + _CHUNK, n_items))
            for lo in range(0, n_items, _CHUNK)]


def _mean_se(s1: np.ndarray, s2: np.ndarray, reps: int):
    """Pointwise mean and its standard error from the sums of x and x^2."""
    mean = s1 / reps
    if reps > 1:
        var = np.maximum(s2 - reps * mean**2, 0.0) / (reps - 1)
        return mean, np.sqrt(var / reps)
    return mean, np.zeros_like(mean)


def estimate_phi(model: QueueModel, cfg: McConfig, threads: int = 1) -> Curve:
    """Monte-Carlo mean workload curve over independent replications.

    Each replication simulates the workload path on [0, horizon] from an
    empty system and records W at every grid point; the returned curve is
    the pointwise mean with its standard error.  Each chunk of replications
    draws from one stream, indexed by the chunk: the Poisson arrival counts
    of its rows, then all epochs, then all services.  Replications run in
    one thread; ``threads`` is accepted for compatibility and never changes
    the output.
    """
    times = cfg.grid.times()
    horizon = cfg.grid.horizon
    lam = model.arrival_rate
    n = cfg.grid.n_points

    def worker(lo: int, hi: int):
        rng = _stream(cfg.base_seed, _DOMAIN_PHI, lo // _CHUNK)
        counts = rng.poisson(lam * horizon, hi - lo)
        total = int(counts.sum())
        epochs = rng.uniform(0.0, horizon, total)
        services = np.asarray(model.service.sample(rng, total), dtype=float)
        s1 = np.zeros(n)
        s2 = np.zeros(n)
        for w in _workload_rows(counts, epochs, services, times):
            s1 += w.sum(axis=0)
            s2 += (w * w).sum(axis=0)
        return s1, s2

    total = np.zeros(n)
    total_sq = np.zeros(n)
    for s1, s2 in _map_chunks(worker, cfg.replications):
        total += s1
        total_sq += s2
    mean, stderr = _mean_se(total, total_sq, cfg.replications)
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
    Replications run in one thread; ``threads`` is accepted for
    compatibility and never changes the output.
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
            # grid points from m on lie at or above zeta (rounding is
            # monotone), where the workload and (zeta - t)+ are exactly 0
            m = min(n, int(math.floor(zeta / step)) + 1)
            w = _workload_on_grid(path.epochs, path.services, times[:m])
            q1[:m] += w
            q2[:m] += w * w
            exc = np.maximum(zeta - times[:m], 0.0)
            e1[:m] += exc
            e2[:m] += exc * exc
        return q1, q2, e1, e2, lengths

    q1 = np.zeros(n)
    q2 = np.zeros(n)
    e1 = np.zeros(n)
    e2 = np.zeros(n)
    lengths = []
    for p_q1, p_q2, p_e1, p_e2, p_len in _map_chunks(worker, cfg.replications):
        q1 += p_q1
        q2 += p_q2
        e1 += p_e1
        e2 += p_e2
        lengths.append(p_len)
    lengths = np.concatenate(lengths)
    reps = cfg.replications
    q_mean, q_se = _mean_se(q1, q2, reps)
    e_mean, e_se = _mean_se(e1, e2, reps)
    sorted_lengths = np.sort(lengths)
    cdf = np.searchsorted(sorted_lengths, times, side="right") / reps
    return FirstCycleStats(
        q=Curve(cfg.grid, q_mean, stderr=q_se),
        excess=Curve(cfg.grid, e_mean, stderr=e_se),
        cycle_cdf=Curve(cfg.grid, cdf),
        cycle_lengths=lengths,
    )


def _cycles(gaps: np.ndarray, services: np.ndarray, horizon: float):
    """Areas under the workload and lengths of the regeneration cycles of
    one path from empty, up to the first cycle that ends at or after
    ``horizon``; None if the arrivals run out before that cycle ends.

    ``gaps[j]`` is the time from arrival j - 1 (from 0 for j = 0) to
    arrival j.  Arrival j closes a cycle when the next gap outlasts the
    workload it leaves; the rest of that gap idles into the next cycle.
    """
    epochs = np.cumsum(gaps)
    cum, low = _free_minimum(epochs, services)
    after = cum[1:] - epochs - low[1:]  # workload just after each arrival
    closing = np.flatnonzero(gaps[1:] >= after[:-1])
    ends = epochs[closing] + after[closing]
    k = int(np.searchsorted(ends, horizon))
    if k == len(ends):
        open_events = len(gaps) - (closing[-1] + 1 if k else 0)
        if open_events > _EVENT_CAP:
            raise CycleTruncationError(
                f"cycle exceeded {_EVENT_CAP} events ({open_events} so far)")
        return None
    m = closing[k] + 1
    g = np.minimum(gaps[1:m + 1], after[:m])  # time each workload drains
    area = after[:m] * g - 0.5 * g * g
    starts = np.concatenate(([0], closing[:k] + 1))
    return np.add.reduceat(area, starts), np.diff(ends[:k + 1], prepend=0.0)


def estimate_stationary(model: QueueModel, horizon: float,
                        seed: int) -> tuple[float, float]:
    """Long-run time average of the workload with a regenerative stderr.

    Simulates one path from empty, cut into cycles, until their total
    length covers ``horizon``; the ratio estimator sum(area)/sum(length)
    comes with the classical cycle-based standard error.  Gaps and
    services are drawn in bulk from one stream, in blocks of doubling size
    until the path reaches that point.
    """
    cm = cycle_moments(model)
    if horizon < 1000.0 * cm.cycle_mean:
        raise ValueError(
            f"horizon {horizon:g} too short: need >= 1000 cycle means "
            f"({1000.0 * cm.cycle_mean:g})")
    rng = _stream(seed, _DOMAIN_STATIONARY, 0)
    size = int(1.2 * model.arrival_rate * horizon) + 64
    gaps = np.empty(0)
    services = np.empty(0)
    cycles = None
    while cycles is None:
        gaps = np.concatenate(
            (gaps, rng.exponential(1.0 / model.arrival_rate, size)))
        services = np.concatenate(
            (services, np.asarray(model.service.sample(rng, size), dtype=float)))
        cycles = _cycles(gaps, services, horizon)
        size *= 2
    areas, lengths = cycles
    n = len(areas)
    mean = areas.sum() / lengths.sum()
    centered = areas - mean * lengths
    s_d = math.sqrt(float(np.dot(centered, centered)) / (n - 1))
    stderr = s_d / (float(lengths.mean()) * math.sqrt(n))
    return mean, stderr
