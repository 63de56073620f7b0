"""Regenerative discrete-event simulation of the M/G/1 workload process.

The workload (virtual waiting time) starts at 0, jumps by the service
requirement at each Poisson arrival and drains at unit rate.  Every
estimator reads it off one kernel: the free process X(t) = (work arrived)
- t minus its running minimum.  Each path source runs it once on every
block it draws: ``_row_blocks`` on blocks of the phi curve's rows, and
``_cycle_blocks`` on blocks of one long path that it cuts into cycles.
Both hand each arrival's drain deadline to the segment sums
``_workload_sums``, which add W and W^2 over paths on the grid from each
arrival's run of grid points, so the cost of the phi curve and of q grows
with arrivals plus grid points, not paths times grid points.
Streams are derived from (base_seed, domain, index): the index is the
chunk of replications for the phi curve and for first cycles, and 0 for
the one stationary path.  Replications run in fixed-size chunks in one
thread, so every estimator is bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .busy_period import QueueModel, cycle_moments
from .renewal import Curve, TimeGrid

_EVENT_CAP = 10_000_000
_CHUNK = 1024  # partial sums are merged per fixed-size chunk, in chunk order
_BLOCK_SLOTS = 2**13  # arrival slots per block of padded phi rows
_WINDOW = 32  # grid points per window of the workload kernel's sums
_PATH_BLOCK = 2**16  # most draws per block of one path: about 2.6 MB at the peak

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
        # one replication has no standard error
        if self.replications < 2:
            raise ValueError(f"replications must be >= 2, got {self.replications}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")


def _stream(base_seed: int, domain: int, index: int) -> np.random.Generator:
    """The generator of ``SeedSequence([base_seed, domain, index])``."""
    return np.random.default_rng(
        np.random.SeedSequence([base_seed, domain, index]))


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
    shape = services.shape[:-1] + (services.shape[-1] + 1,)
    cum = np.zeros(shape)
    np.cumsum(services, axis=-1, out=cum[..., 1:])
    low = np.zeros(shape)
    np.subtract(cum[..., :-1], epochs, out=low[..., 1:])
    np.minimum.accumulate(low, axis=-1, out=low)
    return cum, low


def _cells(points: np.ndarray, step: float, x: np.ndarray) -> np.ndarray:
    """Index of the first grid point at or after each x, as
    ``np.searchsorted`` finds it in ``points`` (the grid's times, then
    inf): ceil(x / step), off by at most one, is moved onto it."""
    k = np.clip(np.ceil(x / step), 0, len(points) - 1).astype(np.intp)
    k += points[k] < x
    k -= (k > 0) & (points[k - 1] >= x)
    return k


def _row_blocks(counts: np.ndarray, epochs: np.ndarray,
                services: np.ndarray):
    """Paths for ``_workload_sums`` from rows of arrivals in any order:
    row r takes the next ``counts[r]`` entries of the flat ``epochs`` and
    ``services``.  Rows go in blocks of at most ``_BLOCK_SLOTS`` arrival
    slots, padded with epochs at inf and services of 0, with the epochs
    sorted within each row (its services stay in the order given), through
    ``_free_minimum`` once; each block yields (counts, epochs, deadlines)
    of its real arrivals.
    """
    ends = np.cumsum(counts)
    per_block = max(1, _BLOCK_SLOTS // max(1, int(counts.max(initial=0))))
    for lo in range(0, len(counts), per_block):
        c = counts[lo:lo + per_block]
        filled = np.arange(c.max(initial=0)) < c[:, None]
        first, last = ends[lo] - c[0], ends[lo + len(c) - 1]
        e = np.full(filled.shape, np.inf)
        s = np.zeros(filled.shape)
        e[filled] = epochs[first:last]
        s[filled] = services[first:last]
        e.sort(axis=1)
        cum, low = _free_minimum(e, s)
        cum -= low
        yield c, e[filled], cum[:, 1:][filled]


def _workload_sums(blocks, grid: TimeGrid):
    """Sums over paths of the workload W and of W^2 from empty on the
    grid: two arrays of ``grid.n_points``.

    Each block is (counts, epochs, deadlines): path r takes the next
    ``counts[r]`` entries of the flat ``epochs`` (sorted within the path)
    and ``deadlines``, each arrival's drain deadline D = cum - low from
    ``_free_minimum``.  Along a path D never decreases, so arrival j
    covers the grid points from the first at or after its epoch up to,
    not including, the first at or after the next epoch or D_j, whichever
    comes first; there W = D_j - t, and W = 0 where no arrival covers t.
    Difference arrays of 1, D and D^2 over those cells, added over all
    blocks and summed by one cumsum, give sum W = c1 - t c0 and sum W^2 =
    c2 - 2 t c1 + t^2 c0, both exactly 0 where c0 = 0.  The sums restart
    every ``_WINDOW`` grid points, with D and t taken from the window's
    first point, so rounding stays at the scale of W, not of t.
    """
    times = grid.times()
    n = len(times)
    points = np.append(times, np.inf)
    windows = -(-n // _WINDOW)
    origin = times[::_WINDOW]
    # window w's cells are w * (_WINDOW + 1) + (0 .. _WINDOW); the spare
    # last one takes the ends of segments that end at the window's end
    size = windows * (_WINDOW + 1)
    # per cell, the change in covering arrivals and in their D and D^2
    # from the window origin
    steps = np.zeros((3, size))
    for counts, epochs, deadline in blocks:
        start = _cells(points, grid.step, epochs)
        # a path's next epoch bounds the cells of its arrival; the last
        # arrival of a path is bounded by its deadline alone
        stop = np.empty_like(start)
        stop[:-1] = start[1:]
        stop[np.cumsum(counts[counts > 0]) - 1] = n
        np.minimum(stop, _cells(points, grid.step, deadline), out=stop)
        live = stop > start
        start, stop, deadline = start[live], stop[live], deadline[live]
        # a segment starts in its first window's frame and ends in its
        # last's; one crossing into later windows restarts at the first
        # cell of each.  An end at a window's end lands in the spare cell,
        # which the sums drop, so no piece but the last needs one
        first = start // _WINDOW
        last = (stop - 1) // _WINDOW
        crossed = last - first
        seg = np.repeat(np.arange(len(start)), crossed)
        later = first[seg] + 1 + np.arange(len(seg)) - np.repeat(
            np.cumsum(crossed) - crossed, crossed)
        on = np.concatenate((start + first, later * (_WINDOW + 1)))
        d_on = np.concatenate((deadline - origin[first],
                               deadline[seg] - origin[later]))
        off, d_off = stop + last, deadline - origin[last]
        for change, w_on, w_off in zip(steps, (None, d_on, d_on**2),
                                       (None, d_off, d_off**2)):
            change += np.bincount(on, w_on, minlength=size)
            change -= np.bincount(off, w_off, minlength=size)
    c0, c1, c2 = np.cumsum(steps.reshape(3, windows, -1), axis=2)[
        :, :, :-1].reshape(3, -1)[:, :n]
    t = times - np.repeat(origin, _WINDOW)[:n]
    s1 = c1 - t * c0
    s2 = np.maximum(c2 - t * (2.0 * c1 - t * c0), 0.0)
    uncovered = c0 == 0
    s1[uncovered] = 0.0
    s2[uncovered] = 0.0
    return s1, s2


def _cycle_blocks(model: QueueModel, rng: np.random.Generator, size: int,
                  keep: float):
    """Regeneration cycles of one path from empty, drawn from ``rng`` in
    blocks of ``size`` (at most ``_PATH_BLOCK``) gaps, then as many
    services.  Yields, per block that closes a cycle, (counts, epochs,
    deadlines, lengths, areas): per closed cycle its arrivals within
    ``keep`` of its start (their number, and their epochs and drain
    deadlines from the start, flat, as ``_workload_sums`` reads them) and
    its length and area under the workload.

    Arrival j closes a cycle when the next gap outlasts the workload
    after_j it leaves; the rest of that gap idles into the next cycle, so
    successive cycles are i.i.d. first cycles.  A block starts at the last
    arrival of the one before, carried as an arrival at time 0 with that
    workload as its service; of the open cycle only its start, area so far
    and kept arrivals are carried, so a block peaks at about 5 floats per
    draw however long the cycle.
    """
    head = np.empty((2, 0))  # gap and service of the carried arrival
    # the open cycle: its kept epochs and deadlines, its start (in block
    # time), its area before time 0 and its arrivals so far
    kept, start, area, events = np.empty((2, 0)), 0.0, 0.0, 0
    size = min(size, _PATH_BLOCK)
    while True:
        h = head.shape[1]
        gaps = np.concatenate(
            (head[0], rng.exponential(1.0 / model.arrival_rate, size)))
        services = np.concatenate(
            (head[1], np.asarray(model.service.sample(rng, size), dtype=float)))
        n = len(gaps)
        epochs = np.cumsum(gaps)
        after, low = _free_minimum(epochs, services)
        after = after[1:]  # workload just after each arrival, in place
        after -= epochs
        after -= low[1:]
        closing = np.flatnonzero(gaps[1:] >= after[:-1])
        m = closing[-1] + 1 if len(closing) else 0  # arrivals in closed cycles
        events = (events - h if m == 0 else 0) + n - m
        if events > _EVENT_CAP:
            raise CycleTruncationError(
                f"cycle exceeded {_EVENT_CAP} events ({events} so far)")
        # each arrival but the last adds after * g - g^2 / 2 of area, with
        # g = min(gap, after) the time its workload drains (g in place of
        # the gaps, g^2 / 2 in place of the minima)
        g = np.minimum(gaps[1:], after[:-1], out=gaps[1:])
        half_sq = np.multiply(0.5, g, out=low[:n - 1])
        half_sq *= g
        g *= after[:-1]
        g -= half_sq
        g[:1] += area  # the open cycle's area before time 0
        firsts = np.concatenate(([0], closing[:-1] + 1))
        areas = np.add.reduceat(g[:m], firsts) if m else None
        begins = np.concatenate(([start], epochs[closing] + after[closing]))
        head = np.array([[0.0], [after[-1]]])
        start, area = begins[-1] - epochs[-1], g[m:].sum()
        del gaps, services, low, g, half_sq
        epochs -= np.repeat(begins, np.diff(closing, prepend=-1, append=n - 1))
        after += epochs  # each drain deadline: its epoch plus the workload after
        within = epochs <= keep
        within[:h] = False  # the carried arrival is kept already
        split = kept.shape[1] + int(within[:m].sum())
        kept = np.concatenate((kept, [epochs[within], after[within]]), axis=1)
        del epochs, after
        if m:
            counts = np.add.reduceat(within[:m], firsts, dtype=np.int64)
            counts[0] += split - counts.sum()
            block = (counts, *kept[:, :split], np.diff(begins), areas)
            kept = kept[:, split:]
            yield block


def _mean_se(s1: np.ndarray, s2: np.ndarray, reps: int):
    """Pointwise mean and its standard error from the sums of x and x^2."""
    mean = s1 / reps
    var = np.maximum(s2 - reps * mean**2, 0.0) / (reps - 1)
    return mean, np.sqrt(var / reps)


def estimate_phi(model: QueueModel, cfg: McConfig, threads: int = 1) -> Curve:
    """Monte-Carlo mean workload curve over independent replications.

    Each replication simulates the workload path on [0, horizon] from an
    empty system; per chunk, W and W^2 are summed over its replications at
    every grid point (see ``_workload_sums``), and the returned curve is
    the pointwise mean with its standard error.  Each chunk of replications
    draws from one stream, indexed by the chunk: the Poisson arrival counts
    of its rows, then all epochs, then all services.  Replications run in
    one thread; ``threads`` is accepted for compatibility and never changes
    the output.
    """
    horizon = cfg.grid.horizon
    n = cfg.grid.n_points
    total = np.zeros(n)
    total_sq = np.zeros(n)
    for lo in range(0, cfg.replications, _CHUNK):
        rng = _stream(cfg.base_seed, _DOMAIN_PHI, lo // _CHUNK)
        counts = rng.poisson(model.arrival_rate * horizon,
                             min(_CHUNK, cfg.replications - lo))
        arrivals = int(counts.sum())
        epochs = rng.uniform(0.0, horizon, arrivals)
        services = np.asarray(model.service.sample(rng, arrivals), dtype=float)
        s1, s2 = _workload_sums(_row_blocks(counts, epochs, services),
                                cfg.grid)
        total += s1  # summed per chunk, then merged in chunk order
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

    Each chunk of replications takes the first cycles of one path, drawn
    from one stream indexed by the chunk (see ``_cycle_blocks``): they are
    i.i.d. first cycles, exactly matching the definition of q(t) as the
    pre-regeneration contribution to the mean workload.  Replications run
    in one thread; ``threads`` is accepted for compatibility and never
    changes the output.
    """
    times = cfg.grid.times()
    n = cfg.grid.n_points
    q1 = np.zeros(n)
    q2 = np.zeros(n)
    lengths = []
    for lo in range(0, cfg.replications, _CHUNK):
        rng = _stream(cfg.base_seed, _DOMAIN_FIRST_CYCLE, lo // _CHUNK)
        need = min(_CHUNK, cfg.replications - lo)
        size = int(1.2 * need / (1.0 - model.rho)) + 64
        # arrivals past the grid leave W on it unchanged
        for counts, epochs, deadlines, block_lengths, _ in _cycle_blocks(
                model, rng, size, times[-1]):
            k = counts[:need].sum()  # arrivals of the cycles still needed
            s1, s2 = _workload_sums(
                [(counts[:need], epochs[:k], deadlines[:k])], cfg.grid)
            q1 += s1
            q2 += s2
            lengths.append(block_lengths[:need])
            need -= len(lengths[-1])
            if need == 0:
                break
    lengths = np.concatenate(lengths)
    reps = cfg.replications
    q_mean, q_se = _mean_se(q1, q2, reps)
    ordered = np.sort(lengths)
    above = np.searchsorted(ordered, times, side="right")
    # (zeta - t)+ and its square summed over the cycles longer than t
    s1, s2 = (np.append(np.cumsum(x[::-1])[::-1], 0.0)[above]
              for x in (ordered, ordered**2))
    longer = reps - above
    e_mean, e_se = _mean_se(
        np.maximum(s1 - times * longer, 0.0),
        np.maximum(s2 - 2.0 * times * s1 + times**2 * longer, 0.0), reps)
    return FirstCycleStats(
        q=Curve(cfg.grid, q_mean, stderr=q_se),
        excess=Curve(cfg.grid, e_mean, stderr=e_se),
        cycle_cdf=Curve(cfg.grid, above / reps),
        cycle_lengths=lengths,
    )


def estimate_stationary(model: QueueModel, horizon: float,
                        seed: int) -> tuple[float, float]:
    """Long-run time average of the workload with a regenerative stderr.

    Simulates one path from empty, cut into cycles, up to the first cycle
    that ends at or after ``horizon``; the ratio estimator
    sum(area)/sum(length) comes with the classical cycle-based standard
    error.  The path is drawn from one stream in bounded blocks (see
    ``_cycle_blocks``) of about 1.2 * arrival_rate * horizon arrivals.
    """
    cm = cycle_moments(model)
    if horizon < 1000.0 * cm.cycle_mean:
        raise ValueError(
            f"horizon {horizon:g} too short: need >= 1000 cycle means "
            f"({1000.0 * cm.cycle_mean:g})")
    rng = _stream(seed, _DOMAIN_STATIONARY, 0)
    size = int(1.2 * model.arrival_rate * horizon) + 64
    areas, lengths, elapsed = [], [], 0.0
    for *_, block_lengths, block_areas in _cycle_blocks(model, rng, size,
                                                        -math.inf):
        ends = elapsed + np.cumsum(block_lengths)
        k = int(np.searchsorted(ends, horizon)) + 1
        areas.append(block_areas[:k])
        lengths.append(block_lengths[:k])
        if k <= len(ends):
            break
        elapsed = ends[-1]
    areas, lengths = np.concatenate(areas), np.concatenate(lengths)
    n = len(areas)
    mean = areas.sum() / lengths.sum()
    centered = areas - mean * lengths
    s_d = math.sqrt(float(np.dot(centered, centered)) / (n - 1))
    stderr = s_d / (float(lengths.mean()) * math.sqrt(n))
    return mean, stderr
