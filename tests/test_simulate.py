import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transient_queue import (CycleTruncationError, Deterministic, Exponential,
                             HyperExponential, McConfig, Mm1Model,
                             QueueModel, TimeGrid, busy_cramer_abscissa,
                             busy_mean, cycle_moments, estimate_phi,
                             estimate_stationary, first_cycle_study,
                             parse_service_spec, phi_exact, simulate_cycle,
                             stationary_pk)
from transient_queue import simulate
from transient_queue.simulate import (_DOMAIN_PHI, _DOMAIN_STATIONARY, _cells,
                                      _cycle_blocks, _row_blocks, _stream,
                                      _workload_sums)

from oracles import (cycles_by_lindley, first_cycles_by_simulate_cycle,
                     phi_by_cycle_concatenation, rbm_mean_ratio,
                     workload_by_lindley)

MM1 = QueueModel(0.5, Exponential(1.0))
MD1 = QueueModel(0.5, Deterministic(1.0))


def grid(step, t_max):
    return TimeGrid(step=step, n_points=int(round(t_max / step)) + 1)


def read_row(blocks, on):
    """W on the grid ``on`` of the one path in ``blocks``, read through the
    kernel, whose sum over one path is W itself and whose sum of squares is
    W^2 (to rounding at the scale of the grid times within a window, not
    of W^2)."""
    w, w2 = _workload_sums(blocks, on)
    np.testing.assert_allclose(w2, w * w, rtol=1e-12, atol=1e-12)
    assert np.all(w2 >= 0.0)
    return w


def one_row(epochs, services, on):
    """W on the grid ``on`` of one path given by its arrivals."""
    return read_row(_row_blocks(np.array([len(epochs)]),
                                np.asarray(epochs, dtype=float),
                                np.asarray(services, dtype=float)), on)


class ReplayExhausted(Exception):
    pass


class Replay:
    """Stands in for the generator of ``_cycle_blocks`` on an M/M/1 model,
    whose gaps and services both come from ``exponential``: hands out the
    given gaps and services in turn, in the sizes asked for, and raises
    ReplayExhausted once either runs out."""

    def __init__(self, gaps, services):
        self.draws = (np.asarray(gaps, dtype=float),
                      np.asarray(services, dtype=float))
        self.sizes = []

    def exponential(self, scale, size):
        which = len(self.sizes) % 2
        lo = sum(self.sizes[which::2])
        self.sizes.append(size)
        if lo + size > len(self.draws[which]):
            raise ReplayExhausted
        return self.draws[which][lo:lo + size]


def cut(gaps, services, size, keep=math.inf):
    """(counts, epochs, deadlines, lengths, areas) of every cycle that
    ``_cycle_blocks`` closes on the given draws, in blocks of ``size``."""
    blocks = []
    with pytest.raises(ReplayExhausted):
        for block in _cycle_blocks(MM1, Replay(gaps, services), size, keep):
            blocks.append(block)
    empty = ([],) * 5  # so that no closed cycle gives five empty arrays
    return [np.concatenate(part) for part in zip(empty, *blocks)]


# ---------------------------------------------------------------- cycles

def test_cycle_structure():
    rng = np.random.default_rng(21)
    for _ in range(200):
        path = simulate_cycle(MM1, rng)
        assert path.epochs[0] > 0
        assert np.all(np.diff(path.epochs) > 0)
        assert path.busy_length == pytest.approx(
            path.cycle_length - path.epochs[0], abs=1e-12)
        # nonnegative throughout, empty at the cycle end and after it
        w = one_row(path.epochs, path.services,
                    TimeGrid(path.cycle_length / 49, 51))
        assert np.all(w >= 0.0)
        assert w[49] == pytest.approx(0.0, abs=1e-12)
        assert w[50] == 0.0


def test_single_arrival_cycles_have_unit_busy_period():
    rng = np.random.default_rng(33)
    seen = 0
    for _ in range(500):
        path = simulate_cycle(MD1, rng)
        if len(path.epochs) == 1:
            assert path.busy_length == pytest.approx(1.0, abs=1e-12)
            seen += 1
    assert seen > 100  # at rho=0.5 most cycles hold a single customer


def test_cycle_means_match_analytics():
    rng = np.random.default_rng(4)
    n = 100_000
    busy = np.empty(n)
    total = np.empty(n)
    for i in range(n):
        path = simulate_cycle(MM1, rng)
        busy[i] = path.busy_length
        total[i] = path.cycle_length
    se_busy = busy.std(ddof=1) / math.sqrt(n)
    se_total = total.std(ddof=1) / math.sqrt(n)
    assert abs(busy.mean() - busy_mean(MM1)) <= 3 * se_busy
    assert abs(total.mean() - cycle_moments(MM1).cycle_mean) <= 3 * se_total


def test_cycle_tail_is_exponential_not_heavy():
    lengths = first_cycle_study(
        MM1, McConfig(200_000, 77, grid(0.5, 10.0))).cycle_lengths
    absc = busy_cramer_abscissa(MM1, tol=1e-4)
    ts = np.array([8.0, 12.0, 16.0, 20.0, 24.0])
    log_surv = np.log(np.array([(lengths > t).mean() for t in ts]))
    assert np.all(np.diff(log_surv) < 0)
    slopes = np.diff(log_surv) / np.diff(ts)
    # light (Cramer) tail: the chord slopes stay below -abscissa/2
    assert np.all(slopes <= -absc / 2)


# ------------------------------------------------------- workload kernel

def test_one_row_handcrafted_path():
    # one arrival at 2 with service 1.5, on the grid 0, 0.25, ..., 10
    w = one_row([2.0], [1.5], grid(0.25, 10.0))
    t = grid(0.25, 10.0).times()
    want = np.where(t >= 2.0, np.maximum(3.5 - t, 0.0), 0.0)
    assert np.array_equal(w, want)
    assert w[8] == 1.5 and w[11] == 0.75 and w[14] == 0.0


def test_one_row_two_arrivals():
    w = one_row([1.0, 1.5], [2.0, 1.0], grid(0.5, 5.0))
    # 1.5 left of the first service plus 1 new at 1.5, then drained by 4
    assert w == pytest.approx([0, 0, 2.0, 2.5, 2.0, 1.5, 1.0, 0.5, 0, 0, 0],
                              abs=1e-15)


def test_kernel_handcrafted_path_with_two_busy_periods():
    epochs = np.array([1.0, 1.5, 6.0])
    services = np.array([2.0, 1.0, 0.5])
    w = one_row(epochs, services, grid(0.25, 7.0))
    at = [4, 6, 16, 20, 24, 25, 28]  # t = 1, 1.5, 4, 5, 6, 6.25, 7
    assert w[at] == pytest.approx([2.0, 2.5, 0.0, 0.0, 0.5, 0.25, 0.0],
                                  abs=1e-15)


def test_kernel_empty_path_is_zero():
    w = one_row(np.empty(0), np.empty(0), grid(0.5, 5.0))
    assert np.array_equal(w, np.zeros(11))


def lindley_sums(rows, times):
    """Sums over rows of W and W^2 by the oracle's walk, row by row."""
    walks = [workload_by_lindley(np.array([e for e, _ in row], dtype=float),
                                 np.array([s for _, s in row], dtype=float),
                                 times) for row in rows]
    walks = np.array(walks).reshape(len(rows), len(times))
    return walks.sum(axis=0), (walks * walks).sum(axis=0)


def kernel_sums(rows, on):
    counts = np.array([len(row) for row in rows], dtype=np.int64)
    flat = [pair for row in rows for pair in row]
    epochs = np.array([e for e, _ in flat], dtype=float)
    services = np.array([s for _, s in flat], dtype=float)
    return _workload_sums(_row_blocks(counts, epochs, services), on)


@settings(max_examples=60, deadline=None)
@given(arrivals=st.lists(st.tuples(st.floats(0.01, 5.0), st.floats(0.01, 3.0)),
                         max_size=30))
def test_kernel_matches_lindley_walk(arrivals):
    # (gap, service) pairs: gaps up to 5 against services up to 3 leave idle
    # periods between busy periods
    gaps, services = np.array(arrivals).reshape(-1, 2).T
    epochs = np.cumsum(gaps)
    on = TimeGrid((gaps.sum() + services.sum() + 1.0) / 96, 97)
    np.testing.assert_allclose(one_row(epochs, services, on),
                               workload_by_lindley(epochs, services, on.times()),
                               rtol=0.0, atol=1e-12)


PHI_GRID = TimeGrid(step=0.05, n_points=801)
PHI_TIMES = PHI_GRID.times()
ON_GRID = st.integers(0, 800).map(lambda i: float(PHI_TIMES[i]))


def epochs_sorted(row):
    """The row the kernel walks: epochs sorted by the row-block helper,
    each service left in its place."""
    return list(zip(sorted(e for e, _ in row), [s for _, s in row]))


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.lists(st.tuples(st.one_of(ON_GRID, st.floats(0.0, 45.0)),
                                        st.floats(0.01, 3.0)),
                              max_size=30),
                     min_size=1, max_size=100),
       slots=st.sampled_from([1, 7, 64, 2**15]))
@example(rows=[[(float(PHI_TIMES[(37 * r + 5 * j) % 801]), 0.5 + j)
                for j in range(r % 4)] for r in range(100)], slots=64)
def test_workload_sums_match_lindley_walk(rows, slots):
    # (epoch, service) pairs per row, rows of 0-30 arrivals, some epochs
    # exactly on grid points and some past the last one; blocks of as few
    # as one row; unsorted rows sorted by the row-block helper
    walked = [epochs_sorted(row) for row in rows]
    want = lindley_sums(walked, PHI_TIMES)
    saved = simulate._BLOCK_SLOTS
    simulate._BLOCK_SLOTS = slots
    try:
        sorted_here = kernel_sums(rows, PHI_GRID)
        presorted = kernel_sums(walked, PHI_GRID)
    finally:
        simulate._BLOCK_SLOTS = saved
    for got, w in zip((*sorted_here, *presorted), want + want):
        np.testing.assert_allclose(got, w, rtol=1e-12, atol=1e-11)
        assert np.all(got >= 0.0)


def test_workload_sums_edge_cells():
    # one row per edge of the cell rule, on the grid 0, 0.25, ..., 4
    on = TimeGrid(step=0.25, n_points=17)
    rows = [
        [(0.3, 0.5), (0.4, 0.25)],  # two arrivals in one cell
        [(1.0, 0.6)],               # an arrival on a grid point
        [(0.5, 1.0)],               # a deadline (1.5) on a grid point
        [],                         # an empty row
        [(3.9, 1.0), (4.5, 2.0)],   # runs past the grid; one arrival past it
    ]
    w = np.zeros((len(rows), 17))
    w[0, 2:5] = [1.05 - 0.5, 1.05 - 0.75, 1.05 - 1.0]
    w[1, 4:7] = [0.6, 0.35, 0.1]
    w[2, 2:6] = [1.0, 0.75, 0.5, 0.25]
    w[4, 16] = 0.9
    got1, got2 = kernel_sums(rows, on)
    want1, want2 = lindley_sums(rows, on.times())
    for got, want in ((got1, w.sum(axis=0)), (got2, (w * w).sum(axis=0)),
                      (got1, want1), (got2, want2)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    # exact zeros: before the first arrival, at the deadline on t = 1.5
    # (row 2's), and wherever no row is busy
    assert np.array_equal(got1 == 0, w.sum(axis=0) == 0)
    assert np.array_equal(got2 == 0, w.sum(axis=0) == 0)
    # a block whose every row is empty
    got1, got2 = kernel_sums([[], [], []], on)
    assert np.array_equal(got1, np.zeros(17))
    assert np.array_equal(got2, np.zeros(17))


def test_workload_sums_long_horizon():
    # rho = 0.9 to t = 400 at step 0.05: E W^2 is about 180 while t^2 runs
    # to 1.6e5, where sum W^2 = c2 - 2 t c1 + t^2 c0 would lose digits
    on = TimeGrid(step=0.05, n_points=8001)
    rng = np.random.default_rng(90)
    counts = rng.poisson(0.9 * on.horizon, 24)
    epochs = rng.uniform(0.0, on.horizon, counts.sum())
    services = rng.exponential(1.0, counts.sum())
    got1, got2 = _workload_sums(_row_blocks(counts, epochs, services), on)
    ends = np.cumsum(counts)
    rows = [list(zip(np.sort(epochs[end - c:end]), services[end - c:end]))
            for c, end in zip(counts, ends)]
    want1, want2 = lindley_sums(rows, on.times())
    busy = want1 > 0
    assert busy[-1] and busy.mean() > 0.99
    for got, want in ((got1, want1), (got2, want2)):
        assert np.all(got[~busy] == 0.0)
        assert np.all(np.abs(got[busy] - want[busy]) <= 1e-10 * want[busy])


def test_workload_sums_keep_digits_where_few_rows_cover():
    # 1000 rows busy only near t = 0, then one row alone to t = 40 with W
    # below 1: summed from t = 0, the early rows' rounding in D and D^2
    # would carry into the late cells and move sum W^2 there by ~1e-8
    on = TimeGrid(step=0.05, n_points=801)
    rng = np.random.default_rng(7)
    rows = [sorted(zip(rng.uniform(0.0, 2.0, 3), rng.exponential(1.0, 3)))
            for _ in range(1000)]
    rows.append(list(zip(np.arange(0.0, 40.0, 0.8) + 0.013,
                         rng.uniform(0.7, 0.9, 50))))
    got1, got2 = kernel_sums(rows, on)
    want1, want2 = lindley_sums(rows, on.times())
    busy = want1 > 0
    assert busy[-1]
    for got, want in ((got1, want1), (got2, want2)):
        assert np.all(got[~busy] == 0.0)
        assert np.all(np.abs(got[busy] - want[busy]) <= 1e-10 * want[busy])


def test_workload_sums_square_floored_at_zero():
    # seven one-arrival rows whose deadlines lie within 1e-9 past t = 34:
    # there sum W^2 is about 1e-19, and c2 - 2 t c1 + t^2 c0 came out at
    # -1.1e-16 before the floor
    on = TimeGrid(step=0.05, n_points=801)
    epochs = [9.17274826797159, 1.3930998138306194, 0.5619396079699892,
              27.651188132809263, 31.033689627442538, 20.625616376084114,
              24.802883073455945]
    services = [24.827251732030234, 32.60690018657717, 33.438060392108554,
                6.3488118671907365, 2.9663103726969133, 13.374383623915886,
                9.19711692656793]
    got1, got2 = kernel_sums([[pair] for pair in zip(epochs, services)], on)
    assert 0.0 < got1[680] < 1e-9
    assert np.all(got2 >= 0.0)
    assert got2[680] <= 1e-15


@pytest.mark.parametrize("step", [0.05, 0.02, 0.1, 1 / 3])
def test_cells_are_searchsorted(step):
    times = TimeGrid(step=step, n_points=4001).times()
    x = np.concatenate((times, np.nextafter(times, -np.inf),
                        np.nextafter(times, np.inf),
                        np.random.default_rng(1).uniform(-1.0, 1.1 * times[-1],
                                                         10**5)))
    points = np.append(times, np.inf)
    assert np.array_equal(_cells(points, step, x), np.searchsorted(times, x))


# ---------------------------------------------------------- estimate_phi

def test_estimate_phi_at_zero():
    curve = estimate_phi(MM1, McConfig(500, 1, grid(0.5, 5.0)))
    assert curve.values[0] == 0.0
    assert curve.stderr[0] == 0.0


def test_estimate_phi_matches_exact_series():
    cfg = McConfig(20_000, 42, grid(0.5, 25.0))
    curve = estimate_phi(MM1, cfg)
    mm = Mm1Model(0.5, 1.0)
    for t in (2.0, 20.0):
        i = int(round(t / 0.5))
        z = abs(curve.values[i] - phi_exact(mm, t)) / curve.stderr[i]
        assert z <= 3.0, f"t={t}: z={z:.2f}"


def test_estimate_phi_reproducible_and_thread_independent():
    cfg = McConfig(3_000, 987, grid(0.25, 10.0))
    a = estimate_phi(MM1, cfg)
    b = estimate_phi(MM1, cfg)
    c = estimate_phi(MM1, cfg, threads=3)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.values, c.values)
    assert np.array_equal(a.stderr, c.stderr)


def test_estimate_phi_vs_cycle_concatenation_oracle():
    # same law from a completely different path construction
    cfg = McConfig(8_000, 5150, grid(1.0, 12.0))
    fast = estimate_phi(MM1, cfg)
    slow = phi_by_cycle_concatenation(MM1, cfg)
    se = np.sqrt(fast.stderr**2 + slow.stderr**2)[1:]
    z = np.abs(fast.values[1:] - slow.values[1:]) / se
    assert z.max() <= 4.0
    assert np.mean(z <= 3.0) >= 0.9


@pytest.mark.parametrize("spec, rho", [("det:value=1", 0.9),
                                       ("det:value=1", 0.95),
                                       ("hyperexp:w=0.5|0.5,rate=0.6|3", 0.9)])
def test_estimate_phi_approaches_the_rbm_mean_in_heavy_traffic(spec, rho):
    # on the time scale s = lam E S^2 / (1 - rho)^2, phi / phi_inf tends to
    # the reflected Brownian motion's H_1(tau) as rho -> 1; as for M/M/1 in
    # test_mm1, it sits below H_1 by at most 0.5 (1 - rho), here to 4 SE
    service = parse_service_spec(spec)
    model = QueueModel(rho / service.moment(1), service)
    s = model.arrival_rate * service.moment(2) / (1.0 - rho) ** 2
    curve = estimate_phi(model, McConfig(4_000, 1, TimeGrid(0.2 * s, 11)))
    phi_inf = stationary_pk(model)
    for i in (1, 5, 10):  # tau = 0.2, 1, 2
        err = curve.values[i] / phi_inf - rbm_mean_ratio(0.2 * i)
        slack = 4.0 * curve.stderr[i] / phi_inf
        assert -0.5 * (1.0 - rho) - slack <= err <= slack, (i, err, slack)


# ----------------------------------------------------- first_cycle_study

@pytest.fixture(scope="module")
def mm1_study():
    return first_cycle_study(MM1, McConfig(150_000, 1312, grid(0.25, 50.0)))


def test_q_at_zero(mm1_study):
    assert mm1_study.q.values[0] == 0.0


def test_q_below_excess_pathwise(mm1_study):
    study = mm1_study
    assert np.all(study.q.values <= study.excess.values + 1e-12)
    combined = np.sqrt(study.q.stderr**2 + study.excess.stderr**2)
    assert np.all(study.q.values
                  <= study.excess.values + 3 * combined + 1e-12)


def test_q_negligible_past_extreme_quantile(mm1_study):
    study = mm1_study
    t99 = float(np.quantile(study.cycle_lengths, 0.9999))
    idx = np.searchsorted(study.q.times(), t99)
    if idx < study.q.grid.n_points:
        tail_max = study.q.values[idx:].max()
        assert tail_max <= 0.005 * study.q.values.max() + 5e-3


def test_excess_at_zero_is_cycle_mean(mm1_study):
    study = mm1_study
    cm = cycle_moments(MM1)
    z = abs(study.excess.values[0] - cm.cycle_mean) / study.excess.stderr[0]
    assert z <= 3.0


def test_empirical_cdf_properties(mm1_study):
    F = mm1_study.cycle_cdf.values
    assert F[0] == 0.0
    assert np.all(np.diff(F) >= 0)
    assert F[-1] <= 1.0
    # median of the simulated cycle CDF should be far below the mean (skew)
    t = mm1_study.cycle_cdf.times()
    median = t[np.searchsorted(F, 0.5)]
    assert median < cycle_moments(MM1).cycle_mean


# ----------------------------------------------------- estimate_stationary

def test_stationary_mm1():
    mean, se = estimate_stationary(MM1, 100_000.0, seed=8)
    assert abs(mean - stationary_pk(MM1)) <= 3 * se


def test_stationary_md1():
    mean, se = estimate_stationary(MD1, 100_000.0, seed=8)
    assert abs(mean - 0.5) <= 3 * se


def test_stationary_light_load():
    model = QueueModel(0.01, Exponential(1.0))
    target = stationary_pk(model)
    assert target == pytest.approx(0.01 / (2 * 0.99) * 2)
    mean, se = estimate_stationary(model, 120_000.0, seed=77)
    assert abs(mean - target) <= 3 * se


def test_cycles_handcrafted_path():
    gaps = np.array([1.0, 0.5, 4.0, 2.0, 10.0])
    services = np.array([2.0, 1.0, 0.5, 0.5, 1.0])
    # busy from 1 to 4 (area 0.875 + 3.125), then from 5.5 to 6, 7.5 to 8;
    # the last arrival's next gap is not drawn: its cycle stays open
    counts, epochs, deadlines, lengths, areas = cut(gaps, services, 5)
    assert counts.tolist() == [2, 1, 1]
    assert epochs.tolist() == [1.0, 1.5, 1.5, 1.5]
    assert deadlines.tolist() == [3.0, 4.0, 2.0, 2.0]
    assert lengths.tolist() == [4.0, 2.0, 2.0]
    assert areas.tolist() == [4.0, 0.125, 0.125]
    # in blocks of one arrival each cycle spans blocks; keep=1.0 leaves
    # only the arrivals within 1 of their cycle start
    counts, epochs, _, lengths, areas = cut(gaps, services, 1, keep=1.0)
    assert counts.tolist() == [1, 0, 0]
    assert epochs.tolist() == [1.0]
    assert lengths.tolist() == [4.0, 2.0, 2.0]
    assert areas.tolist() == [4.0, 0.125, 0.125]
    # a gap exactly as long as the workload closes the cycle
    _, _, _, lengths, areas = cut([1.0, 2.0], [2.0, 1.0], 2)
    assert areas.tolist() == [2.0]
    assert lengths.tolist() == [3.0]


EIGHTHS = st.integers(0, 40).map(lambda k: k / 8)


@settings(max_examples=80, deadline=None)
@given(pairs=st.lists(st.tuples(EIGHTHS, EIGHTHS.filter(lambda v: v > 0)),
                      min_size=1, max_size=60),
       size=st.integers(1, 60))
def test_cycles_match_lindley_cycles(pairs, size):
    # multiples of 1/8 keep every sum exact, so ties between a gap and the
    # workload break the same way in both
    gaps, services = np.array(pairs).T
    used = len(gaps) // size * size
    got = cut(gaps, services, size)
    want = cycles_by_lindley(gaps[:used], services[:used]) if used else ([], [])
    np.testing.assert_allclose(got[4], want[0], rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(got[3], want[1], rtol=1e-9, atol=0.0)


def test_cycles_match_lindley_cycles_on_a_long_path():
    rng = np.random.default_rng(3)
    gaps = rng.exponential(2.0, 500)
    services = rng.gamma(2.0, 0.8, 500)
    _, _, _, lengths, areas = cut(gaps, services, 100)
    want_areas, want_lengths = cycles_by_lindley(gaps, services)
    assert len(areas) > 100
    np.testing.assert_allclose(areas, want_areas, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(lengths, want_lengths, rtol=1e-9, atol=0.0)


def test_cycle_blocks_carry_the_open_cycle():
    # blocks of 8 arrivals at rho = 0.9: most block boundaries fall inside a
    # cycle, and long cycles span several blocks (the path stays short
    # enough for the walk's absolute times to keep 1e-12)
    rng = np.random.default_rng(2718)
    gaps = rng.exponential(1.0 / 0.9, 1600)
    services = rng.exponential(1.0, 1600)
    on = TimeGrid(0.25, 121)
    times = on.times()
    counts, epochs, deadlines, lengths, areas = cut(gaps, services, 8,
                                                    times[-1])
    want_areas, want_lengths = cycles_by_lindley(gaps, services)
    assert max(lengths) > 10 * 8 / 0.9 and len(lengths) > 100
    np.testing.assert_allclose(areas, want_areas, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(lengths, want_lengths, rtol=1e-12, atol=1e-12)
    # W of each cycle from its kept epochs and deadlines against a walk
    # over the whole path, on the grid inside the cycle; 0 from the cycle
    # end on
    abs_epochs = np.cumsum(gaps)
    begins = np.concatenate(([0.0], np.cumsum(want_lengths)[:-1]))
    counts = counts.astype(int)
    for end, count, begin, length in zip(np.cumsum(counts), counts, begins,
                                         want_lengths):
        row = read_row([(np.array([count]), epochs[end - count:end],
                         deadlines[end - count:end])], on)
        inside = times < length
        want = workload_by_lindley(abs_epochs, services, begin + times[inside])
        np.testing.assert_allclose(row[inside], want, rtol=0.0, atol=1e-12)
        assert np.all(row[~inside] == 0.0)


def test_simulate_cycle_event_cap(monkeypatch):
    class Short:
        """Every gap 0.01, so no arrival finds the server idle."""

        def exponential(self, scale):
            return 0.01

    monkeypatch.setattr(simulate, "_EVENT_CAP", 5)
    with pytest.raises(CycleTruncationError, match="exceeded 5 events"):
        simulate_cycle(MD1, Short())


def test_cycles_event_cap(monkeypatch):
    monkeypatch.setattr(simulate, "_EVENT_CAP", 5)
    rng = Replay(np.full(20, 0.01), np.ones(20))
    with pytest.raises(CycleTruncationError):
        next(_cycle_blocks(MM1, rng, 4, math.inf))
    # the four events of the first block are below the cap, the eight
    # after the second are not
    assert rng.sizes == [4, 4, 4, 4]


def test_stationary_extends_the_draws():
    # a rare long service makes the cycle at the horizon outrun the first
    # block of draws, so the stream is read on for a second block that
    # carries the open cycle
    model = QueueModel(0.8, HyperExponential((0.99, 0.01), (100.0, 0.0125)))
    horizon = 1000.0 * cycle_moments(model).cycle_mean
    size = int(1.2 * model.arrival_rate * horizon) + 64
    rng = _stream(4, _DOMAIN_STATIONARY, 0)
    gaps = rng.exponential(1.0 / model.arrival_rate, size)
    services = model.service.sample(rng, size)
    _, lengths = cycles_by_lindley(gaps, services)
    assert lengths.sum() < horizon
    gaps = np.concatenate((gaps, rng.exponential(1.0 / model.arrival_rate, size)))
    services = np.concatenate((services, model.service.sample(rng, size)))
    areas, lengths = cycles_by_lindley(gaps, services)
    k = int(np.searchsorted(np.cumsum(lengths), horizon)) + 1
    assert k <= len(lengths)
    areas, lengths = areas[:k], lengths[:k]
    ratio = areas.sum() / lengths.sum()
    centered = areas - ratio * lengths
    se = (math.sqrt(np.dot(centered, centered) / (len(areas) - 1))
          / (lengths.mean() * math.sqrt(len(areas))))
    mean, stderr = estimate_stationary(model, horizon, seed=4)
    assert mean == pytest.approx(ratio, rel=1e-9)
    assert stderr == pytest.approx(se, rel=1e-9)


def test_stationary_horizon_guard():
    with pytest.raises(ValueError, match="horizon"):
        estimate_stationary(MM1, 100.0, seed=1)


def test_phi_tail_agrees_with_stationary():
    cfg = McConfig(30_000, 4242, grid(1.0, 40.0))
    curve = estimate_phi(MM1, cfg)
    mean, se = estimate_stationary(MM1, 100_000.0, seed=4242)
    combined = math.sqrt(curve.stderr[-1] ** 2 + se**2)
    assert abs(curve.values[-1] - mean) <= 3 * combined


# ------------------------------------------------------------- validation

def test_mcconfig_validation():
    with pytest.raises(ValueError):
        McConfig(0, 1, grid(0.5, 5.0))
    # one replication has no standard error
    with pytest.raises(ValueError, match="replications must be >= 2"):
        McConfig(1, 1, grid(0.5, 5.0))
    with pytest.raises(ValueError, match="base_seed"):
        McConfig(10, -1, grid(0.5, 5.0))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_workload_reconstruction_nonnegative(seed):
    rng = np.random.default_rng(seed)
    path = simulate_cycle(MM1, rng)
    w = one_row(path.epochs, path.services,
                TimeGrid(path.cycle_length * 1.1 / 63, 64))
    assert np.all(w >= 0.0)
    assert w[-1] == 0.0


def test_streams_are_distinct():
    a = _stream(1, _DOMAIN_PHI, 0).random(4)
    b = _stream(1, _DOMAIN_PHI, 1).random(4)
    c = _stream(2, _DOMAIN_PHI, 0).random(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("base", [0, 2**32 - 1, 2**32, 2**64 + 5])
def test_stream_is_seed_sequence_of_the_triple(base):
    for domain, index in ((1, 0), (2, 7), (3, 2**33 + 1)):
        want = np.random.default_rng(
            np.random.SeedSequence([base, domain, index]))
        got = _stream(base, domain, index)
        assert np.array_equal(got.random(8), want.random(8))
        assert got.bit_generator.state == want.bit_generator.state


def test_stream_rejects_negative_seed():
    with pytest.raises(ValueError):
        _stream(-1, _DOMAIN_PHI, 0)
    with pytest.raises(ValueError):
        _stream(1, _DOMAIN_PHI, -1)


def test_first_cycle_study_vs_simulate_cycle_oracle():
    # same law from one cycle per stream, simulated event by event
    cfg = McConfig(8_000, 6160, grid(0.5, 12.0))
    study = first_cycle_study(MM1, cfg)
    q, excess, cdf = first_cycles_by_simulate_cycle(MM1, cfg)
    reps = cfg.replications
    pairs = (
        (study.q.values, study.q.stderr, q.values, q.stderr),
        (study.excess.values, study.excess.stderr, excess.values, excess.stderr),
        (study.cycle_cdf.values,
         np.sqrt(study.cycle_cdf.values * (1 - study.cycle_cdf.values) / reps),
         cdf.values, np.sqrt(cdf.values * (1 - cdf.values) / reps)),
    )
    for fast, fast_se, slow, slow_se in pairs:
        se = np.hypot(fast_se, slow_se)
        assert np.array_equal(fast[se == 0], slow[se == 0])
        z = np.abs(fast - slow)[se > 0] / se[se > 0]
        assert z.max() <= 4.0
        assert np.mean(z <= 3.0) >= 0.9


def test_heavy_traffic_memory_stays_bounded():
    # at rho = 0.999 a cycle averages 1000 time units and its length has a
    # heavy tail; neither estimator may hold a whole path in memory
    model = QueueModel(0.999, Exponential(1.0))
    tracemalloc.start()
    try:
        mean, se = estimate_stationary(
            model, 1000.0 * cycle_moments(model).cycle_mean, seed=11)
        stationary_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        study = first_cycle_study(model, McConfig(1024, 11, grid(2.0, 100.0)))
        study_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(mean) and math.isfinite(se) and se > 0
    for curve in (study.q, study.excess, study.cycle_cdf):
        assert np.all(np.isfinite(curve.values))
    assert np.all(np.isfinite(study.cycle_lengths))
    assert stationary_peak < 64 * 2**20
    assert study_peak < 64 * 2**20
