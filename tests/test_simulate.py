import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transient_queue import (CyclePath, CycleTruncationError, Deterministic,
                             Exponential, HyperExponential, McConfig, Mm1Model,
                             QueueModel, TimeGrid, busy_cramer_abscissa,
                             busy_mean, cycle_moments, estimate_phi,
                             estimate_stationary, first_cycle_study, phi_exact,
                             simulate_cycle, stationary_pk, workload_at)
from transient_queue import simulate
from transient_queue.simulate import (_BLOCK_CELLS, _DOMAIN_PHI,
                                      _DOMAIN_STATIONARY, _cycle_blocks,
                                      _stream, _workload_rows)

from oracles import (cycles_by_lindley, first_cycles_by_simulate_cycle,
                     phi_by_cycle_concatenation, workload_by_lindley)

MM1 = QueueModel(0.5, Exponential(1.0))
MD1 = QueueModel(0.5, Deterministic(1.0))


def grid(step, t_max):
    return TimeGrid(step=step, n_points=int(round(t_max / step)) + 1)


def reconstruct_workload(path, times):
    return np.array([workload_at(path, float(t)) for t in times])


def one_row(epochs, services, times):
    """W at ``times`` of one path, read through the block kernel."""
    return next(_workload_rows(np.array([len(epochs)]), epochs, services, times))[0]


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
    """(counts, epochs, services, lengths, areas) of every cycle that
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
        # ends exactly empty, nonnegative throughout
        assert workload_at(path, path.cycle_length) == 0.0
        ts = np.linspace(0.0, path.cycle_length, 50)
        assert np.all(reconstruct_workload(path, ts) >= 0.0)


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


# ----------------------------------------------------------- workload_at

def test_workload_at_handcrafted_path():
    path = CyclePath(epochs=np.array([2.0]), services=np.array([1.5]),
                     cycle_length=3.5, busy_length=1.5)
    assert workload_at(path, 0.0) == 0.0
    assert workload_at(path, 1.99) == 0.0
    assert workload_at(path, 2.0) == pytest.approx(1.5)
    assert workload_at(path, 2.75) == pytest.approx(0.75)
    assert workload_at(path, 3.5) == 0.0
    assert workload_at(path, 10.0) == 0.0
    with pytest.raises(ValueError):
        workload_at(path, -0.1)


def test_workload_at_two_arrivals():
    path = CyclePath(epochs=np.array([1.0, 1.5]), services=np.array([2.0, 1.0]),
                     cycle_length=4.0, busy_length=3.0)
    assert workload_at(path, 1.0) == pytest.approx(2.0)
    assert workload_at(path, 1.5) == pytest.approx(2.5)  # 1.5 left + 1 new
    assert workload_at(path, 3.0) == pytest.approx(1.0)
    assert workload_at(path, 3.9999) == pytest.approx(0.0001, abs=1e-9)


# ------------------------------------------------------- workload kernel

def test_kernel_handcrafted_path_with_two_busy_periods():
    epochs = np.array([1.0, 1.5, 6.0])
    services = np.array([2.0, 1.0, 0.5])
    times = np.array([1.0, 1.5, 4.0, 5.0, 6.0, 6.25, 7.0])
    w = one_row(epochs, services, times)
    assert w == pytest.approx([2.0, 2.5, 0.0, 0.0, 0.5, 0.25, 0.0], abs=1e-15)


def test_kernel_empty_path_is_zero():
    times = np.linspace(0.0, 5.0, 11)
    w = one_row(np.empty(0), np.empty(0), times)
    assert np.array_equal(w, np.zeros(11))


@settings(max_examples=60, deadline=None)
@given(arrivals=st.lists(st.tuples(st.floats(0.01, 5.0), st.floats(0.01, 3.0)),
                         max_size=30))
def test_kernel_matches_lindley_walk(arrivals):
    # (gap, service) pairs: gaps up to 5 against services up to 3 leave idle
    # periods between busy periods
    gaps, services = np.array(arrivals).reshape(-1, 2).T
    epochs = np.cumsum(gaps)
    end = gaps.sum() + services.sum() + 1.0
    times = np.sort(np.concatenate((np.linspace(0.0, end, 97), epochs)))
    np.testing.assert_allclose(one_row(epochs, services, times),
                               workload_by_lindley(epochs, services, times),
                               rtol=0.0, atol=1e-12)


PHI_TIMES = TimeGrid(step=0.05, n_points=801).times()  # 40 rows per block
ON_GRID = st.integers(0, 800).map(lambda i: float(PHI_TIMES[i]))


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.lists(st.tuples(st.one_of(ON_GRID, st.floats(0.0, 40.0)),
                                        st.floats(0.01, 3.0)),
                              max_size=30),
                     min_size=1, max_size=100))
@example(rows=[[(float(PHI_TIMES[(37 * r + 5 * j) % 801]), 0.5 + j)
                for j in range(r % 4)] for r in range(100)])
def test_workload_rows_match_lindley_walk(rows):
    # (epoch, service) pairs per row, rows of 0-30 arrivals, some epochs
    # exactly on grid points; up to 100 rows span several blocks
    rows = [sorted(row) for row in rows]
    counts = np.array([len(row) for row in rows])
    flat = [pair for row in rows for pair in row]
    epochs = np.array([e for e, _ in flat], dtype=float)
    services = np.array([s for _, s in flat], dtype=float)
    blocks = list(_workload_rows(counts, epochs, services, PHI_TIMES))
    per_block = _BLOCK_CELLS // len(PHI_TIMES)
    assert [len(b) for b in blocks[:-1]] == [per_block] * (len(blocks) - 1)
    w = np.vstack(blocks)
    assert w.shape == (len(rows), len(PHI_TIMES))
    for r, row in enumerate(rows):
        e = np.array([a for a, _ in row], dtype=float)
        s = np.array([b for _, b in row], dtype=float)
        np.testing.assert_allclose(w[r], workload_by_lindley(e, s, PHI_TIMES),
                                   rtol=0.0, atol=1e-12)


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
    counts, epochs, served, lengths, areas = cut(gaps, services, 5)
    assert counts.tolist() == [2, 1, 1]
    assert epochs.tolist() == [1.0, 1.5, 1.5, 1.5]
    assert served.tolist() == [2.0, 1.0, 0.5, 0.5]
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
    times = np.linspace(0.0, 30.0, 121)
    counts, epochs, served, lengths, areas = cut(gaps, services, 8, times[-1])
    want_areas, want_lengths = cycles_by_lindley(gaps, services)
    assert max(lengths) > 10 * 8 / 0.9 and len(lengths) > 100
    np.testing.assert_allclose(areas, want_areas, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(lengths, want_lengths, rtol=1e-12, atol=1e-12)
    # W of each cycle from its kept arrivals against a walk over the whole
    # path, on the grid inside the cycle; 0 from the cycle end on
    abs_epochs = np.cumsum(gaps)
    begins = np.concatenate(([0.0], np.cumsum(want_lengths)[:-1]))
    rows = np.vstack(list(_workload_rows(counts.astype(int), epochs, served,
                                         times)))
    for row, begin, length in zip(rows, begins, want_lengths):
        inside = times < length
        want = workload_by_lindley(abs_epochs, services, begin + times[inside])
        np.testing.assert_allclose(row[inside], want, rtol=0.0, atol=1e-12)
        assert np.all(row[~inside] == 0.0)


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
    with pytest.raises(ValueError, match="base_seed"):
        McConfig(10, -1, grid(0.5, 5.0))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_workload_reconstruction_nonnegative(seed):
    rng = np.random.default_rng(seed)
    path = simulate_cycle(MM1, rng)
    ts = np.linspace(0.0, path.cycle_length * 1.1, 64)
    w = reconstruct_workload(path, ts)
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
