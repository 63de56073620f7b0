import errno
import functools
import gc
import os
import stat
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transient_queue import (Curve, Erlang, Exponential, McConfig,
                             QueueModel, TimeGrid, cycle_moments,
                             first_cycle_study, parse_service_spec,
                             phi_via_renewal, read_curve_csv,
                             renewal_function, renewal_residual,
                             write_curve_csv)
from transient_queue.renewal import COARSE_GRID_WARNING

from oracles import (erlang2_renewal, phi_by_midpoint_sums, poisson_renewal,
                     renewal_by_recursion)


def make_grid(step, t_max):
    return TimeGrid(step=step, n_points=int(round(t_max / step)) + 1)


@pytest.fixture(scope="module")
def poisson_case():
    grid = make_grid(0.01, 10.0)
    t = grid.times()
    F = Curve(grid, Exponential(1.0).cdf(t))
    return F, renewal_function(F)


@pytest.fixture(scope="module")
def erlang_case():
    grid = make_grid(0.01, 10.0)
    t = grid.times()
    F = Curve(grid, Erlang(2, 1.0).cdf(t))
    return F, renewal_function(F)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(step=0.0, n_points=10)
    for step in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(step=step, n_points=10)
    with pytest.raises(ValueError):
        TimeGrid(step=0.1, n_points=1)
    grid = TimeGrid(step=0.5, n_points=5)
    assert np.allclose(grid.times(), [0, 0.5, 1.0, 1.5, 2.0])
    assert grid.horizon == 2.0


def test_time_grid_covering_keeps_the_last_point():
    # 0.7 / 0.1 is 6.999999999999999 in binary: the grid still reaches 0.7
    assert TimeGrid.covering(0.7, 0.1) == TimeGrid(step=0.1, n_points=8)
    assert TimeGrid.covering(0.75, 0.1) == TimeGrid(step=0.1, n_points=8)
    assert TimeGrid.covering(40.0, 0.05).n_points == 801
    with pytest.raises(ValueError):
        TimeGrid.covering(0.05, 0.1)


def test_renewal_function_poisson(poisson_case):
    F, H = poisson_case
    t = H.times()
    assert H.values[0] == 1.0
    assert np.abs(H.values - poisson_renewal(t)).max() < 1e-3
    i2 = int(round(2.0 / H.grid.step))
    assert H.values[i2] == pytest.approx(3.0, abs=1e-3)


def test_renewal_function_erlang2(erlang_case):
    F, H = erlang_case
    t = H.times()
    assert np.abs(H.values - erlang2_renewal(t)).max() < 1e-3
    i2 = int(round(2.0 / H.grid.step))
    assert H.values[i2] == pytest.approx(float(erlang2_renewal(2.0)), abs=1e-3)


def test_renewal_function_nondecreasing(erlang_case):
    _, H = erlang_case
    assert np.all(np.diff(H.values) >= -1e-12)


def test_renewal_residual_is_zero(erlang_case):
    F, H = erlang_case
    assert np.abs(renewal_residual(H, F)).max() < 1e-12


def test_renewal_residual_sees_a_perturbation(erlang_case):
    F, H = erlang_case
    i = H.grid.n_points // 2
    bumped = H.values.copy()
    bumped[i] += 1e-6
    res = renewal_residual(Curve(H.grid, bumped), F)
    # the bump enters h_i once and the Stieltjes sums only through dF
    assert res[i] == pytest.approx(1e-6, rel=0.01)
    assert np.abs(res[:i]).max() < 1e-12
    assert np.abs(res).max() == pytest.approx(1e-6, rel=0.01)


def test_renewal_function_validates_cdf():
    grid = make_grid(0.1, 1.0)
    with pytest.raises(ValueError):
        renewal_function(Curve(grid, np.linspace(0.5, 1.0, grid.n_points)))
    bad = np.linspace(0.0, 0.9, grid.n_points)
    bad[5] = 0.1  # dip below the running level
    with pytest.raises(ValueError):
        renewal_function(Curve(grid, bad))
    bad = np.linspace(0.0, 0.9, grid.n_points)
    bad[5] = np.nan  # passes every comparison, and H would be NaN
    with pytest.raises(ValueError, match="finite"):
        renewal_function(Curve(grid, bad))


@functools.cache
def heavy_first_cycles(step, n_points):
    """The first cycles of the benchmark's heavy-tailed queue (hyperexp
    service, rho = 0.9, 1536 replications) on t <= (n_points - 1) * step."""
    service = parse_service_spec("hyperexp:w=0.5|0.5,rate=0.6|3")
    cfg = McConfig(replications=1536, base_seed=14,
                   grid=TimeGrid(step, n_points))
    return first_cycle_study(QueueModel(0.9, service), cfg)


# first-cell: all mass in (0, step], so dF_1 = 1 and the pivot is 1/2;
# hyperexp: the empirical CDF of 1536 heavy-tailed first cycles, step 0.01
CDFS = {"exp": lambda t: Exponential(1.0).cdf(t),
        "erlang2": lambda t: Erlang(2, 1.0).cdf(t),
        "first-cell": lambda t: (t > 0).astype(float),
        "atom-0.5": lambda t: (t >= 0.5).astype(float),
        "hyperexp": lambda t:
            heavy_first_cycles(0.01, 8001).cycle_cdf.values[: len(t)]}


@functools.cache
def solve_and_recursion(law, n):
    """H by the library and by the long-double recursion, on ``law``'s CDF
    at step 0.01 over n points."""
    grid = TimeGrid(step=0.01, n_points=n)
    F = CDFS[law](grid.times())
    return renewal_function(Curve(grid, F)).values, renewal_by_recursion(F)


# edges of the solve: of its m = n - 1 unknowns, the residual b - a q sums
# every lag directly up to m = 256 (n = 257), and 1 / a and v b's first
# terms run wholly direct over their ceil(m / 2) terms up to m = 512
# (n = 513); each FFT size is a power of two, so n = 2^j + 1 fills one
# exactly and one more point needs the next
@pytest.mark.parametrize("law", sorted(CDFS))
@pytest.mark.parametrize("n", [2, 3, 64, 65, 129, 255, 256, 257, 258, 512,
                               513, 514, 1025, 2049, 4097, 4098, 8001])
def test_renewal_function_matches_pointwise_recursion(law, n):
    H, expected = solve_and_recursion(law, n)
    assert np.all(np.abs(H - expected) <= 1e-13 * np.abs(expected))


# the worst error measured was 2.2e-14, on exp's last points at n = 20001,
# where the kernel's full mass makes H grow like 1 + t
@pytest.mark.parametrize("law", ["atom-0.5", "erlang2", "exp", "first-cell"])
@pytest.mark.parametrize("n", [8001, 20001])
def test_renewal_function_within_long_double_recursion(law, n):
    H, expected = solve_and_recursion(law, n)
    assert np.all(np.abs(H - expected) <= 3e-14 * expected)


@pytest.mark.parametrize("law", sorted(CDFS))
def test_renewal_residual_at_8001_points(law):
    grid = TimeGrid(step=0.01, n_points=8001)
    F = Curve(grid, CDFS[law](grid.times()))
    H = renewal_function(F)
    assert np.abs(renewal_residual(H, F)).max() <= 1e-14 * H.values[-1]


def test_renewal_function_first_cell_at_65537_points():
    # all mass in the first cell: H_i = 2 i + 1 exactly, which the FFT
    # products of the long solve must not spread rounding onto
    grid = TimeGrid(step=0.01, n_points=65537)
    H = renewal_function(Curve(grid, CDFS["first-cell"](grid.times()))).values
    expected = 2.0 * np.arange(grid.n_points) + 1.0
    assert np.all(np.abs(H - expected) <= 1e-13 * expected)


@pytest.mark.parametrize("law", ["atom-0.5", "erlang2", "exp", "first-cell"])
def test_renewal_residual_at_65537_points(law):
    grid = TimeGrid(step=0.01, n_points=65537)
    F = Curve(grid, CDFS[law](grid.times()))
    H = renewal_function(F)
    assert np.abs(renewal_residual(H, F)).max() <= 1e-14 * H.values[-1]


def test_renewal_function_leaves_no_reference_cycle():
    # a cycle (say, a recursive closure) would hold each solve's FFT
    # spectra until the cyclic collector runs, raising peak memory
    grid = TimeGrid(step=0.01, n_points=8001)
    F = Curve(grid, Erlang(2, 1.0).cdf(grid.times()))
    gc.collect()
    gc.disable()
    try:
        renewal_function(F)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_step_halving_order():
    ref = float(erlang2_renewal(2.0))
    errs = []
    for step in (0.04, 0.02):
        grid = make_grid(step, 2.0)
        F = Curve(grid, Erlang(2, 1.0).cdf(grid.times()))
        H = renewal_function(F)
        errs.append(abs(H.values[-1] - ref))
    order = np.log2(errs[0] / errs[1])
    assert order >= 0.9


def test_coarse_grid_warning():
    grid = TimeGrid(step=0.5, n_points=21)  # step 0.5 vs cycle mean 1
    F = Curve(grid, Exponential(1.0).cdf(grid.times()))
    H = renewal_function(F)
    assert COARSE_GRID_WARNING in H.warnings
    fine = make_grid(0.01, 10.0)
    H2 = renewal_function(Curve(fine, Exponential(1.0).cdf(fine.times())))
    assert H2.warnings == ()


def asymptote(t, cycle_mean, cycle_second):
    """The key renewal theorem's line t / m + m_2 / (2 m^2), which H - its
    remainder approaches."""
    return t / cycle_mean + cycle_second / (2.0 * cycle_mean**2)


def test_asymptote_remainder_poisson_exact(poisson_case):
    _, H = poisson_case
    t = H.times()
    asym = asymptote(t, cycle_mean=1.0, cycle_second=2.0)
    assert np.allclose(asym, t + 1.0)
    # only the scheme error remains
    assert np.abs(H.values - asym).max() < 1e-3


def test_asymptote_remainder_erlang_decays(erlang_case):
    _, H = erlang_case
    asym = asymptote(H.times(), cycle_mean=2.0, cycle_second=6.0)
    rem = H.values - asym
    assert asym[0] == pytest.approx(0.75)
    # remainder e^{-2t}/4 decays below 10x the scheme error by the horizon
    assert abs(rem[-1]) < 10 * 1e-4
    assert abs(rem[-1]) < abs(rem[0])


def test_mg1_cycle_asymptote_slope_intercept():
    cm = cycle_moments(QueueModel(0.5, Exponential(1.0)))
    t = make_grid(0.1, 4.0).times()
    assert np.allclose(asymptote(t, cm.cycle_mean, cm.cycle_second),
                       t / 4.0 + 1.0)


def test_phi_via_renewal_zero_kernel(erlang_case):
    _, H = erlang_case
    q = Curve(H.grid, np.zeros(H.grid.n_points))
    phi = phi_via_renewal(q, H)
    assert np.all(phi.values == 0.0)


def test_phi_via_renewal_atom_identity():
    grid = make_grid(0.1, 5.0)
    H = Curve(grid, np.ones(grid.n_points))  # F == 0: only the atom at 0
    rng = np.random.default_rng(0)
    q = Curve(grid, rng.uniform(0.0, 1.0, grid.n_points))
    phi = phi_via_renewal(q, H)
    assert np.array_equal(phi.values, q.values)


def test_phi_via_renewal_discrete_delta(poisson_case):
    _, H = poisson_case
    n = H.grid.n_points
    delta = np.zeros(n)
    delta[0] = 1.0
    q = Curve(H.grid, delta)
    phi = phi_via_renewal(q, H)
    assert phi.values[0] == 1.0  # atom passes the origin bucket through
    dH = np.diff(H.values)
    # midpoint weights put half of each local dH increment on the delta
    assert np.allclose(phi.values[1:], 0.5 * dH, atol=1e-15)


def test_phi_via_renewal_is_at_least_q(erlang_case):
    _, H = erlang_case
    rng = np.random.default_rng(5)
    q = Curve(H.grid, rng.uniform(0.0, 1.0, H.grid.n_points))
    phi = phi_via_renewal(q, H)
    assert np.all(phi.values >= q.values - 1e-12)


def test_phi_via_renewal_grid_mismatch(erlang_case):
    _, H = erlang_case
    other = Curve(make_grid(0.02, 10.0), np.zeros(501))
    with pytest.raises(ValueError):
        phi_via_renewal(other, H)


def test_phi_via_renewal_stderr_propagation(erlang_case):
    _, H = erlang_case
    n = H.grid.n_points
    q = Curve(H.grid, np.ones(n), stderr=np.full(n, 0.1))
    phi = phi_via_renewal(q, H)
    # constant q with constant stderr: weights sum to H(t) - H(0) + 1 at
    # interior points, so the propagated stderr mirrors the value profile
    assert phi.stderr is not None
    assert np.all(phi.stderr >= 0.1 - 1e-12)
    assert np.allclose(phi.stderr, 0.1 * phi.values, rtol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 801, 4001])
def test_phi_via_renewal_matches_midpoint_sums(n):
    # dH of the benchmark's heavy-tailed first cycles (step 0.02); H on the
    # first n points is the renewal function of the shorter grid
    H_full = renewal_function(heavy_first_cycles(0.02, 4001).cycle_cdf)
    grid = TimeGrid(step=0.02, n_points=n)
    H = Curve(grid, H_full.values[:n])
    rng = np.random.default_rng(n)
    q = Curve(grid, rng.uniform(0.0, 2.0, n), stderr=rng.uniform(0.0, 0.1, n))
    phi = phi_via_renewal(q, H)
    for got, vec in ((phi.values, q.values), (phi.stderr, q.stderr)):
        expected = phi_by_midpoint_sums(vec, H.values)
        assert np.abs(got - expected).max() <= 1e-13 * expected.max()


def test_phi_via_renewal_zero_stderr_prefix():
    # q known exactly (stderr 0) over its first points: the sums there are
    # exactly 0, and their rounding must not come out below 0
    H = renewal_function(heavy_first_cycles(0.02, 4001).cycle_cdf)
    n = H.grid.n_points
    rng = np.random.default_rng(3)
    stderr = rng.uniform(0.0, 0.1, n)
    stderr[: n // 2] = 0.0
    q = Curve(H.grid, rng.uniform(0.0, 2.0, n), stderr=stderr)
    phi = phi_via_renewal(q, H)
    assert np.all(phi.stderr >= 0.0)
    assert phi.values[0] == q.values[0]
    assert phi.stderr[0] == 0.0


def test_phi_via_renewal_rejects_negative_q(erlang_case):
    _, H = erlang_case
    values = np.ones(H.grid.n_points)
    values[7] = -1e-3
    with pytest.raises(ValueError, match="nonnegative"):
        phi_via_renewal(Curve(H.grid, values), H)


def test_curve_csv_round_trip(tmp_path):
    grid = make_grid(0.25, 2.0)
    rng = np.random.default_rng(8)
    curve = Curve(grid, rng.normal(size=grid.n_points),
                  stderr=np.abs(rng.normal(size=grid.n_points)))
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    back = read_curve_csv(path)
    assert back.grid == curve.grid
    assert np.array_equal(back.values, curve.values)
    assert np.array_equal(back.stderr, curve.stderr)


@pytest.mark.parametrize("with_stderr", [False, True])
def test_curve_csv_bytes_are_pinned(tmp_path, with_stderr):
    # each cell is the double at 17 significant digits ("%.17g"), with an
    # exponent for tiny, huge and subnormal values
    values = np.array([0.0, 1 / 3, -2.5e-300, 1e300])
    stderr = np.array([0.0, 5e-324, 0.1, 12345.678])
    curve = Curve(TimeGrid(step=0.1, n_points=4), values,
                  stderr=stderr if with_stderr else None)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    if with_stderr:
        want = ("t,value,stderr\n0,0,0\n"
                "0.10000000000000001,0.33333333333333331,4.9406564584124654e-324\n"
                "0.20000000000000001,-2.5e-300,0.10000000000000001\n"
                "0.30000000000000004,1.0000000000000001e+300,12345.678\n")
    else:
        want = ("t,value\n0,0\n0.10000000000000001,0.33333333333333331\n"
                "0.20000000000000001,-2.5e-300\n"
                "0.30000000000000004,1.0000000000000001e+300\n")
    assert path.read_bytes() == want.encode()


def test_write_curve_csv_failure_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "curve.csv"
    path.write_text("old\n")
    real_fdopen = os.fdopen

    class DiskFull:
        """File whose write stores a prefix, then fails as a full disk does."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:10])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "fdopen",
                        lambda *args, **kw: DiskFull(real_fdopen(*args, **kw)))
    with pytest.raises(OSError):
        write_curve_csv(Curve(make_grid(0.5, 2.0), np.arange(5.0)), path)
    assert path.read_text() == "old\n"
    assert list(tmp_path.glob(".tq-*.tmp")) == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_written_file_mode_follows_umask(tmp_path, umask):
    path = tmp_path / "curve.csv"
    old = os.umask(umask)
    try:
        write_curve_csv(Curve(make_grid(0.5, 2.0), np.arange(5.0)), path)
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


def test_rewritten_file_keeps_its_mode(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("old\n")
    path.chmod(0o640)
    write_curve_csv(Curve(make_grid(0.5, 2.0), np.arange(5.0)), path)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert path.read_text().startswith("t,value")


def test_atomic_write_leaves_the_umask_alone(tmp_path, monkeypatch):
    # the umask is process-wide: reading it by setting it races other threads
    def umask(mask):
        raise AssertionError("os.umask was called")

    monkeypatch.setattr(os, "umask", umask)
    path = tmp_path / "curve.csv"
    write_curve_csv(Curve(make_grid(0.5, 2.0), np.arange(5.0)), path)
    write_curve_csv(Curve(make_grid(0.5, 2.0), np.ones(5)), path)
    assert path.read_text().startswith("t,value\n0,1\n")
    assert list(tmp_path.glob(".tq-*.tmp")) == []


@settings(max_examples=40, deadline=None)
@given(step=st.floats(0.0, 1e300, exclude_min=True),
       cells=st.integers(2, 30).flatmap(lambda n: st.tuples(
           st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=n, max_size=n),
           st.none() | st.lists(st.floats(0.0, 1e300), min_size=n,
                                max_size=n))))
def test_curve_csv_round_trip_is_bit_exact(tmp_path_factory, step, cells):
    values, stderr = cells
    curve = Curve(TimeGrid(step, len(values)), values, stderr=stderr)
    path = tmp_path_factory.mktemp("csv") / "curve.csv"
    write_curve_csv(curve, path)
    back = read_curve_csv(path)
    assert back.grid == curve.grid
    assert back.values.tobytes() == curve.values.tobytes()
    if stderr is None:
        assert back.stderr is None
    else:
        assert back.stderr.tobytes() == curve.stderr.tobytes()


@pytest.mark.parametrize("text, reason", [
    ("", "empty"), ("\n\n", "empty"),
    ("t,value\n0,1\n0.5,abc\n", "non-numeric"),
    ("t,value\n0,1\n0.5,nan\n", "non-numeric"),
    ("t,value\n0,1\n0.5,\n", "non-numeric"),
    ("t,value,stderr\n0,1,0.1\n0.5,2,x\n", "non-numeric"),
    ("time,value\n0,1\n0.5,2\n", "no 't' column"),
    ("t,stderr\n0,1\n0.5,2\n", "no 'value'"),
    ("t,value\n0,1\n", "fewer than two rows"),
    ("t,value\n0,1\n0.5,2\n1.5,3\n", "uniform grid"),
    ("t,value\n20,1\n20.5,2\n21,3\n", "starts at t = 20,"),
    ("t,value\n0,1\n-0.5,2\n-1,3\n", "do not increase"),
    ("t,value\n0,1\n0.5\n1,3\n", "not 2 cells long"),
    ("t,value\n0,1\n0.5,2,7\n1,3\n", "not 2 cells long"),
    ("t,value,stderr\n0,1,0.1\n0.5,2,-0.1\n", "negative stderr"),
], ids=["empty", "blank", "text", "nan", "missing", "stderr-text",
        "no-t", "no-value", "one-row", "non-uniform", "not-from-0",
        "decreasing", "short-row", "long-row", "negative-stderr"])
def test_read_curve_csv_rejects_malformed(tmp_path, text, reason):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="bad.csv") as caught:
        read_curve_csv(path)
    assert reason in str(caught.value)


def test_read_curve_csv_header_only_does_not_warn(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,value\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="bad.csv.*fewer than two rows"):
            read_curve_csv(path)


# CRLF line ends, spaces around cells, a column that is not read (NaN
# where mm1-exact leaves its asymptote undefined) and a repeated name, read
# from its first column; a trailing comma, whose empty column is not read
@pytest.mark.parametrize("text", [
    b"t, phi_exact ,extra,phi_exact\r\n0, 1.5,nan,9\r\n 0.5 ,2.5 , 1,9\r\n",
    b"t,phi_exact,\n0,1.5,\n0.5,2.5,\n",
], ids=["crlf-spaces-extra", "trailing-comma"])
def test_read_curve_csv_takes_loose_formats(tmp_path, text):
    path = tmp_path / "curve.csv"
    path.write_bytes(text)
    curve = read_curve_csv(path)
    assert curve.grid == TimeGrid(step=0.5, n_points=2)
    assert np.array_equal(curve.values, [1.5, 2.5])
    assert curve.stderr is None


def test_curve_validation():
    grid = make_grid(0.5, 2.0)
    with pytest.raises(ValueError):
        Curve(grid, np.zeros(3))
    with pytest.raises(ValueError):
        Curve(grid, np.zeros(grid.n_points), stderr=-np.ones(grid.n_points))
