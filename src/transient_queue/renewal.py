"""Numerical renewal theory on a uniform time grid.

The renewal function here uses the convention that the zeroth convolution
power is included, so H(0) = 1 and dH carries a unit atom at the origin.
Increments of the driving CDF are placed at cell midpoints (values at the
two neighbouring grid points averaged), which removes the O(step) bias of
naive right-endpoint placement while keeping the recursion monotone.
"""

from __future__ import annotations

import math
import os
import stat
import tempfile
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

COARSE_GRID_WARNING = "coarse_grid"
# lags below _NEAR, most of the kernel's mass, enter the renewal solve
# directly: an FFT rounds each output on the scale of its largest terms
_NEAR = 256


def _point_count(span: float, step: float) -> int:
    """The point count of ``TimeGrid.covering`` and of an s grid's span."""
    steps = span / step + 1e-9
    if not math.isfinite(steps):
        raise ValueError(f"{span:g} / {step:g} is not a finite step count")
    limit = np.iinfo(np.intp).max // 8  # the largest float64 array's size
    if not steps < limit:
        raise ValueError(f"{span:g} / {step:g} gives {steps + 1:.6g} grid "
                         f"points, past the largest array's {limit}")
    return math.floor(steps) + 1


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i * step, i = 0 .. n_points-1."""

    step: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(
                f"grid step must be finite and > 0, got {self.step}")
        if self.n_points < 2:
            raise ValueError(f"grid needs >= 2 points, got {self.n_points}")

    @classmethod
    def covering(cls, t_max: float, step: float) -> "TimeGrid":
        """The grid of ``step`` up to its last point at or below ``t_max``,
        allowing 1e-9 steps of rounding in t_max / step."""
        return cls(step=step, n_points=_point_count(t_max, step))

    def times(self) -> np.ndarray:
        return self.step * np.arange(self.n_points)

    @property
    def horizon(self) -> float:
        return self.step * (self.n_points - 1)


@dataclass(frozen=True)
class Curve:
    """A function sampled on a TimeGrid, with optional pointwise stderr."""

    grid: TimeGrid
    values: np.ndarray
    stderr: Optional[np.ndarray] = None
    warnings: tuple = field(default=())

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n_points,):
            raise ValueError(
                f"values shape {values.shape} does not match grid "
                f"({self.grid.n_points} points)")
        if self.stderr is not None:
            stderr = np.asarray(self.stderr, dtype=float)
            object.__setattr__(self, "stderr", stderr)
            if stderr.shape != values.shape:
                raise ValueError("stderr length does not match values")
            if np.any(stderr < 0):
                raise ValueError("stderr must be nonnegative")

    def times(self) -> np.ndarray:
        return self.grid.times()


def _plain_open_mode(path) -> int:
    """Permission bits ``open(path, "w")`` would leave: the replaced file's
    own, or 0o666 less the umask for a new file."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def atomic_write(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file and a rename, so a
    failure never leaves a half-written file in place of the old one.
    The file gets the mode a plain ``open(path, "w")`` would give it."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    mode = _plain_open_mode(path)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tq-", suffix=".tmp")
    try:
        os.chmod(tmp, mode)
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_curve_csv(curve: Curve, path) -> None:
    """Serialize as ``t,value[,stderr]`` rows at full double precision."""
    columns = [curve.times(), curve.values]
    if curve.stderr is not None:
        columns.append(curve.stderr)
    header = "t,value" if curve.stderr is None else "t,value,stderr"
    atomic_write(path, _csv_text(header, columns))


def _csv_text(header: str, columns) -> str:
    """``header``, then one row per entry of the equal-length ``columns``,
    every number at full double precision."""
    rows = ",".join(["%.17g"] * len(columns)) + "\n"
    # one format over Python floats, which print as numpy scalars do
    cells = np.column_stack(columns).ravel().tolist()
    return header + "\n" + (rows * len(columns[0])) % tuple(cells)


def read_curve_csv(path) -> Curve:
    """The curve of a ``t,value[,stderr]`` file (the value column may be
    ``phi_exact``), its columns found by the names in the first line."""
    with open(path) as fh:
        text = fh.read()
    if not text.strip():
        raise ValueError(f"curve file {path} is empty")
    header, _, body = text.lstrip().partition("\n")
    names = [name.strip() for name in header.split(",")]
    if "t" not in names:
        raise ValueError(f"curve file {path} has no 't' column")
    value_col = next((c for c in ("value", "phi_exact") if c in names), None)
    if value_col is None:
        raise ValueError(
            f"curve file {path} has no 'value' (or 'phi_exact') column")
    rows = [row for row in body.splitlines() if row.strip()]
    if any(row.count(",") != len(names) - 1 for row in rows):
        raise ValueError(f"curve file {path} has a row that is not "
                         f"{len(names)} cells long")
    if len(rows) < 2:
        raise ValueError(f"curve file {path} has fewer than two rows")
    bad = f"curve file {path} has a non-numeric, empty or non-finite cell"
    columns = [names.index(c) for c in ("t", value_col, "stderr") if c in names]
    try:
        used = np.loadtxt(rows, delimiter=",", usecols=columns, ndmin=2)
    except ValueError:
        raise ValueError(bad) from None
    if not np.all(np.isfinite(used)):
        raise ValueError(bad)
    if np.any(used[:, 2:] < 0):
        raise ValueError(f"curve file {path} has a negative stderr")
    t, values, *stderr = used.T
    if t[0] != 0.0:
        raise ValueError(f"curve file {path} starts at t = {t[0]:g}, not at 0")
    step = t[1] - t[0]
    if not step > 0:
        raise ValueError(f"curve file {path} has times that do not increase")
    if not np.allclose(np.diff(t), step, rtol=1e-9, atol=1e-12):
        raise ValueError(f"curve file {path} is not on a uniform grid")
    return Curve(TimeGrid(float(step), len(t)), values, *stderr)


def _validate_cdf(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("cycle CDF must be finite")
    if abs(values[0]) > 1e-12:
        raise ValueError(f"cycle CDF must have F(0)=0, got {values[0]!r}")
    if np.any(np.diff(values) < -1e-12):
        raise ValueError("cycle CDF must be nondecreasing")
    if np.any(values > 1.0 + 1e-12):
        raise ValueError("cycle CDF must not exceed 1")


def _middle(a: np.ndarray, far: np.ndarray, x: np.ndarray, k: int,
            spectrum: Optional[np.ndarray] = None) -> np.ndarray:
    """Terms h .. k-1 of the product a x, x having h <= k terms.  Lags of a
    below _NEAR are summed directly, the rest (``far``, a with those lags
    zeroed) by one cyclic product at the power of two >= k, which wraps
    terms of a x only below h; ``spectrum`` is x's rfft at that size, when
    the caller has it."""
    h = len(x)
    # lags below _NEAR reach [h, k) from x's last _NEAR - 1 entries only
    lo = max(0, h - _NEAR + 1)
    near = np.convolve(x[lo:], a[:_NEAR])[h - lo : k - lo]
    if k <= _NEAR:  # every lag is near
        return near
    size = 1 << (k - 1).bit_length()
    if spectrum is None:
        spectrum = np.fft.rfft(x, size)
    e = np.fft.irfft(spectrum * np.fft.rfft(far[:k], size), size)[h:k]
    e[: len(near)] += near
    return e


def _reciprocal(a: np.ndarray, far: np.ndarray, m: int) -> np.ndarray:
    """The first m terms of the power series 1 / a, by Newton doubling
    (Kung 1974): with v known to h terms, the terms h .. k-1 (k = 2h) of
    a v are e, and v's next k - h terms are the first of -v e."""
    v = np.full(m, 1.0 / a[0])  # v_0; the steps below fill the rest
    h = 1
    while h < m:
        k = min(2 * h, m)
        if k <= _NEAR:
            e = _middle(a, far, v[:h], k)
            v[h:k] = -np.convolve(v[: k - h], e)[: k - h]
        else:
            size = 1 << (k - 1).bit_length()
            spectrum = np.fft.rfft(v[:h], size)
            e = _middle(a, far, v[:h], k, spectrum)
            v[h:k] = -np.fft.irfft(spectrum * np.fft.rfft(e, size),
                                   size)[: k - h]
        h = k
    return v


def renewal_function(cycle_cdf: Curve) -> Curve:
    """Renewal function H (including the zeroth term, H(0)=1) for the cycle CDF.

    Solves the discretized renewal equation
    H(t_i) = 1 + sum_j H(t_i - t_j + step/2) * (F(t_j) - F(t_{j-1}))
    with the half-step evaluation realized by averaging neighbouring grid
    values of H; the j=1 increment makes the recursion weakly implicit.
    Collecting the weight of each H_m gives, for i >= 1,
      (1 - c_0) H_i - sum_{m=1}^{i-1} c_{i-m} H_m = 1 + dF_i / 2,
    c_k = (dF_k + dF_{k+1}) / 2, the dF_i / 2 being H_0's term.  So
    H_1, H_2, ... is the power series b / a, with b = 1 + dF[1:] / 2 and
    a = (1 - c_0, -c_1, -c_2, ...).  With h = ceil(m / 2) of the m = n - 1
    terms, v = 1 / a comes to h terms by `_reciprocal`, and one quotient
    step (Karp & Markstein 1997) gives the rest: q = v b to h terms, the
    residual r = b - a q on terms h .. m-1 by `_middle`, and q's last
    m - h terms as the first of v r.  The three products share one FFT
    size at or above m; the first _NEAR terms of v b and the lags of a
    below _NEAR are summed directly.
    """
    F = cycle_cdf.values
    _validate_cdf(F)
    grid = cycle_cdf.grid
    n = grid.n_points
    dF = np.diff(F, prepend=F[0])
    a = -0.5 * (dF[:-1] + dF[1:])
    a[0] += 1.0
    b = 1.0 + 0.5 * dF[1:]
    far = a.copy()
    far[:_NEAR] = 0.0
    m = n - 1
    h = (m + 1) // 2
    v = _reciprocal(a, far, h)
    H = np.ones(n)
    q = H[1:]  # H_1 .. H_m, the quotient b / a
    # one cyclic size >= m serves all three products: v b and v r have at
    # most m - 1 terms, and a q[:h]'s terms past it wrap below h
    size = 1 << (m - 1).bit_length()
    spectrum = np.fft.rfft(v, size)
    q[:h] = np.fft.irfft(spectrum * np.fft.rfft(b[:h], size), size)[:h]
    k = min(h, _NEAR)
    q[:k] = np.convolve(v[:k], b[:k])[:k]
    r = b[h:] - _middle(a, far, q[:h], m)
    q[h:] = np.fft.irfft(spectrum * np.fft.rfft(r, size), size)[: m - h]
    warnings = ()
    # coarse-grid guard: compare step against the mean cycle length implied
    # by the (possibly truncated) CDF itself
    mean_est = grid.step * float(np.sum(1.0 - F))
    if mean_est > 0 and grid.step > mean_est / 10.0:
        warnings = (COARSE_GRID_WARNING,)
    return Curve(grid, H, warnings=warnings)


def renewal_residual(H: Curve, cycle_cdf: Curve) -> np.ndarray:
    """Residual of the discrete renewal equation actually solved (== 0)."""
    F = cycle_cdf.values
    h = H.values
    return h - 1.0 - _stieltjes(h, np.diff(F, prepend=F[0]))


def phi_via_renewal(q: Curve, H: Curve) -> Curve:
    """Stieltjes convolution phi(t) = int q(t-y) dH(y) over [0, t].

    dH contributes a unit atom at y=0 (so phi >= q pointwise) plus midpoint
    increments of H.  When q carries stderr, the same nonnegative weights
    are applied to it.
    """
    if q.grid != H.grid:
        raise ValueError("q and H must share one grid")
    if np.any(q.values < 0):
        raise ValueError("q must be nonnegative")
    dH = np.diff(H.values, prepend=H.values[0])
    if np.any(dH < -1e-12):
        raise ValueError("H must be nondecreasing")
    rows = q.values if q.stderr is None else np.stack([q.values, q.stderr])
    # every term is nonnegative, so a sum below 0 is FFT rounding
    sums = np.maximum(_stieltjes(rows, dH), 0.0)
    if q.stderr is None:
        return Curve(q.grid, q.values + sums)
    return Curve(q.grid, q.values + sums[0], stderr=q.stderr + sums[1])


def _stieltjes(vecs: np.ndarray, dX: np.ndarray) -> np.ndarray:
    """Midpoint Stieltjes sums int_(0, t_i] vec(t_i - y) dX(y) on the grid,
    for one row ``vecs`` or each row of a stack.

    ``dX[j]`` is the increment of X over the cell (t_{j-1}, t_j] (``dX[0]``
    is 0); it is placed at the cell midpoint, where vec is taken as the
    mean of its values at the cell's two ends.  The sum at t_0 covers an
    empty range and is exactly 0; the rest are one zero-padded FFT product.
    """
    n = dX.shape[-1]
    mid = 0.5 * (vecs[..., :-1] + vecs[..., 1:])  # vec at the midpoints
    size = 1 << (2 * n - 4).bit_length()  # >= 2n - 3, so nothing wraps
    full = np.fft.irfft(np.fft.rfft(mid, size) * np.fft.rfft(dX[1:], size),
                        size)
    out = np.zeros(vecs.shape)
    out[..., 1:] = full[..., : n - 1]
    return out
