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


def _new_temp(directory: str):
    """A new empty file ``.tq-<random>.tmp`` in ``directory``, open for
    writing; the kernel gives it 0o666 less the umask."""
    for _ in range(100):
        tmp = os.path.join(directory, f".tq-{os.urandom(8).hex()}.tmp")
        try:
            return os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                           0o666), tmp
        except FileExistsError:
            continue
    raise FileExistsError(f"no free temp file name in {directory}")


def atomic_write(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file and a rename, so a
    failure never leaves a half-written file in place of the old one.
    The file gets the mode a plain ``open(path, "w")`` would give it: the
    replaced file's own, or 0o666 less the umask for a new file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    fd, tmp = _new_temp(directory)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            if mode is not None:
                os.chmod(tmp, mode)
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
    each cell the bytes ``"%.17g"`` gives the double, written by numpy
    about _CELL_BLOCK cells at a time (`_csv_cells`)."""
    ncol = len(columns)
    rows = max(1, _CELL_BLOCK // ncol)
    src = np.empty((rows * ncol, _SRC_WIDTH), np.uint8)
    src[:, _POINT] = ord(".")
    src[:, _ZERO] = ord("0")
    src[:, _MINUS] = ord("-")
    src[:, _SEP] = ord(",")
    src[ncol - 1::ncol, _SEP] = ord("\n")
    pieces = [header + "\n"]
    for start in range(0, len(columns[0]), rows):
        cells = np.column_stack([c[start:start + rows] for c in columns])
        pieces += _csv_cells(cells.astype(np.float64, copy=False).ravel(),
                             src)
    return "".join(pieces)


# A cell's text is laid out from its row of _SRC_WIDTH source bytes: the
# 17 digits from _DIGIT on, the literals, the exponent's 8 bytes and the
# separator.  A layout picks the cell's _CELL_WIDTH output bytes from the
# row; a keep mask drops the unused ones, a positive cell's sign and the
# trailing zeros (with a bare point) that "%g" drops.
_CELL_BLOCK = 1024
_DIGIT, _POINT, _ZERO, _MINUS, _EXP, _SEP = 3, 20, 21, 22, 23, 31
_SRC_WIDTH = 32
_CELL_WIDTH = 25  # "-d.dddddddddddddddde-ddd" and the separator
# |x| in [_FAST_MIN, _FAST_MAX) takes the vector path; the scale table
# covers every decimal exponent such an x can have, after the carry
_E_MIN, _E_MAX = -100, 100
_FAST_MIN, _FAST_MAX = 1e-99, 1e99
# the scaled product errs by about 1e-14 of a unit; a cell whose fraction
# lies this close to a half (exact ties among them) is left to "%.17g"
_BAND = 1e-6
_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split into 26-bit halves


def _split(v):
    c = _SPLITTER * v
    hi = c - (c - v)
    return hi, v - hi


def _scale_table() -> np.ndarray:
    """Rows (t, t's two halves, tail) per decimal exponent E: 10**(16 - E)
    as the double-double t + tail, from Python's exact integers."""
    t, tail = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        k = 16 - e
        if k >= 0:
            n = 10**k
            t.append(float(n))
            tail.append(float(n - int(t[-1])))
        else:
            d = 10**-k
            t.append(1 / d)  # int division rounds correctly
            p, q = t[-1].as_integer_ratio()
            tail.append((q - p * d) / (q * d))
    t = np.array(t)
    return np.column_stack([t, *_split(t), tail])


def _layout_tables():
    """The layout table, one row per layout type, and the keep table.  The
    type is E + 4 for the fixed notation "%g" uses at -4 <= E < 17, then
    exponent notation with two and with three exponent digits.  The keep
    table's row is ((negative * types) + type) * 17 + trailing zeros, and
    its last row keeps nothing (a cell left to "%.17g")."""
    digits = list(range(_DIGIT, _DIGIT + 17))
    layouts, whole = [], []  # source columns; digits before the point
    for e in range(-4, 17):
        if e >= 0:
            layouts.append([_MINUS] + digits[:e + 1] + [_POINT]
                           + digits[e + 1:])
        else:
            layouts.append([_MINUS, _ZERO, _POINT] + [_ZERO] * (-e - 1)
                           + digits)
        whole.append(max(e + 1, 0))
    for exp in ([0, 1, 3, 4], [0, 1, 2, 3, 4]):  # "e", sign, [hundreds,] ..
        layouts.append([_MINUS, digits[0], _POINT] + digits[1:]
                       + [_EXP + i for i in exp])
        whole.append(1)
    types = len(layouts)
    layout = np.full((types, _CELL_WIDTH), _SEP, np.intp)
    used = np.zeros((types, _CELL_WIDTH), bool)
    used[:, -1] = True
    for i, cols in enumerate(layouts):
        layout[i, :len(cols)] = cols
        used[i, :len(cols)] = True
    # digit j stays if it is before the point or before the trailing
    # zeros; the point stays if a digit follows it
    j = np.where((layout >= _DIGIT) & (layout < _DIGIT + 17),
                 layout - _DIGIT, -1)[:, None, :]
    whole = np.array(whole)[:, None, None]
    left = 17 - np.arange(17)[None, :, None]  # digits before the zeros
    keep = used[:, None, :] & (j < np.maximum(whole, left)) & (
        (layout != _POINT)[:, None, :] | (left > whole))
    unsigned = keep.copy()
    unsigned[..., 0] = False
    return layout, np.concatenate([unsigned.reshape(-1, _CELL_WIDTH),
                                   keep.reshape(-1, _CELL_WIDTH),
                                   np.zeros((1, _CELL_WIDTH), bool)])


def _exponent_tables():
    """Per decimal exponent: the layout type and the exponent's bytes
    ("e+05", "e-100") as one 8-byte word."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    kind = np.where((e >= -4) & (e < 17), e + 4,
                    np.where(np.abs(e) < 100, 21, 22)).astype(np.uint8)
    text = b"".join(b"e%+04d\0\0\0" % k for k in e.tolist())
    return kind, np.frombuffer(text, np.uint64)


_SCALE = _scale_table()
_LAYOUT, _KEEP = _layout_tables()
_KEEP_LEN = _KEEP.sum(axis=1)
_DROP = len(_KEEP) - 1
_TYPES = len(_LAYOUT)
_KIND, _EXP_TEXT = _exponent_tables()
_QUADS = np.ascontiguousarray(  # "0000" .. "9999" as 4-byte words
    np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")
).view(np.uint32).ravel()


def _scaled(a: np.ndarray, e: np.ndarray):
    """Floor and fraction of a * 10**(16 - e): Dekker's exact product of a
    and t, plus a * tail."""
    t, th, tl, tail = _SCALE[e - _E_MIN].T
    ah, al = _split(a)
    p = a * t
    err = al * tl - (((p - ah * th) - al * th) - ah * tl)
    rest = err + a * tail
    whole = np.floor(rest)
    return p.astype(np.int64) + whole.astype(np.int64), rest - whole


def _decimal(x: np.ndarray):
    """Each cell's 17 significant digits as M in [10**16, 10**17), its
    decimal exponent E, and whether the pair is certified: |x| is in the
    table's range and the scaled product's fraction is not within _BAND
    of a half."""
    a = np.abs(x)
    ok = (a >= _FAST_MIN) & (a < _FAST_MAX)  # no 0, subnormal, inf or nan
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    big, frac = _scaled(a, e)
    # log10 can miss E by one next to a power of ten: E comes from the
    # unrounded product
    off = (big >= 10**17).astype(np.int64) - (big < 10**16)
    if off.any():
        i = np.flatnonzero(off)
        e[i] += off[i]
        big[i], frac[i] = _scaled(a[i], e[i])
    ok &= np.abs(frac - 0.5) > _BAND
    big += frac > 0.5
    carry = big == 10**17
    big[carry] = 10**16
    e += carry
    return big, e, ok


def _digit_text(big: np.ndarray) -> np.ndarray:
    """Rows of 20 bytes: "000", then the 17 digits of ``big``."""
    groups = np.empty((len(big), 5), np.intp)  # leading digit, then fours
    hi, lo = np.divmod(big, 10**8)
    np.divmod(hi, 10**8, out=(groups[:, 0], hi))
    np.divmod(hi, 10**4, out=(groups[:, 1], groups[:, 2]))
    np.divmod(lo, 10**4, out=(groups[:, 3], groups[:, 4]))
    return _QUADS[groups].view(np.uint8)


def _csv_cells(x: np.ndarray, src: np.ndarray) -> list:
    """Pieces of the text of the cells ``x``, whole rows, each followed by
    its separator in ``src``: laid out by table from `_decimal`'s digits
    and exponents, but for the cells it cannot certify, which are
    formatted one by one."""
    n = len(x)
    big, e, ok = _decimal(x)
    rows = src[:n]
    rows[:, :_POINT] = _digit_text(big)
    rows[:, _EXP:_SEP] = _EXP_TEXT[e - _E_MIN, None].view(np.uint8)
    kind = _KIND[e - _E_MIN]
    zeros = np.argmax(rows[:, _POINT - 1:_DIGIT - 1:-1] != ord("0"), axis=1)
    key = ((x < 0) * _TYPES + kind) * 17 + zeros
    key[~ok] = _DROP
    index = _LAYOUT[kind]
    index += np.arange(0, n * _SRC_WIDTH, _SRC_WIDTH)[:, None]
    text = np.compress(_KEEP[key].ravel(), np.take(src, index).ravel())
    bad = np.flatnonzero(~ok)
    if not bad.size:
        return [text.tobytes().decode("ascii")]
    ends = np.cumsum(_KEEP_LEN[key])
    pieces, start = [], 0
    for i in bad.tolist():
        pieces.append(text[start:ends[i]].tobytes().decode("ascii"))
        pieces.append("%.17g%c" % (x[i], rows[i, _SEP]))
        start = ends[i]
    pieces.append(text[start:].tobytes().decode("ascii"))
    return pieces


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
