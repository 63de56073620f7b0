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
    tmp = None
    try:
        fd, tmp = _new_temp(directory)
        with os.fdopen(fd, "w", newline="") as fh:
            if mode is not None:
                os.chmod(tmp, mode)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        # name the user's path, not the temp file the write went through
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
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
    seps = _words([b"\0" * 7 + b","] * (ncol - 1) + [b"\0" * 7 + b"\n"])
    pieces = [header + "\n"]
    for start in range(0, len(columns[0]), rows):
        cells = np.column_stack([c[start:start + rows] for c in columns])
        pieces.append(_csv_cells(cells.astype(np.float64, copy=False), seps))
    return "".join(pieces)


# A cell's text is a row of four 8-byte words holding NUL-padded fields,
# and one compress drops the NULs: the sign and the lead ("0." and the
# zeros "%g" puts before a small number's digits) in the first word, the
# 18-byte digit field from byte 8 (the digits before the point, the
# point's free column, the digits after it), and the exponent ("e+05",
# "e-99") from byte 26, the separator in the last byte.
_CELL_BLOCK = 2048
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


def _words(texts) -> np.ndarray:
    """Each text NUL-padded to an 8-byte word."""
    return np.array(texts, "S8").view(np.uint64)


_SCALE = _scale_table()
# per decimal exponent E: the digits "%g" puts before the point (E + 1 in
# its fixed notation at -4 <= E < 17, none after a lead, one in exponent
# notation), the sign-and-lead word and the exponent word
_WHOLE = np.array([max(e + 1, 0) if -4 <= e < 17 else 1
                   for e in range(_E_MIN, _E_MAX + 1)])
_LEADS = _words([b"\0" + (b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"")
                 for e in range(_E_MIN, _E_MAX + 1)])
_EXPS = _words([b"" if -4 <= e < 17 else b"\0\0e%+03d" % e
                for e in range(_E_MIN, _E_MAX + 1)])
_MINUS = _words([b"-"])
_FIRST = np.tri(18, 17, -1, np.uint8) * 255  # row k keeps the first k bytes
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


def _csv_cells(cells: np.ndarray, seps: np.ndarray) -> str:
    """The text of the rows ``cells``, each cell followed by its column's
    separator in ``seps``: `_decimal`'s digits and exponents placed in
    NUL-padded fields, but for the cells it cannot certify, whose rows
    "%.17g" writes."""
    x = cells.ravel()
    big, e, ok = _decimal(x)
    e -= _E_MIN
    words = np.empty(cells.shape + (4,), np.uint64)
    words[..., 0] = (_LEADS[e] | _MINUS * (x < 0)).reshape(cells.shape)
    words[..., 3] = _EXPS[e].reshape(cells.shape) | seps
    out = words.view(np.uint8).reshape(-1, 32)
    # digit j goes to column j before the point and to j + 1 after it;
    # "%g" drops trailing zeros after the point only.  The field's last
    # column is the exponent word's NUL second byte.
    digits = _digit_text(big)[:, 3:]
    whole = _WHOLE[e]
    zeros = np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    kept = np.maximum(17 - zeros, whole)
    before = np.take(_FIRST, whole, axis=0)
    field = out[:, 8:26]
    np.bitwise_and(digits, before, out=field[:, :17])
    field[:, 1:] |= digits & (np.take(_FIRST, kept, axis=0) ^ before)
    point = np.flatnonzero((kept > whole) & (whole > 0))
    field[point, whole[point]] = ord(".")
    bad = np.flatnonzero(~ok)
    if bad.size:  # the separator stays in the last byte
        text = ["%.17g" % v for v in x[bad].tolist()]
        out[bad, :31] = np.array(text, "S31").view(np.uint8).reshape(-1, 31)
    return out[out != 0].tobytes().decode("ascii")


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
    near = np.convolve(x[lo:], a[: min(k, _NEAR)])[h - lo : k - lo]
    if k <= _NEAR:  # every lag is near
        return near
    size = 1 << (k - 1).bit_length()
    if spectrum is None:
        spectrum = np.fft.rfft(x, size)
    e = np.fft.irfft(spectrum * np.fft.rfft(far[:k], size), size)[h:k]
    e[: len(near)] += near
    return e


def _quotient(a: np.ndarray, far: np.ndarray, b: Optional[np.ndarray],
              m: int) -> np.ndarray:
    """The first m terms of the power series b / a, or of 1 / a when b is
    None, by one quotient step (Karp & Markstein 1997) on v = 1 / a to
    h = ceil(m / 2) terms, which is this same step on the unit: q = v b to
    h terms (v itself for the unit), the residual r = b - a q on terms
    h .. m-1 by `_middle`, and q's last m - h terms as the first of v r.
    Up to _NEAR terms every product is summed directly; above, the three
    share one cyclic size, the power of two >= m (v b and v r have at most
    m - 1 terms, and a q's terms past it wrap below h), and v b's first
    _NEAR terms are summed directly."""
    if m == 1:
        return np.array([1.0 / a[0] * (1.0 if b is None else b[0])])
    h = (m + 1) // 2
    v = _quotient(a, far, None, h)
    if m <= _NEAR:
        q = v if b is None else np.convolve(v, b[:h])[:h]
        e = _middle(a, far, q, m)
        r = -e if b is None else b[h:m] - e
        return np.concatenate((q, np.convolve(v[: m - h], r)[: m - h]))
    size = 1 << (m - 1).bit_length()
    spectrum = np.fft.rfft(v, size)
    if b is None:
        q, r = v, -_middle(a, far, v, m, spectrum)
    else:
        q = np.fft.irfft(spectrum * np.fft.rfft(b[:h], size), size)[:h]
        k = min(h, _NEAR)
        q[:k] = np.convolve(v[:k], b[:k])[:k]
        r = b[h:m] - _middle(a, far, q, m)
    tail = np.fft.irfft(spectrum * np.fft.rfft(r, size), size)[: m - h]
    return np.concatenate((q, tail))


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
    a = (1 - c_0, -c_1, -c_2, ...), whose m = n - 1 terms `_quotient`
    gives.
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
    H = np.concatenate(([1.0], _quotient(a, far, b, n - 1)))
    warnings = ()
    # coarse-grid guard: compare step against the mean cycle length implied
    # by the (possibly truncated) CDF itself
    mean_est = grid.step * float(np.sum(1.0 - F))
    if mean_est > 0 and grid.step > mean_est / 10.0:
        warnings = (COARSE_GRID_WARNING,)
    return Curve(grid, H, warnings=warnings)


def renewal_residual(H: Curve, cycle_cdf: Curve) -> np.ndarray:
    """Residual of the discrete renewal equation actually solved (== 0)."""
    if H.grid != cycle_cdf.grid:
        raise ValueError("H and the cycle CDF must share one grid")
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
    # NaN passes every comparison below, and the FFT would spread it
    for name, x in (("q", q.values), ("q's stderr", q.stderr),
                    ("H", H.values)):
        if x is not None and not np.all(np.isfinite(x)):
            raise ValueError(f"{name} must be finite")
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
