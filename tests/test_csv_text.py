"""The CSV cell writer against the per-cell "%.17g" oracle, byte for byte."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transient_queue.renewal import _CELL_BLOCK, _csv_text

from oracles import csv_text_by_cell


def assert_same_text(columns):
    columns = [np.asarray(c, dtype=float) for c in columns]
    header = ",".join(f"c{i}" for i in range(len(columns)))
    assert _csv_text(header, columns) == csv_text_by_cell(header, columns)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda ncol: st.lists(
    st.lists(st.integers(0, 2**64 - 1), min_size=ncol, max_size=ncol),
    min_size=1, max_size=40)))
def test_csv_text_matches_oracle_on_raw_bit_patterns(rows):
    cells = np.array(rows, dtype=np.uint64).view(np.float64)
    assert_same_text(list(cells.T))


def test_csv_text_matches_oracle_on_zeros_subnormals_and_non_finite():
    tiny = np.finfo(float).smallest_normal
    cells = np.array([0.0, 5e-324, tiny, np.nextafter(tiny, 0), 1.5e-310,
                      np.inf, np.nan, np.finfo(float).max])
    assert_same_text([cells, -cells, cells[::-1]])


def test_csv_text_matches_oracle_at_powers_of_ten_and_neighbours():
    # log10 misses the decimal exponent by one next to some of these
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_same_text([powers, np.nextafter(powers, 0),
                      np.nextafter(powers, np.inf)])


def test_csv_text_matches_oracle_where_the_digits_carry():
    # a double just below 10**k whose 17 digits round up to 10**17
    carried = [x for k, x in ((k, float(f"1e{k}")) for k in range(-99, 99))
               if Fraction(x) < Fraction(10) ** k
               and "%.16e" % x == "1.0000000000000000e%+03d" % k]
    assert len(carried) >= 3
    assert_same_text([carried, np.negative(carried)])


def test_csv_text_matches_oracle_on_exact_decimal_ties():
    # m 2**(E - 17) with m odd lies halfway between two 17-digit decimals
    # at E = -4 .. 15; "%.17g" rounds it to the even one
    rng = np.random.default_rng(5)
    ties = []
    for e in range(-4, 16):
        lo = 10**e * Fraction(2) ** (17 - e)
        hi = min(10 * lo, Fraction(2**53))
        m = rng.integers(int(lo) + 1, int(hi), 25) | 1
        ties += [float(v) for v in np.ldexp(m.astype(float), e - 17)
                 if np.floor(np.log10(v)) == e]
    for v in ties:
        scaled = Fraction(v) * Fraction(10) ** (16 - int(np.floor(np.log10(v))))
        assert scaled.denominator == 2
    assert_same_text([ties, np.negative(ties)])


@pytest.mark.parametrize("ncol", [1, 2, 3, 5])
def test_csv_text_matches_oracle_where_blocks_end(ncol):
    per_block = _CELL_BLOCK // ncol  # rows
    rng = np.random.default_rng(ncol)
    for rows in (1, per_block - 1, per_block, per_block + 1,
                 2 * per_block + 7):
        columns = [rng.normal(size=rows) * 10.0 ** rng.integers(-8, 20, rows)
                   for _ in range(ncol)]
        # cells left to "%.17g" at a block's last cell and the next's first
        columns[-1][min(per_block, rows) - 1] = 0.0
        columns[0][min(per_block, rows - 1)] = np.nan
        assert_same_text(columns)


def test_csv_text_traced_peak_stays_below_the_per_cell_format():
    # 4,001 rows of three columns, renewal_heavy's CSV; one "%" format over
    # all the cells as Python floats peaked at 850,926 bytes
    rng = np.random.default_rng(3)
    columns = [0.02 * np.arange(4001), rng.random(4001),
               0.01 * rng.random(4001)]
    want = csv_text_by_cell("t,value,stderr", columns)
    tracemalloc.start()
    try:
        text = _csv_text("t,value,stderr", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == want
    assert peak <= 850_926
