"""hedgelab.normal against scipy.special, bit for bit.

The oracle is scipy's compiled Cephes: every output double must equal
scipy.special.ndtr / ndtri's (compared as int64 bit patterns; NaN by
isnan), on a million seeded values per function, on hypothesis's finite
doubles, and on each edge and branch point with its neighbours.
"""

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgelab import normal


def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    bad = got.view(np.int64)[~nan] != want.view(np.int64)[~nan]
    assert not bad.any(), (got[~nan][bad][:5], want[~nan][bad][:5])


def around(points, ulps=32):
    """Each point and its ``ulps`` neighbouring doubles on either side."""
    out = []
    for p in points:
        lo = hi = float(p)
        out.append(lo)
        for _ in range(ulps):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            out += [lo, hi]
    return np.array(out)


SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310,
            -1e-310, 2.2250738585072014e-308, -2.2250738585072014e-308,
            1e300, -1e300, np.finfo(np.float64).max, -np.finfo(np.float64).max]


def test_ndtr_seeded_million():
    rng = np.random.default_rng(20240412)
    x = np.concatenate([rng.standard_normal(400_000) * scale
                        for scale in (1.0, 6.0)]
                       + [rng.uniform(-40.0, 40.0, 200_000)])
    assert_bits_equal(normal.ndtr(x), scipy.special.ndtr(x))


def test_ndtri_seeded_million():
    rng = np.random.default_rng(20240413)
    p = np.concatenate([rng.random(600_000),
                        np.exp(-rng.uniform(0.0, 745.0, 200_000)),
                        1.0 - np.exp(-rng.uniform(0.0, 37.0, 200_000))])
    assert_bits_equal(normal.ndtri(p), scipy.special.ndtri(p))


def test_ndtr_edges_and_branch_points():
    # x = a / sqrt(2): erf below sqrt(1/2), erfc's 1 - erf below 1, its
    # P/Q and R/S fits either side of 8, and the underflow of exp(-x^2)
    # at x^2 = MAXLOG
    xs = [normal.SQRT1_2, 1.0, 8.0, np.sqrt(normal.MAXLOG)]
    a = around([s * x / normal.SQRT1_2 for x in xs for s in (1.0, -1.0)])
    a = np.concatenate([a, SPECIALS])
    assert_bits_equal(normal.ndtr(a), scipy.special.ndtr(a))


def test_ndtri_edges_and_branch_points():
    # the body's edges exp(-2) and 1 - exp(-2), the tails' switch at
    # sqrt(-2 log y) = 8, the domain's ends, and values outside it
    em2 = normal.EXP_M2
    p = around([em2, 1.0 - em2, np.exp(-32.0), 1.0 - np.exp(-32.0),
                0.5, 1e-300])
    p = np.concatenate([p, SPECIALS, [1.0, np.nextafter(1.0, 0.0),
                                      np.nextafter(1.0, 2.0), 0.5 + 1e-17,
                                      -0.5, 1.5, -1.0, 2.0]])
    assert_bits_equal(normal.ndtri(p), scipy.special.ndtri(p))
    assert normal.ndtri(np.array([0.0, 1.0])).tolist() == [-np.inf, np.inf]
    outside = np.array([-1e-300, np.nextafter(1.0, 2.0), np.nan])
    assert np.isnan(normal.ndtri(outside)).all()


def test_shape_kept_across_chunks():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, normal.CHUNK + 7))
    assert_bits_equal(normal.ndtr(x), scipy.special.ndtr(x))
    p = rng.random((normal.CHUNK + 3, 2))
    assert_bits_equal(normal.ndtri(p), scipy.special.ndtri(p))
    assert normal.ndtr(np.empty(0)).shape == (0,)


@settings(max_examples=400, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_ndtr_property_finite_doubles(x):
    a = np.array([x])
    assert_bits_equal(normal.ndtr(a), scipy.special.ndtr(a))


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.floats(min_value=0.0, max_value=1.0),
                 st.floats(allow_nan=False, allow_infinity=False)))
def test_ndtri_property_finite_doubles(p):
    a = np.array([p])
    assert_bits_equal(normal.ndtri(a), scipy.special.ndtri(a))


@pytest.mark.parametrize("fn", ["ndtr", "ndtri"])
def test_no_warnings_on_edges(fn, recwarn):
    getattr(normal, fn)(np.array(SPECIALS))
    assert not recwarn.list
