"""Accuracy of the normal primitives, the dominance thresholds and the
both-tail CPi supremum at a zero original against mpmath, and agreement
of the float and array paths.

Errors are in units of 2**-52 relative to the mpmath value, the unit of
the accuracy targets, except in the quantile's tails, where they are in
ulp of the mpmath root of Phi(z) = p.  Hypothesis runs derandomized, so
every run draws the same cases.
"""
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repower import (DesignConfig, _methods, p_to_z, std_normal_cdf,
                     std_normal_pdf, std_normal_quantile,
                     weight_dominance_threshold, z_to_p)

UNIT = 2.0 ** -52
TINY = 2.0 ** -1074
# Phi's relative error bound, in UNIT: erfc's own error is most of it,
# up to 3.12 on 1e6 x in its range 0.84375 <= |x| / sqrt(2) < 1.25, and
# 1.91 on 6e5 x elsewhere
CDF_BOUND = 3.5
DRAWN = settings(derandomize=True, database=None, deadline=None,
                 max_examples=300)
# log grids in |x| from 1e-3 to where Phi(-|x|) underflows, and to
# where Phi(x) rounds to 1
GRID = np.concatenate([-np.geomspace(1e-3, 38.5, 1500),
                       np.geomspace(1e-3, 8.3, 500), [0.0]])


def test_cdf_within_three_and_a_half_units_down_to_underflow():
    # the log grid, x = -4.8225, where Cody's erfc was 4.2 units off, and
    # a dense grid over (-5.66, -0.66), which spans erfc's least accurate
    # range, -1.25 sqrt(2) < x <= -0.84375 sqrt(2)
    xs = np.concatenate([GRID, [-4.8225], np.linspace(-5.66, -0.66, 20_001)])
    arr = std_normal_cdf(xs)
    with mpmath.workdps(40):
        for x, a in zip(xs.tolist(), arr.tolist()):
            got = std_normal_cdf(x)
            assert got == a
            ref = mpmath.ncdf(x)
            # a subnormal result keeps absolute precision only
            assert abs(got - ref) <= CDF_BOUND * UNIT * ref + 2.0 * TINY, x


def test_quantile_tails_within_one_and_a_half_ulp():
    # beyond |p - 1/2| = 0.425 AS241 is followed by a Newton step
    p = np.concatenate([np.geomspace(1e-300, 0.074, 600),
                        1.0 - np.geomspace(1e-16, 0.074, 100)])
    with mpmath.workdps(40):
        for pk in p.tolist():
            z = std_normal_quantile(pk)
            ref = mpmath.findroot(lambda t: mpmath.ncdf(t) - pk, z)
            assert abs(z - ref) <= 1.5 * math.ulp(float(ref)), pk


def test_quantile_central_range_within_three_units():
    # AS241's central approximation alone, with its own rounding; a
    # Newton step there would add the rounding of Phi near 1/2
    p = np.linspace(0.075, 0.5, 400)[:-1]
    with mpmath.workdps(40):
        for pk in p.tolist():
            z = std_normal_quantile(pk)
            ref = mpmath.findroot(lambda t: mpmath.ncdf(t) - pk, z)
            assert abs(z - ref) <= 3.0 * UNIT * abs(ref), pk


def test_correctly_rounded_quantiles():
    assert std_normal_quantile(5e-21) == -9.33604484923406
    assert std_normal_quantile(0.025) == -1.9599639845400543
    assert p_to_z(1e-20, +1) == 9.33604484923406


def test_z_to_p_beyond_double_precision_of_the_upper_tail():
    # 2 Phi(-38) is subnormal; an erfc of 38 / sqrt(2) underflowed to 0
    with mpmath.workdps(40):
        ref = 2 * mpmath.ncdf(-38)
    assert abs(z_to_p(38.0) - ref) <= 2.0 * TINY
    assert z_to_p(38.0) > 0.0


@DRAWN
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=40))
def test_cdf_float_and_array_paths_agree(xs):
    assert std_normal_cdf(np.array(xs)).tolist() == \
        [std_normal_cdf(x) for x in xs]


# the C library's erfc changes its approximation at y = |x| / sqrt(2) =
# 0.84375, 1.25, 1 / 0.35 and 28 (fdlibm's ranges, which glibc keeps)
EDGES = [sign * v for b in (0.84375 * math.sqrt(2.0), 1.25 * math.sqrt(2.0),
                            math.sqrt(2.0) / 0.35, 28.0 * math.sqrt(2.0))
         for v in (np.nextafter(b, 0.0), b, np.nextafter(b, 9.0))
         for sign in (1.0, -1.0)]


def test_pdf_within_three_ulps_down_to_underflow():
    # an exp of the rounded x^2 / 2 is off by up to ~480 ulps on this
    # grid, and a split at the head k / 16 by 3.3; the head k / 1024 is
    # within 2.5, and a subnormal density rounds once; float and array
    # agree
    xs = np.concatenate([np.linspace(-38.5, 38.5, 30_001),
                         np.geomspace(1e-3, 0.66, 200), EDGES, [0.0]])
    arr = std_normal_pdf(xs)
    with mpmath.workprec(200):
        for x, a in zip(xs.tolist(), arr.tolist()):
            got = std_normal_pdf(x)
            assert got == a
            ref = mpmath.npdf(x)
            assert abs(got - ref) <= 3.0 * math.ulp(float(ref)), x


@DRAWN
@given(st.lists(st.floats(-40.0, 40.0) | st.sampled_from(EDGES),
                min_size=1, max_size=40))
def test_cdf_paths_agree_across_the_range_boundaries(xs):
    assert std_normal_cdf(np.array(xs)).tolist() == \
        [std_normal_cdf(x) for x in xs]


@DRAWN
@given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                min_size=1, max_size=40))
def test_quantile_float_and_array_paths_agree(ps):
    assert std_normal_quantile(np.array(ps)).tolist() == \
        [std_normal_quantile(p) for p in ps]


def test_p_to_z_float_and_array_paths_agree():
    # a float p takes the float quantile directly; from the smallest p
    # up to the last double below 1 it matches the array path bit for
    # bit, and refuses what the array path refuses with its message
    ps = np.concatenate([[TINY], np.geomspace(1e-300, 0.5, 2001),
                         1.0 - np.geomspace(2.0 ** -53, 0.5, 500)])
    for direction in (1, -1):
        arrays = p_to_z(ps, direction).tolist()
        assert [p_to_z(p, direction) for p in ps.tolist()] == arrays
        assert [p_to_z(np.array(p), direction)
                for p in ps.tolist()] == arrays
    for p, direction in ((math.nan, 1), (0.0, 1), (1.0, -1), (1.5, 1),
                         (0.05, 0), (0.05, 1.5)):
        messages = []
        for value in (p, np.array([p])):
            with pytest.raises(ValueError) as exc:
                p_to_z(value, direction)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


def test_p_to_z_at_the_smallest_p():
    # p / 2 underflows to 0 at p = 2^-1074 alone; the root of 2 Phi(-z)
    # = 2^-1074, by mpmath in log space, is 38.485408335567342218
    root = 38.485408335567342218
    for direction in (1, -1):
        got = [p_to_z(form, direction) for form in
               (TINY, np.float64(TINY), np.array(TINY))]
        got.append(p_to_z(np.array([TINY]), direction)[0])
        assert len({v.hex() for v in got}) == 1
        assert abs(got[0] - direction * root) <= 2.0 * math.ulp(root)
    assert p_to_z(2.0 * TINY) == 38.46740561714434


@pytest.mark.parametrize("method, sizes", [
    # CPi's 4c overflowed near 4.5e307, IPPi's c * c above 1.3e154
    ("CPi", (1e-9, 1.0, 1e200, 1e300, 1.7e308)),
    ("IPPi", (1e-9, 1.0, 1e200, 1e300, 1.7e308)),
])
def test_dominance_threshold_at_extreme_c(method, sizes):
    # 4c / (sqrt(4c + 1) + 1)^2 and
    # 2c / (c^2 + 4c + 1 + (c + 1) sqrt(c^2 + 6c + 1)) at 50 digits
    with mpmath.workdps(50):
        for c in sizes:
            k = mpmath.mpf(c)
            if method == "CPi":
                ref = 4 * k / (mpmath.sqrt(4 * k + 1) + 1) ** 2
            else:
                ref = 2 * k / (k * k + 4 * k + 1 + (k + 1)
                               * mpmath.sqrt(k * k + 6 * k + 1))
            got = weight_dominance_threshold(method, c)
            assert abs(got - ref) <= 1e-14 * ref, c


@pytest.mark.parametrize("method", ["CPi", "IPPi"])
def test_dominance_threshold_at_subnormal_c(method):
    # both thresholds are about c there; CPi's d * d and IPPi's 0.5 / c
    # overflowed, which made them 0.0 and warned on an array
    with mpmath.workdps(50), warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (5e-324, 1e-310, 2e-308):
            k = mpmath.mpf(c)
            if method == "CPi":
                ref = 4 * k / (mpmath.sqrt(4 * k + 1) + 1) ** 2
            else:
                ref = 2 * k / (k * k + 4 * k + 1 + (k + 1)
                               * mpmath.sqrt(k * k + 6 * k + 1))
            for got in (weight_dominance_threshold(method, c),
                        weight_dominance_threshold(method,
                                                   np.array([c]))[0]):
                assert abs(got - ref) <= TINY, c


@pytest.mark.parametrize("method", ["CPi", "IPPi"])
def test_dominance_threshold_rounds_alike_in_every_form(method):
    # CPi squares by a product, as an array does: a float's ** 2, pow,
    # rounds 1-2 ulps apart at 9 of these sizes, such as c =
    # 7.079457843841749e-271
    sizes = np.geomspace(1e-300, 1e300, 20_001)
    whole = weight_dominance_threshold(method, sizes).tolist()
    for c, want in zip(sizes.tolist(), whole):
        forms = [c, np.array(c), np.array([c])]
        if c.is_integer():
            forms.append(int(c))
        for form in forms:
            got = weight_dominance_threshold(method, form)
            if np.ndim(form):
                got = got[0]
            else:
                assert type(got) is float
            assert got.hex() == want.hex(), (c, form)


def _around(v, n=4):
    """v and its n neighbouring doubles on either side."""
    out = [v]
    for direction in (-math.inf, math.inf):
        w = v
        for _ in range(n):
            w = math.nextafter(w, direction)
            out.append(w)
    return out


def test_cdf_paths_agree_at_the_exp_seams():
    # Phi reads no table: the seams that still matter are erfc's ranges
    # (EDGES) and the clamp at 40, for Phi, and the density's switch of
    # head k / 16 at (k + 1/2) / 16.  The table exp's seams are kept as
    # a dense sample over 0.6 < |x| < 40: its heads, where x^2 512 / ln 2
    # passed a half-integer, and where that passed a multiple of 1024
    seams = [k / 16.0 for k in range(10, 641)]
    seams += [(k + 0.5) / 16.0 for k in range(10, 640)]
    ln2 = math.log(2.0)
    for n in (*range(160, 1_181_000, 997), *range(1024, 1_181_000, 1024)):
        seams += [math.sqrt((n + 0.5) * ln2 / 512.0),
                  math.sqrt((n - 0.5) * ln2 / 512.0)]
    seams += [*EDGES, 40.0]
    xs = [s * x for v in seams for x in _around(v) for s in (1.0, -1.0)]
    assert len(xs) > 40_000
    assert std_normal_cdf(np.array(xs)).tolist() == \
        [std_normal_cdf(x) for x in xs]
    assert std_normal_pdf(np.array(xs)).tolist() == \
        [std_normal_pdf(x) for x in xs]


@DRAWN
@given(st.floats(-37.0, 37.0))
def test_cdf_within_its_bound_on_drawn_x(x):
    with mpmath.workdps(30):
        ref = mpmath.ncdf(x)
        assert abs(std_normal_cdf(x) - ref) <= CDF_BOUND * UNIT * ref, x


def _cpi_zero_supremum(alpha, zi, k):
    """The least upper bound over q = s / x of both-tail CPi at zd = 0,
    in mpmath at 30 digits with the double k = -z_alpha.  In sqrt(q) =
    sinh v and d = p - v, tanh p = |zi| / k, the power is Phi(-R cosh
    d) + Phi(-R cosh(2p - d)), R^2 = (k - |zi|)(k + |zi|), and alpha at
    v = 0.  Every local best of an 80-point grid in ln d from p e^-70 to
    p is refined by golden section."""
    with mpmath.workdps(30):
        k, a = mpmath.mpf(k), abs(mpmath.mpf(zi))
        if a == k:      # Phi(-R cosh d) tends to 1/2 as q grows
            return max(alpha, 0.5)
        if a == 0:
            return alpha
        r, p = mpmath.sqrt((k - a) * (k + a)), mpmath.atanh(a / k)

        def power(t):
            d = mpmath.exp(t)
            return (mpmath.ncdf(-r * mpmath.cosh(d))
                    + mpmath.ncdf(-r * mpmath.cosh(2 * p - d)))
        ts = [mpmath.log(p) - 70 + 70 * mpmath.mpf(i) / 80
              for i in range(81)]
        vals = [power(t) for t in ts]
        best, g = mpmath.mpf(alpha), (mpmath.sqrt(5) - 1) / 2
        for i in range(81):
            # a strict rise from the left, so that a plateau counts once
            if not (vals[i] > (vals[i - 1] if i else -1)
                    and vals[i] >= (vals[i + 1] if i < 80 else -1)):
                continue
            lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, 80)]
            m1, m2 = hi - g * (hi - lo), lo + g * (hi - lo)
            f1, f2 = power(m1), power(m2)
            while hi - lo > 1e-9:
                if f1 > f2:
                    hi, m2, f2 = m2, m1, f1
                    m1 = hi - g * (hi - lo)
                    f1 = power(m1)
                else:
                    lo, m1, f1 = m1, m2, f2
                    m2 = lo + g * (hi - lo)
                    f2 = power(m2)
            best = max(best, vals[i], f1, f2)
        return float(best)


K_03 = -DesignConfig(alpha=0.3).z_alpha


@settings(DRAWN, max_examples=100)
@example(alpha=0.05, frac=0.0)
@example(alpha=0.05, frac=1.0)
@example(alpha=0.05, frac=-(1.0 - 1e-12))
@example(alpha=1e-4, frac=0.8)
@example(alpha=0.9, frac=0.999)
# turns twice: a dip at q = 0.18, a peak of 0.34015 at q = 5.4
@example(alpha=0.3, frac=0.951 / K_03)
@given(alpha=st.floats(1e-4, 0.9),
       frac=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
def test_both_tail_cpi_supremum_at_a_zero_original(alpha, frac):
    config = DesignConfig(alpha=alpha, both_tails=True)
    k = -config.z_alpha
    zi = frac * k
    got = _methods.METHODS["CPi"].sup(0.0, zi, 1.0, None, config)
    want = _cpi_zero_supremum(alpha, zi, k)
    assert abs(got - want) <= 1e-13 * want, (alpha, zi)
