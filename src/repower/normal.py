"""Standard-normal primitives and effect-scale transforms.

All power formulas in this package reduce to Phi evaluated at a linear
combination of z-statistics, so everything funnels through the two
functions below.

``std_normal_cdf`` is W. J. Cody's rational Chebyshev approximation of
erfc (Cody 1969, "Rational Chebyshev approximations for the error
function", Math. Comp. 23, 631-637; the CALERF routine of SPECFUN) on
y = |x| / sqrt(2), in its three ranges y <= 0.46875, y <= 4 and y > 4.
It yields Phi(-|x|), and Phi(x) is that or one minus it.  The factor
exp(-x^2 / 2) of the two outer ranges is computed from x itself, without
rounding x^2: with a head xh = k / 16, k the nearest integer to 16 |x|,
and a tail dl = |x| - xh, x^2 = xh^2 + 2 xh dl + dl^2, where all but
dl^2 are exact.  Its exp is Tang's table-driven method (ACM TOMS 15,
144-157, 1989), with a reduction after Cody and Waite: n is the nearest
integer to x^2 512 / ln 2, and s = x^2 - n ln 2 / 512 is formed from
those terms and ln 2 / 512 in a high and a low part, so that it rounds
by less than 2^-61.  Then

    exp(-x^2 / 2) = 2^m T[j] (1 + q(s)),   -n = 1024 m + j, 0 <= j < 1024,

where T[j] = 2^(j / 1024), |s| <= ln 2 / 1024, and q is the degree-4
Taylor polynomial of exp(-s / 2) - 1, off by less than 2^-60.  The power
of two scales exactly, so the table and the polynomial round once each,
and the scaling only where the result is subnormal.  The table is built
once, from ``2.0 ** (j / 1024)``, as a Python list.  Phi(x) then keeps
a relative error of about 4 * 2^-52 or less for every x down to
underflow (x near -38.5); the rounding of Cody's Horner sums is most of
it.  One kernel evaluates a range for a float and for an array alike,
with the same IEEE operations in the same order, an array indexing a
numpy copy of the table, so the two agree bit for bit.  A float needs
nothing beyond the standard library; numpy is imported where an array
is built.

``std_normal_quantile`` is Wichura's AS241 (PPND16, Applied Statistics
37, 477-484, 1988), as the standard library's
``statistics.NormalDist.inv_cdf`` evaluates it.  Beyond its central
range (|p - 1/2| > 0.425) one Newton step on Phi follows, with the
residual taken in the nearer tail so that it keeps relative precision
down to the smallest normal tail; the result is then within about an
ulp.  In the central range AS241 alone is within 2.5 * 2^-52 relative,
and a step would only add the rounding of Phi near 1/2.  It works on
floats; an array is mapped element by element.

The input boundary lives here, for ``_methods`` to import: the rules,
each a function of (name, value) that raises a ValueError naming the
argument, the converter ``_float_or_array``, which refuses text and
complex values by name, ``single``, which runs a rule on a value as it
came and then makes it a Python float, ``settle``, which does so for
a frozen record's (field, rule) pairs, and ``record``, which makes the
rule of a record argument (a ``DesignConfig``, say).  A number given to
a public function here returns a Python float without importing numpy.
"""
import functools
import math
import statistics
import sys

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_INV_SQRT_PI = 5.6418958354775628695e-1
# Phi(-x) underflows to zero beyond x = 38.5; clamping |x| here keeps
# exp's head finite and its tail zero
_X_MAX = 40.0

# Cody's three approximations as (numerator, denominator) coefficients,
# highest power first, each in its own variable v:
#   y <= 0.46875:  erf(y) = y N(v) / D(v),                   v = y^2
#   y <= 4:        erfc(y) = exp(-y^2) N(v) / D(v),          v = y
#   y > 4:         erfc(y) = exp(-y^2) (1/sqrt(pi) - v N(v) / D(v)) / y,
#                                                            v = 1 / y^2
_CODY = (
    ((1.85777706184603153e-1, 3.16112374387056560e+0,
      1.13864154151050156e+2, 3.77485237685302021e+2,
      3.20937758913846947e+3),
     (1.0, 2.36012909523441209e+1, 2.44024637934444173e+2,
      1.28261652607737228e+3, 2.84423683343917062e+3)),
    ((2.15311535474403846e-8, 5.64188496988670089e-1,
      8.88314979438837594e+0, 6.61191906371416295e+1,
      2.98635138197400131e+2, 8.81952221241769090e+2,
      1.71204761263407058e+3, 2.05107837782607147e+3,
      1.23033935479799725e+3),
     (1.0, 1.57449261107098347e+1, 1.17693950891312499e+2,
      5.37181101862009858e+2, 1.62138957456669019e+3,
      3.29079923573345963e+3, 4.36261909014324716e+3,
      3.43936767414372164e+3, 1.23033935480374942e+3)),
    ((1.63153871373020978e-2, 3.05326634961232344e-1,
      3.60344899949804439e-1, 1.25781726111229246e-1,
      1.60837851487422766e-2, 6.58749161529837803e-4),
     (1.0, 2.56852019228982242e+0, 1.87295284992346725e+0,
      5.27905102951428412e-1, 6.05183413124413191e-2,
      2.33520497626869185e-3)),
)
_CODY_REST = [tuple(zip(num[2:], den[2:])) for num, den in _CODY]
# the range bounds y = 0.46875 and y = 4 on |x| = sqrt(2) y
_CODY_LOW, _CODY_HIGH = 0.46875 * _SQRT2, 4.0 * _SQRT2
_as241 = statistics.NormalDist().inv_cdf
# Tang's table, with the factor 1/2 of Phi(-x) = erfc(y) / 2 folded
# in, and ln 2 / 512 in two parts: the high part has 29 significant
# bits, so its product with any n < 2^21 (|x| <= _X_MAX gives n < 1.2e6)
# is exact
_EXP2 = [2.0 ** (j / 1024.0 - 1.0) for j in range(1024)]
_LN2_HI = 1.3538030834752135e-3         # 0x1.62e42fep-10
_LN2_LO = 3.5559296845784106e-12        # ln 2 / 512 - _LN2_HI
_LN2_LO_HI = _LN2_LO / _LN2_HI
_INV_LN2 = -512.0 / math.log(2.0)


@functools.cache
def _array_tables():
    """For arrays: a numpy copy of the table, rint in place, rint to
    indices, and ldexp in place (numpy's loop takes 32-bit exponents)."""
    import numpy as np
    return (np.array(_EXP2), lambda v: np.rint(v, out=v),
            lambda v: np.rint(v, out=v).astype(np.intp),
            lambda w, m: np.ldexp(w, m.astype(np.int32), out=w))


def _within(name, v, lo, hi, closed, text):
    """ValueError naming ``name`` unless lo < v < hi (lo <= v if closed).
    A float or an int is compared directly, NaN failing both bounds."""
    if isinstance(v, (float, int)):
        ok = ((v >= lo) if closed else (v > lo)) and v < hi
    else:
        import numpy as np
        try:
            ok = ((v >= lo) if closed else (v > lo)) & (v < hi)
            ok = ok.all() if isinstance(ok, np.ndarray) else ok
        except TypeError:       # None, a list: no number at all
            ok = False
    if not ok:
        raise ValueError(f"{name} must {text}")


def _float_or_array(name, v):
    """A number or a 0-d array as a Python float, else a float array;
    ValueError naming ``name`` for text or a complex value."""
    if isinstance(v, (float, int)):
        return float(v)
    import numpy as np
    v = np.asarray(v)
    if v.dtype.kind in "USc" or v.dtype == object and any(
            isinstance(e, (str, bytes, complex)) for e in v.flat):
        raise ValueError(f"{name} must be a real number or an array of them")
    v = v.astype(float, copy=False)
    return float(v) if v.ndim == 0 else v


def single(name, v, rule):
    """``v`` as a Python float, once ``rule(name, v)`` has passed on the
    value as it came; ValueError naming ``name`` unless it is one number
    (a float, an int, a numpy float or a 0-d array)."""
    rule(name, v)
    if type(v) is not float:
        v = _float_or_array(name, v)
        if not isinstance(v, float):
            raise ValueError(f"{name} must be a single number")
    return v


def settle(record):
    """A frozen record's ``__post_init__``: each (field, rule) pair of its
    ``_RULES`` through ``single``, setting only a field that changes and
    skipping one its ``_OPTIONAL`` names while it is None."""
    for name, rule in record._RULES:
        if (v := getattr(record, name)) is None and \
                name in getattr(record, "_OPTIONAL", ()):
            continue
        if (w := single(name, v, rule)) is not v:
            object.__setattr__(record, name, w)


def _rule(lo, hi, closed, text):
    """An input rule: ValueError naming the argument unless lo < v < hi
    (lo <= v if closed), with the message formatted once.  A float
    inside the bounds passes without a further call."""
    def rule(name, v):
        if not (type(v) is float and (v >= lo if closed else v > lo)
                and v < hi):
            _within(name, v, lo, hi, closed, text)
    return rule


def record(kind):
    """The input rule of a record argument: ValueError naming it unless
    it is a ``kind``; else the record, so that a call can check an
    argument where it passes it on.  The hot entry points test
    isinstance first and call the rule only for a value that fails."""
    def rule(name, v):
        if not isinstance(v, kind):
            raise ValueError(f"{name} must be of type {kind.__name__}, "
                             f"not {type(v).__name__}")
        return v
    return rule


finite = _rule(-math.inf, math.inf, False, "be finite")
positive = _rule(0.0, math.inf, False, "be positive and finite")
nonnegative = _rule(0.0, math.inf, True, "be finite and nonnegative")
unit = _rule(0.0, 1.0, False, "lie strictly in (0, 1)")
fraction = _rule(0.0, 1.0, True, "lie in [0, 1)")
# a size the table divides by: at least the smallest normal double
size = _rule(sys.float_info.min, math.inf, True,
             f"be at least {sys.float_info.min!r}")
_probability = _rule(0.0, 1.0, False, "lie strictly between 0 and 1")
_correlation = _rule(-1.0, 1.0, False, "lie strictly between -1 and 1")


def _checked(name, v, rule=None):
    """``v`` as a Python float or a float array; ValueError naming
    ``name`` if it holds NaN or, given a ``rule``, fails it."""
    v = _float_or_array(name, v)
    if v != v if isinstance(v, float) else (v != v).any():
        raise ValueError(f"{name} must not contain NaN")
    if rule is not None:
        rule(name, v)
    return v


def _cody(ax, band):
    """Cody's approximation in range ``band`` at a float ax, or an array
    of them, 0 <= ax <= _X_MAX: Phi(-ax) itself in range 0, else the
    factor r of Phi(-ax) = r exp(-ax^2 / 2) / 2."""
    y = ax / _SQRT2
    v = y * y if band == 0 else y if band == 1 else 1.0 / (y * y)
    num, den = _CODY[band]
    # Horner in place; the denominators lead with 1, and 1 * v is v
    p = num[0] * v
    p += num[1]
    q = v + den[1]
    for a, b in _CODY_REST[band]:
        p *= v
        p += a
        q *= v
        q += b
    r = p
    r /= q
    if band == 0:
        return 0.5 - 0.5 * (y * r)
    if band == 2:
        r = (_INV_SQRT_PI - v * r) / y
    return r


def _gauss(ax, r, tables=(_EXP2, round, round, math.ldexp)):
    """r exp(-ax^2 / 2) / 2 for a float ax, or an array of them, 0 <= ax
    <= _X_MAX, to the accuracy of the module docstring for ax beyond
    Cody's first range.  ``tables`` holds the table, rint, rint to
    indices and ldexp for the type of ax, by default for a float.  In
    place on an array, where on a float the same operations rebind, so
    the two agree bit for bit."""
    table, rint, nint, ldexp = tables
    h = rint(16.0 * ax)
    h *= 0.0625
    dl = ax - h
    e = h * h
    h *= dl
    h += h
    dl *= dl
    # -n, with n of the module docstring
    n = nint(ax * ax * _INV_LN2)
    # s: xh^2 - n ln2_hi is exact, a multiple of 2^-38 below 8, and so is
    # its sum with 2 xh dl, a multiple of 2^-56 below 2^-9; n ln2_lo,
    # below 2^-17, is taken as (n ln2_hi) (ln2_lo / ln2_hi)
    t = n * _LN2_HI
    e += t
    e += h
    t *= _LN2_LO_HI
    e += t
    e += dl
    # exp(-s / 2) - 1
    q = e * (1.0 / 384.0)
    q -= 1.0 / 48.0
    q *= e
    q += 0.125
    q *= e
    q -= 0.5
    q *= e
    w = table[n & 1023]
    q *= w
    w += q
    w *= r
    return ldexp(w, n >> 10)


def _cdf_float(x):
    """Phi(x) for a float x that is not NaN."""
    ax = abs(x)
    if ax > _X_MAX:
        ax = _X_MAX
    if ax <= _CODY_LOW:
        lower = _cody(ax, 0)
    else:
        lower = _gauss(ax, _cody(ax, 1 if ax <= _CODY_HIGH else 2))
    return lower if x < 0.0 else 1.0 - lower


def _cdf_array(x):
    """Phi over a 1-d float array without NaN; see the module docstring."""
    import numpy as np
    ax = np.abs(x)
    np.minimum(ax, _X_MAX, out=ax)
    # each point's range, 0, 1 or 2
    k = (ax > _CODY_LOW).astype(np.int8)
    k += ax > _CODY_HIGH
    lo, hi = int(k.min(initial=0)), int(k.max(initial=0))
    lower = np.empty_like(ax)
    for j in range(lo, hi + 1):
        sel = k == j
        lower[sel] = _cody(ax[sel], j)
    if hi > 0:
        # the outer ranges' factor on every point, and range 0's kept
        outer = _gauss(ax, lower, _array_tables())
        if lo == 0:
            np.copyto(outer, lower, where=k == 0)
        lower = outer
    out = 1.0 - lower
    np.copyto(out, lower, where=x < 0.0)
    return out


def std_normal_cdf(x):
    """Phi(x), the standard normal distribution function."""
    if type(x) is float and x == x:
        return _cdf_float(x)
    x = _checked("x", x)
    if isinstance(x, float):
        return _cdf_float(x)
    return _cdf_array(x.ravel()).reshape(x.shape)


def std_normal_pdf(x):
    """phi(x), the standard normal density, from Phi's exp kernel (whose
    table halves the factor): float and array agree bit for bit, within
    2.5 ulps of phi."""
    x = _checked("x", x)
    if isinstance(x, float):
        return _gauss(min(abs(x), _X_MAX), _SQRT_2_OVER_PI)
    return _gauss(abs(x).clip(max=_X_MAX), _SQRT_2_OVER_PI,
                  _array_tables())


def _quantile_float(p):
    """Phi^{-1}(p) for a float p strictly inside (0, 1)."""
    z = _as241(p)
    q = p - 0.5
    tail = p if q <= 0.0 else 1.0 - p      # exact for p > 1/2
    if abs(q) <= 0.425 or tail < sys.float_info.min:
        return z
    # Newton on Phi(-z) = tail for z >= 0, which keeps relative precision
    # down to the smallest normal tail
    z = abs(z)
    resid = _cdf_float(-z) - tail
    z += resid / (_INV_SQRT_2PI * math.exp(-0.5 * z * z))
    return -z if q < 0.0 else z


def std_normal_quantile(p):
    """Phi^{-1}(p) for p strictly inside (0, 1).

    Raises ValueError if any p lies outside the open unit interval
    (the quantile is unbounded at 0 and 1).
    """
    if type(p) is float and 0.0 < p < 1.0:
        return _quantile_float(p)
    p = _checked("p", p, _probability)
    if isinstance(p, float):
        return _quantile_float(p)
    import numpy as np
    return np.array([_quantile_float(v) for v in p.ravel().tolist()],
                    dtype=float).reshape(p.shape)


def fisher_z(r):
    """Fisher z-transform atanh(r) of a correlation, |r| < 1.

    A float takes ``math.atanh``, an array numpy's ``arctanh``: the two
    differ by at most 2 ulps.  Mapping the float kernel over an array
    would make a 1e5-point call about 12 times slower.
    """
    r = _checked("r", r, _correlation)
    if isinstance(r, float):
        return math.atanh(r)
    import numpy as np
    return np.arctanh(r)


def fisher_z_inv(z):
    """Back-transform tanh(z) from the Fisher scale to a correlation:
    ``math.tanh`` or numpy's, at most 2 ulps apart, as in ``fisher_z``."""
    z = _checked("z", z)
    if isinstance(z, float):
        return math.tanh(z)
    import numpy as np
    return np.tanh(z)


def _z_of_p(p):
    """-Phi^{-1}(p / 2) for a float p strictly inside (0, 1).

    The half of one p alone underflows, the smallest subnormal 2^-1074:
    there the root of 2 Phi(-z) = p, 38.4854083355673422... (mpmath), is
    returned correctly rounded.
    """
    if (h := p / 2.0) > 0.0:
        return -_quantile_float(h)
    return 38.48540833556734


def p_to_z(p, direction=1):
    """Signed z-statistic recovering a two-sided p-value.

    Parameters
    ----------
    p : float or array
        Two-sided p-value in (0, 1).
    direction : {1, -1}
        Sign of the underlying effect estimate.
    """
    if type(p) is float and 0.0 < p < 1.0 and \
            isinstance(direction, (int, float)) and direction in (1, -1):
        return float(direction) * _z_of_p(p)
    p = _checked("p", p, _probability)
    # |d| = 1: from 1 up to, not including, the next double
    d = _float_or_array("direction", direction)
    _within("direction", abs(d), 1.0, math.nextafter(1.0, 2.0), True,
            "be +1 or -1")
    if isinstance(p, float):
        return d * _z_of_p(p)
    import numpy as np
    return d * np.array([_z_of_p(v) for v in p.ravel().tolist()],
                        dtype=float).reshape(p.shape)


def z_to_p(z):
    """Two-sided p-value of a z-statistic."""
    return 2.0 * std_normal_cdf(-abs(_checked("z", z)))
