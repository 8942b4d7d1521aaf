"""Standard-normal primitives and effect-scale transforms.

All power formulas in this package reduce to Phi evaluated at a linear
combination of z-statistics, so everything funnels through the two
functions below.

``std_normal_cdf`` takes Phi(-|x|) = erfc(y) / 2 at y = |x| / sqrt(2)
from the standard library's ``math.erfc``, and Phi(x) is that or one
minus it.  Rounding y alone would cost Phi a relative error of about
x^2 2^-53, so y is carried as a pair y + e to about 2^-104: Dekker's
exact product (1971) of |x| and the head of 1/sqrt(2), with a Veltkamp
split of |x|, plus |x| times the tail of 1/sqrt(2).  The tail e enters
to first order,

    Phi(-|x|) = erfc(y) / 2 - e exp(-y^2) / sqrt(pi),

and on glibc Phi keeps a relative error within 3.5 * 2^-52 for every x
down to underflow (x near -38.5), most of it erfc's own: up to 3.1
where 0.84375 <= y < 1.25, and 1.9 elsewhere.  Where erfc(y) is
subnormal, its half rounds once more.  Phi's last bits are those of the
C library's erfc.

``std_normal_pdf`` splits |x| at the head xh = k / 1024, k the nearest
integer to 1024 |x|, whose square is exact, and the tail dl = |x| - xh:
phi(x) = h (1 + expm1(-(xh + dl / 2) dl)), h = exp(-xh^2 / 2) / sqrt(2 pi),
with h scaled by 2^64 and the result scaled back once, so that a
subnormal density rounds once.  It is within 2.5 ulps.

``std_normal_quantile`` is Wichura's AS241 (PPND16, Applied Statistics
37, 477-484, 1988), as the standard library's
``statistics.NormalDist.inv_cdf`` evaluates it.  Beyond its central
range (|p - 1/2| > 0.425) one Newton step on Phi follows, with the
residual taken in the nearer tail so that it keeps relative precision
down to the smallest normal tail; the result is then within about an
ulp.  In the central range AS241 alone is within 2.5 * 2^-52 relative,
and a step would only add the rounding of Phi near 1/2.

Each primitive is one float kernel, and an array maps it element by
element (``_mapped``), so a float and an array give the same bits.
Only Phi keeps numpy arithmetic, as the solver's scans evaluate it on
1200-point grids: mapped, its float kernel made the slowest scans about
three times as long.  Its array kernel runs the float's IEEE operations
in the same order, with ``math.erfc`` and ``math.exp`` mapped, so it
too agrees with a float bit for bit.  A float needs nothing beyond the
standard library; numpy is imported where an array is built.

The input boundary lives here, for ``_methods`` to import: the rules,
each a function of (name, value) that raises a ValueError naming the
argument, the converter ``_float_or_array``, which refuses text and
complex values by name, ``single``, which runs a rule on a value as it
came and then makes it a Python float, ``settle``, which does so for
a frozen record's (field, rule) pairs, and ``record``, which makes the
rule of a record argument (a ``DesignConfig``, say).  A number given to
a public function here returns a Python float without importing numpy.
"""
import math
import statistics
import sys

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_SQRT_PI = 5.6418958354775628695e-1
# phi's constant times 2^64, which keeps a subnormal density's product
# normal until it is scaled back
_PDF_SCALE = 64
_INV_SQRT_2PI_UP = math.ldexp(_INV_SQRT_2PI, _PDF_SCALE)
# Phi(-x) underflows to zero beyond x = 38.5; clamping |x| here keeps
# the split of x finite
_X_MAX = 40.0
# 1/sqrt(2) as a head and a tail, the head split into halves of at most
# 26 bits for Dekker's product
_RSQRT2 = 0.7071067811865476
_RSQRT2_TAIL = -4.833646656726457e-17
_SPLIT = 134217729.0        # 2^27 + 1, Veltkamp's splitter
_RSQRT2_HI = _SPLIT * _RSQRT2 - (_SPLIT * _RSQRT2 - _RSQRT2)
_RSQRT2_LO = _RSQRT2 - _RSQRT2_HI
_as241 = statistics.NormalDist().inv_cdf


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


def _lower(ax, erfc=math.erfc, exp=math.exp):
    """Phi(-ax) for a float ax, 0 <= ax <= _X_MAX, or for an array of
    them with ``erfc`` and ``exp`` mapped over it; the same operations
    in the same order, so the two agree bit for bit."""
    y = ax * _RSQRT2
    # e: ax / sqrt(2) - y, from the exact error of the product and the
    # tail of 1/sqrt(2)
    t = ax * _SPLIT
    hi = t - (t - ax)
    lo = ax - hi
    e = ((hi * _RSQRT2_HI - y) + hi * _RSQRT2_LO + lo * _RSQRT2_HI) \
        + lo * _RSQRT2_LO
    e += ax * _RSQRT2_TAIL
    return 0.5 * erfc(y) - e * _INV_SQRT_PI * exp(-y * y)


def _mapped(fn):
    """A float function mapped over a float array."""
    import numpy as np
    return lambda v: np.fromiter(map(fn, v.ravel().tolist()), float,
                                 v.size).reshape(v.shape)


def _cdf_float(x):
    """Phi(x) for a float x that is not NaN."""
    ax = abs(x)
    lower = _lower(ax if ax <= _X_MAX else _X_MAX)
    return lower if x < 0.0 else 1.0 - lower


def _cdf_array(x):
    """Phi over a 1-d float array without NaN; see the module docstring."""
    import numpy as np
    lower = _lower(np.minimum(np.abs(x), _X_MAX), _mapped(math.erfc),
                   _mapped(math.exp))
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


def _pdf_float(x):
    """phi(x) for a float x that is not NaN."""
    ax = min(abs(x), _X_MAX)
    xh = round(1024.0 * ax) / 1024.0
    dl = ax - xh
    head = _INV_SQRT_2PI_UP * math.exp(-0.5 * xh * xh)
    return math.ldexp(head + head * math.expm1(-(xh + 0.5 * dl) * dl),
                      -_PDF_SCALE)


def std_normal_pdf(x):
    """phi(x), the standard normal density."""
    x = _checked("x", x)
    return _pdf_float(x) if isinstance(x, float) else _mapped(_pdf_float)(x)


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
    return _mapped(_quantile_float)(p)


def fisher_z(r):
    """Fisher z-transform atanh(r) of a correlation, |r| < 1."""
    r = _checked("r", r, _correlation)
    return math.atanh(r) if isinstance(r, float) else _mapped(math.atanh)(r)


def fisher_z_inv(z):
    """Back-transform tanh(z) from the Fisher scale to a correlation."""
    z = _checked("z", z)
    return math.tanh(z) if isinstance(z, float) else _mapped(math.tanh)(z)


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
    return d * (_z_of_p(p) if isinstance(p, float) else _mapped(_z_of_p)(p))


def z_to_p(z):
    """Two-sided p-value of a z-statistic."""
    return 2.0 * std_normal_cdf(-abs(_checked("z", z)))
