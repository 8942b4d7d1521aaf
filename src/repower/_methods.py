"""The method table: the one place where each power method is defined.

Every power is Phi(t + z), plus Phi(-t + z) when rejections in both
directions count.  The data part t carries the shrunken original z
``zd`` and the interim z ``zi``, the quantile part z the critical value.
Sizes are relative to the original study: ``s = ni / no`` has already
been observed and ``x = nj / no`` is still to come, so a replication of
total size c at interim fraction f has s = c * f and x = c * (1 - f),
and a fixed design is the case s = 0, x = c.  A ``Method`` entry holds
the Phi argument as ``parts(zd, zi, s, x, config) -> (t, z)``, the
inputs the method needs, its supremum rule ``sup(zd, zi, s, f,
config)`` and its inverse rule ``inverse(zd, zi, s, f, level,
config)``: with ``f`` None a rule covers x growing at fixed s, else c
growing at the fixed interim fraction f.  A supremum rule returns the
supremum: a limit, or Phi at a root of the argument's slope
(``_newton``); only IPPi over c at a fixed f returns the tuple of its
limits, for the one numeric search, in ``solver``.  An inverse rule
returns an estimate of the first size at which the one-tail argument
reaches ``level`` on a rising piece from the bottom of the axis, or
None; IPPi has none.  An estimate can overflow to inf, which ``solver``
treats as no estimate.  Each rule is written once.  PPi's argument is
FBP's with zi for zd, z_alpha for z_alpha_tilde and x / s for x, so
PPi reads FBP's pooled-analysis rules (``_pooled_sup``,
``_pooled_inv``) in its own coordinates and scales the size by s.
CP's argument, and CPi's at a fixed f, rise along a line in sqrt(x),
or in sqrt(c), and share its inverse, ``_line_inv``, with
``design.cp_pp_intersection``.  ``solver`` also calls the fixed-design
rules at |zd|, and at zd = 0 where they invert z alone, to bound and
estimate a both-tail crossing; they read only the critical values of the
config, which do not depend on the tails counted.  The input rules
and converters live in ``normal`` and are imported here: every public
entry point checks its arguments with them, and nothing below checks
again.  Scalar inputs reach the table as Python floats, through
``single`` (``Method.check`` for zo and zi, the records' ``settle``) or
``_float_or_array`` (scalar sizes).  The parts also take
arrays: ``_sqrt`` is ``math.sqrt`` on a number and numpy's on an array,
both correctly rounded, so a float stays a Python float and numpy is
imported only where an array arrives.
"""
import math
from dataclasses import dataclass

from .normal import (_float_or_array, _mapped, _within, finite,
                     fraction, nonnegative, positive, record, settle,
                     single, size, std_normal_cdf, unit)

# the roots of c^2 + 6c + 1 are -(3 -+ 2 sqrt(2)), correctly rounded
_3_MINUS_2_SQRT2 = 0.1715728752538099
_3_PLUS_2_SQRT2 = 5.82842712474619


def _sqrt(v):
    """The square root of a number, or of an array elementwise."""
    if isinstance(v, (float, int)):
        return math.sqrt(v)
    import numpy as np
    return np.sqrt(v)


def _tail_power(t, z, both_tails):
    power = std_normal_cdf(t + z)
    if both_tails:
        power = power + std_normal_cdf(-t + z)
    return power


def _counts(zd, cfg):
    """Whether a point effect at zd rejects surely as c grows."""
    return zd != 0.0 if cfg.both_tails else zd > 0.0


def _significant(zi, cfg):
    """Whether the interim alone is significant in a counted direction."""
    za = cfg.z_alpha
    return abs(zi) > -za if cfg.both_tails else zi + za > 0.0


def _newton(fn, lo, hi):
    """A root of ``fn`` (value, slope) in [lo, hi], 0 < lo, where fn
    changes sign, by Newton steps from hi; one that leaves the bracket or
    fails to halve becomes a geometric bisection.  Stops below 1e-13 x."""
    below, x, last = fn(lo)[0] < 0.0, hi, hi - lo
    for _ in range(200):
        f, df = fn(x)
        lo, hi = (x, hi) if (f < 0.0) == below else (lo, x)
        step = f / df if df != 0.0 else math.inf
        if abs(step) <= 1e-13 * x:
            return x - step
        xn = x - step
        if not lo < xn < hi or abs(step) > 0.5 * abs(last):
            xn = math.sqrt(lo) * math.sqrt(hi)
        last, x = x - xn, xn
    return x


def _quadratic(a, h, c, d, unsquared):
    """The positive root of a r^2 + 2 h r + c = 0 at which ``unsquared``,
    the equation before squaring, is least in size, or None.  Its quarter
    discriminant d = h^2 - a c comes in a form free of cancellation: with
    q = -(h + sign(h) sqrt(d)) the roots are q / a and c / q."""
    if not d >= 0.0:
        return None
    q = -(h + math.copysign(math.sqrt(d), h))
    roots = [n / m for n, m in ((q, a), (c, q))
             if m != 0.0 and 0.0 < n / m < math.inf]
    return min(roots, key=lambda r: abs(unsquared(r)), default=None)


def _ippi_limit(zd, zi, s, cfg):
    """IPPi as the remaining size x grows at fixed s."""
    arg = _sqrt(1.0 / (s + 1.0)) * zd + _sqrt(s / (s + 1.0)) * zi
    return _tail_power(arg, 0.0, cfg.both_tails)


def _cp(zd, zi, s, x, cfg):
    return _sqrt(x) * zd, cfg.z_alpha


def _cp_sup(zd, zi, s, f, cfg):
    if _counts(zd, cfg):
        return 1.0
    return cfg.alpha if cfg.both_tails else cfg.alpha / 2.0


def _line_inv(slope, rise):
    # sqrt(x) slope = rise, a line rising in sqrt(x) if the slope is > 0
    r = rise / slope if slope > 0.0 else 0.0
    return r * r if r > 0.0 else None


def _pp(zd, zi, s, x, cfg):
    return _sqrt(x / (x + 1.0)) * zd, _sqrt(1.0 / (x + 1.0)) * cfg.z_alpha


def _pp_sup(zd, zi, s, f, cfg):
    if cfg.both_tails:
        return 1.0      # both-tail rejection -> 1 as c grows
    return max(std_normal_cdf(zd), cfg.alpha / 2.0)


def _pp_inv(zd, zi, s, f, level, cfg):
    # (r zd + z_alpha) / sqrt(1 + r^2) = level, r = sqrt(x), squared.  It
    # starts at z_alpha and, for zd < 0, dips before it rises towards zd
    za, ll = cfg.z_alpha, level * level
    if not za < level < zd:
        return None
    r = _quadratic(zd * zd - ll, zd * za, za * za - ll,
                   ll * (zd * zd + za * za - ll),
                   lambda r: r * zd + za - level * math.hypot(1.0, r))
    return r * r if r else None


def _fbp(zd, zi, s, x, cfg):
    return _sqrt((x + 1.0) / x) * zd, _sqrt(1.0 / x) * cfg.z_alpha_tilde


def _pooled_sup(z, k, both_tails):
    # (z sqrt(x + 1) + k) / sqrt(x) tends to z as x grows, and beyond the
    # threshold z + k > 0 to +inf as x -> 0; both tails: -> 1 as x grows
    if both_tails or z + k > 0.0:
        return 1.0
    return std_normal_cdf(z)


def _pooled_inv(z, k, level):
    # (z sqrt(r^2 + 1) + k) / r = level, r = sqrt(x), squared; it rises
    # towards z, but beyond the threshold it falls from +inf first
    zz, kk, ll = z * z, k * k, level * level
    if z + k > 0.0 or level >= z:
        return None
    r = _quadratic(ll - zz, -level * k, kk - zz, zz * (ll + kk - zz),
                   lambda r: level * r - k - z * math.hypot(1.0, r))
    return r * r if r else None


def _pooled_min(z, k):
    # beyond the threshold z + k > 0 the argument falls from +inf to its
    # minimum sqrt(gap), gap = (z + k)(z - k), at x = gap / k^2; else None
    if z + k > 0.0:
        gap = (z + k) * (z - k)
        return gap / (k * k), std_normal_cdf(math.sqrt(gap))


def _cbp(zd, zi, s, x, cfg):
    return ((x + 1.0) / _sqrt(x) * zd,
            _sqrt((x + 1.0) / x) * cfg.z_alpha_tilde)


def _cbp_peak(zd, k):
    """v = x + 1 where CBP's argument peaks at zd < 0, k = -z_alpha_tilde:
    the root of the falling slope zd (v - 2) + k / sqrt(v), which lies in
    [max(2, v0), max(4, 1.6 v0)], v0 = (k / |zd|)^(2/3)."""
    v0 = k ** (2.0 / 3.0) * (-zd) ** (-2.0 / 3.0)
    return _newton(lambda v: (zd * (v - 2.0) + k / math.sqrt(v),
                              zd - 0.5 * k / (v * math.sqrt(v))),
                   max(2.0, v0), max(4.0, 1.6 * v0))


def _cbp_sup(zd, zi, s, f, cfg):
    if _counts(zd, cfg):
        return 1.0
    if zd == 0.0:
        return cfg.alpha_tilde if cfg.both_tails else cfg.alpha_tilde / 2.0
    v = _cbp_peak(zd, -cfg.z_alpha_tilde)
    return _tail_power(*_cbp(zd, zi, s, v - 1.0, cfg), False)


def _cbp_inv(zd, zi, s, f, level, cfg):
    # in y = sqrt(x), w = sqrt(x + 1) the argument is w (w zd - k) / y, k =
    # -z_alpha_tilde.  It rises from -inf for 0 <= zd < k (its slope has
    # the sign of zd w^3 - 2 zd w + k) and for zd < 0 up to its peak.  It
    # meets level at x0 for zd = 0, and for zd > 0 past sqrt(x0), and
    # where w zd >= k and y zd - k >= level.  It lies under y max(zd, 0)
    # - (k - zd) / y, which is at most level up to y = lo
    k = -cfg.z_alpha_tilde
    x0 = k * k / ((level + k) * (level - k)) if level < -k else math.inf
    if zd == 0.0 or zd >= k:
        return x0 if zd == 0.0 and x0 < math.inf else None
    hi = math.sqrt(_cbp_peak(zd, k) - 1.0) if zd < 0.0 else min(
        max(math.sqrt((k - zd) * (k + zd)), level + k) / zd,
        math.sqrt(x0) * (1.0 + 2.0 ** -40))
    top = max(zd, 0.0) - level
    lo = min(1.0, (k - zd) / top) if top > 0.0 else 1.0

    def fn(y):
        w = math.hypot(1.0, y)
        return (w * (w * zd - k) / y - level,
                (zd * (y * y - 1.0) * w + k) / (y * y * w))
    if not fn(hi)[0] >= 0.0:    # a peak below level, or an overflow
        return None
    y = _newton(fn, lo, hi)
    return y * y


def _cpi(zd, zi, s, x, cfg):
    q = s / x
    return _sqrt(x) * zd + _sqrt(q) * zi, _sqrt(1.0 + q) * cfg.z_alpha


def _cpi_peak(a, k):
    """Both-tail CPi's interior peak over q = s / x at zd = 0, or 0; a =
    |zi| <= k = -z_alpha.  In sqrt(q) = sinh v it is Phi(-R cosh(v - p))
    + Phi(-R cosh(v + p)), R^2 = (k - a)(k + a), tanh p = a / k: alpha at
    v = 0 and falling past p.  Its slope has the sign of h = ln(sinh(p -
    v) / sinh(p + v)) + a k sinh 2v, and h' the sign of -(R^2 c^2 - R^2
    C c + 2), c = cosh 2v, C = cosh 2p: h falls from 0, rises between
    the roots and falls to -inf at p.  A peak is the root of h past the
    larger root, if h > 0 there, solved in d = p - v; below d = 1e-10
    the power at d = 0 is the peak's to rounding."""
    r2, kk, ak = (k - a) * (k + a), k * k + a * a, a * k
    if r2 == 0.0:       # the edge of significance: 1/2 as q -> inf
        return 0.5
    # the larger root, or C / 2 where there are none
    c = (kk + math.sqrt(max(kk * kk - 8.0 * r2, 0.0))) / (2.0 * r2)
    if not c > 1.0:
        return 0.0
    two_p = math.log1p(2.0 * a / (k - a))
    lo, hi = 1e-10, 0.5 * (two_p - math.acosh(c))

    def h(d):
        return (math.log(math.sinh(d)) - math.log(math.sinh(two_p - d))
                + ak * math.sinh(two_p - 2.0 * d),
                1.0 / math.tanh(d) + 1.0 / math.tanh(two_p - d)
                - 2.0 * ak * math.cosh(two_p - 2.0 * d))
    if hi > lo and not h(hi)[0] > 0.0:
        return 0.0
    d = _newton(h, lo, hi) if hi > lo and h(lo)[0] < 0.0 else 0.0
    r = math.sqrt(r2)
    return (std_normal_cdf(-r * math.cosh(d))
            + std_normal_cdf(-r * math.cosh(two_p - d)))


def _cpi_sup(zd, zi, s, f, cfg):
    # a significant interim forces success as nj -> 0, a counted point
    # effect as c grows
    if _counts(zd, cfg) or (f is None and _significant(zi, cfg)):
        return 1.0
    if f is not None:
        # at fixed f the argument falls in c, or is level at zd = 0: its
        # c -> 0 limit, where the zd term vanishes
        return _tail_power(*_cpi(0.0, zi, f, 1.0 - f, cfg), cfg.both_tails)
    if cfg.both_tails:      # zd = 0: a curve of q = s / x alone
        return max(cfg.alpha, _cpi_peak(abs(zi), -cfg.z_alpha))
    # one tail in u = x / s: the argument is -w sqrt(u) + zi / sqrt(u)
    # - k sqrt(1 + 1 / u), w = -zd sqrt(s) >= 0, k = -z_alpha, its slope
    # of the sign of -w u - zi + k / sqrt(1 + u), which falls, with its
    # root in [(k - zi) / (2w + k), (k - zi) / w]
    k, w = -cfg.z_alpha, -zd * math.sqrt(s)
    hi = (k - zi) / w if w > 0.0 else math.inf
    if not 0.0 < hi < math.inf:
        # w = 0 or negligible: a peak of -sqrt(k^2 - zi^2) if 0 < zi, else
        # -k; at zi = k, the edge of significance, 0 as u -> 0
        return cfg.alpha / 2.0 if zi <= 0.0 else max(
            cfg.alpha / 2.0, std_normal_cdf(-math.sqrt((k - zi) * (k + zi))))
    u = _newton(lambda u: (-w * u - zi + k / math.sqrt(1.0 + u),
                           -w - 0.5 * k / ((1.0 + u) * math.sqrt(1.0 + u))),
                (k - zi) / (2.0 * w + k), hi)
    return std_normal_cdf(-w * math.sqrt(u) + zi / math.sqrt(u)
                          - k * math.sqrt(1.0 + 1.0 / u))


def _cpi_inv(zd, zi, s, f, level, cfg):
    # at a fixed f: sqrt(c (1 - f)) zd plus its c -> 0 limit, without zd
    if f is None:
        return None
    t, z = _cpi(0.0, zi, f, 1.0 - f, cfg)
    return _line_inv(math.sqrt(1.0 - f) * zd, level - t - z)


def _ippi(zd, zi, s, x, cfg):
    # r: the remaining size against the stage-1 posterior, which holds
    # s + 1 original sizes
    r = x / (s + 1.0)
    q = s / x
    # divided in turn: (1 + r)(s + 1) overflows near the top of the doubles
    w_o = _sqrt(r / (1.0 + r) / (s + 1.0))
    w_i = _sqrt(q * (1.0 + r))
    return w_o * zd + w_i * zi, _sqrt((1.0 + q) / (1.0 + r)) * cfg.z_alpha


def _ippi_sup(zd, zi, s, f, cfg):
    if f is not None:
        # the argument turns up to three times, and the both-tail power
        # may peak anywhere: no rule, the limits only, for the search in
        # ``solver``: as c -> 0 (CPi's without zd) and as c grows (the
        # original's weight vanishes)
        return (_tail_power(*_cpi(0.0, zi, f, 1.0 - f, cfg), cfg.both_tails),
                _tail_power(*_ppi(zd, zi, f, 1.0 - f, cfg), cfg.both_tails))
    # both tails: Phi(a) + Phi(-a) = 1 as the quantile's weight vanishes
    if cfg.both_tails or _significant(zi, cfg):
        return 1.0
    limit = _ippi_limit(zd, zi, s, cfg)
    # the argument's slope in x has the sign of P(v) = k v^4 + (zd - r zi)
    # v^3 - (s zd + r zi) v + k s, v = sqrt(x + s) > r = sqrt(s), k =
    # -z_alpha: P > 0 at v = r (= 0 at zi = k, where the argument tends
    # to 0 as x -> 0) and as v grows, with one inflection at most, so the
    # argument peaks at most once, at the first root, below P's minimiser.
    # In y = v / r, dp = P'(v) / v^2 and p = P(v) / v^3 do not overflow
    # unless d or the bracket on dp's root does, at a tiny s.  Where zi /
    # r would, zd, zi and k are scaled by a power of two, which moves no
    # root; the power at the peak reads the unscaled inputs.
    k, r = -cfg.z_alpha, math.sqrt(s)
    if zi >= k:
        return max(limit, 0.5)
    unscaled = zd, zi
    if abs(zi) > 2.0 ** 1000 * r:
        m = math.frexp(zi)[1] - math.frexp(r)[1] - 1000
        zd, zi, k = (math.ldexp(v, -m) for v in (zd, zi, k))
    d = zd + zi / r

    def dp(y):
        return (r * (4.0 * k * y - 3.0 * zi) + 3.0 * zd - d / (y * y),
                4.0 * r * k + 2.0 * d / (y * y * y))

    def p(y):
        # zd - d / y^2 as zd (y - 1)(y + 1) / y^2 - zi / (r y^2), which
        # does not cancel near y = 1
        return (r * (k * y - zi) + zd * ((y - 1.0) / y) * ((y + 1.0) / y)
                - zi / (r * y * y) + k / (r * y * y * y),
                r * k + 2.0 * d / (y * y * y) - 3.0 * k / (r * y * y * y * y))
    # dp rises for d >= 0, else is convex with its minimum at y = cube
    cube = (abs(d) / (2.0 * k)) ** (1.0 / 3.0) / r ** (1.0 / 3.0)
    lo = max(1.0, cube if d < 0.0 else 1.0)
    if dp(lo)[0] >= 0.0:
        return limit
    hi = 2.0 * max(lo, 1.5 * abs(zd - r * zi) / (r * k), cube)
    if not abs(d) + hi < math.inf:
        raise ValueError(f"zo and zi are too large in size for a stage-1 "
                         f"size of {s:.6g}: IPPi's supremum rule overflows")
    y = _newton(dp, lo, hi)
    if p(y)[0] >= 0.0:
        return limit
    y = _newton(p, 1.0, y)
    # a root within half an ulp of y = 1 is one Newton step from there,
    # where p = (k - zi)(r + 1 / r); a peak below x = s 1e-300, where s / x
    # stays finite, or below the least positive x is taken there, past it
    e = y - 1.0 or (k - zi) * (r + 1.0 / r) / -p(1.0)[1]
    x = max(s * e * (y + 1.0), s * 1e-300, 5e-324)
    return max(limit, _tail_power(*_ippi(*unscaled, s, x, cfg), False))


def _ippi_dominance(c):
    """The dominance threshold 2c / (c^2 + 4c + 1 + (c + 1) sqrt(c^2 +
    6c + 1)), the same at c and 1/c: taken at m = min(c, 1/c) <= 1,
    where no term overflows."""
    m = 1.0 / c if c > 1.0 else c
    return 2.0 * m / (m * m + 4.0 * m + 1.0 + (m + 1.0)
                      * math.sqrt(m + _3_MINUS_2_SQRT2)
                      * math.sqrt(m + _3_PLUS_2_SQRT2))


def _ppi(zd, zi, s, x, cfg):
    # FBP's weights at c = x / s, with the flat-analysis quantile in
    # place of the pooled one
    q = s / x
    return _sqrt(1.0 + q) * zi, _sqrt(q) * cfg.z_alpha


@dataclass(frozen=True)
class Method:
    """One power method, see the module docstring.

    ``priors`` is its (design prior, analysis prior).  ``at_f0`` names
    the design method an interim method equals before any interim data,
    and one without it needs f > 0.  ``dominance(c)`` is the interim
    fraction above which ``zi`` outweighs ``zo`` in the Phi argument.
    """

    tag: str
    priors: tuple
    needs: tuple
    parts: object
    sup: object
    inverse: object
    at_f0: str = None
    dominance: object = None

    @property
    def interim(self):
        return "zi" in self.needs

    def check(self, zo, zi, stray=()):
        """The checked (zo, zi): each input the method needs given, and
        each one given finite and a single number, returned as a Python
        float, even one the method ignores.  ``stray`` holds the
        interim-only inputs, which fixed-design methods refuse."""
        zi = self._scalar("zi", zi)
        zo = self._scalar("zo", zo)
        if not self.interim and any(v is not None for v in (zi, *stray)):
            raise ValueError(f"{self.tag} takes no interim arguments")
        return zo, zi

    def _scalar(self, name, value):
        if value is not None:
            return single(name, value, finite)
        if name in self.needs:
            raise ValueError(f"{self.tag} requires {name}")

    def power(self, zd, zi, s, x, config):
        return _tail_power(*self.parts(zd, zi, s, x, config),
                           config.both_tails)


METHODS = {m.tag: m for m in (
    Method("CP", ("point", "flat"), ("zo",), _cp, _cp_sup,
           lambda zd, zi, s, f, level, cfg: _line_inv(
               zd, level - cfg.z_alpha)),
    Method("PP", ("normal", "flat"), ("zo",), _pp, _pp_sup, _pp_inv),
    Method("FBP", ("normal", "normal"), ("zo",), _fbp,
           lambda zd, zi, s, f, cfg: _pooled_sup(
               zd, cfg.z_alpha_tilde, cfg.both_tails),
           lambda zd, zi, s, f, level, cfg: _pooled_inv(
               zd, cfg.z_alpha_tilde, level)),
    Method("CBP", ("point", "normal"), ("zo",), _cbp, _cbp_sup, _cbp_inv),
    # the dominance threshold 4c / (sqrt(4c + 1) + 1)^2 as (sqrt(c) /
    # (sqrt(c + 1/4) + 1/2))^2, which neither overflows nor underflows
    # before its square
    Method("CPi", ("point", "flat"), ("zo", "zi"), _cpi, _cpi_sup,
           _cpi_inv, "CP", lambda c: (lambda r: r * r)(
               math.sqrt(c) / (math.sqrt(c + 0.25) + 0.5))),
    Method("IPPi", ("normal", "flat"), ("zo", "zi"), _ippi, _ippi_sup,
           None, "PP", _ippi_dominance),
    # a flat design prior only arises at interim, where the observed
    # stage-1 data replace it
    Method("PPi", ("flat", "flat"), ("zi",), _ppi,
           lambda zd, zi, s, f, cfg: _pooled_sup(
               zi, cfg.z_alpha, cfg.both_tails),
           lambda zd, zi, s, f, level, cfg: (lambda x: x and s * x)(
               _pooled_inv(zi, cfg.z_alpha, level))),
)}
# the methods a futility rule may use
FUTILITY_METHODS = ("IPPi", "PPi")


def _lookup(tag, interim=None):
    """The entry of a method tag, optionally of one family only."""
    if not isinstance(tag, str):
        raise ValueError(f"method must be a method tag, not "
                         f"{type(tag).__name__}")
    entry = METHODS.get(tag)
    if entry is None or interim not in (None, entry.interim):
        family = {None: "", False: "fixed-design ", True: "interim "}
        raise ValueError(f"unknown {family[interim]}method {tag!r}")
    return entry
