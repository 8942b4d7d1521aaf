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
(``_newton``); only both-tail CPi at zd = 0 over x and IPPi over c at a
fixed f return the tuple of their limits, for the numeric search in
``design``.  An inverse rule estimates the first size at which the
one-tail argument reaches ``level`` on a rising piece from the bottom
of the axis, or returns None; IPPi has none.  ``solver`` also calls
the fixed-design rules at |zd|, and at zd = 0 where they invert z
alone, to bound and estimate a both-tail crossing; they read only the
critical values of the config, which do not depend on the tails
counted.  The input rules live here too, each written once: every
public entry point applies ``finite``, ``positive``, ``unit`` or
``size`` to its arguments, and nothing below checks again.
"""
import math
import sys
from dataclasses import dataclass

import numpy as np

from .normal import std_normal_cdf

# the roots of c^2 + 6c + 1 are -(3 -+ 2 sqrt(2)), correctly rounded
_3_MINUS_2_SQRT2 = 0.1715728752538099
_3_PLUS_2_SQRT2 = 5.82842712474619
# formatted once: the repr of a float this small takes microseconds
_SIZE_RULE = f"be at least {sys.float_info.min!r}"


def _within(name, v, lo, hi, closed, rule):
    """ValueError naming ``name`` unless lo < v < hi (lo <= v if closed)."""
    try:
        ok = ((v >= lo) if closed else (v > lo)) & (v < hi)
        ok = ok.all() if isinstance(ok, np.ndarray) else ok
    except TypeError:       # None, a list: no number at all
        ok = False
    if not ok:
        raise ValueError(f"{name} must {rule}")


def finite(name, v):
    _within(name, v, -np.inf, np.inf, False, "be finite")


def positive(name, v):
    _within(name, v, 0.0, np.inf, False, "be positive and finite")


def unit(name, v, closed=False):
    _within(name, v, 0.0, 1.0, closed,
            "lie in [0, 1)" if closed else "lie strictly in (0, 1)")


def size(name, v):
    """A size the table divides by: at least the smallest normal double."""
    _within(name, v, sys.float_info.min, np.inf, True, _SIZE_RULE)


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
    arg = np.sqrt(1.0 / (s + 1.0)) * zd + np.sqrt(s / (s + 1.0)) * zi
    return _tail_power(arg, 0.0, cfg.both_tails)


def _cp(zd, zi, s, x, cfg):
    return np.sqrt(x) * zd, cfg.z_alpha


def _cp_sup(zd, zi, s, f, cfg):
    if _counts(zd, cfg):
        return 1.0
    return cfg.alpha if cfg.both_tails else cfg.alpha / 2.0


def _cp_inv(zd, zi, s, f, level, cfg):
    # sqrt(x) zd + z_alpha = level, rising for zd > 0
    r = (level - cfg.z_alpha) / zd if zd > 0.0 else 0.0
    return r * r if r > 0.0 else None


def _pp(zd, zi, s, x, cfg):
    return np.sqrt(x / (x + 1.0)) * zd, np.sqrt(1.0 / (x + 1.0)) * cfg.z_alpha


def _pp_sup(zd, zi, s, f, cfg):
    if cfg.both_tails:
        return 1.0      # both-tail rejection -> 1 as c grows
    return float(max(std_normal_cdf(zd), cfg.alpha / 2.0))


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
    return np.sqrt((x + 1.0) / x) * zd, np.sqrt(1.0 / x) * cfg.z_alpha_tilde


def _fbp_sup(zd, zi, s, f, cfg):
    # both tails: -> 1 as c grows.  Beyond the pooled threshold the
    # c -> 0 limit is 1.
    if cfg.both_tails or zd + cfg.z_alpha_tilde > 0.0:
        return 1.0
    return float(std_normal_cdf(zd))


def _fbp_inv(zd, zi, s, f, level, cfg):
    # (zd sqrt(r^2 + 1) + z_alpha_tilde) / r = level, r = sqrt(x), squared;
    # it rises towards zd, but beyond the pooled threshold the curve falls
    # from 1 first
    zt, ll = cfg.z_alpha_tilde, level * level
    if zd + zt > 0.0 or level >= zd:
        return None
    r = _quadratic(ll - zd * zd, -level * zt, zt * zt - zd * zd,
                   zd * zd * (ll + zt * zt - zd * zd),
                   lambda r: level * r - zt - zd * math.hypot(1.0, r))
    return r * r if r else None


def _cbp(zd, zi, s, x, cfg):
    return ((x + 1.0) / np.sqrt(x) * zd,
            np.sqrt((x + 1.0) / x) * cfg.z_alpha_tilde)


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
    return np.sqrt(x) * zd + np.sqrt(q) * zi, np.sqrt(1.0 + q) * cfg.z_alpha


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
        return (_cp_sup(zd, zi, s, f, cfg),)
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
    # at a fixed f the argument rises as sqrt(c (1 - f)) zd plus a constant
    if f is None or not zd > 0.0:
        return None
    q = f / (1.0 - f)
    r = ((level - math.sqrt(q) * zi - math.sqrt(1.0 + q) * cfg.z_alpha)
         / (math.sqrt(1.0 - f) * zd))
    return r * r if r > 0.0 else None


def _ippi(zd, zi, s, x, cfg):
    # r: the remaining size against the stage-1 posterior, which holds
    # s + 1 original sizes
    r = x / (s + 1.0)
    q = s / x
    w_o = np.sqrt(r / ((1.0 + r) * (s + 1.0)))
    w_i = np.sqrt(q * (1.0 + r))
    return w_o * zd + w_i * zi, np.sqrt((1.0 + q) / (1.0 + r)) * cfg.z_alpha


def _ippi_sup(zd, zi, s, f, cfg):
    if f is not None:
        # the original's weight vanishes as c grows at fixed f
        return (_tail_power(*_ppi(zd, zi, f, 1.0 - f, cfg), cfg.both_tails),)
    # both tails: Phi(a) + Phi(-a) = 1 as the quantile's weight vanishes
    if cfg.both_tails or _significant(zi, cfg):
        return 1.0
    limit = float(_ippi_limit(zd, zi, s, cfg))
    # the argument's slope in x has the sign of P(v) = k v^4 + (zd - r zi)
    # v^3 - (s zd + r zi) v + k s, v = sqrt(x + s) > r = sqrt(s), k =
    # -z_alpha: P > 0 at v = r (= 0 at zi = k, where the argument tends
    # to 0 as x -> 0) and as v grows, with one inflection at most, so the
    # argument peaks at most once, at the first root, below P's minimiser.
    # In y = v / r, dp = P'(v) / v^2 and p = P(v) / v^3 cannot overflow.
    k, r = -cfg.z_alpha, math.sqrt(s)
    if zi >= k:
        return max(limit, 0.5)
    d = zd + zi / r

    def dp(y):
        return (r * (4.0 * k * y - 3.0 * zi) + 3.0 * zd - d / (y * y),
                4.0 * r * k + 2.0 * d / (y * y * y))

    def p(y):
        return (r * (k * y - zi) + zd - d / (y * y) + k / (r * y * y * y),
                r * k + 2.0 * d / (y * y * y) - 3.0 * k / (r * y * y * y * y))
    # dp rises for d >= 0, else is convex with its minimum at y = cube
    cube = (abs(d) / (2.0 * k)) ** (1.0 / 3.0) / r ** (1.0 / 3.0)
    lo = max(1.0, cube if d < 0.0 else 1.0)
    if dp(lo)[0] >= 0.0:
        return limit
    y = _newton(dp, lo, 2.0 * max(lo, 1.5 * abs(zd - r * zi) / (r * k), cube))
    if p(y)[0] >= 0.0:
        return limit
    y = _newton(p, 1.0, y)
    x = s * (y - 1.0) * (y + 1.0)
    return max(limit, float(_tail_power(*_ippi(zd, zi, s, x, cfg), False)))


def _ppi(zd, zi, s, x, cfg):
    # FBP's weights at c = x / s, with the flat-analysis quantile in
    # place of the pooled one
    q = s / x
    return np.sqrt(1.0 + q) * zi, np.sqrt(q) * cfg.z_alpha


def _ppi_sup(zd, zi, s, f, cfg):
    if cfg.both_tails or _significant(zi, cfg):
        return 1.0
    # increasing in nj towards the interim evidence alone
    return std_normal_cdf(zi)


def _ppi_inv(zd, zi, s, f, level, cfg):
    # sqrt(1 + p^2) zi + p z_alpha = level, p = sqrt(s / x), squared: the
    # argument rises in x unless the interim is significant
    za, ll = cfg.z_alpha, level * level
    if _significant(zi, cfg):
        return None
    p = _quadratic(zi * zi - za * za, level * za, zi * zi - ll,
                   zi * zi * (ll + za * za - zi * zi),
                   lambda p: level - p * za - zi * math.hypot(1.0, p))
    return s / (p * p) if p else None


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

    def check(self, zo, zi, stray=(), noun="arguments"):
        """Required inputs given and finite.  ``stray`` holds the
        interim-only inputs, which fixed-design methods refuse."""
        for name, value in (("zi", zi), ("zo", zo)):
            if name in self.needs:
                if value is None:
                    raise ValueError(f"{self.tag} requires {name}")
                finite(name, value)
        if not self.interim and any(v is not None for v in (zi, *stray)):
            raise ValueError(f"{self.tag} takes no interim {noun}")

    def power(self, zd, zi, s, x, config):
        return _tail_power(*self.parts(zd, zi, s, x, config),
                           config.both_tails)


METHODS = {m.tag: m for m in (
    Method("CP", ("point", "flat"), ("zo",), _cp, _cp_sup, _cp_inv),
    Method("PP", ("normal", "flat"), ("zo",), _pp, _pp_sup, _pp_inv),
    Method("FBP", ("normal", "normal"), ("zo",), _fbp, _fbp_sup, _fbp_inv),
    Method("CBP", ("point", "normal"), ("zo",), _cbp, _cbp_sup, _cbp_inv),
    # the dominance thresholds 4c / (sqrt(4c + 1) + 1)^2 and
    # 2c / (c^2 + 4c + 1 + (c + 1) sqrt(c^2 + 6c + 1)), divided through
    # by c so that no square of c can overflow, and IPPi's also by 2 so
    # that its two terms near c cannot overflow in their sum
    Method("CPi", ("point", "flat"), ("zo", "zi"), _cpi, _cpi_sup,
           _cpi_inv, "CP",
           lambda c: 4.0 / (np.sqrt(4.0 + 1.0 / c) + 1.0 / np.sqrt(c)) ** 2),
    Method("IPPi", ("normal", "flat"), ("zo", "zi"), _ippi, _ippi_sup,
           None, "PP",
           lambda c: 1.0 / (0.5 * c + 2.0 + 0.5 / c + (0.5 + 0.5 / c)
                            * np.sqrt(c + _3_MINUS_2_SQRT2)
                            * np.sqrt(c + _3_PLUS_2_SQRT2))),
    # a flat design prior only arises at interim, where the observed
    # stage-1 data replace it
    Method("PPi", ("flat", "flat"), ("zi",), _ppi, _ppi_sup,
           _ppi_inv),
)}


def _lookup(tag, interim=None):
    """The entry of a method tag, optionally of one family only."""
    entry = METHODS.get(tag)
    if entry is None or interim not in (None, entry.interim):
        family = {None: "", False: "fixed-design ", True: "interim "}
        raise ValueError(f"unknown {family[interim]}method {tag!r}")
    return entry
