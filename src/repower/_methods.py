"""The method table: the one place where each power method is defined.

Every power is Phi(t + z), plus Phi(-t + z) when rejections in both
directions count.  The data part t carries the shrunken original z
``zd`` and the interim z ``zi``, the quantile part z the critical value.
Sizes are relative to the original study: ``s = ni / no`` has already
been observed and ``x = nj / no`` is still to come, so a replication of
total size c at interim fraction f has s = c * f and x = c * (1 - f),
and a fixed design is the case s = 0, x = c.  A ``Method`` entry holds
the Phi argument as ``parts(zd, zi, s, x, config) -> (t, z)``, the
inputs the method needs, and its supremum rule ``sup(zd, zi, s, f,
config)``: with ``f`` None the rule covers x growing at fixed s, else c
growing at the fixed interim fraction f.  A rule returns the supremum
where it is analytic, or else the tuple of limits for the numeric
search in ``design``.
"""
from dataclasses import dataclass

import numpy as np

from .normal import std_normal_cdf


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


def _ippi_limit(zd, zi, s, cfg):
    """IPPi as the remaining size x grows at fixed s."""
    arg = np.sqrt(1.0 / (s + 1.0)) * zd + np.sqrt(s / (s + 1.0)) * zi
    return _tail_power(arg, 0.0, cfg.both_tails)


def _cp(zd, zi, s, x, cfg):
    return np.sqrt(x) * zd, cfg.z_alpha * np.ones_like(x)


def _cp_sup(zd, zi, s, f, cfg):
    if _counts(zd, cfg):
        return 1.0
    return (cfg.alpha,) if cfg.both_tails else cfg.alpha / 2.0


def _pp(zd, zi, s, x, cfg):
    return np.sqrt(x / (x + 1.0)) * zd, np.sqrt(1.0 / (x + 1.0)) * cfg.z_alpha


def _pp_sup(zd, zi, s, f, cfg):
    if cfg.both_tails:
        return 1.0      # both-tail rejection -> 1 as c grows
    return float(max(std_normal_cdf(zd), cfg.alpha / 2.0))


def _fbp(zd, zi, s, x, cfg):
    return np.sqrt((x + 1.0) / x) * zd, np.sqrt(1.0 / x) * cfg.z_alpha_tilde


def _fbp_sup(zd, zi, s, f, cfg):
    # both tails: -> 1 as c grows.  Beyond the pooled threshold the
    # c -> 0 limit is 1.
    if cfg.both_tails or zd + cfg.z_alpha_tilde > 0.0:
        return 1.0
    return float(std_normal_cdf(zd))


def _cbp(zd, zi, s, x, cfg):
    return ((x + 1.0) / np.sqrt(x) * zd,
            np.sqrt((x + 1.0) / x) * cfg.z_alpha_tilde)


def _cbp_sup(zd, zi, s, f, cfg):
    if _counts(zd, cfg):
        return 1.0
    if zd == 0.0:
        level = cfg.alpha_tilde
        return (level,) if cfg.both_tails else level / 2.0
    return ()


def _cpi(zd, zi, s, x, cfg):
    q = s / x
    return np.sqrt(x) * zd + np.sqrt(q) * zi, np.sqrt(1.0 + q) * cfg.z_alpha


def _cpi_sup(zd, zi, s, f, cfg):
    # a significant interim forces success as nj -> 0, a counted point
    # effect as c grows
    if _counts(zd, cfg) or (f is None and _significant(zi, cfg)):
        return 1.0
    return ()


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
    return 1.0 if _significant(zi, cfg) else (_ippi_limit(zd, zi, s, cfg),)


def _ppi(zd, zi, s, x, cfg):
    # FBP's weights at c = x / s, with the flat-analysis quantile in
    # place of the pooled one
    q = s / x
    return np.sqrt(1.0 + q) * zi, np.sqrt(q) * cfg.z_alpha


def _ppi_sup(zd, zi, s, f, cfg):
    if _significant(zi, cfg):
        return 1.0
    # increasing in nj towards the interim evidence alone
    limit = _tail_power(zi, 0.0, cfg.both_tails)
    return (limit,) if cfg.both_tails else limit


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
    at_f0: str = None
    dominance: object = None

    @property
    def interim(self):
        return "zi" in self.needs

    def check(self, zo, zi, stray=(), noun="arguments"):
        """Required inputs given and not NaN.  ``stray`` holds the
        interim-only inputs, which fixed-design methods refuse."""
        for name, value in (("zi", zi), ("zo", zo)):
            if name in self.needs:
                if value is None:
                    raise ValueError(f"{self.tag} requires {name}")
                if np.any(np.isnan(value)):
                    raise ValueError(f"{name} must not be NaN")
        if not self.interim and any(v is not None for v in (zi, *stray)):
            raise ValueError(f"{self.tag} takes no interim {noun}")

    def power(self, zd, zi, s, x, config):
        return _tail_power(*self.parts(zd, zi, s, x, config),
                           config.both_tails)


METHODS = {m.tag: m for m in (
    Method("CP", ("point", "flat"), ("zo",), _cp, _cp_sup),
    Method("PP", ("normal", "flat"), ("zo",), _pp, _pp_sup),
    Method("FBP", ("normal", "normal"), ("zo",), _fbp, _fbp_sup),
    Method("CBP", ("point", "normal"), ("zo",), _cbp, _cbp_sup),
    Method("CPi", ("point", "flat"), ("zo", "zi"), _cpi, _cpi_sup, "CP",
           lambda c: 4.0 * c / (np.sqrt(4.0 * c + 1.0) + 1.0) ** 2),
    Method("IPPi", ("normal", "flat"), ("zo", "zi"), _ippi, _ippi_sup, "PP",
           lambda c: 2.0 * c / (c * c + 4.0 * c + 1.0 + (c + 1.0)
                                * np.sqrt(c * c + 6.0 * c + 1.0))),
    # a flat design prior only arises at interim, where the observed
    # stage-1 data replace it
    Method("PPi", ("flat", "flat"), ("zi",), _ppi, _ppi_sup),
)}


def _lookup(tag, interim=None):
    """The entry of a method tag, optionally of one family only."""
    entry = METHODS.get(tag)
    if entry is None or interim not in (None, entry.interim):
        family = {None: "", False: "fixed-design ", True: "interim "}
        raise ValueError(f"unknown {family[interim]}method {tag!r}")
    return entry
