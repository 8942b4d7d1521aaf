"""The method table: the one place where each power method is defined.

Every power is Phi(t + z), plus Phi(-t + z) when rejections in both
directions count.  The data part t carries the shrunken original z
``zd`` and the interim z ``zi``, the quantile part z the critical value.
A ``Method`` entry holds the Phi argument as ``parts(zd, zi, c, f,
config) -> (t, z)``, the inputs the method needs, and its supremum rule
``sup(zd, zi, axis, s, config)`` for the sizing axes it supports.  On
axis "c" (fixed designs) and "f" (interim fraction s held fixed) c
grows.  On "c_stage1", s = ni / no is held fixed and c = s + nj / no
grows with the remaining size.  A rule returns the supremum where it is
analytic, or else the tuple of limits for the numeric search in
``design``.
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


def _ippi_limit(zd, zi, k, cfg):
    """IPPi as the remaining size grows with ni / no = k fixed."""
    arg = np.sqrt(1.0 / (k + 1.0)) * zd + np.sqrt(k / (k + 1.0)) * zi
    return _tail_power(arg, 0.0, cfg.both_tails)


def _cp(zd, zi, c, f, cfg):
    return np.sqrt(c) * zd, cfg.z_alpha * np.ones_like(c)


def _cp_sup(zd, zi, axis, s, cfg):
    if _counts(zd, cfg):
        return 1.0
    return (cfg.alpha,) if cfg.both_tails else cfg.alpha / 2.0


def _pp(zd, zi, c, f, cfg):
    return np.sqrt(c / (c + 1.0)) * zd, np.sqrt(1.0 / (c + 1.0)) * cfg.z_alpha


def _pp_sup(zd, zi, axis, s, cfg):
    if cfg.both_tails:
        return 1.0      # both-tail rejection -> 1 as c grows
    return float(max(std_normal_cdf(zd), cfg.alpha / 2.0))


def _fbp_weights(zd, c, zq):
    return np.sqrt((c + 1.0) / c) * zd, np.sqrt(1.0 / c) * zq


def _fbp(zd, zi, c, f, cfg):
    return _fbp_weights(zd, c, cfg.z_alpha_tilde)


def _fbp_sup(zd, zi, axis, s, cfg):
    # both tails: -> 1 as c grows.  Beyond the pooled threshold the
    # c -> 0 limit is 1.
    if cfg.both_tails or zd + cfg.z_alpha_tilde > 0.0:
        return 1.0
    return float(std_normal_cdf(zd))


def _cbp(zd, zi, c, f, cfg):
    return ((c + 1.0) / np.sqrt(c) * zd,
            np.sqrt((c + 1.0) / c) * cfg.z_alpha_tilde)


def _cbp_sup(zd, zi, axis, s, cfg):
    if _counts(zd, cfg):
        return 1.0
    if zd == 0.0:
        level = cfg.alpha_tilde
        return (level,) if cfg.both_tails else level / 2.0
    return ()


def _cpi(zd, zi, c, f, cfg):
    t = np.sqrt(c * (1.0 - f)) * zd + np.sqrt(f / (1.0 - f)) * zi
    return t, np.sqrt(1.0 / (1.0 - f)) * cfg.z_alpha


def _cpi_sup(zd, zi, axis, s, cfg):
    # a significant interim forces success as nj -> 0, a counted point
    # effect as c grows
    if _counts(zd, cfg) or (axis == "c_stage1" and _significant(zi, cfg)):
        return 1.0
    return ()


def _ippi(zd, zi, c, f, cfg):
    cf1 = c * f + 1.0
    w_o = np.sqrt(c * (1.0 - f) / (cf1 * (1.0 + c)))
    w_i = np.sqrt(f * (1.0 + c) / ((1.0 - f) * cf1))
    w_z = np.sqrt(cf1 / ((1.0 + c) * (1.0 - f)))
    return w_o * zd + w_i * zi, w_z * cfg.z_alpha


def _ippi_sup(zd, zi, axis, s, cfg):
    if axis == "f":
        # the original's weight vanishes as c grows at fixed f
        return (_tail_power(*_ppi(zd, zi, None, s, cfg), cfg.both_tails),)
    return 1.0 if _significant(zi, cfg) else (_ippi_limit(zd, zi, s, cfg),)


def _ppi(zd, zi, c, f, cfg):
    # same weight structure as FBP at c = (1 - f) / f, with the
    # flat-analysis quantile in place of the pooled one
    return _fbp_weights(zi, (1.0 - f) / f, cfg.z_alpha)


def _ppi_sup(zd, zi, axis, s, cfg):
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
    axes: tuple
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

    def power(self, zd, zi, c, f, config):
        return _tail_power(*self.parts(zd, zi, c, f, config),
                           config.both_tails)


_FIXED = ("c",)
_INTERIM = ("f", "c_stage1")
METHODS = {m.tag: m for m in (
    Method("CP", ("point", "flat"), ("zo",), _cp, _cp_sup, _FIXED),
    Method("PP", ("normal", "flat"), ("zo",), _pp, _pp_sup, _FIXED),
    Method("FBP", ("normal", "normal"), ("zo",), _fbp, _fbp_sup, _FIXED),
    Method("CBP", ("point", "normal"), ("zo",), _cbp, _cbp_sup, _FIXED),
    Method("CPi", ("point", "flat"), ("zo", "zi"), _cpi, _cpi_sup,
           _INTERIM, "CP",
           lambda c: 1.0 - (np.sqrt(4.0 * c + 1.0) - 1.0) / (2.0 * c)),
    Method("IPPi", ("normal", "flat"), ("zo", "zi"), _ippi, _ippi_sup,
           _INTERIM, "PP",
           lambda c: (c * c + 4.0 * c + 1.0 - (c + 1.0)
                      * np.sqrt(c * c + 6.0 * c + 1.0)) / (2.0 * c)),
    # a flat design prior only arises at interim, where the observed
    # stage-1 data replace it
    Method("PPi", ("flat", "flat"), ("zi",), _ppi, _ppi_sup,
           ("c_stage1",)),
)}


def _lookup(tag, interim=None):
    """The entry of a method tag, optionally of one family only."""
    entry = METHODS.get(tag)
    if entry is None or interim not in (None, entry.interim):
        family = {None: "", False: "fixed-design ", True: "interim "}
        raise ValueError(f"unknown {family[interim]}method {tag!r}")
    return entry
