"""Power of completing a replication, given its interim data.

A replication of relative size ``c`` (see ``design``) has been observed
up to a fraction ``f = ni / nr``, yielding an interim z-statistic
``zi``.  The final analysis pools both stages and tests at two-sided
level alpha in the direction of the original estimate.  Three methods
differ in the prior placed on the true effect before conditioning on
the interim data:

====== =============================================================
CPi    point prior at the (shrunken) original estimate
IPPi   normal prior from the original study, updated with the interim
PPi    interim data alone (the original only sets the direction)
====== =============================================================

Each method's success probability is Phi of a weighted sum of ``zo``,
``zi`` and the alpha/2 quantile.  The weights are defined once, with
each method's required inputs and supremum rules, in the method table
of ``_methods``.  ``weight_dominance_threshold`` exposes which source
dominates as the interim fraction grows.
"""
from dataclasses import dataclass

import numpy as np

from . import _methods, design
from .design import DEFAULT_CONFIG, shrunken_zo
from .normal import std_normal_cdf


@dataclass(frozen=True)
class InterimState:
    """Observed stage of the replication: interim z and fraction done."""

    zi: float
    f: float

    def __post_init__(self):
        if not np.isfinite(self.zi):
            raise ValueError("zi must be finite")
        if not (np.isfinite(self.f) and 0.0 <= self.f < 1.0):
            raise ValueError("f must lie in [0, 1)")


def interim_power(method, zo, zi, c, f, config=DEFAULT_CONFIG):
    """Power of one interim method, vectorized over ``c`` and ``f``.

    Parameters
    ----------
    method : {"CPi", "IPPi", "PPi"}
    zo : float
        Original z-statistic; ignored by PPi (may be None).
    zi : float
        Interim z-statistic of the replication's first stage.
    c : float or array
        Relative total sample size, positive.
    f : float or array
        Interim fraction ni / nr, in (0, 1); CPi and IPPi also accept 0.
    config : DesignConfig

    Returns
    -------
    float or ndarray
    """
    return design._power(method, zo, zi, c, f, config, interim=True)


def conditional_power_interim(fixed, interim, config=DEFAULT_CONFIG):
    """CPi: success probability of the completed replication if the true
    effect equals the (shrunken) original estimate."""
    return design._result("CPi", fixed, interim, config)


def informed_predictive_power_interim(fixed, interim, config=DEFAULT_CONFIG):
    """IPPi: success probability under the normal prior from the original
    study updated with the interim data."""
    return design._result("IPPi", fixed, interim, config)


def predictive_power_interim(fixed, interim, config=DEFAULT_CONFIG):
    """PPi: success probability judged from the interim data alone."""
    return design._result("PPi", fixed, interim, config)


def interim_ordering_holds(fixed, interim, config=DEFAULT_CONFIG):
    """Whether CPi >= IPPi >= PPi is guaranteed for these inputs.

    The ordering holds whenever the (shrunken) original is significant,
    the interim is not, the replication is at least twice the original
    (c >= 2) and more than a quarter of it is done (f > 0.25).  Outside
    that region any ordering can occur.

    Returns
    -------
    {"ordered", "not_guaranteed"}
    """
    zd = shrunken_zo(fixed.zo, config)
    za = config.z_alpha
    ok = (zd > -za and interim.zi < -za and fixed.c >= 2.0
          and interim.f > 0.25)
    return "ordered" if ok else "not_guaranteed"


def weight_dominance_threshold(method, c):
    """Largest interim fraction at which the original still outweighs
    the interim data in the method's Phi argument.

    For f below the returned value the ``zo`` weight exceeds the ``zi``
    weight; above it the interim dominates.
    """
    c = np.asarray(c, dtype=float)
    if np.any(~np.isfinite(c)) or np.any(c <= 0.0):
        raise ValueError("c must be positive and finite")
    entry = _methods.METHODS.get(method)
    if entry is None or entry.dominance is None:
        raise ValueError("threshold defined for CPi and IPPi only")
    out = entry.dominance(c)
    return float(out) if np.ndim(c) == 0 else out


def ippi_limit(zo, zi, c_stage1, config=DEFAULT_CONFIG):
    """Large-sample bound of IPPi as the remaining size grows.

    With ``c_stage1 = ni / no`` fixed, IPPi increases towards
    Phi of the precision-weighted combination of ``zo`` and ``zi``;
    certainty of success is never reached from a non-significant
    interim.
    """
    if not (np.isfinite(c_stage1) and c_stage1 > 0.0):
        raise ValueError("c_stage1 must be positive and finite")
    return float(_methods._ippi_limit(shrunken_zo(zo, config), zi,
                                      c_stage1, config))


def ppi_minimum(zi, config=DEFAULT_CONFIG):
    """Interior minimum of PPi over the remaining sample size.

    Exists only when the interim result is itself significant in the
    original direction; the minimum value depends on ``zi`` alone.
    """
    za = config.z_alpha
    if zi + za <= 0.0:
        raise ValueError(
            "PPi has an interior minimum only for a significant interim")
    return float(std_normal_cdf(np.sqrt((zi + za) * (zi - za))))


@dataclass(frozen=True)
class InterimPowerCurve:
    """Interim power of all three methods over a remaining-size grid."""

    nj_ratio: np.ndarray
    cpi: np.ndarray
    ippi: np.ndarray
    ppi: np.ndarray


def remaining_n_curve(zo, zi, c_stage1, nj_ratio, config=DEFAULT_CONFIG):
    """All three interim powers as the remaining size nj varies.

    Parameters
    ----------
    zo, zi : float
        Original and interim z-statistics.
    c_stage1 : float
        ni / no, the completed fraction relative to the original.
    nj_ratio : array
        Grid of nj / no values, positive.
    config : DesignConfig

    Returns
    -------
    InterimPowerCurve
    """
    x = np.asarray(nj_ratio, dtype=float)
    if np.any(~np.isfinite(x)) or np.any(x <= 0.0):
        raise ValueError("nj_ratio must be positive and finite")
    if not (np.isfinite(c_stage1) and c_stage1 > 0.0):
        raise ValueError("c_stage1 must be positive and finite")
    cpi, ippi, ppi = (design._at(_methods.METHODS[m], zo, zi, c_stage1, x,
                                 config) for m in ("CPi", "IPPi", "PPi"))
    return InterimPowerCurve(nj_ratio=x, cpi=cpi, ippi=ippi, ppi=ppi)


# short aliases matching the method tags
cpi = conditional_power_interim
ippi = informed_predictive_power_interim
ppi = predictive_power_interim
