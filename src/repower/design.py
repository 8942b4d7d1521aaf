"""Design-stage power of a replication study, before any replication data.

Four methods, differing in what is assumed about the true effect (the
design prior) and in how the replication will be analyzed (the analysis
prior):

====== ============ ============== =========================================
method design prior analysis prior success event
====== ============ ============== =========================================
CP     point        flat           replication significant at two-sided
                                   level alpha, original direction
PP     normal       flat           same event, averaged over the evidence
FBP    normal       normal         pooled Bayesian analysis significant at
                                   alpha_tilde = alpha^2/2
CBP    point        normal         same pooled event, point design prior
====== ============ ============== =========================================

``alpha_tilde`` is the level at which a pooled analysis of original and
replication matches the two-trials rule of two independent results at
level ``alpha``.

Everything is unitless: ``zo`` is the original z-statistic and ``c``
the relative sample size (``nr / no``, or ``(nr - 3) / (no - 3)`` for
Fisher-z effects, see the package docstring).  An optional shrinkage
factor ``s`` discounts the original estimate, so all formulas see
``(1 - s) * zo``.  By default only success in the original direction
counts, and ``both_tails=True`` adds the opposite-direction rejection
term.

Each method, design-stage or interim, is defined once, in the method
table of ``_methods``: its Phi argument in the stage sizes s (observed)
and x (still to come), its required inputs and its supremum rule.  This
module evaluates the table and builds every ``PowerResult``.  The
public inputs (c, f) become s = c * f and x = c * (1 - f) in one place,
``_power``; curves over the remaining size evaluate the table at (s, x)
directly (``_at``, ``_along``), as does ``_supremum``.
"""
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _methods
from .normal import std_normal_cdf, std_normal_quantile

METHODS_FIXED = tuple(t for t, m in _methods.METHODS.items()
                      if not m.interim)
METHODS_INTERIM = tuple(t for t, m in _methods.METHODS.items()
                        if m.interim)

# (design prior, analysis prior) per method
PRIOR_COMBINATIONS = {t: m.priors for t, m in _methods.METHODS.items()}


@dataclass(frozen=True)
class DesignConfig:
    """Analysis settings shared by all power computations.

    Parameters
    ----------
    alpha : float
        Two-sided significance level of the replication analysis.
    shrinkage : float
        Fraction s in [0, 1) by which the original z-statistic is
        discounted before it enters any formula.
    both_tails : bool
        If True, also count rejections opposite to the original
        direction (exact two-sided rejection probability).
    """

    alpha: float = 0.05
    shrinkage: float = 0.0
    both_tails: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if not 0.0 <= self.shrinkage < 1.0:
            raise ValueError("shrinkage must lie in [0, 1)")

    @property
    def alpha_tilde(self):
        """Pooled-analysis level equivalent to the two-trials rule."""
        return self.alpha * self.alpha / 2.0

    # the two critical values are computed once per config and kept in
    # the instance __dict__, outside the fields that eq, hash and repr see
    @cached_property
    def z_alpha(self):
        """alpha/2 quantile of the standard normal (negative)."""
        return std_normal_quantile(self.alpha / 2.0)

    @cached_property
    def z_alpha_tilde(self):
        """alpha_tilde/2 quantile of the standard normal (negative)."""
        return std_normal_quantile(self.alpha_tilde / 2.0)


DEFAULT_CONFIG = DesignConfig()


@dataclass(frozen=True)
class FixedDesign:
    """A planned replication: original z-statistic and relative size."""

    zo: float
    c: float

    def __post_init__(self):
        if not np.isfinite(self.zo):
            raise ValueError("zo must be finite")
        if not (np.isfinite(self.c) and self.c > 0.0):
            raise ValueError("c must be positive")


@dataclass(frozen=True)
class PowerResult:
    """A power value together with its least upper bound over sample size.

    ``supremum`` is the least upper bound of the method's power over the
    remaining-sample-size axis (all other inputs held fixed on their
    shrunken scale); ``feasible_100`` says whether power arbitrarily
    close to 1 is attainable.
    """

    method: str
    power: float
    supremum: float
    feasible_100: bool


def shrunken_zo(zo, config):
    """Original z-statistic after the configured shrinkage discount."""
    return (1.0 - config.shrinkage) * zo


def _power(method, zo, zi, c, f, config, interim=None):
    """Power of one method (of the given family, if any) at total size c
    and interim fraction f, vectorized over both, after checking every
    input against the method table."""
    entry = _methods._lookup(method, interim)
    carr = np.asarray(c, dtype=float)
    if np.any(~np.isfinite(carr)) or np.any(carr <= 0.0):
        raise ValueError("c must be positive and finite")
    s, x = 0.0, carr
    if entry.interim:
        farr = np.asarray(f, dtype=float)
        # a method without a design counterpart at f = 0 needs f > 0
        lo_ok = farr >= 0.0 if entry.at_f0 else farr > 0.0
        if not np.all(lo_ok & (farr < 1.0)):     # also rejects NaN, inf
            raise ValueError("f must lie in [0, 1), strictly above 0 for PPi")
        s, x = carr * farr, carr * (1.0 - farr)
    out = _at(entry, zo, zi, s, x, config)
    return float(out) if np.ndim(c) == 0 and np.ndim(f) == 0 else out


def _at(entry, zo, zi, s, x, config):
    """Power of a method-table entry at the stage sizes s and x (see
    ``_methods``), after checking its zo and zi."""
    entry.check(zo, zi)
    zd = shrunken_zo(zo, config) if "zo" in entry.needs else 0.0
    return entry.power(zd, zi, s, x, config)


def design_power(method, zo, c, config=DEFAULT_CONFIG):
    """Power of one fixed-design method, vectorized over ``c``.

    Parameters
    ----------
    method : {"CP", "PP", "FBP", "CBP"}
    zo : float
        Original z-statistic (unshrunken).
    c : float or array
        Relative sample size, positive.
    config : DesignConfig

    Returns
    -------
    float or ndarray
    """
    return _power(method, zo, None, c, None, config, interim=False)


def _numeric_supremum(curve, limits, lo=1e-12, hi=1e12):
    """Largest of ``curve`` over [lo, hi] and of ``limits``, capped at 1.

    ``curve`` is evaluated on a 481-point log grid over [lo, hi], then
    on a 33-point log grid spanning the two cells around the best point
    so far, and again on each new best cell until the log spacing is
    below 1e-6.
    """
    grid = np.geomspace(lo, hi, 481)
    t = np.log(grid)
    best = -np.inf
    while True:
        vals = curve(grid)
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        if t[1] - t[0] < 1e-6:
            return min(1.0, max([best, *limits]))
        t = np.linspace(t[max(i - 1, 0)], t[min(i + 1, len(t) - 1)], 33)
        grid = np.exp(t)


def _along(entry, zd, zi, s, f, config):
    """Power as a function of the growing size: the remaining size x at
    fixed s when ``f`` is None, else c at the fixed interim fraction f."""
    if f is None:
        return lambda x: entry.power(zd, zi, s, x, config)
    return lambda c: entry.power(zd, zi, c * f, c * (1.0 - f), config)


def _supremum(method, zo, zi, s, config, f=None):
    """Least upper bound of a method's power as its size grows.

    With ``f`` None the remaining size x grows at fixed s, else c grows
    at the fixed interim fraction f (see ``_methods``).  The method's
    rule gives the supremum where it is analytic, else the limits for
    the numeric search.
    """
    entry = _methods._lookup(method)
    if f is None and s == 0.0:
        # no interim data yet: CPi is CP and IPPi is PP in disguise
        entry = _methods.METHODS.get(entry.at_f0, entry)
    zd = shrunken_zo(zo, config) if zo is not None else 0.0
    rule = entry.sup(zd, zi, s, f, config)
    if not isinstance(rule, tuple):
        return rule
    return _numeric_supremum(_along(entry, zd, zi, s, f, config), rule)


def _result(method, fixed, state, config):
    """The PowerResult of a method at a design (and interim state): its
    power and its supremum over c, or over the remaining size."""
    zi = f = None
    s = 0.0
    if state is not None:
        zi, f, s = state.zi, state.f, fixed.c * state.f
    power = float(_power(method, fixed.zo, zi, fixed.c, f, config,
                         interim=state is not None))
    sup = float(max(_supremum(method, fixed.zo, zi, s, config), power))
    return PowerResult(method, power, sup, sup >= 1.0 - 1e-12)


def conditional_power(design, config=DEFAULT_CONFIG):
    """CP: probability of replication success if the true effect equals
    the (shrunken) original estimate."""
    return _result("CP", design, None, config)


def predictive_power(design, config=DEFAULT_CONFIG):
    """PP: replication success probability averaged over the original
    study's evidence about the effect."""
    return _result("PP", design, None, config)


def fully_bayesian_power(design, config=DEFAULT_CONFIG):
    """FBP: success of the pooled Bayesian analysis at level alpha_tilde,
    averaged over the original study's evidence."""
    return _result("FBP", design, None, config)


def conditional_bayesian_power(design, config=DEFAULT_CONFIG):
    """CBP: success of the pooled Bayesian analysis if the true effect
    equals the (shrunken) original estimate."""
    return _result("CBP", design, None, config)


@dataclass(frozen=True)
class CrossingPoint:
    """Relative sample size where two power curves cross; ``feasible``
    is False when the crossing falls at c <= 0."""

    c: float
    feasible: bool


def cp_pp_intersection(zo, config=DEFAULT_CONFIG):
    """Relative sample size where CP and PP cross (both equal 1/2).

    Requires a positive shrunken original z-statistic; the curves do
    not cross otherwise.
    """
    zd = shrunken_zo(zo, config)
    if zd <= 0.0:
        raise ValueError("CP and PP only cross for a positive original z")
    return float((config.z_alpha / zd) ** 2)


def fbp_cbp_intersection(zo, config=DEFAULT_CONFIG):
    """Crossing of FBP and CBP (both equal 1/2 there).

    The crossing lies at positive c only when the original is not yet
    significant at the pooled level alpha_tilde; otherwise the returned
    point is flagged infeasible.
    """
    zd = shrunken_zo(zo, config)
    if zd <= 0.0:
        raise ValueError("FBP and CBP only cross for a positive original z")
    zat = config.z_alpha_tilde
    c = float((zat + zd) * (zat - zd) / (zd * zd))
    return CrossingPoint(c, c > 0.0)


@dataclass(frozen=True)
class PowerMinimum:
    """Location and value of an interior power minimum."""

    c: float
    power: float


def fbp_minimum(zo, config=DEFAULT_CONFIG):
    """Interior minimum of FBP over c.

    Exists only when the original is already significant at the pooled
    level alpha_tilde (then FBP falls from 1 at c -> 0 before rising
    back towards its large-c bound).
    """
    zd = shrunken_zo(zo, config)
    zat = config.z_alpha_tilde
    if zd + zat <= 0.0:
        raise ValueError(
            "FBP has an interior minimum only when the original is "
            "significant at the pooled level alpha_tilde")
    gap = (zd + zat) * (zd - zat)
    c = float(gap / (zat * zat))
    power = float(std_normal_cdf(np.sqrt(gap)))
    return PowerMinimum(c, power)


# short aliases matching the method tags
cp = conditional_power
pp = predictive_power
fbp = fully_bayesian_power
cbp = conditional_bayesian_power
