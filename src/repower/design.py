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
module evaluates the table and builds every ``PowerResult``, whose
supremum is the rule's, CP's for CPi and PP's for IPPi before any
interim data (``_result``): it runs no search and builds no array of
its own.  The public inputs (c, f) become s = c * f and x = c * (1 - f)
in one place, ``_inputs``, which also turns scalar inputs into Python
floats; curves over the remaining size evaluate the table at (s, x)
directly (``_at``).  The searches along the table live in ``solver``.
"""
import math
from dataclasses import dataclass
from functools import cached_property

from . import _methods
from .normal import std_normal_quantile

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
        Two-sided significance level of the replication analysis, at
        least 1e-323 (below it alpha / 2 is 0).
    shrinkage : float
        Fraction s in [0, 1) by which the original z-statistic is
        discounted before it enters any formula.
    both_tails : bool
        If True, also count rejections opposite to the original
        direction (exact two-sided rejection probability).  A numpy
        bool or a 0-d bool array is kept as a Python bool; any other
        value is refused.
    """

    alpha: float = 0.05
    shrinkage: float = 0.0
    both_tails: bool = False

    _RULES = (("alpha", _methods.unit), ("shrinkage", _methods.fraction))

    def __post_init__(self):
        _methods.settle(self)
        if self.alpha < 1e-323:
            raise ValueError("alpha must be at least 1e-323: below it "
                             "alpha / 2, the tail of the level, is 0")
        # a numpy bool, or a 0-d bool array, is kept as Python's bool
        if not (isinstance(b := self.both_tails, bool) or getattr(
                b, "dtype", None) is not None and b.dtype.kind == "b"
                and b.ndim == 0):
            raise ValueError("both_tails must be True or False")
        object.__setattr__(self, "both_tails", bool(b))

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
        p = self.alpha_tilde / 2.0
        if not p > 0.0:
            raise ValueError(
                "alpha must exceed about 3.5e-162 for FBP and CBP: below "
                "it alpha^2 / 4, the tail of their pooled level, is 0")
        return std_normal_quantile(p)


DEFAULT_CONFIG = DesignConfig()
_a_config = _methods.record(DesignConfig)


@dataclass(frozen=True)
class FixedDesign:
    """A planned replication: original z-statistic and relative size."""

    zo: float
    c: float

    _RULES = (("zo", _methods.finite), ("c", _methods.positive))
    __post_init__ = _methods.settle


_a_design = _methods.record(FixedDesign)


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
    and interim fraction f, vectorized over both; checks every input."""
    entry = _methods._lookup(method, interim)
    if not isinstance(config, DesignConfig):
        _a_config("config", config)
    return _at(entry, *_inputs(entry, zo, zi, c, f), config)


def _inputs(entry, zo, zi, c, f):
    """The inputs (zo, zi, s, x) of a table entry at total size c and
    interim fraction f, s and x its stage sizes, once every input is
    checked.  The inputs the entry needs come back as Python floats
    where they are scalars, and the others as they came."""
    # scalars stay Python floats, the fastest arithmetic there is; the
    # rules in _methods are written for them.  Where a numpy float
    # warns, a Python float raises only on a division by zero or an
    # overflowing **: the parts use no **, and divide only by x, x + 1,
    # s + 1 and 1 + r, which the checks below keep positive
    cv = _methods._float_or_array("c", c)
    _methods.positive("c", cv)
    s, x = 0.0, cv
    if entry.interim:
        fv = _methods._float_or_array("f", f)
        # a method without a design counterpart at f = 0 needs f > 0
        _methods._within("f", fv, 0.0, 1.0, entry.at_f0 is not None,
                         "lie in [0, 1), strictly above 0 for PPi")
        s, x = cv * fv, cv * (1.0 - fv)
    _methods.size("c * (1 - f)" if entry.interim else "c", x)
    return (*entry.check(zo, zi), s, x)


def _at(entry, zo, zi, s, x, config):
    """Power of a table entry at stage sizes s and x; the caller checks.
    An array overflows to inf, and inf - inf is NaN, without a warning,
    as on a Python float."""
    zd = shrunken_zo(zo, config) if "zo" in entry.needs else 0.0
    if isinstance(x, float):
        return entry.power(zd, zi, s, x, config)
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):
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


def _result(method, fixed, state, config):
    """The PowerResult of a method at a design (and interim state): its
    power and its supremum over c, or over the remaining size.  The
    caller checks the state; the design and the config are checked
    here, with an isinstance that spares a record the rules' calls."""
    if not (isinstance(fixed, FixedDesign)
            and isinstance(config, DesignConfig)):
        _a_design("design" if state is None else "fixed", fixed)
        _a_config("config", config)
    zi, f = (None, None) if state is None else (state.zi, state.f)
    entry = _methods._lookup(method, state is not None)
    zo, zi, s, x = _inputs(entry, fixed.zo, zi, fixed.c, f)
    # one zd for the power and the supremum; PPi's parts and rule ignore it
    zd = shrunken_zo(zo, config)
    power = entry.power(zd, zi, s, x, config)
    if s == 0.0:
        # no interim data yet: CPi is CP and IPPi is PP in disguise
        entry = _methods.METHODS.get(entry.at_f0, entry)
    sup = max(entry.sup(zd, zi, s, None, config), power)
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
    zd = shrunken_zo(_methods.single("zo", zo, _methods.finite),
                     _a_config("config", config))
    if zd <= 0.0:
        raise ValueError("CP and PP only cross for a positive original z")
    # both Phi arguments vanish there: CP's sqrt(c) zd + z_alpha, and PP's,
    # which is CP's over sqrt(c + 1)
    return _methods._line_inv(zd, -config.z_alpha)


def fbp_cbp_intersection(zo, config=DEFAULT_CONFIG):
    """Crossing of FBP and CBP (both equal 1/2 there).

    The crossing lies at positive c only when the original is not yet
    significant at the pooled level alpha_tilde; otherwise the returned
    point is flagged infeasible.
    """
    zd = shrunken_zo(_methods.single("zo", zo, _methods.finite),
                     _a_config("config", config))
    if zd <= 0.0:
        raise ValueError("FBP and CBP only cross for a positive original z")
    zat = config.z_alpha_tilde
    zz = zd * zd        # 0 for a tiny zd, whose crossing lies beyond floats
    c = (zat + zd) * (zat - zd) / zz if 0.0 < zz < math.inf else (
        -1.0 if zz else math.inf)   # zat^2 / zz - 1 is -1 at an inf zz
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
    zd = shrunken_zo(_methods.single("zo", zo, _methods.finite),
                     _a_config("config", config))
    found = _methods._pooled_min(zd, config.z_alpha_tilde)
    if found is None:
        raise ValueError(
            "FBP has an interior minimum only when the original is "
            "significant at the pooled level alpha_tilde")
    return PowerMinimum(*found)


# short aliases matching the method tags
cp = conditional_power
pp = predictive_power
fbp = fully_bayesian_power
cbp = conditional_bayesian_power
