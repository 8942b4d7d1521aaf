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
dominates as the interim fraction grows.  ``futility_decision`` stops a
replication whose IPPi or PPi falls below a ``FutilityRule``'s boundary.
"""
from dataclasses import dataclass

from . import _methods, design
from .design import DEFAULT_CONFIG, METHODS_INTERIM, shrunken_zo


@dataclass(frozen=True)
class InterimState:
    """Observed stage of the replication: interim z and fraction done."""

    zi: float
    f: float

    _RULES = (("zi", _methods.finite), ("f", _methods.fraction))
    __post_init__ = _methods.settle


_a_state = _methods.record(InterimState)


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
    return design._result("CPi", fixed, _a_state("interim", interim),
                          config)


def informed_predictive_power_interim(fixed, interim, config=DEFAULT_CONFIG):
    """IPPi: success probability under the normal prior from the original
    study updated with the interim data."""
    return design._result("IPPi", fixed, _a_state("interim", interim),
                          config)


def predictive_power_interim(fixed, interim, config=DEFAULT_CONFIG):
    """PPi: success probability judged from the interim data alone."""
    return design._result("PPi", fixed, _a_state("interim", interim),
                          config)


@dataclass(frozen=True)
class FutilityRule:
    """Stop the replication at interim when power drops below a boundary."""

    method: str = "IPPi"
    boundary: float = 0.30

    _RULES = (("boundary", _methods.unit),)

    def __post_init__(self):
        if self.method not in _methods.FUTILITY_METHODS:
            raise ValueError("futility rules use IPPi or PPi")
        _methods.settle(self)


_a_rule = _methods.record(FutilityRule)


@dataclass(frozen=True)
class FutilityDecision:
    """Outcome of applying a futility rule at one interim look."""

    method: str
    power: float
    boundary: float
    stop: bool


def futility_decision(fixed, state, rule=FutilityRule(),
                      config=DEFAULT_CONFIG):
    """Apply a futility rule: stop when interim power < boundary.

    The comparison is strict, so a power exactly on the boundary
    continues.
    """
    if not (isinstance(fixed, design.FixedDesign)
            and isinstance(state, InterimState)
            and isinstance(rule, FutilityRule)):
        design._a_design("fixed", fixed)
        _a_state("state", state)
        _a_rule("rule", rule)
    power = interim_power(rule.method, fixed.zo, state.zi, fixed.c,
                          state.f, config)
    return FutilityDecision(method=rule.method, power=power,
                            boundary=rule.boundary,
                            stop=power < rule.boundary)


def interim_ordering_holds(fixed, interim, config=DEFAULT_CONFIG):
    """Whether CPi >= IPPi >= PPi is guaranteed for these inputs.

    With one tail, the ordering holds whenever the (shrunken) original
    is significant, the interim is not, the replication is at least
    twice the original (c >= 2) and more than a quarter of it is done
    (f > 0.25).  Outside that region any ordering can occur.  With both
    tails it is never guaranteed: each method's opposite-direction term
    grows as its argument falls, and in that region it breaks the
    ordering for most drawn states.

    Returns
    -------
    {"ordered", "not_guaranteed"}
    """
    design._a_design("fixed", fixed)
    _a_state("interim", interim)
    if design._a_config("config", config).both_tails:
        return "not_guaranteed"
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
    c = _methods._float_or_array("c", c)
    _methods.positive("c", c)
    dominance = _methods._lookup(method).dominance
    if dominance is None:
        raise ValueError("threshold defined for CPi and IPPi only")
    return dominance(c) if isinstance(c, float) else \
        _methods._mapped(dominance)(c)


def ippi_limit(zo, zi, c_stage1, config=DEFAULT_CONFIG):
    """Large-sample bound of IPPi as the remaining size grows.

    With ``c_stage1 = ni / no`` fixed, IPPi increases towards
    Phi of the precision-weighted combination of ``zo`` and ``zi``;
    certainty of success is never reached from a non-significant
    interim.
    """
    c_stage1 = _methods.single("c_stage1", c_stage1, _methods.positive)
    zo, zi = _methods.METHODS["IPPi"].check(zo, zi)
    return _methods._ippi_limit(
        shrunken_zo(zo, design._a_config("config", config)), zi, c_stage1,
        config)


def ppi_minimum(zi, config=DEFAULT_CONFIG):
    """Interior minimum of PPi over the remaining sample size.

    Exists only when the interim result is itself significant in the
    original direction; the minimum value depends on ``zi`` alone.
    """
    found = _methods._pooled_min(_methods.single("zi", zi, _methods.finite),
                                 design._a_config("config", config).z_alpha)
    if found is None:
        raise ValueError(
            "PPi has an interior minimum only for a significant interim")
    return found[1]


@dataclass(frozen=True)
class InterimPowerCurve:
    """Interim power of all three methods over a remaining-size grid."""

    nj_ratio: "numpy.ndarray"
    cpi: "numpy.ndarray"
    ippi: "numpy.ndarray"
    ppi: "numpy.ndarray"


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
    import numpy as np
    x = np.asarray(_methods._float_or_array("nj_ratio", nj_ratio))
    _methods.positive("nj_ratio", x)
    _methods.size("nj_ratio", x)
    c_stage1 = _methods.single("c_stage1", c_stage1, _methods.positive)
    zo, zi = _methods.METHODS["CPi"].check(zo, zi)
    design._a_config("config", config)
    return InterimPowerCurve(x, *(
        design._at(_methods.METHODS[m], zo, zi, c_stage1, x, config)
        for m in METHODS_INTERIM))


# short aliases matching the method tags
cpi = conditional_power_interim
ippi = informed_predictive_power_interim
ppi = predictive_power_interim
