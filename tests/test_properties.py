"""Properties of every method's power and supremum over drawn inputs.

The supremum of a PowerResult is the least upper bound of the method's
power along its sizing axis: c for the design-stage methods, the
remaining size nj / no (with ni / no = c * f held fixed) at interim.
The solver's answer meets its target, is the first crossing, and
costs few scalar evaluations of the method table.  Hypothesis runs
derandomized, so every run draws the same cases.
"""
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repower import (METHODS_FIXED, METHODS_INTERIM, DesignConfig,
                     FixedDesign, InterimState, SolveRequest, _methods, cbp,
                     cp, cpi, design_power, fbp, interim_power, ippi, pp,
                     ppi, solve_c, std_normal_cdf)

DRAWN = settings(derandomize=True, database=None, deadline=None,
                 max_examples=150)
RESULTS = {"CP": cp, "PP": pp, "FBP": fbp, "CBP": cbp,
           "CPi": cpi, "IPPi": ippi, "PPi": ppi}
AXIS = np.geomspace(1e-9, 1e9, 40_001)

configs = st.builds(DesignConfig, alpha=st.floats(1e-4, 0.5),
                    shrinkage=st.floats(0.0, 0.9),
                    both_tails=st.booleans())
z_stats = st.floats(-8.0, 8.0)
sizes = st.floats(1e-3, 1e3)
fractions = st.floats(0.01, 0.99)


def _check_result(res, curve):
    assert res.power <= res.supremum <= 1.0
    assert res.supremum >= np.max(curve) - 1e-12
    assert res.feasible_100 == (res.supremum >= 1.0 - 1e-12)


@DRAWN
@given(method=st.sampled_from(METHODS_FIXED), zo=z_stats, c=sizes,
       config=configs)
def test_design_supremum_bounds_the_curve(method, zo, c, config):
    res = RESULTS[method](FixedDesign(zo, c), config)
    _check_result(res, design_power(method, zo, AXIS, config))


@DRAWN
@given(method=st.sampled_from(METHODS_INTERIM), zo=z_stats, zi=z_stats,
       c=sizes, f=fractions, config=configs)
def test_interim_supremum_bounds_the_curve(method, zo, zi, c, f, config):
    res = RESULTS[method](FixedDesign(zo, c), InterimState(zi, f), config)
    k = c * f
    total = k + AXIS
    _check_result(res, interim_power(method, zo, zi, total, k / total,
                                     config))


@DRAWN
@given(zo=z_stats, zi=z_stats, c=sizes, config=configs)
def test_interim_without_data_is_design(zo, zi, c, config):
    fixed = FixedDesign(zo, c)
    for interim, design in (("CPi", "CP"), ("IPPi", "PP")):
        at_f0 = RESULTS[interim](fixed, InterimState(zi, 0.0), config)
        same = RESULTS[design](fixed, config)
        assert abs(at_f0.power - same.power) <= 1e-15
        assert abs(at_f0.supremum - same.supremum) <= 1e-15


def _cf_power(method, zo, zi, c, f, config):
    """Interim power from the published (c, f) weights."""
    zd = (1.0 - config.shrinkage) * zo
    za = config.z_alpha
    if method == "CPi":
        t = np.sqrt(c * (1.0 - f)) * zd + np.sqrt(f / (1.0 - f)) * zi
        z = np.sqrt(1.0 / (1.0 - f)) * za
    elif method == "IPPi":
        cf1 = c * f + 1.0
        t = (np.sqrt(c * (1.0 - f) / (cf1 * (1.0 + c))) * zd
             + np.sqrt(f * (1.0 + c) / ((1.0 - f) * cf1)) * zi)
        z = np.sqrt(cf1 / ((1.0 + c) * (1.0 - f))) * za
    else:
        k = (1.0 - f) / f
        t, z = np.sqrt((k + 1.0) / k) * zi, np.sqrt(1.0 / k) * za
    power = std_normal_cdf(t + z)
    if config.both_tails:
        power = power + std_normal_cdf(-t + z)
    return float(power)


@settings(DRAWN, max_examples=600)
@given(method=st.sampled_from(METHODS_INTERIM),
       c=st.floats(-9.0, 9.0).map(lambda e: 10.0 ** e),
       # subnormal f would overflow the oracle's (1 - f) / f
       f=st.floats(0.0, 1.0, exclude_max=True, allow_subnormal=False),
       zo=st.floats(-6.0, 8.0), zi=st.floats(-6.0, 8.0),
       config=st.sampled_from((DesignConfig(), DesignConfig(both_tails=True),
                               DesignConfig(alpha=0.01, shrinkage=0.25))))
def test_stage_sizes_agree_with_the_published_weights(method, c, f, zo, zi,
                                                      config):
    assume(f > 0.0 or method != "PPi")
    power = interim_power(method, zo, zi, c, f, config)
    expected = _cf_power(method, zo, zi, c, f, config)
    assert np.isfinite(power)
    assert abs(power - expected) <= 1e-14
    if expected > 1e-300:
        assert abs(power - expected) <= 5e-12 * expected


def _solve_counting(request):
    """solve_c's answer and its number of scalar method-table calls."""
    scalar_calls = []
    power = _methods.Method.power

    def counting(entry, zd, zi, s, x, config):
        scalar_calls.append(np.ndim(x) == 0)
        return power(entry, zd, zi, s, x, config)
    with mock.patch.object(_methods.Method, "power", counting):
        res = solve_c(request)
    return res, sum(scalar_calls)


@DRAWN
@given(method=st.sampled_from(METHODS_FIXED), zo=z_stats, config=configs,
       c_star=st.floats(1e-2, 1e2))
def test_solve_c_first_crossing_in_few_evaluations(method, zo, config,
                                                   c_star):
    # the power at a drawn size is a target the curve reaches
    target = design_power(method, zo, c_star, config)
    assume(0.01 <= target <= 0.99)
    # where the curve is level to within rounding over a wide range it
    # meets the target on a plateau, whose first point only bisection
    # finds; ask for a slope of at least 1e-4 per unit of log c
    assume(abs(design_power(method, zo, c_star * 1.01, config) - target)
           >= 1e-6)
    res, evaluations = _solve_counting(
        SolveRequest(method=method, target_power=target, zo=zo,
                     config=config))
    assert design_power(method, zo, res.c, config) >= target - 1e-8
    assert evaluations <= 25
    if design_power(method, zo, 1e-9, config) < target:
        # rising branch: just below the answer the target is missed
        assert design_power(method, zo, res.c * (1.0 - 1e-6),
                            config) < target
