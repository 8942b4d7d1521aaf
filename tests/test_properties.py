"""Properties of every method's power and supremum over drawn inputs.

The supremum of a PowerResult is the least upper bound of the method's
power along its sizing axis: c for the design-stage methods, the
remaining size nj / no (with ni / no = c * f held fixed) at interim.
The solver's answer meets its target, is the first crossing, and
costs few scalar evaluations of the method table.  The input rules
treat a number and a one-element array alike.  Hypothesis runs
derandomized, so every run draws the same cases.
"""
import math
import re
import sys
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repower import (METHODS_FIXED, METHODS_INTERIM, DesignConfig,
                     FixedDesign, FutilityRule, InfeasibleTarget,
                     InterimState, SolveRequest, _methods, cbp, cp,
                     cp_pp_intersection, cpi, design, design_power, fbp,
                     fbp_cbp_intersection, fbp_minimum, futility_decision,
                     interim_ordering_holds, interim_power, ippi,
                     ippi_limit, pp, ppi, ppi_minimum, solve_c, solver,
                     std_normal_cdf, std_normal_quantile)

DRAWN = settings(derandomize=True, database=None, deadline=None,
                 max_examples=150)
RESULTS = {"CP": cp, "PP": pp, "FBP": fbp, "CBP": cbp,
           "CPi": cpi, "IPPi": ippi, "PPi": ppi}
AXIS = np.geomspace(1e-9, 1e9, 40_001)

configs = st.builds(DesignConfig, alpha=st.floats(1e-4, 0.5),
                    shrinkage=st.floats(0.0, 0.9),
                    both_tails=st.booleans())
both_tails = configs.map(lambda c: replace(c, both_tails=True))
one_tail = configs.map(lambda c: replace(c, both_tails=False))
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
@given(method=st.sampled_from(("CP", "PP", "FBP", "CBP", "IPPi", "PPi")),
       zo=z_stats.filter(lambda z: abs(z) >= 1e-3), zi=z_stats, c=sizes,
       f=fractions, config=both_tails)
def test_both_tail_suprema_need_no_search(method, zo, zi, c, f, config):
    # with both tails these curves tend to 1 as the size grows, which
    # their rules state without the numeric search
    state = (InterimState(zi, f),) if method in METHODS_INTERIM else ()
    with mock.patch.object(solver, "_numeric_supremum",
                           side_effect=AssertionError("numeric search")):
        res = RESULTS[method](FixedDesign(zo, c), *state, config)
    assert res.supremum == 1.0 and res.feasible_100


@DRAWN
@given(method=st.sampled_from(sorted(RESULTS)), zo=z_stats, zi=z_stats,
       c=sizes, f=fractions, config=one_tail)
def test_one_tail_suprema_need_no_search(method, zo, zi, c, f, config):
    # with one tail Phi is increasing, so every rule states the supremum
    # over the remaining size: a limit, or the value where the slope of
    # the Phi argument vanishes
    state = (InterimState(zi, f),) if method in METHODS_INTERIM else ()
    with mock.patch.object(solver, "_numeric_supremum",
                           side_effect=AssertionError("numeric search")):
        res = RESULTS[method](FixedDesign(zo, c), *state, config)
    assert res.power <= res.supremum <= 1.0


def _searched(curve, lo, hi):
    """Largest value of ``curve`` on a 20001-point log grid from lo to
    hi, zoomed on 33-point log grids over the two cells around the best
    point down to a log spacing of 1e-9."""
    t = np.linspace(math.log(lo), math.log(hi), 20_001)
    while True:
        vals = curve(np.exp(t))
        i = int(np.argmax(vals))
        if t[1] - t[0] < 1e-9:
            return float(vals[i])
        t = np.linspace(t[max(i - 1, 0)], t[min(i + 1, t.size - 1)], 33)


def _rule(method, zd, zi, s, config, f=None):
    """A one-tail supremum from the method table, with the numeric search
    switched off."""
    with mock.patch.object(solver, "_numeric_supremum",
                           side_effect=AssertionError("numeric search")):
        return _methods.METHODS[method].sup(zd, zi, s, f, config)


def _argument(method, zd, zi, s=None, f=None, config=None):
    """The Phi argument of a table entry along x at fixed s, or along c
    at fixed f."""
    entry = _methods.METHODS[method]

    def arg(u):
        sizes = (s, u) if f is None else (u * f, u * (1.0 - f))
        t, z = entry.parts(zd, zi, *sizes, config)
        return t + z
    return arg


@settings(DRAWN, max_examples=400)
# interior peaks need a negative original, and most lie at stage sizes
# from 1e-4 to 10; the rest of the draws run from 1e-300 to the top of
# the doubles
@given(method=st.sampled_from(("CPi", "IPPi")), zo=st.floats(-8.0, 1.0),
       zi=z_stats, edge=st.sampled_from((False, False, False, True)),
       s=(st.floats(-4.0, 1.0) | st.floats(-300.0, 308.2)).map(
           lambda e: 10.0 ** e), config=one_tail)
def test_peaks_over_the_remaining_size_match_a_dense_search(method, zo, zi,
                                                            edge, s, config):
    # x from s * 1e-170 (at least 1e-320) to 1e170 max(s, 1), capped so
    # that s + x stays finite: the peaks lie between, at every s.  About
    # a third of the draws sit at the edge of significance, zi = -z_alpha
    if edge:
        zi = -config.z_alpha
    assume(zi + config.z_alpha <= 0.0)
    zd = design.shrunken_zo(zo, config)
    if method == "CPi":
        zd = min(zd, 0.0)      # a positive zd reaches 1 as x grows
        limit = config.alpha / 2.0 if zd == 0.0 else 0.0
    else:
        limit = ippi_limit(zo, zi, s, config)
    got = _rule(method, zd, zi, s, config)
    hi = min(max(s, 1.0) * 1e170, 0.5 * (sys.float_info.max - s))
    best = _searched(_argument(method, zd, zi, s, config=config),
                     max(s * 1e-170, 1e-320), hi)
    want = max(float(std_normal_cdf(best)), limit)
    if edge:
        # the argument tends to 0 as x -> 0, so the supremum is at least
        # 1/2; the search there reads Phi of the argument's rounding, as
        # terms near 1e8 cancel at x / s near 1e-16
        assert got == pytest.approx(max(limit, 0.5), rel=1e-12, abs=0.0)
        assert want <= got + 1e-7
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@DRAWN
@given(zo=st.floats(-8.0, 0.0), zi=z_stats, f=fractions, config=one_tail)
def test_design_and_fixed_f_peaks_match_a_dense_search(zo, zi, f, config):
    zd = design.shrunken_zo(zo, config)
    # CPi at a fixed f falls in c from its c -> 0 limit
    got = _rule("CPi", zd, zi, 0.0, config, f)
    best = _searched(_argument("CPi", zd, zi, f=f, config=config),
                     1e-300, 1e12)
    assert got == pytest.approx(float(std_normal_cdf(best)), rel=1e-12,
                                abs=0.0)
    if zd < 0.0:
        # CBP peaks at c + 1 = v, v (v - 2)^2 = (z_alpha_tilde / zd)^2
        got = _rule("CBP", zd, None, 0.0, config)
        best = _searched(_argument("CBP", zd, None, 0.0, config=config),
                         1e-300, 1e300)
        assert got == pytest.approx(float(std_normal_cdf(best)), rel=1e-12,
                                    abs=0.0)


@pytest.mark.parametrize("method, zd, zi, s, f, expected", [
    # mpmath at 40 digits with the double z_alpha (alpha = 0.05): golden
    # section on log x of the published Phi argument, or its closed form
    ("IPPi", -4.97, -2.59, 1e-300, None, 0.024999999999999997899),
    ("IPPi", -5.98, 1.8, 1e-100, None, 0.21901098030927628892),
    ("IPPi", -5.64, 0.21, 0.4, None, 4.3581884648574690427e-6),
    ("IPPi", -5.07, 1.16, 0.4, None, 0.0018325360727715184357),
    ("CPi", -1.0, 0.5, 1e-300, None, 0.029038619604236689625),
    ("CPi", -1e-200, 1.0, 1.0, None, 0.0459303901866749719),
    # Phi(-sqrt(z_alpha^2 - zi^2)) at zd = 0
    ("CPi", 0.0, 1.5, 3.0, None, 0.10355891640924563705),
    # the c -> 0 limit Phi(sqrt(q) zi + sqrt(1 + q) z_alpha), q = f / (1 - f)
    ("CPi", -0.5, 1.0, 0.0, 0.4, 0.043282176619318568928),
    ("CBP", -0.5, None, 0.0, None, 5.9294004212595272591e-7),
    ("CBP", -3.0, None, 0.0, None, 4.3862351641975838006e-25),
    ("CBP", -1e-100, None, 0.0, None, 0.00062500000000000000644),
])
def test_stationary_point_suprema_against_mpmath(method, zd, zi, s, f,
                                                 expected):
    got = _rule(method, zd, zi, s, DesignConfig(), f)
    assert got == pytest.approx(expected, rel=1e-13, abs=0.0)


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
    """solve_c's answer and its number of scalar method-table calls,
    counted on the curve ``solver._along`` hands the solver."""
    scalar_calls = []
    along = solver._along

    def counting(*args):
        curve, finish = along(*args)

        def counted(u):
            scalar_calls.append(np.ndim(u) == 0)
            return curve(u)
        return counted, finish
    with mock.patch.object(solver, "_along", counting):
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
    # the root and the falling-branch check evaluate at least once
    assert 0 < evaluations <= 25
    if design_power(method, zo, 1e-9, config) < target:
        # rising branch: just below the answer the target is missed
        assert design_power(method, zo, res.c * (1.0 - 1e-6),
                            config) < target
    rise = design_power(method, zo, np.geomspace(1e-9, c_star, 200), config)
    if rise[0] < target and np.all(np.diff(rise) >= 0.0):
        # a curve that rises from the bottom of the axis, with one tail
        # or both, is solved from its inverse rule, without an array call
        # (a scan would count its 1200 points in res.evaluations)
        assert res.path == "inverse" and res.evaluations == evaluations


LOWER_BOUND = ("every size down to the lower bound meets the target; "
               "returning the bound itself")


@settings(DRAWN, max_examples=100)
@given(method=st.sampled_from(METHODS_FIXED + METHODS_INTERIM), zo=z_stats,
       zi=z_stats, c_stage1=st.sampled_from((None, 0.1, 1.0, 20.0)),
       f=fractions, both=st.booleans())
def test_solve_c_finds_narrow_peaks_and_dips(method, zo, zi, c_stage1, f,
                                              both):
    # targets a hair under an interior maximum, or over an interior
    # minimum of a curve that starts above it, lie inside a window that
    # can fall between the solver's scan points
    config = DesignConfig(both_tails=both)
    kwargs = dict(zo=zo, config=config)
    if method in METHODS_INTERIM:
        assume(c_stage1 is not None or method != "PPi")
        s = c_stage1 or 0.0
        axis = np.geomspace(1e-9, max(1e9, 10.0 * s) - s, 20_001)
        c = s + axis
        kwargs.update(zi=zi, **({"f": f} if c_stage1 is None
                                else {"c_stage1": c_stage1}))
        curve = interim_power(method, zo, zi, c,
                              f if c_stage1 is None else s / c, config)
    else:
        curve = design_power(method, zo, AXIS, config)
    targets = []
    top, bottom = np.argmax(curve), np.argmin(curve)
    if 0 < top < curve.size - 1:
        targets += [curve[top] * (1.0 - 10.0 ** -k) for k in range(1, 10)]
    if 0 < bottom < curve.size - 1:
        targets += [curve[bottom] + (1.0 - curve[bottom]) * 10.0 ** -k
                    for k in range(1, 10)]
    for target in targets:
        if not 0.0 < target < 1.0:
            continue
        try:
            res = solve_c(SolveRequest(method, target, **kwargs))
        except InfeasibleTarget as exc:
            assert exc.supremum < target
            continue
        assert res.power >= target
        if np.min(curve) < target:
            assert res.warning != LOWER_BOUND


def _solved(request, scan_only=False):
    """solve_c's answer or its InfeasibleTarget; with ``scan_only`` the
    method's inverse rule is taken out of the table, so the scan runs."""
    entry = _methods.METHODS[request.method]
    table = {request.method: replace(entry, inverse=None)} if scan_only \
        else {}
    with mock.patch.dict(_methods.METHODS, table):
        try:
            return solve_c(request)
        except InfeasibleTarget as exc:
            return exc


@settings(DRAWN, max_examples=400)
# crossings near c = 4e9, beyond C_CAP, on curves that rise like sqrt(c)
@example("CP", 3e-5, 1.0, 0.0, 1.0, 0.5, 4e9, 0.0, DesignConfig())
@example("CBP", 5e-5, 1.0, 0.0, 1.0, 0.5, 4e9, 0.0, DesignConfig())
@example("CPi", 4e-5, 1.0, 0.5, 1.0, 0.5, 4e9, 0.0, DesignConfig())
# PPi read through FBP's pooled rules: a level above zi, on the falling
# branch of a significant interim, where the rule has no answer; and a
# crossing at x = 40 c_stage1 = 4e9, past C_CAP, on a curve still rising
@example("PPi", 0.0, 1.0, 2.5, 3.6, 0.5, 0.1, 0.0, DesignConfig())
@example("PPi", 0.0, 1.0, 1.0, 1e8, 0.5, 4e9, 0.0, DesignConfig())
# a curve flat within rounding, where the walk past Phi's ulp-scale
# steps once cost 9 evaluations
@example("PPi", 0.0, 1.0, -0.27419531835253963, 1.0, 0.5, 10.0 ** 0.5, 0.0,
         DesignConfig(alpha=0.5))
@given(method=st.sampled_from(("CP", "PP", "FBP", "CBP", "CPi", "PPi")),
       zo=st.floats(-4.0, 6.0),
       scale=st.sampled_from((1.0, 1.0, 1.0, 1e-5)), zi=st.floats(-3.0, 3.0),
       s=st.floats(-2.0, 3.0).map(lambda e: 10.0 ** e), f=fractions,
       u=st.floats(-1.0, 10.0).map(lambda e: 10.0 ** e),
       lower=st.sampled_from((0.0, 0.0, 0.5, 2.0)), config=one_tail)
def test_inverse_rules_agree_with_the_scan(method, zo, scale, zi, s, f, u,
                                           lower, config):
    # the target is the power at a drawn size u on the growing axis, up
    # to 10 C_CAP, where a small zo keeps the curve off its limit;
    # c_lower lies below or above it, or is not set
    zo *= scale
    if method == "PPi":
        kwargs = dict(zi=zi, c_stage1=s)
    else:
        kwargs = dict(zo=zo, **({"zi": zi, "f": f} if method == "CPi"
                                else {}))
        s = 0.0

    def power(u):
        if method not in METHODS_INTERIM:
            return design_power(method, zo, u, config)
        return interim_power(method, zo, zi, s + u,
                             f if method == "CPi" else s / (s + u), config)
    target = power(u)
    assume(1e-4 <= target <= 1.0 - 1e-4)
    # where the Phi argument moves less than 1e-3 over 1% of the size,
    # the rounding of the curve blurs its crossing over more than 1e-13
    level = std_normal_quantile(target)
    assume(abs(std_normal_quantile(power(u * 1.01)) - level) >= 1e-3)
    # where Phi's rounding falls short of the target just above the
    # level, the inverse path still answers: its refined crossing lands
    # past that rounding, or walks on by ulps
    req = SolveRequest(method, target, c_lower=lower * (s + u),
                       config=config, **kwargs)
    got, want = _solved(req), _solved(req, scan_only=True)
    if isinstance(want, InfeasibleTarget):
        # a crossing beyond C_CAP, or none: the same refusal
        assert type(got) is InfeasibleTarget and str(got) == str(want)
        assert got.supremum == want.supremum
        return
    assert got.power >= target
    # the rules answer on a rising piece that starts at the bottom of
    # the axis; elsewhere (a falling start, a falling branch, the lower
    # bound) the scan runs as before
    if want.warning is not None or power(1e-9) >= target:
        assert got == want and got.path == want.path != "inverse"
        return
    assert got.path == "inverse" and got.evaluations <= 8
    assert got.warning is None
    # the scan stops within 1e-14 max(1, c) of the crossing
    assert got.c == pytest.approx(want.c, rel=1e-13, abs=1e-14)


@settings(DRAWN, max_examples=300)
@example("CP", 8.0, 0.03, DesignConfig(alpha=0.5, shrinkage=0.25,
                                       both_tails=True))
@given(method=st.sampled_from(METHODS_FIXED), zo=z_stats,
       u=st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e), config=both_tails)
def test_both_tail_inverse_agrees_with_the_scan(method, zo, u, config):
    # the target is the both-tail power at a drawn size u; a curve that
    # starts below it is solved from the one-tail rules, and the scan is
    # the oracle for its first crossing
    target = design_power(method, zo, u, config)
    assume(1e-4 <= target <= 1.0 - 1e-4)
    assume(design_power(method, zo, 1e-9, config) < target)
    # where the power moves less than 1e-5 over 1% of the size, its
    # rounding blurs the first computed crossing over more than 1e-13
    assume(abs(design_power(method, zo, u * 1.01, config) - target) >= 1e-5)
    req = SolveRequest(method, target, zo=zo, config=config)
    got, want = _solved(req), _solved(req, scan_only=True)
    assert want.path == "scan"
    assert got.power >= target and got.warning == want.warning
    rise = design_power(method, zo, np.geomspace(1e-9, u, 200), config)
    if not np.all(np.diff(rise) >= -8.0 * 2.0 ** -52 * rise[1:]):
        # a curve that dips first (FBP and CBP beyond the pooled
        # threshold): the rules do not answer, and the scan runs as before
        assert got == want and got.path == "scan"
        return
    assert got.path == "inverse" and got.evaluations <= 25
    assert got.c == pytest.approx(want.c, rel=1e-13, abs=0.0)


@DRAWN
@given(method=st.sampled_from(METHODS_FIXED),
       zd=st.one_of(st.floats(0.0, 8.0), st.floats(-8.0, 2.0).map(
           lambda e: 10.0 ** e)),
       p=st.floats(1e-6, 1.0 - 1e-6), config=both_tails)
def test_both_tail_power_rises_where_the_one_tail_rule_answers(method, zd, p,
                                                               config):
    # Phi(t + z) + Phi(z - t), t >= 0 >= z: where the one-tail argument
    # t + z rises, and z does not fall, so does the sum, as phi(z - t) <=
    # phi(t + z); the rules answer only on such curves
    entry = _methods.METHODS[method]
    assume(entry.inverse(zd, None, 0.0, None, std_normal_quantile(p),
                         config) is not None)
    power = entry.power(zd, None, 0.0, AXIS, config)
    # up to the rounding of the two Phi terms
    assert np.all(np.diff(power) >= -8.0 * 2.0 ** -52 * power[1:])


def test_inverse_near_a_double_root_of_its_quadratic():
    # FBP's quadratic in sqrt(c) has two roots 0.5% apart here; as
    # b^2 - 4ac its discriminant loses five digits, and the root lands
    # 139 ulps low.  Formed as zd^2 (level^2 + z_alpha_tilde^2 - zd^2) it
    # keeps them, and the answer is c = 1 itself
    config = DesignConfig(alpha=0.5)
    target = design_power("FBP", 0.0078125, 1.0, config)
    req = SolveRequest("FBP", target, zo=0.0078125, config=config)
    res = _solved(req)
    assert res.path == "inverse" and res.evaluations <= 8
    assert res.power >= target and res.warning is None
    assert res.c == pytest.approx(1.0, rel=1e-15, abs=0.0)
    assert res.c == pytest.approx(_solved(req, scan_only=True).c,
                                  rel=1e-13, abs=0.0)


@settings(DRAWN, max_examples=300)
@given(method=st.sampled_from(METHODS_FIXED + METHODS_INTERIM), zo=z_stats,
       zi=z_stats, axis=st.sampled_from(("f", "c_stage1")), f=fractions,
       s=st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),
       u=st.floats(-2.0, 3.0).map(lambda e: 10.0 ** e),
       lower=st.sampled_from((0.0, 0.0, 0.5, 2.0)), config=configs)
def test_every_answer_meets_its_target_in_few_evaluations(
        method, zo, zi, axis, f, s, u, lower, config):
    # the target is the power at a drawn size u on the growing axis, on a
    # rising piece or a falling one, with one tail or both; c_lower lies
    # below or above it, or is not set
    if method in METHODS_FIXED:
        kwargs, s = dict(zo=zo), 0.0

        def power(u):
            return design_power(method, zo, u, config)
    elif axis == "f" and method != "PPi":
        kwargs, s = dict(zo=zo, zi=zi, f=f), 0.0

        def power(u):
            return interim_power(method, zo, zi, u, f, config)
    else:
        kwargs = dict(zi=zi, c_stage1=s)
        kwargs.update({} if method == "PPi" else {"zo": zo})

        def power(u):
            return interim_power(method, zo, zi, s + u, s / (s + u), config)
    target = float(power(u))
    assume(0.0 < target < 1.0)
    # as in test_solve_c_first_crossing_in_few_evaluations: a curve level
    # to within rounding over a wide range meets the target on a plateau,
    # whose first point only bisection finds
    assume(abs(power(u * 1.01) - target) >= 1e-6)
    req = SolveRequest(method, target, c_lower=lower * (s + u),
                       config=config, **kwargs)
    try:
        res, evaluations = _solve_counting(req)
    except InfeasibleTarget as exc:
        # a c_lower above u, or the rounding of a flat curve, can leave
        # the target out of reach
        assert exc.supremum <= target
        return
    assert res.power >= target
    if res.path != "lower bound":
        assert evaluations <= 25


@DRAWN
@given(method=st.sampled_from(METHODS_FIXED), zo=z_stats, c=sizes,
       config=both_tails)
def test_both_tails_design_is_symmetric_in_zo(method, zo, c, config):
    # Phi(t + z) + Phi(-t + z) only swaps its terms as t changes sign
    assert (design_power(method, -zo, c, config)
            == design_power(method, zo, c, config))
    assert (RESULTS[method](FixedDesign(-zo, c), config)
            == RESULTS[method](FixedDesign(zo, c), config))


@DRAWN
@given(method=st.sampled_from(METHODS_INTERIM), zo=z_stats, zi=z_stats,
       c=sizes, f=fractions, config=both_tails)
def test_both_tails_interim_is_symmetric_in_zo_and_zi(method, zo, zi, c, f,
                                                      config):
    assert (interim_power(method, -zo, -zi, c, f, config)
            == interim_power(method, zo, zi, c, f, config))


@DRAWN
@given(zo=st.floats(1e-2, 8.0), config=one_tail)
def test_crossings_are_at_half_power(zo, config):
    c = cp_pp_intersection(zo, config)
    for method in ("CP", "PP"):
        assert abs(design_power(method, zo, c, config) - 0.5) <= 1e-13
    cross = fbp_cbp_intersection(zo, config)
    if cross.feasible:
        for method in ("FBP", "CBP"):
            assert abs(design_power(method, zo, cross.c, config)
                       - 0.5) <= 1e-13


@DRAWN
@given(zo=z_stats, zi=z_stats, config=configs)
def test_fbp_and_ppi_minima_lie_below_their_curves(zo, zi, config):
    if (1.0 - config.shrinkage) * zo + config.z_alpha_tilde > 0.0:
        mn = fbp_minimum(zo, config)
        assert mn.power <= np.min(design_power("FBP", zo, AXIS, config))
    if zi + config.z_alpha > 0.0:
        # ni / no = 1 held, the remaining size along AXIS
        total = 1.0 + AXIS
        curve = interim_power("PPi", None, zi, total, 1.0 / total, config)
        assert ppi_minimum(zi, config) <= np.min(curve)


# PPi's argument, sqrt(1 + q) zi + sqrt(q) z_alpha with q = f / (1 - f),
# is FBP's at zd = zi and x = 1 / q when the pooled critical value
# z_alpha_tilde equals z_alpha, at alpha' = sqrt(2 alpha).  The two round
# alpha', 1 / q and the weights differently, and t and z cancel in the
# argument a; the worst of 120 000 drawn inputs, most of them near that
# cancellation, read 60 units of (1 + a^2) eps, so 128 holds with a margin
PPI_AS_FBP_UNITS = 128.0


@DRAWN
@example(zi=-3.0, c=2.0, f=0.95, alpha=1e-4, both=False)
@example(zi=8.0, c=2.0, f=0.5, alpha=0.3, both=True)
@example(zi=-1.2, c=0.5, f=0.3, alpha=0.49, both=True)
@example(zi=2.5, c=40.0, f=0.8, alpha=0.4899999, both=False)
@given(zi=z_stats, c=sizes, f=fractions, alpha=st.floats(1e-4, 0.49),
       both=st.booleans())
def test_ppi_is_fbp_at_the_interim_weights(zi, c, f, alpha, both):
    config = DesignConfig(alpha=alpha, both_tails=both)
    pooled = DesignConfig(alpha=math.sqrt(2.0 * alpha), both_tails=both)
    got = interim_power("PPi", None, zi, c, f, config)
    want = design_power("FBP", zi, (1.0 - f) / f, pooled)
    t, z = _methods.METHODS["PPi"].parts(zi, zi, c * f, c * (1.0 - f),
                                         config)
    a = max(abs(t + z), abs(z - t)) if both else abs(t + z)
    assert abs(got - want) <= (PPI_AS_FBP_UNITS * (1.0 + a * a)
                               * sys.float_info.epsilon * want
                               + 2.0 * 5e-324), (got, want, a)


@settings(DRAWN, max_examples=300)
@given(zo=st.floats(0.0, 8.0), zi=z_stats, c=st.floats(1.0, 1e3),
       f=st.floats(0.2, 0.99), config=configs)
def test_an_ordered_verdict_keeps_the_ordering(zo, zi, c, f, config):
    # with one tail or both, "ordered" means CPi >= IPPi >= PPi, exactly
    fixed, state = FixedDesign(zo, c), InterimState(zi, f)
    if interim_ordering_holds(fixed, state, config) == "ordered":
        powers = [m(fixed, state, config).power for m in (cpi, ippi, ppi)]
        assert powers[0] >= powers[1] >= powers[2]


# each input rule with the floats it accepts
RULES = {
    "finite": (_methods.finite, math.isfinite),
    "positive": (_methods.positive, lambda v: 0.0 < v < math.inf),
    "unit": (_methods.unit, lambda v: 0.0 < v < 1.0),
    "unit closed": (_methods.fraction, lambda v: 0.0 <= v < 1.0),
}
edges = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1.0 - 2.0 ** -53,
                         math.inf, -math.inf, math.nan])


def _refusal(check, value):
    """The message a rule raises for ``value``, or None if it passes."""
    try:
        check("v", value)
    except ValueError as exc:
        return str(exc)
    return None


@DRAWN
@given(rule=st.sampled_from(sorted(RULES)),
       v=st.floats(allow_nan=True, allow_infinity=True) | edges)
def test_rules_treat_a_number_and_a_one_element_array_alike(rule, v):
    check, accepts = RULES[rule]
    message = _refusal(check, v)
    assert (message is None) == accepts(v)
    if message is not None:
        assert message.startswith("v must ")
    assert _refusal(check, np.float64(v)) == message
    assert _refusal(check, np.array(v)) == message
    assert _refusal(check, np.array([v])) == message


def test_scalar_fields_refuse_lists():
    with pytest.raises(ValueError, match="^zo must be finite$"):
        FixedDesign(zo=[1.0, 0.0], c=1.0)
    with pytest.raises(ValueError, match="^c_stage1 must be positive"):
        SolveRequest(method="IPPi", target_power=0.5, zo=2.0, zi=1.0,
                     c_stage1=[1, 2])
    with pytest.raises(ValueError, match="^c_stage1 must be positive"):
        ippi_limit(2.0, 1.0, c_stage1=[1, 2])


def test_an_array_zo_or_zi_is_refused_by_name():
    one, two = np.array(1.0), np.array([1.0, 2.0])
    for call, name in (
            (lambda: design_power("CP", two, 2.0), "zo"),
            (lambda: interim_power("CPi", two, 1.0, 2.0, 0.4), "zo"),
            (lambda: interim_power("PPi", None, two, 2.0, 0.4), "zi"),
            (lambda: cp(FixedDesign(two, 2.0)), "zo"),
            (lambda: ippi(FixedDesign(2.0, 2.0), InterimState(two, 0.4)),
             "zi")):
        with pytest.raises(ValueError, match=f"^{name} must be a single "
                                             "number$"):
            call()
    # a 0-d array is a single number
    assert design_power("CP", one, 2.0) == design_power("CP", 1.0, 2.0)
    assert (interim_power("IPPi", one, one, 2.0, 0.4)
            == interim_power("IPPi", 1.0, 1.0, 2.0, 0.4))


def test_scalar_only_calls_refuse_an_array_by_name():
    two, fs = np.array([1.0, 2.0]), np.array([0.2, 0.4])
    state = InterimState(1.0, 0.4)
    for call, name in (
            (lambda: cp(FixedDesign(2.0, two)), "c"),
            (lambda: cpi(FixedDesign(2.0, 2.0), InterimState(1.0, fs)), "f"),
            (lambda: futility_decision(FixedDesign(2.0, two), state), "c"),
            (lambda: interim_ordering_holds(FixedDesign(two, 2.0), state),
             "zo"),
            (lambda: cp_pp_intersection(two), "zo"),
            (lambda: fbp_cbp_intersection(two), "zo"),
            (lambda: fbp_minimum(two), "zo"),
            (lambda: ppi_minimum(two), "zi"),
            (lambda: ippi_limit(2.0, 1.0, c_stage1=two), "c_stage1"),
            (lambda: FutilityRule(boundary=fs), "boundary")):
        with pytest.raises(ValueError, match=f"^{name} must be a single "
                                             "number$"):
            call()


def test_numpy_floats_give_python_floats_and_the_same_bits():
    fixed = FixedDesign(np.float64(3.2), np.float64(2.0))
    state = InterimState(np.float64(2.5), np.float64(0.4))
    rule = FutilityRule(boundary=np.float64(0.3))
    for obj in (fixed, state, rule):
        assert all(type(v) is float for v in vars(obj).values()
                   if not isinstance(v, str))
    assert repr(cpi(fixed, state)) == repr(
        cpi(FixedDesign(3.2, 2.0), InterimState(2.5, 0.4)))
    assert repr(futility_decision(fixed, state, rule)) == repr(
        futility_decision(FixedDesign(3.2, 2.0), InterimState(2.5, 0.4),
                          FutilityRule(boundary=0.3)))
    for call, v in ((cp_pp_intersection, 3.2), (fbp_cbp_intersection, 1.5),
                    (fbp_minimum, 4.0), (ppi_minimum, 2.5),
                    (lambda v: ippi_limit(2.0, 1.0, v), 0.8)):
        assert repr(call(np.float64(v))) == repr(call(v))


def _outcome(call):
    """The repr of what ``call`` returns, which keeps every bit of a
    float, or the text and the attributes of the ValueError it raises:
    InfeasibleTarget's supremum, bit for bit."""
    try:
        return repr(call())
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc} {vars(exc)}"


scalar_forms = st.sampled_from((float, np.float64, np.array))
# mostly accepted values, with edges and a few that are refused
any_z = st.floats(-40.0, 40.0) | st.sampled_from(
    (-0.0, 1e-300, -40.0, 39.0, 8.0, math.nan))
any_c = st.floats(5e-324, 1.7e308) | st.sampled_from(
    (1e-9, 1.0, 1e9, 1e300, -1.0, math.inf))
any_f = st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from(
    (0.0, 1e-300, 0.4, 1.0 - 1e-16, 1.0))


@settings(DRAWN, max_examples=600)
@given(method=st.sampled_from(sorted(RESULTS)), both=st.booleans(),
       values=st.tuples(any_z, any_z, any_c, any_f),
       forms=st.tuples(*[scalar_forms] * 4))
# CPi's inverse rule overflows to inf at this zo: an inf for a float zi,
# a RuntimeWarning for a numpy one
@example(method="CPi", both=False,
         values=(-4.491292982265977e-288, 0.0, 0.5, 0.5),
         forms=(float, np.float64, float, float))
# a PPi solve, whose inverse rule is FBP's scaled by c_stage1, with the
# zo it ignores given in every form
@example(method="PPi", both=False, values=(2.0, 1.5, 0.5, 0.8),
         forms=(np.array, np.float64, np.array, float))
# an IPPi solve next to the top of the doubles, whose weight (1 + r)(s + 1)
# overflowed with a numpy warning
@example(method="IPPi", both=False,
         values=(0.0, 0.0, 1.5986765306076235e+308, 0.5),
         forms=(np.float64, np.array, np.float64, np.array))
def test_a_float_a_numpy_float_and_a_0d_array_give_the_same_bits(
        method, both, values, forms):
    config = DesignConfig(both_tails=both)

    def outcomes(zo, zi, c, f):
        # solve_c aims at the power f, from c_stage1 = c at interim
        if method in METHODS_INTERIM:
            return (_outcome(lambda: interim_power(method, zo, zi, c, f,
                                                   config)),
                    _outcome(lambda: RESULTS[method](
                        FixedDesign(zo, c), InterimState(zi, f), config)),
                    _outcome(lambda: solve_c(SolveRequest(
                        method, f, zo=zo, zi=zi, c_stage1=c,
                        config=config))))
        return (_outcome(lambda: design_power(method, zo, c, config)),
                _outcome(lambda: RESULTS[method](FixedDesign(zo, c),
                                                 config)),
                _outcome(lambda: solve_c(SolveRequest(method, f, zo=zo,
                                                      config=config))))
    assert (outcomes(*(form(v) for form, v in zip(forms, values)))
            == outcomes(*values))


# the edge of every input: zo and zi from far tails to +-1e-300, sizes
# from the smallest subnormal to the top of the doubles, interim
# fractions at both ends, and configs at the extremes of alpha and the
# shrinkage; alpha = 1e-300 leaves FBP and CBP without a critical value
EDGE_Z = (-40.0, -5.0, -1e-300, 0.0, 1e-300, 0.5, 2.0, 8.0, 39.0)
EDGE_C = (5e-324, 1e-300, 1e-9, 1.0, 1e9, 1e300, 1.7e308)
EDGE_F = (0.0, 1e-300, 0.4, 1.0 - 1e-16)
EDGE_CONFIGS = (DesignConfig(), DesignConfig(both_tails=True),
                DesignConfig(alpha=1e-300), DesignConfig(alpha=0.999999),
                DesignConfig(shrinkage=0.999999))
EDGE_TARGETS = (1e-10, 0.025, 0.5, 0.9, 1.0 - 1e-12)


def _names_an_argument(exc, names):
    """Whether a ValueError's message starts with one of ``names``."""
    return re.match(f"({'|'.join(map(re.escape, names))}) ", str(exc))


@settings(DRAWN, max_examples=500)
@example("FBP", DesignConfig(alpha=1e-300), 2.0, 0.0, 0.4)
@given(method=st.sampled_from(sorted(RESULTS)),
       config=st.sampled_from(EDGE_CONFIGS), zo=st.sampled_from(EDGE_Z),
       zi=st.sampled_from(EDGE_Z), f=st.sampled_from(EDGE_F))
def test_every_result_at_the_edges_is_bounded_or_names_its_argument(
        method, config, zo, zi, f):
    state = (InterimState(zi, f),) if method in METHODS_INTERIM else ()
    for c in EDGE_C:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                res = RESULTS[method](FixedDesign(zo, c), *state, config)
            except ValueError as exc:
                assert _names_an_argument(
                    exc, ("zo", "zi", "c", "f", "alpha", "shrinkage")), exc
                continue
        assert 0.0 <= res.power <= res.supremum <= 1.0


@settings(DRAWN, max_examples=1000)
# a both-tail CBP solve at a zo whose one-tail rule overflows to inf
@example("CBP", DesignConfig(both_tails=True), 1e-300, 0.0, 0.5, 0.4, 1.0,
         0.0)
@example("CBP", DesignConfig(both_tails=True), -1e-300, 0.0, 0.5, 0.4, 1.0,
         0.0)
@example("FBP", DesignConfig(alpha=1e-300), 2.0, 0.0, 0.5, 0.4, 1.0, 0.0)
@given(method=st.sampled_from(sorted(RESULTS)),
       config=st.sampled_from(EDGE_CONFIGS[:3]), zo=st.sampled_from(EDGE_Z),
       zi=st.sampled_from(EDGE_Z), target=st.sampled_from(EDGE_TARGETS),
       f=st.sampled_from((None, *EDGE_F)),
       c_stage1=st.sampled_from(EDGE_C[1:]),
       c_lower=st.sampled_from((0.0, 1e-300, 1.0, 1e300)))
def test_every_solve_at_the_edges_meets_its_target_or_says_why(
        method, config, zo, zi, target, f, c_stage1, c_lower):
    # interim methods solve at a fixed f, or at a fixed c_stage1 when f is
    # None; PPi, which does not vary at a fixed f, always at c_stage1
    kwargs = {} if method == "PPi" else {"zo": zo}
    if method in METHODS_INTERIM:
        kwargs["zi"] = zi
        if f is None or method == "PPi":
            kwargs["c_stage1"] = c_stage1
        else:
            kwargs["f"] = f
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            res = solve_c(SolveRequest(method, target, c_lower=c_lower,
                                       config=config, **kwargs))
        except InfeasibleTarget as exc:
            assert 0.0 <= exc.supremum <= target
            return
        except ValueError as exc:
            assert _names_an_argument(
                exc, ("target_power", "zo", "zi", "f", "c_stage1",
                      "c_lower", "alpha")), exc
            return
    assert 0.0 < res.c < math.inf
    assert target <= res.power <= 1.0
