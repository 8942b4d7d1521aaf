"""Sample-size inversion and futility rules."""
import sys
import warnings

import numpy as np
import pytest

from repower import (DesignConfig, FixedDesign, FutilityRule,
                     InfeasibleTarget, InterimState, SolveRequest, _methods,
                     design, design_power, fbp_minimum, futility_decision,
                     interim_power, p_to_z, solve_c, std_normal_cdf)

CFG = DesignConfig(alpha=0.05)


def _power_at(request, c):
    if request.method in ("CP", "PP", "FBP", "CBP"):
        return design_power(request.method, request.zo, c, request.config)
    f = request.f if request.f is not None else request.c_stage1 / c
    return interim_power(request.method, request.zo, request.zi, c, f,
                         request.config)


def test_cp_closed_form_cases():
    # target 0.5 with zo = -z_alpha collapses to c = 1
    res = solve_c(SolveRequest(method="CP", target_power=0.5,
                               zo=p_to_z(0.05, +1), config=CFG))
    assert res.c == pytest.approx(1.0, abs=1e-8)
    # c = ((quantile(0.9) - z_alpha) / zo)^2, mpmath: 1.33355642
    res = solve_c(SolveRequest(method="CP", target_power=0.9, zo=2.8070,
                               config=CFG))
    assert res.c == pytest.approx(1.3335564165, rel=1e-8)
    assert res.power == pytest.approx(0.9, abs=1e-8)
    assert res.warning is None and res.f is None


def test_round_trip_fixed_methods():
    zo = 2.31
    for method in ("CP", "PP", "FBP", "CBP"):
        for target in (0.2, 0.5, 0.8, 0.9):
            req = SolveRequest(method=method, target_power=target,
                               zo=zo, config=CFG)
            res = solve_c(req)
            assert abs(_power_at(req, res.c) - target) <= 1e-8


def test_round_trip_interim_methods():
    # at a fixed interim fraction IPPi tops out at the PPi value of the
    # same (zi, f), so its targets must sit below that ceiling
    for method, kwargs, targets in (
            ("CPi", dict(zo=2.5, zi=-0.3, c_stage1=0.8),
             (0.3, 0.6, 0.85)),
            ("IPPi", dict(zo=2.5, zi=-0.3, c_stage1=0.8),
             (0.3, 0.6, 0.85)),
            ("PPi", dict(zi=1.5, c_stage1=1.2), (0.3, 0.6, 0.85)),
            ("CPi", dict(zo=2.5, zi=-0.3, f=0.35), (0.3, 0.6, 0.85)),
            ("IPPi", dict(zo=2.5, zi=0.4, f=0.35), (0.1, 0.25, 0.4))):
        for target in targets:
            req = SolveRequest(method=method, target_power=target,
                               config=CFG, **kwargs)
            res = solve_c(req)
            assert abs(_power_at(req, res.c) - target) <= 1e-8, (
                method, kwargs, target)
            if "c_stage1" in kwargs:
                assert res.f == pytest.approx(kwargs["c_stage1"] / res.c)
                assert res.c > kwargs["c_stage1"]


def test_cpi_at_a_fixed_f_peaks_below_the_smallest_scanned_size():
    # CPi at a fixed f falls in c from its c -> 0 limit Phi(sqrt(q) zi +
    # sqrt(1 + q) z_alpha), q = f / (1 - f): 0.0432821766193186 (mpmath);
    # the search from c = 1e-12 read 0.043282141.  The target 0.04328215
    # is met only below c = 5.6e-13, under the smallest size solve_c
    # scans, 1e-9, so the bound it reports is the power there
    entry = _methods.METHODS["CPi"]
    assert design._supremum(entry, -0.5, 1.0, 0.0, CFG, 0.4) == \
        pytest.approx(0.043282176619318568928, rel=1e-14, abs=0.0)
    with pytest.raises(InfeasibleTarget) as exc:
        solve_c(SolveRequest("CPi", 0.04328215, zo=-0.5, zi=1.0, f=0.4))
    assert exc.value.supremum == interim_power("CPi", -0.5, 1.0, 1e-9, 0.4)
    res = solve_c(SolveRequest("CPi", 0.04328, zo=-0.5, zi=1.0, f=0.4))
    assert res.power >= 0.04328 and res.c > 1e-9


def test_c_stage1_next_to_the_largest_double():
    # the scan ended at max(C_CAP, 10 s) - s, which overflowed for s above
    # 1.8e307 into an inf and NaN grid; it now ends where c reaches the
    # largest double
    top = sys.float_info.max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # CPi crosses 0.8 near nj / no = 6e153, lost in c = ni / no +
        # nj / no, and the power there is read off terms near 1e77 that
        # cancel: no answer can be represented, so the request is refused
        with pytest.raises(ValueError, match="^c_stage1 = 1.7e[+]308 is "
                           "too large") as exc:
            solve_c(SolveRequest("CPi", 0.8, zo=2.0, zi=1.0,
                                 c_stage1=1.7e308))
        assert not isinstance(exc.value, InfeasibleTarget)
        # IPPi nears ippi_limit = 0.84 only once nj outgrows ni, beyond
        # the doubles: the bound is its power where the scan ends
        with pytest.raises(InfeasibleTarget) as exc:
            solve_c(SolveRequest("IPPi", 0.8, zo=2.0, zi=1.0,
                                 c_stage1=1.7e308))
        assert exc.value.supremum == pytest.approx(
            interim_power("IPPi", 2.0, 1.0, top, 1.7e308 / top), rel=1e-12)


def test_infeasible_carries_supremum():
    zo = p_to_z(0.05, +1)
    with pytest.raises(InfeasibleTarget) as exc:
        solve_c(SolveRequest(method="PP", target_power=0.9751, zo=zo,
                             config=CFG))
    assert exc.value.supremum == pytest.approx(0.975, abs=1e-9)
    assert exc.value.target_power == 0.9751
    assert "0.975" in str(exc.value)
    # PPi cannot beat the interim evidence alone
    with pytest.raises(InfeasibleTarget) as exc:
        solve_c(SolveRequest(method="PPi", target_power=0.9, zi=0.5,
                             c_stage1=2.0, config=CFG))
    assert exc.value.supremum == pytest.approx(
        float(std_normal_cdf(0.5)), rel=1e-9)


def test_falling_branch_and_plateau():
    zo = 4.46518391558482        # po = 8e-6 < alpha_tilde
    res = solve_c(SolveRequest(method="FBP", target_power=0.999, zo=zo,
                               config=CFG))
    assert res.power == pytest.approx(0.999, abs=1e-8)
    assert res.c < 0.9144        # left of the interior minimum
    assert "falling" in res.warning
    # same target constrained past the dip: rising branch, no warning
    res2 = solve_c(SolveRequest(method="FBP", target_power=0.999, zo=zo,
                                c_lower=1.0, config=CFG))
    assert res2.c > res.c and res2.warning is None
    assert res2.power == pytest.approx(0.999, abs=1e-8)
    # target below the global minimum is met everywhere: bound returned
    res3 = solve_c(SolveRequest(method="FBP", target_power=0.99, zo=zo,
                                config=CFG))
    assert res3.c == pytest.approx(1e-9)
    assert "lower bound" in res3.warning


def test_smallest_crossing_is_returned():
    # CPi with a significant interim starts at 1, dips below 0.98 and
    # recovers; the solver must return the first (falling) crossing
    req = SolveRequest(method="CPi", target_power=0.98, zo=2.0, zi=2.5,
                       c_stage1=0.8, config=CFG)
    res = solve_c(req)
    assert res.power == pytest.approx(0.98, abs=1e-8)
    assert "falling" in res.warning
    later = _power_at(req, res.c * 1.5)
    assert later < 0.98


def test_crossings_between_scan_points_are_found():
    # CPi peaks at 0.000735129... inside a window narrower than the
    # scan spacing; a target just under the peak is reached there
    req = SolveRequest("CPi", 0.000735128, zo=-1, zi=1, c_stage1=3)
    res = solve_c(req)
    assert res.power >= 0.000735128
    # recomputed from (c, f), the stage sizes round a little differently
    assert _power_at(req, res.c) == pytest.approx(0.000735128, rel=1e-12)
    # FBP dips to 0.99898539753 at c = 0.914; a target a hair above the
    # dip is first missed just left of it, on the falling branch
    zo = 4.46518391558482
    req = SolveRequest("FBP", 0.9989853976, zo=zo)
    res = solve_c(req)
    assert res.power >= 0.9989853976
    assert 0.9 < res.c < fbp_minimum(zo).c
    assert "falling" in res.warning


def test_falling_crossing_meets_its_target():
    # IPPi falls through the target; the refined crossing's Phi argument
    # meets the level, yet Phi there rounds below the target
    target = 0.24687582369131147
    res = solve_c(SolveRequest(
        "IPPi", target, zo=-0.38263270314898756, zi=2.1101096346003487,
        f=0.16241886451375764, config=DesignConfig(alpha=0.14593080811942624)))
    assert res.path == "scan" and "falling" in res.warning
    assert res.power >= target


def test_inverse_meets_its_target_past_phi_rounding():
    # Phi is not monotone at the ulp scale: past the level, Phi of this
    # curve stays below the target for 27 ulps of c
    config = DesignConfig(alpha=0.22235512405877553,
                          shrinkage=0.12908658388166339)
    f = zo = 0.551090917329069
    zi = 0.1715728752538099
    target = interim_power("CPi", zo, zi, 5.946676567247231, f, config)
    res = solve_c(SolveRequest("CPi", target, zo=zo, zi=zi, f=f,
                               config=config))
    assert res.path == "inverse" and res.evaluations <= 8
    assert res.power >= target


def test_answers_near_the_floor_carry_every_digit():
    # the refiner stopped at b - a <= 1e-14 max(1, b), absolute below
    # c = 1, so an answer near the 1e-9 floor kept about 5 digits, and
    # the scan printed c=1.6096403e-09.  The crossing, by mpmath with
    # the double critical value, is 1.6096373566557e-09
    res = solve_c(SolveRequest("FBP", 0.2, zo=2.807, config=DesignConfig(
        alpha=0.1, both_tails=True)))
    assert f"{res.c:.8g}" == "1.6096374e-09"
    assert res.c == pytest.approx(1.6096373566557035e-09, rel=1e-10)
    assert res.power >= 0.2 and res.warning is None


def test_a_flat_curve_meets_its_own_power():
    # CP at zo = 0 is flat at Phi(z_alpha) = 0.12500000000000008.  The
    # level, Phi^{-1} of the target, lay an ulp above z_alpha and was
    # never lowered to it, so the target was refused as above the
    # supremum 0.125
    config = DesignConfig(alpha=0.25)
    target = design_power("CP", 0.0, 1.0, config)
    assert target == 0.12500000000000008
    res = solve_c(SolveRequest("CP", target, zo=0.0, config=config))
    assert res.c == 1e-9 and res.power == target
    assert res.warning.startswith("every size down to the lower bound")


@pytest.mark.parametrize("method,target", [("CPi", 0.8), ("IPPi", 0.6)])
def test_stage_sizes_near_the_top_of_the_doubles(method, target):
    # at c_stage1 = 1e300 the scan starts where s / u stays finite, so
    # no size overflows to a NaN power that would hide the crossing
    req = SolveRequest(method, target, zo=2, zi=1, c_stage1=1e300)
    if method == "CPi":
        # CPi crosses 0.8 at nj / no = 4.8e149, which rounds away in
        # c = c_stage1 + nj / no: refused, naming c_stage1
        with pytest.raises(ValueError, match="^c_stage1 = 1e[+]300 is too "
                           "large: the target is reached at nj / no = "
                           "4.79982e[+]149"):
            solve_c(req)
    else:
        res = solve_c(req)
        assert res.power >= target and 0.0 < res.f < 1.0
    # IPPi nears its supremum 0.841 only far beyond the scan, whose
    # best, 0.656, is the bound
    with pytest.raises(InfeasibleTarget) as exc:
        solve_c(SolveRequest("IPPi", 0.8, zo=2, zi=1, c_stage1=1e300))
    assert exc.value.supremum == pytest.approx(0.6557057, rel=1e-6)


def test_request_validation():
    with pytest.raises(ValueError):
        SolveRequest(method="CP", target_power=1.0, zo=2.0)
    with pytest.raises(ValueError):
        SolveRequest(method="CP", target_power=0.8)
    with pytest.raises(ValueError):
        SolveRequest(method="CP", target_power=0.8, zo=2.0, zi=1.0)
    with pytest.raises(ValueError):
        SolveRequest(method="CPi", target_power=0.8, zo=2.0, zi=1.0)
    with pytest.raises(ValueError):
        SolveRequest(method="CPi", target_power=0.8, zo=2.0, zi=1.0,
                     f=0.3, c_stage1=0.5)
    with pytest.raises(ValueError):
        SolveRequest(method="PPi", target_power=0.8, zi=1.0, f=0.3)
    with pytest.raises(ValueError):
        SolveRequest(method="IPPi", target_power=0.8, zo=2.0, zi=1.0,
                     f=1.2)
    with pytest.raises(ValueError):
        SolveRequest(method="NPi", target_power=0.8, zo=2.0)


def test_futility_rule_validation():
    FutilityRule(method="PPi", boundary=0.1)
    with pytest.raises(ValueError):
        FutilityRule(method="CPi", boundary=0.3)
    with pytest.raises(ValueError):
        FutilityRule(method="IPPi", boundary=0.0)


def test_futility_decisions(by_study):
    from repower import derive
    # continued studies with known interim powers
    shah = derive(by_study["Shah"])
    ramirez = derive(by_study["Ramirez"])
    fixed = FixedDesign(zo=shah.zo, c=shah.c)
    state = InterimState(zi=shah.zi, f=shah.f)
    dec = futility_decision(fixed, state, FutilityRule("IPPi", 0.30), CFG)
    assert dec.stop and dec.power < 0.01
    fixed = FixedDesign(zo=ramirez.zo, c=ramirez.c)
    state = InterimState(zi=ramirez.zi, f=ramirez.f)
    dec = futility_decision(fixed, state, FutilityRule("IPPi", 0.30), CFG)
    assert not dec.stop
    assert dec.power == pytest.approx(0.614, abs=0.005)
    dec = futility_decision(fixed, state, FutilityRule("PPi", 0.30), CFG)
    assert dec.stop
    assert dec.power == pytest.approx(0.042, abs=0.005)
    # boundary comparison is strict
    dec_eq = futility_decision(fixed, state,
                               FutilityRule("PPi", dec.power), CFG)
    assert not dec_eq.stop


def test_c_lower_holds_on_c_stage1_axis():
    # IPPi is 0.975 at c = 10, so the bound itself is the answer
    req = SolveRequest(method="IPPi", target_power=0.8, zo=2.81, zi=1.2,
                       c_stage1=0.8, c_lower=10.0, config=CFG)
    res = solve_c(req)
    assert res.c == 10.0
    assert res.f == pytest.approx(0.08)
    assert res.power == pytest.approx(0.975, abs=1e-3)
    assert res.warning.startswith("every size down to the lower bound")
    # a bound below the first crossing leaves the answer where it was
    free = solve_c(SolveRequest(method="IPPi", target_power=0.8, zo=2.81,
                                zi=1.2, c_stage1=0.8, config=CFG))
    low = solve_c(SolveRequest(method="IPPi", target_power=0.8, zo=2.81,
                               zi=1.2, c_stage1=0.8, c_lower=1.0,
                               config=CFG))
    assert 1.0 < free.c < 10.0
    assert low.c == pytest.approx(free.c, rel=1e-10)


def test_request_refuses_infinite_c_stage1():
    # the solver evaluates the method table unchecked, so the request
    # itself must keep every scan point finite
    for k in (np.inf, np.nan, 0.0):
        with pytest.raises(ValueError, match="c_stage1 must be positive"):
            SolveRequest(method="IPPi", target_power=0.5, zo=2.0, zi=1.0,
                         c_stage1=k)


@pytest.mark.parametrize("c_lower", [-1.0, np.inf, np.nan, None, [1.0, 2.0]])
def test_request_names_a_bad_c_lower(c_lower):
    with pytest.raises(ValueError,
                       match="^c_lower must be finite and nonnegative$"):
        SolveRequest(method="CP", target_power=0.5, zo=2.0, c_lower=c_lower)
