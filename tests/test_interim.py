"""Interim power methods, their reductions, limits, and orderings.

Reference numbers computed with mpmath at 30 digits by assembling each
Phi argument from the published weight expressions by hand.
"""
import numpy as np
import pytest

from repower import (DesignConfig, FixedDesign, InfeasibleTarget,
                     InterimState, SolveRequest, cpi, design_power,
                     interim_ordering_holds, interim_power, ippi,
                     ippi_limit, p_to_z, ppi, ppi_minimum,
                     remaining_n_curve, solve_c, std_normal_cdf,
                     weight_dominance_threshold)

CFG = DesignConfig(alpha=0.05)
Z_ALPHA = -1.95996398454005424


def test_frozen_values():
    # mpmath at zo=2.81, zi=1.2, c=2, f=0.4
    assert interim_power("CPi", 2.81, 1.2, 2.0, 0.4, CFG) \
        == pytest.approx(0.936705740517279, rel=1e-12)
    assert interim_power("IPPi", 2.81, 1.2, 2.0, 0.4, CFG) \
        == pytest.approx(0.735519803889674, rel=1e-12)
    assert interim_power("PPi", None, 1.2, 2.0, 0.4, CFG) \
        == pytest.approx(0.479618713200339, rel=1e-12)


def test_state_validation():
    InterimState(zi=0.0, f=0.0)
    with pytest.raises(ValueError):
        InterimState(zi=1.0, f=1.0)
    with pytest.raises(ValueError):
        InterimState(zi=1.0, f=-0.1)
    with pytest.raises(ValueError):
        InterimState(zi=np.nan, f=0.5)


def test_domain_errors():
    with pytest.raises(ValueError):
        interim_power("CPi", 2.0, 1.0, 0.0, 0.5, CFG)
    with pytest.raises(ValueError):
        interim_power("CPi", 2.0, 1.0, 2.0, 1.0, CFG)
    with pytest.raises(ValueError):
        interim_power("PPi", None, 1.0, 2.0, 0.0, CFG)
    with pytest.raises(ValueError):
        interim_power("XXi", 2.0, 1.0, 2.0, 0.5, CFG)


def test_reductions_at_f_zero():
    rng = np.random.default_rng(3)
    for _ in range(100):
        zo = float(rng.uniform(-1, 4))
        zi = float(rng.uniform(-3, 3))
        c = float(rng.uniform(0.05, 20))
        a = interim_power("CPi", zo, zi, c, 0.0, CFG)
        assert a == pytest.approx(design_power("CP", zo, c, CFG),
                                  abs=1e-12)
        b = interim_power("IPPi", zo, zi, c, 0.0, CFG)
        assert b == pytest.approx(design_power("PP", zo, c, CFG),
                                  abs=1e-12)


def test_ppi_is_fbp_in_disguise():
    # same weight structure with the plain-alpha quantile; choosing
    # alpha2 = sqrt(2 alpha) makes FBP's pooled quantile equal z_alpha
    alpha2 = float(np.sqrt(2 * CFG.alpha))
    cfg2 = DesignConfig(alpha=alpha2)
    assert cfg2.z_alpha_tilde == pytest.approx(CFG.z_alpha, abs=1e-12)
    rng = np.random.default_rng(4)
    for _ in range(100):
        zi = float(rng.uniform(-3, 3))
        f = float(rng.uniform(0.02, 0.98))
        direct = interim_power("PPi", None, zi, 1.0, f, CFG)
        via_fbp = design_power("FBP", zi, (1 - f) / f, cfg2)
        assert direct == pytest.approx(via_fbp, abs=1e-12)


def test_ppi_ignores_c_and_zo():
    a = interim_power("PPi", None, 0.8, 1.0, 0.3, CFG)
    b = interim_power("PPi", 5.0, 0.8, 99.0, 0.3, CFG)
    assert a == b


def test_vectorized_over_c_and_f():
    c = np.array([1.0, 2.0, 4.0])
    vec = interim_power("IPPi", 2.5, 0.7, c, 0.3, CFG)
    assert vec.shape == (3,)
    for i, ci in enumerate(c):
        assert vec[i] == interim_power("IPPi", 2.5, 0.7, float(ci), 0.3,
                                       CFG)
    f = np.array([0.2, 0.5, 0.8])
    vec = interim_power("CPi", 2.5, 0.7, 3.0, f, CFG)
    assert vec.shape == (3,)
    assert np.all(np.isfinite(vec))


def test_shrinkage_hits_zo_never_zi():
    zo, zi, c, f = 3.0, 1.1, 2.5, 0.35
    cfg = DesignConfig(alpha=0.05, shrinkage=0.4)
    shr = interim_power("CPi", zo, zi, c, f, cfg)
    assert shr == pytest.approx(
        interim_power("CPi", 0.6 * zo, zi, c, f, CFG), rel=1e-14)
    # a fully shrunken original leaves only interim evidence and the
    # quantile; the result must still move with zi
    cfg99 = DesignConfig(alpha=0.05, shrinkage=0.999999999999)
    lo = interim_power("CPi", zo, -1.0, c, f, cfg99)
    hi = interim_power("CPi", zo, 1.0, c, f, cfg99)
    assert hi > lo
    assert hi == pytest.approx(
        interim_power("CPi", 0.0, 1.0, c, f, CFG), abs=1e-9)


def test_suprema_and_results():
    fixed = FixedDesign(zo=2.81, c=2.0)
    state = InterimState(zi=1.2, f=0.4)
    r = cpi(fixed, state, CFG)
    assert r.supremum == 1.0 and r.feasible_100
    r = ippi(fixed, state, CFG)
    limit = ippi_limit(2.81, 1.2, 0.8, CFG)
    assert r.supremum == pytest.approx(limit, rel=1e-6)
    assert not r.feasible_100
    r = ppi(fixed, state, CFG)
    assert r.supremum == pytest.approx(float(std_normal_cdf(1.2)),
                                       rel=1e-12)
    # a significant interim makes every method saturate
    sig = InterimState(zi=2.5, f=0.4)
    assert cpi(fixed, sig, CFG).supremum == 1.0
    assert ippi(fixed, sig, CFG).supremum == 1.0
    assert ppi(fixed, sig, CFG).supremum == 1.0


def test_ippi_limit_matches_far_curve():
    # mpmath: Phi(sqrt(1/1.75)*zo + sqrt(0.75/1.75)*zi)
    zo = p_to_z(0.005, +1)
    zi = p_to_z(0.5, +1)
    limit = ippi_limit(zo, zi, 0.75, CFG)
    assert limit == pytest.approx(0.994818495825396, rel=1e-12)
    far = remaining_n_curve(zo, zi, 0.75, np.array([1e8]), CFG)
    assert abs(float(far.ippi[0]) - limit) <= 1e-4
    assert abs(float(far.ppi[0]) - 0.75) <= 1e-4


def test_ppi_minimum():
    zi = p_to_z(0.04, +1)
    assert zi == pytest.approx(2.05374891063182, abs=1e-9)
    mn = ppi_minimum(zi, CFG)
    assert mn == pytest.approx(0.730238830002898, rel=1e-9)
    f = np.linspace(1e-6, 1 - 1e-6, 400_000)
    vals = interim_power("PPi", None, zi, 1.0, f, CFG)
    assert float(np.min(vals)) == pytest.approx(mn, abs=1e-6)
    # no interior minimum without interim significance
    with pytest.raises(ValueError):
        ppi_minimum(1.0, CFG)


def test_weight_dominance_thresholds():
    assert weight_dominance_threshold("CPi", 2.0) == pytest.approx(
        0.5, abs=1e-12)
    assert weight_dominance_threshold("IPPi", 1.0) == pytest.approx(
        3.0 - 2.0 * np.sqrt(2.0), rel=1e-12)
    with pytest.raises(ValueError):
        weight_dominance_threshold("CPi", 0.0)
    with pytest.raises(ValueError):
        weight_dominance_threshold("PPi", 1.0)


@pytest.mark.parametrize("c", [0.3, 1.0, 2.0, 7.5])
def test_weights_equal_at_threshold(c):
    # coefficients of zo and zi written out by hand from the formulas
    f = weight_dominance_threshold("CPi", c)
    wo = np.sqrt(c * (1 - f))
    wi = np.sqrt(f / (1 - f))
    assert wo == pytest.approx(wi, abs=1e-9)
    eps = 1e-4
    assert np.sqrt(c * (1 - (f - eps))) > np.sqrt((f - eps) / (1 - (f - eps)))
    assert np.sqrt(c * (1 - (f + eps))) < np.sqrt((f + eps) / (1 - (f + eps)))
    f = weight_dominance_threshold("IPPi", c)
    wo = np.sqrt(c * (1 - f) / ((c * f + 1) * (1 + c)))
    wi = np.sqrt(f * (1 + c) / ((1 - f) * (c * f + 1)))
    assert wo == pytest.approx(wi, abs=1e-9)


def test_ordering_classifier():
    fixed = FixedDesign(zo=2.5, c=3.0)
    assert interim_ordering_holds(fixed, InterimState(zi=0.5, f=0.4),
                                  CFG) == "ordered"
    assert interim_ordering_holds(fixed, InterimState(zi=0.5, f=0.1),
                                  CFG) == "not_guaranteed"
    assert interim_ordering_holds(FixedDesign(zo=2.5, c=1.5),
                                  InterimState(zi=0.5, f=0.4),
                                  CFG) == "not_guaranteed"
    assert interim_ordering_holds(fixed, InterimState(zi=2.2, f=0.4),
                                  CFG) == "not_guaranteed"


def test_remaining_n_curve_branches():
    zo = p_to_z(0.005, +1)
    nj = np.geomspace(1e-6, 1e6, 400)
    # significant interim: starts at 1, PPi floor respected
    zi = p_to_z(0.04, +1)
    curve = remaining_n_curve(zo, zi, 0.75, nj, CFG)
    assert curve.cpi[0] == pytest.approx(1.0, abs=1e-9)
    assert curve.ippi[0] == pytest.approx(1.0, abs=1e-9)
    assert curve.ppi[0] == pytest.approx(1.0, abs=1e-9)
    assert float(np.min(curve.ppi)) >= 0.73 - 1e-3
    # equivocal interim: PPi strictly increasing toward 0.75 (checked
    # above the float-underflow region near nj = 0)
    zi = p_to_z(0.5, +1)
    curve = remaining_n_curve(zo, zi, 0.75, np.geomspace(0.05, 1e6, 400),
                              CFG)
    assert np.all(np.diff(curve.ppi) > 0.0)
    assert float(curve.ppi[-1]) < 0.75
    assert float(curve.cpi[-1]) == pytest.approx(1.0, abs=1e-9)


def test_both_tails_mirror_term():
    zo, zi, c, f = 2.0, -0.5, 3.0, 0.3
    one = interim_power("CPi", zo, zi, c, f, CFG)
    both = interim_power("CPi", zo, zi, c, f,
                         DesignConfig(both_tails=True))
    t = (np.sqrt(c * (1 - f)) * zo + np.sqrt(f / (1 - f)) * zi)
    z = np.sqrt(1 / (1 - f)) * Z_ALPHA
    mirror = float(std_normal_cdf(-t + z))
    assert both == pytest.approx(one + mirror, rel=1e-12)


def test_nan_zi_is_named():
    with pytest.raises(ValueError, match="zi"):
        interim_power("CPi", 2.0, np.nan, 1.0, 0.5)
    with pytest.raises(ValueError, match="zo"):
        interim_power("IPPi", np.nan, 1.0, 1.0, 0.5)


def test_c_stage1_supremum_at_large_interim_size():
    # ni / no = c * f >= 2**14: the remaining-size search must still
    # step c above ni / no
    r = ippi(FixedDesign(2.5, 1e5), InterimState(1.0, 0.5), CFG)
    assert r.power <= r.supremum < 1.0 and not r.feasible_100
    assert r.supremum == pytest.approx(ippi_limit(2.5, 1.0, 5e4, CFG),
                                       rel=1e-6)
    r = cpi(FixedDesign(-1.0, 1e5), InterimState(0.5, 0.5), CFG)
    k = 5e4
    c = k + np.geomspace(1e-6, 1e12, 20001)
    dense = interim_power("CPi", -1.0, 0.5, c, k / c, CFG).max()
    assert r.power <= r.supremum and not r.feasible_100
    assert r.supremum == pytest.approx(dense, rel=1e-6)


@pytest.mark.parametrize("zo, zi, expected", [
    (-0.5, 0.8, 0.0012153716522770157437),
    (-1.0, -1.0, 9.5219304661712996419e-10),
    (-2.0, 0.8, 2.7578164881342900431e-7),
])
def test_cpi_interior_maximum_over_remaining_size(zo, zi, expected):
    # ni / no = 5 fixed; mpmath at 40 digits, golden section on
    # log(nj / no) of the CPi Phi expression at c = 5 + nj / no
    r = cpi(FixedDesign(zo, 10.0), InterimState(zi, 0.5), CFG)
    assert r.supremum == pytest.approx(expected, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("zo, zi, f, expected", [
    (2.0, 1.0, 0.75, 0.13100601068911588736),
    (-1.5, -1.0, 0.5, 0.39090897111824145234),
    (2.0, 1.0, 0.25, 0.73825439451407977512),
])
def test_ippi_both_tails_interior_maximum_at_fixed_f(zo, zi, f, expected):
    # the peak over c lies above the c -> inf limit; mpmath at 40
    # digits, golden section on log c of both IPPi Phi terms
    config = DesignConfig(alpha=0.05, both_tails=True)
    with pytest.raises(InfeasibleTarget) as exc:
        solve_c(SolveRequest("IPPi", 0.99, zo=zo, zi=zi, f=f,
                             config=config))
    assert exc.value.supremum == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_c_stage1_curve_at_large_interim_size_is_exact():
    # mpmath at 50 digits with the double z_alpha; at ni / no = 1e5 a
    # remaining size rebuilt as 1 - ni / (ni + nj) would carry only
    # the bits of nj / no that survive the sum
    curve = remaining_n_curve(2.0, 1.9525, 1e5, [1.0], CFG)
    assert curve.cpi[0] == pytest.approx(0.35814628244470256, rel=1e-13,
                                         abs=0.0)


def test_c_stage1_curve_below_one_ulp_of_the_interim_size():
    # 1e8 + 1e-9 rounds to 1e8: no total size c and fraction f < 1
    # describe this remainder, yet the stage sizes do.  A nonsignificant
    # interim this large fails surely, a significant one succeeds.
    nj = np.array([1e-9, 1.0])
    for zi, expected in ((1.0, 0.0), (2.5, 1.0)):
        curve = remaining_n_curve(2.0, zi, 1e8, nj, CFG)
        for vals in (curve.cpi, curve.ippi, curve.ppi):
            np.testing.assert_array_equal(vals, expected)


@pytest.mark.parametrize("method, c, expected", [
    ("CPi", 1e-9, 9.9999999800000006728e-10),
    ("IPPi", 1e-9, 9.9999999600000007828e-10),
    ("IPPi", 1e9, 9.99999996000000016e-10),
])
def test_weight_dominance_threshold_at_extreme_sizes(method, c, expected):
    # mpmath at 50 digits; the thresholds are small differences of
    # large terms unless written as ratios
    assert weight_dominance_threshold(method, c) == pytest.approx(
        expected, rel=1e-14, abs=0.0)


def test_ppi_minimum_next_to_the_significance_threshold():
    # mpmath at 50 digits with the double z_alpha: Phi(sqrt(zi^2 - za^2))
    zi = -CFG.z_alpha + 1e-9
    assert ppi_minimum(zi, CFG) == pytest.approx(0.50002497750915938,
                                                 rel=1e-14, abs=0.0)
