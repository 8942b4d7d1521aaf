"""Design-stage power methods against independently derived values.

Reference numbers computed with mpmath at 30 digits by evaluating the
Phi arguments assembled by hand from the method definitions.
"""
import dataclasses

import numpy as np
import pytest

from repower import (DesignConfig, FixedDesign, cbp, conditional_power,
                     cp, cp_pp_intersection, design_power, fbp,
                     fbp_cbp_intersection, fbp_minimum, p_to_z, pp,
                     std_normal_cdf)

CFG = DesignConfig(alpha=0.05)
Z_ALPHA = -1.95996398454005424
Z_ALPHA_TILDE = -3.22721842596315645


def test_config_derived_quantities():
    assert CFG.alpha_tilde == 0.05 * 0.05 / 2.0
    assert CFG.alpha_tilde == pytest.approx(0.00125, rel=1e-15)
    assert CFG.z_alpha == pytest.approx(Z_ALPHA, abs=1e-9)
    assert CFG.z_alpha_tilde == pytest.approx(Z_ALPHA_TILDE, abs=1e-9)
    assert DesignConfig(alpha=0.1).alpha_tilde == 0.1 * 0.1 / 2.0


def test_config_validation():
    with pytest.raises(ValueError):
        DesignConfig(alpha=0.0)
    with pytest.raises(ValueError):
        DesignConfig(shrinkage=1.0)
    with pytest.raises(ValueError):
        FixedDesign(zo=2.0, c=0.0)
    with pytest.raises(ValueError):
        FixedDesign(zo=np.inf, c=1.0)


def test_cp_frozen_values():
    # argument collapses to Phi(0) when zo = -z_alpha and c = 1
    assert design_power("CP", p_to_z(0.05, +1), 1.0, CFG) \
        == pytest.approx(0.5, abs=1e-12)
    # mpmath: Phi(2*sqrt(4) + z_alpha)
    assert design_power("CP", 2.0, 4.0, CFG) == pytest.approx(
        0.979326630641108, rel=1e-12)
    # near-50% at the published crossing inputs
    assert design_power("CP", 2.8070, 0.48, CFG) == pytest.approx(
        0.5, abs=0.01)


def test_pp_frozen_values():
    # mpmath: Phi(sqrt(2/3)*2 + sqrt(1/3)*z_alpha)
    assert design_power("PP", 2.0, 2.0, CFG) == pytest.approx(
        0.691957793325000, rel=1e-12)
    assert design_power("PP", p_to_z(0.046, +1), 0.96, CFG) \
        == pytest.approx(0.5, abs=0.01)
    # asymptote 1 - po/2
    assert design_power("PP", p_to_z(0.05, +1), 1e6, CFG) \
        == pytest.approx(0.975, abs=1e-3)


def test_fbp_frozen_values():
    # mpmath: Phi(sqrt(1.6/0.6)*zo + sqrt(1/0.6)*z_alpha_tilde)
    assert design_power("FBP", 4.46518391558482, 0.6, CFG) \
        == pytest.approx(0.999111862014790, rel=1e-12)
    # po = alpha_tilde exactly: c -> 0 limit is 1/2
    assert design_power("FBP", -Z_ALPHA_TILDE, 1e-12, CFG) \
        == pytest.approx(0.5, abs=1e-5)


def test_cbp_frozen_values():
    # mpmath: Phi(6/sqrt(5)*2.5 + sqrt(6/5)*z_alpha_tilde)
    assert design_power("CBP", 2.5, 5.0, CFG) == pytest.approx(
        0.999245541944134, rel=1e-12)
    # substitution zo = -z_alpha_tilde, c = 1: Phi((2 - sqrt(2))*zo)
    zo = -Z_ALPHA_TILDE
    assert design_power("CBP", zo, 1.0, CFG) == pytest.approx(
        float(std_normal_cdf((2.0 - np.sqrt(2.0)) * zo)), rel=1e-12)


def test_vectorized_over_c():
    c = np.array([0.5, 1.0, 2.0])
    for method in ("CP", "PP", "FBP", "CBP"):
        vec = design_power(method, 2.3, c, CFG)
        assert vec.shape == (3,)
        for i, ci in enumerate(c):
            assert vec[i] == design_power(method, 2.3, float(ci), CFG)


def test_domain_errors():
    for method in ("CP", "PP", "FBP", "CBP"):
        with pytest.raises(ValueError):
            design_power(method, 2.0, 0.0, CFG)
        with pytest.raises(ValueError):
            design_power(method, 2.0, -1.0, CFG)
    with pytest.raises(ValueError):
        design_power("XX", 2.0, 1.0, CFG)


def test_result_suprema_and_feasibility():
    d = FixedDesign(zo=2.31, c=2.0)
    assert cp(d, CFG).supremum == 1.0
    assert cp(d, CFG).feasible_100
    r = pp(d, CFG)
    assert r.supremum == pytest.approx(float(std_normal_cdf(2.31)),
                                       rel=1e-12)
    assert not r.feasible_100
    assert fbp(d, CFG).supremum == pytest.approx(
        float(std_normal_cdf(2.31)), rel=1e-12)
    assert cbp(d, CFG).supremum == 1.0
    # negative original: CP can never exceed alpha/2
    weak = FixedDesign(zo=-1.0, c=2.0)
    assert cp(weak, CFG).supremum == pytest.approx(0.025, rel=1e-9)
    assert all(res.power <= res.supremum + 1e-12
               for res in (cp(d, CFG), pp(d, CFG), fbp(d, CFG),
                           cbp(d, CFG)))


def test_closer_to_half_property():
    rng = np.random.default_rng(42)
    zo = rng.uniform(0.1, 5.0, size=400)
    alpha = rng.uniform(0.005, 0.2, size=400)
    c = rng.uniform(0.05, 30.0, size=400)
    for z, a, ci in zip(zo, alpha, c):
        cfg = DesignConfig(alpha=float(a))
        vcp = design_power("CP", float(z), float(ci), cfg)
        vpp = design_power("PP", float(z), float(ci), cfg)
        vfbp = design_power("FBP", float(z), float(ci), cfg)
        vcbp = design_power("CBP", float(z), float(ci), cfg)
        assert (vcp >= vpp) == (vcp >= 0.5) or abs(vcp - 0.5) < 1e-9
        assert (vcbp >= vfbp) == (vcbp >= 0.5) or abs(vcbp - 0.5) < 1e-9


def test_pp_bounded_and_monotone_past_crossing():
    zo = p_to_z(0.01, +1)
    bound = float(std_normal_cdf(zo))
    cstar = cp_pp_intersection(zo, CFG)
    c = np.geomspace(cstar, 1e6, 200)
    vals = design_power("PP", zo, c, CFG)
    assert np.all(vals <= bound + 1e-12)
    assert np.all(np.diff(vals) > -1e-15)


def test_shrinkage_semantics():
    zo, c = 2.8, 1.7
    s = 0.25
    cfg = DesignConfig(alpha=0.05, shrinkage=s)
    for method in ("CP", "PP", "FBP", "CBP"):
        direct = design_power(method, (1 - s) * zo, c, CFG)
        assert design_power(method, zo, c, cfg) == pytest.approx(
            direct, rel=1e-14)
    # full shrinkage wipes out the design mean
    cfg99 = DesignConfig(alpha=0.05, shrinkage=0.999999999999)
    assert design_power("CP", zo, c, cfg99) == pytest.approx(0.025,
                                                             abs=1e-9)


def test_cp_pp_intersection():
    # c* = (z_alpha / zo)^2, mpmath cross-check
    assert cp_pp_intersection(p_to_z(0.046, +1), CFG) == pytest.approx(
        0.964804139925202, rel=1e-9)
    assert cp_pp_intersection(p_to_z(0.005, +1), CFG) == pytest.approx(
        0.487529509030172, rel=1e-9)
    assert cp_pp_intersection(-Z_ALPHA, CFG) == pytest.approx(1.0,
                                                              rel=1e-12)
    cstar = cp_pp_intersection(2.4, CFG)
    assert design_power("CP", 2.4, cstar, CFG) == pytest.approx(
        0.5, abs=1e-9)
    assert design_power("PP", 2.4, cstar, CFG) == pytest.approx(
        0.5, abs=1e-9)
    with pytest.raises(ValueError):
        cp_pp_intersection(0.0, CFG)
    with pytest.raises(ValueError):
        cp_pp_intersection(-2.0, CFG)


def test_fbp_cbp_intersection():
    res = fbp_cbp_intersection(2.0, CFG)
    assert res.feasible
    assert res.c == pytest.approx(1.603734692219028, abs=1e-3)
    assert design_power("FBP", 2.0, res.c, CFG) == pytest.approx(
        0.5, abs=1e-9)
    assert design_power("CBP", 2.0, res.c, CFG) == pytest.approx(
        0.5, abs=1e-9)
    # boundary: po = alpha_tilde gives c = 0, not a positive crossing
    assert fbp_cbp_intersection(-Z_ALPHA_TILDE, CFG).c \
        == pytest.approx(0.0, abs=1e-9)
    assert not fbp_cbp_intersection(-Z_ALPHA_TILDE, CFG).feasible
    assert not fbp_cbp_intersection(4.465, CFG).feasible
    with pytest.raises(ValueError):
        fbp_cbp_intersection(0.0, CFG)


def test_fbp_minimum_matches_grid():
    zo = 4.46518391558482      # two-sided p = 8e-6
    mn = fbp_minimum(zo, CFG)
    assert mn.power == pytest.approx(0.998985397531741, rel=1e-9)
    assert mn.c == pytest.approx(0.914352819776484, rel=1e-9)
    grid = np.geomspace(1e-4, 1e3, 300_000)
    vals = design_power("FBP", zo, grid, CFG)
    assert float(np.min(vals)) == pytest.approx(mn.power, abs=1e-6)
    assert design_power("FBP", zo, mn.c, CFG) == pytest.approx(
        mn.power, rel=1e-12)
    # not defined when the original is below the pooled level
    with pytest.raises(ValueError):
        fbp_minimum(2.0, CFG)


def test_both_tails_adds_mirror_term():
    zo, c = 1.2, 3.0
    one = design_power("CP", zo, c, CFG)
    both = design_power("CP", zo, c, DesignConfig(both_tails=True))
    mirror = float(std_normal_cdf(-np.sqrt(c) * zo + Z_ALPHA))
    assert both == pytest.approx(one + mirror, rel=1e-12)
    assert both > one


def test_wrapper_equals_functional_form():
    d = FixedDesign(zo=2.81, c=2.0)
    assert cp(d, CFG).power == design_power("CP", 2.81, 2.0, CFG)
    assert conditional_power(d, CFG).power == cp(d, CFG).power
    assert pp(d, CFG).method == "PP"


def test_nan_zo_is_named():
    with pytest.raises(ValueError, match="zo"):
        design_power("CP", np.nan, 1.0)


def test_cached_critical_values_stay_out_of_fields():
    cfg = DesignConfig(alpha=0.01, shrinkage=0.2)
    fresh = DesignConfig(alpha=0.01, shrinkage=0.2)
    assert cfg.z_alpha is cfg.z_alpha
    assert cfg.z_alpha_tilde == fresh.z_alpha_tilde
    assert cfg == fresh and hash(cfg) == hash(fresh)
    assert repr(cfg) == repr(fresh)
    assert dataclasses.asdict(cfg) == {"alpha": 0.01, "shrinkage": 0.2,
                                       "both_tails": False}
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.alpha = 0.05


def test_numeric_supremum_in_the_lower_tail():
    # CBP with zd < 0 peaks inside (0, inf); mpmath at 40 digits, golden
    # section on log c of Phi((c+1)/sqrt(c)*zd + sqrt((c+1)/c)*z_alpha_tilde)
    r = cbp(FixedDesign(-2.5797003340358002, 1.0), DesignConfig(alpha=0.1))
    assert r.supremum == pytest.approx(3.3655082311276734e-19, rel=1e-13,
                                       abs=0.0)
    assert not r.feasible_100


def test_pooled_threshold_helpers_next_to_the_threshold():
    # mpmath at 50 digits with the double z_alpha_tilde; zd^2 - zat^2
    # cancels unless formed as (zd + zat)(zd - zat)
    zat = CFG.z_alpha_tilde
    mn = fbp_minimum(-zat + 1e-9, CFG)
    assert mn.c == pytest.approx(6.1972878863745042e-10, rel=1e-14, abs=0.0)
    assert mn.power == pytest.approx(0.50003205082858216, rel=1e-14,
                                     abs=0.0)
    cross = fbp_cbp_intersection(-zat - 1e-9, CFG)
    assert cross.c == pytest.approx(6.1972878882948231e-10, rel=1e-14,
                                    abs=0.0)
