"""Simulation oracle: determinism, scale invariance, closed-form match,
the same counts from concurrent callers, and the same counts when every
draw's normals are computed.  Hypothesis runs derandomized, so every run
draws the same cases."""
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repower import (METHODS_FIXED, METHODS_INTERIM, DesignConfig, SimSpec,
                     _methods, closed_form, derive, design_power,
                     interim_power, mc, p_to_z, simulate_power,
                     std_normal_cdf)

CFG = DesignConfig(alpha=0.05)
PAIRS = DesignConfig(alpha=0.01, shrinkage=0.25, both_tails=True)


def test_seeded_determinism():
    spec = SimSpec(method="PP", zo=2.3, c=1.5, n_sims=20_000, seed=123)
    a = simulate_power(spec)
    b = simulate_power(spec)
    assert a.estimate == b.estimate
    assert a.n_success == b.n_success
    c = simulate_power(SimSpec(method="PP", zo=2.3, c=1.5, n_sims=20_000,
                               seed=124))
    assert c.n_success != a.n_success


def test_batch_boundaries_do_not_matter():
    # n_sims straddling the internal batch size still gives a coherent
    # binomial count and the documented standard error
    spec = SimSpec(method="CP", zo=2.0, c=1.0, n_sims=66_000, seed=9)
    res = simulate_power(spec)
    assert res.n_sims == 66_000
    assert 0 < res.n_success < 66_000
    p = res.n_success / res.n_sims
    assert res.estimate == pytest.approx(p, rel=1e-15)
    assert res.std_err == pytest.approx(np.sqrt(p * (1 - p) / 66_000),
                                        rel=1e-12)


def test_scale_invariance_of_internal_units():
    small = simulate_power(SimSpec(method="IPPi", zo=2.5, zi=0.8, c=3.0,
                                   f=0.4, n_sims=100_000, seed=21,
                                   n_o=100.0))
    large = simulate_power(SimSpec(method="IPPi", zo=2.5, zi=0.8, c=3.0,
                                   f=0.4, n_sims=100_000, seed=21,
                                   n_o=10_000.0))
    tol = 4.0 * (small.std_err + large.std_err)
    assert abs(small.estimate - large.estimate) <= tol


@pytest.mark.parametrize("spec", [
    SimSpec(method="CP", zo=2.0, c=4.0, seed=31),
    SimSpec(method="PP", zo=2.0, c=2.0, seed=32),
    SimSpec(method="FBP", zo=4.465, c=0.6, seed=33),
    SimSpec(method="CBP", zo=2.5, c=5.0, seed=34),
    SimSpec(method="CPi", zo=2.81, zi=1.2, c=2.0, f=0.4, seed=35),
    SimSpec(method="IPPi", zo=2.81, zi=-0.5, c=4.0, f=0.3, seed=36),
    SimSpec(method="PPi", zi=1.1, c=6.0, f=0.45, seed=37),
])
def test_simulation_matches_closed_form(spec):
    exact = closed_form(spec)
    res = simulate_power(spec)
    assert abs(res.estimate - exact) <= 5.0 * max(res.std_err, 1e-4)


def test_closed_form_dispatch():
    spec = SimSpec(method="CP", zo=2.0, c=4.0)
    assert closed_form(spec) == design_power("CP", 2.0, 4.0, CFG)
    spec = SimSpec(method="PPi", zi=1.1, c=6.0, f=0.45)
    assert closed_form(spec) == interim_power("PPi", None, 1.1, 6.0,
                                              0.45, CFG)


def test_trivial_half_power_point():
    spec = SimSpec(method="CP", zo=p_to_z(0.05, +1), c=1.0,
                   n_sims=100_000, seed=41)
    res = simulate_power(spec)
    assert res.estimate == pytest.approx(0.500, abs=0.008)


def test_pp_intersection_point():
    spec = SimSpec(method="PP", zo=p_to_z(0.046, +1), c=0.96,
                   n_sims=100_000, seed=42)
    res = simulate_power(spec)
    assert res.estimate == pytest.approx(0.500, abs=0.008)


def test_ppi_near_zero_row(by_study):
    d = derive(by_study["Kidd"])
    spec = SimSpec(method="PPi", zi=d.zi, c=d.c, f=d.f, n_sims=100_000,
                   seed=43)
    res = simulate_power(spec)
    assert res.estimate == pytest.approx(0.001, abs=0.001)
    assert abs(res.estimate - closed_form(spec)) <= 5 * max(res.std_err,
                                                            1e-4)


def test_two_tail_excess_is_bounded_by_mirror_term():
    zo, c = 0.5, 1.0
    cfg2 = DesignConfig(alpha=0.05, both_tails=True)
    spec = SimSpec(method="CP", zo=zo, c=c, n_sims=200_000, seed=44,
                   config=cfg2)
    res = simulate_power(spec)
    one_tail = design_power("CP", zo, c, CFG)
    mirror = float(std_normal_cdf(-np.sqrt(c) * zo + CFG.z_alpha))
    excess = res.estimate - one_tail
    assert excess <= mirror + 5 * res.std_err
    assert excess >= -5 * res.std_err
    # and the simulation still matches its own two-tail closed form
    assert abs(res.estimate - closed_form(spec)) <= 5 * res.std_err


def test_spec_validation():
    with pytest.raises(ValueError):
        SimSpec(method="CP", zo=2.0, c=1.0, n_sims=999)
    with pytest.raises(ValueError):
        SimSpec(method="CP", zo=2.0, c=1.0, seed=-1)
    with pytest.raises(ValueError):
        SimSpec(method="CP", c=1.0)
    with pytest.raises(ValueError):
        SimSpec(method="CPi", zo=2.0, c=1.0, f=0.5)
    with pytest.raises(ValueError):
        SimSpec(method="CPi", zo=2.0, zi=1.0, c=1.0)
    with pytest.raises(ValueError):
        SimSpec(method="PPi", zi=1.0, c=1.0, f=0.5, n_o=0.0)
    with pytest.raises(ValueError):
        SimSpec(method="QQ", zo=2.0, c=1.0)


def test_numpy_integers_accepted():
    spec = SimSpec(method="CP", c=1.0, zo=2.0, n_sims=np.int64(1000),
                   seed=np.int64(1))
    assert type(spec.n_sims) is int and type(spec.seed) is int
    plain = SimSpec(method="CP", c=1.0, zo=2.0, n_sims=1000, seed=1)
    assert simulate_power(spec) == simulate_power(plain)


# the random stream is part of the interface: a seed always gives the
# same draws, so these exact counts must never move
PINNED = [
    (SimSpec(method="CP", zo=2.0, c=4.0, seed=31), 97953),
    (SimSpec(method="PP", zo=2.0, c=2.0, seed=32), 69424),
    (SimSpec(method="FBP", zo=4.465, c=0.6, seed=33), 99922),
    (SimSpec(method="CBP", zo=2.5, c=5.0, seed=34), 99930),
    (SimSpec(method="CPi", zo=2.81, zi=1.2, c=2.0, f=0.4, seed=35), 93644),
    (SimSpec(method="IPPi", zo=2.81, zi=-0.5, c=4.0, f=0.3, seed=36),
     26278),
    (SimSpec(method="PPi", zi=1.1, c=6.0, f=0.45, seed=37), 38807),
    (SimSpec(method="FBP", zo=1.5, c=2.0, seed=38,
             config=DesignConfig(both_tails=True)), 32974),
    # every (design prior, analysis prior) pair with shrinkage, a
    # stricter level and both tails, then a small nominal original
    (SimSpec(method="CP", zo=2.0, c=4.0, seed=41, config=PAIRS), 66369),
    (SimSpec(method="PP", zo=2.0, c=2.0, seed=42, config=PAIRS), 40074),
    (SimSpec(method="FBP", zo=4.465, c=0.6, seed=43, config=PAIRS), 59144),
    (SimSpec(method="CBP", zo=-2.5, c=5.0, seed=44, config=PAIRS), 72365),
    (SimSpec(method="CPi", zo=2.81, zi=1.2, c=2.0, f=0.4, seed=45,
             config=PAIRS), 48457),
    (SimSpec(method="IPPi", zo=2.81, zi=-0.5, c=4.0, f=0.3, seed=46,
             config=PAIRS), 7331),
    (SimSpec(method="PPi", zi=-1.1, c=6.0, f=0.45, seed=47, config=PAIRS),
     19737),
    (SimSpec(method="IPPi", zo=2.2, zi=0.8, c=1.5, f=0.25, seed=48,
             n_o=37.5), 57784),
    # five batches, the last one short, and a two-normal spec with both
    # tails at verify's size
    (SimSpec(method="CBP", zo=2.5, c=3.0, n_sims=300_001, seed=49), 293942),
    (SimSpec(method="FBP", zo=-2.2, c=1.7, n_sims=1 << 17, seed=50,
             config=DesignConfig(alpha=0.01, shrinkage=0.25,
                                 both_tails=True)), 19736),
]


@pytest.mark.parametrize("spec, n_success", PINNED)
def test_success_counts_are_pinned(spec, n_success):
    assert simulate_power(spec).n_success == n_success


def test_pinned_counts_from_four_caller_threads_at_once():
    # four calls at a time, each caller thread through the specs in its
    # own order
    barrier = threading.Barrier(4)

    def counts(shift):
        barrier.wait()
        got = {}
        for k in range(shift, shift + len(PINNED)):
            index = k % len(PINNED)
            got[index] = simulate_power(PINNED[index][0]).n_success
        return [got[index] for index in range(len(PINNED))]
    with ThreadPoolExecutor(4) as pool:
        runs = list(pool.map(counts, (0, 5, 10, 15)))
    assert runs == [[n for _, n in PINNED]] * 4


def _normals_per_draw(spec):
    return 1 if _methods.METHODS[spec.method].priors[0] == "point" else 2


def _redone(spec, monkeypatch):
    """The spec's count, and how many draws ndtri turned into normals."""
    simulate_power(PINNED[0][0])        # the bins' edges are built
    real, seen = scipy.special.ndtri, []

    def ndtri(z, out=None):
        seen.append(z.size)
        return real(z, out=out)
    with monkeypatch.context() as patch:
        patch.setattr(scipy.special, "ndtri", ndtri)
        count = simulate_power(spec).n_success
    return count, sum(seen)


@pytest.mark.parametrize("spec, n_success", PINNED)
def test_pinned_counts_when_every_draw_takes_the_exact_path(
        spec, n_success, monkeypatch):
    # an infinite margin leaves no draw to its bin's bounds
    monkeypatch.setattr(mc, "_MARGIN", math.inf)
    count, normals = _redone(spec, monkeypatch)
    assert count == n_success
    assert normals == _normals_per_draw(spec) * spec.n_sims


@pytest.mark.parametrize("spec, n_success", PINNED)
def test_the_bins_judge_nearly_every_draw(spec, n_success, monkeypatch):
    count, normals = _redone(spec, monkeypatch)
    assert count == n_success
    assert normals <= _normals_per_draw(spec) * spec.n_sims / 200


def _count(spec):
    try:
        return simulate_power(spec).n_success
    except (ArithmeticError, TypeError, ValueError) as exc:
        return type(exc)


# most draws at sizes and z-statistics whose power lies inside (0, 1),
# the others across every size and z-statistic SimSpec accepts
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(method=st.sampled_from(METHODS_FIXED + METHODS_INTERIM),
       c=st.floats(0.05, 20.0) | st.floats(0.05, 20.0)
       | st.floats(sys.float_info.min, sys.float_info.max),
       n_o=st.floats(1e-3, 1e6) | st.floats(5e-324, sys.float_info.max),
       zo=st.floats(-4.0, 4.0) | st.floats(-4.0, 4.0) | st.floats(-37.0, 37.0),
       zi=st.floats(-4.0, 4.0) | st.floats(-4.0, 4.0) | st.floats(-37.0, 37.0),
       f=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       config=st.builds(DesignConfig, alpha=st.floats(1e-6, 0.5),
                        shrinkage=st.floats(0.0, 0.9),
                        both_tails=st.booleans()),
       n_sims=st.integers(1000, 70_000), seed=st.integers(0, 2 ** 32))
# past the floats, where the margin overflows and every draw is redone
@example(method="PP", c=1.2630262171327347e+294, n_o=1.2978247936735604e+23,
         zo=7.0, zi=0.0, f=0.5, config=DesignConfig(alpha=0.008),
         n_sims=3000, seed=841)
def test_the_bins_judge_as_the_exact_path(method, c, n_o, zo, zi, f,
                                          config, n_sims, seed):
    entry = _methods.METHODS[method]
    try:
        spec = SimSpec(method, c, zo=zo if "zo" in entry.needs else None,
                       zi=zi if entry.interim else None,
                       f=f if entry.interim else None, n_sims=n_sims,
                       seed=seed, n_o=n_o, config=config)
    except ValueError:
        return
    # sizes past the floats' range make numpy warn on the exact path too
    with np.errstate(all="ignore"):
        filtered = _count(spec)
        with mock.patch.object(mc, "_MARGIN", math.inf):
            assert _count(spec) == filtered


def test_a_statistic_past_the_floats_is_redone():
    # c * n_o overflows, so the margin does too: every draw takes the
    # exact path, which overflows to a success without a numpy warning
    spec = SimSpec(method="PP", c=1.2630262171327347e+294,
                   n_o=1.2978247936735604e+23, zo=7.000962019735923,
                   n_sims=3000, seed=841,
                   config=DesignConfig(alpha=0.008174561034346984,
                                       shrinkage=0.5))
    assert simulate_power(spec).n_success == 3000
    # c * n_o underflows to 0: the noise's scale is 0, the exact path
    # divides by it (as numpy warns) and every statistic is NaN
    spec = SimSpec(method="CP", c=1e-300, zo=2.0, n_o=1e-300, n_sims=1000)
    with np.errstate(all="ignore"):
        assert simulate_power(spec).n_success == 0
