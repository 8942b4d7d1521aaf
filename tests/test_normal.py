"""Normal primitives against high-precision reference values.

Reference values computed with mpmath at 30 significant digits:
Phi(x) = erfc(-x/sqrt(2))/2, quantile via erfinv.
"""
import math

import numpy as np
import pytest

from repower import (fisher_z, fisher_z_inv, p_to_z, std_normal_cdf,
                     std_normal_pdf, std_normal_quantile,
                     weight_dominance_threshold, z_to_p)

# (x, Phi(x)) pairs, mpmath oracle
CDF_TABLE = [
    (-8.0, 6.22096057427178412e-16),
    (-3.123, 8.95088739656821300e-4),
    (-1.959964, 0.0249999990964424043),
    (-1.0, 0.158655253931457051),
    (-0.5, 0.308537538725986896),
    (0.0, 0.5),
    (0.3, 0.617911422188952637),
    (1.0, 0.841344746068542949),
    (2.71, 0.996635839593330807),
    (3.0, 0.998650101968369905),
    (7.5, 0.999999999999968091),
]


@pytest.mark.parametrize("x,expected", CDF_TABLE)
def test_cdf_reference_values(x, expected):
    assert std_normal_cdf(x) == pytest.approx(expected, rel=1e-12,
                                              abs=1e-15)


def test_cdf_symmetry_and_monotonicity():
    rng = np.random.default_rng(5)
    x = rng.uniform(-10, 10, size=100_000)
    p = std_normal_cdf(x)
    assert np.all(np.abs(p + std_normal_cdf(-x) - 1.0) <= 1e-14)
    order = np.argsort(x)
    assert np.all(np.diff(p[order]) >= 0.0)


def test_quantile_reference_values():
    assert std_normal_quantile(0.5) == 0.0
    assert std_normal_quantile(0.025) == pytest.approx(
        -1.95996398454005424, abs=1e-9)
    assert std_normal_quantile(0.000625) == pytest.approx(
        -3.22721842596315645, abs=1e-9)
    assert std_normal_quantile(0.975) == pytest.approx(
        1.95996398454005424, abs=1e-9)


# values of the package's own AS241 copy before the standard library's
# took its place: AS241's range switches at |p - 1/2| = 0.425 with their
# neighbours, the smallest normal and subnormal p, and the largest p < 1.
# At 0.925 the Newton step reads Phi, and Phi from erfc moved it an ulp
# down, to the correctly rounded root 1.43953147093845623 (mpmath)
@pytest.mark.parametrize("p, z", [
    (0.075, -1.4395314709384557),
    (0.07499999999999998, -1.4395314709384561),
    (0.925, 1.4395314709384561),
    (0.9250000000000002, 1.439531470938457),
    (2.2250738585072014e-308, -37.5193793471445),
    (5e-324, -38.46740561714434),
    (1.0 - 2.0 ** -53, 8.209536151601387),
])
def test_quantile_keeps_its_bits(p, z):
    assert std_normal_quantile(p) == z
    assert std_normal_quantile(np.array([p]))[0] == z


def test_quantile_cdf_round_trip():
    p = np.geomspace(1e-10, 0.5, 2000)
    p = np.concatenate([p, 1.0 - p])
    z = std_normal_quantile(p)
    assert np.max(np.abs(std_normal_cdf(z) - p)) <= 1e-9
    x = np.linspace(-6, 6, 2001)
    assert np.max(np.abs(std_normal_quantile(std_normal_cdf(x)) - x)) \
        <= 1e-8


def test_quantile_domain_errors():
    for bad in (0.0, 1.0, -0.1, 1.1, np.nan):
        with pytest.raises(ValueError):
            std_normal_quantile(bad)


def test_pdf_matches_derivative():
    x = np.linspace(-5, 5, 101)
    h = 1e-6
    num = (std_normal_cdf(x + h) - std_normal_cdf(x - h)) / (2 * h)
    assert np.max(np.abs(num - std_normal_pdf(x))) <= 1e-9


def test_fisher_z_values_and_round_trip():
    assert fisher_z(0.0) == 0.0
    assert fisher_z(0.67) == pytest.approx(0.810743125475137436,
                                           rel=1e-12)
    assert fisher_z_inv(0.8107) == pytest.approx(0.67, abs=1e-4)
    r = np.linspace(-0.999, 0.999, 999)
    assert np.max(np.abs(fisher_z_inv(fisher_z(r)) - r)) <= 1e-12
    assert np.all(fisher_z(-r) == -fisher_z(r))
    assert np.all(np.diff(fisher_z(r)) > 0.0)


def test_fisher_z_domain():
    for bad in (1.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            fisher_z(bad)


def test_p_to_z_directions():
    assert p_to_z(0.05, +1) == pytest.approx(1.95996398454005424,
                                             abs=1e-9)
    assert p_to_z(0.15, -1) == pytest.approx(-1.43953147093845592,
                                             abs=1e-9)
    assert abs(p_to_z(1 - 1e-12, +1)) < 1e-5
    p = np.geomspace(1e-8, 0.999, 500)
    assert np.max(np.abs(z_to_p(p_to_z(p, +1)) - p)) <= 1e-10
    assert np.max(np.abs(z_to_p(p_to_z(p, -1)) - p)) <= 1e-10


def test_p_to_z_domain():
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError):
            p_to_z(bad, +1)


def test_p_to_z_far_tail():
    # -Phi^{-1}(p/2) keeps full precision where 1 - p/2 rounds to 1
    from statistics import NormalDist
    for p in (1e-6, 1e-20, 1e-300):
        ref = -NormalDist().inv_cdf(p / 2.0)
        assert p_to_z(p, +1) == pytest.approx(ref, rel=1e-15)
        assert p_to_z(p, -1) == pytest.approx(-ref, rel=1e-15)
    assert p_to_z(1e-20, +1) == pytest.approx(9.336044849234058, rel=1e-15)
    assert p_to_z(1e-300, +1) == pytest.approx(37.0658, abs=1e-4)


def test_z_to_p_on_a_float_is_the_array_path_bit_for_bit():
    # one Phi kernel: a float and a 0-d array take the same operations,
    # also at the signed zeros and where Phi's tail underflows
    grid = [0.0, -0.0, 1e-300, 0.5, 1.96, 3.0, 8.0, 12.5, 37.5, 38.0,
            38.5, 40.0, 1e300]
    for z in grid + [-z for z in grid]:
        p = z_to_p(z)
        assert type(p) is float
        assert p.hex() == z_to_p(np.array(z)).hex(), z


@pytest.mark.parametrize("call, message", [
    (lambda: std_normal_cdf(float("nan")), "x must not contain NaN"),
    (lambda: z_to_p(float("nan")), "z must not contain NaN"),
    (lambda: z_to_p(np.array([0.0, np.nan])), "z must not contain NaN"),
    (lambda: std_normal_cdf(np.array([0.0, np.nan])),
     "x must not contain NaN"),
    (lambda: std_normal_quantile(np.array([0.5, 1.0])),
     "p must lie strictly between 0 and 1"),
    (lambda: p_to_z(0.05, direction=0), "direction must be +1 or -1"),
    (lambda: std_normal_pdf(float("nan")), "x must not contain NaN"),
    (lambda: fisher_z(1.5), "r must lie strictly between -1 and 1"),
    (lambda: fisher_z_inv(float("nan")), "z must not contain NaN"),
])
def test_domain_errors_name_the_argument(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


# the edges of each domain: signed zeros, 1e-300, Cody's range bounds,
# where Phi's tail underflows, the clamp at 40 and the infinities
CODY = (0.46875 * math.sqrt(2.0), 4.0 * math.sqrt(2.0))
Z_EDGES = [s * v for v in (0.0, 1e-300, *CODY, 1.5, 38.5, 40.0, math.inf)
           for s in (1.0, -1.0)]
P_EDGES = [5e-324, 1e-300, 2.2250738585072014e-308, 0.025, 0.5, 0.925,
           1.0 - 2.0 ** -53]
R_EDGES = [s * v for v in (0.0, 1e-300, 0.5, CODY[0], 1.0 - 2.0 ** -53)
           for s in (1.0, -1.0)]
C_EDGES = [1e-300, *CODY, 38.5, 40.0, 1e300, 1.7e308]
# (name, call, accepted edges, refused values)
PRIMITIVES = [
    ("std_normal_cdf", std_normal_cdf, Z_EDGES, [math.nan]),
    ("std_normal_pdf", std_normal_pdf, Z_EDGES, [math.nan]),
    ("z_to_p", z_to_p, Z_EDGES, [math.nan]),
    ("fisher_z_inv", fisher_z_inv, Z_EDGES, [math.nan]),
    ("std_normal_quantile", std_normal_quantile, P_EDGES,
     [math.nan, 0.0, 1.0, -0.1, 1.5, math.inf]),
    *((f"p_to_z {d:+d}", lambda p, d=d: p_to_z(p, d), P_EDGES,
       [math.nan, 0.0, 1.0, 1.5, -math.inf]) for d in (1, -1)),
    ("fisher_z", fisher_z, R_EDGES,
     [math.nan, 1.0, -1.0, 1.5, math.inf, -math.inf]),
    *((f"threshold {m}", lambda c, m=m: weight_dominance_threshold(m, c),
       C_EDGES, [math.nan, 0.0, -1.0, math.inf]) for m in ("CPi", "IPPi")),
]


@pytest.mark.parametrize("name, call, edges, refused", PRIMITIVES,
                         ids=[p[0] for p in PRIMITIVES])
def test_a_number_in_any_form_gives_the_same_bits(name, call, edges,
                                                  refused):
    for v in edges:
        want = call(v)
        assert type(want) is float, v
        forms = [np.float64(v), np.array(v)]
        # an int where one is the same number, as for -0.0 none is
        if math.isfinite(v) and v.is_integer() and \
                repr(float(int(v))) == repr(v):
            forms.append(int(v))
        for form in forms:
            got = call(form)
            assert type(got) is float and got.hex() == want.hex(), (v, form)
        assert call(np.array([v]))[0].hex() == want.hex(), v
    for v in refused:
        messages = set()
        for form in (v, np.float64(v), np.array(v), np.array([v])):
            with pytest.raises(ValueError) as exc:
                call(form)
            messages.add(str(exc.value))
        assert len(messages) == 1, (v, messages)


# drawn inputs of each primitive: z on (-40, 40) and normal, p uniform
# and log-uniform down to the subnormals, r on (-1, 1), c log-uniform
# over the doubles
_rng = np.random.default_rng(33)
_p = np.concatenate([_rng.uniform(0.0, 1.0, 2000),
                     10.0 ** _rng.uniform(-323.0, 0.0, 2000)])
DRAWN = {"z": np.concatenate([_rng.uniform(-40.0, 40.0, 2000),
                              _rng.normal(0.0, 3.0, 2000)]),
         "p": _p[(_p > 0.0) & (_p < 1.0)],
         "r": _rng.uniform(-1.0, 1.0, 4000),
         "c": 10.0 ** _rng.uniform(-300.0, 308.0, 4000)}
DOMAINS = {"std_normal_cdf": "z", "std_normal_pdf": "z", "z_to_p": "z",
           "fisher_z_inv": "z", "std_normal_quantile": "p",
           "p_to_z +1": "p", "p_to_z -1": "p", "fisher_z": "r",
           "threshold CPi": "c", "threshold IPPi": "c"}


@pytest.mark.parametrize("name, call", [p[:2] for p in PRIMITIVES],
                         ids=[p[0] for p in PRIMITIVES])
def test_an_array_gives_the_bits_of_its_float_calls(name, call):
    # every point of an array, a 2-d one too, is the float kernel's
    x = DRAWN[DOMAINS[name]]
    want = [call(v).hex() for v in x.tolist()]
    assert [v.hex() for v in call(x).tolist()] == want
    grid = x[:len(x) // 2 * 2].reshape(2, -1)
    assert [v.hex() for v in call(grid).ravel().tolist()] == \
        want[:grid.size]
