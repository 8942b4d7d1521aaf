"""Every numeric argument of the public API, given each malformed kind
of value.

A call answers, or raises a ValueError that names the argument, says
which input the method needs (``CPi requires zo``) or states a domain
refusal (``... only cross ...``, ``... interior minimum ...``,
``... needs exactly one of f or c_stage1``).  It never raises a
TypeError or numpy's truth-value or broadcast error, never warns, and
never answers for text, bytes or a complex value.  Every record
argument (a config, a design, an interim state, a futility rule, a
request or a spec) given anything but its record type raises a
ValueError that names it, and so does a method tag that is not a
string, a dataset path that is not a str or an ``os.PathLike``, a
``records`` entry that is not an ``SsrpRecord`` and a ``zo`` or ``zi``
that the method ignores but is given.  At the edges of the rules, a
call answers or names an argument, without a warning.
"""
import dataclasses
import math
import os
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import repower as r
from repower import _methods

# each kind as a function of a valid value of the argument
KINDS = {
    "nan": lambda v: math.nan,
    "inf": lambda v: math.inf,
    "-inf": lambda v: -math.inf,
    "None": lambda v: None,
    "str": str,
    "bytes": lambda v: str(v).encode(),
    "complex": complex,
    "list": lambda v: [v, v],
    "array": lambda v: np.array([v, v]),
    "empty array": lambda v: np.array([]),
    "2-d array": lambda v: np.full((2, 2), v),
    "array with NaN": lambda v: np.array([v, math.nan]),
    "Fraction": Fraction,
    "Decimal": Decimal,
    "numpy float": np.float64,
    "numpy int": np.int64,
}
TEXT = ("str", "bytes", "complex")


def _solve(**kw):
    args = dict(zo=2.0, zi=1.0, c_stage1=0.8)
    return r.SolveRequest("CPi", kw.pop("target_power", 0.8),
                          **{**args, **kw})


def _sim(**kw):
    return r.SimSpec("CPi", **{**dict(c=2.0, zo=2.0, zi=1.0, f=0.4,
                                      n_sims=2000, seed=3), **kw})


# (label, argument, a valid value, the call with that argument replaced)
ARGS = [
    ("DesignConfig", "alpha", 0.05, lambda v: r.DesignConfig(alpha=v)),
    ("DesignConfig", "shrinkage", 0.2,
     lambda v: r.DesignConfig(shrinkage=v)),
    ("DesignConfig", "both_tails", True,
     lambda v: r.DesignConfig(both_tails=v)),
    ("FixedDesign", "zo", 2.0, lambda v: r.FixedDesign(v, 1.5)),
    ("FixedDesign", "c", 1.5, lambda v: r.FixedDesign(2.0, v)),
    ("InterimState", "zi", 1.0, lambda v: r.InterimState(v, 0.4)),
    ("InterimState", "f", 0.4, lambda v: r.InterimState(1.0, v)),
    ("SolveRequest", "target_power", 0.8,
     lambda v: _solve(target_power=v)),
    ("SolveRequest", "zo", 2.0, lambda v: _solve(zo=v)),
    ("SolveRequest", "zi", 1.0, lambda v: _solve(zi=v)),
    ("SolveRequest", "f", 0.4, lambda v: _solve(c_stage1=None, f=v)),
    ("SolveRequest", "c_stage1", 0.8, lambda v: _solve(c_stage1=v)),
    ("SolveRequest", "c_lower", 0.5,
     lambda v: r.SolveRequest("CP", 0.8, zo=2.0, c_lower=v)),
    ("FutilityRule", "boundary", 0.3, lambda v: r.FutilityRule("IPPi", v)),
    ("SimSpec", "c", 2.0, lambda v: _sim(c=v)),
    ("SimSpec", "zo", 2.0, lambda v: _sim(zo=v)),
    ("SimSpec", "zi", 1.0, lambda v: _sim(zi=v)),
    ("SimSpec", "f", 0.4, lambda v: _sim(f=v)),
    ("SimSpec", "n_sims", 2000, lambda v: _sim(n_sims=v)),
    ("SimSpec", "seed", 3, lambda v: _sim(seed=v)),
    ("SimSpec", "n_o", 1000.0, lambda v: _sim(n_o=v)),
    ("design_power", "zo", 2.0, lambda v: r.design_power("PP", v, 1.5)),
    ("design_power", "c", 1.5, lambda v: r.design_power("PP", 2.0, v)),
    ("interim_power", "zo", 2.0,
     lambda v: r.interim_power("IPPi", v, 1.0, 2.0, 0.4)),
    ("interim_power", "zi", 1.0,
     lambda v: r.interim_power("IPPi", 2.0, v, 2.0, 0.4)),
    ("interim_power", "c", 2.0,
     lambda v: r.interim_power("IPPi", 2.0, 1.0, v, 0.4)),
    ("interim_power", "f", 0.4,
     lambda v: r.interim_power("IPPi", 2.0, 1.0, 2.0, v)),
    ("ippi_limit", "zo", 2.0, lambda v: r.ippi_limit(v, 1.0, 0.8)),
    ("ippi_limit", "zi", 1.0, lambda v: r.ippi_limit(2.0, v, 0.8)),
    ("ippi_limit", "c_stage1", 0.8, lambda v: r.ippi_limit(2.0, 1.0, v)),
    ("ppi_minimum", "zi", 2.5, r.ppi_minimum),
    ("fbp_minimum", "zo", 4.0, r.fbp_minimum),
    ("cp_pp_intersection", "zo", 2.0, r.cp_pp_intersection),
    ("fbp_cbp_intersection", "zo", 1.5, r.fbp_cbp_intersection),
    ("remaining_n_curve", "zo", 2.0,
     lambda v: r.remaining_n_curve(v, 1.0, 0.8, [0.5, 1.0])),
    ("remaining_n_curve", "zi", 1.0,
     lambda v: r.remaining_n_curve(2.0, v, 0.8, [0.5, 1.0])),
    ("remaining_n_curve", "c_stage1", 0.8,
     lambda v: r.remaining_n_curve(2.0, 1.0, v, [0.5, 1.0])),
    ("remaining_n_curve", "nj_ratio", 0.5,
     lambda v: r.remaining_n_curve(2.0, 1.0, 0.8, v)),
    ("weight_dominance_threshold CPi", "c", 2.0,
     lambda v: r.weight_dominance_threshold("CPi", v)),
    ("weight_dominance_threshold IPPi", "c", 2.0,
     lambda v: r.weight_dominance_threshold("IPPi", v)),
    ("std_normal_cdf", "x", 0.3, r.std_normal_cdf),
    ("std_normal_pdf", "x", 0.3, r.std_normal_pdf),
    ("std_normal_quantile", "p", 0.3, r.std_normal_quantile),
    ("p_to_z", "p", 0.3, r.p_to_z),
    ("p_to_z", "direction", -1, lambda v: r.p_to_z(0.3, v)),
    ("z_to_p", "z", 0.3, r.z_to_p),
    ("fisher_z", "r", 0.3, r.fisher_z),
    ("fisher_z_inv", "z", 0.3, r.fisher_z_inv),
]


def _fault(call, name, kind, value):
    """What is wrong with ``call(value)``, or None."""
    allowed = re.compile(rf"({re.escape(name)} |\w+ requires {name}\b"
                         r"|.* only cross |.* interior minimum "
                         r"|.* needs exactly one of )")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call(value)
    except ValueError as exc:
        if not allowed.match(str(exc)):
            return f"{kind}: {type(exc).__name__}: {exc}"
        return None
    except Exception as exc:
        return f"{kind}: {type(exc).__name__}: {exc}"
    if kind in TEXT:
        return f"{kind}: answered"
    return None


@pytest.mark.parametrize("label, name, valid, call", ARGS,
                         ids=[f"{a[0]}.{a[1]}" for a in ARGS])
def test_every_argument_answers_or_names_itself(label, name, valid, call):
    call(valid)
    faults = [_fault(call, name, kind, make(valid))
              for kind, make in KINDS.items()]
    assert [f for f in faults if f] == []


# each malformed kind of record argument, as a function of a valid record
RECORD_KINDS = {
    "None": lambda v: None,
    "str": lambda v: "x",
    "float": lambda v: 1.0,
    "dict": dataclasses.asdict,
    "its class": type,
    "another record": lambda v: (r.FixedDesign(2.0, 1.5)
                                 if isinstance(v, r.DesignConfig)
                                 else r.DesignConfig()),
}
_FIXED, _STATE = r.FixedDesign(2.0, 1.5), r.InterimState(1.0, 0.4)
_CONFIG, _RULE = r.DesignConfig(shrinkage=0.1), r.FutilityRule("PPi", 0.2)

# (label, argument, a valid record, the call with that argument replaced)
RECORD_ARGS = [
    ("design_power", "config", _CONFIG,
     lambda v: r.design_power("PP", 2.0, 1.5, v)),
    ("interim_power", "config", _CONFIG,
     lambda v: r.interim_power("PPi", 2.0, 1.0, 2.0, 0.4, v)),
    *((f.__name__, arg, valid, call) for f in (r.cp, r.pp, r.fbp, r.cbp)
      for arg, valid, call in (
          ("design", _FIXED, lambda v, f=f: f(v)),
          ("config", _CONFIG, lambda v, f=f: f(_FIXED, v)))),
    *((f.__name__, arg, valid, call)
      for f in (r.cpi, r.ippi, r.ppi, r.interim_ordering_holds)
      for arg, valid, call in (
          ("fixed", _FIXED, lambda v, f=f: f(v, _STATE)),
          ("interim", _STATE, lambda v, f=f: f(_FIXED, v)),
          ("config", _CONFIG, lambda v, f=f: f(_FIXED, _STATE, v)))),
    ("cp_pp_intersection", "config", _CONFIG,
     lambda v: r.cp_pp_intersection(2.0, v)),
    ("fbp_cbp_intersection", "config", _CONFIG,
     lambda v: r.fbp_cbp_intersection(1.5, v)),
    ("fbp_minimum", "config", _CONFIG, lambda v: r.fbp_minimum(4.0, v)),
    ("ippi_limit", "config", _CONFIG,
     lambda v: r.ippi_limit(2.0, 1.0, 0.8, v)),
    ("ppi_minimum", "config", _CONFIG, lambda v: r.ppi_minimum(2.5, v)),
    ("remaining_n_curve", "config", _CONFIG,
     lambda v: r.remaining_n_curve(2.0, 1.0, 0.8, [0.5, 1.0], v)),
    ("SolveRequest", "config", _CONFIG, lambda v: _solve(config=v)),
    ("solve_c", "request", _solve(), r.solve_c),
    ("futility_decision", "fixed", _FIXED,
     lambda v: r.futility_decision(v, _STATE)),
    ("futility_decision", "state", _STATE,
     lambda v: r.futility_decision(_FIXED, v)),
    ("futility_decision", "rule", _RULE,
     lambda v: r.futility_decision(_FIXED, _STATE, v)),
    ("futility_decision", "config", _CONFIG,
     lambda v: r.futility_decision(_FIXED, _STATE, _RULE, v)),
    ("SimSpec", "config", _CONFIG, lambda v: _sim(config=v)),
    ("closed_form", "spec", _sim(), r.closed_form),
    ("simulate_power", "spec", _sim(), r.simulate_power),
    ("reproduce_interim_powers", "config", _CONFIG,
     lambda v: r.reproduce_interim_powers(config=v)),
    ("futility_replay", "rule", _RULE, lambda v: r.futility_replay(rule=v)),
    ("futility_replay", "config", _CONFIG,
     lambda v: r.futility_replay(rule=_RULE, config=v)),
]


@pytest.mark.parametrize("label, name, valid, call", RECORD_ARGS,
                         ids=[f"{a[0]}.{a[1]}" for a in RECORD_ARGS])
def test_every_record_argument_refuses_a_non_record_by_name(label, name,
                                                            valid, call):
    call(valid)
    for kind, make in RECORD_KINDS.items():
        if kind == "None" and label == "futility_replay" and name == "rule":
            continue        # None is its default, the rule FutilityRule()
        with pytest.raises(ValueError, match=rf"^{name} must be of type "
                                             rf"{type(valid).__name__}, "):
            call(make(valid))


def _quietly(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call()


METHOD_TAG_CALLS = {
    "design_power": lambda m: r.design_power(m, 1.0, 1.0),
    "interim_power": lambda m: r.interim_power(m, 1.0, 1.0, 2.0, 0.4),
    "SolveRequest": lambda m: r.SolveRequest(m, 0.5, zo=1.0),
    "SimSpec": lambda m: r.SimSpec(m, 2.0, zo=1.0, n_sims=2000),
    "weight_dominance_threshold": lambda m: r.weight_dominance_threshold(
        m, 1.0),
}


@pytest.mark.parametrize("call", METHOD_TAG_CALLS.values(),
                         ids=METHOD_TAG_CALLS)
@pytest.mark.parametrize("tag", [["CP"], ("CPi",), None, 1, b"CP"],
                         ids=["list", "tuple", "None", "int", "bytes"])
def test_a_method_tag_that_is_not_a_string_is_refused_by_name(call, tag):
    with pytest.raises(ValueError, match="^method must be a method tag, "
                                         rf"not {type(tag).__name__}$"):
        _quietly(lambda: call(tag))


@pytest.mark.parametrize("path", [True, 0, 1.5, b"ssrp.csv", ["a.csv"]],
                         ids=["bool", "int", "float", "bytes", "list"])
def test_a_dataset_path_that_is_not_a_path_is_refused_by_name(path):
    with pytest.raises(ValueError, match="^path must be a str or an "
                                         r"os\.PathLike, not "):
        r.load_csv(path)


def test_a_file_descriptor_is_neither_read_nor_closed():
    # open() takes an int as a file descriptor and closes it when done
    read, write = os.pipe()
    os.close(write)
    try:
        with pytest.raises(ValueError, match="^path must be "):
            r.load_csv(read)
        os.fstat(read)      # still open
    finally:
        os.close(read)


@pytest.mark.parametrize("report", [
    r.futility_replay, r.reproduce_interim_powers,
    r.reproduce_design_powers])
@pytest.mark.parametrize("entry", ["x", 1.0, None, {"study": "x"}])
def test_a_records_entry_that_is_not_a_record_is_refused_by_name(report,
                                                                 entry):
    records = [*r.load_csv()[:2], entry]
    with pytest.raises(ValueError, match="^records entry must be of type "
                                         "SsrpRecord, not "):
        report(records)


@pytest.mark.parametrize("call", [
    lambda v: r.interim_power("PPi", v, 1.0, 2.0, 0.4),
    lambda v: r.SolveRequest("PPi", 0.5, zo=v, zi=1.0, c_stage1=1.0),
    lambda v: r.SimSpec("PPi", 2.0, zo=v, zi=1.0, f=0.4, n_sims=2000),
], ids=["interim_power", "SolveRequest", "SimSpec"])
@pytest.mark.parametrize("kind", ["str", "nan", "inf", "list", "array"])
def test_an_input_the_method_ignores_is_still_checked(call, kind):
    # PPi reads no zo, but one given must be a finite number
    with pytest.raises(ValueError, match="^zo "):
        _quietly(lambda: call(KINDS[kind](2.0)))
    assert r.SolveRequest("PPi", 0.5, zo=np.int64(2), zi=1.0,
                          c_stage1=1.0).zo.hex() == (2.0).hex()


def test_ippi_at_a_peak_within_an_ulp_of_the_stage_1_size_answers():
    # the peak of the argument lies at x ~ 4e-305: y = sqrt(1 + x / s)
    # rounds to 1, and the rule takes a Newton step from there
    res = _quietly(lambda: r.ippi(r.FixedDesign(-1e300, 1e-9),
                                  r.InterimState(0.0, 0.5)))
    assert (res.power, res.supremum, res.feasible_100) == (0.0, 0.0, False)


def test_ippi_refuses_a_supremum_its_rule_cannot_scale_by_name():
    # the bracket on the slope polynomial's minimum, 1.5 |zd| / (r k) at
    # r = sqrt(s) = 1e-10, overflows; no power of two scales it away
    with pytest.raises(ValueError, match=r"^zo and zi are too large in "
                                         r"size for a stage-1 size of "):
        _quietly(lambda: r.ippi(r.FixedDesign(-1e300, 2e-20),
                                r.InterimState(0.0, 0.5)))


@pytest.mark.parametrize("fixed, state, expected", [
    # zi / sqrt(s) overflows at s = c f = 1e-317: mpmath (60 digits, the
    # double z_alpha) puts the peak, Phi(-1.960215), at x = 6.3e-10
    (r.FixedDesign(-5.0, 1e-300), r.InterimState(-1e150, 1e-17),
     0.0249853055004006),
    # and at s = 2.3e-317, where the rule refused: the argument stays
    # below -4.8e141, and mpmath's supremum is 5e-(4.99e18)
    (r.FixedDesign(0.0, 2.3e-308), r.InterimState(-1e300, 1e-9), 0.0),
])
def test_ippi_scales_a_slope_polynomial_whose_terms_overflow(fixed, state,
                                                             expected):
    res = _quietly(lambda: r.ippi(fixed, state))
    assert res.supremum == pytest.approx(expected, rel=1e-8, abs=0.0)


def test_ippi_peak_beside_the_critical_value_at_a_large_original():
    # zi lies 1e-10 below k = -z_alpha and zd = -1e10: zd - d / y^2
    # cancelled to rounding noise at y = 1, and the supremum read 0.0;
    # mpmath (60 digits, golden section on log x) reads 0.443766059161
    res = r.ippi(r.FixedDesign(-1e10, 2.0),
                 r.InterimState(1.9599639845390542, 0.5))
    assert res.supremum == pytest.approx(0.443766059161431, abs=1e-5)


def test_an_array_overflows_to_the_limit_a_float_reaches():
    c = np.array([1e300, 1.0])
    for method in r.METHODS_FIXED:
        got = _quietly(lambda: r.design_power(method, 1e300, c))
        assert got.tolist() == [r.design_power(method, 1e300, v)
                                for v in c.tolist()]
    got = _quietly(lambda: r.interim_power("CPi", 1e300, 1.0, c, 0.5))
    assert got.tolist() == [1.0, 1.0]


def test_a_scan_that_overflows_refuses_c_stage1_without_a_warning():
    req = r.SolveRequest("CPi", 0.5, zo=0.0, zi=1e300, c_stage1=1e300,
                         config=r.DesignConfig(alpha=1e-100))
    with pytest.raises(ValueError, match=r"^c_stage1 = 1e\+300 is too "
                                         r"large: "):
        _quietly(lambda: r.solve_c(req))


def test_cpi_at_a_fixed_f_with_a_subnormal_slope_solves():
    # the slope sqrt(1 - f) zo underflows to 0: the line inverse has no
    # estimate, and the scan finds the curve flat below the target
    req = r.SolveRequest("CPi", 0.5, zo=5e-324, zi=0.1, f=0.9)
    assert _methods.METHODS["CPi"].inverse(
        5e-324, 0.1, 0.0, 0.9, 0.0, r.DesignConfig()) is None
    with pytest.raises(r.InfeasibleTarget) as info:
        _quietly(lambda: r.solve_c(req))
    limit = r.interim_power("CPi", 0.0, 0.1, 1.0, 0.9)
    assert info.value.supremum == pytest.approx(limit, rel=1e-12)



@pytest.mark.parametrize("method, c, path", [
    ("CP", 1e-9, "lower bound"), ("PP", 1e-9, "lower bound"),
    # the both-tail power underflows to 0 below these sizes: where
    # erfc(y) is subnormal, Phi = erfc(y) / 2 rounds twice and leaves 0
    # once erfc(y) reaches 1.5 2^-1074, not once Phi passes 2^-1075
    # (a correctly rounded Phi: 0.0010151563238386808, 0.0010161862055768861)
    ("FBP", 0.0010156854566810895, "scan"),
    ("CBP", 0.001016716411969854, "scan"),
])
def test_a_both_tail_target_whose_half_underflows_is_scanned(method, c,
                                                             path):
    # half of 5e-324 is 0, which has no quantile for the one-tail rules
    # to bound the crossing with; the scan decides
    req = r.SolveRequest(method, 5e-324, zo=2.0,
                         config=r.DesignConfig(both_tails=True))
    res = _quietly(lambda: r.solve_c(req))
    assert res.path == path and res.power >= 5e-324
    assert res.c == pytest.approx(c, rel=1e-12)


@pytest.mark.parametrize("method", ["CP", "PP", "FBP", "CBP"])
def test_a_both_tail_target_whose_half_underflows_meets_its_lower_bound(
        method):
    req = r.SolveRequest(method, 5e-324, zo=2.018103535491811,
                         c_lower=0.058833762419586044,
                         config=r.DesignConfig(alpha=0.005, shrinkage=0.3,
                                               both_tails=True))
    res = _quietly(lambda: r.solve_c(req))
    assert (res.c, res.path, res.evaluations) == (
        0.058833762419586044, "lower bound", 1299)


@pytest.mark.parametrize("shrinkage", [0.0, 0.9])
@pytest.mark.parametrize("zo", [1e154, 1e200, 1.7e308])
def test_fbp_cbp_crossing_of_a_huge_original_is_minus_one(zo, shrinkage):
    # (zat + zd)(zat - zd) / zd^2 = zat^2 / zd^2 - 1, and zat^2 / zd^2 <
    # 2^-53, also where zd^2 overflows
    got = _quietly(lambda: r.fbp_cbp_intersection(
        zo, r.DesignConfig(shrinkage=shrinkage)))
    assert (got.c, got.feasible) == (-1.0, False)
