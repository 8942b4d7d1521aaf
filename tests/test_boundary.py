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
ValueError that names it.
"""
import dataclasses
import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import repower as r

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
