"""Power calculations for two-stage replication designs.

The package answers two planning questions on a unitless scale: the
original study's z-statistic ``zo`` and the relative sample size ``c``,
the replication's precision over the original's.  For means that is
``c = nr / no``.  For correlations on the Fisher z scale, as in the
``ssrp`` case study, it is ``c = (nr - 3) / (no - 3)``, and interim
fractions use the same effective sizes.

* design stage: how likely is a replication of a given size to succeed
  (``conditional_power``, ``predictive_power``, ``fully_bayesian_power``,
  ``conditional_bayesian_power``);
* interim stage: given part of the replication data, how likely is the
  completed study to succeed (``conditional_power_interim``,
  ``informed_predictive_power_interim``, ``predictive_power_interim``).

``solve_c`` inverts any of the curves for the smallest sufficient
sample size, ``simulate_power`` checks any closed form by simulation,
and the ``ssrp`` module replays a 21-study replication program in which
these interim decisions actually arose.

Each public name is imported from its module on first use (PEP 562):
``import repower`` loads no submodule, and a name, once looked up, is
bound here as the defining module's own object.
"""

__version__ = "0.1.0"

from importlib import import_module

# each public name and the module that defines it
_HOME = {name: module for module, names in (
    ("design", "CrossingPoint DEFAULT_CONFIG DesignConfig FixedDesign "
               "METHODS_FIXED METHODS_INTERIM PRIOR_COMBINATIONS "
               "PowerMinimum PowerResult cbp conditional_bayesian_power "
               "conditional_power cp cp_pp_intersection design_power fbp "
               "fbp_cbp_intersection fbp_minimum fully_bayesian_power pp "
               "predictive_power shrunken_zo"),
    ("interim", "FutilityDecision FutilityRule InterimPowerCurve "
                "InterimState conditional_power_interim cpi "
                "futility_decision informed_predictive_power_interim "
                "interim_ordering_holds interim_power ippi ippi_limit ppi "
                "ppi_minimum predictive_power_interim remaining_n_curve "
                "weight_dominance_threshold"),
    ("mc", "SimResult SimSpec closed_form simulate_power"),
    ("normal", "fisher_z fisher_z_inv p_to_z std_normal_cdf std_normal_pdf "
               "std_normal_quantile z_to_p"),
    ("solver", "InfeasibleTarget SolveRequest SolveResult solve_c"),
    ("ssrp", "DatasetError DerivedQuantities InvariantViolation "
             "REFERENCE_INTERIM_POWER_PCT SsrpRecord derive futility_replay "
             "load_csv reproduce_design_powers reproduce_interim_powers"),
) for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name):
    """A public name's object, its module imported on first use; the
    name is then bound here, so later lookups never reach this."""
    if name not in _HOME:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    obj = globals()[name] = getattr(
        import_module(f".{_HOME[name]}", __name__), name)
    return obj


def __dir__():
    return sorted({*globals(), *__all__})
