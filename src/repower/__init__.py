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
"""

__version__ = "0.1.0"

from .design import (CrossingPoint, DEFAULT_CONFIG, DesignConfig,
                     FixedDesign, METHODS_FIXED, METHODS_INTERIM,
                     PRIOR_COMBINATIONS, PowerMinimum, PowerResult,
                     cbp, conditional_bayesian_power, conditional_power,
                     cp, cp_pp_intersection, design_power, fbp,
                     fbp_cbp_intersection, fbp_minimum,
                     fully_bayesian_power, pp, predictive_power,
                     shrunken_zo)
from .interim import (InterimPowerCurve, InterimState,
                      conditional_power_interim, cpi,
                      informed_predictive_power_interim, interim_ordering_holds,
                      interim_power, ippi, ippi_limit, ppi, ppi_minimum,
                      predictive_power_interim, remaining_n_curve,
                      weight_dominance_threshold)
from .mc import SimResult, SimSpec, closed_form, simulate_power
from .normal import (fisher_z, fisher_z_inv, p_to_z, std_normal_cdf,
                     std_normal_pdf, std_normal_quantile, z_to_p)
from .solver import (FutilityDecision, FutilityRule, InfeasibleTarget,
                     SolveRequest, SolveResult, futility_decision, solve_c)
from .ssrp import (DatasetError, DerivedQuantities, InvariantViolation,
                   REFERENCE_INTERIM_POWER_PCT, SsrpRecord, derive,
                   futility_replay, load_csv,
                   reproduce_design_powers, reproduce_interim_powers)

__all__ = [
    "CrossingPoint", "DEFAULT_CONFIG", "DatasetError", "DerivedQuantities",
    "DesignConfig", "FixedDesign", "FutilityDecision", "FutilityRule",
    "InfeasibleTarget", "InterimPowerCurve", "InterimState",
    "InvariantViolation", "METHODS_FIXED", "METHODS_INTERIM",
    "PRIOR_COMBINATIONS", "PowerMinimum", "PowerResult",
    "REFERENCE_INTERIM_POWER_PCT", "SimResult", "SimSpec", "SolveRequest",
    "SolveResult", "SsrpRecord", "cbp", "closed_form",
    "conditional_bayesian_power", "conditional_power",
    "conditional_power_interim", "cp", "cp_pp_intersection", "cpi",
    "derive", "design_power", "fbp", "fbp_cbp_intersection",
    "fbp_minimum", "fisher_z", "fisher_z_inv", "fully_bayesian_power",
    "futility_decision", "futility_replay",
    "informed_predictive_power_interim", "interim_ordering_holds",
    "interim_power", "ippi", "ippi_limit", "load_csv", "p_to_z", "pp",
    "ppi", "ppi_minimum", "predictive_power",
    "predictive_power_interim", "remaining_n_curve",
    "reproduce_design_powers", "reproduce_interim_powers", "shrunken_zo",
    "simulate_power", "solve_c", "std_normal_cdf", "std_normal_pdf",
    "std_normal_quantile", "weight_dominance_threshold", "z_to_p",
]
