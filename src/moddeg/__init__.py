"""moddeg: certified lower bounds on modular degrees of rational elliptic curves.

A numerical-analysis library that computes fundamental-parallelogram
areas via the AGM, certifies every explicit constant in the chain of
lemmas behind the degree bounds (area bound, zero-free regions for
symmetric-square L-functions, the L-value lower bound, local fudge
factors), and assembles per-curve lower bounds with consistency checks
against known modular degrees.
"""

__version__ = "0.1.0"

# Nothing is re-exported under a submodule's name: moddeg.agm is the module,
# and the function is moddeg.agm.agm.
from .agm import (
    PeriodData,
    lemma1_check,
    lemma1_constants,
    period_data,
)
from .bounds import (
    crossover_check,
    degree_formula_bound,
    linear_bounds,
    theorem1,
    theorem2,
    theorem2_closed_form,
)
from .curves import (
    CM_J_INVARIANTS,
    CurveModel,
    Invariants,
    RootData,
    SingularCurveError,
    derive_invariants,
    is_cm,
    trace_of_frobenius,
    two_torsion_roots,
)
from .fudge import fudge_factor_for
from .lvalue import (
    lemma4_certify,
    symsq_lower_bound,
    symsq_value_estimate,
)
from .report import CurveRecord, build_report, invariants_document, parse_record
from .specfun import (
    QuadratureResult,
    abs_gamma_half_line,
    digamma,
    lemma4_error_integral,
)
from .zerofree import (
    CM_QI,
    CM_ZETA3,
    NONCM,
    RegionConstants,
    Waypoint,
    certify_cm_qi,
    certify_cm_zeta3,
    certify_noncm,
    quintic_beta_optimum,
    trig_poly_expand,
)

__all__ = [name for name in dir() if not name.startswith("_")]
