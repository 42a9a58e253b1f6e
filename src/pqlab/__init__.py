"""pqlab: a numerical laboratory for non-uniformly elliptic energy densities.

Pieces:

* :mod:`pqlab.expressions` - the arithmetic expressions of coefficient
  and boundary fields in configs;
* :mod:`pqlab.exponents` - admissible exponent parameters, the recipes
  per integrand class and the sup-bound iteration bookkeeping (lambda_k,
  nu, mu, theta_0..theta_4);
* :mod:`pqlab.integrand` - the growth functions and triples (g1, g2, g3),
  and the density catalog f(x, xi) with analytic gradients, Hessian
  quadratic forms and the radial decomposition; each family supplies its
  own triple, exponent recipe and capabilities (the family protocol);
* :mod:`pqlab.growth` - finite-sample verification of the structural
  conditions tying a triple to a density;
* :mod:`pqlab.solver` - discrete energy minimization on 2D grids;
* :mod:`pqlab.validator` - empirical stress tests of the a-priori
  gradient and second-derivative estimates;
* :mod:`pqlab.config` - the sectioned problem configurations;
* :mod:`pqlab.cli` - the check | params | solve | validate front end.
"""

from .exponents import (
    MU_UNBOUNDED,
    ExponentParams,
    MoserSchedule,
    ParamRejection,
    SobolevContext,
    anisotropic_params,
    auto_exponential_params,
    auto_px_params,
    default_params,
    double_phase_params,
    exponential_params,
    is_rejected,
    lambda_sequence,
    moser_exponents,
    px_delta,
    select_mu_nu,
    sobolev_context,
)
from .growth import (
    ConditionReport,
    GrowthFn,
    GrowthTriple,
    SampleSpec,
    check_11M,
    check_12M,
    check_A3,
    check_ellipticity_sandwich,
    check_growth_A,
    paper_triple,
    run_all_checks,
)
from .integrand import (
    Anisotropic,
    Ball,
    Coefficient,
    DoublePhase,
    Exponential,
    IntegrandFamily,
    LogPxLaplacian,
    MultiPhase,
    PLaplacian,
    ProfileDomainError,
    PxLaplacian,
    RadialFamily,
    SaturationError,
    VeryDegenerate,
    radial_bounds,
)
from .solver import (
    DiscreteField,
    GeometryError,
    Grid,
    SolveOptions,
    bilinear_interpolant,
    discrete_energy,
    field_stats,
    harmonic_direct_solve,
    load_field,
    minimize,
    save_field,
)
from .validator import (
    EstimateReport,
    ProblemTemplate,
    SolvedProblem,
    ThetaOscillationError,
    measure,
    radius_sweep,
    sweep_amplitudes,
)

__version__ = "0.1.0"
