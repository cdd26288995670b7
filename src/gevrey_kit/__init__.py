"""Constructive solvers, Gevrey growth certification and Borel-Laplace
summation for singularly perturbed nonlinear systems eps*z*f' = F(eps, z, f)
with a regular singularity at z = 0."""

__version__ = "0.1.0"

from .errors import *  # noqa: F401,F403
from .series import (  # noqa: F401
    CONV_TAMING_A,
    LemmaConvReport,
    MatSeries,
    TruncatedSeries,
    VecSequence,
    VecSeries,
    compositions,
    conv_offset0,
    conv_offset1,
    lemma_conv_bound,
    mat_series_inverse,
    multilinear_apply,
)
from .problem import (  # noqa: F401
    BTensor,
    CoeffTensor,
    NormalizationShift,
    ProblemSpec,
    assemble_B,
    builtin_riccati,
    normalize_shift,
    parse_problem,
    problem_to_dict,
    problem_to_json,
    shift_problem,
)
from .sector import (  # noqa: F401
    RadiiReport,
    ResolventReport,
    SectorSpec,
    SiegelCheck,
    SpectrumReport,
    check_siegel,
    gamma_max,
    radius_estimates,
    resolvent_bound,
    spectrum,
)
from .zsolver import (  # noqa: F401
    EvalResult,
    ZSolution,
    evaluate_f,
    ode_residual_z,
    solve_coeffs_z,
)
from .epssolver import (  # noqa: F401
    EpsFormalSolution,
    build_T0,
    contraction_estimate,
    eps_values_at,
    solve_a0,
    solve_ai,
    solve_eps_expansion,
)
from .consistency import (  # noqa: F401
    CrossReport,
    cross_consistency,
    eps_taylor_of_z_coeffs,
    limit_to_a0,
)
from .gevrey import (  # noqa: F401
    GevreyFit,
    NagumoNorm,
    RemainderProfile,
    gevrey_fit,
    nagumo_norm,
    nagumo_property_suite,
    remainder_profile,
    sup_norm_disc,
)
from .borel import (  # noqa: F401
    BorelData,
    PadeApproximant,
    SummationReport,
    borel_transform,
    laplace_sum,
    optimal_truncation_sum,
    pade_continue,
)
from .riccati import (  # noqa: F401
    bessel_ratio_cf,
    ode_residual,
    phi0,
    phi_eps,
    shifted_reference,
)
