"""Numerical toolkit for the correspondence between exponentially decaying
recursion coefficients and analytic spectral data.

Converts between recursion coefficients (Jacobi parameters on the line,
Verblunsky coefficients on the circle) and the analytic objects carrying
the same information: the Szego function, the Jost function, approximating
densities, and paraorthogonal point measures; plus estimators and
verification suites for the decay-analyticity radius relationships.
"""

__version__ = "0.1.0"

from .analysis import (
    PadePole,
    ProductSet,
    RadiusEstimate,
    VerificationReport,
    canonical_weight_check,
    decay_rate,
    gset,
    jost_b_combination,
    pade_pole_probe,
    radius_estimate,
    verify_damanik_simon,
    verify_jost_b_combination,
    verify_nevai_totik,
    verify_r_minus_s,
)
from .errors import (
    AliasingError,
    ConvergenceWarning,
    DegenerateMeasureError,
    DomainError,
    IllConditionedError,
    InvalidParameterError,
    NumericalDegeneracyError,
    OutOfRangeError,
    PoleError,
    PreconditionError,
    SzegoConditionError,
    SzegojostError,
    SzegojostWarning,
)
from .jost import (
    JostData,
    blaschke,
    e_from_z,
    finite_range_jost_data,
    geronimus_deltas,
    geronimus_map,
    jost_g_ell,
    m_finite_range,
    m_function,
    u_from_dinv,
    z_from_e,
)
from .measures import (
    ExperimentConfig,
    MeasureSpec,
    ingest_circle,
    ingest_line,
    load_config,
    parse_alpha_spec,
    realize_circle,
    realize_line,
)
from .oprl import (
    JacobiParams,
    PointMeasure,
    PolyEval,
    carmona_density,
    carmona_moment,
    dombrowski_nevai_s,
    eval_polys,
    m_n_b,
    orthonormal_poly_coeffs,
    spectral_measure_oracle,
    truncated_matrix,
)
from .opuc import (
    CircleMeasure,
    CirclePolyPair,
    ParaOrthogonalPoly,
    PopucMeasure,
    VerblunskyCoeffs,
    bernstein_szego,
    caratheodory,
    popuc,
    popuc_average_check,
    popuc_point_measure,
    roots_of_unity,
    second_kind,
    szego_recursion,
)
from .series import (
    LaurentSeries,
    TaylorSeries,
    taylor_exp,
    taylor_mul,
    taylor_reciprocal,
)
from .szego import (
    d_from_weight,
    dinv_from_alphas,
    r_series,
    recover_alpha_geronimus_freud,
    recover_alpha_simon,
    s_series,
)

__all__ = [name for name in dir() if not name.startswith("_")]
