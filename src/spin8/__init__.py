"""Octonion algebra, verified triality triples for the rank-8 spin group, and
the S3-symmetric geometry of S7 x S7, over exact or float scalars."""

from .scalars import (
    ApproxReal,
    EXACT,
    ExactBackend,
    FloatBackend,
    ParseError,
    QuadExt,
    Rational,
    format_scalar,
)
from .linalg import (
    DimensionMismatch,
    Matrix,
    NotOrthogonal,
    is_orthogonal,
    is_special_orthogonal,
    random_rotation,
    trace_inner_product,
)
from .octonion import (
    NotImaginaryUnit,
    NotUnit,
    Octonion,
    cube_root_of_unity,
    ensure_imaginary_unit,
    ensure_unit,
    format_octonion,
    left_translation,
    parse_octonion,
    right_translation,
    table_rows,
    unit_product,
)
from .clifford import (
    NotVectorShaped,
    ad_conjugate,
    clifford_embed,
    classify_parity,
    recover_vector,
)
from .triality import (
    GammaElement,
    SemidirectElement,
    TrialityTriple,
    TrialityViolated,
    apply_gamma,
    apply_sigma,
    apply_tau,
    is_g2,
    spin_from_unit,
    triality_residual,
    triple_from_pair,
)
from .symspace import (
    AntipodalSet,
    AntipodalityViolated,
    PolarSphere,
    SpherePoint,
    act,
    act_semidirect,
    antipodal_set,
    base_point,
    fix_tau_point,
    gamma_sphere,
    is_fixed_by_tau,
    kai_sides,
    maximality_scan,
    phi_x,
    sigma_sphere,
    tau_fixed_characterization,
    tau_sphere,
)
from .checks import CheckResult, RunConfig, run_checks

__version__ = "0.1.0"
