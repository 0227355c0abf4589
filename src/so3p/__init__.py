"""Exact arithmetic for rotation groups over the p-adic numbers.

Everything is rational and certified: rotation matrices carry their
isometry certificate, integrals are exact closed-form masses of balls,
shells and tails, and the sampler's law is the normalized invariant
measure.  Start with canonical_units(p) to fix the unit conventions for
an odd prime, then build group elements with cardano_matrix or
quat_to_rotation.
"""

from .errors import (
    AmbiguityError,
    CertificateError,
    PrecisionExhausted,
    RegionError,
    SquareClassError,
)
from .haar import (
    BallQp,
    InvarianceReport,
    JacobianReport,
    RegionQp,
    ShellQp,
    axis_integral,
    complement_region,
    hquat_density,
    integrate_so2,
    integrate_so3,
    invariance_report,
    jacobian_matrix,
    jacobian_weight,
    mobius_image,
    sample_so2_param,
    sample_so3,
    sample_so3_batch,
    so2_density,
    so3_density,
    total_mass,
)
from .linalg import Mat, QuadForm, aplus, aprime, is_special_isometry
from .padic import (
    INF,
    PadicApprox,
    PrimeCtx,
    SquareClass,
    abs_p,
    canonical_units,
    hensel_sqrt,
    is_prime,
    square_class,
    valuation,
)
from .quaternion import Quat, conj_action_matrix, left_regular, quat
from .rotation import (
    Angles,
    Rot3,
    angles_to_quat,
    cardano_matrix,
    decompose_cardano,
    quat_to_rotation,
    rotation_to_quat,
    so2_compose,
)
from .verify import CheckResult, run_suites

__version__ = "0.1.0"

__all__ = [
    "AmbiguityError",
    "Angles",
    "BallQp",
    "CertificateError",
    "CheckResult",
    "INF",
    "InvarianceReport",
    "JacobianReport",
    "Mat",
    "PadicApprox",
    "PrecisionExhausted",
    "PrimeCtx",
    "QuadForm",
    "Quat",
    "RegionError",
    "RegionQp",
    "Rot3",
    "ShellQp",
    "SquareClass",
    "SquareClassError",
    "abs_p",
    "angles_to_quat",
    "aplus",
    "aprime",
    "axis_integral",
    "canonical_units",
    "cardano_matrix",
    "complement_region",
    "conj_action_matrix",
    "decompose_cardano",
    "hensel_sqrt",
    "hquat_density",
    "integrate_so2",
    "integrate_so3",
    "invariance_report",
    "is_prime",
    "is_special_isometry",
    "jacobian_matrix",
    "jacobian_weight",
    "left_regular",
    "mobius_image",
    "quat",
    "quat_to_rotation",
    "rotation_to_quat",
    "run_suites",
    "sample_so2_param",
    "sample_so3",
    "sample_so3_batch",
    "so2_compose",
    "so2_density",
    "so3_density",
    "square_class",
    "total_mass",
    "valuation",
]
