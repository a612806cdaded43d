"""2D fractional Fourier transform attached to complex (Ito) Hermite
polynomials, its dual transform into weighted Bergman spaces on the bi-disk,
the associated singular-value theory, and the fractional Hankel reduction.
"""

from .specfun import hermite_real
from .ito_hermite import ZeroSet, hermite_ito, null_index_set, psi, zero_radii
from .quadrature import QuadratureRule, bidisk_rule, integrate, plane_rule, quadrant_rule
from .kernels import (
    TransformParams,
    bergman_kernel,
    frft_kernel,
    gram_kernel,
    mehler_closed,
    mehler_series,
)
from .transforms import (
    CoeffFunction,
    RadialFunction,
    adjoint_apply,
    angular_coefficients,
    bargmann2_apply,
    bergman_norm,
    dual_apply_coeff,
    frft_apply,
    hankel_apply,
    rotational_frft,
)
from .spectral import (
    KwBracket,
    Spectrum,
    finite_rank_tail,
    gamma_norm,
    kw_constant,
    operator_norm_bound,
    schatten_partial,
    singular_value,
    spectrum,
)

__version__ = "0.1.0"
