"""2D fractional Fourier transform attached to complex (Ito) Hermite
polynomials, its dual transform into weighted Bergman spaces on the bi-disk,
the associated singular-value theory, and the fractional Hankel reduction.

The public names are those in the `__all__` of each module below.
"""

from .ito_hermite import *
from .quadrature import *
from .kernels import *
from .transforms import *
from .spectral import *

__version__ = "0.1.0"
