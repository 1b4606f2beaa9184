"""matrixball: Poisson transforms, Hua operators and boundary limits on matrix balls.

Numerical realization of harmonic analysis on the rank-r matrix ball of size
r x (r+b) (non-tube, b >= 1): the group SU(r, r+b) and its horospherical
height, quadrature on the Shilov boundary, the Poisson kernel/transform and
the constant c_s (a Gamma product checked by two more routes), Hua-type
differential operators by finite differences, radial boundary limits, an L2
inversion formula, norm estimates, and rank-one spherical-function machinery.
"""

__version__ = "0.1.0"

from ._kernels import backend
from .structure import StructureData, SpectralParam, structure_data, spectral_param

__all__ = [
    "__version__",
    "backend",
    "StructureData",
    "SpectralParam",
    "structure_data",
    "spectral_param",
]
