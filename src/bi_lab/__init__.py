"""Exact-arithmetic toolkit for the Bannai-Ito algebra.

Submodules:

  exact        rational and Gaussian-rational scalars
  poly         dense univariate polynomials with reflection/shift primitives
  linop        exact sparse matrices of operators on a finite slice
  bi_operator  shift-reflection realization of the algebra
  bi_poly      Bannai-Ito polynomials (three routes), ladders, grid, weights
  sl1          sl_{-1}(2) modules and the 1D Dunkl realization
  racah        Racah problem: exact tridiagonal rep and tensor oracle
  dunkl_dirac  Dunkl-Dirac operator on S^2 and its symmetry algebra
  suites       seeded randomized verification suites
  cli          command-line frontend
"""

from .bi_operator import BIParams
from .dunkl_dirac import DiracParams
from .racah import RacahParams
from .sl1 import ModuleParams

__all__ = ["BIParams", "DiracParams", "RacahParams", "ModuleParams"]
__version__ = "0.1.0"
