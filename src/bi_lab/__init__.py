"""Exact-arithmetic toolkit for the Bannai-Ito algebra.

Submodules:

  exact        rational scalars, and the Gaussian rationals of the Poly3 reference
  poly         dense univariate polynomials with reflection/shift primitives
  linop        exact sparse matrices of operators on a finite slice
  bi_operator  shift-reflection realization of the algebra
  bi_poly      Bannai-Ito polynomials (three routes), ladder/V checks, grid, weights
  sl1          sl_{-1}(2) modules and the Dunkl realization in 1 and in k variables
  racah        Racah problem: exact tridiagonal rep and tensor oracle
  dunkl_dirac  Dunkl-Dirac operator on S^2 and its symmetry algebra
  report       VerificationReport, the one report type
  suites       seeded randomized verification suites
  cli          command-line frontend
  errors       BILabError, the one exception type (invalid input)
"""

from .bi_operator import BIParams
from .dunkl_dirac import DiracParams
from .racah import RacahParams
from .sl1 import ModuleParams

__all__ = ["BIParams", "DiracParams", "RacahParams", "ModuleParams"]
__version__ = "0.1.0"
