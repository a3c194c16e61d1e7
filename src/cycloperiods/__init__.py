"""Exact period matrices for a hexagonal genus-4 family and its Prym.

The layers, from the ground up:

- exactfield: the degree-8 tower Q(zeta12, 3^(1/4)) with exact signs
  and certified interval embeddings (balls holds the interval type);
- intlat: integer and rational matrix utilities (Smith form, whose
  divisors give ranks and determinants, and symplectic bases);
- covers: cyclic-cover character tables and loop-homology models;
- periods: parametric period matrices, Riemann relations, intertwining
  searches;
- pel: the rank-3 unitary module, its skew-Hermitian form, congruence
  diagonalization, the 2-ball family and the exact matching step;
- stcurve: the frozen data of the curve y^6 = x(x+1)(x-t), and the
  assembly of its genus-4 family from the elliptic and Prym blocks;
- suite / report / cli: the thirteen checks and the command line.
"""

from .exactfield import (TowerElem, cyclo, zeta_power, embed, real_sign,
                         ZERO, ONE, HALF, ZETA, IUNIT, RHO, SQRT3,
                         ROOT4_3, INV_ROOT4_3)
from .balls import ComplexBall
from .covers import CyclicCover, HomologyModel
from .periods import PeriodMatrix
from .pel import (PELModule, build_module, solve_T, diagonalize_W,
                  family_periods, match_solver, resolve_conventions,
                  prym_family)
from .report import Check, Report
from .suite import run_all

__all__ = [
    "TowerElem", "cyclo", "zeta_power", "embed", "real_sign",
    "ZERO", "ONE", "HALF", "ZETA", "IUNIT", "RHO", "SQRT3",
    "ROOT4_3", "INV_ROOT4_3",
    "ComplexBall", "CyclicCover", "HomologyModel",
    "PeriodMatrix",
    "PELModule", "build_module", "solve_T", "diagonalize_W",
    "family_periods", "match_solver", "resolve_conventions", "prym_family",
    "Check", "Report", "run_all",
]

__version__ = "0.1.0"
