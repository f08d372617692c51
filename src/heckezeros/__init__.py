"""Explicit numerics for low-lying zeros of Hecke L-functions.

Everything is expressed in dimensionless units: zeros are written as
beta = 1 - lambda/L, gamma = mu/L for the standard conductor-discriminant
normalization quantity L, so a bound like ``lambda_1 >= 0.1227`` is a
zero-free-region width in those units.  The package computes

* zero-free-region widths by character order (``zfr``),
* zero-repulsion bounds around an exceptional zero (``dh``),
* zero-density bounds for the number of characters with a low zero
  (``zero_density``),

driven by trial weights (``trial_functions``) and the fixed admissible
quartic (``p4``), with independent brute-force oracles (``oracles``),
bundled reference tables and a regression harness (``tables``), and a
deterministic parameter search (``optimizer``).  The ``heckezeros`` CLI
exposes all of it.
"""

from . import dh, oracles, optimizer, p4, tables, trial_functions, zero_density, zfr
from ._kernels import backend
from .dh import (BoundResult, CASES, PHI, SolverCase, cos_bound,
                 piecewise_log_constant, solve_poly, solve_smoothed,
                 very_small_dh, very_small_inverse)
from .errors import (BoundUnavailableError, DomainError, HeckeZerosError,
                     InfeasibleSearchError, InvalidGeneratorError,
                     InvalidParameterError, NoBoundError, NoRootError,
                     OracleFailureError, SideConditionError)
from .optimizer import SearchSpec, maximize_bound
from .p4 import PositivityQuery, gm_check, p4_eval, pm_positivity, re_p4_identity
from .trial_functions import (K_FAMILY_PAIRS, TrialFunction, autocorrelation,
                              repel_reduce, triangle)
from .zero_density import ZdQuery, n_lambda_bound, n_lambda_int, zd_preconditions
from .zfr import (ZfrCase, combine_L_coefficients, expand_trig_square_product,
                  zfr_optimize, zfr_order5, zfr_order_ge6, zfr_solve)

__version__ = "0.1.0"
