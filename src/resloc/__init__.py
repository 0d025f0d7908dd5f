"""Exact-arithmetic Schubert calculus and genus-0 Gromov-Witten invariants.

Everything is computed over the rationals in truncated polynomial rings:
Grassmannian and flag-manifold integrals through localization residues,
J-functions and quantum Lefschetz I-functions with mirror transformations,
two-point invariants by reconstruction, and small quantum cohomology
relations.
"""

from . import errors
from .errors import ReslocError
from .geometry import RingSpec, integrate
from .jfun import (IFunction, JFunction, MirrorData, i_function, j_product,
                   j_projective, mirror_normalize, pull_to_hypersurface)
from .laurent import LaurentClass, laurent_invert, neg_part
from .linalg import ExactSolver
from .qseries import QSeries, qs_compose, qs_exp
from .reconstruct import (QuantumMatrix, Relation, TwoPointTable, qh_relation,
                          quantum_mult_matrix, reconstruct_two_point)
from .ring import CohClass, Ring
from .schubert import (ZetaTable, closed_form_m2, default_weight_samples,
                       fiberdim, flag_band, flag_pushforward_extract,
                       grassmann_integral_residue,
                       verify_euler_pushforward_identity,
                       verify_grassmann_pushforward)
from .sympoly import (SymPoly, schur_expand, schur_integral_oracle,
                      sym_power_top_chern)
from .tau_parser import parse_tau

__version__ = "0.1.0"

__all__ = [
    "CohClass",
    "ExactSolver",
    "IFunction",
    "JFunction",
    "LaurentClass",
    "MirrorData",
    "QSeries",
    "QuantumMatrix",
    "Relation",
    "ReslocError",
    "Ring",
    "RingSpec",
    "SymPoly",
    "TwoPointTable",
    "ZetaTable",
    "closed_form_m2",
    "default_weight_samples",
    "errors",
    "fiberdim",
    "flag_band",
    "flag_pushforward_extract",
    "grassmann_integral_residue",
    "i_function",
    "integrate",
    "j_product",
    "j_projective",
    "laurent_invert",
    "mirror_normalize",
    "neg_part",
    "parse_tau",
    "pull_to_hypersurface",
    "qh_relation",
    "qs_compose",
    "qs_exp",
    "quantum_mult_matrix",
    "reconstruct_two_point",
    "schur_expand",
    "schur_integral_oracle",
    "sym_power_top_chern",
    "verify_euler_pushforward_identity",
    "verify_grassmann_pushforward",
]
