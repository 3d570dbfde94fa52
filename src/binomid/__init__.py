"""binomid: exact-arithmetic workbench for binomial coefficient identities.

Encodes a catalog of convolution identities, verifies them exhaustively
over integer parameter grids, certifies how literature identities arise as
substitution instances, and re-checks the integral-representation proofs
step by step with a formal Laurent-series residue engine.
"""
from .arith import binomial, exact_div, falling_factorial
from .catalog import Catalog, SpecializationClaim, check_specialization, load_builtin
from .dsl import ParseError, parse_catalog, parse_identity, print_identity
from .model import (
    BinomFactor,
    Identity,
    LinExpr,
    SumExpr,
    Substitution,
    Term,
    canonicalize,
    eval_identity,
    structurally_equal,
    substitute,
)
from .proofs import ProofReport, ProofScript, check_step, run_proof_script
from .resexpr import series_expand
from .series import LaurentSeries, geometric_collapse, res, residue_eval_simple_pole
from .verify import GridSpec, VerificationReport, bound_sensitivity, fuzz, verify_grid

__version__ = "0.1.0"
