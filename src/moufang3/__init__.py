"""moufang3: a nonassociative Moufang loop of order 3^19, exactly.

The loop lives on F_3^19 with the product x o y = x + y + f(x, y), where f
is a fixed table of sparse polynomials of degree at most 4 (see
moufang3.tables).  The package evaluates the loop concretely, proves the
loop axioms symbolically by exact polynomial arithmetic with the reduction
x^3 = x, and verifies that the set of elements associating with a fixed
pair need not be a subloop even though every triple from the generating set
associates.

Hot kernels (concrete products, identity sweeps, brute-force counting) are
pure Python; the identity sweeps run many trials at once on bit planes
(see moufang3.kernel).
"""

from .errors import (AmbiguousBracketing, CanonicalFormBroken,
                     DivisionCheckFailed, InverseLawViolation, LoopLawError,
                     OrderNotFoundWithinCap, ParseError, TailCentralityBroken,
                     UnboundVariable, ValidationFailure, WitnessFailed,
                     ZeroSeed)
from .kernel import BACKEND
from .loop import (Element, IdentityCheck, Loop, basis, default_loop,
                   format_element, identity, parse_element, vec_add, vec_neg,
                   vec_scale)
from .polys import Monomial, Poly, Var, var
from .subloops import (ClosureResult, DensityEstimate, LSetCount, Witness,
                       brute_count_l_set, closure, count_l_set,
                       density_sample, in_l_set, is_closed,
                       nonsubloop_witness)
from .sweeps import SWEEP_NAMES, SweepResult, run_all, run_sweep
from .symbolic import (ConsistencyReport, ProofReport, Refutation, SymElement,
                       SymbolicLoop, embed, generic)
from .tables import (FormulaTable, TableReport, f_table, h_table,
                     validate_tables)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousBracketing", "BACKEND", "CanonicalFormBroken",
    "ClosureResult", "ConsistencyReport", "DensityEstimate",
    "DivisionCheckFailed", "Element", "FormulaTable", "IdentityCheck",
    "InverseLawViolation", "LSetCount", "Loop", "LoopLawError", "Monomial",
    "OrderNotFoundWithinCap", "ParseError", "Poly", "ProofReport",
    "Refutation", "SWEEP_NAMES", "SweepResult", "SymElement",
    "SymbolicLoop", "TableReport", "TailCentralityBroken",
    "UnboundVariable", "ValidationFailure", "Var", "Witness",
    "WitnessFailed", "ZeroSeed", "basis", "brute_count_l_set", "closure",
    "count_l_set", "default_loop", "density_sample", "embed", "f_table",
    "format_element", "generic", "h_table", "identity", "in_l_set",
    "is_closed", "nonsubloop_witness", "parse_element", "run_all",
    "run_sweep", "validate_tables", "var", "vec_add", "vec_neg",
    "vec_scale",
]
