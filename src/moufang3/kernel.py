"""The evaluation kernel, pure Python throughout.

Products, inverses and single draws are `_native`'s scalar reference;
identity sweeps run CHUNK lanes at a time on bit planes (`_batch`), and
`PolyEvaluator` counts the zeros of a polynomial system in at most 10
variables on bit planes of one lane per point (also `_batch`).  All of
them read polynomials in one flat format, `_native.flat_terms`.  The kernel
trusts its inputs: `loop.Loop` and `symbolic.embed` are where elements are
checked.
"""

from ._batch import LoopKernel, PolyEvaluator
from ._native import SWEEP_NAMES

BACKEND = "pure"
