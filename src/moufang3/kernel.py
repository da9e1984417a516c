"""The evaluation kernel, pure Python throughout.

Products, inverses and single draws are `_native`'s scalar reference;
identity sweeps run CHUNK lanes at a time on bit planes (`_batch`).  The
kernel trusts its inputs: `loop.Loop` and `symbolic.embed` are where
elements are checked.
"""

from ._batch import LoopKernel
from ._native import SWEEP_NAMES, PolyEvaluator

BACKEND = "pure"
