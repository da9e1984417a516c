"""The evaluation kernel, pure Python throughout.

Products, inverses and single draws are `_native`'s scalar reference;
identity sweeps run CHUNK lanes at a time on bit planes (`_batch`).
"""

from ._batch import LoopKernel
from ._native import SWEEP_NAMES, PolyEvaluator

BACKEND = "pure"
