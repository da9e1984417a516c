"""Backend selection: compiled extension when available, pure Python otherwise.

The pure backend is `_native`'s scalar kernel with the bit-sliced batched
sweeps of `_batch`.  Set MOUFANG3_PURE=1 to force the pure backend (useful
for benchmarking and for debugging suspected kernel divergences).
"""

import os

if os.environ.get("MOUFANG3_PURE"):
    from . import _batch as _impl
else:
    try:
        from . import _speedups as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _batch as _impl

LoopKernel = _impl.LoopKernel
PolyEvaluator = _impl.PolyEvaluator
BACKEND = _impl.BACKEND
SWEEP_NAMES = _impl.SWEEP_NAMES
