"""Seeded randomized identity sweeps over the concrete loop.

Each sweep draws fresh elements per trial from the deterministic
xorshift-star stream and checks one law exactly; a violation count of zero
over a large trial budget is evidence (the symbolic proofs are the actual
proof).  Alternativity and flexibility are swept in product form, e.g.
(x o x) o y = x o (x o y), which is the same statement as the triviality of
the corresponding associator but avoids divisions in the hot loop.

Sweeps restart from the same seed, so the element-only laws read one
stream of elements.  `SharedSweeps` runs several sweeps of one loop, seed
and budget in a single kernel pass that draws that stream once; passed as
`run_sweep(..., shared=...)` it gives each sweep the result it would get on
its own.  Its `seconds` split the pass's wall time between the sweeps: each
gets its own evaluation plus a share of the shared draws in proportion to
the elements its trials read (3:2:2:2:1 for Moufang, the two alternative
laws, flexibility and the inverse law), so the shares sum to the pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from .kernel import SWEEP_NAMES
from .loop import Element, Loop, check_seed, default_loop

__all__ = ["SWEEP_NAMES", "SharedSweeps", "SweepResult", "run_sweep",
           "run_all"]

_DESCRIPTIONS = {
    "moufang": "(x*y)*(z*x) = (x*(y*z))*x",
    "left_alternative": "(x*x)*y = x*(x*y)",
    "right_alternative": "(y*x)*x = y*(x*x)",
    "flexible": "(x*y)*x = x*(y*x)",
    "inverse": "x*x^-1 = x^-1*x = 1",
    "tail_central": "z supported on 11..19 implies x*z = z*x = x+z",
}


@dataclass(frozen=True)
class SweepResult:
    name: str
    law: str
    seed: int
    trials: int
    violations: int
    first_failing_trial: int         # -1 when clean
    witness: tuple | None            # drawn elements of the first violation

    @property
    def ok(self) -> bool:
        return self.violations == 0


class SharedSweeps:
    """The six sweeps of one loop, seed and budget, run in one kernel pass.

    The pass runs on the first `result` call.  After it, `seconds` maps
    each sweep name to its share of the pass's wall time (see the module
    docstring).
    """

    def __init__(self, loop: Loop | None, seed: int = 42,
                 trials: int = 1_000_000):
        self.loop = loop if loop is not None else default_loop()
        self.seed, self.trials = seed, trials
        self.seconds: dict = {}
        self._results: dict | None = None

    def result(self, name: str) -> tuple:
        """(violations, first failing trial, witness) of one sweep."""
        if self._results is None:
            kern = self.loop._kernel
            if hasattr(kern, "sweep_many"):
                self._results, self.seconds = kern.sweep_many(
                    SWEEP_NAMES, self.seed, self.trials)
            else:        # a kernel without a shared pass: one sweep each
                self._results = {}
                for n in SWEEP_NAMES:
                    t0 = perf_counter()
                    self._results[n] = kern.sweep(n, self.seed, self.trials)
                    self.seconds[n] = perf_counter() - t0
        return self._results[name]


def run_sweep(loop: Loop | None, name: str, seed: int = 42,
              trials: int = 1_000_000,
              shared: SharedSweeps | None = None) -> SweepResult:
    """Run one named sweep; see SWEEP_NAMES for the choices.

    With `shared`, the result is read from that pass, which must be of
    this loop, seed and budget.
    """
    if name not in SWEEP_NAMES:
        raise ValueError(f"unknown sweep {name!r}; choose from {SWEEP_NAMES}")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    lp = loop if loop is not None else default_loop()
    check_seed(seed)
    if shared is None:
        violations, first, witness = lp._kernel.sweep(name, seed, trials)
    elif shared.loop is lp and (shared.seed, shared.trials) == (seed, trials):
        violations, first, witness = shared.result(name)
    else:
        raise ValueError(f"the shared pass is not of this loop at seed "
                         f"{seed} and {trials} trials")
    return SweepResult(name, _DESCRIPTIONS[name], seed, trials,
                       violations, first, witness)


def run_all(loop: Loop | None = None, seed: int = 42,
            trials: int = 1_000_000) -> list:
    """All six sweeps, each restarted from the same seed, in one pass."""
    shared = SharedSweeps(loop, seed, trials)
    return [run_sweep(shared.loop, name, seed, trials, shared=shared)
            for name in SWEEP_NAMES]
