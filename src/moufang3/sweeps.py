"""Seeded randomized identity sweeps over the concrete loop.

Each sweep draws fresh elements per trial from the deterministic
xorshift-star stream and checks one law exactly; a violation count of zero
over a large trial budget is evidence (the symbolic proofs are the actual
proof).  Alternativity and flexibility are swept in product form, e.g.
(x o x) o y = x o (x o y), which is the same statement as the triviality of
the corresponding associator but avoids divisions in the hot loop.

Sweeps restart from the same seed, so all six laws read one stream.
`SharedSweeps` runs the sweeps of one loop, seed and budget in a single
kernel pass that draws that stream once; passed as
`run_sweep(..., shared=...)` it gives each sweep the result it would get on
its own.  Its `seconds` give each sweep the pass's wall time in proportion
to the trits its trials read (57:38:38:38:19:28 for Moufang, the two
alternative laws, flexibility, the inverse law and tail centrality).
"""

from __future__ import annotations

from time import perf_counter
from typing import NamedTuple

from ._native import LAWS, SWEEP_NAMES, _check_sweep, sweep_law
from .loop import Loop, default_loop

__all__ = ["SWEEP_NAMES", "SharedSweeps", "SweepResult", "run_sweep",
           "run_all"]


class SweepResult(NamedTuple):
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
        """(violations, first failing trial, witness) of one sweep; an
        unknown name is refused before the pass runs."""
        sweep_law(name)
        if self._results is None:
            t0 = perf_counter()
            self._results = self.loop._kernel.sweep_many(
                SWEEP_NAMES, self.seed, self.trials)
            wall = perf_counter() - t0
            reads = sum(LAWS[n].trits for n in SWEEP_NAMES)
            self.seconds = {n: wall * LAWS[n].trits / reads
                            for n in SWEEP_NAMES}
        return self._results[name]


def run_sweep(loop: Loop | None, name: str, seed: int = 42,
              trials: int = 1_000_000,
              shared: SharedSweeps | None = None) -> SweepResult:
    """Run one named sweep; see SWEEP_NAMES for the choices.

    With `shared`, the result is read from that pass, which must be of
    this loop, seed and budget.
    """
    _check_sweep((name,), seed, trials)
    lp = loop if loop is not None else default_loop()
    if shared is None:
        violations, first, witness = lp._kernel.sweep(name, seed, trials)
    elif shared.loop is lp and (shared.seed, shared.trials) == (seed, trials):
        violations, first, witness = shared.result(name)
    else:
        raise ValueError(f"the shared pass is not of this loop at seed "
                         f"{seed} and {trials} trials")
    return SweepResult(name, LAWS[name].description, seed, trials,
                       violations, first, witness)


def run_all(loop: Loop | None = None, seed: int = 42,
            trials: int = 1_000_000) -> list:
    """All six sweeps, each restarted from the same seed, in one pass."""
    shared = SharedSweeps(loop, seed, trials)
    return [run_sweep(shared.loop, name, seed, trials, shared=shared)
            for name in SWEEP_NAMES]
