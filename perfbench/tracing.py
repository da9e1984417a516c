"""In-memory span recorder wrapped around the library's public calls.

Tracing is installed from the outside: `Tracer.install` replaces public
functions and methods of moufang3 modules with recording wrappers and
`Tracer.uninstall` puts the originals back, so no library file changes and
an untraced run executes exactly the library's own code.

Each span stores its name, start and end (`perf_counter_ns`), the id of
the span it ran inside and the id of the benchmark operation it belongs
to.  Spans live in flat integer arrays while the run is going and are
written to disk once, at the end.
"""

from __future__ import annotations

import functools
import time
from array import array

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.sid = array("q")
        self._next = 0
        self._stack = [NO_PARENT]
        self._patched = []
        self.op_id = NO_PARENT
        # counters taken from return values at the same boundaries
        self.sweep_trials = 0
        self.proofs = 0
        self.refuted = 0
        self.max_coord_terms = 0
        self.points = 0

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self) -> tuple[int, int]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, nid, t0):
        t1 = time.perf_counter_ns()
        self._stack.pop()
        self.sid.append(sid)
        self.name.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(parent)
        self.op.append(self.op_id)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name` (used for the operation roots)."""
        nid = self._name_id(name)
        sid, parent = self._open()
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, parent, nid, t0)

    def wrap(self, name, fn, label=None, on_result=None):
        """A recording wrapper around fn.

        `label(args)` picks the span name from the call's arguments and
        `on_result(args, result)` feeds the counters.
        """
        fixed = None if label else self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if label is None else self._name_id(label(args, kwargs))
            sid, parent = self._open()
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, nid, t0)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def patch(self, owner, attr, name, **hooks):
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def install(self):
        from moufang3 import (cli, kernel, loop, polys, subloops, sweeps,
                              symbolic, tables)

        def on_sweep(args, result):
            self.sweep_trials += result.trials

        def on_proof(args, report):
            self.proofs += 1
            self.refuted += not report.proved
            self.max_coord_terms = max(self.max_coord_terms,
                                       report.telemetry["max_coord_terms"])

        def on_count(args, result):
            self.points += 3 ** args[0].nvars

        def sweep_name(args, kwargs):
            return "sweeps." + (args[1] if len(args) > 1 else kwargs["name"])

        self.patch(cli, "run_verification", "cli.run_verification")
        self.patch(sweeps, "run_sweep", "sweeps.run_sweep",
                   label=sweep_name, on_result=on_sweep)
        self.patch(kernel.PolyEvaluator, "count_all_zero",
                   "kernel.count_all_zero", on_result=on_count)
        for method in ("mul", "inverse", "left_div", "associator",
                       "random_element"):
            self.patch(loop.Loop, method, "loop." + method)
        self.patch(loop.Loop, "__init__", "loop.build")
        for fn in ("count_l_set", "density_sample", "closure",
                   "brute_count_l_set"):
            self.patch(subloops, fn, "subloops." + fn)
        for method in ("prove_identity_law", "prove_inverse_law",
                       "prove_moufang", "prove_normal_form"):
            self.patch(symbolic.SymbolicLoop, method, "symbolic." + method,
                       on_result=on_proof)
        self.patch(symbolic.SymbolicLoop, "mul", "symbolic.mul")
        self.patch(symbolic.SymbolicLoop, "associator_variety",
                   "symbolic.associator_variety")
        self.patch(polys.Poly, "substitute", "polys.substitute")
        # flatten_polys is imported by name into its two callers
        self.patch(subloops, "flatten_polys", "polys.flatten_polys")
        self.patch(symbolic, "flatten_polys", "polys.flatten_polys")
        for fn in ("parse_table", "validate_table", "compile_concrete"):
            self.patch(tables, fn, "tables." + fn)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of the spans
        directly inside it; calls run on one thread, so children never
        overlap.
        """
        index = {sid: i for i, sid in enumerate(self.sid)}
        child = [0] * len(self.sid)
        for i in range(len(self.sid)):
            p = self.parent[i]
            if p != NO_PARENT:
                child[index[p]] += self.end[i] - self.start[i]
        out = {}
        for i in range(len(self.sid)):
            dur = self.end[i] - self.start[i]
            calls, total, own = out.get(self.names[self.name[i]], (0, 0, 0))
            out[self.names[self.name[i]]] = (calls + 1, total + dur,
                                             own + dur - child[i])
        return {k: (c, t / 1e9, s / 1e9) for k, (c, t, s) in out.items()}

    def write(self, path):
        """All spans as tab-separated lines, in the order they ended."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.sid)):
                fh.write(f"{self.sid[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i]}\t{self.end[i]}\t"
                         f"{self.parent[i]}\t{self.op[i]}\n")
