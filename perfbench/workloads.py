"""The three workloads: inputs made from the seed, one operation, its gate.

Every workload is a closed loop: one caller, one operation at a time, the
next one started only when the previous one returned.  An operation's
inputs come from `random.Random(seed)` on the benchmark's side; the library
only sees the generated inputs.

Each gate raises CheckFailed, which ends the run without a result line.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import moufang3
from moufang3 import _native, cli, kernel, subloops, sweeps, tables
from moufang3.loop import Loop, basis, default_loop, identity
from moufang3.polys import Var
from moufang3.symbolic import SymbolicLoop

import reference

SWEEP_TRIALS = 2000            # per-law budget T of one `verify` process
AUDIT_UNMODIFIED_SHARE = 0.25  # share of audit operations on the shipped tables
DENSITY_SAMPLES = 1000         # density_sample trials per assoc pair
SPOT_CHECKS = 2                # seeded concrete checks per proved verdict
GATE_TRIALS = 200              # sweep budget of the corrupted-table gate
HEAD_TOTAL = 3 ** 10
LCD_HEAD_COUNT = 19683

F_BLOCKS, H_BLOCKS = ("x", "y"), ("x",)
CLAIMS = ("identity_law", "inverse_law", "moufang", "normal_form")


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def seed64(rng: random.Random) -> int:
    """A nonzero 64-bit xorshift-star state."""
    return rng.getrandbits(64) | 1


def random_element(rng: random.Random) -> tuple:
    return tuple(rng.randrange(3) for _ in range(19))


def data_dir() -> Path:
    return Path(moufang3.__file__).parent / "data"


# -- sweeps ------------------------------------------------------------------

# `python -m moufang3 ARGS` with the reference timed inside the same process
# before and after, and cli.main timed; the timings go to stderr as its
# last line
VERIFY_CHILD = """\
import json, sys, time
import reference
before = reference.timed("kernel", 5)
from moufang3.cli import main
t0 = time.perf_counter()
code = main(sys.argv[1:])
main_s = time.perf_counter() - t0
after = reference.timed("kernel", 5)
print(json.dumps([before, after, main_s]), file=sys.stderr)
sys.exit(code)
"""


class InProcess:
    """Operations that run inside the benchmark process."""

    def measure(self, op):
        """(result, seconds, reference ms) of one operation; the reference
        is the mean of one timed just before it and one just after."""
        before = reference.timed(*self.reference)
        t0 = time.perf_counter()
        result = self.execute(op)
        dt = time.perf_counter() - t0
        return result, dt, (before + reference.timed(*self.reference)) / 2

    def samples_ms(self, result, dt):
        """The latencies one operation contributes: its own."""
        return [dt * 1000]

    def work(self, result, dt):
        """(items of work done, seconds they took): one variant or pair."""
        return 1, dt

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Sweeps:
    """`moufang3 verify --format json` processes on the shipped tables."""

    name = "sweeps"
    pass_size = 1          # a pass is one verify process
    tail_pct = 90          # 22-36 processes x 6 sweep rows in 30 s
    trace_ops = 3

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = root, seed
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            (str(root / "src"), str(Path(__file__).resolve().parent))))
        self.rss_kb = 0
        self.main_s = 0.0      # cli.main inside the last verify process

    def ops(self):
        rng = random.Random(self.seed)
        while True:
            yield seed64(rng)

    def argv(self, verify_seed, trials=SWEEP_TRIALS):
        return ["verify", "--format", "json", "--seed", str(verify_seed),
                "--trials", str(trials)]

    def measure(self, verify_seed):
        """One verify process, timed as the user waits for it.

        The seconds leave out the reference runs the process made.
        """
        cmd = [sys.executable, "-c", VERIFY_CHILD, *self.argv(verify_seed)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=self.env,
                              cwd=self.root) as proc:
            out = proc.stdout.read()
            err = proc.stderr.read().decode()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - t0
        self.rss_kb = max(self.rss_kb, usage.ru_maxrss)
        require(proc.returncode == 0,
                f"verify exited {proc.returncode}: {err[-300:]}")
        before, after, self.main_s = json.loads(err.splitlines()[-1])
        return json.loads(out), wall - 5 * (before + after) / 1000, \
            (before + after) / 2

    def peak_rss_kb(self):
        return self.rss_kb

    def execute(self, verify_seed, trials=SWEEP_TRIALS):
        """The same verify through cli.main in this process (traced runs)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv(verify_seed, trials))
        require(code == 0, f"in-process verify exited {code}")
        return json.loads(buf.getvalue())

    def check(self, verify_seed, report, trials=SWEEP_TRIALS):
        require(report["overall"] == "pass", "verify overall verdict is fail")
        rows = {c["name"]: c for c in report["checks"]}
        for law in sweeps.SWEEP_NAMES:
            row = rows.get("sweep_" + law)
            require(row is not None, f"sweep_{law} missing from the report")
            require(row["verdict"] == "pass"
                    and row["details"]["violations"] == 0
                    and row["details"]["trials"] == trials,
                    f"sweep_{law}: {row['details']}")
        for claim in ("identity", "inverse", "moufang", "normal-form"):
            row = rows.get("prove_" + claim)
            require(row is not None and row["verdict"] == "pass",
                    f"prove_{claim} did not prove")

    def samples_ms(self, report, dt):
        return [c["millis"] for c in report["checks"]
                if c["name"].startswith("sweep_")]

    def work(self, report, dt):
        """(sweep trials, seconds the sweeps took) of one verify."""
        millis = sum(self.samples_ms(report, dt))
        return len(sweeps.SWEEP_NAMES) * SWEEP_TRIALS, millis / 1000

    def after_window(self):
        corrupted_table_gate(self.seed)


# the fixed corruption: [a,b] loses its sign, which breaks several laws
GATE_EDIT = ("5; 2; x2*y1", "5; 1; x2*y1")
_MASK64 = (1 << 64) - 1
_RNG_MULTIPLIER = 2685821657736338717


class _Xorshift:
    """The documented xorshift-star stream (12/25/27, one trit per output)."""

    def __init__(self, state):
        self.s = state

    def trit(self):
        s = self.s
        s ^= s >> 12
        s = (s ^ (s << 25)) & _MASK64
        s ^= s >> 27
        self.s = s
        return ((s * _RNG_MULTIPLIER) & _MASK64) % 3

    def element(self):
        return tuple(self.trit() for _ in range(19))

    def tail(self):
        return (0,) * 10 + tuple(self.trit() for _ in range(9))


class _TableProduct:
    """x o y and the raw inverse evaluated straight from the table polynomials."""

    def __init__(self, f, h):
        self.f, self.h = f.coords, h.coords

    def mul(self, x, y):
        env = {Var("x", i + 1): x[i] for i in range(10)}
        env.update((Var("y", i + 1), y[i]) for i in range(10))
        return tuple((x[k] + y[k] + self.f[k].evaluate(env)) % 3
                     for k in range(19))

    def inv(self, x):
        env = {Var("x", i + 1): x[i] for i in range(10)}
        return tuple((-x[k] + self.h[k].evaluate(env)) % 3 for k in range(19))


# what each sweep draws per trial: "e" a 19-trit element, "t" a 9-trit tail
SWEEP_DRAWS = {"moufang": "eee", "left_alternative": "ee",
               "right_alternative": "ee", "flexible": "ee", "inverse": "e",
               "tail_central": "et"}


def law_holds(prod: _TableProduct, name, drawn) -> bool:
    m, e = prod.mul, identity()
    if name == "moufang":
        x, y, z = drawn
        return m(m(x, y), m(z, x)) == m(m(x, m(y, z)), x)
    if name == "inverse":
        x, = drawn
        w = prod.inv(x)
        return m(x, w) == e == m(w, x)
    x, y = drawn
    if name == "left_alternative":
        return m(m(x, x), y) == m(x, m(x, y))
    if name == "right_alternative":
        return m(m(y, x), x) == m(y, m(x, x))
    if name == "flexible":
        return m(m(x, y), x) == m(x, m(y, x))
    want = tuple((a + b) % 3 for a, b in zip(x, y))     # tail_central
    return m(x, y) == want == m(y, x)


def reference_sweep(prod: _TableProduct, name, seed, trials):
    """An oracle for LoopKernel.sweep that shares no code with the kernels."""
    rng = _Xorshift(seed)
    violations, first, witness = 0, -1, None
    for i in range(trials):
        drawn = tuple(rng.element() if c == "e" else rng.tail()
                      for c in SWEEP_DRAWS[name])
        if not law_holds(prod, name, drawn):
            violations += 1
            if first < 0:
                first, witness = i, drawn
    return violations, first, witness


def corrupted_table_gate(seed):
    """Rerun the six sweeps on one fixed corrupted table at a small budget.

    The selected kernel, the `_native` reference and the public run_sweep
    must agree with an oracle that evaluates the table polynomials
    directly, and the corruption must be caught, so a kernel that always
    reports zero violations cannot pass.
    """
    text = (data_dir() / "f_table.txt").read_text()
    require(GATE_EDIT[0] in text, "gate edit target missing from f_table.txt")
    f = tables.parse_table(text.replace(*GATE_EDIT), "f", F_BLOCKS)
    h = tables.h_table()
    flat = tables.compile_concrete(f), tables.compile_concrete(h)
    kernels = {"kernel": kernel.LoopKernel(*flat),
               "_native": _native.LoopKernel(*flat)}
    lp = Loop(f, h)
    prod = _TableProduct(f, h)
    state = seed64(random.Random(seed))
    caught = 0
    for law in sweeps.SWEEP_NAMES:
        want = reference_sweep(prod, law, state, GATE_TRIALS)
        got = {k: tuple(kern.sweep(law, state, GATE_TRIALS))
               for k, kern in kernels.items()}
        r = sweeps.run_sweep(lp, law, state, GATE_TRIALS)
        got["run_sweep"] = (r.violations, r.first_failing_trial, r.witness)
        for k, v in got.items():
            require(v == want, f"corrupted-table sweep {law}: {k} gave "
                    f"{v[:2]}, the oracle {want[:2]}")
        caught += want[0] > 0
    require(caught > 0, "the corrupted table passed every sweep")


# -- audit -------------------------------------------------------------------

def edit_table(text: str, blocks, rng: random.Random) -> str:
    """One valid single-monomial edit: add a line, drop a line or flip a
    coefficient.  Added monomials read coordinates 5..19, distinct factors
    from the table's blocks, indices 1..10, degree 1..4."""
    lines = text.splitlines()
    monomials = [i for i, line in enumerate(lines)
                 if line.strip() and not line.lstrip().startswith("#")]
    kind = rng.choice(("add", "drop", "flip"))
    if kind == "drop":
        del lines[rng.choice(monomials)]
    elif kind == "flip":
        i = rng.choice(monomials)
        coord, coeff, factors = (p.strip() for p in lines[i].split(";"))
        lines[i] = f"{coord}; {3 - int(coeff)}; {factors}"
    else:
        factors = rng.sample([(b, i) for b in blocks for i in range(1, 11)],
                             rng.randint(1, 4))
        lines.append(f"{rng.randint(5, 19)}; {rng.choice((1, 2))}; "
                     + "*".join(f"{b}{i}" for b, i in sorted(factors)))
    return "\n".join(lines) + "\n"


class Audit(InProcess):
    """parse_table -> Loop -> the four proofs, on seeded table variants."""

    name = "audit"
    pass_size = 32
    tail_pct = 98          # 680-1350 variants in 30 s leave 14-27 beyond
    trace_ops = 160
    reference = ("polys", 1)    # reference kind and runs around each variant

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = root, seed
        self.f_text = (data_dir() / "f_table.txt").read_text()
        self.h_text = (data_dir() / "h_table.txt").read_text()

    def ops(self):
        rng = random.Random(self.seed)
        while True:
            f_text, h_text, edited = self.f_text, self.h_text, False
            if rng.random() >= AUDIT_UNMODIFIED_SHARE:
                edited = True
                if rng.random() < 0.5:
                    f_text = edit_table(f_text, F_BLOCKS, rng)
                else:
                    h_text = edit_table(h_text, H_BLOCKS, rng)
            yield f_text, h_text, edited, seed64(rng)

    def execute(self, op):
        f_text, h_text = op[0], op[1]
        f = tables.parse_table(f_text, "f", F_BLOCKS)
        h = tables.parse_table(h_text, "h", H_BLOCKS)
        lp = Loop(f, h)
        sym = SymbolicLoop(lp)
        return lp, [getattr(sym, "prove_" + c)() for c in CLAIMS]

    def check(self, op, result):
        lp, reports = result
        edited, rng = op[2], random.Random(op[3])
        if not edited:
            require(all(r.proved for r in reports),
                    "a proof failed on the shipped tables")
        for claim, report in zip(CLAIMS, reports):
            if report.proved:
                for _ in range(SPOT_CHECKS):
                    spot_check(lp, claim, rng)
            else:
                confirm_refutation(lp, claim, report)


def spot_check(lp: Loop, claim, rng):
    """A proved law must hold on a seeded concrete element through Loop.mul."""
    x, y, z = random_element(rng), random_element(rng), random_element(rng)
    m, e = lp.mul, identity()
    if claim == "moufang":
        ok = m(m(x, y), m(z, x)) == m(m(x, m(y, z)), x)
    elif claim == "identity_law":
        ok = m(e, x) == x == m(x, e)
    elif claim == "inverse_law":
        w = lp.inverse(x)          # raises if the inverse law fails at x
        ok = m(x, w) == e == m(w, x)
    else:
        acc = lp.power(basis(1), x[0])
        for i in range(2, 20):
            acc = m(acc, lp.power(basis(i), x[i - 1]))
        ok = acc == x
    require(ok, f"proved {claim} fails at a concrete point")


_PRECHECK = re.compile(r"([fh])\((?:(\d)\*e(\d+), )?(\d)\*e(\d+)\)")


def confirm_refutation(lp: Loop, claim, report):
    """A refuted claim must fail concretely: its witness sides differ, or a
    failed power precheck of the normal form reproduces.

    The precheck is the normal form's own refutation: when e_i^t is not
    t*e_i, the concrete product of powers need not differ from t at the
    symbolic witness (adding `6; 1; y6` to f is one such table).
    """
    w = report.witness
    if w is not None and w.lhs != w.rhs:
        return
    failures = report.details.get("power_precheck")
    require(claim == "normal_form" and isinstance(failures, list),
            f"refutation of {claim} does not reproduce")
    which, s, i, t, j = _PRECHECK.match(failures[0]).groups()
    raw = kernel.LoopKernel(tables.compile_concrete(lp.f),
                            tables.compile_concrete(lp.h))
    ej = basis(int(j))
    te = tuple(int(t) * v % 3 for v in ej)
    if which == "f":
        se = tuple(int(s) * v % 3 for v in ej)
        ok = raw.mul(se, te) != tuple((int(s) + int(t)) * v % 3 for v in ej)
    else:
        ok = raw.inv(te) != tuple(-v % 3 for v in te)
    require(ok, f"normal-form precheck failure {failures[0]!r} does not reproduce")


# -- assoc -------------------------------------------------------------------

class Assoc(InProcess):
    """count_l_set and density_sample for seeded pairs (a, b)."""

    name = "assoc"
    pass_size = 4
    tail_pct = 85          # 66-105 pairs in 30 s leave 10-16 beyond
    trace_ops = 12
    reference = ("kernel", 3)   # reference kind and runs around each pair

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = root, seed
        self.loop = default_loop()
        self.sym = SymbolicLoop(self.loop)

    def ops(self):
        rng = random.Random(self.seed)
        yield basis(3), basis(4), seed64(rng)
        while True:
            yield random_element(rng), random_element(rng), seed64(rng)

    def execute(self, op):
        a, b, state = op
        count = subloops.count_l_set(self.loop, a, b, self.sym)
        est = subloops.density_sample(self.loop, a, b, seed=state,
                                      trials=DENSITY_SAMPLES)
        return count, est

    def check(self, op, result):
        count, est = result
        if (op[0], op[1]) == (basis(3), basis(4)):
            require(count.head_count == LCD_HEAD_COUNT,
                    f"|l_(e3,e4)| heads = {count.head_count}, want {LCD_HEAD_COUNT}")
        p = count.head_count / HEAD_TOTAL
        n = est.trials
        require(n == DENSITY_SAMPLES, "density_sample ran the wrong count")
        sigma = math.sqrt(n * p * (1 - p))
        require(abs(est.hits - n * p) <= 4 * sigma,
                f"density sample {est.hits}/{n} is more than 4 sigma from {p:.4f}")


WORKLOADS = {w.name: w for w in (Sweeps, Audit, Assoc)}
