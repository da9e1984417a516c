"""The report records: repr, immutability, JSON and pickling.

Every record class is a `typing.NamedTuple`.  Each one is built here through
the function that produces it in the program, and its `repr` is checked
against the `ClassName(field=value, ...)` format with the fields in their
documented order, assignment to a field is refused, and the `as_json()`
outputs are pinned to the values the reports have always had.
"""

import copy
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from moufang3 import (Loop, basis, closure, count_l_set, default_loop,
                      density_sample, f_table, h_table, kernel,
                      nonsubloop_witness, run_sweep, validate_tables, var)
from moufang3._native import PROMOTE_AT
from moufang3.cli import run_verification
from moufang3.symbolic import SymbolicLoop
from moufang3.tables import compile_concrete

ZERO = "(" + ",".join("0" * 19) + ")"


def e_str(i):
    return "(" + ",".join("1" if k == i else "0" for k in range(1, 20)) + ")"


def refuted_moufang():
    """The Moufang proof on the criterion-10 "f11 flipped coefficient" table."""
    bad = f_table().with_coord(11, f_table().coord(11) + var("x", 5) * var("y", 3))
    return SymbolicLoop(Loop(bad, h_table())).prove_moufang()


@pytest.fixture(scope="module")
def records(loop, sym):
    report = refuted_moufang()
    tables_report = validate_tables(loop.f, loop.h)
    return {
        "CheckResult": (run_verification(loop, 42, 10, symbolic=False)[0],
                        ("name", "passed", "details", "millis")),
        "IdentityCheck": (loop.identification_table()[0],
                          ("coord", "label", "computed")),
        "FormulaTable": (f_table(), ("name", "blocks", "coords")),
        "TableStats": (tables_report.f, ("name", "term_counts",
                                         "max_total_degree", "index_support")),
        "TableReport": (tables_report, ("f", "h")),
        "SweepResult": (run_sweep(loop, "moufang", seed=7, trials=50),
                        ("name", "law", "seed", "trials", "violations",
                         "first_failing_trial", "witness")),
        "ClosureResult": (closure(loop, [basis(11)]),
                          ("elements", "generators", "closed", "truncated")),
        "LSetCount": (count_l_set(loop, basis(3), basis(4), sym),
                      ("pair", "head_count", "head_total")),
        "DensityEstimate": (density_sample(loop, basis(3), basis(4), seed=5,
                                           trials=20),
                            ("pair", "hits", "trials", "seed")),
        "Witness": (nonsubloop_witness(loop),
                    ("generators", "members", "violating_element",
                     "violating_associator", "generator_triples")),
        "Refutation": (report.witness,
                       ("coord", "assignment", "elements", "lhs", "rhs")),
        "ProofReport": (report, ("claim", "proved", "nonzero_coords",
                                 "telemetry", "millis", "witness", "details")),
        "ConsistencyReport": (sym.consistency_sweep(seed=9, trials=3),
                              ("trials", "checks_per_trial", "mismatches",
                               "first_mismatch", "seed")),
    }


NAMES = ("CheckResult", "IdentityCheck", "FormulaTable", "TableStats",
         "TableReport", "SweepResult", "ClosureResult", "LSetCount",
         "DensityEstimate", "Witness", "Refutation", "ProofReport",
         "ConsistencyReport")


@pytest.mark.parametrize("name", NAMES)
def test_repr_lists_fields_in_order(records, name):
    record, fields = records[name]
    assert type(record).__name__ == name
    expected = name + "(" + ", ".join(
        f"{f}={getattr(record, f)!r}" for f in fields) + ")"
    assert repr(record) == expected


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned(records, name):
    record, fields = records[name]
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, None)


def test_witness_json(records):
    assert records["Witness"][0].as_json() == {
        "generators": [e_str(1), e_str(2), e_str(3), e_str(4)],
        "members_of_l_cd": [e_str(1), e_str(2)],
        "violating_element": e_str(5),
        "violating_associator": e_str(19),
        "generator_triples": {label: ZERO for label in
                              ("(a,b,c)", "(a,b,d)", "(a,c,d)", "(b,c,d)")},
    }


REFUTATION_JSON = {
    "coord": 11,
    "assignment": {"x2": 1, "x3": 1, "y1": 0, "y2": 0, "z1": 1, "z3": 0},
    "elements": {"x": "(0,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0)",
                 "y": ZERO,
                 "z": e_str(1)},
    "lhs": "(1,2,2,0,2,2,0,2,0,0,1,0,2,0,0,0,0,0,0)",
    "rhs": "(1,2,2,0,2,2,0,2,0,0,0,0,2,0,0,0,0,0,0)",
}


def test_refutation_and_proof_report_json(records, sym):
    assert records["Refutation"][0].as_json() == REFUTATION_JSON
    assert records["ProofReport"][0].as_json() == {
        "claim": "moufang",
        "verdict": "refuted",
        "nonzero_coords": [11],
        "telemetry": {"max_coord_terms": 154, "total_terms": 925,
                      "max_degree": 4, "diff_terms": 3},
        "witness": REFUTATION_JSON,
    }
    assert sym.prove_normal_form().as_json() == {
        "claim": "normal-form",
        "verdict": "proved",
        "nonzero_coords": [],
        "telemetry": {"max_coord_terms": 1, "total_terms": 19,
                      "max_degree": 1, "diff_terms": 0},
        "details": {"power_precheck": "pass"},
    }



def test_refutation_repr_is_the_same_in_every_process():
    # the assignment is ordered by variable, not by the string hashes of a
    # set, so two processes with different hash seeds print the same repr
    tests = Path(__file__).resolve().parent
    probe = (f"import sys; sys.path.insert(0, {str(tests)!r}); "
             "from test_records import refuted_moufang; "
             "w = refuted_moufang().witness; print(repr(w)); "
             "print(list(w.assignment) == sorted(w.assignment))")
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(tests.parent / "src"))
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        outs.append(done.stdout.splitlines())
    assert outs[0] == outs[1]
    assert outs[0][1] == "True"


@pytest.mark.parametrize("argv", [
    ("verify", "--format", "json", "--trials", "200"),
    ("density", "e3", "e4", "--mode", "sample", "--trials", "50",
     "--format", "json")], ids=["verify", "density-sample"])
def test_reports_are_the_same_in_every_process(argv):
    # README: byte-identical across runs for a fixed command and seed,
    # except for the millis fields
    src = Path(__file__).resolve().parent.parent / "src"
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
        env.pop("MOUFANG3_SEED", None)
        env.pop("MOUFANG3_TRIALS", None)
        done = subprocess.run([sys.executable, "-m", "moufang3", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        outs.append(re.sub(r'"millis": \d+', '"millis": 0', done.stdout))
    assert outs[0] == outs[1]

@pytest.mark.parametrize("copier", [lambda x: pickle.loads(pickle.dumps(x)),
                                    copy.deepcopy], ids=["pickle", "deepcopy"])
def test_round_trips(copier):
    p = var("x", 1) * var("y", 2) + 2 * var("x", 3)
    q = copier(p)
    assert q == p and str(q) == str(p) and hash(q) == hash(p)

    table = f_table()
    copied = copier(table)
    assert copied == table and str(copied) == str(table)

    report = refuted_moufang()
    copied = copier(report)
    assert copied.witness is not None
    assert copied == report and copied.as_json() == report.as_json()



def _kernel_ops(k):
    """(mul, inverse) of a Loop or of a bare kernel."""
    return (k.mul, k.inverse) if isinstance(k, Loop) else (k.mul, k.inv)


@pytest.mark.parametrize("copier", [lambda x: pickle.loads(pickle.dumps(x)),
                                    copy.deepcopy], ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("calls", [0, 2, PROMOTE_AT],
                         ids=["fresh", "used", "promoted"])
@pytest.mark.parametrize("build", [
    Loop, lambda: kernel.LoopKernel(compile_concrete(f_table()),
                                    compile_concrete(h_table()))],
    ids=["Loop", "kernel"])
def test_loop_and_kernel_round_trips(copier, calls, build):
    # a kernel binds generated functions on the instance when it promotes;
    # a copy made before or after rebuilds from the terms, interpreted
    state, xs = 11, []
    for _ in range(30):
        x, state = default_loop().random_element(state)
        xs.append(x)
    original = build()
    mul, inv = _kernel_ops(original)
    for i in range(calls):
        mul(xs[i % 29], xs[i % 29 + 1]) if i % 2 else inv(xs[i % 30])
    bare = getattr(original, "_kernel", original)
    assert ("mul" in vars(bare)) == (calls == PROMOTE_AT)
    copied = copier(original)
    assert type(copied) is type(original)
    assert "mul" not in vars(getattr(copied, "_kernel", copied))
    copied_mul, copied_inv = _kernel_ops(copied)
    assert [copied_mul(x, y) for x, y in zip(xs, xs[1:])] == \
        [mul(x, y) for x, y in zip(xs, xs[1:])]
    assert [copied_inv(x) for x in xs] == [inv(x) for x in xs]
