"""Symbolic proofs of the six swept laws, read from `_native.LAWS`.

`SymbolicLoop.prove_law` reads each law from the table the sweeps read, so
the cases here pin which laws each corrupted table refutes, replay every
witness through the concrete loop with the laws written out by hand (the
oracle of `test_law_oracle`), and write flexibility out once more over
`SymbolicLoop.mul`, so that a typo in the table cannot pass both.
"""

from functools import lru_cache
from types import SimpleNamespace

import pytest

from moufang3 import (InverseLawViolation, SymbolicLoop, f_table, generic,
                      h_table)
from moufang3._native import SWEEP_NAMES
from moufang3.loop import Loop
from moufang3.polys import var

from test_acceptance import MUTATIONS
from test_law_oracle import ORACLE

# x1*x2 in f7 reads x alone, so x*z != x + z for a tail z wherever x1 and
# x2 are nonzero: the one table here that breaks tail centrality
F7_GAINS = ("f7 gains x1*x2", "f", 7,
            f_table().coord(7) + var("x", 1) * var("x", 2))
TABLES = {"shipped": None, **{m[0]: m for m in MUTATIONS},
          F7_GAINS[0]: F7_GAINS}

ALL = set(SWEEP_NAMES)
REFUTED = {
    "shipped": set(),
    "f5 swapped variable": ALL - {"tail_central"},
    "f10 swapped factors": {"moufang", "left_alternative",
                            "right_alternative", "flexible"},
    "f19 dropped monomial": ALL - {"left_alternative", "tail_central"},
    "f11 flipped coefficient": ALL - {"tail_central"},
    "h5 flipped sign": {"inverse"},
    "h19 dropped factor": {"inverse"},
    "f7 gains x1*x2": ALL,
}


@lru_cache(maxsize=None)
def proofs(table):
    """The loop of a table and its six law proofs, keyed by law."""
    f, h = f_table(), h_table()
    mutation = TABLES[table]
    if mutation is not None:
        _, which, coord, poly = mutation
        f = f.with_coord(coord, poly) if which == "f" else f
        h = h.with_coord(coord, poly) if which == "h" else h
    loop = Loop(f, h)
    sym = SymbolicLoop(loop)
    return loop, sym, {name: sym.prove_law(name) for name in SWEEP_NAMES}


def test_matrix_covers_every_table():
    assert sorted(REFUTED) == sorted(TABLES)


def test_every_law_is_proved_on_the_shipped_tables():
    _, _, reports = proofs("shipped")
    for name, report in reports.items():
        assert report.claim == name
        assert report.proved, name
        assert report.nonzero_coords == () and report.witness is None
        assert report.telemetry["diff_terms"] == 0


@pytest.mark.parametrize("table", TABLES)
def test_refuted_laws(table):
    _, _, reports = proofs(table)
    assert {n for n, r in reports.items() if not r.proved} == REFUTED[table]


@pytest.mark.parametrize("table", TABLES)
def test_witnesses_violate_the_law_concretely(table):
    loop, _, reports = proofs(table)
    # the scalar loop's checked product; the raw inverse, since the checked
    # one refuses to return where the inverse law fails
    ops = SimpleNamespace(mul=loop.mul, inv=loop._kernel.inv)
    for name in REFUTED[table]:
        w = reports[name].witness
        assert w.lhs != w.rhs
        holds, draws = ORACLE[name]
        args = [w.elements[b] for b in sorted(w.elements)]
        assert len(args) == len(draws)
        assert not holds(ops, *args), name
        if name == "inverse":
            zero = (0,) * 19
            assert w.rhs == (zero, zero)
            with pytest.raises(InverseLawViolation):
                loop.inverse(args[0])
        if name == "tail_central":
            assert args[1][:10] == (0,) * 10


def test_f7_gain_breaks_tail_centrality_in_the_sweep():
    loop, _, _ = proofs(F7_GAINS[0])
    violations, first, _ = loop._kernel.sweep("tail_central", 42, 200)
    assert (violations, first) == (85, 2)


def flexible_by_hand(sym):
    """Nonzero coordinates of (x o y) o x - x o (y o x), not read from LAWS."""
    x, y = generic("x"), generic("y")
    lhs = sym.mul(sym.mul(x, y), x)
    rhs = sym.mul(x, sym.mul(y, x))
    return tuple(k + 1 for k in range(19)
                 if not (lhs.coords[k] - rhs.coords[k]).is_zero())


@pytest.mark.parametrize("table", TABLES)
def test_flexibility_matches_the_hand_written_sides(table):
    _, sym, reports = proofs(table)
    assert reports["flexible"].nonzero_coords == flexible_by_hand(sym)


def test_named_proofs_are_prove_law(sym):
    assert sym.prove_moufang().as_json() == sym.prove_law("moufang").as_json()
    inverse = sym.prove_inverse_law().as_json()
    assert inverse.pop("claim") == "inverse-law"
    law = sym.prove_law("inverse").as_json()
    assert law.pop("claim") == "inverse"
    assert inverse == law
