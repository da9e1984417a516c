"""The symbolic prover: generic elements, the four proofs, refutations."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moufang3 import (SWEEP_NAMES, DivisionCheckFailed, Poly, SymbolicLoop,
                      Var, basis, embed, f_table, generic, h_table, identity)
from moufang3.loop import Loop
from moufang3.polys import var
from moufang3.symbolic import EXTRA_PAIRS, assignment_for, nonzero_point

elements = st.tuples(*(st.integers(0, 2) for _ in range(19)))


def e(i):
    return basis(i)


def evaluate(element, assignment):
    """A symbolic element, a 19-tuple of polynomials, at an assignment."""
    return tuple(p.evaluate(assignment) for p in element)


# -- generic and embedded elements ---------------------------------------------

def test_generic_coords_are_single_variables():
    x = generic("x")
    assert type(x) is tuple and len(x) == 19
    assert x[4] == var("x", 5)
    assert all(p.term_count() == 1 for p in x)


def test_generic_blocks_are_disjoint():
    xs = generic("x")[0].variables()
    ys = generic("y")[0].variables()
    assert not (xs & ys)


@given(elements)
def test_evaluating_generic_reads_off_the_assignment(x):
    assert evaluate(generic("x"), assignment_for({"x": x})) == x


@given(elements)
def test_embed_evaluates_to_itself(x):
    assert evaluate(embed(x), {}) == x


# -- symbolic product and inverse --------------------------------------------------

def test_sym_mul_of_embedded_basis_elements(loop, sym):
    got = sym.mul(embed(e(1)), embed(e(2)))
    assert got == embed(loop.mul(e(1), e(2)))


def test_sym_mul_with_identity_is_projection(sym):
    x = generic("x")
    assert sym.mul(x, embed(identity())) == x
    assert sym.mul(embed(identity()), x) == x


def test_sym_mul_coordinate_five(sym):
    got = sym.mul(generic("x"), generic("y"))[4]
    assert got == var("x", 5) + var("y", 5) + 2 * var("x", 2) * var("y", 1)


def test_sym_inverse_coordinate_five(sym):
    got = sym.inv(generic("x"))[4]
    assert got == 2 * var("x", 5) + 2 * var("x", 1) * var("x", 2)


def test_sym_inverse_of_identity(sym):
    assert sym.inv(embed(identity())) == embed(identity())


@settings(max_examples=40)
@given(elements, elements)
def test_sym_mul_commutes_with_evaluation(loop, sym, x, y):
    prod = sym.mul(generic("x"), generic("y"))
    a = assignment_for({"x": x, "y": y})
    assert evaluate(prod, a) == loop.mul(x, y)


@settings(max_examples=40)
@given(elements)
def test_sym_inverse_commutes_with_evaluation(loop, sym, x):
    inv = sym.inv(generic("x"))
    assert evaluate(inv, assignment_for({"x": x})) == loop.inverse(x)


def test_sym_mul_exhaustive_on_two_coordinate_slice(loop, sym):
    # all 81 pairs supported on coordinates {1, 2}
    prod = sym.mul(generic("x"), generic("y"))
    for x1, x2, y1, y2 in product((0, 1, 2), repeat=4):
        x = (x1, x2) + (0,) * 17
        y = (y1, y2) + (0,) * 17
        a = assignment_for({"x": x, "y": y})
        assert evaluate(prod, a) == loop.mul(x, y)


# -- the four proofs -------------------------------------------------------------------

def test_moufang_law_is_proved(sym):
    report = sym.prove_moufang()
    assert report.proved
    assert report.nonzero_coords == ()
    assert report.witness is None
    assert report.telemetry["max_coord_terms"] > 100   # real expansion happened
    assert report.telemetry["diff_terms"] == 0


def test_inverse_law_is_proved(sym):
    assert sym.prove_inverse_law().proved


def test_identity_law_is_proved(sym):
    assert sym.prove_identity_law().proved


def test_prove_law_refuses_an_unknown_name(sym):
    with pytest.raises(ValueError) as info:
        sym.prove_law("nope")
    assert str(info.value) == (
        f"unknown sweep 'nope'; choose from {SWEEP_NAMES}")


def test_normal_form_is_proved(sym):
    report = sym.prove_normal_form()
    assert report.proved
    assert report.details["power_precheck"] == "pass"


def test_normal_form_concrete_products(loop, sym):
    # left-nested basis-power products really land on the exponent vector
    for t in [(1, 1) + (0,) * 17, (2, 0, 1) + (0,) * 16,
              (1,) * 19, (0, 2) + (0,) * 16 + (1,)]:
        got, want = sym._normal_form_concrete({"t": t})
        assert got == want == t
    got, _ = sym._normal_form_concrete({"t": (1, 1) + (0,) * 17})
    assert got == loop.mul(e(1), e(2))


def test_proof_report_json_shape(sym):
    doc = sym.prove_moufang().as_json()
    assert doc["verdict"] == "proved"
    assert doc["nonzero_coords"] == []
    assert "telemetry" in doc


# -- refutations on corrupted tables ------------------------------------------------------

def test_corrupted_f5_refutes_moufang_with_concrete_witness():
    bad = Loop(f=f_table().with_coord(5, 2 * var("x", 2) * var("y", 2)))
    report = SymbolicLoop(bad).prove_moufang()
    assert not report.proved
    assert report.nonzero_coords
    w = report.witness
    assert w is not None
    assert w.lhs != w.rhs
    assert w.lhs[w.coord - 1] != w.rhs[w.coord - 1]
    # and the witness elements really violate the concrete identity
    m = bad.mul
    x, y, z = w.elements["x"], w.elements["y"], w.elements["z"]
    assert m(m(x, y), m(z, x)) != m(m(x, m(y, z)), x)


def test_corrupted_h5_refutes_inverse_law():
    bad = Loop(h=h_table().with_coord(5, var("x", 1) * var("x", 2)))
    report = SymbolicLoop(bad).prove_inverse_law()
    assert not report.proved
    assert report.witness is not None
    assert report.witness.lhs != report.witness.rhs


@pytest.mark.parametrize("block", ["x", "y"])
def test_identity_law_refuted_with_concrete_witness(block):
    # f5 + x1 breaks x o 0 = x alone, f5 + y1 breaks 0 o x = x alone
    bad = Loop(f=f_table().with_coord(5, f_table().coord(5) + var(block, 1)))
    report = SymbolicLoop(bad).prove_identity_law()
    assert not report.proved
    assert report.nonzero_coords == (5,)
    w = report.witness
    x = w.elements["x"]
    assert w.lhs == (bad.mul(identity(), x), bad.mul(x, identity()))
    assert w.rhs == (x, x)
    assert w.lhs != w.rhs


def test_low_coordinates_stay_additive(sym):
    # coordinates 1..4 carry no correction terms on either Moufang side
    x, y, z = generic("x"), generic("y"), generic("z")
    lhs = sym.mul(sym.mul(x, y), sym.mul(z, x))
    for k in range(4):
        want = x[k] + x[k] + y[k] + z[k]
        assert lhs[k] == want


# -- witness extraction ---------------------------------------------------------------------

def test_nonzero_point_fast_path():
    p = var("x", 1) * var("x", 2) + var("y", 1)
    point = nonzero_point(p)
    assert p.evaluate(point) != 0


def test_nonzero_point_peeling_path():
    # all-ones on the lead monomial gives 1 + 2 = 0, forcing the fallback
    p = var("x", 1) + 2 * var("x", 1) * var("x", 1)
    point = nonzero_point(p)
    assert p.evaluate(point) != 0
    assert point[Var("x", 1)] == 2


def test_nonzero_point_rejects_zero_poly():
    with pytest.raises(ValueError):
        nonzero_point(Poly.zero())


# -- associator variety -----------------------------------------------------------------------

def test_variety_matches_pinned_values(loop, sym):
    variety = sym.associator_variety(e(3), e(4))
    assert evaluate(variety, assignment_for({"x": e(1)})) == identity()
    assert evaluate(variety, assignment_for({"x": e(5)})) == e(19)


def test_variety_of_identity_pair_is_zero(sym):
    variety = sym.associator_variety(identity(), identity())
    assert all(p.is_zero() for p in variety)


def test_variety_reads_only_the_head(sym):
    variety = sym.associator_variety(e(3), e(4))
    head = {Var("x", i) for i in range(1, 11)}
    for p in variety:
        assert p.variables() <= head


@settings(max_examples=30)
@given(elements)
def test_variety_matches_concrete_associator(loop, sym, x):
    variety = sym.associator_variety(e(3), e(4))
    got = evaluate(variety, assignment_for({"x": x}))
    assert got == loop.associator(x, e(3), e(4))


def test_variety_self_check_fires_on_broken_inverse():
    bad = Loop(h=h_table().with_coord(5, var("x", 1) * var("x", 2)))
    with pytest.raises(DivisionCheckFailed):
        SymbolicLoop(bad).associator_variety(e(3), e(4))


# -- consistency sweep -------------------------------------------------------------------------

def test_consistency_sweep_small(sym):
    report = sym.consistency_sweep(seed=7, trials=500)
    assert report.ok
    assert report.mismatches == 0
    assert report.trials == 500
    assert report.checks_per_trial == 5
    assert report.first_mismatch is None


def test_consistency_sweep_rejects_zero_trials(sym):
    with pytest.raises(ValueError):
        sym.consistency_sweep(seed=7, trials=0)


def test_symbolic_side_refuses_mismatched_tables(loop):
    # a symbolic side reading corrupted tables cannot even build the
    # associator variety: the symbolic division self-check fires
    mixed = SymbolicLoop(Loop(
        f_table().with_coord(5, 2 * var("x", 2) * var("y", 2)), h_table()))
    mixed.loop = loop
    with pytest.raises(DivisionCheckFailed):
        mixed.consistency_sweep(seed=7, trials=50)


class _LyingLoop:
    """Delegates to a real loop, but the values of its method `lie` have the
    last coordinate raised by one."""

    def __init__(self, inner, lie="mul"):
        self._inner, self._lie = inner, lie

    def __getattr__(self, name):
        honest = getattr(self._inner, name)
        if name != self._lie:
            return honest

        def lying(*args):
            value = honest(*args)
            return value[:18] + ((value[18] + 1) % 3,)
        return lying


def test_consistency_sweep_reports_mismatches(loop, sym):
    broken = SymbolicLoop(loop)
    broken.loop = _LyingLoop(loop)
    report = broken.consistency_sweep(seed=7, trials=20)
    assert not report.ok
    assert report.mismatches == 20
    assert report.first_mismatch is not None
    assert report.first_mismatch["check"] == "mul"


@pytest.mark.parametrize("lie,check,per_trial", [
    ("inverse", "inverse", 1),
    ("associator", "associator_variety", 1 + EXTRA_PAIRS),
])
def test_consistency_sweep_catches_each_lying_operation(loop, lie, check,
                                                        per_trial):
    broken = SymbolicLoop(loop)
    broken.loop = _LyingLoop(loop, lie)
    report = broken.consistency_sweep(seed=7, trials=20)
    assert not report.ok
    assert report.mismatches == 20 * per_trial
    assert report.first_mismatch["check"] == check
