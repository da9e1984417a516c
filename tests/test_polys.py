"""Polynomial ring over GF(3) with x^3 = x: canonical form = function."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moufang3 import Poly, UnboundVariable, Var, var
from moufang3.kernel import PolyEvaluator
from moufang3.polys import field_bit, flatten_polys

X1, X2 = var("x", 1), var("x", 2)
Y1, Y2 = var("y", 1), var("y", 2)
VARS = (Var("x", 1), Var("x", 2), Var("y", 1), Var("y", 2))


def all_assignments(variables):
    variables = sorted(variables)
    for values in product((0, 1, 2), repeat=len(variables)):
        yield dict(zip(variables, values))


def agree_pointwise(p, q):
    vs = p.variables() | q.variables()
    return all(p.evaluate(a) == q.evaluate(a) for a in all_assignments(vs))


# -- strategies ---------------------------------------------------------------

monomials = st.lists(
    st.tuples(st.sampled_from(VARS), st.integers(1, 2)),
    unique_by=lambda t: t[0], max_size=3,
).map(lambda factors: tuple(sorted(factors)))

polys = st.lists(st.tuples(st.integers(1, 2), monomials), max_size=5).map(
    Poly.from_terms)

assignments = st.tuples(*(st.integers(0, 2) for _ in VARS)).map(
    lambda vals: dict(zip(VARS, vals)))


def is_canonical(p):
    for mono, coeff in p.terms():
        if coeff not in (1, 2):
            return False
        if list(mono) != sorted(mono):
            return False
        if any(e not in (1, 2) for _, e in mono):
            return False
    return True


# -- addition and negation ----------------------------------------------------

def test_add_neg_cancels():
    p = X1 * Y1 + 2 * X2
    assert (p + (-p)).is_zero()


def test_add_wraps_mod3():
    assert X1 + X1 == 2 * X1
    assert (2 * X1 + X1).is_zero()


def test_add_distinct_monomials():
    p = X2 * Y1 + X1
    assert p.term_count() == 2


def test_sub_subtracts_each_coefficient():
    p = X1 * Y1 + 2 * X2 + Y2
    q = X1 * Y1 + X2 + Poly.constant(2)
    assert p - q == X2 + Y2 + Poly.constant(1)
    assert (p - p).is_zero()
    assert q - Poly.zero() == q
    assert Poly.zero() - q == -q


def test_sub_refuses_a_non_polynomial():
    with pytest.raises(TypeError):
        X1 - 1


# -- multiplication and reduction ----------------------------------------------

def test_cube_reduces_to_linear():
    assert X1 * (X1 * X1) == X1


def test_binomial_cube_collapses():
    s = X1 + Y1
    cube = s * (s * s)
    assert cube == s
    assert agree_pointwise(cube, s)


def test_mul_by_zero():
    p = X1 * Y1 + 2 * X2
    assert (p * Poly.zero()).is_zero()
    assert (p * 0).is_zero()


def test_fourth_power_reduces_to_square():
    assert X1 ** 4 == X1 * X1


def test_scalar_multiplication():
    p = X1 + 2 * Y1
    assert 2 * p == p * 2
    assert (3 * p).is_zero()


# -- substitution and evaluation ------------------------------------------------

def test_substitute_constants():
    p = 2 * X2 * Y1  # the first correction monomial
    out = p.substitute({Var("x", 2): Poly.constant(1),
                        Var("y", 1): Poly.constant(1)})
    assert out == Poly.constant(2)


def test_substitute_identity():
    q = X1 * Y2 + 2 * X2
    assert X1.substitute({Var("x", 1): q}) == q


def test_substitute_shift_expands():
    p = 2 * X2 * Y1
    out = p.substitute({Var("x", 2): X2 + Y2, Var("y", 1): X1 + Y1})
    want = 2 * X2 * X1 + 2 * X2 * Y1 + 2 * Y2 * X1 + 2 * Y2 * Y1
    assert out == want
    assert out.term_count() == 4


def test_substitute_requires_full_env():
    with pytest.raises(UnboundVariable):
        (X1 * Y1).substitute({Var("x", 1): Poly.constant(1)})


def test_evaluate_zero_poly():
    assert Poly.zero().evaluate({}) == 0


def test_evaluate_correction_monomial():
    p = 2 * X2 * Y1
    assert p.evaluate({Var("x", 2): 1, Var("y", 1): 1}) == 2


def test_evaluate_requires_full_env():
    with pytest.raises(UnboundVariable):
        (X1 + Y1).evaluate({Var("x", 1): 2})


def test_specialize_matches_substitute():
    p = X1 * Y1 + 2 * X1 * X1 + Y1
    for t in (0, 1, 2):
        got = p.specialize(Var("x", 1), t)
        want = p.substitute({Var("x", 1): Poly.constant(t),
                             Var("y", 1): Y1})
        assert got == want


# -- structural queries ----------------------------------------------------------

def test_term_count_and_degree():
    p = 2 * X1 * X2 * Y1 * Y2 + X1
    assert p.term_count() == 2
    assert p.total_degree() == 4
    assert Poly.zero().total_degree() == 0
    assert Poly.constant(2).total_degree() == 0


def test_str_is_sorted_and_stable():
    p = X1 * Y1 + 2 * X2
    assert str(p) == "2*x2 + x1*y1"
    assert str(Poly.zero()) == "0"
    assert str(X1 * X1) == "x1^2"


def test_read_sets_are_the_distinct_variable_sets_of_the_monomials():
    x1, y1, x2 = field_bit("x", 1), field_bit("y", 1), field_bit("x", 2)
    # x1*y1 and x1^2*y1 read the same variables
    p = X1 * Y1 + 2 * X1 ** 2 * Y1 + X2 + Poly.constant(2)
    assert sorted(p.read_sets()) == sorted((x1 | y1, x2, 0))
    assert Poly.zero().read_sets() == ()


def test_variables():
    assert (X1 * Y2 + X2).variables() == {Var("x", 1), Var("x", 2), Var("y", 2)}


# -- algebraic laws (property tests) ----------------------------------------------

@given(polys, polys)
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(polys, polys, polys)
def test_addition_associates(p, q, r):
    assert (p + q) + r == p + (q + r)


@given(polys, polys)
def test_sub_is_adding_the_negation(p, q):
    assert p - q == p + (-q)
    assert is_canonical(p - q)
    assert (p - p).is_zero()


@given(polys, polys)
def test_multiplication_commutes(p, q):
    assert p * q == q * p


@settings(max_examples=50)
@given(polys, polys, polys)
def test_multiplication_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys, polys, polys)
def test_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys, polys)
def test_products_stay_canonical(p, q):
    assert is_canonical(p * q)
    assert is_canonical(p + q)
    assert is_canonical(-p)


@settings(max_examples=30)
@given(polys, polys)
def test_canonical_equality_is_functional_equality(p, q):
    # exhaustive over the (at most 81) assignments of the shared variables
    assert (p == q) == agree_pointwise(p, q)


@given(polys, assignments)
def test_evaluation_is_additive_and_multiplicative(p, a):
    q = X1 * Y1 + 2 * X2
    assert (p + q).evaluate(a) == (p.evaluate(a) + q.evaluate(a)) % 3
    assert (p * q).evaluate(a) == (p.evaluate(a) * q.evaluate(a)) % 3


@settings(max_examples=40)
@given(polys, polys)
def test_substitution_is_a_homomorphism(p, q):
    env = {v: X1 + 2 * var(v.block, v.index) for v in VARS}
    assert (p + q).substitute(env) == p.substitute(env) + q.substitute(env)
    assert (p * q).substitute(env) == p.substitute(env) * q.substitute(env)


@settings(max_examples=30)
@given(polys, assignments)
def test_substitute_commutes_with_evaluate(p, a):
    env = {v: var(v.block, v.index) * 2 + Poly.constant(1) for v in VARS}
    composed = {v: env[v].evaluate(a) for v in VARS}
    assert p.substitute(env).evaluate(a) == p.evaluate(composed)


# -- flattening for the kernels ----------------------------------------------------

def test_flatten_polys_codes():
    order = [Var("x", 1), Var("x", 2), Var("y", 1)]
    flat = flatten_polys([2 * X2 * Y1 + X1 * X1], order)
    assert flat == [[(1, (0, 0)), (2, (1, 2))]]


def test_flatten_rejects_unlisted_variables():
    with pytest.raises(UnboundVariable):
        flatten_polys([X1 * Y2], [Var("x", 1)])


def test_poly_evaluator_validation():
    ev = PolyEvaluator(flatten_polys([X1], [Var("x", 1), Var("x", 2)]), 2)
    with pytest.raises(ValueError):
        ev.eval_at((0,))
    with pytest.raises(ValueError):
        PolyEvaluator([[]], 17).count_all_zero()
