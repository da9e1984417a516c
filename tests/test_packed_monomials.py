"""Packed-int monomials against plain tuple oracles kept here.

`canon` is the canonical tuple monomial written out directly: merge the
factors per variable, reduce the exponent by x^3 = x (odd -> 1, even -> 2)
and sort by variable.  It shares no code with the bit arithmetic in
`polys`, so the round trip, the product, the degree and the term order are
each checked against it over all 76 variables with exponents 1..4.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from moufang3 import Poly, Var, var
from moufang3 import polys

ALL_VARS = [Var(b, i) for b in ("x", "y", "z", "t") for i in range(1, 20)]
X1, Y1 = Var("x", 1), Var("y", 1)

# factors in any order, repeats allowed, exponents up to 4
raw_monomials = st.lists(st.tuples(st.sampled_from(ALL_VARS), st.integers(1, 4)),
                         max_size=6).map(tuple)


def canon(mono):
    exps = {}
    for v, e in mono:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted((v, 1 if e % 2 else 2) for v, e in exps.items()))


def oracle_terms(pairs):
    """(coefficient, monomial) pairs summed per canonical monomial, in the
    reference order: degree first, then the factor tuple."""
    acc = {}
    for c, m in pairs:
        acc[canon(m)] = (acc.get(canon(m), 0) + c) % 3
    monos = sorted((m for m, c in acc.items() if c),
                   key=lambda m: (sum(e for _, e in m), m))
    return [(m, acc[m]) for m in monos]


@given(raw_monomials)
def test_encode_decode_round_trip(mono):
    key = polys._encode(mono)
    assert polys._DECODED[key] == canon(mono)
    assert polys._encode(canon(mono)) == key
    assert key.bit_length() <= 2 * len(ALL_VARS)


@given(raw_monomials, raw_monomials)
def test_packed_product_is_the_reduced_merge(m1, m2):
    want = canon(m1 + m2)
    # the product inside the term-dict kernel, which has its own
    # variable-disjoint and overlapping paths
    assert list((Poly({m1: 1}) * Poly({m2: 2})).terms()) == [(want, 2)]


@given(st.lists(st.tuples(st.integers(1, 2), raw_monomials), max_size=12))
def test_terms_order_is_the_reference_sort(pairs):
    p = Poly.from_terms(pairs)
    want = oracle_terms(pairs)
    assert list(p.terms()) == want
    assert p.total_degree() == max((sum(e for _, e in m) for m, _ in want),
                                   default=0)
    assert p.variables() == {v for m, _ in want for v, _ in m}


@given(st.lists(st.tuples(st.integers(1, 2), raw_monomials), max_size=8),
       st.lists(st.integers(-4, 4), min_size=len(ALL_VARS),
                max_size=len(ALL_VARS)),
       st.sampled_from(ALL_VARS), st.integers(0, 2))
def test_evaluate_and_specialize_match_the_tuple_terms(pairs, values, v, t):
    p = Poly.from_terms(pairs)
    point = dict(zip(ALL_VARS, values))
    total = 0
    specialized = []
    for m, c in p.terms():
        at_point, rest = c, []
        for u, e in m:
            at_point *= point[u] ** e
            if u == v:
                c *= t ** e
            else:
                rest.append((u, e))
        total += at_point
        specialized.append((c, tuple(rest)))
    assert p.evaluate(point) == total % 3
    assert p.specialize(v, t) == Poly.from_terms(specialized)


# -- canonical form at the public boundary ---------------------------------------

def test_factor_order_does_not_matter():
    twin = Poly({((Y1, 1), (X1, 1)): 1})
    assert twin == Poly({((X1, 1), (Y1, 1)): 1}) == var("x", 1) * var("y", 1)
    assert (twin - var("x", 1) * var("y", 1)).is_zero()
    assert Poly.from_terms([(1, ((Y1, 1), (X1, 1)))]) == twin


def test_exponents_reduce_by_x_cubed():
    assert str(Poly({((X1, 3),): 1})) == "x1"
    assert str(Poly({((X1, 4),): 1})) == "x1^2"
    assert Poly({((X1, 3),): 1}) == var("x", 1)
    assert Poly.from_terms([(2, ((X1, 4),))]).coefficient(((X1, 2),)) == 2


def test_repeated_variables_merge():
    assert Poly({((X1, 1), (X1, 1)): 1}) == var("x", 1) * var("x", 1)
    assert str(Poly({((X1, 1), (Y1, 1), (X1, 2)): 1})) == "x1*y1"
    # two spellings of one monomial add their coefficients
    assert Poly({((X1, 1), (Y1, 1)): 1, ((Y1, 1), (X1, 1)): 2}).is_zero()


@pytest.mark.parametrize("factor", [
    (Var("w", 1), 1), (Var("x", 0), 1), (Var("x", 20), 1), (Var("t", 25), 1),
    (X1, 0), (X1, -1),
])
def test_bad_factors_raise_value_error(factor):
    with pytest.raises(ValueError):
        Poly({(factor,): 1})
    with pytest.raises(ValueError):
        Poly.from_terms([(1, (factor,))])
    with pytest.raises(ValueError):
        Poly.zero().coefficient((factor,))
