"""Closure, associate sets, and the non-subloop witness."""

from fractions import Fraction

import pytest

from moufang3 import (SymbolicLoop, Witness, basis, brute_count_l_set,
                      closure, count_l_set, density_sample, h_table, identity,
                      in_l_set, is_closed, nonsubloop_witness)
from moufang3.loop import Loop, vec_add
from moufang3.polys import var
from moufang3.subloops import HEAD_TOTAL, TAIL_FREEDOM

# frozen from the 3^10 concrete enumeration (see test_acceptance for the
# dual-route check that pins it)
LCD_HEAD_COUNT = 19683


def e(i):
    return basis(i)


# -- closure ---------------------------------------------------------------------

def test_closure_of_single_generator(loop):
    result = closure(loop, [e(1)])
    assert result.order == 3
    assert result.closed is True
    assert not result.truncated
    assert result.elements == {identity(), e(1), (2,) + (0,) * 18}
    assert result.support() == (1,)


def test_closure_of_c_d(loop):
    result = closure(loop, [e(3), e(4)])
    assert result.order == 27
    assert result.closed is True
    assert result.support() == (3, 4, 10)


def test_closure_of_central_basis(loop):
    result = closure(loop, [e(19)])
    assert result.order == 3
    assert result.closed is True


def test_closure_truncates_at_cap(loop):
    result = closure(loop, [e(3), e(4)], cap=5)
    assert result.truncated
    assert result.closed is None
    assert result.order > 5


@pytest.mark.parametrize("gens,cap", [((1,), 1), ((1, 2, 3), 1),
                                      ((3, 4), 1), ((3, 4), 4), ((3, 4), 7),
                                      ((3, 4), 26)],
                         ids=["e1-1", "e1e2e3-1", "e3e4-1", "e3e4-4",
                              "e3e4-7", "e3e4-26"])
def test_a_truncated_closure_holds_cap_plus_one_elements(loop, gens, cap):
    result = closure(loop, [e(i) for i in gens], cap=cap)
    assert result.truncated and result.closed is None
    assert result.order == cap + 1
    # the same saturation order: a higher cap only adds later elements
    wider = closure(loop, [e(i) for i in gens], cap=cap + 5)
    assert result.elements <= wider.elements


def test_a_closure_of_exactly_cap_elements_is_not_truncated(loop):
    result = closure(loop, [e(3), e(4)], cap=27)
    assert not result.truncated and result.closed is True
    assert result.order == 27


def test_closure_rejects_bad_cap(loop):
    with pytest.raises(ValueError):
        closure(loop, [e(1)], cap=0)


def test_closure_of_nothing_is_trivial(loop):
    result = closure(loop, [])
    assert result.elements == {identity()}
    assert result.closed is True


def test_is_closed_fixtures(loop):
    assert is_closed(loop, closure(loop, [e(1)]).elements)
    assert is_closed(loop, [identity()])
    assert not is_closed(loop, [identity(), e(1)])      # misses e1*e1
    assert not is_closed(loop, [e(1), (2,) + (0,) * 18])  # misses identity


def test_closures_are_always_closed(loop):
    for gens in ([e(1)], [e(3), e(4)], [e(19)], [e(5)],
                 [vec_add(e(1), e(2))]):
        result = closure(loop, gens)
        assert not result.truncated
        assert is_closed(loop, result.elements)
        # observed orders are powers of 3 (reported, not asserted as theory)
        n = result.order
        while n % 3 == 0:
            n //= 3
        assert n == 1


# -- membership ---------------------------------------------------------------------

def test_generators_associate_with_c_d(loop):
    assert in_l_set(loop, e(1), e(3), e(4))
    assert in_l_set(loop, e(2), e(3), e(4))


def test_their_commutator_does_not(loop):
    assert not in_l_set(loop, e(5), e(3), e(4))


# -- the witness -----------------------------------------------------------------------

def test_nonsubloop_witness(loop):
    w = nonsubloop_witness(loop)
    assert isinstance(w, Witness)
    assert w.violating_element == e(5)
    assert w.violating_associator == e(19)
    assert w.members == (e(1), e(2))
    assert all(v == identity() for _, v in w.generator_triples)
    assert len(w.generator_triples) == 4


def test_witness_json_round_trip(loop):
    doc = nonsubloop_witness(loop).as_json()
    assert doc["violating_element"] == "(0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0)"
    assert set(doc["generator_triples"]) == {"(a,b,c)", "(a,b,d)",
                                             "(a,c,d)", "(b,c,d)"}


def test_witness_fails_on_corrupted_tables():
    bad = Loop(h=h_table().with_coord(5, var("x", 1) * var("x", 2)))
    with pytest.raises(Exception) as exc_info:
        nonsubloop_witness(bad)
    # either the witness chain or an inner self-check must object
    assert exc_info.type.__name__ in ("WitnessFailed", "InverseLawViolation",
                                      "DivisionCheckFailed")


# -- counting ----------------------------------------------------------------------------

def test_count_identity_pair_has_density_one(loop):
    count = count_l_set(loop, identity(), identity())
    assert count.density == 1
    assert count.head_count == HEAD_TOTAL


def test_count_c_d_matches_frozen_fixture(loop):
    count = count_l_set(loop, e(3), e(4))
    assert count.head_count == LCD_HEAD_COUNT
    assert count.density == Fraction(1, 3)
    assert count.density < 1                       # e5 is excluded
    assert count.full_count == LCD_HEAD_COUNT * TAIL_FREEDOM


def test_count_refuses_a_symbolic_loop_of_another_loop(loop):
    with pytest.raises(ValueError):
        count_l_set(loop, e(3), e(4), SymbolicLoop(Loop()))


def test_brute_count_small_cross_check(loop):
    # full-size dual-route agreement is pinned in the acceptance suite;
    # here the oracle is exercised on the trivially-full pair
    count = brute_count_l_set(loop, identity(), identity())
    assert count.head_count == HEAD_TOTAL


# -- sampling -------------------------------------------------------------------------------

def test_density_sample_identity_pair(loop):
    est = density_sample(loop, identity(), identity(), seed=42, trials=50)
    assert est.density == 1.0


def test_density_sample_deterministic(loop):
    a = density_sample(loop, e(3), e(4), seed=42, trials=400)
    b = density_sample(loop, e(3), e(4), seed=42, trials=400)
    assert a == b


def test_density_sample_near_exact_density(loop):
    est = density_sample(loop, e(3), e(4), seed=42, trials=2000)
    # 3 binomial standard errors around the exact 1/3
    sigma = (Fraction(1, 3) * Fraction(2, 3) / 2000) ** 0.5
    assert abs(est.density - 1 / 3) <= 3 * sigma


def test_density_sample_rejects_zero_trials(loop):
    with pytest.raises(ValueError):
        density_sample(loop, e(3), e(4), seed=42, trials=0)
