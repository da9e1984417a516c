"""Concrete loop operations: products, inverses, divisions, orders, text."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import moufang3.loop as loop_module
from moufang3 import (InverseLawViolation, OrderNotFoundWithinCap, ParseError,
                      ZeroSeed, basis, format_element, h_table, identity,
                      parse_element, subloops, symbolic, vec_add, vec_neg,
                      vec_scale)
from moufang3.loop import Loop, check_seed
from moufang3.polys import var

# frozen from an independent execution of the generator recipe
SEED1_ELEMENT = (1, 2, 1, 0, 2, 1, 0, 1, 2, 2, 0, 1, 1, 2, 1, 0, 2, 2, 2)
SEED1_STATE = 9300052135675326408
SEED1_SECOND = (0, 0, 0, 2, 0, 1, 1, 2, 2, 0, 0, 2, 1, 0, 1, 0, 1, 1, 0)

elements = st.tuples(*(st.integers(0, 2) for _ in range(19)))


def e(i):
    return basis(i)


# -- multiplication ------------------------------------------------------------

def test_mul_e1_e2_is_plain_sum(loop):
    assert loop.mul(e(1), e(2)) == vec_add(e(1), e(2))


def test_mul_e2_e1_picks_up_commutator_coordinate(loop):
    want = list(vec_add(e(2), e(1)))
    want[4] = 2                      # the single surviving correction term
    assert loop.mul(e(2), e(1)) == tuple(want)


@given(elements)
def test_identity_is_two_sided(loop, x):
    assert loop.mul(x, identity()) == x
    assert loop.mul(identity(), x) == x


def test_identity_is_zero_vector():
    assert identity() == (0,) * 19


# -- inverses -------------------------------------------------------------------

def test_inverse_of_identity(loop):
    assert loop.inverse(identity()) == identity()


def test_inverse_of_basis_is_negation(loop):
    assert loop.inverse(e(1)) == vec_scale(e(1), 2)


def test_inverse_of_e1_plus_e2(loop):
    got = loop.inverse(vec_add(e(1), e(2)))
    assert got == (2, 2, 0, 0, 2) + (0,) * 14
    assert loop.mul(vec_add(e(1), e(2)), got) == identity()


@given(elements)
def test_inverse_law_holds_everywhere_sampled(loop, x):
    w = loop.inverse(x)
    assert loop.mul(x, w) == identity()
    assert loop.mul(w, x) == identity()


def test_corrupted_inverse_table_fails_hard():
    bad = Loop(h=h_table().with_coord(5, var("x", 1) * var("x", 2)))
    with pytest.raises(InverseLawViolation):
        bad.inverse(vec_add(e(1), e(2)))


# -- the element boundary --------------------------------------------------------

# id -> a bad element and the one message every entry point gives for it
BAD_ELEMENTS = {
    "1.0": ((1.0,) + (0,) * 18, "coordinate 1.0 is not a GF(3) residue"),
    "True": ((True,) + (0,) * 18, "coordinate True is not a GF(3) residue"),
    "1099511627776": ((2 ** 40,) + (0,) * 18,
                      "coordinate 1099511627776 is not a GF(3) residue"),
    "1": (("1",) + (0,) * 18, "coordinate '1' is not a GF(3) residue"),
    "-1": ((0,) * 18 + (-1,), "coordinate -1 is not a GF(3) residue"),
    "3": ((3,) + (0,) * 18, "coordinate 3 is not a GF(3) residue"),
    "len18": ((0,) * 18, "element must have 19 coordinates"),
    "len20": ((0,) * 20, "element must have 19 coordinates"),
    "abc": ("abc", "element must have 19 coordinates"),
}


def boundary_calls(lp, sym, x):
    """Every public entry point that takes an element, x in each place."""
    g = e(3)
    return {
        "mul(x, g)": lambda: lp.mul(x, g),
        "mul(g, x)": lambda: lp.mul(g, x),
        "inverse": lambda: lp.inverse(x),
        "left_div(x, g)": lambda: lp.left_div(x, g),
        "left_div(g, x)": lambda: lp.left_div(g, x),
        "right_div(x, g)": lambda: lp.right_div(x, g),
        "right_div(g, x)": lambda: lp.right_div(g, x),
        "commutator(x, g)": lambda: lp.commutator(x, g),
        "commutator(g, x)": lambda: lp.commutator(g, x),
        "associator(x, g, g)": lambda: lp.associator(x, g, g),
        "associator(g, x, g)": lambda: lp.associator(g, x, g),
        "associator(g, g, x)": lambda: lp.associator(g, g, x),
        "power(x, 0)": lambda: lp.power(x, 0),
        "power(x, 5)": lambda: lp.power(x, 5),
        "power(x, -1)": lambda: lp.power(x, -1),
        "order": lambda: lp.order(x),
        "count_l_set(x, g)": lambda: subloops.count_l_set(lp, x, g, sym),
        "count_l_set(g, x)": lambda: subloops.count_l_set(lp, g, x, sym),
        "brute_count_l_set(x, g)": lambda: subloops.brute_count_l_set(lp, x, g),
        "brute_count_l_set(g, x)": lambda: subloops.brute_count_l_set(lp, g, x),
        "in_l_set(x, g, g)": lambda: subloops.in_l_set(lp, x, g, g),
        "in_l_set(g, x, g)": lambda: subloops.in_l_set(lp, g, x, g),
        "in_l_set(g, g, x)": lambda: subloops.in_l_set(lp, g, g, x),
        "density_sample(x, g)":
            lambda: subloops.density_sample(lp, x, g, trials=1),
        "density_sample(g, x)":
            lambda: subloops.density_sample(lp, g, x, trials=1),
        "associator_variety(x, g)": lambda: sym.associator_variety(x, g),
        "associator_variety(g, x)": lambda: sym.associator_variety(g, x),
        "embed": lambda: symbolic.embed(x),
    }


@pytest.mark.parametrize("bad,message", BAD_ELEMENTS.values(),
                         ids=BAD_ELEMENTS)
def test_mul_and_inverse_accept_only_int_residues(loop, sym, bad, message):
    """Not only mul and inverse: every entry point in `boundary_calls`."""
    for label, call in boundary_calls(loop, sym, bad).items():
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message, label


CHECKS_PER_CALL = {
    "mul": (("mul", e(1), e(2)), 2),
    "inverse": (("inverse", e(1)), 1),
    "left_div": (("left_div", e(1), e(2)), 2),
    "right_div": (("right_div", e(1), e(2)), 2),
    # the division re-checks its two arguments, kernel outputs here
    "commutator": (("commutator", e(1), e(2)), 4),
    "associator": (("associator", e(1), e(2), e(5)), 5),
    "power5": (("power", e(1), 5), 1),
    "power-5": (("power", e(1), -5), 1),
    "order": (("order", e(1)), 1),
}


@pytest.mark.parametrize("call,checks", CHECKS_PER_CALL.values(),
                         ids=CHECKS_PER_CALL)
def test_each_call_checks_the_callers_elements_once(loop, monkeypatch, call,
                                                    checks):
    seen = []
    check = loop_module.check_element

    def spy(x):
        seen.append(x)
        return check(x)

    monkeypatch.setattr(loop_module, "check_element", spy)
    method, *args = call
    getattr(loop, method)(*args)
    assert len(seen) == checks


# -- divisions --------------------------------------------------------------------

@given(elements)
def test_divisions_solve_their_equations(loop, x):
    assert loop.left_div(x, x) == identity()
    assert loop.right_div(x, x) == identity()


@given(elements)
def test_division_identities(loop, v):
    assert loop.left_div(identity(), v) == v
    assert loop.right_div(v, identity()) == v


def test_left_div_recovers_commutator_of_generators(loop):
    got = loop.left_div(loop.mul(e(2), e(1)), loop.mul(e(1), e(2)))
    assert got == e(5)


def test_right_div_cancels_factor(loop):
    assert loop.right_div(loop.mul(e(1), e(2)), e(2)) == e(1)


@given(elements, elements)
def test_left_div_is_inverse_of_mul(loop, u, v):
    assert loop.left_div(u, loop.mul(u, v)) == v


# -- commutators and associators ----------------------------------------------------

def test_commutator_of_a_b(loop):
    assert loop.commutator(e(1), e(2)) == e(5)


def test_commutator_of_c_d(loop):
    assert loop.commutator(e(3), e(4)) == e(10)


@given(elements)
def test_self_commutator_trivial(loop, x):
    assert loop.commutator(x, x) == identity()


def test_generator_triple_associates(loop):
    assert loop.associator(e(1), e(2), e(3)) == identity()


def test_commutator_fails_to_associate(loop):
    assert loop.associator(e(5), e(3), e(4)) == e(19)


@given(elements, elements)
def test_associator_alternativity(loop, x, y):
    assert loop.associator(x, x, y) == identity()
    assert loop.associator(y, x, x) == identity()
    assert loop.associator(x, y, x) == identity()


@given(elements, elements)
def test_squares_associate(loop, x, y):
    assert loop.mul(loop.mul(x, x), y) == loop.mul(x, loop.mul(x, y))


@given(elements, elements, elements)
def test_moufang_identity_sampled(loop, x, y, z):
    m = loop.mul
    assert m(m(x, y), m(z, x)) == m(m(x, m(y, z)), x)


def test_identification_table_holds(loop):
    rows = loop.identification_table()
    assert len(rows) == 15
    assert all(row.ok for row in rows)
    assert [row.coord for row in rows] == list(range(5, 20))


# -- powers and orders ------------------------------------------------------------------

def test_small_powers_of_basis(loop):
    assert loop.power(e(1), 2) == vec_scale(e(1), 2)
    assert loop.power(e(1), 3) == identity()
    assert loop.power(e(1), 0) == identity()


@given(elements)
def test_negative_power_is_inverse(loop, x):
    assert loop.power(x, -1) == loop.inverse(x)


@given(elements)
def test_order_divides_into_identity(loop, x):
    n = loop.order(x)
    assert loop.power(x, n) == identity()
    assert n in (1, 3, 9, 27, 81)    # observed: always a power of 3


def test_order_fixtures(loop):
    assert loop.order(identity()) == 1
    assert loop.order(e(1)) == 3
    assert loop.order(e(19)) == 3


def test_order_cap(loop):
    with pytest.raises(OrderNotFoundWithinCap):
        loop.order(e(1), cap=2)
    with pytest.raises(ValueError):
        loop.order(e(1), cap=0)


# -- tail centrality ---------------------------------------------------------------------

@pytest.mark.parametrize("i", range(11, 20))
@pytest.mark.parametrize("t", (1, 2))
def test_tail_basis_multiples_are_central(loop, i, t):
    # exhaustive over the basis tails, probed against a fixed element set
    z = vec_scale(basis(i), t)
    probes = [identity(), e(1), e(5), vec_add(e(1), e(2)),
              loop.random_element(9001)[0]]
    for x in probes:
        assert loop.mul(x, z) == vec_add(x, z)
        assert loop.mul(z, x) == vec_add(x, z)


@given(elements, st.tuples(*(st.integers(0, 2) for _ in range(9))))
def test_whole_tail_is_central(loop, x, tail):
    z = (0,) * 10 + tail
    assert loop.mul(x, z) == loop.mul(z, x) == vec_add(x, z)


# -- basis and vector helpers ----------------------------------------------------------------

def test_basis_endpoints():
    assert basis(1) == (1,) + (0,) * 18
    assert basis(19) == (0,) * 18 + (1,)


@pytest.mark.parametrize("i", [0, 20, -3])
def test_basis_rejects_bad_index(i):
    with pytest.raises(IndexError):
        basis(i)


def test_vec_helpers():
    x = (1, 2) + (0,) * 17
    assert vec_neg(x) == (2, 1) + (0,) * 17
    assert vec_scale(x, 2) == (2, 1) + (0,) * 17
    assert vec_add(x, vec_neg(x)) == identity()


# -- deterministic randomness -------------------------------------------------------------------

def test_random_element_golden_fixture(loop):
    elem, state = loop.random_element(1)
    assert elem == SEED1_ELEMENT
    assert state == SEED1_STATE
    elem2, state2 = loop.random_element(state)
    assert elem2 == SEED1_SECOND
    assert elem2 != elem and state2 != state


def test_random_element_is_deterministic(loop):
    assert loop.random_element(12345) == loop.random_element(12345)


def test_random_element_rejects_zero_seed(loop):
    with pytest.raises(ZeroSeed):
        loop.random_element(0)


@pytest.mark.parametrize("state", [-1, 1 << 64, "7"])
def test_random_element_rejects_non_uint64(loop, state):
    with pytest.raises(ValueError):
        loop.random_element(state)


def test_check_seed_accepts_max_uint64():
    assert check_seed((1 << 64) - 1) == (1 << 64) - 1


# -- text formats ------------------------------------------------------------------------------

def test_parse_sparse_form():
    assert parse_element("e1 + 2*e5") == (1, 0, 0, 0, 2) + (0,) * 14


def test_parse_identity_forms():
    assert parse_element("0") == identity()
    assert parse_element("(" + ",".join("0" * 19) + ")") == identity()


def test_format_dense_is_canonical():
    x = (1, 0, 0, 0, 2) + (0,) * 14
    assert format_element(x) == "(1,0,0,0,2,0,0,0,0,0,0,0,0,0,0,0,0,0,0)"


def test_format_sparse():
    x = (1, 0, 0, 0, 2) + (0,) * 14
    assert format_element(x, "sparse") == "e1 + 2*e5"
    assert format_element(identity(), "sparse") == "0"


@given(elements)
def test_parse_format_round_trip(x):
    assert parse_element(format_element(x)) == x
    assert parse_element(format_element(x, "sparse")) == x


def test_parse_accepts_whitespace():
    assert parse_element(" (0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) ") \
        == (0, 1, 2) + (0,) * 16


@pytest.mark.parametrize("text,fragment", [
    ("e20", "outside"),
    ("e0", "outside"),
    ("", "empty"),
    ("(1,2)", "19 coordinates"),
    ("(1," + ",".join("0" * 18) + "", "unterminated"),
    ("(3," + ",".join("0" * 18) + ")", "not in 0..2"),
    ("e1 + 3*e5", "coefficient"),
    ("e1 + + e5", "empty term"),
    ("q5", "basis term"),
    ("e1 * e2", "coefficient"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_element(text)


@pytest.mark.parametrize("text", [
    "e1_0", "e 5", "e\u0663", "e\u0661\u0669", "2*e\u0665", "e1 + e\uff15",
])
def test_parse_sparse_index_takes_ascii_digits_only(text):
    # int() also reads '_', spaces and other scripts' digits
    with pytest.raises(ParseError, match="bad basis index"):
        parse_element(text)


def test_parse_error_carries_position():
    try:
        parse_element("e1 + e99")
    except ParseError as exc:
        assert exc.position == 5
    else:
        pytest.fail("expected ParseError")


def test_repeated_sparse_terms_accumulate():
    assert parse_element("e1 + e1 + e1") == identity()
