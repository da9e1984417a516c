"""`PolyEvaluator.count_all_zero` counts on bit planes; `eval_at` is scalar.

The count evaluates each polynomial once over one lane per point, in at
most 10 variables, so it shares no code with `eval_at`, which these tests
use as the oracle: the number of points of F_3^nvars at which `eval_at`
gives all zeros.
"""

from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moufang3 import basis, identity
from moufang3.kernel import PolyEvaluator
from moufang3.polys import Var, flatten_polys
from moufang3.subloops import HEAD, HEAD_TOTAL


def count_by_points(ev):
    return sum(1 for point in product(range(3), repeat=ev.nvars)
               if not any(ev.eval_at(point)))


@st.composite
def systems(draw):
    """(nvars, flat system): coefficients -4..7, codes that may repeat,
    empty products, zero polynomials and the empty system."""
    nvars = draw(st.integers(0, 7))
    codes = (st.lists(st.integers(0, nvars - 1), max_size=3).map(tuple)
             if nvars else st.just(()))
    term = st.tuples(st.integers(-4, 7), codes)
    return nvars, draw(st.lists(st.lists(term, max_size=4), max_size=4))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(systems())
@example((0, [[(5, ())]]))                          # one point, 5 = 2 there
@example((0, [[(3, ())], []]))                      # one point, all zero
def test_plane_count_matches_pointwise_count(system):
    nvars, flat = system
    ev = PolyEvaluator(flat, nvars)
    assert ev.count_all_zero() == count_by_points(ev)


@pytest.mark.parametrize("pair,count", [((identity(), identity()), HEAD_TOTAL),
                                        ((basis(3), basis(4)), 19683)],
                         ids=["identity", "e3-e4"])
def test_plane_count_of_associator_variety(sym, pair, count):
    head = [Var("x", i) for i in range(1, HEAD + 1)]
    ev = PolyEvaluator(flatten_polys(sym.associator_variety(*pair), head),
                       HEAD)
    assert ev.count_all_zero() == count_by_points(ev) == count


def test_plane_count_bounds():
    assert PolyEvaluator([], 10).count_all_zero() == 3 ** 10
    for n in (11, 17):
        with pytest.raises(ValueError, match=rf"^refusing to enumerate 3\^{n} "
                                             r"points$"):
            PolyEvaluator([[]], n).count_all_zero()
