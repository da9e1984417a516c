"""The term evaluator `kernel._poly` and the planes it reads.

`_poly` starts each monomial from its first factor's planes instead of from
the lane mask, which is right only while every plane keeps its sign bits
within its nonzero bits within the lane mask.  These tests hold `_poly` to
a scalar evaluation, and the draw, `_stack` and `_gather`, which make the
planes the sweeps evaluate, to that invariant.
"""

from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moufang3 import kernel
from moufang3._native import LAWS

LANES = 9


def planes(values):
    """The (nz, sg) pair of a list of trits, lane i at bit i."""
    nz = sum(1 << i for i, v in enumerate(values) if v)
    sg = sum(1 << i for i, v in enumerate(values) if v == 2)
    return nz, sg


def scalar(acc, terms, point):
    """acc plus the polynomial `terms` at `point`, one trit at a time."""
    total = acc
    for coeff, codes in terms:
        p = coeff
        for c in codes:
            p *= point[c]
        total += p
    return total % 3


def valid(pairs, width):
    """Every pair keeps sg within nz within the low `width` bits."""
    return all(sg & ~nz == 0 and nz >> width == 0 for nz, sg in pairs)


@st.composite
def polys(draw):
    """(trits per variable, accumulator trits, terms): terms of
    coefficient 1 or 2 whose codes may be empty (a constant) or repeat (a
    square)."""
    nvars = draw(st.integers(1, 4))
    lane = st.lists(st.integers(0, 2), min_size=LANES, max_size=LANES)
    values = draw(st.lists(lane, min_size=nvars, max_size=nvars))
    codes = st.lists(st.integers(0, nvars - 1), max_size=4).map(tuple)
    terms = draw(st.lists(st.tuples(st.sampled_from((1, 2)), codes),
                          max_size=6))
    return values, draw(lane), terms


@settings(derandomize=True, max_examples=300, deadline=None)
@given(polys())
@example(([[2] * LANES], [1] * LANES, [(1, ()), (2, (0, 0)), (2, (0,))]))
def test_poly_matches_scalar_evaluation(case):
    values, acc, terms = case
    ones = (1 << LANES) - 1
    got = kernel._poly(planes(acc), terms, [planes(v) for v in values], ones)
    assert valid([got], LANES)
    assert [kernel.lane_trits([got], i)[0] for i in range(LANES)] == [
        scalar(acc[i], terms, [v[i] for v in values]) for i in range(LANES)]


@pytest.mark.parametrize("lanes,stride", [(1, 114), (7, 114), (300, 114),
                                          (5, 342), (3, 1596)])
def test_draw_stack_and_gather_keep_sign_within_nonzero_within_lanes(
        lanes, stride):
    cols, _, steps = kernel.draw_columns(42, lanes, stride, True)
    assert len(cols) == len(steps) == stride
    assert valid(cols, lanes)
    for name, law in LAWS.items():
        period = lcm(law.trits, stride)
        k, r = period // stride, period // law.trits
        # the periods the draw covers, one fewer, and one more than it has
        full = -(-lanes // k)
        for width in {max(1, full - 1), full, full + 1}:
            if k == 1:
                xs = kernel._stack(cols, law, width)
            else:
                xs = kernel._gather(steps, law, stride, width)
            assert all(valid(x, r * width) for x in xs), (name, width)
