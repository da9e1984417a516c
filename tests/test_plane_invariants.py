"""The term evaluator `kernel._poly` and the planes it reads.

`_poly` starts each monomial from its first factor's planes instead of from
the lane mask, which is right only while every plane keeps its sign bits
within its nonzero bits within the lane mask.  These tests hold `_poly` to
a scalar evaluation, and the planes the sweeps evaluate to that invariant:
each law's columns, stacked one trial a lane and gathered from the draw.
"""

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
    nz, sg = got
    assert [(nz >> i & 1) + (sg >> i & 1) for i in range(LANES)] == [
        scalar(acc[i], terms, [v[i] for v in values]) for i in range(LANES)]


@pytest.mark.parametrize("lanes,stride", [(1, 114), (7, 114), (300, 114),
                                          (5, 342), (3, 1596)])
def test_draw_stack_and_gather_keep_sign_within_nonzero_within_lanes(
        lanes, stride):
    # every step drawn for every lane, so no column reads an undrawn zero
    starts, tables = [42], kernel._jump_tables(stride)
    while len(starts) < lanes:
        starts.append(kernel._jump(tables, starts[-1]))
    data = kernel.draw_lanes(starts, stride, [lanes] * stride)
    for name, law in LAWS.items():
        w = law.trits
        # all the trials the draw holds, one fewer, and a single one
        for n in {lanes * stride // w, lanes * stride // w - 1, 1}:
            cols = [kernel._column(data, j, w, n) for j in range(w)]
            assert valid(cols, n) and any(nz >> (n - 1) for nz, _ in cols)
            xs = law.place(kernel._Planes.identity, cols)
            assert all(valid(x, n) for x in xs), (name, n)
