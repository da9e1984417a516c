"""The compiled scalar product and inverse against a plain interpreter.

`_native.LoopKernel` compiles each coordinate of `mul` and `inv` from its
flat terms and keeps the functions in a bounded module cache keyed by
(kind, k, terms).  `interpret` below evaluates the raw flat tables the
kernel was given, coefficients unreduced, and shares no code with it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moufang3 import _native, kernel
from moufang3._native import CACHE_SIZE, HEAD, N, LoopKernel
from moufang3.kernel import PolyEvaluator


def interpret(terms, x, y=None):
    """x o y (or the raw inverse of x when y is None) read off flat tables."""
    v = x[:HEAD] + (y[:HEAD] if y is not None else ())
    out = []
    for k, coord in enumerate(terms):
        acc = x[k] + y[k] if y is not None else -x[k]
        for coeff, codes in coord:
            for c in codes:
                coeff *= v[c]
            acc += coeff
        out.append(acc % 3)
    return tuple(out)


EDGE_F = (0, HEAD - 1, HEAD, 2 * HEAD - 1)
EDGE_H = (0, HEAD - 1)


def systems(width, edges):
    """N coordinates of raw terms, most of them empty: constant monomials,
    squares (a code drawn twice) and coefficients -1..5."""
    code = st.sampled_from(edges) | st.integers(0, width - 1)
    codes = st.lists(code, max_size=2).map(lambda cs: cs + cs[:1]) | \
        st.lists(code, max_size=3)
    term = st.tuples(st.integers(-1, 5), codes.map(tuple))
    coords = st.dictionaries(st.integers(0, N - 1),
                             st.lists(term, max_size=4), max_size=6)
    return coords.map(lambda d: [d.get(k, []) for k in range(N)])


elements = st.tuples(*[st.integers(0, 2)] * N)


@settings(max_examples=200, deadline=None)
@given(systems(2 * HEAD, EDGE_F), systems(HEAD, EDGE_H), elements, elements)
def test_compiled_coordinates_match_the_interpreter(f, h, x, y):
    k = LoopKernel(f, h)
    assert k.mul(x, y) == interpret(f, x, y)
    assert k.inv(x) == interpret(h, x)


# every feature at once: a constant monomial, a square, a cube, coefficient
# 2 and an unreduced 5, empty coordinates, codes 0, HEAD-1, HEAD, 2*HEAD-1
FIXED_F = [[(1, ())], [(2, (0, 0))], [], [(1, (HEAD - 1, HEAD))],
           [(5, (2 * HEAD - 1,)), (2, ())], [(2, (3, 3, 3))],
           [(1, (HEAD, HEAD)), (2, (1, HEAD + 1))]] + [[]] * (N - 7)
FIXED_H = [[(2, ())], [(1, (HEAD - 1, HEAD - 1))], [],
           [(2, (0, 4)), (1, (0,))]] + [[]] * (N - 4)


def points(count, seed=0):
    rng = random.Random(seed)
    return [tuple(rng.randrange(3) for _ in range(N)) for _ in range(count)]


@pytest.mark.parametrize("cls", [LoopKernel, kernel.LoopKernel],
                         ids=["scalar", "batched"])
def test_fixed_systems_match_the_interpreter(cls):
    k = cls(FIXED_F, FIXED_H)
    xs = points(301)
    for x, y in zip(xs, xs[1:]):
        assert k.mul(x, y) == interpret(FIXED_F, x, y)
        assert k.inv(x) == interpret(FIXED_H, x)


def test_a_kernel_compiles_on_first_use():
    k = LoopKernel(FIXED_F, FIXED_H)
    assert "_mul" not in vars(k) and "_inv" not in vars(k)
    k.mul(_native._IDENTITY, _native._IDENTITY)
    assert "_mul" in vars(k) and "_inv" not in vars(k)


def test_same_terms_at_two_coordinates_give_different_functions():
    terms = ((2, (0, HEAD)),)
    f = [list(terms) if k in (2, 5) else [] for k in range(N)]
    k = LoopKernel(f, [[]] * N)
    x = _native._IDENTITY[:5] + (1,) + _native._IDENTITY[6:]
    assert k.mul(x, x) == interpret(f, x, x)
    assert k._mul[2] is not k._mul[5]
    assert _native._coordinate("mul", 2, terms) is k._mul[2]
    assert _native._coordinate("inv", 2, ()) is not \
        _native._coordinate("mul", 2, ())


def test_an_edited_table_reuses_the_other_coordinates():
    base = LoopKernel(FIXED_F, FIXED_H)
    edited_f = FIXED_F[:4] + [[(1, (HEAD + 2,))]] + FIXED_F[5:]
    edited = LoopKernel(edited_f, FIXED_H)
    x, y = points(2, seed=3)
    assert base.mul(x, y) == interpret(FIXED_F, x, y)
    assert edited.mul(x, y) == interpret(edited_f, x, y)
    same = [a is b for a, b in zip(base._mul, edited._mul)]
    assert same == [k != 4 for k in range(N)]
    assert edited.inv(x) == base.inv(x)
    assert edited._inv == base._inv


def test_the_cache_stays_within_its_bound():
    x, y = points(2, seed=4)
    for i in range(1, 1001):
        f = [[(1, (c,)) for c in range(2 * HEAD) if i >> c & 1]]
        f += [[]] * (N - 1)
        assert LoopKernel(f, [[]] * N).mul(x, y) == interpret(f, x, y)
        assert len(_native._COMPILED) <= CACHE_SIZE


class Sneaky(int):
    """An int whose text says something else."""

    def __str__(self):
        return "1"

    __repr__ = __str__

    def __format__(self, spec):
        return "1"


def test_int_subclasses_reach_the_source_as_their_values():
    assert _native._source("mul", Sneaky(3), ((Sneaky(2), (Sneaky(4),
                                                           Sneaky(HEAD))),)) \
        == "lambda x, y: (x[3] + y[3] + 2*x[4]*y[0]) % 3"
    f = [[(Sneaky(2), (Sneaky(HEAD + 5),))]] + [[]] * (N - 1)
    h = [[(Sneaky(2), (Sneaky(7),))]] + [[]] * (N - 1)
    k = LoopKernel(f, h)
    for x, y in zip(points(20, seed=5), points(20, seed=6)):
        assert k.mul(x, y) == interpret(f, x, y)
        assert k.inv(x) == interpret(h, x)


@pytest.mark.parametrize("build,flat,message", [
    (LoopKernel, ([[(1, (2.0,))]] + [[]] * (N - 1), [[]] * N),
     "f-table term: 'float' object cannot be interpreted as an integer"),
    (kernel.LoopKernel, ([[]] * N, [[]] * (N - 1) + [[(1, ("3",))]]),
     "h-table term: 'str' object cannot be interpreted as an integer"),
    (LoopKernel, ([[(1.5, (2,))]] + [[]] * (N - 1), [[]] * N),
     "f-table term: 'float' object cannot be interpreted as an integer"),
    (PolyEvaluator, ([[(1, (None,))]], 3),
     "term: 'NoneType' object cannot be interpreted as an integer"),
], ids=["float code", "str code", "float coefficient", "evaluator"])
def test_non_int_terms_are_refused_at_construction(build, flat, message):
    # a float code would pass the range check and fail only inside `mul`
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(*flat)
