"""Both tiers of the scalar product and inverse against a plain interpreter.

`_native.LoopKernel` interprets its first PROMOTE_AT products and inverses
and then compiles its whole table into one `mul` and one `inv`, bound on
the instance.  `interpret` below evaluates the raw flat tables the kernel
was given, coefficients unreduced, and shares no code with either tier.
"""

from itertools import combinations, cycle, islice
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moufang3 import _native, cli, kernel
from moufang3._native import HEAD, N, PROMOTE_AT, SUM_WIDTH, LoopKernel
from moufang3.kernel import PolyEvaluator
from moufang3.loop import Loop, basis
from moufang3.tables import _DATA_DIR, load_tables_from


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


def promoted(k):
    """Whether `k`'s `mul` and `inv` are the compiled functions."""
    return all(isinstance(vars(k).get(name), types.FunctionType)
               for name in ("mul", "inv"))


EDGE_F = (0, HEAD - 1, HEAD, 2 * HEAD - 1)
EDGE_H = (0, HEAD - 1)


def systems(width, edges):
    """N coordinates of raw terms, most of them empty: constant monomials,
    squares (a code drawn twice), coefficients -1..5, and now and then one
    leading factor over more terms than a generated sum puts in one group."""
    code = st.sampled_from(edges) | st.integers(0, width - 1)
    codes = st.lists(code, max_size=2).map(lambda cs: cs + cs[:1]) | \
        st.lists(code, max_size=3)
    term = st.tuples(st.integers(-1, 5), codes.map(tuple))
    long_group = st.tuples(code, st.lists(term, min_size=1, max_size=4),
                           st.integers(SUM_WIDTH + 1, 2 * SUM_WIDTH + 3)).map(
        lambda g: [(c, (g[0],) + cs) for c, cs in islice(cycle(g[1]), g[2])])
    coords = st.dictionaries(st.integers(0, N - 1),
                             st.lists(term, max_size=4) | long_group,
                             max_size=6)
    return coords.map(lambda d: [d.get(k, []) for k in range(N)])


elements = st.tuples(*[st.integers(0, 2)] * N)


@settings(max_examples=200, deadline=None)
@given(systems(2 * HEAD, EDGE_F), systems(HEAD, EDGE_H), elements, elements)
def test_compiled_coordinates_match_the_interpreter(f, h, x, y):
    k = LoopKernel(f, h)
    assert k.mul(x, y) == interpret(f, x, y)
    assert k.inv(x) == interpret(h, x)
    k._promote()
    assert k.mul(x, y) == interpret(f, x, y)
    assert k.inv(x) == interpret(h, x)


# every feature at once: a constant monomial, a square, a cube, coefficient
# 2 and an unreduced 5, empty coordinates, codes 0, HEAD-1, HEAD, 2*HEAD-1,
# one leading factor over more than SUM_WIDTH terms, and a coordinate of
# more than SUM_WIDTH summands
FIXED_F = [[(1, ())], [(2, (0, 0))], [], [(1, (HEAD - 1, HEAD))],
           [(5, (2 * HEAD - 1,)), (2, ())], [(2, (3, 3, 3))],
           [(1, (HEAD, HEAD)), (2, (1, HEAD + 1))],
           [(1 + c % 2, (2, c)) for c in range(2 * HEAD)] * 4,
           [(1, ())] * (SUM_WIDTH + 6) + [(2, (c,)) for c in range(HEAD)]] \
    + [[]] * (N - 9)
FIXED_H = [[(2, ())], [(1, (HEAD - 1, HEAD - 1))], [],
           [(2, (0, 4)), (1, (0,))]] + [[]] * (N - 4)


def points(count, seed=0):
    rng = random.Random(seed)
    return [tuple(rng.randrange(3) for _ in range(N)) for _ in range(count)]


@pytest.mark.parametrize("cls", [LoopKernel, kernel.LoopKernel],
                         ids=["scalar", "batched"])
def test_fixed_systems_match_the_interpreter(cls):
    # PROMOTE_AT products and as many inverses: the kernel promotes halfway
    k = cls(FIXED_F, FIXED_H)
    xs = points(PROMOTE_AT + 1)
    for x, y in zip(xs, xs[1:]):
        assert k.mul(x, y) == interpret(FIXED_F, x, y)
        assert k.inv(x) == interpret(FIXED_H, x)
    assert promoted(k)


def test_a_kernel_promotes_at_call_promote_at():
    k = LoopKernel(FIXED_F, FIXED_H)
    x, y = points(2, seed=1)
    want_mul, want_inv = interpret(FIXED_F, x, y), interpret(FIXED_H, x)
    for i in range(PROMOTE_AT - 2):
        assert (k.mul(x, y) if i % 2 else k.inv(x)) == \
            (want_mul if i % 2 else want_inv)
    assert not promoted(k)
    assert k.mul(x, y) == want_mul          # call PROMOTE_AT - 1
    assert not promoted(k)
    assert k.mul(x, y) == want_mul          # call PROMOTE_AT
    assert promoted(k)
    assert k.mul(x, y) == want_mul          # call PROMOTE_AT + 1
    assert k.inv(x) == want_inv


def test_a_long_power_switches_to_the_compiled_product():
    # Loop.power and Loop.order look the product up on every step, so the
    # steps after the promotion run compiled
    lp = Loop()
    n = PROMOTE_AT + 50
    assert lp.power(basis(1), n) == tuple(n % 3 * v for v in basis(1))
    assert promoted(lp._kernel) and lp._kernel._calls == PROMOTE_AT


class Sneaky(int):
    """An int whose text says something else."""

    def __str__(self):
        return "1"

    __repr__ = __str__

    def __format__(self, spec):
        return "1"


def test_int_subclasses_reach_the_source_as_their_values():
    f = [[]] * 3 + [[(Sneaky(2), (Sneaky(4), Sneaky(HEAD)))]] + [[]] * (N - 4)
    assert "(x3 + y3 + 2*x4*y0) % 3" in _native._source(f, [[]] * N)
    f = [[(Sneaky(2), (Sneaky(HEAD + 5),))]] + [[]] * (N - 1)
    h = [[(Sneaky(2), (Sneaky(7),))]] + [[]] * (N - 1)
    k = LoopKernel(f, h)
    k._promote()
    for x, y in zip(points(20, seed=5), points(20, seed=6)):
        assert k.mul(x, y) == interpret(f, x, y)
        assert k.inv(x) == interpret(h, x)


def test_source_groups_terms_by_their_leading_factor():
    f = [[]] * 4 + [[(2, (1, HEAD)), (1, (1, 2, HEAD + 3)), (1, (3,)),
                     (2, ())]] + [[]] * (N - 5)
    source = _native._source(f, [[]] * N)
    assert "(x4 + y4 + x1*(2*y0 + x2*y3) + x3 + 2) % 3" in source
    assert "(x0 + y0) % 3" in source and "(-x0) % 3" in source


def long_f19_tables(directory):
    """The shipped tables with every multilinear monomial of degree 1-4 in
    x1..x10, y1..y10 added to f19: a valid coordinate of 6,229 terms."""
    names = [f"{b}{i}" for b in "xy" for i in range(1, HEAD + 1)]
    lines = ["19; 1; " + "*".join(c) for d in range(1, 5)
             for c in combinations(names, d)]
    assert len(lines) == 6195
    directory.mkdir()
    directory.joinpath("f_table.txt").write_text(
        (_DATA_DIR / "f_table.txt").read_text() + "\n".join(lines) + "\n")
    directory.joinpath("h_table.txt").write_text(
        (_DATA_DIR / "h_table.txt").read_text())
    return directory


def test_a_long_coordinate_runs_every_command(tmp_path, capsys):
    tables = str(long_f19_tables(tmp_path / "tables"))
    for argv in (["verify", "--trials", "10"], ["order", "e1"],
                 ["closure", "e1", "e2"],
                 ["density", "e3", "e4", "--mode", "sample", "--trials",
                  "200"], ["eval", "e1*e2"]):
        code = cli.main(argv + ["--tables", tables])
        out, err = capsys.readouterr()
        # a verdict on stdout, or one line on stderr and nothing else
        assert code in (0, 1), argv
        if err:
            assert not out and len(err.splitlines()) == 1, argv
        else:
            assert out, argv
    k = Loop(*load_tables_from(tables))._kernel
    f, h = k._f, k._h
    k._promote()
    assert promoted(k)
    for x, y in zip(points(50, seed=8), points(50, seed=9)):
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
