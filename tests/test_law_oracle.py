"""The table of swept laws against a hand-written oracle.

`_native.LAWS` defines each swept law once, and both kernels read it, so a
typo there would pass every kernel-to-kernel parity test at once.  Here
each law is written out again as a scalar predicate over the kernel's
`mul`/`inv`, with its own draw order and its own xorshift-star stream,
none of it read from the table; `_native.LoopKernel.sweep` must report
exactly what a sweep of these predicates reports.
"""

import pytest

from moufang3 import _native

from test_acceptance import MUTATIONS
from test_batch_parity import SEEDS, flat_tables

MASK64 = (1 << 64) - 1
BUDGETS = (0, 1, 7, 200)
ZERO = (0,) * 19


def trits(state, count):
    out = []
    for _ in range(count):
        state ^= state >> 12
        state = (state ^ (state << 25)) & MASK64
        state ^= state >> 27
        out.append(((state * 2685821657736338717) & MASK64) % 3)
    return tuple(out), state


def element(state):
    return trits(state, 19)


def tail(state):
    t, state = trits(state, 9)
    return (0,) * 10 + t, state


def moufang(k, x, y, z):
    return (k.mul(k.mul(x, y), k.mul(z, x))
            == k.mul(k.mul(x, k.mul(y, z)), x))


def left_alternative(k, x, y):
    return k.mul(k.mul(x, x), y) == k.mul(x, k.mul(x, y))


def right_alternative(k, x, y):
    return k.mul(k.mul(y, x), x) == k.mul(y, k.mul(x, x))


def flexible(k, x, y):
    return k.mul(k.mul(x, y), x) == k.mul(x, k.mul(y, x))


def inverse(k, x):
    w = k.inv(x)
    return k.mul(x, w) == ZERO and k.mul(w, x) == ZERO


def tail_central(k, x, z):
    want = tuple((a + b) % 3 for a, b in zip(x, z))
    return k.mul(x, z) == want and k.mul(z, x) == want


ORACLE = {
    "moufang": (moufang, (element, element, element)),
    "left_alternative": (left_alternative, (element, element)),
    "right_alternative": (right_alternative, (element, element)),
    "flexible": (flexible, (element, element)),
    "inverse": (inverse, (element,)),
    "tail_central": (tail_central, (element, tail)),
}


def oracle_sweep(kernel, name, seed, trials):
    holds, draws = ORACLE[name]
    state, violations, first, witness = seed, 0, -1, None
    for i in range(trials):
        drawn = []
        for draw in draws:
            x, state = draw(state)
            drawn.append(x)
        if not holds(kernel, *drawn):
            violations += 1
            if first < 0:
                first, witness = i, tuple(drawn)
    return violations, first, witness


def test_oracle_covers_every_swept_law():
    assert sorted(ORACLE) == sorted(_native.SWEEP_NAMES)


@pytest.mark.parametrize("mutation", [None] + MUTATIONS,
                         ids=["shipped"] + [m[0] for m in MUTATIONS])
@pytest.mark.parametrize("name", sorted(ORACLE))
def test_sweep_matches_oracle(mutation, name):
    kernel = _native.LoopKernel(*flat_tables(mutation))
    for seed in SEEDS:
        for trials in BUDGETS:
            assert kernel.sweep(name, seed, trials) == \
                oracle_sweep(kernel, name, seed, trials), (seed, trials)


def test_oracle_sees_a_corrupted_table():
    # the oracle is not vacuous: this mutation breaks all five laws that
    # draw only elements
    mutation = next(m for m in MUTATIONS if m[0] == "f5 swapped variable")
    kernel = _native.LoopKernel(*flat_tables(mutation))
    for name in ("moufang", "left_alternative", "right_alternative",
                 "flexible", "inverse"):
        assert oracle_sweep(kernel, name, 42, max(BUDGETS))[0] > 0, name
