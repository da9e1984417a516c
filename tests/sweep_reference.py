"""The scalar reference of the batched sweeps: one pass of
`_native.LoopKernel.verdicts` to the largest budget, read off per budget;
and the tables, seeds and jump tables the sweep tests share."""

from itertools import islice

from moufang3 import _native, kernel, tables

from test_acceptance import mutated_tables

NAMES = _native.SWEEP_NAMES
SEEDS = (1, 42, (1 << 64) - 1)
# trits a trial reads, written out here rather than read from the kernels:
# 19 per element, 9 per tail on coordinates 11..19
TRITS = {"moufang": 57, "left_alternative": 38, "right_alternative": 38,
         "flexible": 38, "inverse": 19, "tail_central": 28}
# trials per lane: a lane holds 1596 trits
GROUPS = {name: 1596 // w for name, w in TRITS.items()}


def flat_tables(mutation=None):
    return tuple(map(tables.compile_concrete, mutated_tables(mutation)))


def sparse_table(variables):
    """The shipped tables plus x1..xk*y1..yk in f19, k = variables // 2:
    the laws break only where those head coordinates are all nonzero."""
    f, h = flat_tables()
    half = variables // 2
    f[18] = f[18] + [(1, tuple(range(half)) + tuple(range(10, 10 + half)))]
    return f, h


def head_table(k):
    """The shipped tables plus x1..xk in f19: x*z differs from z*x for a
    tail z exactly where x1..xk are all nonzero."""
    f, h = flat_tables()
    f[18] = f[18] + [(1, tuple(range(k)))]
    return f, h


def scalar_jump_tables(stride):
    """The jump tables built one unit vector and one step at a time."""
    mask = (1 << 64) - 1

    def step(s):
        s ^= s >> 12
        s = (s ^ (s << 25)) & mask
        return s ^ (s >> 27)

    cols = []
    for bit in range(64):
        s = 1 << bit
        for _ in range(stride):
            s = step(s)
        cols.append(s)
    jump = []
    for b in range(8):
        t = [0] * 256
        for v in range(256):
            for i in range(8):
                if v >> i & 1:
                    t[v] ^= cols[8 * b + i]
        jump.append(tuple(t))
    return tuple(jump)


def reference(per_trial, trials):
    """What a `_native` sweep of `trials` trials returns."""
    bad = [i for i, w in enumerate(per_trial[:trials]) if w is not None]
    if not bad:
        return 0, -1, None
    return len(bad), bad[0], per_trial[bad[0]]


def check_budgets(flat, seed, trials_list, names=NAMES):
    """Compare the shared pass with the reference at every budget; returns
    each law's verdicts up to the largest budget."""
    ref, fast = _native.LoopKernel(*flat), kernel.LoopKernel(*flat)
    per_trial = {n: list(islice(ref.verdicts(n, seed), max(trials_list)))
                 for n in names}
    for trials in trials_list:
        got, seconds = fast.sweep_many(names, seed, trials)
        assert list(got) == list(seconds) == list(names)
        for n in names:
            assert got[n] == reference(per_trial[n], trials), (n, trials)
    return per_trial
