"""The scalar reference of the batched sweeps: one pass of
`_native.LoopKernel.verdicts` to the largest budget, read off per budget;
the batched pass's layout written out again (lanes of S trits drawn per
chunk, one evaluation lane per trial, head trits only); and the tables,
seeds and jump tables the sweep tests share."""

from itertools import islice
from math import lcm

from moufang3 import _native, kernel, tables

from test_acceptance import mutated_tables

NAMES = _native.SWEEP_NAMES
SEEDS = (1, 42, (1 << 64) - 1)
# trits a trial reads, written out here rather than read from the kernels:
# 19 per element, 9 per tail on coordinates 11..19
TRITS = {"moufang": 57, "left_alternative": 38, "right_alternative": 38,
         "flexible": 38, "inverse": 19, "tail_central": 28}
# trits per lane: 114 * m, m in 1..14; 114 = lcm(57, 38, 19) and
# 1596 = 14 * 114 = lcm(57, 38, 19, 28)
UNIT, BLOCK = 114, 1596


def stride(trials, chunk, names=NAMES):
    """The trits per lane of a pass: 114 * m for the least m in 1..13
    that draws it as one chunk of ceil(w * trials / stride) lanes, w the
    widest trial, else 1596."""
    w = max(TRITS[name] for name in names)
    return next((s for s in range(UNIT, BLOCK, UNIT)
                 if w * trials <= s * chunk), BLOCK)


def lanes(trials, chunk, names=NAMES):
    """The lanes a pass draws, over all its chunks."""
    w = max(TRITS[name] for name in names)
    return -(-w * trials // stride(trials, chunk, names))


def groups(name, s):
    """A law's trials per period lcm(w, s) of lanes of s trits: trial
    groups * V + g is the g-th of period V, and its draw starts at trit
    (g * w) % s of its lane, which the witness is redrawn from."""
    return lcm(TRITS[name], s) // TRITS[name]


def chunk_of(name, trial, trials, chunk, names=NAMES):
    """The chunk that holds a law's trial in a pass; every chunk holds
    whole trials of every law, so this is where its last trit is too."""
    s = stride(trials, chunk, names)
    return TRITS[name] * trial // s // chunk


def chunk_trials(name, index, trials, chunk, names=NAMES):
    """The trials of a law that chunk `index` of a pass holds, each
    evaluated in a lane of its own."""
    per_chunk = stride(trials, chunk, names) * chunk // TRITS[name]
    return range(min(trials, index * per_chunk),
                 min(trials, (index + 1) * per_chunk))


def head_offsets(name):
    """The offsets in a law's trial of the trits placed on head
    coordinates 1..10: 0..9 of each of its elements, none of a tail."""
    elements = TRITS[name] // 19
    return {19 * e + o for e in range(elements) for o in range(10)}


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
        got = fast.sweep_many(names, seed, trials)
        assert list(got) == list(names)
        for n in names:
            assert got[n] == reference(per_trial[n], trials), (n, trials)
    return per_trial


def spy_draws(monkeypatch):
    """The (lanes, stride, reach) of each `kernel.draw_lanes` call from now
    on: reach[j] is the count of leading lanes whose step j it computes."""
    draw_lanes, calls = kernel.draw_lanes, []

    def spy(starts, stride, reach):
        calls.append((len(starts), stride, tuple(reach)))
        return draw_lanes(starts, stride, reach)

    monkeypatch.setattr(kernel, "draw_lanes", spy)
    return calls


def shapes(draws):
    """The (lanes, stride) of each spied draw."""
    return [(lanes, s) for lanes, s, _ in draws]


def prefix_steps(draws):
    """Whether some spied draw computes a step for some lanes, not all."""
    return any(0 < c < lanes for lanes, _, reach in draws for c in reach)


def skipped(draws, position, chunk):
    """Whether draw `position` of a pass of the spied draws was left
    uncomputed by its chunk's draw."""
    index, lane = divmod(position // draws[0][1], chunk)
    return lane >= draws[index][2][position % draws[0][1]]
