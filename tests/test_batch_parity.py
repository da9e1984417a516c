"""The batched sweeps must agree bit for bit with the scalar reference.

`kernel.LoopKernel.sweep` draws up to CHUNK lanes of S trits per pass and
evaluates each trial of a law in a bit-plane lane of its own; `_native`
runs one trial at a time and is the reference, computed once per table,
law and seed up to the largest budget and read off per budget.  Both are
pure Python, so these tests always run.
"""

from functools import lru_cache
from itertools import islice, product

import pytest

from moufang3 import _native, kernel
from moufang3._native import LAWS
from moufang3.kernel import PolyEvaluator

from sweep_reference import (BLOCK, NAMES, SEEDS, TRITS, UNIT, chunk_of,
                             flat_tables, groups, head_offsets, lanes,
                             reference, shapes, sparse_table, spy_draws,
                             stride)
from test_acceptance import MUTATIONS

CHUNK = kernel.CHUNK
# trial counts around 2048, not chunk boundaries: one law's sweep of at
# most 2049 trials is one chunk of lanes of 114 trits
TRIALS = (0, 1, CHUNK - 1, CHUNK, CHUNK + 1)


def test_single_sweep_budgets_are_one_chunk_of_the_shortest_lanes():
    for name in NAMES:
        assert stride(max(TRIALS), CHUNK, (name,)) == UNIT
        assert lanes(max(TRIALS), CHUNK, (name,)) <= CHUNK


@pytest.mark.parametrize("mutation", [None] + MUTATIONS,
                         ids=["shipped"] + [m[0] for m in MUTATIONS])
@pytest.mark.parametrize("name", NAMES)
def test_sweeps_match_reference(mutation, name):
    flat = flat_tables(mutation)
    ref, fast = _native.LoopKernel(*flat), kernel.LoopKernel(*flat)
    for seed in SEEDS:
        per_trial = list(islice(ref.verdicts(name, seed), max(TRIALS)))
        for trials in TRIALS:
            assert fast.sweep(name, seed, trials) == \
                reference(per_trial, trials), (seed, trials)


def test_first_failure_in_a_later_chunk(monkeypatch):
    # a monomial in all 20 head variables breaks flexibility only where
    # every head coordinate of both factors is nonzero; at this seed the
    # first failure is trial 2573, in lane 61 of 42 flexibility trials
    # each, so a CHUNK of 32 lanes of 1596 trits puts it in the second
    # chunk, alone and beside Moufang
    monkeypatch.setattr(kernel, "CHUNK", 32)
    f, h = sparse_table(20)
    ref, fast = _native.LoopKernel(f, h), kernel.LoopKernel(f, h)
    trials = 2 * groups("flexible", BLOCK) * kernel.CHUNK
    want = ref.sweep("flexible", 2, trials)
    assert fast.sweep("flexible", 2, trials) == want
    got = fast.sweep_many(NAMES[:5], 2, trials)
    assert got["flexible"] == want
    for names in (("flexible",), NAMES[:5]):
        assert chunk_of("flexible", want[1], trials, kernel.CHUNK,
                        names) == 1, want


@pytest.mark.parametrize("name", NAMES)
def test_constant_monomials_match_reference(monkeypatch, name):
    # a constant term is the all-lanes plane; r * CHUNK + 1 trials of a law
    # of r trials per 1596-trit lane leave one lane in the last chunk
    monkeypatch.setattr(kernel, "CHUNK", 2)
    f, h = flat_tables()
    f[18] = f[18] + [(1, ())]
    h[18] = h[18] + [(2, ())]
    ref, fast = _native.LoopKernel(f, h), kernel.LoopKernel(f, h)
    trials = groups(name, BLOCK) * kernel.CHUNK + 1
    draws = spy_draws(monkeypatch)
    assert fast.sweep(name, 42, trials) == ref.sweep(name, 42, trials)
    assert shapes(draws) == [(2, BLOCK), (1, BLOCK)]


def test_unreduced_coefficients_read_as_their_residues():
    # coefficients 0, 3, 4 and -1 are the residues 0, 0, 1 and 2, so a
    # table written with them is its reduced twin, in every interpreter
    f, h = flat_tables()
    raw_f, raw_h = list(f), list(h)
    raw_f[18] = f[18] + [(0, (0, 10)), (3, (1,)), (4, (2, 3, 12)),
                         (-1, (3, 13))]
    raw_h[18] = h[18] + [(0, (0,)), (3, (1, 2)), (4, (3,)), (-1, (4, 5))]
    f[18] = f[18] + [(1, (2, 3, 12)), (2, (3, 13))]
    h[18] = h[18] + [(1, (3,)), (2, (4, 5))]
    raw, twin = kernel.LoopKernel(raw_f, raw_h), kernel.LoopKernel(f, h)
    state = 42
    for _ in range(50):
        x, state = twin.random_element(state)
        y, state = twin.random_element(state)
        assert raw.mul(x, y) == twin.mul(x, y)
        assert raw.inv(x) == twin.inv(x)
    want = twin.sweep_many(NAMES, 42, 300)
    assert raw.sweep_many(NAMES, 42, 300) == want
    assert want["moufang"][0] > 0 and want["inverse"][0] > 0
    raw_polys = [[(0, (0,)), (3, (1,)), (4, (0, 1)), (-1, (2, 2))],
                 [(4, ()), (-1, (1,)), (3, ())]]
    polys = [[(1, (0, 1)), (2, (2, 2))], [(1, ()), (2, (1,))]]
    raw_ev, ev = PolyEvaluator(raw_polys, 3), PolyEvaluator(polys, 3)
    assert raw_ev.count_all_zero() == ev.count_all_zero()
    for point in product(range(3), repeat=3):
        assert raw_ev.eval_at(point) == ev.eval_at(point)


@pytest.mark.parametrize("build,flat,message", [
    (_native.LoopKernel, ([[(0, (20,))]] + [[]] * 18, [[]] * 19),
     "f-table factor code out of range"),
    (kernel.LoopKernel, ([[]] * 19, [[]] * 18 + [[(0, (10,))]]),
     "h-table factor code out of range"),
    (kernel.LoopKernel, ([[(3, (-1,))]] + [[]] * 18, [[]] * 19),
     "f-table factor code out of range"),
    (PolyEvaluator, ([[(1, (0,)), (0, (3,))]], 3), "factor code out of range"),
], ids=["scalar f", "batched h", "batched negative code", "evaluator"])
def test_zero_terms_with_bad_codes_are_refused(build, flat, message):
    # the codes are checked before zero terms are dropped
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(*flat)


# (lanes, elements per lane): a stride of 19 * elements trits.  Lanes of
# 19 and 57 trits end in a short output batch of 3 and 1 steps, an odd
# width leaves the high half of the last 16-byte pair empty, (1000, 6) is
# a `verify --trials 2000` pass and (CHUNK, 84) a full chunk of BLOCK
LANE_SPLITS = [(1, 1), (7, 3), (CHUNK, 1), (72, 84), (5, 84),
               (CHUNK // 3 + 1, 84), (CHUNK // 2 + 1, 84), (CHUNK, 84),
               (1000, 6)]


@lru_cache(maxsize=None)
def stream(seed):
    """The reference stream's trits from `seed`, as bytes, up to the largest
    LANE_SPLITS case, and the state before each of its elements."""
    ref = _native.LoopKernel([[]] * 19, [[]] * 19)
    end = max(lanes * per_lane for lanes, per_lane in LANE_SPLITS)
    state, trits, states = seed, bytearray(), []
    for _ in range(end):
        states.append(state)
        x, state = ref.random_element(state)
        trits += bytes(x)
    return bytes(trits), states


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("lanes,per_lane", LANE_SPLITS)
def test_lane_split_stream_matches_reference(seed, lanes, per_lane):
    # byte L*S + j of the draw is lane L's draw j, which is trit L*S + j of
    # the stream, where step j is computed for the first reach[j] lanes:
    # all, most, one or none of them, and none for the whole third batch
    # of eight steps
    stride = 19 * per_lane
    trits, states = stream(seed)
    starts = states[:lanes * per_lane:per_lane]
    reach = [0 if j // 8 == 2 else (lanes, lanes - lanes // 3, 1, 0)[j % 4]
             for j in range(stride)]
    data = kernel.draw_lanes(starts, stride, reach)
    want = bytearray(lanes * stride)
    for j, count in enumerate(reach):
        want[j:j + count * stride:stride] = trits[j:j + count * stride:stride]
    assert data.translate(bytes(v % 3 for v in range(256))) == want


@pytest.mark.parametrize("names,trials,s", [
    (NAMES, 2000, UNIT), (NAMES, 57, BLOCK), (NAMES, 0, UNIT),
    (("tail_central",), 200, UNIT), (("moufang",), 1, UNIT),
    (("inverse", "tail_central", "flexible"), 301, 3 * UNIT)])
def test_head_reach_is_the_last_lane_of_a_head_trit(names, trials, s):
    # per step j, the lanes up to the last whose draw j is a head trit of
    # a trial within the budget, written out draw by draw
    want = [0] * s
    for name in names:
        w, heads = TRITS[name], head_offsets(name)
        for p in range(trials * w):
            if p % w in heads:
                want[p % s] = max(want[p % s], p // s + 1)
    assert kernel.head_reach([LAWS[n] for n in names], trials, s) == want
    # a 2000-trial pass computes 60 of its 114 steps for all 1000 lanes,
    # and tail_central's x heads keep the other 54 for a prefix of them
    if trials == 2000:
        assert want.count(1000) == 60
        assert sum(0 < r < 1000 for r in want) == 54


@pytest.mark.parametrize("chunk", [1, 64, CHUNK])
def test_lane_stride_rule(monkeypatch, chunk):
    # S = 114 * m for the least m in 1..13 that draws the pass as one chunk
    # of ceil(w * trials / S) lanes, else 1596; the budgets sit on each
    # m's last trial count and one past it, for every widest trial w
    monkeypatch.setattr(kernel, "CHUNK", chunk)
    for name, w in TRITS.items():
        edges = {UNIT * m * chunk // w for m in range(1, 15)}
        for trials in sorted({0, 1} | edges | {e + 1 for e in edges}):
            s = kernel.lane_stride(w, trials)
            assert s == stride(trials, chunk, (name,)), (w, trials)
            assert s % UNIT == 0 and UNIT <= s <= BLOCK
            assert s == BLOCK or w * trials <= s * chunk
            assert s == UNIT or w * trials > (s - UNIT) * chunk
    # a pass draws its lanes at that stride, and only its widest law counts
    draws = spy_draws(monkeypatch)
    kernel.LoopKernel(*flat_tables()).sweep_many(
        ("inverse", "tail_central"), 42, 3 * chunk + 1)
    s = stride(3 * chunk + 1, chunk, ("tail_central",))
    assert {d[1] for d in draws} == {s}
    assert sum(d[0] for d in draws) == -(-28 * (3 * chunk + 1) // s)


def test_plane_arithmetic_matches_gf3():
    pairs = [(a, b) for a in range(3) for b in range(3)]

    def planes(values):
        nz = sum(1 << i for i, v in enumerate(values) if v)
        sg = sum(1 << i for i, v in enumerate(values) if v == 2)
        return nz, sg

    def trits(pair):
        nz, sg = pair
        return [(nz >> i & 1) + (sg >> i & 1) for i in range(len(pairs))]

    a = planes([x for x, _ in pairs])
    b = planes([y for _, y in pairs])
    assert trits(kernel.plane_add(a, b)) == [(x + y) % 3 for x, y in pairs]
    assert trits(kernel.plane_mul(a, b)) == [x * y % 3 for x, y in pairs]
    assert trits(kernel.plane_neg(a)) == [-x % 3 for x, _ in pairs]
