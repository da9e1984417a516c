"""The batched sweeps must agree bit for bit with the scalar reference.

`kernel.LoopKernel.sweep` runs up to CHUNK lanes per pass on bit planes,
each lane holding r trials of a law (28 for Moufang up to 84 for the
inverse law); `_native` runs one trial at a time and is the reference,
computed once per table, law and seed up to the largest budget and read off
per budget.  Both are pure Python, so these tests always run.
"""

from functools import lru_cache
from itertools import islice, product

import pytest

from moufang3 import _native, kernel
from moufang3.kernel import PolyEvaluator

from sweep_reference import (GROUPS, NAMES, SEEDS, flat_tables, reference,
                             sparse_table)
from test_acceptance import MUTATIONS

CHUNK = kernel.CHUNK
# trial counts around 2048, not chunk boundaries: a chunk is CHUNK = 2048
# lanes, r * 2048 trials, so the largest budget fills 74 lanes of one chunk
TRIALS = (0, 1, CHUNK - 1, CHUNK, CHUNK + 1)


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
    # each, so a CHUNK of 32 lanes puts it in the second chunk
    monkeypatch.setattr(kernel, "CHUNK", 32)
    f, h = sparse_table(20)
    ref, fast = _native.LoopKernel(f, h), kernel.LoopKernel(f, h)
    trials = 2 * GROUPS["flexible"] * kernel.CHUNK
    want = ref.sweep("flexible", 2, trials)
    assert fast.sweep("flexible", 2, trials) == want
    got = fast.sweep_many(NAMES[:5], 2, trials)
    assert got["flexible"] == want
    assert want[1] // GROUPS["flexible"] >= kernel.CHUNK, want


@pytest.mark.parametrize("name", NAMES)
def test_constant_monomials_match_reference(monkeypatch, name):
    # a constant term is the all-lanes plane; r * CHUNK + 1 trials of a law
    # of r trials per lane leave one lane in the last chunk
    monkeypatch.setattr(kernel, "CHUNK", 2)
    f, h = flat_tables()
    f[18] = f[18] + [(1, ())]
    h[18] = h[18] + [(2, ())]
    ref, fast = _native.LoopKernel(f, h), kernel.LoopKernel(f, h)
    trials = GROUPS[name] * kernel.CHUNK + 1
    assert fast.sweep(name, 42, trials) == ref.sweep(name, 42, trials)


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


# (lanes, elements per lane): a stride of 19 * elements trits.  At BLOCK =
# 84 * 19 the lanes of a `verify --trials 2000` pass (72) split into 28
# sub-lanes of 57 steps, which ends in a short output batch; 5 lanes into
# 399 of 4 steps; CHUNK // 3 + 1 lanes into 2; and from CHUNK // 2 + 1 lanes
# on a lane is not split
LANE_SPLITS = [(1, 1), (7, 3), (CHUNK, 1), (72, 84), (5, 84),
               (CHUNK // 3 + 1, 84), (CHUNK // 2 + 1, 84), (CHUNK, 84)]


@lru_cache(maxsize=None)
def stream(seed):
    """The reference stream's trits from `seed`, as bytes, up to the largest
    LANE_SPLITS case, and the state after each case's trits."""
    ref = _native.LoopKernel([[]] * 19, [[]] * 19)
    ends = {lanes * per_lane for lanes, per_lane in LANE_SPLITS}
    state, trits, after = seed, bytearray(), {}
    for count in range(1, max(ends) + 1):
        x, state = ref.random_element(state)
        trits += bytes(x)
        if count in ends:
            after[19 * count] = state
    return bytes(trits), after


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("lanes,per_lane", LANE_SPLITS)
def test_lane_split_stream_matches_reference(seed, lanes, per_lane):
    # column c holds trit c of every lane, lane i at bit i
    stride = 19 * per_lane
    trits, after = stream(seed)
    want = []
    for c in range(stride):
        column = trits[c:lanes * stride:stride][::-1]
        want.append((int(column.translate(b"011" + bytes(253)), 2),
                     int(column.translate(b"001" + bytes(253)), 2)))
    assert kernel.draw_columns(seed, lanes, stride) == \
        (want, after[lanes * stride])


@pytest.mark.parametrize("stride", [kernel.BLOCK, 19, 57])
def test_packed_width_is_at_most_a_chunk(monkeypatch, stride):
    # each lane splits into the most sub-lanes, k a divisor of the stride,
    # that keep all k * lanes of them in one chunk
    monkeypatch.setattr(kernel, "CHUNK", 64)
    packed, widths = kernel._packed, []

    def spy(states):
        states = list(states)
        widths.append(len(states))
        return packed(states)

    monkeypatch.setattr(kernel, "_packed", spy)
    for lanes in range(1, kernel.CHUNK + 1):
        kernel.draw_columns(1, lanes, stride)
        k = widths.pop() // lanes
        assert stride % k == 0 and k * lanes <= kernel.CHUNK
        assert not any(stride % d == 0
                       for d in range(k + 1, kernel.CHUNK // lanes + 1))


def test_plane_arithmetic_matches_gf3():
    pairs = [(a, b) for a in range(3) for b in range(3)]

    def planes(values):
        nz = sum(1 << i for i, v in enumerate(values) if v)
        sg = sum(1 << i for i, v in enumerate(values) if v == 2)
        return nz, sg

    def trits(pair):
        return [kernel.lane_trits([pair], i)[0] for i in range(len(pairs))]

    a = planes([x for x, _ in pairs])
    b = planes([y for _, y in pairs])
    assert trits(kernel.plane_add(a, b)) == [(x + y) % 3 for x, y in pairs]
    assert trits(kernel.plane_mul(a, b)) == [x * y % 3 for x, y in pairs]
    assert trits(kernel.plane_neg(a)) == [-x % 3 for x, _ in pairs]
