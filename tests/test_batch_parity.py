"""The batched sweeps must agree bit for bit with the scalar reference.

`_batch.LoopKernel.sweep` runs a chunk of trials per pass on bit planes;
`_native` runs one trial at a time and is the reference, computed once
per table, law and seed up to the largest budget and read off per budget.
Both are pure Python, so these tests always run.
"""

from itertools import islice

import pytest

from moufang3 import _batch, _native, gf3, tables

from sweep_reference import GROUPS, reference
from test_acceptance import MUTATIONS, mutated_tables

CHUNK = _batch.CHUNK
TRIALS = (0, 1, CHUNK - 1, CHUNK, CHUNK + 1)
SEEDS = (1, 42, (1 << 64) - 1)


def flat_tables(mutation=None):
    return tuple(map(tables.compile_concrete, mutated_tables(mutation)))


@pytest.mark.parametrize("mutation", [None] + MUTATIONS,
                         ids=["shipped"] + [m[0] for m in MUTATIONS])
@pytest.mark.parametrize("name", _native.SWEEP_NAMES)
def test_sweeps_match_reference(mutation, name):
    flat = flat_tables(mutation)
    ref, fast = _native.LoopKernel(*flat), _batch.LoopKernel(*flat)
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
    monkeypatch.setattr(_batch, "CHUNK", 32)
    f, h = flat_tables()
    f[18] = f[18] + [(1, tuple(range(20)))]
    ref, fast = _native.LoopKernel(f, h), _batch.LoopKernel(f, h)
    trials = 2 * 42 * _batch.CHUNK
    got = fast.sweep("flexible", 2, trials)
    assert got == ref.sweep("flexible", 2, trials)
    assert got[1] // 42 >= _batch.CHUNK, got


@pytest.mark.parametrize("name", _native.SWEEP_NAMES)
def test_constant_monomials_match_reference(monkeypatch, name):
    # a constant term is the all-lanes plane; r * CHUNK + 1 trials of a law
    # of r trials per lane leave one lane in the last chunk
    monkeypatch.setattr(_batch, "CHUNK", 2)
    f, h = flat_tables()
    f[18] = f[18] + [(1, ())]
    h[18] = h[18] + [(2, ())]
    ref, fast = _native.LoopKernel(f, h), _batch.LoopKernel(f, h)
    trials = GROUPS[name] * _batch.CHUNK + 1
    assert fast.sweep(name, 42, trials) == ref.sweep(name, 42, trials)


def drain(seed, count):
    """`count` elements of the reference stream and the state after them."""
    kernel = _native.LoopKernel([[]] * 19, [[]] * 19)
    state, trits = seed, []
    for _ in range(count):
        x, state = kernel.random_element(state)
        trits.extend(x)
    return trits, state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("lanes,per_lane", [(1, 1), (7, 3), (CHUNK, 1)])
def test_lane_split_stream_matches_reference(seed, lanes, per_lane):
    cols, state = _batch.draw_columns(seed, lanes, 19 * per_lane)
    got = [t for lane in range(lanes) for t in _batch.lane_trits(cols, lane)]
    assert (got, state) == drain(seed, lanes * per_lane)


def test_plane_arithmetic_matches_gf3():
    pairs = [(a, b) for a in range(3) for b in range(3)]

    def planes(values):
        nz = sum(1 << i for i, v in enumerate(values) if v)
        sg = sum(1 << i for i, v in enumerate(values) if v == 2)
        return nz, sg

    def trits(pair):
        return [_batch.lane_trits([pair], i)[0] for i in range(len(pairs))]

    a = planes([x for x, _ in pairs])
    b = planes([y for _, y in pairs])
    assert trits(_batch.plane_add(a, b)) == [gf3.add(x, y) for x, y in pairs]
    assert trits(_batch.plane_mul(a, b)) == [gf3.mul(x, y) for x, y in pairs]
    assert trits(_batch.plane_neg(a)) == [gf3.neg(x) for x, _ in pairs]
