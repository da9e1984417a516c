"""One draw for several sweeps: the shared pass must give each sweep its own
result.

`kernel.LoopKernel.sweep_many` draws the stream once, one block of S
trits per lane, and evaluates the six laws on it, one lane per trial;
`_native` runs one law at a time and is the reference.  The reference for
a budget of T trials is read off the law's first T `_native` verdicts
(`sweep_reference`), so every budget up to the largest costs one scalar
pass.  Most cases lower CHUNK to SMALL_CHUNK, which keeps budgets of more
than one chunk of lanes cheap for the scalar reference; one mutated table
runs at the real CHUNK.
The shared pass must also give `run_all`, `run_sweep` and the `verify`
report what separate sweeps give.
"""

import io
import json
import time
from contextlib import redirect_stdout

import pytest

from moufang3 import _native, cli, kernel, sweeps
from moufang3.loop import Loop

from sweep_reference import (BLOCK, NAMES, SEEDS, UNIT, check_budgets,
                             chunk_of, chunk_trials, flat_tables, groups,
                             head_table, lanes, prefix_steps,
                             scalar_jump_tables, shapes, sparse_table,
                             spy_draws, stride)
from test_acceptance import MUTATIONS, mutated_tables

SMALL_CHUNK = 2


def budgets(chunk):
    # around the first chunk boundary in lanes of every law: a law of r
    # trials per 1596-trit lane needs chunk + 1 lanes for r * chunk + 1
    return (0, 1, 2, 3, 5, 6, 7) + tuple(
        r * chunk + d for r in sorted({groups(n, BLOCK) for n in NAMES})
        for d in (-1, 1))


def test_budgets_cross_each_law_first_chunk():
    for name in NAMES:
        r = groups(name, BLOCK)
        for d, chunk in ((-1, 0), (1, 1)):
            trials = r * SMALL_CHUNK + d
            assert trials in budgets(SMALL_CHUNK)
            assert stride(trials, SMALL_CHUNK) == BLOCK
            assert chunk_of(name, trials - 1, trials, SMALL_CHUNK) == chunk


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mutation", [None] + MUTATIONS,
                         ids=["shipped"] + [m[0] for m in MUTATIONS])
def test_shared_pass_matches_reference(monkeypatch, mutation, seed):
    monkeypatch.setattr(kernel, "CHUNK", SMALL_CHUNK)
    check_budgets(flat_tables(mutation), seed, budgets(SMALL_CHUNK))


def test_shared_pass_matches_reference_at_full_chunk():
    # this mutation breaks all five element-only laws.  The budgets are
    # trial counts, 2, 3 and 6 * 2048 +- 1: each is one chunk of CHUNK =
    # 2048 lanes, of 114, 228, 342 or 456 trits
    mutation = next(m for m in MUTATIONS if m[0] == "f5 swapped variable")
    trials = tuple(m * kernel.CHUNK + d for m in (2, 3, 6) for d in (-1, 1))
    assert all(lanes(t, kernel.CHUNK) <= kernel.CHUNK for t in trials)
    assert {stride(t, kernel.CHUNK) for t in trials} == \
        {UNIT * m for m in (1, 2, 3, 4)}
    check_budgets(flat_tables(mutation), 42, trials, NAMES[:5])


@pytest.mark.parametrize("table", ["shipped", "f19 plus x1..x6"])
def test_first_stride_step_matches_reference(monkeypatch, table):
    # 4096 trials fill CHUNK lanes of 114 trits; one more takes 228
    flat = flat_tables() if table == "shipped" else head_table(6)
    draws = spy_draws(monkeypatch)
    check_budgets(flat, 42, (4096, 4097))
    assert shapes(draws) == [(kernel.CHUNK, UNIT),
                             (kernel.CHUNK // 2 + 1, 2 * UNIT)]


@pytest.mark.parametrize("seed", SEEDS)
def test_last_stride_step_matches_reference(monkeypatch, seed):
    # at a CHUNK of 2 lanes, 52 trials are two lanes of 1482 trits, 53 two
    # of 1596 and 57 three, so two chunks
    monkeypatch.setattr(kernel, "CHUNK", 2)
    draws = spy_draws(monkeypatch)
    check_budgets(head_table(6), seed, (52, 53, 56, 57))
    assert shapes(draws) == [(2, 13 * UNIT), (2, BLOCK), (2, BLOCK),
                             (2, BLOCK), (1, BLOCK)]


@pytest.mark.parametrize("seed", SEEDS)
def test_gate_tail_sweep_matches_reference(seed):
    # perfbench's corrupted-table gate: one 200-trial sweep of one law, here
    # tail_central on a table that breaks it, at 114 trits a lane
    flat = head_table(6)
    want = _native.LoopKernel(*flat).sweep("tail_central", seed, 200)
    assert want[0] > 0
    assert kernel.LoopKernel(*flat).sweep("tail_central", seed, 200) == want
    assert stride(200, kernel.CHUNK, ("tail_central",)) == UNIT


def test_shared_pass_crosses_the_real_chunk(monkeypatch):
    # at 28 Moufang trials per 1596-trit lane this budget needs CHUNK + 64
    # lanes, so two chunks of the real CHUNK; the same pass in one chunk of
    # twice as many lanes, of 912 trits, is the reference, which keeps the
    # check batched and cheap
    mutation = next(m for m in MUTATIONS if m[0] == "f5 swapped variable")
    fast = kernel.LoopKernel(*flat_tables(mutation))
    trials = groups("moufang", BLOCK) * (kernel.CHUNK + 64)
    assert lanes(trials, kernel.CHUNK) == kernel.CHUNK + 64
    assert lanes(trials, 2 * kernel.CHUNK) <= 2 * kernel.CHUNK
    draws = spy_draws(monkeypatch)
    two_chunks = fast.sweep_many(NAMES, 42, trials)
    # tail_central's budget ends inside the first chunk, whose draw then
    # computes its tail steps for a prefix of the lanes, and the second
    # holds no tail_central trial
    tails = [chunk_trials("tail_central", c, trials, kernel.CHUNK)
             for c in range(2)]
    assert 0 < len(tails[0]) < BLOCK * kernel.CHUNK // 28
    assert len(tails[1]) == 0
    assert len(draws) == 2 and prefix_steps(draws[:1])
    monkeypatch.setattr(kernel, "CHUNK", 2 * kernel.CHUNK)
    assert fast.sweep_many(NAMES, 42, trials) == two_chunks


def test_first_failure_in_a_later_block_chunk(monkeypatch):
    # flexibility runs 42 trials per 1596-trit lane; at this seed it first
    # fails at trial 173, in lane 4, so in the second chunk of 4 lanes
    monkeypatch.setattr(kernel, "CHUNK", 4)
    f, h = sparse_table(20)
    trials = 3 * groups("flexible", BLOCK) * kernel.CHUNK
    got = kernel.LoopKernel(f, h).sweep_many(NAMES[:5], 1, trials)
    want = _native.LoopKernel(f, h).sweep("flexible", 1, trials)
    assert got["flexible"] == want
    assert chunk_of("flexible", want[1], trials, kernel.CHUNK,
                    NAMES[:5]) == 1, want


def test_constant_monomials_match_reference(monkeypatch):
    f, h = flat_tables()
    f[18] = f[18] + [(1, ())]
    h[18] = h[18] + [(2, ())]
    monkeypatch.setattr(kernel, "CHUNK", SMALL_CHUNK)
    check_budgets((f, h), 42, (1, 7, budgets(SMALL_CHUNK)[-1]))


# every stride `kernel.lane_stride` picks, 114 * m, and every divisor of
# BLOCK, the short strides among them
@pytest.mark.parametrize("stride", sorted(
    {UNIT * m for m in range(1, 15)}
    | {d for d in range(1, BLOCK + 1) if BLOCK % d == 0}))
def test_packed_jump_tables_match_scalar_construction(stride):
    assert kernel._jump_tables(stride) == scalar_jump_tables(stride)


@pytest.mark.parametrize("mutation", [None, MUTATIONS[0]],
                         ids=["shipped", MUTATIONS[0][0]])
def test_run_all_matches_separate_sweeps(mutation):
    lp = Loop(*mutated_tables(mutation))
    for seed, trials in ((42, 1), (7, 2000)):
        assert sweeps.run_all(lp, seed, trials) == [
            sweeps.run_sweep(lp, name, seed, trials) for name in NAMES]


def test_shared_pass_must_match_the_sweep():
    lp = Loop()
    shared = sweeps.SharedSweeps(lp, 42, 30)
    for loop, seed, trials in ((lp, 7, 30), (lp, 42, 31), (Loop(), 42, 30)):
        with pytest.raises(ValueError):
            sweeps.run_sweep(loop, "moufang", seed, trials, shared=shared)


# -- the verify report ---------------------------------------------------------

def verify_json(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["verify", "--format", "json", *argv])
    return code, json.loads(buf.getvalue())


def without_millis(doc):
    for check in doc["checks"]:
        del check["millis"]
    return doc


@pytest.mark.parametrize("seed", [42, 7])
def test_verify_report_matches_separate_sweeps(monkeypatch, seed):
    run_sweep = sweeps.run_sweep

    def separate(loop, name, seed, trials, shared=None):
        return run_sweep(loop, name, seed, trials)

    for trials in (1, 7, 2000):
        argv = ("--seed", str(seed), "--trials", str(trials))
        code, shared_doc = verify_json(*argv)
        with monkeypatch.context() as m:
            m.setattr(sweeps, "run_sweep", separate)
            separate_code, separate_doc = verify_json(*argv)
        assert code == separate_code == 0
        assert without_millis(shared_doc) == without_millis(separate_doc)


def test_sweep_rows_share_the_pass_time(monkeypatch):
    sweep_many = kernel.LoopKernel.sweep_many
    walls = []

    def timed(self, *args):
        t0 = time.perf_counter()
        try:
            return sweep_many(self, *args)
        finally:
            walls.append(time.perf_counter() - t0)

    monkeypatch.setattr(kernel.LoopKernel, "sweep_many", timed)
    _, doc = verify_json("--trials", "20000", "--no-symbolic")
    rows = [c["millis"] for c in doc["checks"]
            if c["name"].startswith("sweep_")]
    assert len(walls) == 1 and len(rows) == len(NAMES)
    assert abs(sum(rows) - 1000 * walls[0]) <= len(rows)
    # the pass is split between the rows, not carried by the first
    assert rows[0] < sum(rows) / 2
