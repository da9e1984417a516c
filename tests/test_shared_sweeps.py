"""One draw for several sweeps: the shared pass must give each sweep its own
result.

`kernel.LoopKernel.sweep_many` draws the stream once, one block of trits
per lane, and evaluates the six laws on it; `_native` runs one law at a
time and is the reference.  The reference for a budget of T trials is
read off the law's first T `_native` verdicts (`sweep_reference`), so
every budget up to the largest costs one scalar pass.  Most cases lower
CHUNK to SMALL_CHUNK, which keeps budgets of more than one chunk of lanes
cheap for the scalar reference; one mutated table runs at the real CHUNK.
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

from sweep_reference import (GROUPS, NAMES, SEEDS, check_budgets,
                             flat_tables, scalar_jump_tables, sparse_table)
from test_acceptance import MUTATIONS, mutated_tables

SMALL_CHUNK = 2


def budgets(chunk):
    # around the first chunk boundary in lanes of every law: a law of r
    # trials per lane needs chunk + 1 lanes for r * chunk + 1 trials
    return (0, 1, 2, 3, 5, 6, 7) + tuple(
        r * chunk + d for r in sorted(set(GROUPS.values())) for d in (-1, 1))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mutation", [None] + MUTATIONS,
                         ids=["shipped"] + [m[0] for m in MUTATIONS])
def test_shared_pass_matches_reference(monkeypatch, mutation, seed):
    monkeypatch.setattr(kernel, "CHUNK", SMALL_CHUNK)
    check_budgets(flat_tables(mutation), seed, budgets(SMALL_CHUNK))


def test_shared_pass_matches_reference_at_full_chunk():
    # this mutation breaks all five element-only laws.  The budgets are
    # trial counts, 2, 3 and 6 * 2048 +- 1: at 28 Moufang trials per lane
    # the largest fills 439 lanes of one chunk of CHUNK = 2048, so none
    # crosses a chunk
    mutation = next(m for m in MUTATIONS if m[0] == "f5 swapped variable")
    check_budgets(flat_tables(mutation), 42, tuple(
        m * kernel.CHUNK + d for m in (2, 3, 6) for d in (-1, 1)), NAMES[:5])


def test_shared_pass_crosses_the_real_chunk(monkeypatch):
    # at 28 Moufang trials per lane this budget needs CHUNK + 64 lanes, so
    # two chunks of the real CHUNK; the same pass in one chunk is the
    # reference, which keeps the check batched and cheap
    mutation = next(m for m in MUTATIONS if m[0] == "f5 swapped variable")
    fast = kernel.LoopKernel(*flat_tables(mutation))
    trials = GROUPS["moufang"] * (kernel.CHUNK + 64)
    two_chunks = fast.sweep_many(NAMES, 42, trials)
    monkeypatch.setattr(kernel, "CHUNK", 2 * kernel.CHUNK)
    assert fast.sweep_many(NAMES, 42, trials) == two_chunks


def test_first_failure_in_a_later_block_chunk(monkeypatch):
    # flexibility runs 42 trials per lane; at this seed it first fails at
    # trial 173, in lane 4, so in the second chunk of 4 lanes
    monkeypatch.setattr(kernel, "CHUNK", 4)
    f, h = sparse_table(20)
    trials = 3 * GROUPS["flexible"] * kernel.CHUNK
    got = kernel.LoopKernel(f, h).sweep_many(NAMES[:5], 1, trials)
    want = _native.LoopKernel(f, h).sweep("flexible", 1, trials)
    assert got["flexible"] == want
    assert want[1] // GROUPS["flexible"] >= kernel.CHUNK, want


def test_constant_monomials_match_reference(monkeypatch):
    f, h = flat_tables()
    f[18] = f[18] + [(1, ())]
    h[18] = h[18] + [(2, ())]
    monkeypatch.setattr(kernel, "CHUNK", SMALL_CHUNK)
    check_budgets((f, h), 42, (1, 7, budgets(SMALL_CHUNK)[-1]))


# every divisor of BLOCK is the sub-lane stride `draw_columns` picks for
# some lane count up to CHUNK
@pytest.mark.parametrize("stride", [d for d in range(1, kernel.BLOCK + 1)
                                    if kernel.BLOCK % d == 0])
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
