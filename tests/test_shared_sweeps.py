"""One draw for several sweeps: the shared pass must give each sweep its own
result.

`_batch.LoopKernel.sweep_many` draws the stream once, one block of trits
per lane, and evaluates the six laws on it; `_native` runs one law at a
time and is the reference.  The reference for a budget of T
trials is read off per-trial verdicts, each a one-trial `_native` sweep
started at that trial's state, so every budget up to the largest costs one
scalar pass.  Most cases lower CHUNK to SMALL_CHUNK, which keeps budgets of
more than one chunk of lanes cheap for the scalar reference; one mutated
table runs at the real CHUNK.
"""

import io
import json
import time
from contextlib import redirect_stdout

import pytest

from moufang3 import _batch, _native, cli, sweeps, tables
from moufang3.loop import Loop

from test_acceptance import MUTATIONS
from test_batch_parity import SEEDS, flat_tables

NAMES = _native.SWEEP_NAMES
SMALL_CHUNK = 2
# what each law draws per trial, written out here rather than read from
# the kernels: "e" a 19-trit element, "t" a tail on coordinates 11..19
LAYOUTS = {"moufang": "eee", "left_alternative": "ee",
           "right_alternative": "ee", "flexible": "ee", "inverse": "e",
           "tail_central": "et"}
# trials per lane: a lane holds 1596 trits, and a trial reads its layout
GROUPS = {name: 1596 // sum(19 if kind == "e" else 9 for kind in layout)
          for name, layout in LAYOUTS.items()}


def budgets(chunk):
    # around the first chunk boundary in lanes of every law: a law of r
    # trials per lane needs chunk + 1 lanes for r * chunk + 1 trials
    return (0, 1, 2, 3, 5, 6, 7) + tuple(
        r * chunk + d for r in sorted(set(GROUPS.values())) for d in (-1, 1))


def verdicts(ref, name, seed, trials):
    """Per trial: the witness of a one-trial sweep at its state, or None."""
    out, state = [], seed
    for _ in range(trials):
        violations, _, witness = ref.sweep(name, state, 1)
        out.append(witness if violations else None)
        for kind in LAYOUTS[name]:
            draw = ref.random_element if kind == "e" else ref._random_tail
            _, state = draw(state)
    return out


def reference(per_trial, trials):
    """What a `_native` sweep of `trials` trials returns."""
    bad = [i for i, w in enumerate(per_trial[:trials]) if w is not None]
    if not bad:
        return 0, -1, None
    return len(bad), bad[0], per_trial[bad[0]]


def check_budgets(flat, seed, trials_list, names=NAMES):
    ref, fast = _native.LoopKernel(*flat), _batch.LoopKernel(*flat)
    per_trial = {n: verdicts(ref, n, seed, max(trials_list)) for n in names}
    for trials in trials_list:
        got, seconds = fast.sweep_many(names, seed, trials)
        assert list(got) == list(seconds) == list(names)
        for n in names:
            assert got[n] == reference(per_trial[n], trials), (n, trials)


def sparse_table(variables):
    """The shipped tables plus x1..xk*y1..yk in f19, k = variables // 2:
    the laws break only where those head coordinates are all nonzero."""
    f, h = flat_tables()
    half = variables // 2
    f[18] = f[18] + [(1, tuple(range(half)) + tuple(range(10, 10 + half)))]
    return f, h


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mutation", [None] + MUTATIONS,
                         ids=["shipped"] + [m[0] for m in MUTATIONS])
def test_shared_pass_matches_reference(monkeypatch, mutation, seed):
    monkeypatch.setattr(_batch, "CHUNK", SMALL_CHUNK)
    check_budgets(flat_tables(mutation), seed, budgets(SMALL_CHUNK))


def test_shared_pass_matches_reference_at_full_chunk():
    # this mutation breaks all five element-only laws
    mutation = next(m for m in MUTATIONS if m[0] == "f5 swapped variable")
    check_budgets(flat_tables(mutation), 42, tuple(
        m * _batch.CHUNK + d for m in (2, 3, 6) for d in (-1, 1)), NAMES[:5])


@pytest.mark.parametrize("name,seed", [("moufang", 1), ("inverse", 4)])
def test_first_failure_in_a_later_group_of_an_earlier_lane(name, seed):
    # the least failing trial is in group g > 0 of its lane, and group 0
    # fails only in a later lane: the minimum over groups is not the first
    # group that fails
    flat, r, trials = sparse_table(6), GROUPS[name], 400
    per_trial = verdicts(_native.LoopKernel(*flat), name, seed, trials)
    bad = [i for i, w in enumerate(per_trial) if w is not None]
    assert bad[0] % r > 0
    assert any(i % r == 0 and i // r > bad[0] // r for i in bad)
    check_budgets(flat, seed, (trials,))


def test_first_failure_in_a_later_block_chunk(monkeypatch):
    # flexibility runs 42 trials per lane; at this seed it first fails at
    # trial 173, in lane 4, so in the second chunk of 4 lanes
    monkeypatch.setattr(_batch, "CHUNK", 4)
    f, h = sparse_table(20)
    trials = 3 * GROUPS["flexible"] * _batch.CHUNK
    got, _ = _batch.LoopKernel(f, h).sweep_many(NAMES[:5], 1, trials)
    want = _native.LoopKernel(f, h).sweep("flexible", 1, trials)
    assert got["flexible"] == want
    assert want[1] // GROUPS["flexible"] >= _batch.CHUNK, want


def test_constant_monomials_match_reference(monkeypatch):
    f, h = flat_tables()
    f[18] = f[18] + [(1, ())]
    h[18] = h[18] + [(2, ())]
    monkeypatch.setattr(_batch, "CHUNK", SMALL_CHUNK)
    check_budgets((f, h), 42, (1, 7, budgets(SMALL_CHUNK)[-1]))


def test_bad_arguments_rejected_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew before validating the arguments")

    monkeypatch.setattr(_batch, "draw_columns", no_draw)
    fast = _batch.LoopKernel(*flat_tables())
    for names, seed, trials in (
            (("moufang", "frobnicate"), 42, 10),
            (("inverse", "moufang", "inverse"), 42, 10),
            (NAMES, -1, 10), (NAMES, 1 << 64, 10),
            (NAMES, 42, -1)):
        with pytest.raises(ValueError):
            fast.sweep_many(names, seed, trials)


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
    tables = []
    for b in range(8):
        t = [0] * 256
        for v in range(256):
            for i in range(8):
                if v >> i & 1:
                    t[v] ^= cols[8 * b + i]
        tables.append(tuple(t))
    return tuple(tables)


@pytest.mark.parametrize("stride", [1, 19, 28, 38, 57, 114])
def test_packed_jump_tables_match_scalar_construction(stride):
    assert _batch._jump_tables(stride) == scalar_jump_tables(stride)


@pytest.mark.parametrize("mutation", [None, MUTATIONS[0]],
                         ids=["shipped", MUTATIONS[0][0]])
def test_run_all_matches_separate_sweeps(mutation):
    f, h = tables.f_table(), tables.h_table()
    if mutation is not None:
        _, which, coord, poly = mutation
        f = f.with_coord(coord, poly) if which == "f" else f
        h = h.with_coord(coord, poly) if which == "h" else h
    lp = Loop(f, h)
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
    sweep_many = _batch.LoopKernel.sweep_many
    walls = []

    def timed(self, *args):
        t0 = time.perf_counter()
        try:
            return sweep_many(self, *args)
        finally:
            walls.append(time.perf_counter() - t0)

    monkeypatch.setattr(_batch.LoopKernel, "sweep_many", timed)
    _, doc = verify_json("--trials", "20000", "--no-symbolic")
    rows = [c["millis"] for c in doc["checks"]
            if c["name"].startswith("sweep_")]
    assert len(walls) == 1 and len(rows) == len(NAMES)
    assert abs(sum(rows) - 1000 * walls[0]) <= len(rows)
    # the pass is split between the rows, not carried by the first
    assert rows[0] < sum(rows) / 2
