"""One draw of lane-major lanes for all six sweeps.

`kernel` draws S = 114 * m trits per lane once per chunk, only on the steps
where some lane holds a head trit of a trial within the budget, and reads
every law's trials off that draw, one evaluation lane per trial (see
`sweep_reference`).  A law of w trits has r = lcm(w, S) / w trials per
period of lcm(w, S) / S lanes, so at S = 114 Moufang has 2 per lane, the
alternative laws and flexibility 3, the inverse law 6 and `tail_central` 57
per 14 lanes; a failing trial is redrawn from its lane's start at offset
(g * w) % S, g its place in the period.  The cases here cross those lane,
period and chunk boundaries against the per-trial `_native` reference,
check that one draw per chunk serves every law, and pin how the pass time
is split between laws.
"""

import pytest

from moufang3 import _native, kernel, sweeps
from moufang3.loop import Loop

from sweep_reference import (BLOCK, NAMES, SEEDS, TRITS, UNIT, check_budgets,
                             chunk_trials, flat_tables, groups, head_offsets,
                             head_table, lanes, prefix_steps, shapes, skipped,
                             sparse_table, spy_draws, stride)
from test_acceptance import MUTATIONS

# around 1, 2 and 3 lanes of 1596 trits: 28 Moufang trials, 57 of
# tail_central and 84 of the inverse law each
BUDGETS = (0, 1, 27, 28, 29, 56, 57, 58, 83, 84, 85, 2 * 84 + 1, 3 * 57 + 1)

# no criterion-10 mutation breaks tail_central; "f19 plus x1..x6" does
TABLES = {"shipped": flat_tables, "f19 plus x1..x6": lambda: head_table(6),
          **{m[0]: lambda m=m: flat_tables(m) for m in MUTATIONS}}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("table", TABLES)
def test_one_and_two_lane_chunks_match_reference(monkeypatch, table, seed):
    draws = spy_draws(monkeypatch)
    for chunk in (1, 2):
        monkeypatch.setattr(kernel, "CHUNK", chunk)
        draws.clear()
        check_budgets(TABLES[table](), seed, BUDGETS)
        # passes of several full chunks of 1596-trit lanes, and one-chunk
        # passes of shorter lanes, where tail_central's trials cross lanes
        assert shapes(draws).count((chunk, BLOCK)) > 1
        assert any(s < BLOCK and s % TRITS["tail_central"]
                   for _, s in shapes(draws))
        # two-lane chunks compute some steps for their first lane only
        assert prefix_steps(draws) == (chunk > 1)
        # tail_central's budget ends inside a chunk that Moufang fills,
        # and a later chunk of the pass holds no tail_central trial
        tails = [len(chunk_trials("tail_central", c, t, chunk))
                 for t in BUDGETS for c in range(-(-lanes(t, chunk) // chunk))
                 if stride(t, chunk) == BLOCK]
        assert 0 in tails
        assert any(0 < n < BLOCK * chunk // TRITS["tail_central"]
                   for n in tails)


@pytest.mark.parametrize("name,flat,seed,trials", [
    ("tail_central", head_table(6), 2, 2 * 57),
    ("inverse", sparse_table(10), 2, 2 * 84),
    ("moufang", sparse_table(6), 1, 400),
    ("inverse", sparse_table(6), 4, 400)])
def test_first_failure_in_a_later_group(monkeypatch, name, flat, seed,
                                        trials):
    # the least failing trial is not the first of its period, so its
    # witness is redrawn from inside a lane, and it is not the only one
    r = groups(name, stride(trials, kernel.CHUNK))
    assert r > 1
    per_trial = check_budgets(flat, seed, (trials,))[name]
    bad = [i for i, w in enumerate(per_trial) if w is not None]
    assert bad[0] % r > 0 and len(bad) > 1
    # swept alone, a law of whole elements leaves every tail step undrawn,
    # so the witness's nonzero tail trits come from the redraw alone
    if name != "tail_central":
        draws = spy_draws(monkeypatch)
        got = kernel.LoopKernel(*flat).sweep(name, seed, trials)
        assert got[1] == bad[0]
        tails = set(range(TRITS[name])) - head_offsets(name)
        assert all(skipped(draws, TRITS[name] * bad[0] + o, kernel.CHUNK)
                   for o in tails)
        assert any(x[10:] != (0,) * 9 for x in got[2])


@pytest.mark.parametrize("chunk,trials", [(2, 200), (None, 28 * 2048 + 1)])
def test_one_draw_per_chunk_serves_every_law(monkeypatch, chunk, trials):
    if chunk is not None:
        monkeypatch.setattr(kernel, "CHUNK", chunk)
    calls = spy_draws(monkeypatch)
    kernel.LoopKernel(*flat_tables()).sweep_many(NAMES, 42, trials)
    need = lanes(trials, kernel.CHUNK)
    assert len(calls) == -(-need // kernel.CHUNK) > 1
    assert sum(n for n, _ in shapes(calls)) == need
    assert all(s == stride(trials, kernel.CHUNK) == BLOCK
               for _, s in shapes(calls))


def test_law_trits_match_the_written_out_counts():
    assert {name: law.trits for name, law in _native.LAWS.items()} == TRITS
    assert (kernel.UNIT, kernel.BLOCK) == (UNIT, BLOCK) == (114, 1596)


def test_pass_time_is_shared_by_trits_read(monkeypatch):
    # a clock that moves only while the kernel's pass runs: each law gets
    # the pass's wall time in proportion to the trits its trials read
    clock = [10.0]
    sweep_many = kernel.LoopKernel.sweep_many

    def slow_pass(self, *args):
        clock[0] += 3.0
        return sweep_many(self, *args)

    monkeypatch.setattr(sweeps, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(kernel.LoopKernel, "sweep_many", slow_pass)
    shared = sweeps.SharedSweeps(Loop(), 42, 60)
    shared.result("moufang")
    total = sum(TRITS.values())
    assert total == 218
    assert shared.seconds == {name: 3.0 * TRITS[name] / total
                              for name in NAMES}
