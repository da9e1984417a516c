"""One lane block for all six sweeps.

`kernel` draws BLOCK = 1596 trits per lane once per chunk and reads every
law's trials off that draw: Moufang has 28 groups per lane, the alternative
laws and flexibility 42, the inverse law 84 and `tail_central` 57.  The
cases here cross those lane, group and chunk boundaries against the
per-trial `_native` reference, check that one draw of stride BLOCK per
chunk serves every law, and pin how the pass time is split between laws.
"""

import pytest

from moufang3 import kernel

from sweep_reference import (GROUPS, NAMES, SEEDS, TRITS, check_budgets,
                             flat_tables, head_table, sparse_table)
from test_acceptance import MUTATIONS

# around 1, 2 and 3 lanes of Moufang (28 trials each), of tail_central (57)
# and of the inverse law (84)
BUDGETS = (0, 1, 27, 28, 29, 56, 57, 58, 83, 84, 85, 2 * 84 + 1, 3 * 57 + 1)

# no criterion-10 mutation breaks tail_central; "f19 plus x1..x6" does
TABLES = {"shipped": flat_tables, "f19 plus x1..x6": lambda: head_table(6),
          **{m[0]: lambda m=m: flat_tables(m) for m in MUTATIONS}}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("table", TABLES)
def test_one_and_two_lane_chunks_match_reference(monkeypatch, table, seed):
    for chunk in (1, 2):
        monkeypatch.setattr(kernel, "CHUNK", chunk)
        check_budgets(TABLES[table](), seed, BUDGETS)


@pytest.mark.parametrize("name,flat,seed,trials", [
    ("tail_central", head_table(6), 2, 2 * 57),
    ("inverse", sparse_table(8), 2, 2 * 84),
    ("moufang", sparse_table(6), 1, 400),
    ("inverse", sparse_table(6), 4, 400)])
def test_first_failure_in_a_later_group(name, flat, seed, trials):
    # the least failing trial is in group g > 0 of its lane, and group 0
    # fails only in a later lane: the least trial is not in the first group
    # that fails
    r = GROUPS[name]
    per_trial = check_budgets(flat, seed, (trials,))[name]
    bad = [i for i, w in enumerate(per_trial) if w is not None]
    assert bad[0] % r > 0
    assert any(i % r == 0 and i // r > bad[0] // r for i in bad)


@pytest.mark.parametrize("chunk,trials", [(2, 200), (None, 28 * 2048 + 1)])
def test_one_draw_per_chunk_serves_every_law(monkeypatch, chunk, trials):
    assert kernel.BLOCK == 1596
    if chunk is not None:
        monkeypatch.setattr(kernel, "CHUNK", chunk)
    draw_columns, calls = kernel.draw_columns, []

    def spy(state, lanes, stride):
        calls.append((lanes, stride))
        return draw_columns(state, lanes, stride)

    monkeypatch.setattr(kernel, "draw_columns", spy)
    kernel.LoopKernel(*flat_tables()).sweep_many(NAMES, 42, trials)
    lanes = -(-trials // 28)             # Moufang has the fewest groups
    assert len(calls) == -(-lanes // kernel.CHUNK)
    assert sum(n for n, _ in calls) == lanes
    assert all(stride == kernel.BLOCK for _, stride in calls)


def test_pass_time_is_shared_by_trits_read(monkeypatch):
    # a clock that moves only while drawing: every law's own time is 0 and
    # each gets the draws in proportion to the trits its trials read
    clock = [0.0]
    draw_columns = kernel.draw_columns

    def slow_draw(*args):
        clock[0] += 1.0
        return draw_columns(*args)

    monkeypatch.setattr(kernel, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(kernel, "draw_columns", slow_draw)
    monkeypatch.setattr(kernel, "CHUNK", 1)
    _, seconds = kernel.LoopKernel(*flat_tables()).sweep_many(NAMES, 42, 60)
    assert clock[0] == 3.0
    total = sum(TRITS.values())
    for name in NAMES:
        assert seconds[name] == pytest.approx(3.0 * TRITS[name] / total)

