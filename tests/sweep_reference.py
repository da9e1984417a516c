"""The scalar reference of the batched sweeps: one pass of
`_native.LoopKernel.verdicts` to the largest budget, read off per budget."""

from itertools import islice

from moufang3 import _batch, _native

NAMES = _native.SWEEP_NAMES
# trits a trial reads, written out here rather than read from the kernels:
# 19 per element, 9 per tail on coordinates 11..19
TRITS = {"moufang": 57, "left_alternative": 38, "right_alternative": 38,
         "flexible": 38, "inverse": 19, "tail_central": 28}
# trials per lane: a lane holds 1596 trits
GROUPS = {name: 1596 // w for name, w in TRITS.items()}


def reference(per_trial, trials):
    """What a `_native` sweep of `trials` trials returns."""
    bad = [i for i, w in enumerate(per_trial[:trials]) if w is not None]
    if not bad:
        return 0, -1, None
    return len(bad), bad[0], per_trial[bad[0]]


def check_budgets(flat, seed, trials_list, names=NAMES):
    """Compare the shared pass with the reference at every budget; returns
    each law's verdicts up to the largest budget."""
    ref, fast = _native.LoopKernel(*flat), _batch.LoopKernel(*flat)
    per_trial = {n: list(islice(ref.verdicts(n, seed), max(trials_list)))
                 for n in names}
    for trials in trials_list:
        got, seconds = fast.sweep_many(names, seed, trials)
        assert list(got) == list(seconds) == list(names)
        for n in names:
            assert got[n] == reference(per_trial[n], trials), (n, trials)
    return per_trial
