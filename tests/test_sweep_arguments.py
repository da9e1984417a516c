"""One table of bad sweep arguments, run over every sweep entry point.

`_native._check_sweep` is the one check of a sweep's names, seed and trial
count.  Each entry point must make it before it draws anything, so the
stream's first step (`_native._trits`, `kernel.draw_lanes`) is replaced by
a function that fails the test.  Entry points of one name take the cases of
one name; `verdicts` has no trial count and takes no trial-count case.
"""

import pytest

from moufang3 import _native, kernel, sweeps

from sweep_reference import flat_tables

FLAT = flat_tables()

# entry point -> (call(names, seed, trials), takes several names, takes trials)
TARGETS = {
    "native.sweep": (lambda names, seed, trials:
                     _native.LoopKernel(*FLAT).sweep(*names, seed, trials),
                     False, True),
    "native.verdicts": (lambda names, seed, trials:
                        _native.LoopKernel(*FLAT).verdicts(*names, seed),
                        False, False),
    "batch.sweep": (lambda names, seed, trials:
                    kernel.LoopKernel(*FLAT).sweep(*names, seed, trials),
                    False, True),
    "batch.sweep_many": (lambda names, seed, trials:
                         kernel.LoopKernel(*FLAT).sweep_many(names, seed,
                                                             trials),
                         True, True),
    "sweeps.run_sweep": (lambda names, seed, trials:
                         sweeps.run_sweep(None, *names, seed, trials),
                         False, True),
    "sweeps.SharedSweeps.result": (lambda names, seed, trials:
                                   sweeps.SharedSweeps(None, seed, trials)
                                   .result(*names),
                                   False, True),
}

# case -> (names, seed, trials, message); 42 and 10 are good values
CASES = {
    "unknown-name": (("frobnicate",), 42, 10,
                     r"unknown sweep 'frobnicate'; choose from"),
    "empty-name": (("",), 42, 10, "unknown sweep"),
    "private-name": (("_sweep_moufang",), 42, 10, "unknown sweep"),
    "unknown-among-known": (("moufang", "frobnicate"), 42, 10,
                            "unknown sweep"),
    "duplicate-name": (("inverse", "moufang", "inverse"), 42, 10,
                       "duplicate sweep names"),
    "no-names": ((), 42, 10, "no sweep names"),
    "negative-seed": (("moufang",), -1, 10, "64-bit"),
    "seed-above-64-bits": (("moufang",), 1 << 64, 10, "64-bit"),
    "string-seed": (("moufang",), "7", 10, "64-bit"),
    # a fixed point of xorshift: every draw would be the identity
    "zero-seed": (("moufang",), 0, 10, "nonzero"),
    "negative-trials": (("moufang",), 42, -1, r"trials must be >= 0"),
    "float-trials": (("moufang",), 42, 2.5, "trials must be an int"),
    "bool-trials": (("moufang",), 42, True, "trials must be an int"),
}


def applies(target, case):
    _, several, takes_trials = TARGETS[target]
    names, _, trials, _ = CASES[case]
    return ((several or len(names) == 1)
            and (takes_trials or type(trials) is int and trials >= 0))


def no_draw(*args):
    raise AssertionError("drew before validating the arguments")


@pytest.mark.parametrize("target,case",
                         [(t, c) for t in TARGETS for c in CASES
                          if applies(t, c)],
                         ids=lambda value: value)
def test_bad_sweep_arguments_rejected_before_any_draw(monkeypatch, target,
                                                      case):
    monkeypatch.setattr(_native, "_trits", no_draw)
    monkeypatch.setattr(kernel, "draw_lanes", no_draw)
    call = TARGETS[target][0]
    names, seed, trials, message = CASES[case]
    with pytest.raises(ValueError, match=message):
        call(names, seed, trials)
