"""The batched sweeps against the scalar reference on random inputs.

Each example adds up to two random f terms and one random h term to the
shipped tables, none of them validated, so the laws fail in varied lanes,
groups and chunks; draws a seed, a budget and a chunk size; and checks
that `kernel`'s shared pass gives every law what its `_native` verdicts
give for that budget.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from moufang3 import kernel

from sweep_reference import check_budgets, flat_tables

MAX_SEED = (1 << 64) - 1


def terms(variables):
    """(coordinate 5..19 as index 4..18, coefficient, factor codes); the
    codes may repeat and may be empty, a constant term."""
    return st.tuples(st.integers(4, 18), st.sampled_from((1, 2)),
                     st.lists(st.integers(0, variables - 1), max_size=4))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(f_terms=st.lists(terms(20), max_size=2),
       h_terms=st.lists(terms(10), max_size=1),
       seed=st.integers(1, MAX_SEED), trials=st.integers(0, 200),
       chunk=st.sampled_from((1, 2, 3, 2048)))
@example(f_terms=[(4, 2, [0, 11])], h_terms=[], seed=1, trials=200, chunk=3)
@example(f_terms=[(18, 1, [0, 1])], h_terms=[(18, 1, [])], seed=MAX_SEED,
         trials=200, chunk=2)
def test_batched_sweeps_match_native_verdicts(f_terms, h_terms, seed, trials,
                                              chunk):
    f, h = flat_tables()
    for table, extra in ((f, f_terms), (h, h_terms)):
        for coord, coeff, codes in extra:
            table[coord] = table[coord] + [(coeff, tuple(codes))]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(kernel, "CHUNK", chunk)
        check_budgets((f, h), seed, (trials,))
