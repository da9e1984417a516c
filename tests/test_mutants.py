"""The mutant table (`mutants.py`) must match the code it corrupts."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_each_mutant_edits_one_place(mutant):
    text = (ROOT / mutant.path).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.old != mutant.new
    for node in mutant.tests:
        assert (ROOT / node.split("::")[0]).is_file(), node


def test_mutant_ids_are_unique():
    assert len({m.id for m in MUTANTS}) == len(MUTANTS)
