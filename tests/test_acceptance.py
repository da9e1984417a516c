"""Acceptance suite: every exit criterion, one test each, one line of output.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.  Tolerances are exact unless stated: the algebraic claims
are equalities in GF(3)^19, the sampling criterion uses 3 binomial standard
errors, and the wall-clock guards apply to every backend.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from moufang3 import (SWEEP_NAMES, LoopLawError, SymbolicLoop, basis,
                      brute_count_l_set, closure, count_l_set, density_sample,
                      f_table, h_table, identity, is_closed,
                      nonsubloop_witness, run_all)
from moufang3.loop import Loop
from moufang3.polys import var

SEED = 42
SWEEP_TRIALS = 1_000_000
SAMPLE_TRIALS = 100_000
CONSISTENCY_TRIALS = 10_000
LCD_HEAD_COUNT = 19683          # frozen from the concrete 3^10 enumeration


def e(i):
    return basis(i)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_01_golden_identities(loop):
    with criterion(1, "golden identities e5..e19"):
        t0 = time.perf_counter()
        rows = loop.identification_table()
        elapsed = time.perf_counter() - t0
        assert len(rows) == 15
        for row in rows:
            assert row.computed == basis(row.coord), row.label
        assert elapsed < 1.0


def test_criterion_02_generator_associators(loop):
    with criterion(2, "generator associators"):
        t0 = time.perf_counter()
        a, b, c, d = e(1), e(2), e(3), e(4)
        for triple in ((a, b, c), (a, b, d), (a, c, d), (b, c, d)):
            assert loop.associator(*triple) == identity()
        value = loop.associator(e(5), c, d)
        assert value == e(19)
        assert value != identity()
        assert time.perf_counter() - t0 < 1.0


def test_criterion_03_associate_set_not_a_subloop(loop):
    with criterion(3, "l_{c,d} is not a subloop"):
        w = nonsubloop_witness(loop)
        assert w.members == (e(1), e(2))
        assert w.violating_element == e(5)
        assert w.violating_associator == e(19)


def test_criterion_04_associating_generators_yet_nonassociative(loop):
    with criterion(4, "all generator triples associate, loop nonassociative"):
        w = nonsubloop_witness(loop)
        assert all(v == identity() for _, v in w.generator_triples)
        assert loop.associator(e(5), e(3), e(4)) != identity()


def test_criterion_05_moufang_proof(sym):
    with criterion(5, "symbolic Moufang proof over 57 variables"):
        t0 = time.perf_counter()
        report = sym.prove_moufang()
        elapsed = time.perf_counter() - t0
        assert report.proved
        assert report.nonzero_coords == ()
        assert elapsed <= 600.0


def test_criterion_06_remaining_proofs(sym):
    with criterion(6, "inverse, identity and normal-form proofs"):
        assert sym.prove_inverse_law().proved
        assert sym.prove_identity_law().proved
        report = sym.prove_normal_form()
        assert report.proved
        assert report.details["power_precheck"] == "pass"


def test_criterion_07_randomized_sweeps(loop):
    with criterion(7, f"six identity sweeps x {SWEEP_TRIALS} trials"):
        # one shared pass, as `verify` runs them
        t0 = time.perf_counter()
        results = run_all(loop, seed=SEED, trials=SWEEP_TRIALS)
        assert [r.name for r in results] == list(SWEEP_NAMES)
        for result in results:
            assert result.violations == 0, (result.name, result.witness)
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0


def test_criterion_08_count_oracle_equivalence(loop, sym):
    with criterion(8, "dual-route exact count of l_{c,d} plus sampling"):
        symbolic = count_l_set(loop, e(3), e(4), symbolic=sym)
        concrete = brute_count_l_set(loop, e(3), e(4))
        assert symbolic.head_count == concrete.head_count == LCD_HEAD_COUNT
        assert symbolic.density == Fraction(1, 3)
        est = density_sample(loop, e(3), e(4), seed=SEED, trials=SAMPLE_TRIALS)
        p = symbolic.density
        sigma = float(p * (1 - p) / SAMPLE_TRIALS) ** 0.5
        assert abs(est.density - float(p)) <= 3 * sigma


def test_criterion_09_closure_fixtures(loop):
    with criterion(9, "closure orders 3 / 27 / 3"):
        for gens, order in (([e(1)], 3), ([e(3), e(4)], 27), ([e(19)], 3)):
            result = closure(loop, gens)
            assert not result.truncated
            assert result.order == order
            assert is_closed(loop, result.elements)


MUTATIONS = [
    ("f5 swapped variable", "f", 5, 2 * var("x", 2) * var("y", 2)),
    ("f10 swapped factors", "f", 10, 2 * var("x", 3) * var("y", 4)),
    ("f19 dropped monomial", "f", 19,
     f_table().coord(19) - 2 * var("x", 1) * var("x", 2) * var("x", 4) * var("y", 3)),
    ("f11 flipped coefficient", "f", 11,
     f_table().coord(11) + var("x", 5) * var("y", 3)),
    ("h5 flipped sign", "h", 5, var("x", 1) * var("x", 2)),
    ("h19 dropped factor", "h", 19,
     2 * var("x", 1) * var("x", 2) * var("x", 3)),
]


def mutated_tables(mutation):
    """The shipped f and h tables with one mutation applied (None: none)."""
    f, h = f_table(), h_table()
    if mutation is not None:
        _, which, coord, poly = mutation
        f = f.with_coord(coord, poly) if which == "f" else f
        h = h.with_coord(coord, poly) if which == "h" else h
    return f, h


def first_failing_check(loop):
    """Run the criteria-1..6 checks cheap-to-expensive; name the first failure."""
    sym = SymbolicLoop(loop)
    checks = [
        ("identification_table",
         lambda: all(r.ok for r in loop.identification_table())),
        ("generator_associators",
         lambda: all(loop.associator(*t) == identity() for t in
                     ((e(1), e(2), e(3)), (e(1), e(2), e(4)),
                      (e(1), e(3), e(4)), (e(2), e(3), e(4))))
         and loop.associator(e(5), e(3), e(4)) == e(19)),
        ("nonsubloop_witness",
         lambda: nonsubloop_witness(loop) is not None),
        ("prove_identity_law", lambda: sym.prove_identity_law().proved),
        ("prove_inverse_law", lambda: sym.prove_inverse_law().proved),
        ("prove_normal_form", lambda: sym.prove_normal_form().proved),
        ("prove_moufang", lambda: sym.prove_moufang().proved),
    ]
    for name, fn in checks:
        try:
            if not fn():
                return name
        except LoopLawError:
            return name
    return None


def test_criterion_10_mutation_sensitivity():
    with criterion(10, f"{len(MUTATIONS)} single-monomial corruptions caught"):
        assert len(MUTATIONS) >= 5
        caught = {}
        for mutation in MUTATIONS:
            label = mutation[0]
            caught[label] = first_failing_check(Loop(*mutated_tables(mutation)))
            assert caught[label] is not None, f"mutation not caught: {label}"
        print(f"  mutations -> first failing check: {caught}")


def test_criterion_11_consistency_sweep(sym):
    with criterion(11, f"consistency sweep x {CONSISTENCY_TRIALS} trials"):
        report = sym.consistency_sweep(seed=SEED, trials=CONSISTENCY_TRIALS)
        assert report.mismatches == 0
        assert report.trials == CONSISTENCY_TRIALS
