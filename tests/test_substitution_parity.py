"""The lean substitution kernel and the filtered power precheck against
straightforward reference versions kept here.

`oracle_substitute` is the Poly-object substitution (one Poly temporary per
factor, multiplied in monomial order) and `oracle_mono_mul` the plain sorted
merge; neither shares code with `polys._mul_terms` or the packed-key
arithmetic of `polys.mono_mul`.  `unfiltered_precheck` checks f and h on the
aligned multiples of every basis vector.  The proof reports are compared on
the shipped tables, the criterion-10 mutations and seeded one-monomial table
edits made by a generator local to this file.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moufang3 import UnboundVariable, Var, f_table, h_table, var
from moufang3 import polys, tables
from moufang3.loop import Loop, basis, vec_neg, vec_scale
from moufang3.polys import Poly
from moufang3.symbolic import SymbolicLoop

from test_acceptance import MUTATIONS

CLAIMS = ("identity_law", "inverse_law", "moufang", "normal_form")
SEEDED_EDITS = 240


# -- the reference versions ----------------------------------------------------

def oracle_mono_mul(m1, m2):
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        (v1, e1), (v2, e2) = m1[i], m2[j]
        if v1 == v2:
            e = e1 + e2
            out.append((v1, e - 2 if e > 2 else e))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    return tuple(out + list(m1[i:]) + list(m2[j:]))


def oracle_mul(p, q):
    acc = {}
    for m1, c1 in p.terms():
        for m2, c2 in q.terms():
            mono = oracle_mono_mul(m1, m2)
            acc[mono] = (acc.get(mono, 0) + c1 * c2) % 3
    return Poly(acc)


def oracle_substitute(self, env):
    acc = Poly.zero()
    for mono, coeff in self.terms():
        prod = Poly.constant(coeff)
        for v, exp in mono:
            try:
                q = env[v]
            except KeyError:
                raise UnboundVariable(f"no substitution for {v}") from None
            for _ in range(exp):
                prod = oracle_mul(prod, q)
        acc = acc + prod
    return acc


def unfiltered_precheck(lp):
    failures = []
    for i in range(1, 20):
        ei = basis(i)
        for s in range(3):
            for t in range(3):
                if lp._kernel.mul(vec_scale(ei, s), vec_scale(ei, t)) \
                        != vec_scale(ei, s + t):
                    failures.append(f"f({s}*e{i}, {t}*e{i}) != 0")
        for t in range(3):
            if lp._kernel.inv(vec_scale(ei, t)) != vec_neg(vec_scale(ei, t)):
                failures.append(f"h({t}*e{i}) != 0")
    return failures


# -- Hypothesis: substitute, _mul_terms and mono_mul --------------------------

XS = (Var("x", 1), Var("x", 2), Var("x", 7))
YS = (Var("y", 1), Var("y", 2))
ZT = (Var("z", 3), Var("t", 1))
SOURCE = XS + YS


def monomials(variables):
    return st.lists(st.tuples(st.sampled_from(variables), st.integers(1, 2)),
                    unique_by=lambda f: f[0], max_size=3).map(
        lambda factors: tuple(sorted(factors)))


def polys_over(variables, max_terms=5):
    # the empty list is the zero polynomial, the empty monomial a constant
    return st.lists(st.tuples(st.integers(1, 2), monomials(variables)),
                    max_size=max_terms).map(Poly.from_terms)


# (left, right) variable sets: overlapping, and disjoint in either order
PAIRS = [(SOURCE, SOURCE), (XS, YS), (YS, XS), (XS, XS), (SOURCE, ZT),
         (ZT, XS)]


@given(st.data())
def test_mono_mul_matches_merge(data):
    left, right = data.draw(st.sampled_from(PAIRS))
    m1, m2 = data.draw(monomials(left)), data.draw(monomials(right))
    assert polys.mono_mul(m1, m2) == oracle_mono_mul(m1, m2)


@given(st.data())
def test_mul_terms_matches_oracle(data):
    left, right = data.draw(st.sampled_from(PAIRS))
    p, q = data.draw(polys_over(left)), data.draw(polys_over(right))
    want = oracle_mul(p, q)
    assert polys._mul_terms(p._terms, q._terms) == want._terms
    assert p * q == want


@settings(max_examples=200)
@given(st.data())
def test_substitute_matches_oracle(data):
    p = data.draw(polys_over(SOURCE, max_terms=6))
    targets = data.draw(st.sampled_from((SOURCE, XS, ZT, SOURCE + ZT)))
    env = {v: data.draw(polys_over(targets, max_terms=4)) for v in SOURCE}
    dropped = data.draw(st.sampled_from((None,) + SOURCE))
    env.pop(dropped, None)
    try:
        want = oracle_substitute(p, env)
    except UnboundVariable:
        with pytest.raises(UnboundVariable):
            p.substitute(env)
    else:
        assert p.substitute(env) == want


def test_unbound_variable_raises_behind_a_zero_factor():
    p = var("x", 1) * var("y", 1)
    with pytest.raises(UnboundVariable):
        p.substitute({Var("x", 1): Poly.zero()})


# -- proof reports on many tables -------------------------------------------------

def edit_table(text, blocks, rng):
    """Add, drop or flip one monomial line; an added monomial reads one to
    four distinct variables of the table's blocks at indices 1..10."""
    lines = text.splitlines()
    rows = [i for i, line in enumerate(lines)
            if line.strip() and not line.startswith("#")]
    kind = rng.randrange(3)
    if kind == 0:
        del lines[rng.choice(rows)]
    elif kind == 1:
        i = rng.choice(rows)
        coord, coeff, factors = lines[i].split(";")
        lines[i] = f"{coord}; {3 - int(coeff)};{factors}"
    else:
        pool = [f"{b}{i}" for b in blocks for i in range(1, 11)]
        factors = rng.sample(pool, rng.randint(1, 4))
        lines.append(f"{rng.randint(5, 19)}; {rng.randint(1, 2)}; "
                     + "*".join(factors))
    return "\n".join(lines) + "\n"


def table_loops():
    yield "shipped", Loop()
    for label, which, coord, poly in MUTATIONS:
        f = f_table().with_coord(coord, poly) if which == "f" else f_table()
        h = h_table().with_coord(coord, poly) if which == "h" else h_table()
        yield label, Loop(f, h)
    # a constant monomial reads no coordinate, so it fails every index
    yield "constant in h7", Loop(h=h_table().with_coord(
        7, h_table().coord(7) + Poly.constant(1)))
    yield "constant in f12", Loop(f=f_table().with_coord(
        12, f_table().coord(12) + Poly.constant(2)))
    f_text = (tables._DATA_DIR / "f_table.txt").read_text()
    h_text = (tables._DATA_DIR / "h_table.txt").read_text()
    rng = random.Random(20151)
    for n in range(SEEDED_EDITS):
        f_new, h_new = f_text, h_text
        if rng.random() < 0.5:
            f_new = edit_table(f_text, ("x", "y"), rng)
        else:
            h_new = edit_table(h_text, ("x",), rng)
        yield f"edit {n}", Loop(tables.parse_table(f_new, "f", ("x", "y")),
                                tables.parse_table(h_new, "h", ("x",)))


def report_fields(report):
    witness = report.witness.as_json() if report.witness else None
    return (report.proved, report.nonzero_coords, report.telemetry, witness)


def test_proof_reports_match_the_oracle_substitution(monkeypatch):
    refuted = failed_prechecks = 0
    for label, lp in table_loops():
        sym = SymbolicLoop(lp)
        new = [getattr(sym, "prove_" + c)() for c in CLAIMS]
        with monkeypatch.context() as m:
            m.setattr(Poly, "substitute", oracle_substitute)
            old = [getattr(sym, "prove_" + c)() for c in CLAIMS]
        for claim, a, b in zip(CLAIMS, new, old):
            assert report_fields(a) == report_fields(b), (label, claim)
        want = unfiltered_precheck(lp)
        assert sym._power_precheck() == want, label
        assert new[3].details == {"power_precheck": want or "pass"}, label
        refuted += not all(r.proved for r in new)
        failed_prechecks += bool(want)
    # the edits reach both verdict paths and the precheck's failure path
    assert refuted > SEEDED_EDITS // 2
    assert failed_prechecks > 10
