"""The lean substitution kernel, the skipping symbolic product and the
filtered power precheck against straightforward reference versions kept
here.

`oracle_substitute` is the tuple-monomial substitution (each env value
decoded once through `terms()`, each monomial's factors multiplied in
monomial order as dicts, one Poly built at the end) and `oracle_mono_mul`
the plain sorted merge; neither shares code with the packed-key arithmetic
of `polys._mul_terms`.  `reference_mul` and `reference_inv` are the symbolic
product and inverse without the dead-coordinate skip: every nonzero f_k and
h_k goes through `oracle_substitute`.  `unfiltered_precheck` checks f and h
on the aligned multiples of every basis vector.  The proof reports are
compared on the shipped tables, the criterion-10 mutations and seeded
one-monomial table edits made by a generator local to this file.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moufang3 import UnboundVariable, Var, f_table, h_table, var
from moufang3 import polys, symbolic, tables
from moufang3._native import HEAD, N
from moufang3.loop import Loop, basis, vec_neg, vec_scale
from moufang3.polys import Poly, field_bit
from moufang3.symbolic import SymbolicLoop, generic

from test_acceptance import MUTATIONS, mutated_tables

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


def oracle_terms_mul(p, q):
    """The product of two {tuple monomial: coefficient} dicts, zero
    coefficients kept."""
    acc = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = oracle_mono_mul(m1, m2)
            acc[mono] = (acc.get(mono, 0) + c1 * c2) % 3
    return acc


def oracle_mul(p, q):
    return Poly(oracle_terms_mul(dict(p.terms()), dict(q.terms())))


def oracle_substitute(self, env, addend=None):
    """Each monomial's product of the decoded env values, multiplied in
    monomial order as tuple-monomial dicts; one Poly at the end."""
    decoded = {}
    acc = {} if addend is None else dict(addend.terms())
    for mono, coeff in self.terms():
        prod = {(): coeff}
        for v, exp in mono:
            if v not in decoded:
                try:
                    q = env[v]
                except KeyError:
                    raise UnboundVariable(f"no substitution for {v}") from None
                decoded[v] = dict(q.terms())
            for _ in range(exp):
                prod = oracle_terms_mul(prod, decoded[v])
        for m, c in prod.items():
            acc[m] = (acc.get(m, 0) + c) % 3
    return Poly(acc)


XY_HEAD = tuple(Var(b, i) for b in "xy" for i in range(1, HEAD + 1))


def reference_mul(sym, a, b):
    """a o b with every nonzero f_k substituted, skipping none."""
    env = dict(zip(XY_HEAD, a[:HEAD] + b[:HEAD]))
    out = list(map(Poly.__add__, a, b))
    for k, p in enumerate(sym.loop.f.coords):
        if p:
            out[k] = oracle_substitute(p, env, out[k])
    return tuple(out)


def reference_inv(sym, a):
    """a^-1 with every nonzero h_k substituted, skipping none."""
    env = dict(zip(XY_HEAD[:HEAD], a))
    out = [-p for p in a]
    for k, p in enumerate(sym.loop.h.coords):
        if p:
            out[k] = oracle_substitute(p, env, out[k])
    return tuple(out)


def fresh_generic(block):
    """`symbolic.generic` without its cache."""
    return tuple(var(block, i) for i in range(1, N + 1))


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


# -- Hypothesis: substitute and _mul_terms ------------------------------------

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
    addend = data.draw(polys_over(targets, max_terms=4))
    try:
        want = oracle_substitute(p, env)
    except UnboundVariable:
        with pytest.raises(UnboundVariable):
            p.substitute(env)
    else:
        assert p.substitute(env) == want
        assert p.substitute(env, addend) == want + addend


def test_unbound_variable_raises_behind_a_zero_factor():
    p = var("x", 1) * var("y", 1)
    with pytest.raises(UnboundVariable):
        p.substitute({Var("x", 1): Poly.zero()})


# -- the skipping product against the reference --------------------------------

def table_poly(blocks, max_terms=4):
    """A coordinate a table may hold: up to four distinct variables of the
    blocks at indices 1..10 per monomial; no variables is a constant."""
    pool = [field_bit(b, i) for b in blocks for i in range(1, HEAD + 1)]
    keys = st.lists(st.sampled_from(pool), unique=True, max_size=4).map(sum)
    return st.lists(st.tuples(st.integers(1, 2), keys),
                    max_size=max_terms).map(Poly.from_keys)


def random_table(name, blocks):
    # a few coordinates of 5..19 hold a polynomial, the rest are zero
    coords = st.dictionaries(st.integers(5, N), table_poly(blocks),
                             min_size=1, max_size=5)
    return coords.map(lambda c: tables.FormulaTable(
        name, blocks, tuple(c.get(k, Poly.zero()) for k in range(1, N + 1))))


# coordinates are zero, one term or longer, in variables no table reads
COORD_VALUES = st.one_of(
    st.just(Poly.zero()),
    polys_over(ZT + (Var("z", 1),), max_terms=1),
    polys_over(ZT + (Var("z", 1), Var("t", 2)), max_terms=3))


def symbolic_elements(count):
    return st.tuples(*(st.tuples(*(COORD_VALUES,) * N),) * count)


@settings(max_examples=60, deadline=None)
@given(random_table("f", ("x", "y")), random_table("h", ("x",)),
       symbolic_elements(2))
def test_skipping_product_matches_the_reference(f, h, elements):
    sym = SymbolicLoop(Loop(f, h))
    a, b = elements
    assert sym.mul(a, b) == reference_mul(sym, a, b)
    assert sym.inv(a) == reference_inv(sym, a)
    assert sym.mul(sym.identity, a) == reference_mul(sym, sym.identity, a)


def seeded_element(rng, zero_share):
    """A symbolic element whose coordinates are zero with the given share,
    otherwise one variable or a sum of two."""
    out = []
    for i in range(1, N + 1):
        r = rng.random()
        if r < zero_share:
            out.append(Poly.zero())
        elif r < (1 + zero_share) / 2:
            out.append(var(rng.choice("zt"), i))
        else:
            out.append(var("z", i) + 2 * var("t", rng.randint(1, N)))
    return tuple(out)


def test_a_product_skips_only_dead_coordinates():
    # on the shipped tables, heads zero at random, at several densities
    sym, rng = SymbolicLoop(), random.Random(33)
    for n in range(40):
        share = (0.2, 0.5, 0.8, 0.95)[n % 4]
        a, b = seeded_element(rng, share), seeded_element(rng, share)
        assert sym.mul(a, b) == reference_mul(sym, a, b), n
        assert sym.inv(a) == reference_inv(sym, a), n


def test_a_constant_monomial_is_never_skipped():
    f = f_table().with_coord(7, f_table().coord(7) + Poly.constant(1))
    h = h_table().with_coord(12, Poly.constant(2))
    sym = SymbolicLoop(Loop(f, h))
    zero = sym.identity
    assert sym.mul(zero, zero)[6] == Poly.constant(1)
    assert sym.inv(zero)[11] == Poly.constant(2)
    x = generic("z")
    assert sym.mul(zero, x) == reference_mul(sym, zero, x)
    assert sym.inv(x) == reference_inv(sym, x)


def test_a_constant_monomial_fails_the_precheck_at_every_index():
    lp = Loop(h=h_table().with_coord(7, h_table().coord(7) + Poly.constant(1)))
    want = unfiltered_precheck(lp)
    assert {f"h(0*e{i}) != 0" for i in range(1, N + 1)} <= set(want)
    assert SymbolicLoop(lp)._power_precheck() == want


@given(st.sampled_from("xyzt"))
def test_generic_elements_are_built_once_and_never_change(block):
    first = generic(block)
    assert first == fresh_generic(block)
    SymbolicLoop().prove_identity_law()
    again = generic(block)
    assert again is first
    assert again == fresh_generic(block)


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


def seeded_edits():
    """(label, f text, h text) of the seeded one-monomial edits."""
    f_text = (tables._DATA_DIR / "f_table.txt").read_text()
    h_text = (tables._DATA_DIR / "h_table.txt").read_text()
    rng = random.Random(20151)
    for n in range(SEEDED_EDITS):
        f_new, h_new = f_text, h_text
        if rng.random() < 0.5:
            f_new = edit_table(f_text, ("x", "y"), rng)
        else:
            h_new = edit_table(h_text, ("x",), rng)
        yield f"edit {n}", f_new, h_new


def table_loops():
    yield "shipped", Loop()
    for mutation in MUTATIONS:
        yield mutation[0], Loop(*mutated_tables(mutation))
    # a constant monomial reads no coordinate, so it fails every index
    yield "constant in h7", Loop(h=h_table().with_coord(
        7, h_table().coord(7) + Poly.constant(1)))
    yield "constant in f12", Loop(f=f_table().with_coord(
        12, f_table().coord(12) + Poly.constant(2)))
    for label, f_new, h_new in seeded_edits():
        yield label, Loop(tables.parse_table(f_new, "f", ("x", "y")),
                          tables.parse_table(h_new, "h", ("x",)))


def report_fields(report):
    witness = report.witness.as_json() if report.witness else None
    return (report.proved, report.nonzero_coords, report.telemetry,
            report.details, witness)


def test_proof_reports_match_the_oracle_substitution(monkeypatch):
    refuted = failed_prechecks = 0
    oracle_calls = 0

    def counted(fn):
        def call(*args):
            nonlocal oracle_calls
            oracle_calls += 1
            return fn(*args)
        return call

    for label, lp in table_loops():
        sym = SymbolicLoop(lp)
        new = [getattr(sym, "prove_" + c)() for c in CLAIMS]
        oracle_calls = 0
        with monkeypatch.context() as m:
            # the reference product, with no skip and no cached generics
            m.setattr(Poly, "substitute", counted(oracle_substitute))
            m.setattr(SymbolicLoop, "mul", counted(reference_mul))
            m.setattr(SymbolicLoop, "inv", counted(reference_inv))
            m.setattr(symbolic, "generic", fresh_generic)
            old = [getattr(sym, "prove_" + c)() for c in CLAIMS]
        # the old reports came through the oracle, not the code under test
        assert oracle_calls > 0, label
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
