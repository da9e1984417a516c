"""The packed table reader and the mask validation against the tuple routes
kept here.

`oracle_parse` reads a table as the parser did before monomials were packed
while reading: each factor a Var, each line a sorted tuple monomial, each
coordinate a `Poly.from_terms`.  `oracle_validate` decodes every term and
checks factor by factor.  `parse_table` must build the same tables, and
`validate_table` must give the same stats or word the same failure.
"""

from hypothesis import given
from hypothesis import strategies as st

from moufang3 import ValidationFailure, Var, f_table, h_table
from moufang3.polys import Poly, var
from moufang3.tables import (MAX_DEGREE, MAX_VAR_INDEX, N_COORDS,
                             FormulaTable, TableStats, parse_table,
                             validate_table)

from test_substitution_parity import seeded_edits

F_BLOCKS, H_BLOCKS = ("x", "y"), ("x",)


def oracle_parse(text, name, blocks):
    """The tuple route, for valid text: Var factors, a sorted tuple
    monomial per line, Poly.from_terms per coordinate."""
    terms = [[] for _ in range(N_COORDS)]
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        coord, coeff, factors = (p.strip() for p in line.split(";"))
        mono = tuple(sorted((Var(f[0], int(f[1:])), 1)
                            for f in factors.split("*")))
        terms[int(coord) - 1].append((int(coeff), mono))
    return FormulaTable(name, blocks,
                        tuple(Poly.from_terms(t) for t in terms))


def oracle_validate(table):
    """The decode-based check: every term, factor by factor."""
    name = table.name
    support, max_deg, counts = set(), 0, []
    for k, p in enumerate(table.coords, start=1):
        if k <= 4 and not p.is_zero():
            raise ValidationFailure(f"{name}_{k} must be the zero polynomial")
        counts.append(p.term_count())
        for mono, _ in p.terms():
            deg = 0
            for v, e in mono:
                if v.block not in table.blocks:
                    raise ValidationFailure(f"{name}_{k} reads block "
                                            f"{v.block!r}, allowed {table.blocks}")
                if not 1 <= v.index <= MAX_VAR_INDEX:
                    raise ValidationFailure(f"{name}_{k} reads index "
                                            f"{v.index}, allowed 1..{MAX_VAR_INDEX}")
                if e != 1:
                    raise ValidationFailure(
                        f"{name}_{k} has exponent {e} > 1 on {v}")
                support.add(v.index)
                deg += e
            if deg > MAX_DEGREE:
                raise ValidationFailure(f"{name}_{k} has a monomial of "
                                        f"degree {deg} > {MAX_DEGREE}")
            max_deg = max(max_deg, deg)
    return TableStats(name, tuple(counts), max_deg, frozenset(support))


def outcome(check, table):
    try:
        return check(table)
    except ValidationFailure as exc:
        return str(exc)


# -- parsing ----------------------------------------------------------------------

def test_seeded_edits_parse_as_the_tuple_route():
    for label, f_text, h_text in seeded_edits():
        assert parse_table(f_text, "f", F_BLOCKS) == \
            oracle_parse(f_text, "f", F_BLOCKS), label
        assert parse_table(h_text, "h", H_BLOCKS) == \
            oracle_parse(h_text, "h", H_BLOCKS), label


@st.composite
def table_texts(draw, blocks):
    """Lines of distinct factors in shuffled order, some monomials written
    again on a second line whose coefficient cancels or merges with the
    first, and comments and blank lines between them."""
    pool = [f"{b}{i}" for b in blocks for i in range(1, MAX_VAR_INDEX + 1)]
    monomials = draw(st.lists(st.tuples(
        st.integers(5, N_COORDS), st.integers(1, 2),
        st.lists(st.sampled_from(pool), min_size=1, max_size=MAX_DEGREE,
                 unique=True)), max_size=12))
    lines = []
    for coord, coeff, factors in monomials:
        lines.append(f"{coord}; {coeff}; "
                     + "*".join(draw(st.permutations(factors))))
        again = draw(st.sampled_from((None, "cancel", "merge")))
        if again:
            lines.append(f"{coord}; {3 - coeff if again == 'cancel' else coeff}; "
                         + "*".join(draw(st.permutations(factors))))
    text = []
    for line in draw(st.permutations(lines)):
        text += draw(st.lists(st.sampled_from(("", "   ", "# a note",
                                               "#5; 1; x1")), max_size=2))
        text.append(line)
    return "\n".join(text) + "\n"


@given(st.data())
def test_drawn_tables_parse_as_the_tuple_route(data):
    name, blocks = data.draw(st.sampled_from((("f", F_BLOCKS),
                                              ("h", H_BLOCKS))))
    text = data.draw(table_texts(blocks))
    assert parse_table(text, name, blocks) == oracle_parse(text, name, blocks)


# -- validation ---------------------------------------------------------------------

ALL_BLOCKS = ("t", "x", "y", "z")
EMPTY_F = FormulaTable("f", F_BLOCKS, (Poly.zero(),) * N_COORDS)
EMPTY_H = FormulaTable("h", H_BLOCKS, (Poly.zero(),) * N_COORDS)


@st.composite
def edited_tables(draw):
    """A shipped or an all-zero table with one monomial added to, or put in
    place of, one coordinate: valid, or reading a tail index or a wrong
    block, squaring a factor, of degree 5, in f_1..f_4 / h_1..h_4, a
    constant, or any monomial of the ring."""
    table = draw(st.sampled_from((f_table(), h_table(), EMPTY_F, EMPTY_H)))
    allowed = [(b, i) for b in table.blocks
               for i in range(1, MAX_VAR_INDEX + 1)]
    wrong = [(b, i) for b in ALL_BLOCKS if b not in table.blocks
             for i in range(1, 20)]
    kind = draw(st.sampled_from(("valid", "tail", "block", "square",
                                 "degree", "low", "constant", "any")))
    some = st.lists(st.sampled_from(allowed), max_size=3, unique=True)
    exps = []
    if kind in ("valid", "low"):
        factors = draw(st.lists(st.sampled_from(allowed), min_size=1,
                                max_size=MAX_DEGREE, unique=True))
    elif kind == "tail":
        b = draw(st.sampled_from(table.blocks))
        factors = draw(some) + [(b, draw(st.integers(11, 19)))]
    elif kind == "block":
        factors = draw(some) + [draw(st.sampled_from(wrong))]
    elif kind == "square":
        factors = draw(some)
        factors += [draw(st.sampled_from(allowed))] * 2
    elif kind == "degree":
        factors = draw(st.lists(st.sampled_from(allowed), min_size=5,
                                max_size=5, unique=True))
    elif kind == "constant":
        factors = []
    else:
        factors = draw(st.lists(st.tuples(st.sampled_from(ALL_BLOCKS),
                                          st.integers(1, 19)), max_size=6))
        exps = draw(st.lists(st.integers(1, 2), min_size=len(factors),
                             max_size=len(factors)))
    mono = Poly.constant(draw(st.integers(1, 2)))
    for n, (b, i) in enumerate(factors):
        mono = mono * var(b, i) ** (exps[n] if exps else 1)
    k = draw(st.integers(1, 4) if kind == "low" else st.integers(5, N_COORDS))
    if draw(st.booleans()):
        mono = table.coord(k) + mono
    return table.with_coord(k, mono)


@given(edited_tables())
def test_validate_table_matches_the_decoding_oracle(table):
    assert outcome(validate_table, table) == outcome(oracle_validate, table)


def test_shipped_tables_validate_as_the_oracle():
    # the last edit leaves f's highest degree in an earlier coordinate
    for table in (f_table(), h_table(), EMPTY_F,
                  f_table().with_coord(19, var("x", 1))):
        assert validate_table(table) == oracle_validate(table)
