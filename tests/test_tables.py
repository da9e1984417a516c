"""Golden transcription tests for the defining tables.

SECOND_PASS_F / SECOND_PASS_H below were typed from the source displays in a
separate pass, in a different notation, and are decoded by a test-local
parser -- so a typo has to happen twice, in two formats, to slip through.
The symbolic proofs and the identification-table tests then constrain the
transcription semantically as well.
"""

import pytest

from moufang3 import ValidationFailure, Var, f_table, h_table, validate_tables
from moufang3.polys import var
from moufang3.tables import compile_concrete, parse_table

# one string per coordinate; monomials "±x2.y1" separated by spaces
SECOND_PASS_F = {
    5: "-x2.y1",
    6: "-x3.y1",
    7: "-x4.y1",
    8: "-x3.y2",
    9: "-x4.y2",
    10: "-x4.y3",
    11: "-x2.x3.y1 -x2.y1.y3 +x5.y3 -x8.y1",
    12: "-x2.x4.y1 -x2.y1.y4 +x5.y4 -x9.y1",
    13: "-x3.y1.y2 +x6.y2 +x8.y1",
    14: "-x3.x4.y1 -x3.y1.y4 +x6.y4 -x10.y1",
    15: "-x4.y1.y2 +x7.y2 +x9.y1",
    16: "-x4.y1.y3 +x7.y3 +x10.y1",
    17: "-x3.x4.y2 -x3.y2.y4 +x8.y4 -x10.y2",
    18: "-x4.y2.y3 +x9.y3 +x10.y2",
    19: "-x1.x2.x4.y3 +x1.x2.y3.y4 +x1.x3.y2.y4 +x1.x4.y2.y3 -x1.y2.y3.y4 "
        "-x2.x3.x4.y1 +x2.x3.y1.y4 +x2.x4.y1.y3 +x3.x4.y1.y2 -x3.y1.y2.y4 "
        "+x1.x8.y4 -x1.x9.y3 +x1.x10.y2 -x1.y2.y10 +x1.y3.y9 -x1.y4.y8 "
        "-x2.x6.y4 +x2.x7.y3 -x2.x10.y1 +x2.y1.y10 -x2.y3.y7 +x2.y4.y6 "
        "+x3.x5.y4 -x3.x7.y2 +x3.x9.y1 -x3.y1.y9 +x3.y2.y7 -x3.y4.y5 "
        "-x4.x5.y3 +x4.x6.y2 -x4.x8.y1 +x4.y1.y8 -x4.y2.y6 +x4.y3.y5",
}

SECOND_PASS_H = {
    5: "-x1.x2",
    6: "-x1.x3",
    7: "-x1.x4",
    8: "-x2.x3",
    9: "-x2.x4",
    10: "-x3.x4",
    11: "-x1.x8 +x3.x5",
    12: "-x1.x9 +x4.x5",
    13: "+x1.x2.x3 +x1.x8 +x2.x6",
    14: "-x1.x10 +x4.x6",
    15: "+x1.x2.x4 +x1.x9 +x2.x7",
    16: "+x1.x3.x4 +x1.x10 +x3.x7",
    17: "-x2.x10 +x4.x8",
    18: "+x2.x3.x4 +x2.x10 +x3.x9",
    19: "-x1.x2.x3.x4",
}


def decode_second_pass(text):
    """Test-local decoder: '±x2.y1 ...' -> set of (coeff, sorted var tuple)."""
    terms = set()
    for token in text.split():
        sign, body = token[0], token[1:]
        coeff = 2 if sign == "-" else 1
        factors = tuple(sorted(Var(f[0], int(f[1:])) for f in body.split(".")))
        assert len(set(factors)) == len(factors)
        terms.add((coeff, factors))
    return terms


def table_terms(poly):
    return {(coeff, tuple(v for v, _ in mono)) for mono, coeff in poly.terms()}


@pytest.mark.parametrize("k", range(1, 20))
def test_f_matches_second_pass(k):
    expected = decode_second_pass(SECOND_PASS_F[k]) if k in SECOND_PASS_F else set()
    assert table_terms(f_table().coord(k)) == expected


@pytest.mark.parametrize("k", range(1, 20))
def test_h_matches_second_pass(k):
    expected = decode_second_pass(SECOND_PASS_H[k]) if k in SECOND_PASS_H else set()
    assert table_terms(h_table().coord(k)) == expected


# -- pinned spot checks ---------------------------------------------------------

def test_f5_single_monomial():
    assert f_table().coord(5) == 2 * var("x", 2) * var("y", 1)


def test_f_low_coordinates_vanish():
    for k in (1, 2, 3, 4):
        assert f_table().coord(k).is_zero()
        assert h_table().coord(k).is_zero()


def test_f19_has_34_monomials():
    assert f_table().coord(19).term_count() == 34


def test_f11_has_4_monomials():
    assert f_table().coord(11).term_count() == 4


def test_h5_and_h19():
    assert h_table().coord(5) == 2 * var("x", 1) * var("x", 2)
    assert h_table().coord(19) == (
        2 * var("x", 1) * var("x", 2) * var("x", 3) * var("x", 4))
    assert h_table().coord(19).total_degree() == 4


def test_validation_report_telemetry():
    report = validate_tables()
    assert report.f.index_support <= set(range(1, 11))
    assert report.h.index_support <= set(range(1, 11))
    assert report.f.max_total_degree == 4
    assert report.h.max_total_degree == 4
    assert report.f.term_counts[:4] == (0, 0, 0, 0)
    assert report.f.term_counts[18] == 34
    assert report.f.term_counts[10] == 4
    assert sum(report.h.term_counts) == 27
    assert sum(report.f.term_counts) == 68


def test_tables_never_read_the_tail():
    for table in (f_table(), h_table()):
        for p in table.coords:
            assert all(v.index <= 10 for v in p.variables())


def test_f19_vanishes_on_swapped_first_basis_pair():
    # x = e2 coordinates, y = e1 coordinates: every monomial loses a factor
    assignment = {Var("x", i): 1 if i == 2 else 0 for i in range(1, 11)}
    assignment.update({Var("y", i): 1 if i == 1 else 0 for i in range(1, 11)})
    assert f_table().coord(19).evaluate(assignment) == 0
    assert f_table().coord(5).evaluate(assignment) == 2


# -- validation failures -----------------------------------------------------------

def test_rejects_nonzero_low_coordinate():
    bad = f_table().with_coord(1, var("x", 2) * var("y", 1))
    with pytest.raises(ValidationFailure, match="f_1"):
        validate_tables(f=bad)


def test_rejects_tail_index():
    bad = f_table().with_coord(5, var("x", 11) * var("y", 1))
    with pytest.raises(ValidationFailure, match="index 11"):
        validate_tables(f=bad)


# factors no Poly can hold are rejected while parsing, with the same
# message validate_table gives for a factor outside the table's blocks
@pytest.mark.parametrize("factor, message", [
    ("w3", "f_5 reads block 'w', allowed ('x', 'y')"),
    ("x25", "f_5 reads index 25, allowed 1..10"),
    ("x0", "f_5 reads index 0, allowed 1..10"),
])
def test_parse_table_rejects_variables_outside_the_ring(factor, message):
    with pytest.raises(ValidationFailure) as info:
        parse_table(f"5; 2; {factor}*y1\n", "f", ("x", "y"))
    assert str(info.value) == message


@pytest.mark.parametrize("line", [
    "\u0665; \u0661; x\u0662*y1",      # Arabic-Indic digits throughout
    "\u0665; 1; x2*y1",
    "5; \u0661; x2*y1",
    "5; 1; x\u0662*y1",
    "5; 1; x2*y\uff11",                # a fullwidth digit
    "1_0; 1; x2*y1",
    "+5; 1; x2*y1",
    "5; +1; x2*y1",
])
def test_parse_table_takes_ascii_digits_only(line):
    with pytest.raises(ValidationFailure):
        parse_table(line + "\n", "f", ("x", "y"))


def test_parse_table_reads_other_ascii_integers_as_before():
    assert parse_table("05; 01; x2*y1\n", "f", ("x", "y")) == \
        parse_table("5; 1; x2*y1\n", "f", ("x", "y"))
    for line, message in (("25; 1; x2*y1", "coordinate 25 outside 1..19"),
                          ("5; -1; x2*y1", "coefficient -1 not a unit")):
        with pytest.raises(ValidationFailure, match=message):
            parse_table(line, "f", ("x", "y"))


def test_rejects_wrong_block():
    bad = h_table().with_coord(5, var("x", 1) * var("y", 2))
    with pytest.raises(ValidationFailure, match="block"):
        validate_tables(h=bad)


def test_rejects_high_degree():
    mono = (var("x", 1) * var("x", 2) * var("x", 3) * var("x", 4)
            * var("y", 1))
    bad = f_table().with_coord(19, mono)
    with pytest.raises(ValidationFailure, match="degree 5"):
        validate_tables(f=bad)


def test_rejects_squared_factor():
    bad = h_table().with_coord(5, var("x", 1) * var("x", 1))
    with pytest.raises(ValidationFailure, match="exponent"):
        validate_tables(h=bad)


# each bad line as line 4, after a comment, a blank and a good line, and
# its message verbatim, as the tuple-building parser worded it
BAD_LINES = {
    "5; 2": "f table line 4: expected 'coord; coeff; factors'",
    "5; 2; x1; y1": "f table line 4: expected 'coord; coeff; factors'",
    "0; 2; x1*x2": "f table line 4: coordinate 0 outside 1..19",
    "5; 3; x1*x2": "f table line 4: coefficient 3 not a unit of GF(3)",
    "5; 2; x1*x1": "f table line 4: repeated factor in monomial",
    "5; 2; q1*x2": "f_5 reads block 'q', allowed ('x', 'y')",
    "5; 2; w3*y1": "f_5 reads block 'w', allowed ('x', 'y')",
    "5; 2; x0*y1": "f_5 reads index 0, allowed 1..10",
    "5; 2; x11*y1": "f_5 reads index 11, allowed 1..10",
    "5; 2; x25*y1": "f_5 reads index 25, allowed 1..10",
    "five; 2; x1*x2": "f table line 4: non-integer coord or coeff",
    "5; 1; x\u0662*y1": "f table line 4: bad factor 'x\u0662'",
    "5; 2; x1*": "f table line 4: bad factor ''",
    # every factor is checked before the repeat is
    "5; 2; x1*x1*w3": "f_5 reads block 'w', allowed ('x', 'y')",
    "1; 1; x1*y2": "f_1 must be the zero polynomial",
    "5; 1; x2*y1*x3*y4*x5": "f_5 has a monomial of degree 5 > 4",
}


@pytest.mark.parametrize("line", BAD_LINES)
def test_parse_table_rejects_bad_lines(line):
    with pytest.raises(ValidationFailure) as info:
        parse_table("# header\n\n5; 2; x2*y1\n" + line, "f", ("x", "y"))
    assert str(info.value) == BAD_LINES[line]


H_BAD_LINES = {
    "5; 2; y1*x1*y1": "h_5 reads block 'y', allowed ('x',)",
    "5; 2; x1*x1": "h table line 1: repeated factor in monomial",
    "1; 1; x1*y2": "h_1 reads block 'y', allowed ('x',)",
}


@pytest.mark.parametrize("line", H_BAD_LINES)
def test_parse_table_words_h_failures(line):
    with pytest.raises(ValidationFailure) as info:
        parse_table(line, "h", ("x",))
    assert str(info.value) == H_BAD_LINES[line]


def test_parse_table_reads_other_spellings_of_a_factor():
    want = parse_table("5; 2; x1*y1\n", "f", ("x", "y"))
    for factors in ("y1*x01", " x1 * y1 ", "y001*x1"):
        assert parse_table(f"5; 2; {factors}\n", "f", ("x", "y")) == want
    with pytest.raises(ValidationFailure,
                       match="repeated factor in monomial"):
        parse_table("5; 2; x1*x01\n", "f", ("x", "y"))


def test_parse_table_accepts_comments_and_blanks():
    table = parse_table("# comment\n\n5; 2; x2*y1\n", "f", ("x", "y"))
    assert table.coord(5) == 2 * var("x", 2) * var("y", 1)
    assert table.coord(6).is_zero()


def test_with_coord_replaces_one_coordinate():
    new = 2 * var("x", 3) * var("y", 2)
    mutated = f_table().with_coord(5, new)
    assert mutated.coord(5) == new
    assert mutated.coord(6) == f_table().coord(6)


def test_compile_concrete_codes():
    flat = compile_concrete(f_table())
    assert flat[0] == []                      # f_1 = 0
    assert flat[4] == [(2, (1, 10))]          # f_5 = 2 * x2 * y1
    assert all(0 <= c < 20 for terms in flat for _, codes in terms
               for c in codes)
    flat_h = compile_concrete(h_table())
    assert flat_h[4] == [(2, (0, 1))]         # h_5 = 2 * x1 * x2
    assert all(0 <= c < 10 for terms in flat_h for _, codes in terms
               for c in codes)
