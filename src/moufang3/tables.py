"""The defining polynomial tables of the loop, loaded from plain-text data.

The tables are data, not code: concrete multiplication, symbolic
multiplication and validation all read the same transcription, so a typo in
the fixture fails everywhere at once.  Both tables have 19 coordinate
polynomials; the multiplication table f reads the blocks x and y, the
inverse table h reads block x only, and neither mentions a variable index
above 10 -- which is why coordinates 11..19 behave centrally.

Tables are read and checked on the packed keys of `polys`: `parse_table`
ORs each factor's field bit into the key, and `validate_table` checks keys
against masks and decodes a coordinate only to word its failure.
"""

from __future__ import annotations

import re
from functools import lru_cache, reduce
from operator import or_
from pathlib import Path
from typing import NamedTuple

from .errors import ValidationFailure
from .polys import BLOCKS, LOW, Poly, Var, field_bit, flatten_polys

N_COORDS = 19
MAX_VAR_INDEX = 10
MAX_DEGREE = 4

_DATA_DIR = Path(__file__).parent / "data"
_VAR_RE = re.compile(r"^([a-z])(\d+)$", re.ASCII)
# the usual coordinate and coefficient texts, looked up per line, as that
# costs less than int(); any other text goes through ascii_int
_SMALL_INTS = {str(i): i for i in range(1, N_COORDS + 1)}


def ascii_int(text: str) -> int:
    """int(text) for ASCII digits after an optional '-' only; int() alone
    also takes other scripts' digits, '_', '+' and spaces."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


class FormulaTable(NamedTuple):
    """An immutable 19-coordinate table of sparse polynomials."""

    name: str
    blocks: tuple[str, ...]
    coords: tuple[Poly, ...]

    def coord(self, k: int) -> Poly:
        """Coordinate polynomial, 1-based like the subscripts in the data."""
        if not 1 <= k <= N_COORDS:
            raise IndexError(f"coordinate {k} outside 1..{N_COORDS}")
        return self.coords[k - 1]

    def with_coord(self, k: int, poly: Poly) -> "FormulaTable":
        """Copy of the table with one coordinate replaced (mutation testing)."""
        coords = list(self.coords)
        coords[k - 1] = poly
        return FormulaTable(self.name, self.blocks, tuple(coords))


class TableStats(NamedTuple):
    name: str
    term_counts: tuple[int, ...]
    max_total_degree: int
    index_support: frozenset


class TableReport(NamedTuple):
    f: TableStats
    h: TableStats


@lru_cache(maxsize=None)
def _tokens(blocks: tuple[str, ...]) -> dict:
    """Factor text -> field bit, for each variable a table may read."""
    return {f"{b}{i}": field_bit(b, i) for b in blocks if b in BLOCKS
            for i in range(1, MAX_VAR_INDEX + 1)}


def parse_table(text: str, name: str, blocks: tuple[str, ...]) -> FormulaTable:
    """Parse "coord; coeff; factors" lines into a FormulaTable.

    Blank lines and '#' comments are ignored; a coordinate with no lines is
    the zero polynomial.
    """
    tokens = _tokens(tuple(blocks))
    terms_by_coord: list[list] = [[] for _ in range(N_COORDS)]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(";")]
        if len(parts) != 3:
            raise ValidationFailure(
                f"{name} table line {lineno}: expected 'coord; coeff; factors'")
        coord, coeff = _SMALL_INTS.get(parts[0]), _SMALL_INTS.get(parts[1])
        if coord is None or coeff is None:        # "05", "-1", "x", ...
            try:
                coord, coeff = ascii_int(parts[0]), ascii_int(parts[1])
            except ValueError:
                raise ValidationFailure(f"{name} table line {lineno}: "
                                        "non-integer coord or coeff") from None
        if not 1 <= coord <= N_COORDS:
            raise ValidationFailure(
                f"{name} table line {lineno}: coordinate {coord} outside 1..19")
        if coeff not in (1, 2):
            raise ValidationFailure(
                f"{name} table line {lineno}: coefficient {coeff} not a unit of GF(3)")
        factors = parts[2].split("*")
        key = 0
        for tok in factors:
            bit = tokens.get(tok)
            if bit is None:           # another spelling ("x01"), or a failure
                m = _VAR_RE.match(tok.strip())
                if not m:
                    raise ValidationFailure(
                        f"{name} table line {lineno}: bad factor {tok.strip()!r}")
                v = Var(m.group(1), int(m.group(2)))
                # raised here: a Poly holds only blocks x/y/z/t at 1..19
                _check_read(name, coord, blocks, v)
                bit = field_bit(*v)
            key |= bit
        # after the loop, so that a bad factor is reported first
        if key.bit_count() != len(factors):
            raise ValidationFailure(
                f"{name} table line {lineno}: repeated factor in monomial")
        terms_by_coord[coord - 1].append((coeff, key))
    table = FormulaTable(name, blocks, tuple(map(Poly.from_keys, terms_by_coord)))
    validate_table(table)
    return table


@lru_cache(maxsize=None)
def _load(filename: str, name: str, blocks: tuple[str, ...]) -> FormulaTable:
    text = (_DATA_DIR / filename).read_text()
    return parse_table(text, name, blocks)


def f_table() -> FormulaTable:
    """The multiplication correction table: x o y = x + y + f(x, y)."""
    return _load("f_table.txt", "f", ("x", "y"))


def h_table() -> FormulaTable:
    """The inverse correction table: inverse(x) = -x + h(x)."""
    return _load("h_table.txt", "h", ("x",))


def load_tables_from(directory) -> tuple[FormulaTable, FormulaTable]:
    """Load alternate f/h fixtures (same filenames) from a directory."""
    directory = Path(directory)
    f = parse_table((directory / "f_table.txt").read_text(), "f", ("x", "y"))
    h = parse_table((directory / "h_table.txt").read_text(), "h", ("x",))
    return f, h


def _check_read(name: str, k: int, blocks: tuple[str, ...], v: Var) -> None:
    if v.block not in blocks:
        raise ValidationFailure(
            f"{name}_{k} reads block {v.block!r}, allowed {blocks}")
    if not 1 <= v.index <= MAX_VAR_INDEX:
        raise ValidationFailure(
            f"{name}_{k} reads index {v.index}, allowed 1..{MAX_VAR_INDEX}")


def validate_table(table: FormulaTable) -> TableStats:
    """Check the structural invariants; raise ValidationFailure naming the
    violated invariant and coordinate."""
    name = table.name
    if len(table.coords) != N_COORDS:
        raise ValidationFailure(
            f"{name} table has {len(table.coords)} coordinates, want {N_COORDS}")
    # a key meeting `bad` reads a variable the table may not, or squares one
    bad = LOW & ~reduce(or_, _tokens(tuple(table.blocks)).values(), 0) | LOW << 1
    support = max_deg = 0
    for k, p in enumerate(table.coords, start=1):
        if k <= 4 and p:
            raise ValidationFailure(f"{name}_{k} must be the zero polynomial")
        keys = p._terms or (0,)
        reads, deg = reduce(or_, keys), max(map(int.bit_count, keys))
        if reads & bad or deg > MAX_DEGREE:
            # decoded only to word the first failure in term order
            for mono, _ in p.terms():
                for v, e in mono:
                    _check_read(name, k, table.blocks, v)
                    if e != 1:
                        raise ValidationFailure(
                            f"{name}_{k} has exponent {e} > 1 on {v}")
                if len(mono) > MAX_DEGREE:
                    raise ValidationFailure(f"{name}_{k} has a monomial of "
                                            f"degree {len(mono)} > {MAX_DEGREE}")
        support |= reads
        max_deg = max(max_deg, deg)
    support = frozenset(v.index for v in Poly.from_keys([(1, support)]).variables())
    return TableStats(name, tuple(map(Poly.term_count, table.coords)), max_deg,
                      support)


def validate_tables(f: FormulaTable | None = None,
                    h: FormulaTable | None = None) -> TableReport:
    """Validate both tables and report per-coordinate telemetry."""
    f = f if f is not None else f_table()
    h = h if h is not None else h_table()
    return TableReport(f=validate_table(f), h=validate_table(h))


def compile_concrete(table: FormulaTable) -> list:
    """Flatten a table for the evaluation kernels (see polys.flatten_polys).

    The variable order is each block of table.blocks in turn, indices
    1..10, so variable (block, index) gets code src * 10 + (index - 1),
    src being the block's position in table.blocks.
    """
    return flatten_polys(table.coords, [Var(b, i) for b in table.blocks
                                        for i in range(1, MAX_VAR_INDEX + 1)])
