"""The loop itself: F_3^19 with the table-defined product x o y = x + y + f.

Elements are plain 19-tuples of GF(3) residues, indexed 1..19 in the
mathematical notation and 0..18 in code.  All operations are pure functions;
a Loop instance owns a pair of formula tables plus the evaluation kernel
compiled from them, so alternate (e.g. deliberately corrupted) tables get
their own instance.

Elements are checked here, once: each public `Loop` method checks the
caller's elements at entry (`check_element`, which `symbolic.embed` runs
too) and then works on the kernel's `mul` and `inv`, which trust them.

Divisions go through the inverse property (u \\ v = u^-1 o v) and every
division and inverse self-checks its defining equation, so the inverse
property is continuously validated during use.  Those checks must never
fire on the shipped tables; if one does, it signals a transcription bug.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from . import gf3, kernel, tables
from ._native import _check_seed
from .errors import (DivisionCheckFailed, InverseLawViolation,
                     OrderNotFoundWithinCap, ParseError, ZeroSeed)

N_COORDS = 19
Element = tuple  # 19 GF(3) residues

_IDENTITY: Element = (0,) * N_COORDS


def identity() -> Element:
    """The identity element: the zero vector."""
    return _IDENTITY


def basis(i: int) -> Element:
    """The i-th standard basis tuple, 1-based."""
    if not 1 <= i <= N_COORDS:
        raise IndexError(f"basis index {i} outside 1..{N_COORDS}")
    return _IDENTITY[: i - 1] + (1,) + _IDENTITY[i:]


def vec_add(x: Element, y: Element) -> Element:
    """Coordinatewise sum; vector-space structure, not the loop product."""
    return tuple(gf3.add(a, b) for a, b in zip(x, y))


def vec_neg(x: Element) -> Element:
    return tuple(gf3.neg(a) for a in x)


def vec_scale(x: Element, c: int) -> Element:
    return tuple(gf3.mul(a, c) for a in x)


def check_element(x) -> Element:
    """The caller's element as a tuple; ValueError unless it is 19 residues."""
    if len(x) != N_COORDS:
        raise ValueError("element must have 19 coordinates")
    for v in x:
        # exactly int: True and 1.0 compare equal to 1 but are no residues
        if type(v) is not int or v not in (0, 1, 2):
            raise ValueError(f"coordinate {v!r} is not a GF(3) residue")
    return tuple(x)


def support(x: Element) -> tuple:
    """1-based indices of the nonzero coordinates."""
    return tuple(i for i, v in enumerate(x, start=1) if v)


# -- text formats -----------------------------------------------------------

def format_element(x: Element, style: str = "dense") -> str:
    """Canonical dense form "(t1,...,t19)", or sparse "e1 + 2*e5" / "0"."""
    if style == "dense":
        return "(" + ",".join(str(v) for v in x) + ")"
    if style == "sparse":
        parts = []
        for i, v in enumerate(x, start=1):
            if v == 1:
                parts.append(f"e{i}")
            elif v == 2:
                parts.append(f"2*e{i}")
        return " + ".join(parts) if parts else "0"
    raise ValueError(f"unknown style {style!r}")


def parse_element(text: str) -> Element:
    """Parse the dense form "(t1,...,t19)" or the sparse form "e1 + 2*e5".

    "0" denotes the identity.  Raises ParseError carrying the character
    position of the offending token.
    """
    s = text.strip()
    offset = len(text) - len(text.lstrip())
    if not s:
        raise ParseError("empty element text", 0)
    if s == "0":
        return _IDENTITY
    if s.startswith("("):
        if not s.endswith(")"):
            raise ParseError("unterminated tuple", offset + len(s) - 1)
        body = s[1:-1]
        entries = body.split(",")
        if len(entries) != N_COORDS:
            raise ParseError(
                f"expected {N_COORDS} coordinates, got {len(entries)}", offset)
        coords = []
        pos = offset + 1
        for entry in entries:
            v = entry.strip()
            if v not in ("0", "1", "2"):
                raise ParseError(f"coordinate {entry.strip()!r} not in 0..2", pos)
            coords.append(int(v))
            pos += len(entry) + 1
        return tuple(coords)
    # sparse sum of basis terms
    coords = [0] * N_COORDS
    pos = offset
    for chunk in s.split("+"):
        term = chunk.strip()
        term_pos = pos + (len(chunk) - len(chunk.lstrip()))
        if not term:
            raise ParseError("empty term", term_pos)
        coeff = 1
        name = term
        if "*" in term:
            left, _, right = term.partition("*")
            left, right = left.strip(), right.strip()
            if left not in ("0", "1", "2"):
                raise ParseError(f"coefficient {left!r} not in 0..2", term_pos)
            coeff = int(left)
            name = right
        if not name.startswith("e"):
            raise ParseError(f"expected basis term, got {name!r}", term_pos)
        try:
            idx = int(name[1:])
        except ValueError:
            raise ParseError(f"bad basis index in {name!r}", term_pos) from None
        if not 1 <= idx <= N_COORDS:
            raise ParseError(
                f"basis index {idx} outside 1..{N_COORDS}", term_pos)
        coords[idx - 1] = (coords[idx - 1] + coeff) % 3
        pos += len(chunk) + 1
    return tuple(coords)


# -- deterministic randomness -----------------------------------------------

def check_seed(state: int) -> int:
    """Validate an xorshift-star state: nonzero, 64 bits."""
    _check_seed(state)
    if state == 0:
        raise ZeroSeed("rng state must be nonzero")
    return state


class IdentityCheck(NamedTuple):
    """One row of the generator identification table."""

    coord: int
    label: str
    computed: Element

    @property
    def expected(self) -> Element:
        return basis(self.coord)

    @property
    def ok(self) -> bool:
        return self.computed == self.expected


class Loop:
    """The loop (M, o) for a given pair of formula tables."""

    def __init__(self, f: tables.FormulaTable | None = None,
                 h: tables.FormulaTable | None = None):
        self.f = f if f is not None else tables.f_table()
        self.h = h if h is not None else tables.h_table()
        tables.validate_table(self.f)
        tables.validate_table(self.h)
        self._kernel = kernel.LoopKernel(tables.compile_concrete(self.f),
                                         tables.compile_concrete(self.h))

    def mul(self, x: Element, y: Element) -> Element:
        """x o y = x + y + f(x, y)."""
        return self._kernel.mul(check_element(x), check_element(y))

    def inverse(self, x: Element) -> Element:
        """-x + h(x), self-checked against x o x^-1 = x^-1 o x = identity."""
        return self._inverse(check_element(x))

    def _inverse(self, x: Element) -> Element:
        k = self._kernel
        w = k.inv(x)
        if k.mul(x, w) != _IDENTITY or k.mul(w, x) != _IDENTITY:
            raise InverseLawViolation(
                f"inverse law failed at {format_element(x)}; the tables are corrupt")
        return w

    def left_div(self, u: Element, v: Element) -> Element:
        """The unique w with u o w = v, via the inverse property."""
        u, v = check_element(u), check_element(v)
        w = self._kernel.mul(self._inverse(u), v)
        if self._kernel.mul(u, w) != v:
            raise DivisionCheckFailed(
                f"left division failed at u={format_element(u)} v={format_element(v)}")
        return w

    def right_div(self, v: Element, u: Element) -> Element:
        """The unique w with w o u = v."""
        v, u = check_element(v), check_element(u)
        w = self._kernel.mul(v, self._inverse(u))
        if self._kernel.mul(w, u) != v:
            raise DivisionCheckFailed(
                f"right division failed at v={format_element(v)} u={format_element(u)}")
        return w

    def commutator(self, x: Element, y: Element) -> Element:
        """[x, y]: the unique c with x o y = (y o x) o c."""
        x, y = check_element(x), check_element(y)
        mul = self._kernel.mul
        return self.left_div(mul(y, x), mul(x, y))

    def associator(self, x: Element, y: Element, z: Element) -> Element:
        """(x, y, z): the unique a with (x o y) o z = (x o (y o z)) o a."""
        x, y, z = check_element(x), check_element(y), check_element(z)
        mul = self._kernel.mul
        return self.left_div(mul(x, mul(y, z)), mul(mul(x, y), z))

    def power(self, x: Element, n: int) -> Element:
        """Left-nested n-th power; diassociativity makes bracketing moot."""
        x = check_element(x)
        base = x if n >= 0 else self._inverse(x)
        mul, acc = self._kernel.mul, _IDENTITY
        for _ in range(abs(n)):
            acc = mul(acc, base)
        return acc

    def order(self, x: Element, cap: int = 81) -> int:
        """Least n >= 1 with x^n = identity."""
        x = check_element(x)
        if cap < 1:
            raise ValueError("cap must be >= 1")
        mul, acc = self._kernel.mul, x
        for n in range(1, cap + 1):
            if acc == _IDENTITY:
                return n
            acc = mul(acc, x)
        raise OrderNotFoundWithinCap(
            f"order of {format_element(x)} exceeds cap {cap}")

    def random_element(self, state: int) -> tuple:
        """One element from 19 xorshift-star draws; returns (element, state)."""
        return self._kernel.random_element(check_seed(state))

    def random_elements(self, state: int, count: int) -> Iterator[Element]:
        """Convenience stream of `count` elements from one running state."""
        for _ in range(count):
            x, state = self.random_element(state)
            yield x

    def identification_table(self) -> list:
        """The 15 commutator/associator identities pinning e_5..e_19 to the
        generators a=e1, b=e2, c=e3, d=e4."""
        a, b, c, d = basis(1), basis(2), basis(3), basis(4)
        comm, assoc = self.commutator, self.associator
        rows = [
            (5, "[a,b]", comm(a, b)),
            (6, "[a,c]", comm(a, c)),
            (7, "[a,d]", comm(a, d)),
            (8, "[b,c]", comm(b, c)),
            (9, "[b,d]", comm(b, d)),
            (10, "[c,d]", comm(c, d)),
            (11, "[[a,b],c]", comm(comm(a, b), c)),
            (12, "[[a,b],d]", comm(comm(a, b), d)),
            (13, "[[a,c],b]", comm(comm(a, c), b)),
            (14, "[[a,c],d]", comm(comm(a, c), d)),
            (15, "[[a,d],b]", comm(comm(a, d), b)),
            (16, "[[a,d],c]", comm(comm(a, d), c)),
            (17, "[[b,c],d]", comm(comm(b, c), d)),
            (18, "[[b,d],c]", comm(comm(b, d), c)),
            (19, "([a,b],c,d)", assoc(comm(a, b), c, d)),
        ]
        return [IdentityCheck(coord, label, computed)
                for coord, label, computed in rows]


@lru_cache(maxsize=1)
def default_loop() -> Loop:
    """The loop built from the shipped tables (cached)."""
    return Loop()
