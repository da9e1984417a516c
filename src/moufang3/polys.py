"""Sparse multivariate polynomials over GF(3) with the reduction x^3 = x.

Per-variable exponents are capped at 2 by reducing e -> e - 2 while e >= 3
(x^3 = x, hence x^4 = x^2).  Under this reduction the representation is
canonical: two polynomials are structurally equal exactly when they agree as
functions F_3^n -> F_3.  That is what turns "all difference coordinates are
the zero polynomial" into a complete proof over every concrete assignment.

Variables live in four disjoint blocks named "x", "y", "z" and "t"; a
variable is a (block, index) pair with index in 1..19.  A monomial is a
tuple of (Var, exponent) pairs sorted by variable, exponents in {1, 2}.
A polynomial maps monomials to nonzero coefficients in {1, 2}; the zero
polynomial is the empty mapping.

Substitution is the hot path of the symbolic proofs, so it works on the raw
term dicts and builds no Poly until its result.  For each monomial it looks
up every factor first (an unbound variable raises even behind a zero
factor), skips the monomial when a factor is the zero polynomial, and
multiplies the factors smallest first through `_mul_terms`, the same
product `Poly.__mul__` uses.  `mono_mul` concatenates two monomials whose
variables do not interleave, such as an x-block and a y-block monomial,
instead of merging them.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import UnboundVariable

BLOCKS = ("x", "y", "z", "t")


class Var(NamedTuple):
    """A variable, totally ordered by (block, index) tuple comparison."""

    block: str
    index: int

    def __str__(self):
        return f"{self.block}{self.index}"


Monomial = tuple  # tuple[tuple[Var, int], ...], sorted by Var

_ONE: Monomial = ()


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """Merge two sorted exponent lists, reducing exponents by x^3 = x."""
    if not m1:
        return m2
    if not m2:
        return m1
    # disjoint ordered blocks (an x-monomial times a y-monomial) concatenate
    if m1[-1][0] < m2[0][0]:
        return m1 + m2
    if m2[-1][0] < m1[0][0]:
        return m2 + m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            e = e1 + e2
            if e > 2:
                e -= 2
            out.append((v1, e))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _mono_str(m: Monomial) -> str:
    return "*".join(str(v) if e == 1 else f"{v}^2" for v, e in m)


def _term_key(m: Monomial):
    # graded order: degree first, then lexicographic on the factor list
    return (mono_degree(m), m)


def _mul_terms(a: dict, b: dict) -> dict:
    """The product of two canonical term dicts, as a new canonical dict."""
    if len(a) > len(b):
        a, b = b, a
    acc: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = mono_mul(m1, m2)
            c = (acc.get(mono, 0) + c1 * c2) % 3
            if c:
                acc[mono] = c
            else:
                # c1 * c2 is a unit, so a zero sum means mono was present
                del acc[mono]
    return acc


class Poly:
    """Immutable sparse polynomial over GF(3) in canonical reduced form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        if terms is None:
            object.__setattr__(self, "_terms", {})
            return
        clean = {}
        for mono, coeff in terms.items():
            coeff %= 3
            if coeff:
                clean[mono] = coeff
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def _raw(cls, terms: dict) -> "Poly":
        # trusted constructor: terms already canonical (no zero coefficients)
        p = cls.__new__(cls)
        object.__setattr__(p, "_terms", terms)
        return p

    @classmethod
    def zero(cls) -> "Poly":
        return cls._raw({})

    @classmethod
    def constant(cls, c: int) -> "Poly":
        c %= 3
        return cls._raw({_ONE: c} if c else {})

    @classmethod
    def variable(cls, block: str, index: int) -> "Poly":
        if block not in BLOCKS:
            raise ValueError(f"unknown variable block {block!r}")
        if not 1 <= index <= 19:
            raise ValueError(f"variable index {index} outside 1..19")
        return cls._raw({((Var(block, index), 1),): 1})

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, Monomial]]) -> "Poly":
        acc: dict = {}
        for coeff, mono in terms:
            c = (acc.get(mono, 0) + coeff) % 3
            if c:
                acc[mono] = c
            else:
                acc.pop(mono, None)
        return cls._raw(acc)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def term_count(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(mono_degree(m) for m in self._terms)

    def terms(self):
        """Iterate (monomial, coefficient) pairs in canonical term order."""
        return ((m, self._terms[m]) for m in sorted(self._terms, key=_term_key))

    def variables(self) -> set:
        return {v for m in self._terms for v, _ in m}

    def coefficient(self, mono: Monomial) -> int:
        return self._terms.get(mono, 0)

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        big, small = self._terms, other._terms
        if len(big) < len(small):
            big, small = small, big
        acc = dict(big)
        for mono, coeff in small.items():
            c = (acc.get(mono, 0) + coeff) % 3
            if c:
                acc[mono] = c
            else:
                del acc[mono]
        return Poly._raw(acc)

    def __neg__(self) -> "Poly":
        return Poly._raw({m: 3 - c for m, c in self._terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % 3
            if c == 0:
                return Poly.zero()
            if c == 1:
                return self
            return -self
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly._raw(_mul_terms(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    # -- substitution and evaluation --------------------------------------

    def substitute(self, env: Mapping[Var, "Poly"]) -> "Poly":
        """Simultaneous substitution of polynomials for variables.

        ``env`` must cover every variable occurring in self.  Satisfies
        evaluate(substitute(p, env), s) == evaluate(p, v -> evaluate(env[v], s))
        for every assignment s; the property tests exercise this contract.
        """
        acc: dict = {}
        for mono, coeff in self._terms.items():
            factors = []
            for var, exp in mono:
                try:
                    q = env[var]._terms
                except KeyError:
                    raise UnboundVariable(f"no substitution for {var}") from None
                factors.append(q)
                if exp == 2:
                    factors.append(q)
            if not all(factors):
                continue
            factors.sort(key=len)
            prod = factors[0] if factors else {_ONE: 1}
            for q in factors[1:]:
                prod = _mul_terms(prod, q)
            for m, c in prod.items():
                c = (acc.get(m, 0) + coeff * c) % 3
                if c:
                    acc[m] = c
                else:
                    del acc[m]
        return Poly._raw(acc)

    def specialize(self, var: Var, value: int) -> "Poly":
        """Partial evaluation of a single variable."""
        value %= 3
        acc: dict = {}
        for mono, coeff in self._terms.items():
            c = coeff
            rest = []
            for v, e in mono:
                if v == var:
                    c = c * (value if e == 1 else value * value) % 3
                else:
                    rest.append((v, e))
            if c:
                m = tuple(rest)
                cc = (acc.get(m, 0) + c) % 3
                if cc:
                    acc[m] = cc
                else:
                    acc.pop(m, None)
        return Poly._raw(acc)

    def evaluate(self, assignment: Mapping[Var, int]) -> int:
        total = 0
        for mono, coeff in self._terms.items():
            prod = coeff
            for var, exp in mono:
                try:
                    v = assignment[var]
                except KeyError:
                    raise UnboundVariable(f"no value for {var}") from None
                prod *= v if exp == 1 else v * v
                if not prod:
                    break
            total += prod
        return total % 3

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in self.terms():
            if not mono:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(_mono_str(mono))
            else:
                parts.append(f"{coeff}*{_mono_str(mono)}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<Poly {self}>"


def var(block: str, index: int) -> Poly:
    """Shorthand for the single-variable polynomial."""
    return Poly.variable(block, index)


def flatten_polys(polys: Sequence[Poly], var_order: Sequence[Var]):
    """Compile polynomials to the nested-list form the evaluator kernels take.

    Returns ``list[list[(coeff, (var_position, ...))]]`` where exponent 2 is
    encoded by repeating the position.  Raises UnboundVariable if a
    polynomial mentions a variable missing from ``var_order``.
    """
    position = {v: i for i, v in enumerate(var_order)}
    flat = []
    for p in polys:
        terms = []
        for mono, coeff in p.terms():
            codes = []
            for v, e in mono:
                if v not in position:
                    raise UnboundVariable(f"{v} not in evaluation order")
                codes.extend([position[v]] * e)
            terms.append((coeff, tuple(codes)))
        flat.append(terms)
    return flat
