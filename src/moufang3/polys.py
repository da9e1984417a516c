"""Sparse multivariate polynomials over GF(3) with the reduction x^3 = x.

Per-variable exponents are capped at 2 by reducing e -> e - 2 while e >= 3
(x^3 = x, hence x^4 = x^2).  Under this reduction the representation is
canonical: two polynomials are structurally equal exactly when they agree as
functions F_3^n -> F_3.  That is what turns "all difference coordinates are
the zero polynomial" into a complete proof over every concrete assignment.

Variables live in four disjoint blocks named "x", "y", "z" and "t"; a
variable is a (block, index) pair with index in 1..19.  In the public API a
monomial is a tuple of (Var, exponent) pairs sorted by variable, exponents
in {1, 2}.  A polynomial maps monomials to nonzero coefficients in {1, 2};
the zero polynomial is the empty mapping.

Inside a Poly a monomial is a packed int, the key of its term dict.  Each
of the 76 variables owns a 2-bit exponent field; the variables are numbered
in their sort order t1..t19, x1..x19, y1..y19, z1..z19, and variable r sits
at bits 2 * (75 - r) and 2 * (75 - r) + 1, so the first variable holds the
most significant field and a key has at most 152 bits.  A field reads 00
for an absent variable, 01 for x and 11 for x^2; LOW has the low bit of
every field set, so key & LOW is the set of variables a monomial reads.
Then:

- two keys share a variable exactly when a & b != 0; if they share none
  their product is a | b;
- in general, with both = a & b & LOW, the product is
  a ^ b ^ (both << 1) | both.  A shared field gets its low bit back from
  `both` and its high bit from ~(a ^ b): equal exponents give x^2
  (x * x = x^2, x^2 * x^2 = x^4 = x^2), unequal ones x (x * x^2 = x^3 =
  x), which is the reduction x^3 = x with no carry between fields;
- the degree is key.bit_count(), one bit for x and two for x^2;
- the public order of terms, by degree and then by the factor tuple, is
  within one degree the descending order of key ^ ((key & LOW) << 1),
  which maps the fields x, x^2 and absent to 3, 1 and 0: at the first
  variable where two monomials of equal degree differ, x sorts before x^2
  and both before an absent factor, since the monomial without that
  variable must read a later one to make up the degree.

Monomials are encoded where they enter (`Poly(mapping)`, `from_terms`,
`coefficient`), which rejects a variable outside the four blocks or the
indices 1..19 with ValueError, accepts the factors in any order, merges a
repeated variable and reduces exponents by x^3 = x; a table line enters as
the OR of its factors' `field_bit`s (`from_keys`).  They are decoded where
they leave (`terms`, `__str__`, and `flatten_polys`, which writes the one
flat format that both kernel interpreters read) through a memo of the
decoded keys.  `substitute`, `evaluate`, `specialize` and
`variables` work on the keys and take or return Var objects only.

Substitution is the hot path of the symbolic proofs, so it works on the raw
term dicts and builds no Poly until its result.  Its `Env` has sorted the
values into zero, one-term and longer, once for all the coordinates of a
symbolic product; an unbound variable raises even behind a zero factor.
It skips each monomial with a factor that is the zero polynomial,
folds the one-term factors into a single term and multiplies the longer
factors onto it smallest first, through `_mul_terms`, the product
`Poly.__mul__` uses.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Iterable, Mapping, NamedTuple, Sequence

from ._native import N as MAX_INDEX
from .errors import UnboundVariable

BLOCKS = ("x", "y", "z", "t")


class Var(NamedTuple):
    """A variable, totally ordered by (block, index) tuple comparison."""

    block: str
    index: int

    def __str__(self):
        return f"{self.block}{self.index}"


Monomial = tuple  # tuple[tuple[Var, int], ...], sorted by Var

# -- packed monomials ------------------------------------------------------------

_SORTED_VARS = [Var(b, i) for b in sorted(BLOCKS) for i in range(1, MAX_INDEX + 1)]
_TOP = 2 * (len(_SORTED_VARS) - 1)
_OFFSET = {v: _TOP - 2 * r for r, v in enumerate(_SORTED_VARS)}  # Var -> bit
_VAR_AT = {off: v for v, off in _OFFSET.items()}
# per-variable objects that the memo entries below share rather than copy
_BIT_AT = {off: 1 << off for off in _VAR_AT}
_FACTORS_AT = {off: ((v, 1), (v, 2)) for off, v in _VAR_AT.items()}
LOW = sum(1 << off for off in _VAR_AT)     # the low bit of every field

_ONE = 0  # the empty monomial


def _var_error(v) -> ValueError:
    block, index = v
    if block not in BLOCKS:
        return ValueError(f"unknown variable block {block!r}")
    return ValueError(f"variable index {index} outside 1..{MAX_INDEX}")


def field_bit(block: str, index: int) -> int:
    """The low bit of variable (block, index)'s field: a monomial of
    distinct variables, each to the first power, is the OR of their bits."""
    off = _OFFSET.get((block, index))
    if off is None:
        raise _var_error((block, index))
    return 1 << off


def _encode(mono: Monomial) -> int:
    """Pack a (Var, exponent) tuple in any order, merging repeated factors
    and reducing exponents by x^3 = x: an odd exponent is x, an even x^2."""
    key = _ONE
    for v, e in mono:
        off = _OFFSET.get(v)
        if off is None:
            raise _var_error(v)
        if not isinstance(e, int) or e < 1:
            raise ValueError(f"exponent {e!r} of {v} is not a positive int")
        field = key >> off & 3
        if field:
            e += field // 2 + 1     # the field holds 1 for x, 3 for x^2
            key ^= field << off
        key |= (1 if e % 2 else 3) << off
    return key


def _fields(occ: int):
    """The offsets of the set bits of a LOW-masked int, high to low, i.e.
    in variable order."""
    while occ:
        off = occ.bit_length() - 1
        yield off
        occ ^= 1 << off


class _Memo(dict):
    """fn memoised in a dict that is emptied when it reaches `size` entries,
    so a long run over fresh tables keeps its memory flat; read it by
    subscription, which costs no call on a hit."""

    def __init__(self, fn, size=1 << 9):
        super().__init__()
        self.fn, self.size = fn, size

    def __missing__(self, key):
        if len(self) >= self.size:
            self.clear()
        value = self[key] = self.fn(key)
        return value


@_Memo
def _DECODED(key: int) -> Monomial:
    """The tuple monomial of a key."""
    return tuple(_FACTORS_AT[off][key >> off + 1 & 1]
                 for off in _fields(key & LOW))


@_Memo
def _FACTOR_BITS(key: int) -> tuple:
    """The low field bit of each factor of a key, twice for exponent 2."""
    return tuple(_BIT_AT[off] for off in _fields(key & LOW)
                 for _ in range(1 + (key >> off + 1 & 1)))


def _order(key: int):
    # graded order: degree first, then lexicographic on the factor tuple
    return (key.bit_count(), -(key ^ (key & LOW) << 1))


def _mono_str(m: Monomial) -> str:
    return "*".join(str(v) if e == 1 else f"{v}^2" for v, e in m)


def _mul_terms(a: dict, b: dict) -> dict:
    """The product of two canonical term dicts, as a new canonical dict."""
    if len(a) > len(b):
        a, b = b, a
    acc: dict = {}
    get = acc.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            both = m1 & m2
            if both:
                both &= LOW
                m = m1 ^ m2 ^ both << 1 | both
            else:
                m = m1 | m2
            c = (get(m, 0) + c1 * c2) % 3
            if c:
                acc[m] = c
            else:
                # c1 * c2 is a unit, so a zero sum means m was present
                del acc[m]
    return acc


def _collect(terms: Iterable[tuple[int, int]]) -> dict:
    """The canonical term dict of (coefficient, key) pairs."""
    acc: dict = {}
    for coeff, key in terms:
        c = (acc.get(key, 0) + coeff) % 3
        if c:
            acc[key] = c
        else:
            acc.pop(key, None)
    return acc


class Poly:
    """Immutable sparse polynomial over GF(3) in canonical reduced form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        _set_terms(self, _collect((coeff, _encode(mono))
                                  for mono, coeff in (terms or {}).items()))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through _raw, not the refused __setattr__
        return Poly._raw, (dict(self._terms),)

    @classmethod
    def _raw(cls, terms: dict) -> "Poly":
        # trusted constructor: packed keys, no zero coefficients
        p = object.__new__(cls)
        _set_terms(p, terms)
        return p

    @classmethod
    def zero(cls) -> "Poly":
        return cls._raw({})

    @classmethod
    def constant(cls, c: int) -> "Poly":
        c %= 3
        return cls._raw({_ONE: c} if c else {})

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, Monomial]]) -> "Poly":
        return cls._raw(_collect((c, _encode(m)) for c, m in terms))

    @classmethod
    def from_keys(cls, terms: Iterable[tuple[int, int]]) -> "Poly":
        """The sum of (coefficient, key) terms; a key ORs `field_bit`s."""
        return cls._raw(_collect(terms))

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def term_count(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(map(int.bit_count, self._terms))

    def terms(self):
        """Iterate (monomial, coefficient) pairs in canonical term order."""
        return ((_DECODED[m], self._terms[m])
                for m in sorted(self._terms, key=_order))

    def variables(self) -> set:
        return {_VAR_AT[off] for off in _fields(reduce(or_, self._terms, 0) & LOW)}

    def coefficient(self, mono: Monomial) -> int:
        return self._terms.get(_encode(mono), 0)

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        big, small = self._terms, other._terms
        if not small:
            return self      # immutable, so the sum may share its operand
        if not big:
            return other
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
        A plain mapping is made an `Env` of the variables read, per call.
        """
        terms = self._terms
        if not terms:
            return self
        reads = reduce(or_, terms) & LOW
        if not isinstance(env, Env):
            wanted = map(_VAR_AT.__getitem__, _fields(reads))
            env = Env((v, env[v]) for v in wanted if v in env)
        bound, zero, one, many = env.kinds
        if reads & ~bound:
            # unbound, even where a zero factor would cancel its monomials
            v = _VAR_AT[(reads & ~bound).bit_length() - 1]
            raise UnboundVariable(f"no substitution for {v}")
        acc: dict = {}
        get = acc.get
        for mono, coeff in terms.items():
            if mono & zero:
                continue
            # the one-term factors fold into one term, key with coefficient
            # c; the longer ones then multiply onto it, smallest first
            key, c, factors = _ONE, coeff, []
            for bit in _FACTOR_BITS[mono]:
                if bit in many:
                    factors.append(many[bit])
                    continue
                m, d = one[bit]
                both = key & m
                if both:
                    both &= LOW
                    key = key ^ m ^ both << 1 | both
                else:
                    key |= m
                c *= d
            if not factors:
                c = (get(key, 0) + c) % 3
                if c:
                    acc[key] = c
                else:
                    del acc[key]
                continue
            factors.sort(key=len)
            prod = factors[0]
            if key:
                prod = _mul_terms({key: 1}, prod)
            for q in factors[1:]:
                prod = _mul_terms(prod, q)
            for m, d in prod.items():
                d = (get(m, 0) + c * d) % 3
                if d:
                    acc[m] = d
                else:
                    del acc[m]
        return Poly._raw(acc)

    def specialize(self, var: Var, value: int) -> "Poly":
        """Partial evaluation of a single variable."""
        off = _OFFSET.get(var)
        if off is None:
            return self   # a variable no Poly can hold
        value %= 3
        power = {1: value, 3: value * value % 3}   # field value -> x^e
        acc: dict = {}
        for mono, coeff in self._terms.items():
            field = mono >> off & 3
            if field:
                coeff = coeff * power[field] % 3
                if not coeff:
                    continue
                mono ^= field << off
            c = (acc.get(mono, 0) + coeff) % 3
            if c:
                acc[mono] = c
            else:
                del acc[mono]
        return Poly._raw(acc)

    def evaluate(self, assignment: Mapping[Var, int]) -> int:
        terms = self._terms
        zero = two = 0      # the low field bits of the variables at 0 and 2
        for off in _fields(reduce(or_, terms, 0) & LOW):
            try:
                t = assignment[_VAR_AT[off]] % 3
            except KeyError:
                raise UnboundVariable(f"no value for {_VAR_AT[off]}") from None
            if t == 0:
                zero |= 1 << off
            elif t == 2:
                two |= 1 << off
        total = 0
        for mono, coeff in terms.items():
            if not mono & zero:
                # 2 = -1 and 2^2 = 1: one sign flip per exponent-1 factor at 2
                if ((mono ^ mono >> 1) & two).bit_count() % 2:
                    coeff = -coeff
                total += coeff
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


_set_terms = Poly._terms.__set__   # the slot's setter, past __setattr__


class Env(dict):
    """Var -> Poly for many `Poly.substitute` calls, its values sorted once,
    by field bit, into `kinds`: zero, one term (bit -> (key, coeff)) or
    longer (bit -> terms).  Later changes are not sorted; every key must be
    a variable a Poly can hold."""

    __slots__ = ("kinds",)

    def __init__(self, bindings=()):
        super().__init__(bindings)
        bound = zero = 0
        one, many = {}, {}
        for v, q in self.items():
            bit, q = 1 << _OFFSET[v], q._terms
            bound |= bit
            if not q:
                zero |= bit
            elif len(q) == 1:
                [one[bit]] = q.items()
            else:
                many[bit] = q
        self.kinds = bound, zero, one, many


def var(block: str, index: int) -> Poly:
    """The single-variable polynomial block_index."""
    return Poly._raw({field_bit(block, index): 1})


def flatten_polys(polys: Sequence[Poly], var_order: Sequence[Var]):
    """Compile polynomials to the one flat format the kernels read (see
    `_native.flat_terms`).

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
