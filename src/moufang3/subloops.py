"""Closure computation, the associate sets l_{a,b}, and the witness that
they need not be subloops.

l_{a,b} = { x : (x, a, b) = 1 } is the set of elements associating with a
fixed pair.  The headline facts verified here: the generators a=e1, b=e2
both lie in l_{c,d} (c=e3, d=e4), yet their commutator [a,b] = e5 does
not -- so l_{c,d} is not closed under multiplication -- and all four triple
associators of {a,b,c,d} vanish even though the loop is nonassociative.

Counting is exact: the associator (x, a, b) only depends on x_1..x_10
(the tables never read an index above 10), so |l_{a,b}| is the number of
the 3^10 heads at which it vanishes, times 3^9 free tail extensions.  The
count is computed twice, and the two must agree: `count_l_set` evaluates
the symbolic associator variety at all 3^10 heads at once, one bit-plane
lane per head (`kernel.PolyEvaluator`), and `brute_count_l_set` enumerates
the heads one by one through the concrete associator, never touching
polynomial machinery.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, NamedTuple

from . import kernel
from ._native import HEAD, N
from .errors import TailCentralityBroken, WitnessFailed
from .loop import (Element, Loop, basis, check_element, default_loop,
                   format_element, identity)
from .polys import Var, flatten_polys
from .symbolic import SymbolicLoop

if TYPE_CHECKING:
    from fractions import Fraction

HEAD_TOTAL = 3 ** HEAD    # 59049
TAIL_FREEDOM = 3 ** (N - HEAD)
RECHECK_LIMIT = 5_000     # closures up to this size are re-checked by is_closed

# the four triples of the generating set {a, b, c, d} = {e1, e2, e3, e4}
GENERATOR_TRIPLES = (("(a,b,c)", (1, 2, 3)), ("(a,b,d)", (1, 2, 4)),
                     ("(a,c,d)", (1, 3, 4)), ("(b,c,d)", (2, 3, 4)))


class ClosureResult(NamedTuple):
    """Saturation of a generator set under product and inverse."""

    elements: frozenset
    generators: tuple
    closed: bool | None      # None when truncated (closedness unreported)
    truncated: bool

    @property
    def order(self) -> int:
        return len(self.elements)

    def support(self) -> tuple:
        coords = set()
        for e in self.elements:
            coords.update(i for i, v in enumerate(e, start=1) if v)
        return tuple(sorted(coords))


def closure(loop: Loop, generators, cap: int = 10_000_000) -> ClosureResult:
    """Smallest subset containing the generators and the identity, closed
    under mul and inverse, by worklist saturation.

    Stops (truncated=True) at the first added element that makes the set
    exceed `cap`, so a truncated result holds exactly cap + 1 elements.
    For results up to RECHECK_LIMIT elements the closure is re-verified
    post hoc with the full double loop of is_closed.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    gens = tuple(map(check_element, generators))
    # insertion-ordered, so the iteration order is reproducible
    members = dict.fromkeys([identity()])
    work = []

    def add(e):
        """Add e; True once the set exceeds cap."""
        if e not in members:
            members[e] = None
            work.append(e)
        return len(members) > cap

    truncated = any(map(add, gens))
    while work and not truncated:
        u = work.pop()
        truncated = add(loop.inverse(u)) or any(
            add(p) for v in list(members)
            for p in (loop.mul(u, v), loop.mul(v, u)))

    closed: bool | None
    if truncated:
        closed = None
    elif len(members) <= RECHECK_LIMIT:
        closed = is_closed(loop, members)
    else:
        closed = True   # guaranteed by saturation; double loop too large
    return ClosureResult(frozenset(members), gens, closed, truncated)


def is_closed(loop: Loop, elements) -> bool:
    """Full double-loop check: contains identity, closed under mul and inverse."""
    elems = set(tuple(e) for e in elements)
    if identity() not in elems:
        return False
    for u in elems:
        if loop.inverse(u) not in elems:
            return False
        for v in elems:
            if loop.mul(u, v) not in elems:
                return False
    return True


def in_l_set(loop: Loop, x: Element, a: Element, b: Element) -> bool:
    """Membership in l_{a,b}: does x associate with (a, b)?"""
    return loop.associator(x, a, b) == identity()


class LSetCount(NamedTuple):
    """Exact size of an associate set l_{a,b}."""

    pair: tuple
    head_count: int          # zeros of the associator over the 3^10 heads
    head_total: int

    @property
    def density(self) -> Fraction:
        from fractions import Fraction  # only here: `verify` never needs it
        return Fraction(self.head_count, self.head_total)

    @property
    def full_count(self) -> int:
        # every head extends freely in the 9 central tail coordinates
        return self.head_count * TAIL_FREEDOM


def count_l_set(loop: Loop, a: Element, b: Element,
                symbolic: SymbolicLoop | None = None) -> LSetCount:
    """Exact |l_{a,b}| via the symbolic associator variety.

    Builds the 19 associator coordinate polynomials once, checks they only
    read x_1..x_10, and counts their common zeros over all 3^10 heads,
    each polynomial evaluated once on bit planes of one lane per head.
    A given `symbolic` must be built on `loop`.
    """
    sym = symbolic if symbolic is not None else SymbolicLoop(loop)
    if sym.loop is not loop:
        raise ValueError("the symbolic loop is not built on this loop")
    variety = sym.associator_variety(a, b)
    head_vars = [Var("x", i) for i in range(1, HEAD + 1)]
    allowed = set(head_vars)
    for k, p in enumerate(variety, start=1):
        stray = p.variables() - allowed
        if stray:
            raise TailCentralityBroken(
                f"associator coordinate {k} reads {sorted(map(str, stray))}; "
                "centrality of the tail is broken")
    ev = kernel.PolyEvaluator(flatten_polys(variety, head_vars), HEAD)
    return LSetCount((tuple(a), tuple(b)), ev.count_all_zero(), HEAD_TOTAL)


def brute_count_l_set(loop: Loop, a: Element, b: Element) -> LSetCount:
    """Independent oracle: enumerate the 3^10 heads through the concrete
    associator only -- no polynomial machinery anywhere on this path."""
    tail = identity()[HEAD:]
    count = 0
    for head in product((0, 1, 2), repeat=HEAD):
        if loop.associator(head + tail, a, b) == identity():
            count += 1
    return LSetCount((tuple(a), tuple(b)), count, HEAD_TOTAL)


class DensityEstimate(NamedTuple):
    """Seeded sampling estimate of the density of l_{a,b}."""

    pair: tuple
    hits: int
    trials: int
    seed: int

    @property
    def density(self) -> float:
        return self.hits / self.trials


def density_sample(loop: Loop, a: Element, b: Element,
                   seed: int = 42, trials: int = 100_000) -> DensityEstimate:
    """Fraction of seeded-random x lying in l_{a,b}."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    state = seed
    hits = 0
    for _ in range(trials):
        x, state = loop.random_element(state)
        if in_l_set(loop, x, a, b):
            hits += 1
    return DensityEstimate((tuple(a), tuple(b)), hits, trials, seed)


class Witness(NamedTuple):
    """The verified witness that l_{c,d} is not a subloop.

    Also records that every triple from the generating set {a,b,c,d}
    associates, so the loop is a nonassociative loop with a generating set
    whose every three elements associate.
    """

    generators: tuple                  # (a, b, c, d)
    members: tuple                     # (a, b): both in l_{c,d}
    violating_element: Element         # [a, b]
    violating_associator: Element      # ([a,b], c, d) != identity
    generator_triples: tuple           # ((label, value), ...) all identity

    def as_json(self) -> dict:
        return {
            "generators": [format_element(g) for g in self.generators],
            "members_of_l_cd": [format_element(m) for m in self.members],
            "violating_element": format_element(self.violating_element),
            "violating_associator": format_element(self.violating_associator),
            "generator_triples": {label: format_element(v)
                                  for label, v in self.generator_triples},
        }


def generator_associators(loop: Loop) -> tuple:
    """((label, associator), ...) over GENERATOR_TRIPLES."""
    return tuple((label, loop.associator(*map(basis, coords)))
                 for label, coords in GENERATOR_TRIPLES)


def nonsubloop_witness(loop: Loop | None = None) -> Witness:
    """Verify the full witness chain; raises WitnessFailed if any part fails.

    Checks, in order: the four generator-triple associators vanish; a and b
    lie in l_{c,d}; their commutator [a,b] = e5 does not, with associator
    value e19 != identity.
    """
    lp = loop if loop is not None else default_loop()
    a, b, c, d = basis(1), basis(2), basis(3), basis(4)
    triples = generator_associators(lp)
    for label, value in triples:
        if value != identity():
            raise WitnessFailed(f"generator triple {label} = "
                                f"{format_element(value)}, expected identity")
    if not in_l_set(lp, a, c, d):
        raise WitnessFailed("a is not in l_{c,d}")
    if not in_l_set(lp, b, c, d):
        raise WitnessFailed("b is not in l_{c,d}")
    ab = lp.commutator(a, b)
    value = lp.associator(ab, c, d)
    if value == identity():
        raise WitnessFailed("[a,b] unexpectedly lies in l_{c,d}")
    return Witness((a, b, c, d), (a, b), ab, value, triples)
