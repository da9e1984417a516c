"""The loop's shape, read from here by every module: an element has N
coordinates, the tables read the first HEAD, the rest are a central tail.
Also the pure-Python scalar kernel and the table of swept laws.

`LoopKernel` evaluates one product, inverse or draw at a time; it is the
reference that `moufang3.kernel`'s bit-sliced sweeps are tested against.
Its product and inverse are compiled, one function per coordinate:
coordinate k of `mul` is `lambda x, y: (x[k] + y[k] + <terms>) % 3` and of
`inv` `lambda x: (-x[k] + <terms>) % 3`, a code c below HEAD read as
`x[c]` and any other as `y[c - HEAD]`.  A kernel compiles them on its
first product or inverse, so building one compiles nothing, and takes each
from a module cache keyed by (kind, k, terms) that keeps the CACHE_SIZE
most recently used: a table that differs from a cached one in one
coordinate compiles that coordinate alone.  The source is written only
from the exact ints `flat_terms` makes with `operator.index`, each
formatted by %d, so no table text and no `__str__` or `__format__` of an
int subclass reaches `compile`.
Its one per-trial primitive is `verdicts`, an endless stream of a law's
outcomes trial by trial; `sweep` is the fold of its first `trials` items.
It trusts its inputs: elements are N-tuples of GF(3) residues, checked
once where they enter the package (`loop.Loop`'s public methods and
`symbolic.embed`), never again here.  `LAWS` writes each swept law once,
over an ops object that provides `mul`, `inv`, `add` and `identity`: a
`LoopKernel` is itself such an object, `kernel` passes bit planes and
`symbolic.SymbolicLoop.prove_law` polynomial coordinates; `Law.place`
puts a trial's draw into the ops' `identity` for all three.  `IDENTITY_LAW`,
beside `LAWS`, is a `Law` proved but not swept.  `flat_terms` builds the
one flat format of a polynomial system that both interpreters of the tables
read, this scalar kernel and `kernel`'s bit planes, where `PolyEvaluator`
evaluates and counts such systems.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, islice
from operator import index
from typing import Callable, NamedTuple

from .errors import ZeroSeed

MASK64 = (1 << 64) - 1
RNG_MULTIPLIER = 2685821657736338717

N = 19      # coordinates of an element
HEAD = 10   # the leading coordinates, the only ones the tables read

_IDENTITY = (0,) * N


class Law(NamedTuple):
    """One swept identity: lhs(ops, *drawn) == rhs(ops, *drawn).

    `draws` are a trial's trit widths in order, N an element and N - HEAD a
    tail.  A law of two equations concatenates their sides.
    """

    description: str
    draws: tuple
    lhs: Callable
    rhs: Callable

    @property
    def trits(self):
        """Trits a trial reads."""
        return sum(self.draws)

    @property
    def heads(self):
        """Offsets in a trial's draw of the trits `place` puts on the head
        coordinates 1..HEAD: the first HEAD - (N - w) of a draw of w."""
        return tuple(o for w, end in zip(self.draws, accumulate(self.draws))
                     for o in range(end - w, end - N + HEAD))

    def place(self, identity, flat):
        """A trial's drawn elements: `flat` cut into parts of the widths
        `draws`, each filling the last coordinates of `identity`."""
        return [identity[:len(identity) - w] + tuple(flat[end - w:end])
                for w, end in zip(self.draws, accumulate(self.draws))]


def _both_products_with_inverse(k, x):
    w = k.inv(x)
    return k.mul(x, w) + k.mul(w, x)


LAWS = {
    "moufang": Law("(x*y)*(z*x) = (x*(y*z))*x", (N, N, N),
                   lambda k, x, y, z: k.mul(k.mul(x, y), k.mul(z, x)),
                   lambda k, x, y, z: k.mul(k.mul(x, k.mul(y, z)), x)),
    "left_alternative": Law("(x*x)*y = x*(x*y)", (N, N),
                            lambda k, x, y: k.mul(k.mul(x, x), y),
                            lambda k, x, y: k.mul(x, k.mul(x, y))),
    "right_alternative": Law("(y*x)*x = y*(x*x)", (N, N),
                             lambda k, x, y: k.mul(k.mul(y, x), x),
                             lambda k, x, y: k.mul(y, k.mul(x, x))),
    "flexible": Law("(x*y)*x = x*(y*x)", (N, N),
                    lambda k, x, y: k.mul(k.mul(x, y), x),
                    lambda k, x, y: k.mul(x, k.mul(y, x))),
    "inverse": Law("x*x^-1 = x^-1*x = 1", (N,), _both_products_with_inverse,
                   lambda k, x: k.identity + k.identity),
    "tail_central": Law("z supported on 11..19 implies x*z = z*x = x+z",
                        (N, N - HEAD),
                        lambda k, x, z: k.mul(x, z) + k.mul(z, x),
                        lambda k, x, z: k.add(x, z) + k.add(x, z)),
}

SWEEP_NAMES = tuple(LAWS)

IDENTITY_LAW = Law("1*x = x*1 = x", (N,),
                   lambda k, x: k.mul(k.identity, x) + k.mul(x, k.identity),
                   lambda k, x: x + x)


def sweep_law(name):
    """`LAWS[name]`; ValueError naming the choices for an unknown name."""
    if name not in LAWS:
        raise ValueError(f"unknown sweep {name!r}; choose from {SWEEP_NAMES}")
    return LAWS[name]


def _check_seed(seed):
    if not isinstance(seed, int) or not 0 <= seed <= MASK64:
        raise ValueError("rng state must be a 64-bit unsigned integer")
    # xorshift state 0 never leaves 0: every draw would be the identity
    if seed == 0:
        raise ZeroSeed("rng state must be nonzero")


def _check_sweep(names, seed, trials):
    """The one check of a sweep's arguments, made before anything is drawn."""
    if not names:
        raise ValueError("no sweep names given")
    for name in names:
        sweep_law(name)
    if len(set(names)) < len(names):
        raise ValueError(f"duplicate sweep names in {names}")
    _check_seed(seed)
    if type(trials) is not int:
        raise ValueError(f"trials must be an int, not {trials!r}")
    if trials < 0:
        raise ValueError("trials must be >= 0")


def flat_terms(flat, n, prefix=""):
    """Per polynomial a tuple of (coeff, codes) terms, coeff in {1, 2} and
    codes in range(n), a code repeated for a square.

    Every coefficient and code becomes an exact int first, by
    `operator.index`, so a float or a str is refused; then the codes are
    range-checked, so a zero term with a bad code is refused too; then
    coefficients are reduced mod 3 and zero terms dropped.
    """
    out = []
    for terms in flat:
        try:
            terms = [(index(coeff), tuple(map(index, codes)))
                     for coeff, codes in terms]
        except TypeError as e:
            raise ValueError(f"{prefix}term: {e}") from None
        if any(not 0 <= c < n for _, codes in terms for c in codes):
            raise ValueError(prefix + "factor code out of range")
        out.append(tuple((coeff % 3, codes) for coeff, codes in terms
                         if coeff % 3))
    return out


def _factor(c):
    return "x[%d]" % c if c < HEAD else "y[%d]" % (c - HEAD)


def _source(kind, k, terms):
    """Source of coordinate k of the product (kind "mul") or of the raw
    inverse ("inv"), one `flat_terms` term a summand; every number in it
    is formatted by %d."""
    if kind == "mul":
        head = "lambda x, y: (x[%d] + y[%d]" % (k, k)
    else:
        head = "lambda x: (-x[%d]" % k
    return head + "".join(
        " + " + "*".join(["%d" % coeff] + [_factor(c) for c in codes])
        for coeff, codes in terms) + ") % 3"


CACHE_SIZE = 128
_COMPILED = {}  # (kind, k, terms) -> function, least recently used first


def _coordinate(kind, k, terms):
    """The compiled coordinate k of `kind` (see `_source`), from the cache."""
    key = kind, k, terms
    fn = _COMPILED.pop(key, None)
    if fn is None:
        code = compile(_source(kind, k, terms), f"<{kind} {k + 1}>", "eval")
        fn = eval(code, {"__builtins__": {}})
        if len(_COMPILED) >= CACHE_SIZE:
            del _COMPILED[next(iter(_COMPILED))]
    _COMPILED[key] = fn
    return fn


def vec_add(x, y):
    """Coordinatewise sum; vector-space structure, not the loop product."""
    return tuple((a + b) % 3 for a, b in zip(x, y))


def _trits(state, count):
    """`count` xorshift-star outputs mod 3; returns (trits, new state)."""
    s = state
    coords = []
    for _ in range(count):
        s ^= s >> 12
        s = (s ^ (s << 25)) & MASK64
        s ^= s >> 27
        coords.append(((s * RNG_MULTIPLIER) & MASK64) % 3)
    return tuple(coords), s


class LoopKernel:
    """The tables' product and inverse; also the ops `LAWS` reads on elements."""

    add = staticmethod(vec_add)
    identity = _IDENTITY

    def __init__(self, f_flat, h_flat):
        self._f = flat_terms(f_flat, 2 * HEAD, "f-table ")
        self._h = flat_terms(h_flat, HEAD, "h-table ")

    @cached_property
    def _mul(self):
        return [_coordinate("mul", k, t) for k, t in enumerate(self._f)]

    @cached_property
    def _inv(self):
        return [_coordinate("inv", k, t) for k, t in enumerate(self._h)]

    def __reduce__(self):
        # the compiled coordinates are lambdas; rebuild them from the terms
        return type(self), (self._f, self._h)

    def mul(self, x, y):
        return tuple([g(x, y) for g in self._mul])

    def inv(self, x):
        """Raw inverse -x + h(x); `loop.Loop.inverse` self-checks it."""
        return tuple([g(x) for g in self._inv])

    # -- deterministic randomness ------------------------------------------

    def random_element(self, state):
        """Draw N trits from xorshift-star; returns (element, new state)."""
        return _trits(state, N)

    # -- randomized identity sweeps ------------------------------------------

    def verdicts(self, name, seed):
        """Each trial of a named sweep of `LAWS`, endlessly: its drawn
        elements when the law fails on them, None when it holds.

        A trial draws its law's `trits` from the running state, an element
        as random_element draws it, and places them (`Law.place`).  The
        name and seed are checked at the call, not at the first draw.
        """
        _check_sweep((name,), seed, 0)
        return self._verdicts(LAWS[name], seed)

    def _verdicts(self, law, s):
        while True:
            trits, s = _trits(s, law.trits)
            drawn = law.place(self.identity, trits)
            holds = law.lhs(self, *drawn) == law.rhs(self, *drawn)
            yield None if holds else tuple(drawn)

    def sweep(self, name, seed, trials):
        """The fold of the first `trials` items of `verdicts(name, seed)`:
        (violations, first failing trial or -1, its drawn elements or None).
        """
        _check_sweep((name,), seed, trials)
        violations, first, witness = 0, -1, None
        for i, drawn in enumerate(islice(self._verdicts(LAWS[name], seed),
                                         trials)):
            if drawn is not None:
                violations += 1
                if first < 0:
                    first, witness = i, drawn
        return violations, first, witness
