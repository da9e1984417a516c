"""The loop's shape, read from here by every module: an element has N
coordinates, the tables read the first HEAD, the rest are a central tail.
Also the pure-Python scalar kernel and the table of swept laws.

`LoopKernel` evaluates one product, inverse or draw at a time; it is the
reference that `moufang3.kernel`'s bit-sliced sweeps are tested against.
Its product and inverse run in two tiers.  A kernel interprets its flat
terms (`term_sums`) for its first PROMOTE_AT calls of `mul` and `inv`
together, so building one, a short process and a table variant checked a
few times compile nothing.  At call PROMOTE_AT it compiles its whole table
into one `mul` and one `inv` (`_source`) and binds them on the instance,
where every later call finds them with no dispatch or count; a caller that
bound the method before then goes on interpreting, with the same results,
and a copy is rebuilt from the terms (`__reduce__`) and starts interpreted.
Each generated function unpacks its arguments into locals x0.., y0.. and
returns one sum mod 3 per coordinate, `(x4 + y4 + 2*x1*y0) % 3` or
`(-x4 + 2*x0*x1) % 3`, with a code c below HEAD read as x<c> and any other
as y<c - HEAD>.  Terms that share a leading factor are summed inside it,
and every sum is written in parenthesised groups of at most SUM_WIDTH
summands, so a coordinate of thousands of terms compiles on every Python.
The source is written only from the exact ints `flat_terms` makes with
`operator.index`, each formatted by %d, so no table text and no `__str__`
or `__format__` of an int subclass reaches `compile`.  On the shipped
tables (2-CPU host, Python 3.11.7) a product takes 12-13 us interpreted
and 2.2-2.6 us compiled, an inverse 6.0-6.6 and 1.1-1.3 us, and compiling
both takes 0.6-1.3 ms: the break-even is 60-140 products, or about twice
as many inverses, and PROMOTE_AT sits above it so that a 20-sample
`density` (180 calls) and every `audit` variant interpret.
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
one flat format of a polynomial system, and each representation has one
reader of it: `term_sums` for scalars, read by this kernel's first tier and
by `kernel.PolyEvaluator.eval_at`; `kernel._poly` for bit planes; and
`_source` for compiled code.
"""

from __future__ import annotations

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


def term_sums(system, v):
    """Each polynomial of the flat `system` (see `flat_terms`) at the point
    `v`, unreduced: the sum of its terms, each its coefficient times the
    values at its codes, a product left as soon as it is zero."""
    out = []
    for terms in system:
        acc = 0
        for coeff, codes in terms:
            p = coeff
            for c in codes:
                p *= v[c]
                if not p:
                    break
            acc += p
        out.append(acc)
    return out


PROMOTE_AT = 200   # calls of mul and inv a kernel interprets (see above)
SUM_WIDTH = 64     # summands in one parenthesised group of a generated sum


def _factor(c):
    return "x%d" % c if c < HEAD else "y%d" % (c - HEAD)


def _product(coeff, codes):
    """coeff times the factors `codes`, a coefficient of 1 left out."""
    factors = [_factor(c) for c in codes]
    if coeff == 1 and factors:
        return "*".join(factors)
    return "*".join(["%d" % coeff] + factors)


def _sum(parts):
    """`parts` joined by +, as groups of at most SUM_WIDTH in parentheses,
    nested as deep as needed: the compiler walks a chain of + recursively."""
    while len(parts) > SUM_WIDTH:
        parts = ["(%s)" % " + ".join(parts[i:i + SUM_WIDTH])
                 for i in range(0, len(parts), SUM_WIDTH)]
    return " + ".join(parts)


def _summands(terms):
    """One coordinate's terms as summands, grouped by their leading factor:
    the terms 2*x1*y0 and 1*x1*x2*y3 become x1*(2*y0 + x2*y3)."""
    groups = {}
    for coeff, codes in terms:
        groups.setdefault(codes[:1], []).append((coeff, codes[1:]))
    out = []
    for lead, rest in groups.items():
        if lead and len(rest) > 1:
            out.append(_factor(lead[0]) + "*(%s)"
                       % _sum([_product(*t) for t in rest]))
        else:
            out += [_product(coeff, lead + codes) for coeff, codes in rest]
    return out


def _source(f, h):
    """Source of `mul` and of the raw `inv` for the flat tables f and h:
    each unpacks its arguments into locals x0.., y0.. and returns one sum
    mod 3 per coordinate.  Every number in it is formatted by %d."""
    xs, ys = (", ".join(v + "%d" % k for k in range(N)) for v in "xy")
    mul = ["(%s) %% 3" % _sum(["x%d" % k, "y%d" % k] + _summands(t))
           for k, t in enumerate(f)]
    inv = ["(%s) %% 3" % _sum(["-x%d" % k] + _summands(t))
           for k, t in enumerate(h)]
    return ("def mul(x, y):\n    %s = x\n    %s = y\n    return (%s,)\n"
            "def inv(x):\n    %s = x\n    return (%s,)\n"
            % (xs, ys, ", ".join(mul), xs, ", ".join(inv)))


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
        self._calls = 0

    def __reduce__(self):
        # a promoted kernel holds generated functions; a copy rebuilds from
        # the terms and starts interpreted
        return type(self), (self._f, self._h)

    def _promote(self):
        """Compile the whole table and bind `mul` and `inv` on the instance,
        so later calls skip the interpreter and its count."""
        space = {"__builtins__": {}}
        exec(compile(_source(self._f, self._h), "<loop kernel>", "exec"),
             space)
        self.mul, self.inv = space["mul"], space["inv"]

    def mul(self, x, y):
        self._calls += 1
        if self._calls == PROMOTE_AT:
            self._promote()
        return tuple([(a + b + t) % 3 for a, b, t
                      in zip(x, y, term_sums(self._f, x[:HEAD] + y[:HEAD]))])

    def inv(self, x):
        """Raw inverse -x + h(x); `loop.Loop.inverse` self-checks it."""
        self._calls += 1
        if self._calls == PROMOTE_AT:
            self._promote()
        return tuple([(t - a) % 3 for a, t in zip(x, term_sums(self._h, x))])

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
