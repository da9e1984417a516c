"""Pure-Python scalar kernel and the table of swept laws.

`LoopKernel` evaluates one product, inverse or draw at a time; it is the
reference that `moufang3._batch`'s bit-sliced sweeps are tested against.
It trusts its inputs: elements are 19-tuples of GF(3) residues, checked
once where they enter the package (`loop.Loop`'s public methods and
`symbolic.embed`), never again here.  `LAWS` writes each swept law once,
over an ops object that provides `mul`, `inv`, `add` and `identity`: a
`LoopKernel` is itself such an object, `_batch` passes bit planes and
`symbolic.SymbolicLoop.prove_law` polynomial coordinates.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

MASK64 = (1 << 64) - 1
RNG_MULTIPLIER = 2685821657736338717

_IDENTITY = (0,) * 19


class Law(NamedTuple):
    """One swept identity: lhs(ops, *drawn) == rhs(ops, *drawn).

    `layout` is what a trial draws, in order: "e" a 19-trit element, "t" a
    tail on coordinates 11..19.  A law of two equations concatenates their
    sides.
    """

    description: str
    layout: str
    lhs: Callable
    rhs: Callable


def _both_products_with_inverse(k, x):
    w = k.inv(x)
    return k.mul(x, w) + k.mul(w, x)


LAWS = {
    "moufang": Law("(x*y)*(z*x) = (x*(y*z))*x", "eee",
                   lambda k, x, y, z: k.mul(k.mul(x, y), k.mul(z, x)),
                   lambda k, x, y, z: k.mul(k.mul(x, k.mul(y, z)), x)),
    "left_alternative": Law("(x*x)*y = x*(x*y)", "ee",
                            lambda k, x, y: k.mul(k.mul(x, x), y),
                            lambda k, x, y: k.mul(x, k.mul(x, y))),
    "right_alternative": Law("(y*x)*x = y*(x*x)", "ee",
                             lambda k, x, y: k.mul(k.mul(y, x), x),
                             lambda k, x, y: k.mul(y, k.mul(x, x))),
    "flexible": Law("(x*y)*x = x*(y*x)", "ee",
                    lambda k, x, y: k.mul(k.mul(x, y), x),
                    lambda k, x, y: k.mul(x, k.mul(y, x))),
    "inverse": Law("x*x^-1 = x^-1*x = 1", "e", _both_products_with_inverse,
                   lambda k, x: k.identity + k.identity),
    "tail_central": Law("z supported on 11..19 implies x*z = z*x = x+z", "et",
                        lambda k, x, z: k.mul(x, z) + k.mul(z, x),
                        lambda k, x, z: k.add(x, z) + k.add(x, z)),
}

SWEEP_NAMES = tuple(LAWS)


def _check_seed(seed):
    if not isinstance(seed, int) or not 0 <= seed <= MASK64:
        raise ValueError("rng state must be a 64-bit unsigned integer")


def _check_sweep(names, seed, trials):
    for name in names:
        if name not in LAWS:
            raise ValueError(f"unknown sweep {name!r}")
    if len(set(names)) < len(names):
        raise ValueError(f"duplicate sweep names in {names}")
    _check_seed(seed)
    if trials < 0:
        raise ValueError("trials must be >= 0")


def _add(x, y):
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

    add = staticmethod(_add)
    identity = _IDENTITY

    def __init__(self, f_flat, h_flat):
        self._f = [tuple(terms) for terms in f_flat]
        self._h = [tuple(terms) for terms in h_flat]
        for name, table, n in (("f", self._f, 20), ("h", self._h, 10)):
            for terms in table:
                if any(not 0 <= c < n for _, codes in terms for c in codes):
                    raise ValueError(f"{name}-table factor code out of range")

    def mul(self, x, y):
        v = x[:10] + y[:10]
        out = []
        for k in range(19):
            acc = x[k] + y[k]
            for coeff, codes in self._f[k]:
                p = coeff
                for c in codes:
                    p *= v[c]
                    if not p:
                        break
                acc += p
            out.append(acc % 3)
        return tuple(out)

    def inv(self, x):
        """Raw inverse -x + h(x); `loop.Loop.inverse` self-checks it."""
        out = []
        for k in range(19):
            acc = 3 - x[k]
            for coeff, codes in self._h[k]:
                p = coeff
                for c in codes:
                    p *= x[c]
                    if not p:
                        break
                acc += p
            out.append(acc % 3)
        return tuple(out)

    # -- deterministic randomness ------------------------------------------

    def random_element(self, state):
        """Draw 19 trits from xorshift-star; returns (element, new state)."""
        return _trits(state, 19)

    def _random_tail(self, state):
        # 9 trits into coordinates 11..19; head coordinates stay zero
        tail, s = _trits(state, 9)
        return (0,) * 10 + tail, s

    # -- randomized identity sweeps ------------------------------------------

    def sweep(self, name, seed, trials):
        """Run a named identity sweep of `LAWS`, one trial at a time.

        Returns (violations, first_failing_trial or -1, witness elements or
        None).  Each trial draws its law's layout from the running state,
        an element via random_element and a tail via _random_tail.
        """
        _check_sweep((name,), seed, trials)
        law = LAWS[name]
        draws = [self.random_element if kind == "e" else self._random_tail
                 for kind in law.layout]
        s = seed
        violations, first, witness = 0, -1, None
        for i in range(trials):
            drawn = []
            for draw in draws:
                x, s = draw(s)
                drawn.append(x)
            if law.lhs(self, *drawn) != law.rhs(self, *drawn):
                violations += 1
                if first < 0:
                    first, witness = i, tuple(drawn)
        return violations, first, witness


class PolyEvaluator:
    """Brute-force evaluator for flattened polynomials (see polys.flatten_polys)."""

    def __init__(self, flat, nvars):
        self._polys = [tuple((c, tuple(codes)) for c, codes in terms)
                       for terms in flat]
        self.nvars = nvars
        for terms in self._polys:
            for _, codes in terms:
                if any(not 0 <= c < nvars for c in codes):
                    raise ValueError("factor code out of range")

    def eval_at(self, point):
        if len(point) != self.nvars:
            raise ValueError(f"point must have {self.nvars} coordinates")
        out = []
        for terms in self._polys:
            acc = 0
            for coeff, codes in terms:
                p = coeff
                for c in codes:
                    p *= point[c]
                    if not p:
                        break
                acc += p
            out.append(acc % 3)
        return tuple(out)

    def count_all_zero(self):
        """Count points of F_3^nvars where every polynomial vanishes."""
        n = self.nvars
        if n > 16:
            raise ValueError("refusing to enumerate 3^%d points" % n)
        polys = self._polys
        point = [0] * n
        count = 0
        for _ in range(3 ** n):
            for terms in polys:
                acc = 0
                for coeff, codes in terms:
                    p = coeff
                    for c in codes:
                        p *= point[c]
                        if not p:
                            break
                    acc += p
                if acc % 3:
                    break
            else:
                count += 1
            i = n - 1
            while i >= 0:
                point[i] += 1
                if point[i] == 3:
                    point[i] = 0
                    i -= 1
                else:
                    break
        return count
