"""Symbolic side of the loop: identity proofs over generic elements.

A SymElement is a 19-tuple of polynomials; applying the product or inverse
formula to generic elements (coordinates are fresh variables) and reducing
by x^3 = x turns an identity claim into "all 19 difference coordinates are
the zero polynomial".  Because the reduced canonical form coincides with
the function F_3^n -> F_3, a proved verdict covers every concrete
assignment -- e.g. all 3^57 triples for the two-sided Moufang law

    (x o y) o (z o x) = (x o (y o z)) o x.

The strategy is brute expansion with eager reduction, no rewriting
cleverness: the tables are sparse and of degree <= 4, which keeps the
coordinates small -- the two sides of the Moufang law reach at most 154
terms per coordinate (`max_coord_terms` in the proof telemetry).  A
refuted verdict comes with a concrete counterexample assignment, extracted
from a surviving monomial and re-checked through the concrete kernel, so a
symbolic failure is always reproducible as a loop computation.

`prove_law` reads the swept laws, Moufang and the inverse law among them,
from `_native.LAWS` with ops over 19-tuples of polynomials: `mul` and `inv`
are `SymbolicLoop.mul` and `inverse`, `add` is coordinatewise, `identity`
19 zero polynomials.  Layout position i draws block "xyz"[i], a "t" as a
generic tail (variables at 11..19 only).  A refutation's witness evaluates
the same law with the concrete kernel as its ops.

The proofs double as transcription insurance: it is the x^3 = x reduction,
not goodwill, that makes a single corrupted monomial surface as a nonzero
difference coordinate (the mutation tests exercise exactly that).
"""

from __future__ import annotations

import time
from types import SimpleNamespace
from typing import Mapping, NamedTuple, Sequence

from . import loop as loop_mod
from . import kernel
from ._native import LAWS
from .errors import CanonicalFormBroken, DivisionCheckFailed
from .loop import Element, Loop, basis, default_loop
from .polys import Poly, Var, flatten_polys

N = 19
_HEAD = 10  # the tables read coordinates 1..10 only
_X_HEAD = tuple(Var("x", i) for i in range(1, _HEAD + 1))
_Y_HEAD = tuple(Var("y", i) for i in range(1, _HEAD + 1))


class SymElement:
    """A loop element with polynomial coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[Poly]):
        coords = tuple(coords)
        if len(coords) != N:
            raise ValueError("SymElement needs 19 coordinate polynomials")
        self.coords = coords

    def evaluate(self, assignment: Mapping[Var, int]) -> Element:
        return tuple(p.evaluate(assignment) for p in self.coords)

    def __eq__(self, other):
        if not isinstance(other, SymElement):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        nonzero = sum(1 for p in self.coords if not p.is_zero())
        return f"<SymElement {nonzero} nonzero coords>"


def generic(block: str) -> SymElement:
    """The generic element of a block: coordinate i is the variable block_i."""
    return SymElement([Poly.variable(block, i) for i in range(1, N + 1)])


def embed(x: Element) -> SymElement:
    """A concrete element, checked as `Loop` checks it, as constants."""
    return SymElement([Poly.constant(v) for v in loop_mod.check_element(x)])


def assignment_for(blocks: Mapping[str, Element]) -> dict:
    """Variable assignment mapping each block's 19 variables to an element."""
    out = {}
    for block, elem in blocks.items():
        for i, v in enumerate(elem, start=1):
            out[Var(block, i)] = v
    return out


class Refutation(NamedTuple):
    """A concrete counterexample extracted from a surviving monomial."""

    coord: int                       # 1-based difference coordinate
    assignment: dict                 # Var -> trit
    elements: dict                   # block name -> Element
    lhs: Element                     # concrete evaluations of both sides
    rhs: Element

    def as_json(self) -> dict:
        def fmt(v):
            # two-sided claims carry a pair of elements per side
            if v and isinstance(v[0], tuple):
                return [loop_mod.format_element(e) for e in v]
            return loop_mod.format_element(v)

        return {
            "coord": self.coord,
            "assignment": {str(v): t for v, t in sorted(self.assignment.items())},
            "elements": {b: loop_mod.format_element(e)
                         for b, e in sorted(self.elements.items())},
            "lhs": fmt(self.lhs),
            "rhs": fmt(self.rhs),
        }


class ProofReport(NamedTuple):
    """Outcome of one symbolic identity proof.

    proved is True exactly when every difference coordinate reduced to the
    zero polynomial; otherwise nonzero_coords lists the survivors and
    witness carries a concrete counterexample.
    """

    claim: str
    proved: bool
    nonzero_coords: tuple
    telemetry: dict
    millis: float
    witness: Refutation | None
    details: dict

    def as_json(self) -> dict:
        out = {
            "claim": self.claim,
            "verdict": "proved" if self.proved else "refuted",
            "nonzero_coords": list(self.nonzero_coords),
            "telemetry": dict(self.telemetry),
        }
        if self.details:
            out["details"] = dict(self.details)
        if self.witness is not None:
            out["witness"] = self.witness.as_json()
        return out


def nonzero_point(p: Poly) -> dict:
    """An assignment where a nonzero reduced polynomial does not vanish.

    Fast path: set the variables of the leading monomial to 1, the rest to
    0.  If other terms cancel that point, fall back to peeling variables
    one at a time; some specialization of each variable must stay nonzero,
    or the polynomial would already have been the zero function.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial vanishes everywhere")
    # sorted, so the refutation's repr is the same in every process
    assignment = dict.fromkeys(sorted(p.variables()), 0)
    lead = next(iter(p.terms()))[0]
    trial = dict(assignment)
    for v, _ in lead:
        trial[v] = 1
    if p.evaluate(trial):
        return trial
    q = p
    while True:
        vs = q.variables()
        if not vs:
            break
        v = min(vs)
        for t in (0, 1, 2):
            qt = q.specialize(v, t)
            if not qt.is_zero():
                assignment[v] = t
                q = qt
                break
        else:
            raise CanonicalFormBroken(
                "canonical form broken: all specializations vanish")
    return assignment


class ConsistencyReport(NamedTuple):
    """Result of the evaluate-commutes-with-symbolic-operations sweep."""

    trials: int
    checks_per_trial: int
    mismatches: int
    first_mismatch: dict | None
    seed: int

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def _telemetry(*sides: Sequence[Poly]) -> dict:
    counts = []
    max_degree = 0
    for side in sides:
        for p in side:
            counts.append(p.term_count())
            max_degree = max(max_degree, p.total_degree())
    return {
        "max_coord_terms": max(counts),
        "total_terms": sum(counts),
        "max_degree": max_degree,
    }


class SymbolicLoop:
    """Symbolic multiplication/inverse plus the identity proofs for one Loop."""

    def __init__(self, concrete: Loop | None = None):
        self.loop = concrete if concrete is not None else default_loop()
        self._f = self.loop.f.coords
        self._h = self.loop.h.coords

    # -- the two formula applications --------------------------------------

    def mul(self, a: SymElement, b: SymElement) -> SymElement:
        """Coordinate k of a o b: a_k + b_k + f_k(a, b)."""
        env = dict(zip(_X_HEAD, a.coords))
        env.update(zip(_Y_HEAD, b.coords))
        return SymElement([a.coords[k] + b.coords[k] + self._f[k].substitute(env)
                           for k in range(N)])

    def inverse(self, a: SymElement) -> SymElement:
        """Coordinate k of a^-1: -a_k + h_k(a)."""
        env = dict(zip(_X_HEAD, a.coords))
        return SymElement([-a.coords[k] + self._h[k].substitute(env)
                           for k in range(N)])

    # -- proofs -------------------------------------------------------------

    def prove_law(self, name: str) -> ProofReport:
        """The swept law `_native.LAWS[name]` on generic elements."""
        t0 = time.perf_counter()
        law = LAWS[name]
        blocks = "xyz"[:len(law.layout)]
        drawn = [generic(b).coords if kind == "e"
                 else (Poly.zero(),) * _HEAD + generic(b).coords[_HEAD:]
                 for kind, b in zip(law.layout, blocks)]
        ops = SimpleNamespace(
            mul=lambda a, b: self.mul(SymElement(a), SymElement(b)).coords,
            inv=lambda a: self.inverse(SymElement(a)).coords,
            add=lambda a, b: tuple(map(Poly.__add__, a, b)),
            identity=(Poly.zero(),) * N)
        lhs, rhs = law.lhs(ops, *drawn), law.rhs(ops, *drawn)

        def concrete(elems):
            k, args = self.loop._kernel, [elems[b] for b in blocks]
            # a joined side is split back into its 19-tuples
            return [side if len(side) == N else (side[:N], side[N:])
                    for side in (law.lhs(k, *args), law.rhs(k, *args))]

        diffs = [p - q if q else p for p, q in zip(lhs, rhs)]  # skip zero q
        return self._report(name, diffs, blocks, concrete,
                            _telemetry(lhs, rhs), t0)

    def prove_moufang(self) -> ProofReport:
        """(x o y) o (z o x) = (x o (y o z)) o x over all 3^57 triples."""
        return self.prove_law("moufang")

    def prove_inverse_law(self) -> ProofReport:
        """x o x^-1 = x^-1 o x = identity in the 19 x-variables."""
        return self.prove_law("inverse")._replace(claim="inverse-law")

    def prove_identity_law(self) -> ProofReport:
        """0 o x = x o 0 = x as polynomial identities."""
        t0 = time.perf_counter()
        x = generic("x")
        e = embed(loop_mod.identity())
        left = self.mul(e, x)
        right = self.mul(x, e)
        diffs = ([left.coords[k] - x.coords[k] for k in range(N)]
                 + [right.coords[k] - x.coords[k] for k in range(N)])

        def concrete(elems):
            ex = elems["x"]
            m = self.loop.mul
            return ((m(loop_mod.identity(), ex), m(ex, loop_mod.identity())), (ex, ex))

        return self._report("identity-law", diffs, ("x",), concrete,
                            _telemetry(left.coords, right.coords), t0)

    def prove_normal_form(self) -> ProofReport:
        """The left-nested product e_1^t1 o e_2^t2 o ... o e_19^t19 equals
        (t1, ..., t19) for generic exponents.

        Sub-check first: the correction tables vanish on aligned basis
        multiples -- f(s*e_i, t*e_i) = 0 and h(t*e_i) = 0 for all s, t in
        F_3 -- so e_i^n really is (n mod 3) * e_i and the generic coordinate
        t_i stands for any integer exponent.
        """
        t0 = time.perf_counter()
        precheck_failures = self._power_precheck()
        details = {
            "power_precheck": "pass" if not precheck_failures else precheck_failures
        }

        factors = []
        for i in range(1, N + 1):
            coords = [Poly.zero()] * N
            coords[i - 1] = Poly.variable("t", i)
            factors.append(SymElement(coords))
        acc = factors[0]
        for p in factors[1:]:
            acc = self.mul(acc, p)
        target = generic("t")
        diffs = [acc.coords[k2] - target.coords[k2] for k2 in range(N)]
        report = self._report("normal-form", diffs, ("t",),
                              self._normal_form_concrete,
                              _telemetry(acc.coords), t0, details=details)
        if precheck_failures and report.proved:
            # the generic product only stands for integer powers when the
            # precheck holds, so a failed precheck refutes the claim
            report = ProofReport(report.claim, False, report.nonzero_coords,
                                 report.telemetry, report.millis,
                                 report.witness, details)
        return report

    def _power_precheck(self) -> list:
        """The failures of f(s*e_i, t*e_i) = 0 and h(t*e_i) = 0, s, t in F_3.

        Only an index i where some f monomial reads nothing but x_i/y_i, or
        some h monomial nothing but x_i, is checked: every other monomial
        reads a coordinate that is zero on the multiples of e_i, so there
        f and h vanish term by term.
        """
        indices = set()
        for p in self._f + self._h:
            for mono, _ in p.terms():
                read = {v.index for v, _ in mono}
                if len(read) <= 1:
                    indices.update(read or range(1, N + 1))
        k = self.loop._kernel
        zero = loop_mod.identity()
        failures = []
        for i in sorted(indices):
            mult = [zero[:i - 1] + (t,) + zero[i:] for t in range(3)]
            for s in range(3):
                for t in range(3):
                    if k.mul(mult[s], mult[t]) != mult[(s + t) % 3]:
                        failures.append(f"f({s}*e{i}, {t}*e{i}) != 0")
            for t in range(3):
                if k.inv(mult[t]) != mult[-t % 3]:
                    failures.append(f"h({t}*e{i}) != 0")
        return failures

    def _normal_form_concrete(self, elems):
        t = elems["t"]
        m = self.loop.mul
        acc = self.loop.power(basis(1), t[0])
        for i in range(2, N + 1):
            acc = m(acc, self.loop.power(basis(i), t[i - 1]))
        return (acc, t)

    def _report(self, claim, diffs, blocks, concrete, telemetry, t0,
                details=None) -> ProofReport:
        nonzero = [i for i, d in enumerate(diffs) if not d.is_zero()]
        telemetry = dict(telemetry,
                         diff_terms=sum(d.term_count() for d in diffs))
        witness = None
        if nonzero:
            pos = nonzero[0]
            point = nonzero_point(diffs[pos])
            elements = {}
            for b in blocks:
                elements[b] = tuple(point.get(Var(b, i), 0)
                                    for i in range(1, N + 1))
            witness = Refutation(pos % N + 1, point, elements,
                                 *concrete(elements))
        millis = 1000.0 * (time.perf_counter() - t0)
        coords = tuple(sorted({i % N + 1 for i in nonzero}))
        return ProofReport(claim, not nonzero, coords, telemetry, millis,
                           witness, details or {})

    # -- the associate-set machinery ----------------------------------------

    def associator_variety(self, b1: Element, b2: Element) -> SymElement:
        """The associator (x, b1, b2) with x generic.

        Self-checks its division symbolically; the result depends only on
        x_1..x_10 because the tables never read coordinates 11..19, which is
        what permits exact counting over 3^10 assignments.
        """
        x = generic("x")
        c1, c2 = embed(b1), embed(b2)
        p = self.mul(x, self.mul(c1, c2))      # x o (b1 o b2)
        q = self.mul(self.mul(x, c1), c2)      # (x o b1) o b2
        a = self.mul(self.inverse(p), q)
        check = self.mul(p, a)
        if check != q:
            raise DivisionCheckFailed(
                "symbolic division failed while building the associator variety")
        return a

    def consistency_sweep(self, seed: int = 42, trials: int = 10_000,
                          extra_pairs: int = 2) -> ConsistencyReport:
        """Check evaluate(sym_op) == concrete_op(evaluate) on random inputs.

        Covers the symbolic product, the symbolic inverse, and associator
        varieties for (e3, e4) plus `extra_pairs` seeded random pairs.
        """
        if trials < 1:
            raise ValueError("trials must be >= 1")
        lp = self.loop
        state = loop_mod.check_seed(seed)

        pairs = [(basis(3), basis(4))]
        for _ in range(extra_pairs):
            a, state = lp.random_element(state)
            b, state = lp.random_element(state)
            pairs.append((a, b))

        xy_order = [Var("x", i) for i in range(1, N + 1)]
        xy_order += [Var("y", i) for i in range(1, N + 1)]
        x_order = xy_order[:N]
        prod = self.mul(generic("x"), generic("y"))
        inv = self.inverse(generic("x"))
        ev_prod = kernel.PolyEvaluator(flatten_polys(prod.coords, xy_order), 2 * N)
        ev_inv = kernel.PolyEvaluator(flatten_polys(inv.coords, x_order), N)
        ev_pairs = [
            (a, b, kernel.PolyEvaluator(
                flatten_polys(self.associator_variety(a, b).coords, x_order), N))
            for a, b in pairs
        ]

        mismatches = 0
        first = None

        def note(kind, x, got, want):
            nonlocal mismatches, first
            mismatches += 1
            if first is None:
                first = {"check": kind, "x": loop_mod.format_element(x),
                         "symbolic": loop_mod.format_element(got),
                         "concrete": loop_mod.format_element(want)}

        for _ in range(trials):
            x, state = lp.random_element(state)
            y, state = lp.random_element(state)
            got, want = ev_prod.eval_at(x + y), lp.mul(x, y)
            if got != want:
                note("mul", x, got, want)
            got, want = ev_inv.eval_at(x), lp.inverse(x)
            if got != want:
                note("inverse", x, got, want)
            for a, b, ev in ev_pairs:
                got, want = ev.eval_at(x), lp.associator(x, a, b)
                if got != want:
                    note("associator_variety", x, got, want)

        return ConsistencyReport(trials, 2 + len(ev_pairs), mismatches,
                                 first, seed)
