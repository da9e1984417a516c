"""Command-line interface: batch verification, proving, evaluation, exploration.

Exit codes: 0 all checks passed, 1 a verification/computation failed,
2 usage or parse error.  Reports are deterministic for a fixed command and
seed; the per-check millisecond timings are the only varying fields.  The
sweep rows split the wall time of the one pass that runs all six sweeps,
`tail_central` included, by the trits each law's trials read (`sweeps`).

The default seed (42) and trial budget (1000000) of `verify` and `density`
can be overridden with the environment variables MOUFANG3_SEED and
MOUFANG3_TRIALS, which no other command reads; explicit flags win over both.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from typing import NamedTuple

from . import __version__, kernel, subloops, sweeps, tables
from ._native import N
from .errors import (AmbiguousBracketing, LoopLawError, OrderNotFoundWithinCap,
                     ParseError, ValidationFailure)
from .loop import (Element, Loop, basis, check_seed, default_loop,
                   format_element, identity, parse_element)
from .symbolic import SymbolicLoop

DEFAULT_SEED = 42
DEFAULT_TRIALS = 1_000_000

# claim -> the SymbolicLoop method proving it, in `verify`'s order
PROOFS = {"identity": "prove_identity_law", "inverse": "prove_inverse_law",
          "moufang": "prove_moufang", "normal-form": "prove_normal_form"}


# -- expression grammar for `eval` -------------------------------------------

_DENSE_RE = re.compile(rf"\(\s*[0-2](?:\s*,\s*[0-2]){{{N - 1}}}\s*\)")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|0")
_PUNCTUATION = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", "*": "STAR"}


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _DENSE_RE.match(text, i) if ch == "(" else None
        if m:
            tokens.append(("DENSE", m.group(), i))
            i = m.end()
        elif ch in _PUNCTUATION:
            tokens.append((_PUNCTUATION[ch], ch, i))
            i += 1
        elif ch == "^":
            if text[i:i + 3] != "^-1":
                raise ParseError("expected '^-1'", i)
            tokens.append(("INV", "^-1", i))
            i += 3
        else:
            m = _NAME_RE.match(text, i)
            if not m:
                raise ParseError(f"unexpected character {ch!r}", i)
            tokens.append(("NAME", m.group(), i))
            i = m.end()
    tokens.append(("END", "", n))
    return tokens


class _ExprParser:
    """Recursive-descent parser of loop expressions into a tree: a leaf is
    ("value", element), a node ("inverse", operand, times) or the name of
    the `Loop` method it applies followed by its operands.

    Products associate only with explicit parentheses: the loop is
    nonassociative, so `e1*e2*e3` is rejected rather than silently
    left-associated.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, got {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> tuple:
        tree = self.expr()
        tok = self.take()
        if tok[0] != "END":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return tree

    def expr(self) -> tuple:
        factors = [self.factor()]
        star_pos = None
        while self.peek()[0] == "STAR":
            tok = self.take()
            if len(factors) == 2:
                star_pos = tok[2]
            factors.append(self.factor())
        if len(factors) > 2:
            raise AmbiguousBracketing(
                "products of three or more factors need explicit parentheses",
                star_pos or 0)
        if len(factors) == 2:
            return ("mul", *factors)
        return factors[0]

    def factor(self) -> tuple:
        tree, times = self.atom(), 0
        while self.peek()[0] == "INV":
            self.take()
            times += 1
        return ("inverse", tree, times) if times else tree

    def atom(self) -> tuple:
        tok = self.take()
        kind, text, pos = tok
        if kind == "DENSE":
            return ("value", parse_element(text))
        if kind == "LPAREN":
            tree = self.expr()
            self.expect("RPAREN")
            return tree
        if kind == "NAME":
            if text == "0":
                return ("value", identity())
            if text == "comm":
                return ("commutator", *self.args(2))
            if text == "assoc":
                return ("associator", *self.args(3))
            if text.startswith("e"):
                try:
                    idx = tables.ascii_int(text[1:])
                except ValueError:
                    raise ParseError(f"unknown name {text!r}", pos) from None
                if not 1 <= idx <= N:
                    raise ParseError(f"basis index {idx} outside 1..{N}", pos)
                return ("value", basis(idx))
            raise ParseError(f"unknown name {text!r}", pos)
        raise ParseError(f"unexpected token {text!r}", pos)

    def args(self, count: int) -> list:
        self.expect("LPAREN")
        out = [self.expr()]
        for _ in range(count - 1):
            self.expect("COMMA")
            out.append(self.expr())
        self.expect("RPAREN")
        return out


def _evaluate(tree, loop: Loop) -> Element:
    """The element a parsed expression names, operands left to right; no
    deeper than the parse that built the tree."""
    op, *args = tree
    if op == "value":
        return args[0]
    if op == "inverse":
        value = _evaluate(args[0], loop)
        for _ in range(args[1]):
            value = loop.inverse(value)
        return value
    return getattr(loop, op)(*[_evaluate(a, loop) for a in args])


def eval_expression(text: str, loop: Loop | None = None) -> Element:
    """Evaluate an element expression; tries the plain element forms first.
    The whole text is parsed before anything is evaluated."""
    lp = loop if loop is not None else default_loop()
    try:
        return parse_element(text)
    except ParseError:
        pass
    parser = _ExprParser(text)
    try:
        tree = parser.parse()
    except RecursionError:     # one parser frame per nesting level
        pos = parser.tokens[min(parser.pos, len(parser.tokens) - 1)][2]
        raise ParseError("expression nested too deeply", pos) from None
    return _evaluate(tree, lp)


# -- the verification report --------------------------------------------------

class CheckResult(NamedTuple):
    name: str
    passed: bool
    details: dict
    millis: int


def _checked(name, fn, seconds=None):
    """Run one check; `seconds`, when given, maps the call's own time to
    the time reported."""
    t0 = time.perf_counter()
    try:
        passed, details = fn()
    except (LoopLawError, ValidationFailure) as exc:
        passed, details = False, {"error": str(exc)}
    elapsed = time.perf_counter() - t0
    if seconds is not None:
        elapsed = seconds(elapsed)
    return CheckResult(name, passed, details, round(1000 * elapsed))


def run_verification(loop: Loop, seed: int, trials: int,
                     symbolic: bool) -> list:
    """The ordered check list behind `verify`.

    A check's `millis` is the wall time of its call, except for the sweep
    rows, which split the wall time of the one pass that runs the six sweeps
    by the trits each law's trials read (see `sweeps.SharedSweeps`).
    """
    checks = []

    def check_tables():
        report = tables.validate_tables(loop.f, loop.h)
        return True, {
            "f_terms": sum(report.f.term_counts),
            "h_terms": sum(report.h.term_counts),
            "f_max_degree": report.f.max_total_degree,
            "h_max_degree": report.h.max_total_degree,
            "index_support": sorted(report.f.index_support
                                    | report.h.index_support),
        }

    checks.append(_checked("table_validation", check_tables))

    def check_identification():
        rows = loop.identification_table()
        bad = {row.label: format_element(row.computed, "sparse")
               for row in rows if not row.ok}
        details = {"identities": len(rows), "failed": bad}
        return not bad, details

    checks.append(_checked("identification_table", check_identification))

    def check_generator_associators():
        values = dict(subloops.generator_associators(loop))
        ok = all(v == identity() for v in values.values())
        a, b, c, d = basis(1), basis(2), basis(3), basis(4)
        e19 = loop.associator(loop.commutator(a, b), c, d)
        ok = ok and e19 == basis(19)
        details = {k: format_element(v, "sparse") for k, v in values.items()}
        details["([a,b],c,d)"] = format_element(e19, "sparse")
        return ok, details

    checks.append(_checked("generator_associators", check_generator_associators))

    def check_witness():
        w = subloops.nonsubloop_witness(loop)
        return True, w.as_json()

    checks.append(_checked("nonsubloop_witness", check_witness))

    if trials > 0:
        shared = sweeps.SharedSweeps(loop, seed, trials)
        for name in sweeps.SWEEP_NAMES:
            def run(name=name):
                r = sweeps.run_sweep(loop, name, seed, trials, shared=shared)
                details = {"law": r.law, "trials": r.trials,
                           "violations": r.violations}
                if r.witness is not None:
                    details["witness"] = [format_element(e) for e in r.witness]
                return r.ok, details
            checks.append(_checked(
                f"sweep_{name}", run,
                lambda own, name=name: shared.seconds.get(name, own)))

    if symbolic:
        sym = SymbolicLoop(loop)
        for claim, method in PROOFS.items():
            def run(method=method):
                r = getattr(sym, method)()
                return r.proved, r.as_json()
            checks.append(_checked(f"prove_{claim}", run))

    return checks


def _emit_report(checks, args):
    overall = all(c.passed for c in checks)
    if args.format == "json":
        doc = {
            "tool_version": __version__,
            "backend": kernel.BACKEND,
            "seed": args.seed,
            "trials": args.trials,
            "checks": [{"name": c.name,
                        "verdict": "pass" if c.passed else "fail",
                        "details": c.details,
                        "millis": c.millis} for c in checks],
            "overall": "pass" if overall else "fail",
        }
        print(json.dumps(doc, indent=2))
    else:
        for c in checks:
            mark = "PASS" if c.passed else "FAIL"
            detail = "" if c.passed else f"  {c.details}"
            print(f"[{mark}] {c.name} ({c.millis} ms){detail}")
        print(f"overall: {'PASS' if overall else 'FAIL'} "
              f"(backend {kernel.BACKEND}, seed {args.seed}, "
              f"trials {args.trials})")
    return 0 if overall else 1


# -- subcommands ---------------------------------------------------------------

def _make_loop(args) -> Loop:
    if getattr(args, "tables", None):
        f, h = tables.load_tables_from(args.tables)
        return Loop(f, h)
    return default_loop()


def _env_int(name: str, flag, default: int) -> int:
    """`flag` unless None, else the variable `name`, else `default`; a
    malformed variable fails even when the flag is given."""
    raw = os.environ.get(name)
    try:
        value = default if raw is None else tables.ascii_int(raw)
    except ValueError:
        # a usage error, like a bad flag value: argparse's exit code
        print(f"moufang3: {name}={raw!r} is not an integer", file=sys.stderr)
        raise SystemExit(2) from None
    return value if flag is None else flag


def _check_seeded(args):
    """Fill in --seed and --trials where not given, and check both before
    any work, even where neither is read."""
    args.seed = _env_int("MOUFANG3_SEED", args.seed, DEFAULT_SEED)
    args.trials = _env_int("MOUFANG3_TRIALS", args.trials, DEFAULT_TRIALS)
    if args.trials < 0:
        raise ValueError("trials must be >= 0")
    check_seed(args.seed)


def cmd_verify(args) -> int:
    _check_seeded(args)
    loop = _make_loop(args)
    checks = run_verification(loop, args.seed, args.trials, args.symbolic)
    return _emit_report(checks, args)


def cmd_prove(args) -> int:
    loop = _make_loop(args)
    report = getattr(SymbolicLoop(loop), PROOFS[args.claim])()
    if args.format == "json":
        doc = report.as_json()
        doc["tool_version"] = __version__
        doc["backend"] = kernel.BACKEND
        doc["millis"] = round(report.millis)
        print(json.dumps(doc, indent=2))
    else:
        verdict = "proved" if report.proved else "refuted"
        print(f"{report.claim}: {verdict} ({report.millis:.0f} ms)")
        print(f"  telemetry: {report.telemetry}")
        if report.details:
            print(f"  details: {report.details}")
        if report.witness is not None:
            print(f"  witness: {report.witness.as_json()}")
    return 0 if report.proved else 1


def cmd_eval(args) -> int:
    loop = _make_loop(args)
    print(format_element(eval_expression(args.expr, loop)))
    return 0


def _print_doc(doc, args):
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for key, value in doc.items():
            print(f"{key}: {value}")


def cmd_closure(args) -> int:
    loop = _make_loop(args)
    gens = [parse_element(g) for g in args.generators]
    result = subloops.closure(loop, gens, cap=args.cap)
    doc = {
        "generators": [format_element(g) for g in gens],
        "order": result.order,
        "closed": result.closed,
        "truncated": result.truncated,
        "support_coords": list(result.support()),
    }
    if result.order <= args.list_limit:
        doc["elements"] = sorted(format_element(e) for e in result.elements)
    _print_doc(doc, args)
    return 0 if not result.truncated else 1


def cmd_density(args) -> int:
    _check_seeded(args)
    loop = _make_loop(args)
    a, b = parse_element(args.a), parse_element(args.b)
    if args.mode == "exact":
        count = subloops.count_l_set(loop, a, b)
        doc = {
            "pair": [format_element(a), format_element(b)],
            "mode": "exact",
            "head_count": count.head_count,
            "head_total": count.head_total,
            "density": str(count.density),
            "density_float": float(count.density),
            "full_count": count.full_count,
        }
    else:
        est = subloops.density_sample(loop, a, b, seed=args.seed,
                                      trials=args.trials)
        doc = {
            "pair": [format_element(a), format_element(b)],
            "mode": "sample",
            "seed": est.seed,
            "trials": est.trials,
            "hits": est.hits,
            "density": est.density,
        }
    _print_doc(doc, args)
    return 0


def cmd_order(args) -> int:
    loop = _make_loop(args)
    x = parse_element(args.element)
    n = loop.order(x, cap=args.cap)
    if args.format == "json":
        print(json.dumps({"element": format_element(x), "order": n}))
    else:
        print(n)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moufang3",
        description="Exact verification of the order-3^19 Moufang loop "
                    "defined by polynomial tables over GF(3).")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--tables", metavar="DIR", default=None,
                       help="load f_table.txt/h_table.txt from DIR instead "
                            "of the shipped fixtures")
        if seeded:     # defaults filled in by _check_seeded
            p.add_argument("--seed", type=tables.ascii_int)
            p.add_argument("--trials", type=tables.ascii_int)

    p = sub.add_parser("verify", help="run the full verification suite")
    common(p, seeded=True)
    p.add_argument("--symbolic", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="include the four symbolic proofs (default on)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("prove", help="run one symbolic proof")
    p.add_argument("claim", choices=PROOFS)
    common(p)
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("eval", help="evaluate a loop expression")
    p.add_argument("expr")
    common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("closure", help="saturate a generator set")
    p.add_argument("generators", nargs="+")
    p.add_argument("--cap", type=tables.ascii_int, default=10_000_000)
    p.add_argument("--list-limit", type=tables.ascii_int, default=81,
                   help="list elements when the closure is at most this big")
    common(p)
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("density", help="measure the associate set l_{a,b}")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--mode", choices=("exact", "sample"), default="exact")
    common(p, seeded=True)
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("order", help="multiplicative order of an element")
    p.add_argument("element")
    p.add_argument("--cap", type=tables.ascii_int, default=81)
    common(p)
    p.set_defaults(fn=cmd_order)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        # usage errors: a bad value, expression or seed, or an unreadable table
        print(f"moufang3: {exc}", file=sys.stderr)
        return 2
    except (LoopLawError, ValidationFailure, OrderNotFoundWithinCap) as exc:
        print(f"moufang3: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
