"""Mutants of the program and the tests that must kill them.

    python tests/mutants.py [ID_OR_PREFIX ...]

Each entry corrupts one file with an exact `old` -> `new` edit.  The runner
copies `src/`, `tests/` and `pyproject.toml` into a temporary directory,
applies one mutant there, runs only that mutant's killing tests with `-x`
and prints one line per mutant: killed or survived, and the seconds it
took.  An argument selects the mutants whose id equals it or starts with
it and a dash ("kernel" runs every kernel mutant); no argument runs all.
The exit code is 1 when any mutant survives or its tests cannot run.

pytest does not collect this file; `test_mutants.py` checks that every
`old` text occurs exactly once in its file, so the table cannot rot.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

STREAM = "tests/test_batch_parity.py::test_lane_split_stream_matches_reference"
CHUNKS = ("tests/test_one_draw.py::"
          "test_one_and_two_lane_chunks_match_reference")
LATER_GROUP = "tests/test_one_draw.py::test_first_failure_in_a_later_group"
LATER_CHUNK = "tests/test_batch_parity.py::test_first_failure_in_a_later_chunk"
STRIDE_RULE = "tests/test_batch_parity.py::test_lane_stride_rule"
REACH = ("tests/test_batch_parity.py::"
         "test_head_reach_is_the_last_lane_of_a_head_trit")
HEADS = ("tests/test_law_oracle.py::"
         "test_head_offsets_are_the_trits_placed_on_heads")
JUMPS = ("tests/test_shared_sweeps.py::"
         "test_packed_jump_tables_match_scalar_construction")
FIXED = ("tests/test_compiled_kernel.py::"
         "test_fixed_systems_match_the_interpreter")
PROMOTE = ("tests/test_compiled_kernel.py::"
           "test_a_kernel_promotes_at_call_promote_at")
LONG = ("tests/test_compiled_kernel.py::"
        "test_a_long_coordinate_runs_every_command")
SKIPS = ("tests/test_substitution_parity.py::"
         "test_a_product_skips_only_dead_coordinates")
CONSTANT = ("tests/test_substitution_parity.py::"
            "test_a_constant_monomial_is_never_skipped")
CONSTANT_PRECHECK = ("tests/test_substitution_parity.py::"
                     "test_a_constant_monomial_fails_the_precheck_at_every_index")
SUB = "tests/test_polys.py::test_sub_subtracts_each_coefficient"
CONSISTENCY = "tests/test_symbolic.py::test_consistency_sweep_small"
BAD_CODES = ("tests/test_batch_parity.py::"
             "test_zero_terms_with_bad_codes_are_refused")
RESIDUES = ("tests/test_batch_parity.py::"
            "test_unreduced_coefficients_read_as_their_residues")
COMMENTS = "tests/test_tables.py::test_parse_table_accepts_comments_and_blanks"
SPELLINGS = ("tests/test_tables.py::"
             "test_parse_table_reads_other_spellings_of_a_factor")
SQUARED = "tests/test_tables.py::test_rejects_squared_factor"
BAD_LINES = "tests/test_tables.py::test_parse_table_rejects_bad_lines"
DEGREE = "tests/test_tables.py::test_rejects_high_degree"
STATS = ("tests/test_table_parity.py::"
         "test_shipped_tables_validate_as_the_oracle")


class Mutant(NamedTuple):
    id: str
    about: str
    path: str        # relative to the repository root
    old: str
    new: str
    tests: tuple     # pytest node ids, any one failing kills the mutant


KERNEL = "src/moufang3/kernel.py"
NATIVE = "src/moufang3/_native.py"
SYMBOLIC = "src/moufang3/symbolic.py"
POLYS = "src/moufang3/polys.py"
TABLES = "src/moufang3/tables.py"

MUTANTS = [
    Mutant("kernel-1", "a head offset is allowed at index HEAD, coordinate 11",
           NATIVE,
           "range(end - w, end - N + HEAD))",
           "range(end - w, end - N + HEAD + 1))", (HEADS,)),
    Mutant("kernel-2", "a step's lane count is one lane short", KERNEL,
           "out[j] = lane + 1", "out[j] = lane", (REACH, CHUNKS)),
    Mutant("kernel-3", "a step reached by a prefix of lanes is skipped",
           KERNEL,
           "            s = _advance(s, masks)\n            if count:\n",
           "            s = _advance(s, masks)\n"
           "            if count == lanes:\n", (CHUNKS,)),
    Mutant("kernel-4", "the witness is redrawn from the next lane", KERNEL,
           "_trits(starts[lane - start], at + w)",
           "_trits(starts[lane - start + 1], at + w)", (LATER_GROUP,)),
    Mutant("kernel-5", "_advance keeps the bits its left shift carries into "
           "the next lane", KERNEL,
           "s ^= (s << 25) & m25", "s ^= s << 25", (STREAM,)),
    Mutant("kernel-6", "the witness is redrawn one trit off", KERNEL,
           "lane, at = divmod(trial * w, stride)",
           "lane, at = divmod(trial * w + 1, stride)", (LATER_GROUP,)),
    Mutant("kernel-7", "a later chunk's first trial is off by one", KERNEL,
           "first = start * stride // w",
           "first = start * stride // w + (start > 0)", (LATER_CHUNK,)),
    Mutant("kernel-8", "plane_add's sign plane uses | for &", KERNEL,
           "return (a0 ^ b0) | (a0 ^ a1 ^ b1), (a0 ^ b1) & (a1 ^ b0)",
           "return (a0 ^ b0) | (a0 ^ a1 ^ b1), (a0 ^ b1) | (a1 ^ b0)",
           ("tests/test_batch_parity.py::test_plane_arithmetic_matches_gf3",
            CHUNKS)),
    Mutant("kernel-9", "a column is read at stride w - 1", KERNEL,
           "data[j + (n - 1) * w::-w]", "data[j + (n - 1) * w::1 - w]",
           (CHUNKS,)),
    Mutant("kernel-10", "the batched output shifts each step a byte too far",
           KERNEL,
           "acc |= p >> 8 * (7 - j)", "acc |= p >> 8 * (8 - j)", (STREAM,)),
    Mutant("kernel-11", "a short last output batch is dropped", KERNEL,
           "for batch in range(0, stride, 8):",
           "for batch in range(0, stride - 7, 8):", (STREAM,)),
    Mutant("kernel-12", "the jump tables are one step short", KERNEL,
           "    for _ in range(stride):\n",
           "    for _ in range(stride - 1):\n", (JUMPS,)),
    Mutant("kernel-13", "the stride rule takes m one too large", KERNEL,
           "            return stride\n",
           "            return stride + UNIT\n", (STRIDE_RULE,)),
    Mutant("kernel-14", "_poly's product keeps a sign where it is zero",
           KERNEL,
           "p1 = (p1 ^ b1) & p0", "p1 = p1 ^ b1", (CHUNKS,)),
    Mutant("kernel-15", "_poly multiplies the first factor in twice", KERNEL,
           "for c in codes[1:]:", "for c in codes:", (CHUNKS,)),
    Mutant("kernel-16", "products are shared by their left factor alone",
           KERNEL,
           "key = id(x), id(y)", "key = id(x), id(x)", (CHUNKS,)),
    Mutant("kernel-17", "the reach scans one trial of a cycle too few",
           KERNEL,
           "range(max(0, trials - cycle), trials)",
           "range(max(0, trials - cycle + 1), trials)", (REACH, CHUNKS)),
    Mutant("kernel-18", "the coefficient is dropped from a generated term",
           NATIVE, '["%d" % coeff]', '["1"]', (FIXED,)),
    Mutant("kernel-19", "a generated square is collapsed to one factor",
           NATIVE, "[_factor(c) for c in codes]",
           "[_factor(c) for c in dict.fromkeys(codes)]", (FIXED,)),
    Mutant("kernel-20", "a group of terms loses its leading factor", NATIVE,
           'out.append(_factor(lead[0]) + "*(%s)"', 'out.append("(%s)"',
           (FIXED, LONG)),
    Mutant("kernel-21", "a generated sum drops the term after each group of "
           "SUM_WIDTH", NATIVE,
           "range(0, len(parts), SUM_WIDTH)",
           "range(0, len(parts), SUM_WIDTH + 1)", (FIXED, LONG)),
    Mutant("kernel-22", "a kernel never promotes", NATIVE,
           '        self.mul, self.inv = space["mul"], space["inv"]\n', "",
           (PROMOTE,)),
    Mutant("kernel-23", "term_sums drops each term's coefficient", NATIVE,
           "            p = coeff\n", "            p = 1\n",
           (FIXED, CONSISTENCY)),
    Mutant("symbolic-1", "a coordinate is skipped when any one monomial reads "
           "a zero head", SYMBOLIC,
           "if not all(map(dead.__and__, reads))",
           "if not any(map(dead.__and__, reads))", (SKIPS,)),
    Mutant("symbolic-2", "a constant monomial counts as dead", SYMBOLIC,
           "if not all(map(dead.__and__, reads))",
           "if any(r and not r & dead for r in reads)", (CONSTANT,)),
    Mutant("symbolic-3", "Poly.__sub__ adds", POLYS,
           "c = (acc.get(mono, 0) - coeff) % 3",
           "c = (acc.get(mono, 0) + coeff) % 3", (SUB,)),
    Mutant("symbolic-4", "the precheck skips the indices a constant monomial "
           "fails", SYMBOLIC,
           "if mask else range(1, N + 1))", "if mask else ())",
           (CONSTANT_PRECHECK,)),
    Mutant("tables-1", "parse_table drops each line's coefficient", TABLES,
           "terms_by_coord[coord - 1].append((coeff, key))",
           "terms_by_coord[coord - 1].append((1, key))", (COMMENTS,)),
    Mutant("tables-2", "validate_table has no squared-factor mask", TABLES,
           "_tokens(tuple(table.blocks)).values(), 0) | LOW << 1",
           "_tokens(tuple(table.blocks)).values(), 0)", (SQUARED,)),
    Mutant("tables-3", "the repeat test counts distinct factor texts", TABLES,
           "if key.bit_count() != len(factors):",
           "if key.bit_count() != len(set(factors)):", (BAD_LINES,)),
    Mutant("tables-4", "the degree test lets degree 5 through", TABLES,
           "if reads & bad or deg > MAX_DEGREE:",
           "if reads & bad or deg > MAX_DEGREE + 1:", (DEGREE,)),
    Mutant("tables-5", "the support keeps the indices read by an odd number "
           "of coordinates", TABLES,
           "support |= reads", "support ^= reads", (STATS,)),
    Mutant("tables-6", "the last coordinate's degree is taken as the "
           "maximum", TABLES,
           "max_deg = max(max_deg, deg)", "max_deg = deg", (STATS,)),
    Mutant("tables-7", "another spelling of a factor gets a zero bit", TABLES,
           "                bit = field_bit(*v)\n",
           "                bit = 0\n", (SPELLINGS,)),
    Mutant("flat-1", "flat_terms drops zero terms before the code check",
           NATIVE,
           "for _, codes in terms for c in codes)",
           "for coeff, codes in terms if coeff % 3 for c in codes)",
           (BAD_CODES,)),
    Mutant("flat-2", "flat_terms keeps coefficients unreduced", NATIVE,
           "tuple((coeff % 3, codes) for", "tuple((coeff, codes) for",
           (RESIDUES,)),
    Mutant("flat-3", "flat_terms reduces but keeps zero terms", NATIVE,
           "for coeff, codes in terms\n" + " " * 25 + "if coeff % 3))",
           "for coeff, codes in terms))", (RESIDUES,)),
]


def selected(args):
    """The mutants each argument names, by id or by id prefix."""
    def named(m, a):
        return m.id == a or m.id.startswith(a + "-")

    unknown = [a for a in args if not any(named(m, a) for m in MUTANTS)]
    if unknown:
        sys.exit(f"mutants: no mutant matches {', '.join(unknown)}")
    return [m for m in MUTANTS if not args or any(named(m, a) for a in args)]


def run(mutant):
    """(verdict, seconds, pytest output) of one mutant in a fresh copy."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                    ".pytest_cache")
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tmp / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = tmp / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "stale", 0.0, "the old text does not occur exactly once"
        target.write_text(text.replace(mutant.old, mutant.new))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *mutant.tests],
            cwd=tmp, env=dict(os.environ, PYTHONPATH=str(tmp / "src"),
                              PYTHONDONTWRITEBYTECODE="1"),
            capture_output=True, text=True)
        seconds = time.perf_counter() - t0
    # pytest exits 1 when a test failed; 0 means every test passed, and
    # anything else (collection errors, unknown node ids) proves nothing
    verdict = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
    return verdict, seconds, proc.stdout + proc.stderr


def main(args):
    bad = 0
    for mutant in selected(args):
        verdict, seconds, output = run(mutant)
        print(f"{mutant.id:10} {verdict:8} {seconds:6.1f}s  {mutant.about}",
              flush=True)
        if verdict != "killed":
            bad += 1
            print("\n".join(output.splitlines()[-15:]), file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
