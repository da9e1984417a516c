#!/usr/bin/env python3
"""The moufang3 benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload sweeps|audit|assoc --seed N \
        --seconds S --trace 0|1

Run it from the repository root; it imports the package from ./src.  With
--trace 0 it measures the end-to-end metrics for S seconds; with --trace 1
it prints the per-layer metrics of a traced run instead (see layers.py).
The last line of standard output is

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

A failed correctness check, or any error, ends the run with a nonzero exit
code and no result line.  Each run also saves its provenance and metrics to
.bench_out/, and a traced run its spans; compare.py reads those files.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11
SETUP_CODE = ("import moufang3\n"
              "from moufang3 import SymbolicLoop, default_loop\n"
              "SymbolicLoop(default_loop())\n")
UNITS = {"setup_s": "s", "wall_rel": "ref", "op_rel_p50": "ref",
         "op_rel_tail": "ref", "peak_rss_mb": "MB", "wall_s": "s",
         "op_ms_p50": "ms", "op_ms_tail": "ms", "throughput": "1/s",
         "ref_ms": "ms"}
# workload-specific names of the raw, unbounded metrics
ALIASES = {
    "sweeps": {"wall_s": "verify_s", "throughput": "sweep_trials_per_s",
               "op_ms_p50": "sweep_ms_p50", "op_ms_tail": "sweep_ms_tail"},
    "audit": {"throughput": "audits_per_s", "op_ms_p50": "audit_ms_p50",
              "op_ms_tail": "audit_ms_tail"},
    "assoc": {"throughput": "pairs_per_s", "op_ms_p50": "pair_ms_p50",
              "op_ms_tail": "pair_ms_tail"},
}


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_library():
    if not (SRC / "moufang3" / "__init__.py").is_file():
        fail(f"no moufang3 sources under {SRC}", 2)
    sys.path.insert(0, str(SRC))
    import moufang3
    if Path(moufang3.__file__).resolve().parent != SRC / "moufang3":
        fail(f"moufang3 was imported from {moufang3.__file__}, not {SRC}", 2)


def provenance() -> dict:
    from moufang3 import kernel
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    rev = ""
    if (ROOT / ".git").exists():     # not a repository enclosing the checkout
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True).stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "moufang3").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".txt"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "backend": kernel.BACKEND,
        "speedups_importable":
            importlib.util.find_spec("moufang3._speedups") is not None,
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": rev or None,
        "source_sha256": digest.hexdigest(),
    }


def set_up() -> float:
    """Wall time of a fresh interpreter getting the library ready."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True,
                   env=dict(os.environ, PYTHONPATH=str(SRC)))
    return time.perf_counter() - t0


def timed_run(work, seconds):
    """Operations in a closed loop until `seconds` have passed.

    Each operation comes with a reference computation (see reference.py)
    timed in the same process just before and just after it, and each
    latency is also divided by the mean of the two; the quotient cancels
    the host's speed, which other tenants of a shared machine move by up
    to half for tens of seconds at a time.  The set-up samples are spread over the
    window too, one at a pass boundary every `seconds / SETUP_REPEATS`, so
    their median covers the same host states rather than one.
    """
    stream = work.ops()
    set_up()                            # writes the bytecode caches
    if work.name != "sweeps":
        op = next(work.ops())           # let lazy set-up finish untimed
        work.check(op, work.execute(op))
    lat_ms, rel, refs, passes, passes_rel = [], [], [], [], []
    pass_s = pass_rel = 0.0
    units, unit_s, attempted = 0, 0.0, 0
    setups, next_setup = [], time.perf_counter()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        op = next(stream)
        attempted += 1
        result, dt, ref = work.measure(op)
        work.check(op, result)
        samples = work.samples_ms(result, dt)
        lat_ms.extend(samples)
        rel.extend(x / ref for x in samples)
        refs.append(ref)
        n, s = work.work(result, dt)
        units += n
        unit_s += s
        pass_s += dt
        pass_rel += dt * 1000 / ref
        if attempted % work.pass_size == 0:
            passes.append(pass_s)
            passes_rel.append(pass_rel)
            pass_s = pass_rel = 0.0
            if time.perf_counter() >= next_setup:
                setups.append(set_up())
                next_setup += seconds / SETUP_REPEATS
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up())
    if hasattr(work, "after_window"):
        work.after_window()
    if not passes:
        fail("no pass completed; raise --seconds")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_rel": statistics.median(passes_rel),
        "op_rel_p50": statistics.median(rel),
        "op_rel_tail": percentile(rel, work.tail_pct),
        "peak_rss_mb": work.peak_rss_kb() / 1024,
    }
    raw = {
        "wall_s": statistics.median(passes),
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_tail": percentile(lat_ms, work.tail_pct),
        "throughput": units / unit_s,
        "ref_ms": statistics.median(refs),
    }
    return attempted, metrics, {"raw": raw, "tail_percentile": work.tail_pct,
                                "pass_s": passes, "op_ms": lat_ms,
                                "ref_ms": refs, "setup_s": setups}


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweeps", "audit", "assoc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    import_library()
    import layers
    import workloads

    prov = provenance()
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        work = workloads.WORKLOADS[args.workload](ROOT, args.seed)
        if args.trace:
            attempted = work.trace_ops
            values = layers.traced_run(work, args.seed,
                                       stem.with_suffix(".spans.tsv"))
            units = {}
            info = {}
        else:
            attempted, values, info = timed_run(work, args.seconds)
            units = UNITS
    except workloads.CheckFailed as exc:
        fail(f"correctness check failed: {exc}")

    metrics = {k: {"value": v, "unit": units.get(k, layer_unit(k))}
               for k, v in sorted(values.items())}
    raw = info.get("raw", {})
    aliases = {alias: raw[key]
               for key, alias in ALIASES[args.workload].items() if key in raw}
    if not args.trace:
        aliases["failed_ratio"] = 0.0
    print(json.dumps({"provenance": prov}))
    for name, m in metrics.items():
        print(f"{args.workload:>6} {name:<34} {m['value']:>14.6g} {m['unit']}")
    for name, value in raw.items():
        print(f"{args.workload:>6} {name:<34} {value:>14.6g} {UNITS[name]}"
              "  (not bounded)")
    for name, value in aliases.items():
        print(f"{args.workload:>6} {name:<34} {value:>14.6g}  (alias)")
    result = {"correct": True, "attempted": attempted, "failed": 0,
              "metrics": metrics}
    stem.with_suffix(".json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace, "provenance": prov,
         "info": info, "aliases": aliases, **result}, indent=1))
    print(json.dumps(result))


def layer_unit(name: str) -> str:
    if name.endswith("_calls") or name in ("kernel.draws",
                                           "symbolic.max_coord_terms"):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


if __name__ == "__main__":
    main()
