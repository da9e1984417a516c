"""The traced run: per-layer metrics from spans, a fixed probe and replays.

Per-layer values cover a fixed amount of work, so two commits can be
compared on them: the first `trace_ops` operations of the workload's
seeded stream, traced, plus one probe that is the same on every workload
and calls every traced layer once.  The probe is what gives a layer the
workload never calls a nonzero reading; the workload's own load shows as
the excess over it.

The kernel rates are replays through the public LoopKernel methods with
call counts computed from one sweep pass, not spans: a span around each
16 us product would mostly time the span.
"""

from __future__ import annotations

import math
import random
import time

from moufang3 import kernel, subloops, sweeps, tables
from moufang3.loop import basis, default_loop

import workloads as wl
from tracing import Tracer

# products per trial of each sweep, as the kernels run them
SWEEP_MULS = {"moufang": 6, "left_alternative": 4, "right_alternative": 4,
              "flexible": 4, "inverse": 2, "tail_central": 2}
PROBE_TRIALS = 60
PROBE_SAMPLES = 100
PROBE_SEED = 42
PROBE_OP = -2
CLOSURES = {"e3 e4": ((basis(3), basis(4)), 27), "e1": ((basis(1),), 3),
            "e19": ((basis(19),), 3)}


def probe(root):
    """One call into every traced layer, with fixed inputs and gates."""
    sw = wl.Sweeps(root, PROBE_SEED)
    sw.check(PROBE_SEED, sw.execute(PROBE_SEED, PROBE_TRIALS),
             PROBE_TRIALS)
    audit = wl.Audit(None, PROBE_SEED)
    mutated = audit.f_text.replace(*wl.GATE_EDIT)
    for f_text, edited in ((audit.f_text, False), (mutated, True)):
        op = (f_text, audit.h_text, edited, PROBE_SEED)
        result = audit.execute(op)
        audit.check(op, result)
        wl.require(all(r.proved for r in result[1]) != edited,
                   "the probe's table edit was not refuted")
    lp = default_loop()
    count = subloops.count_l_set(lp, basis(3), basis(4))
    wl.require(count.head_count == wl.LCD_HEAD_COUNT, "probe |l_(e3,e4)| wrong")
    est = subloops.density_sample(lp, basis(3), basis(4), seed=PROBE_SEED,
                                  trials=PROBE_SAMPLES)
    p, n = count.head_count / wl.HEAD_TOTAL, PROBE_SAMPLES
    wl.require(abs(est.hits - n * p) <= 4 * math.sqrt(n * p * (1 - p)),
               "probe density sample is more than 4 sigma off")
    for label, (gens, order) in CLOSURES.items():
        result = subloops.closure(lp, gens)
        wl.require(result.order == order and result.closed,
                   f"closure({label}) has order {result.order}, want {order}")


def replay(work, seed):
    """Kernel rates, the brute-force count and the verify process overhead.

    Untraced and timed once each; returns per-layer metrics.
    """
    f, h = tables.f_table(), tables.h_table()
    k = kernel.LoopKernel(tables.compile_concrete(f), tables.compile_concrete(h))
    trials = wl.SWEEP_TRIALS
    draws = trials * sum(d.count("e") for d in wl.SWEEP_DRAWS.values())
    muls = trials * sum(SWEEP_MULS.values())
    out = {"kernel.draws": draws, "kernel.mul_calls": muls,
           "kernel.inv_calls": trials}

    state = wl.seed64(random.Random(seed))
    pool = []
    t0 = time.perf_counter()
    for i in range(draws):
        x, state = k.random_element(state)
        if i < 512:
            pool.append(x)
    out["kernel.rng_s"] = time.perf_counter() - t0

    pairs = list(zip(pool, pool[1:] + pool[:1]))
    t0 = time.perf_counter()
    for i in range(muls):
        k.mul(*pairs[i % 512])
    out["kernel.mul_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for i in range(trials):
        k.inv(pool[i % 512])
    out["kernel.inv_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    brute = subloops.brute_count_l_set(default_loop(), basis(3), basis(4))
    out["subloops.brute_count_l_set_s"] = time.perf_counter() - t0
    wl.require(brute.head_count == wl.LCD_HEAD_COUNT,
               f"brute-force |l_(e3,e4)| heads = {brute.head_count}")

    sw = wl.Sweeps(work.root, seed)
    verify_seed = next(sw.ops())
    process, seconds, _ = sw.measure(verify_seed)
    sw.check(verify_seed, process)
    out["cli.process_overhead_s"] = seconds - sw.main_s
    return out


def traced_run(work, seed, spans_path):
    """Per-layer metrics of one workload; also writes the spans.

    Each of the first `trace_ops` operations runs twice, untraced and then
    traced, so the two timings that give the tracing overhead see the
    host in the same state.
    """
    tracer = Tracer()
    untraced = traced = 0.0
    for i, op in zip(range(work.trace_ops), work.ops()):
        t0 = time.perf_counter()
        result = work.execute(op)
        untraced += time.perf_counter() - t0
        work.check(op, result)
        tracer.op_id = i
        tracer.install()
        try:
            t0 = time.perf_counter()
            result = tracer.call(work.name + ".op", work.execute, op)
            traced += time.perf_counter() - t0
        finally:
            tracer.uninstall()
        work.check(op, result)
    tracer.op_id = PROBE_OP
    tracer.install()
    try:
        tracer.call("probe", probe, work.root)
    finally:
        tracer.uninstall()
    if hasattr(work, "after_window"):
        work.after_window()
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_ratio"] = traced / untraced - 1
    metrics.update(replay(work, seed))
    tracer.write(spans_path)
    return metrics


def layer_metrics(tracer: Tracer) -> dict:
    agg = tracer.aggregate()

    def total(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    out = {}
    sweep_s = 0.0
    for law in sweeps.SWEEP_NAMES:
        out[f"sweeps.{law}_s"] = total("sweeps." + law)
        sweep_s += out[f"sweeps.{law}_s"]
    out["sweeps.trials_per_s"] = tracer.sweep_trials / sweep_s
    out["kernel.count_all_zero_s"] = total("kernel.count_all_zero")
    out["kernel.points_per_s"] = tracer.points / out["kernel.count_all_zero_s"]
    for method in ("mul", "inverse", "left_div", "associator",
                   "random_element"):
        calls, _, own = agg.get("loop." + method, (0, 0.0, 0.0))
        out[f"loop.{method}_calls"] = calls
        out[f"loop.{method}_self_s"] = own
    out["loop.build_s"] = total("loop.build")
    for fn in ("count_l_set", "density_sample", "closure"):
        out[f"subloops.{fn}_s"] = total("subloops." + fn)
    for claim in wl.CLAIMS:
        out[f"symbolic.prove_{claim}_s"] = total("symbolic.prove_" + claim)
    out["symbolic.associator_variety_s"] = total("symbolic.associator_variety")
    calls, _, own = agg["symbolic.mul"]
    out["symbolic.mul_calls"], out["symbolic.mul_self_s"] = calls, own
    out["symbolic.refuted_ratio"] = tracer.refuted / tracer.proofs
    out["symbolic.max_coord_terms"] = tracer.max_coord_terms
    calls, _, own = agg["polys.substitute"]
    out["polys.substitute_calls"], out["polys.substitute_self_s"] = calls, own
    out["polys.flatten_polys_s"] = total("polys.flatten_polys")
    for fn in ("parse_table", "validate_table", "compile_concrete"):
        out[f"tables.{fn}_s"] = total("tables." + fn)
    out["cli.run_verification_s"] = total("cli.run_verification")
    return out
