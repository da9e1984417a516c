#!/usr/bin/env python3
"""Throughput comparison of the compiled and pure-Python kernels.

Runs the same workloads against both backends (when the extension is
built) and prints a table with the speedup.  The pure backend is the
scalar `_native` kernel with the batched sweeps of `_batch`; its scalar
sweep is shown on a row of its own.  Workload sizes of the scalar code are
scaled down for the pure backend; rates are normalized per operation.

Usage: python benchmarks/bench_kernels.py [--mul N] [--sweep N] [--seed S]
"""

import argparse
import time

from moufang3 import _native, tables
from moufang3._batch import LoopKernel as PureKernel
from moufang3._batch import PolyEvaluator as PureEvaluator
from moufang3.loop import basis, default_loop
from moufang3.polys import Var, flatten_polys
from moufang3.symbolic import SymbolicLoop

try:
    from moufang3._speedups import LoopKernel as FastKernel
    from moufang3._speedups import PolyEvaluator as FastEvaluator
except ImportError:
    FastKernel = FastEvaluator = None


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def sweep_rate(sweep, seed, trials):
    (violations, _, _), dt = timed(sweep, "moufang", seed, trials)
    assert violations == 0
    return trials / dt


def bench_backend(make_kernel, make_evaluator, scale, args):
    f = tables.compile_concrete(tables.f_table())
    h = tables.compile_concrete(tables.h_table())
    kernel = make_kernel(f, h)
    rates = {}

    n_mul = max(args.mul // scale, 1)
    xs = []
    state = args.seed
    for _ in range(512):
        x, state = kernel.random_element(state)
        xs.append(x)
    pairs = list(zip(xs, xs[1:] + xs[:1]))

    t0 = time.perf_counter()
    done = 0
    while done < n_mul:
        for x, y in pairs:
            kernel.mul(x, y)
        done += len(pairs)
    rates["mul (ops/s)"] = done / (time.perf_counter() - t0)

    t0 = time.perf_counter()
    done = 0
    while done < n_mul:
        for x in xs:
            kernel.inv(x)
        done += len(xs)
    rates["inverse (ops/s)"] = done / (time.perf_counter() - t0)

    rates["moufang sweep (trials/s)"] = sweep_rate(kernel.sweep, args.seed,
                                                  args.sweep)
    if isinstance(kernel, _native.LoopKernel):      # the pure backend
        rates["scalar moufang sweep, _native (trials/s)"] = sweep_rate(
            _native.LoopKernel(f, h).sweep, args.seed,
            max(args.sweep // scale, 1))

    variety = SymbolicLoop(default_loop()).associator_variety(basis(3), basis(4))
    head = [Var("x", i) for i in range(1, 11)]
    flat = flatten_polys(variety.coords, head)
    evaluator = make_evaluator(flat, 10)
    count, dt = timed(evaluator.count_all_zero)
    assert count == 19683
    rates["variety count (points/s)"] = 3 ** 10 / dt

    return rates


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mul", type=int, default=200_000,
                        help="multiplication ops for the compiled backend")
    parser.add_argument("--sweep", type=int, default=200_000,
                        help="moufang sweep trials of each backend's kernel")
    parser.add_argument("--pure-scale", type=int, default=50,
                        help="divide the scalar workloads by this for the "
                             "pure backend")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    results = {"pure": bench_backend(PureKernel, PureEvaluator,
                                     args.pure_scale, args)}
    if FastKernel is None:
        print("compiled extension not built; showing the pure backend only")
    else:
        results["compiled"] = bench_backend(FastKernel, FastEvaluator, 1, args)

    names = list(results["pure"])
    width = max(len(n) for n in names)
    header = f"{'workload':<{width}}" + "".join(
        f"  {b:>14}" for b in results) + ("        speedup"
                                          if len(results) == 2 else "")
    print(header)
    print("-" * len(header))
    for name in names:
        row = f"{name:<{width}}"
        for backend in results:
            rate = results[backend].get(name)
            row += f"  {rate:>14,.0f}" if rate is not None else f"  {'-':>14}"
        if len(results) == 2 and name in results["compiled"]:
            row += f"  {results['compiled'][name] / results['pure'][name]:>12.1f}x"
        print(row)


if __name__ == "__main__":
    main()
