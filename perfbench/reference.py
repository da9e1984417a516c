"""The reference computations that the operation latencies are divided by.

Each is a fixed piece of pure Python shaped like one kind of the library's
work, and calls nothing in moufang3, so a change to the library cannot move
it.  Timed next to an operation in the same process, it slows down with the
operation when other tenants take the CPU, and the quotient stays put.  How
much a tenant slows code down depends on the code, so the two kinds are
kept apart; each tracked its own workload to within 2% over 15 s windows
whose raw times moved by a quarter, where the other kind was off by 11-13%.

- "polys": a sparse product of two dict-of-monomial polynomials over GF(3)
  and a run of 19-tuple arithmetic, ~1.8 ms (the `audit` work);
- "kernel": a table-driven product of 19-tuples written like the pure
  kernel's `mul`, with a fixed random table, ~0.65 ms (`sweeps`, `assoc`).

Changing anything here changes the unit `ref` of the benchmark.
"""

from __future__ import annotations

import random
import statistics
import time

_rng = random.Random(7)
_P = {tuple(sorted(_rng.sample(range(20), 3))): _rng.randint(1, 2)
      for _ in range(40)}
_Q = {tuple(sorted(_rng.sample(range(20), 2))): _rng.randint(1, 2)
      for _ in range(30)}
_XS = [tuple(_rng.randrange(3) for _ in range(19)) for _ in range(64)]

_rng = random.Random(3)
_TABLE = [[(_rng.randint(1, 2), tuple(_rng.sample(range(20), _rng.randint(2, 4))))
           for _ in range(_rng.randint(0, 6))] for _ in range(19)]
_YS = [tuple(_rng.randrange(3) for _ in range(19)) for _ in range(64)]


def _polys():
    acc = {}
    for m1, c1 in _P.items():
        for m2, c2 in _Q.items():
            m = tuple(sorted(set(m1) | set(m2)))
            c = (acc.get(m, 0) + c1 * c2) % 3
            if c:
                acc[m] = c
            else:
                acc.pop(m, None)
    for x, y in zip(_XS, _XS[1:]):
        v = x[:10] + y[:10]
        tuple((a + b + v[i % 20] * v[i * 7 % 20]) % 3
              for i, (a, b) in enumerate(zip(x, y)))


def _kernel():
    for x, y in zip(_YS, _YS[1:]):
        v = x[:10] + y[:10]
        out = []
        for k in range(19):
            acc = x[k] + y[k]
            for coeff, codes in _TABLE[k]:
                p = coeff
                for c in codes:
                    p *= v[c]
                    if not p:
                        break
                acc += p
            out.append(acc % 3)


KINDS = {"polys": _polys, "kernel": _kernel}


def timed(kind: str, runs: int = 1) -> float:
    """Wall time of one reference computation in milliseconds, the median
    of `runs` back-to-back runs."""
    work = KINDS[kind]
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        work()
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)
