"""Bit-sliced batched identity sweeps: the pure backend's sweep kernel.

`LoopKernel` here is `_native.LoopKernel` with `sweep` replaced; products,
inverses and draws of single elements stay the scalar reference.  A sweep
runs CHUNK trials at a time, one trial per lane, and returns exactly what
`_native` returns: the same violation count, first failing trial and
witness, because every lane consumes the same xorshift-star stream.

Stream: trial i starts at the seed advanced by i times the trial's draw
count.  Lane start states come from that jump-ahead, a GF(2)-linear map of
the 64-bit state (Haramoto et al. 2008) applied as eight 256-entry byte
tables; then every lane steps together inside one int that gives each lane
a 128-bit slot, so the 126-bit product by the multiplier cannot spill into
the next lane.

Arithmetic: a column of trits, one per lane, is two bit-plane ints
(Boothby & Bradshaw 2009): `nz` has bit i set when lane i's trit is nonzero
and `sg` when it is 2.  GF(3) addition costs six big-int operations and
multiplication three, so one product of the loop evaluates the flattened
f table for every lane at once.
"""

from __future__ import annotations

from functools import lru_cache

from . import _native
from ._native import MASK64, RNG_MULTIPLIER

BACKEND = _native.BACKEND
SWEEP_NAMES = _native.SWEEP_NAMES
PolyEvaluator = _native.PolyEvaluator

# Trials evaluated together; the memory of one sweep is bounded by it.
CHUNK = 2048

_SLOT = 16                             # bytes per lane in the packed state
_PAD = bytes(_SLOT - 8)
_DRAW_WIDTH = {"e": 19, "t": 9}        # trits drawn per element kind
_BYTE_SUM = 0x0101010101010101         # v * this: byte 7 sums v's 8 bytes
# byte -> b"1" when its residue mod 3 is nonzero / is 2
_NZ_DIGIT = bytes(b"01"[v % 3 != 0] for v in range(256))
_SG_DIGIT = bytes(b"01"[v % 3 == 2] for v in range(256))

_ZERO = (0, 0)
_IDENTITY = (_ZERO,) * 19


# -- GF(3) on bit planes -----------------------------------------------------

def plane_add(a, b):
    a0, a1 = a
    b0, b1 = b
    return (a0 ^ b0) | (a0 ^ a1 ^ b1), (a0 ^ b1) & (a1 ^ b0)


def plane_mul(a, b):
    nz = a[0] & b[0]
    return nz, (a[1] ^ b[1]) & nz


def plane_neg(a):
    return a[0], a[0] ^ a[1]


class _Planes:
    """The loop's product and inverse evaluated lane-wise on bit planes.

    An element is a tuple of 19 plane pairs.  Constant monomials need the
    lane mask `ones`; the shipped tables have none.
    """

    def __init__(self, f_flat, h_flat, ones):
        self._f = [self._terms(t) for t in f_flat]
        self._h = [self._terms(t) for t in h_flat]
        self._ones = ones

    @staticmethod
    def _terms(terms):
        # (negate, codes) with the coefficient reduced mod 3, zeros dropped
        return [(coeff % 3 == 2, codes) for coeff, codes in terms if coeff % 3]

    def _poly(self, acc, terms, v):
        for negate, codes in terms:
            p = (self._ones, 0)
            for c in codes:
                p = plane_mul(p, v[c])
            acc = plane_add(acc, plane_neg(p) if negate else p)
        return acc

    def mul(self, x, y):
        v = x[:10] + y[:10]
        return tuple(self._poly(plane_add(a, b), terms, v)
                     for a, b, terms in zip(x, y, self._f))

    def inv(self, x):
        return tuple(self._poly(plane_neg(a), terms, x)
                     for a, terms in zip(x, self._h))

    def add(self, x, y):
        return tuple(map(plane_add, x, y))


def _differ(lhs, rhs):
    """Mask of the lanes where two plane tuples differ."""
    bad = 0
    for (a0, a1), (b0, b1) in zip(lhs, rhs):
        bad |= (a0 ^ b0) | (a1 ^ b1)
    return bad


def lane_trits(planes, lane):
    """One lane's trits out of a sequence of plane pairs."""
    return tuple(((nz >> lane) & 1) + ((sg >> lane) & 1) for nz, sg in planes)


# -- the lane-split xorshift-star stream -------------------------------------

def _step(s):
    s ^= s >> 12
    s = (s ^ (s << 25)) & MASK64
    return s ^ (s >> 27)


@lru_cache(maxsize=None)
def _jump_tables(stride):
    """Byte tables of the state map `stride` steps ahead.

    The step is linear over GF(2), so the image of a state is the XOR of
    the images of its set bits; table b maps byte b of the state to the XOR
    of the images of that byte's bits.
    """
    cols = []
    for bit in range(64):
        s = 1 << bit
        for _ in range(stride):
            s = _step(s)
        cols.append(s)
    tables = []
    for b in range(8):
        t = [0] * 256
        for v in range(1, 256):
            low = v & -v
            t[v] = t[v ^ low] ^ cols[8 * b + low.bit_length() - 1]
        tables.append(tuple(t))
    return tuple(tables)


def draw_columns(state, lanes, stride):
    """Draw `stride` trits per lane for `lanes` consecutive trials.

    Returns the columns, one (nz, sg) plane pair per draw, and the state
    after the last lane's draws.  Lane i's trits equal draws
    i*stride .. (i+1)*stride - 1 of `_native.random_element`'s stream.
    """
    t0, t1, t2, t3, t4, t5, t6, t7 = _jump_tables(stride)
    packed = bytearray()
    for _ in range(lanes):
        b = state.to_bytes(8, "little")
        packed += b
        packed += _PAD
        b0, b1, b2, b3, b4, b5, b6, b7 = b
        state = (t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3]
                 ^ t4[b4] ^ t5[b5] ^ t6[b6] ^ t7[b7])
    s = int.from_bytes(packed, "little")
    low = int.from_bytes((b"\xff" * 8 + _PAD) * lanes, "little")
    nibbles = int.from_bytes((b"\x0f" * 8 + _PAD) * lanes, "little")
    cols = []
    for _ in range(stride):
        s ^= s >> 12
        s &= low
        s ^= s << 25
        s &= low
        s ^= s >> 27
        s &= low
        # Each lane's output is the low 64 bits w of s * multiplier; w mod 3
        # is the sum of its 16 nibbles mod 3, which byte 7 of the slot holds
        # after the nibbles are spread into bytes and multiplied by
        # _BYTE_SUM (at most 240, so no byte carries).
        p = s * RNG_MULTIPLIER
        p = ((p & nibbles) + ((p >> 4) & nibbles)) * _BYTE_SUM
        # big-endian, lane `lanes`-1 first: lane i becomes bit i of the plane
        sums = p.to_bytes(_SLOT * lanes, "big")[_SLOT - 8::_SLOT]
        cols.append((int(sums.translate(_NZ_DIGIT), 2),
                     int(sums.translate(_SG_DIGIT), 2)))
    return cols, state


# -- the sweeps ----------------------------------------------------------------

# name -> (draws per trial, lhs, rhs).  A draw "e" is a 19-trit element and
# "t" a tail on coordinates 11..19, in the order _native draws them; a law
# of two equations concatenates their sides.
_LAWS = {
    "moufang": ("eee",
                lambda k, x, y, z: k.mul(k.mul(x, y), k.mul(z, x)),
                lambda k, x, y, z: k.mul(k.mul(x, k.mul(y, z)), x)),
    "left_alternative": ("ee",
                         lambda k, x, y: k.mul(k.mul(x, x), y),
                         lambda k, x, y: k.mul(x, k.mul(x, y))),
    "right_alternative": ("ee",
                          lambda k, x, y: k.mul(k.mul(y, x), x),
                          lambda k, x, y: k.mul(y, k.mul(x, x))),
    "flexible": ("ee",
                 lambda k, x, y: k.mul(k.mul(x, y), x),
                 lambda k, x, y: k.mul(x, k.mul(y, x))),
    "inverse": ("e",
                lambda k, x: k.mul(x, k.inv(x)) + k.mul(k.inv(x), x),
                lambda k, x: _IDENTITY + _IDENTITY),
    "tail_central": ("et",
                     lambda k, x, z: k.mul(x, z) + k.mul(z, x),
                     lambda k, x, z: k.add(x, z) + k.add(x, z)),
}


def _elements(cols, layout):
    """Split a chunk's columns into the drawn elements, per the layout."""
    out, at = [], 0
    for kind in layout:
        width = _DRAW_WIDTH[kind]
        out.append(tuple(cols[at:at + width]) if kind == "e"
                   else (_ZERO,) * 10 + tuple(cols[at:at + width]))
        at += width
    return out


class LoopKernel(_native.LoopKernel):
    """`_native.LoopKernel` whose sweeps run CHUNK trials per pass."""

    def sweep(self, name, seed, trials):
        """Run a named identity sweep; see `_native.LoopKernel.sweep`."""
        try:
            layout, lhs, rhs = _LAWS[name]
        except KeyError:
            raise ValueError(f"unknown sweep {name!r}") from None
        if not 0 <= seed <= MASK64:
            raise ValueError("rng state must be a 64-bit unsigned integer")
        stride = sum(_DRAW_WIDTH[kind] for kind in layout)
        violations, first, witness = 0, -1, None
        state = seed
        for start in range(0, trials, CHUNK):
            lanes = min(CHUNK, trials - start)
            cols, state = draw_columns(state, lanes, stride)
            xs = _elements(cols, layout)
            k = _Planes(self._f, self._h, (1 << lanes) - 1)
            bad = _differ(lhs(k, *xs), rhs(k, *xs))
            if bad:
                violations += bad.bit_count()
                if first < 0:
                    lane = (bad & -bad).bit_length() - 1
                    first = start + lane
                    witness = tuple(lane_trits(x, lane) for x in xs)
        return violations, first, witness
