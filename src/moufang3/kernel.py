"""The evaluation kernel, pure Python throughout (`BACKEND`): bit-sliced
GF(3) arithmetic for the identity sweeps and the variety count.

`LoopKernel` is `_native.LoopKernel` with `sweep` replaced and `sweep_many`
added; products, inverses and draws of single elements stay the scalar
reference.  It trusts its inputs: `loop.Loop` and `symbolic.embed` are
where elements are checked.  A sweep runs CHUNK lanes per pass and returns
exactly what `_native` returns: the same violation count, first failing
trial and witness, because every lane consumes the same xorshift-star
stream and evaluates the same law of `_native.LAWS`, on bit planes.

One block for every law: each lane holds BLOCK consecutive trits of the
stream, lane L the L-th block.  A trial reads w = `Law.trits` trits, the
sum of its law's `draws` (N = 19 an element, N - HEAD = 9 a tail): 57 for
Moufang, 38 for each alternative law and flexibility, 19 for the inverse
law and 28 for `tail_central`.  BLOCK = lcm(57, 38, 19, 28) = 1596 is the
least block that every w divides, so every law's trials tile a lane
exactly: a law has r = BLOCK / w groups per lane (28, 42, 42, 42, 84 and
57), and group g of lane L is trial r*L + g, reading the block's trits
g*w .. g*w + w - 1.
One draw per chunk therefore serves every law, and since all sweeps restart
from one seed, `sweep_many` evaluates all of them on it.  It returns their
results only; `sweeps.SharedSweeps` times the pass.  Each group is masked
to the lanes whose trial is below the budget; the first failing trial is
the least over all groups, and the witness is read from that group's lane.

Stream: lane L starts at the seed advanced by L*BLOCK steps.  Lane start
states come from that jump-ahead, a GF(2)-linear map of the 64-bit state
(Haramoto et al. 2008) applied as eight 256-entry byte tables; then every
lane steps together inside one int that gives each lane a 128-bit slot, so
the 126-bit product by the multiplier cannot spill into the next lane.
The tables are built the same way, by stepping the 64 unit vectors
together in one packed int, or for an even stride from the tables of half
of it.

Arithmetic: a column of trits, one per lane, is two bit-plane ints
(Boothby & Bradshaw 2009): `nz` has bit i set when lane i's trit is nonzero
and `sg` when it is 2.  GF(3) addition costs six big-int operations and
multiplication three, so one product of the loop evaluates the flattened
f table for every lane at once, read in the one flat format that the
scalar kernel reads too (`_native.flat_terms`).  The r groups of a law are
stacked side by side into planes r lane-widths wide, so one evaluation
covers them all; laws of the same `draws` share the stacked planes.

Counting: `PolyEvaluator.count_all_zero` evaluates a system of flattened
polynomials in at most HEAD variables, one lane per point of F_3^n (a head),
through the same term evaluator `_poly` as the loop's product, and counts
the lanes where every polynomial's nonzero plane is clear.
`subloops.count_l_set` counts the associator variety this way.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from . import _native
from ._native import HEAD, LAWS, N, RNG_MULTIPLIER, _check_sweep, flat_terms

BACKEND = "pure"

# Lanes drawn and evaluated together; the memory of a pass is bounded by it.
CHUNK = 2048

_SLOT = 16                             # bytes per lane in the packed state
_PAD = bytes(_SLOT - 8)
_BYTE_SUM = 0x0101010101010101         # v * this: byte 7 sums v's 8 bytes
# byte -> b"1" when its residue mod 3 is nonzero / is 2
_NZ_DIGIT = bytes(b"01"[v % 3 != 0] for v in range(256))
_SG_DIGIT = bytes(b"01"[v % 3 == 2] for v in range(256))

_ZERO = (0, 0)


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


def _poly(acc, terms, v, ones):
    """acc plus the polynomial `terms` (see `_native.flat_terms`) at the
    planes `v`.

    Each term is a product chain from the lane mask `ones`, so a constant
    term is `ones` itself and x*x is x's nonzero plane.
    """
    for coeff, codes in terms:
        p = (ones, 0)
        for c in codes:
            p = plane_mul(p, v[c])
        acc = plane_add(acc, plane_neg(p) if coeff == 2 else p)
    return acc


class _Planes:
    """The loop's product and inverse evaluated lane-wise on bit planes.

    An element is a tuple of N plane pairs.  Constant monomials need the
    lane mask `ones`; the shipped tables have none.
    """

    identity = (_ZERO,) * N

    def __init__(self, f, h, ones):
        self._f, self._h, self._ones = f, h, ones

    def mul(self, x, y):
        v, ones = x[:HEAD] + y[:HEAD], self._ones
        return tuple(_poly(plane_add(a, b), terms, v, ones)
                     for a, b, terms in zip(x, y, self._f))

    def inv(self, x):
        ones = self._ones
        return tuple(_poly(plane_neg(a), terms, x, ones)
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


# -- counting the zeros of a polynomial system ---------------------------------


@lru_cache(maxsize=None)
def _point_planes(n):
    """Plane pairs of coordinates 0..n-1 over the 3^n points of F_3^n.

    Lane L is the point whose coordinate j is digit j of L in base 3, so
    coordinate j's trits repeat with period 3^(j+1): 3^j zeros, 3^j ones,
    3^j twos.
    """
    out = []
    for j in range(n):
        run, periods = 3 ** j, 3 ** (n - j - 1)
        # int(.., 2) reads the last character as lane 0
        out.append((int(("1" * (2 * run) + "0" * run) * periods, 2),
                    int(("1" * run + "0" * (2 * run)) * periods, 2)))
    return tuple(out)


class PolyEvaluator:
    """Evaluator of flattened polynomials (see polys.flatten_polys) in
    `nvars` variables: one point at a time, or, in at most HEAD
    variables, all 3^nvars at once on bit planes."""

    def __init__(self, flat, nvars):
        self._polys = flat_terms(flat, nvars)
        self.nvars = nvars

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
        """Count points of F_3^nvars where every polynomial vanishes.

        Each point gets a lane, from `_point_planes`, so nvars is at most
        HEAD.  Every polynomial is evaluated once for all lanes;
        their nonzero planes are ORed and the lanes left clear counted.
        """
        n = self.nvars
        if n > HEAD:
            raise ValueError("refusing to enumerate 3^%d points" % n)
        lanes = 3 ** n
        ones, planes = (1 << lanes) - 1, _point_planes(n)
        nonzero = 0
        for terms in self._polys:
            nonzero |= _poly(_ZERO, terms, planes, ones)[0]
        return lanes - nonzero.bit_count()


# -- the lane-split xorshift-star stream -------------------------------------

def _packed(states):
    """Lane i's 64-bit state in the low half of 128-bit slot i of one int."""
    return int.from_bytes(b"".join(s.to_bytes(8, "little") + _PAD
                                   for s in states), "little")


def _slot_mask(lanes, byte):
    """`byte` in the eight low bytes of every slot."""
    return int.from_bytes((bytes((byte,)) * 8 + _PAD) * lanes, "little")


def _advance(s, low):
    """One xorshift step of every packed lane; `low` is _slot_mask(.., 0xff)."""
    s ^= s >> 12
    s &= low
    s ^= s << 25
    s &= low
    s ^= s >> 27
    return s & low


def _jump(tables, state):
    """`state` advanced by the stride of `tables` (see `_jump_tables`)."""
    t0, t1, t2, t3, t4, t5, t6, t7 = tables
    b0, b1, b2, b3, b4, b5, b6, b7 = state.to_bytes(8, "little")
    return (t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3]
            ^ t4[b4] ^ t5[b5] ^ t6[b6] ^ t7[b7])


@lru_cache(maxsize=None)
def _jump_tables(stride):
    """Byte tables of the state map `stride` steps ahead.

    The step is linear over GF(2), so the image of a state is the XOR of
    the images of its set bits; table b maps byte b of the state to the XOR
    of the images of that byte's bits.  An even stride maps each unit
    vector twice by the tables of half the stride, so BLOCK = 4 * 399 takes
    399 steps; otherwise the 64 unit vectors step together as the lanes of
    one packed int.
    """
    if stride > 1 and stride % 2 == 0:
        half = _jump_tables(stride // 2)
        cols = [_jump(half, half[bit >> 3][1 << (bit & 7)])
                for bit in range(64)]
    else:
        s, low = _packed(1 << bit for bit in range(64)), _slot_mask(64, 0xff)
        for _ in range(stride):
            s = _advance(s, low)
        raw = s.to_bytes(_SLOT * 64, "little")
        cols = [int.from_bytes(raw[_SLOT * bit:_SLOT * bit + 8], "little")
                for bit in range(64)]
    tables = []
    for b in range(8):
        t = [0]
        for col in cols[8 * b:8 * b + 8]:
            t += [v ^ col for v in t]
        tables.append(tuple(t))
    return tuple(tables)


def draw_columns(state, lanes, stride):
    """Draw `stride` trits per lane for `lanes` consecutive blocks.

    Returns the columns, one (nz, sg) plane pair per draw, and the state
    after the last lane's draws.  Lane i's trits equal draws
    i*stride .. (i+1)*stride - 1 of `_native.random_element`'s stream.
    """
    tables = _jump_tables(stride)
    packed = bytearray()
    for _ in range(lanes):
        packed += state.to_bytes(8, "little")
        packed += _PAD
        state = _jump(tables, state)
    s = int.from_bytes(packed, "little")
    low, nibbles = _slot_mask(lanes, 0xff), _slot_mask(lanes, 0x0f)
    cols = []
    for _ in range(stride):
        s = _advance(s, low)
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

# Trits per lane: the least block that the trials of every law tile.
BLOCK = lcm(*(law.trits for law in LAWS.values()))


def _stack(cols, law, width):
    """A law's drawn elements for every group of a chunk, stacked.

    A trial reads w = law.trits trits, so column j of group g is
    cols[g*w + j].  Each group's column is cut to `width` lanes and put at
    bit g*width; the stacked columns are then placed per the law's `draws`.
    """
    w, keep = law.trits, (1 << width) - 1
    stacked = []
    for j in range(w):
        nz = sg = 0
        for a, b in reversed(cols[j::w]):
            nz = (nz << width) | (a & keep)
            sg = (sg << width) | (b & keep)
        stacked.append((nz, sg))
    return law.place(_Planes.identity, stacked)


def _first_failure(bad, groups, width, start):
    """(trial, bit) of the least failing trial among stacked groups."""
    keep = (1 << width) - 1
    first = None
    for g in range(groups):
        part = (bad >> (g * width)) & keep
        if part:
            lane = (part & -part).bit_length() - 1
            here = (groups * (start + lane) + g, g * width + lane)
            first = here if first is None else min(first, here)
    return first


class LoopKernel(_native.LoopKernel):
    """`_native.LoopKernel` whose sweeps run CHUNK lanes per pass."""

    def sweep(self, name, seed, trials):
        """Run a named identity sweep; see `_native.LoopKernel.sweep`."""
        return self.sweep_many((name,), seed, trials)[name]

    def sweep_many(self, names, seed, trials):
        """Several sweeps from one seed, on one draw of the stream: what
        `_native.LoopKernel.sweep` returns, keyed by name."""
        names = tuple(names)
        _check_sweep(names, seed, trials)
        laws = [(name, LAWS[name], BLOCK // LAWS[name].trits)
                for name in names]
        lanes_needed = max(-(-trials // r) for _, _, r in laws)
        found = {name: [0, -1, None] for name in names}
        state = seed
        for start in range(0, lanes_needed, CHUNK):
            lanes = min(CHUNK, lanes_needed - start)
            cols, state = draw_columns(state, lanes, BLOCK)
            stacked = {}
            for name, law, r in laws:
                # lanes of this chunk whose group-g trial is in the budget
                counts = [min(lanes, -(-(trials - g) // r) - start)
                          for g in range(r)]
                width = counts[0]
                if width <= 0:
                    continue
                # laws of the same draws have the same r, so the same width
                if law.draws not in stacked:
                    stacked[law.draws] = _stack(cols, law, width)
                xs = stacked[law.draws]
                mask = 0
                for g, n in enumerate(counts):
                    if n > 0:
                        mask |= ((1 << n) - 1) << (g * width)
                p = _Planes(self._f, self._h, (1 << (r * width)) - 1)
                bad = _differ(law.lhs(p, *xs), law.rhs(p, *xs)) & mask
                if bad:
                    entry = found[name]
                    entry[0] += bad.bit_count()
                    if entry[1] < 0:
                        entry[1], bit = _first_failure(bad, r, width, start)
                        entry[2] = tuple(lane_trits(x, bit) for x in xs)
        return {name: tuple(found[name]) for name in names}
