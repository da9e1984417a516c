"""Bit-sliced batched identity sweeps: the pure backend's sweep kernel.

`LoopKernel` here is `_native.LoopKernel` with `sweep` replaced and
`sweep_many` added; products, inverses and draws of single elements stay
the scalar reference.  A sweep runs CHUNK lanes per pass and returns
exactly what `_native` returns: the same violation count, first failing
trial and witness, because every lane consumes the same xorshift-star
stream and evaluates the same law of `_native.LAWS`, on bit planes.

Blocks, groups and trials: each lane holds one block of consecutive draws
of the stream ("e" a 19-trit element, "t" a 9-trit tail on coordinates
11..19), lane L the L-th block.  A law that reads k draws per trial, run on
a block of r*k draws, has r groups: group g of lane L is trial r*L + g and
reads draws g*k .. g*k + k - 1 of the block.  `sweep` runs one law on its
own layout, so r = 1 and lane L is trial L.  `sweep_many` draws the
element stream once for all the laws that read only elements, on a block
of 6 elements: Moufang (k = 3) has 2 groups, the alternative and flexible
laws (k = 2) 3 each and the inverse law (k = 1) 6.  Each group is masked to
the lanes whose trial is below the budget; the first failing trial is the
least over all groups, and the witness is read from that group's lane.
`tail_central` draws a tail and keeps its own layout "et".

Stream: lane L starts at the seed advanced by L times the block's draw
count.  Lane start states come from that jump-ahead, a GF(2)-linear map of
the 64-bit state (Haramoto et al. 2008) applied as eight 256-entry byte
tables; then every lane steps together inside one int that gives each lane
a 128-bit slot, so the 126-bit product by the multiplier cannot spill into
the next lane.  The tables are built the same way, by stepping the 64 unit
vectors together in one packed int.

Arithmetic: a column of trits, one per lane, is two bit-plane ints
(Boothby & Bradshaw 2009): `nz` has bit i set when lane i's trit is nonzero
and `sg` when it is 2.  GF(3) addition costs six big-int operations and
multiplication three, so one product of the loop evaluates the flattened
f table for every lane at once.  The r groups of a law are stacked side by
side into planes r lanes-widths wide, so one evaluation covers them all.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from time import perf_counter

from . import _native
from ._native import LAWS, RNG_MULTIPLIER, _check_names, _check_seed

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

    identity = (_ZERO,) * 19

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


@lru_cache(maxsize=None)
def _jump_tables(stride):
    """Byte tables of the state map `stride` steps ahead.

    The step is linear over GF(2), so the image of a state is the XOR of
    the images of its set bits; table b maps byte b of the state to the XOR
    of the images of that byte's bits.  The 64 unit vectors step together
    as the lanes of one packed int.
    """
    s, low = _packed(1 << bit for bit in range(64)), _slot_mask(64, 0xff)
    for _ in range(stride):
        s = _advance(s, low)
    raw = s.to_bytes(_SLOT * 64, "little")
    cols = [int.from_bytes(raw[_SLOT * bit:_SLOT * bit + 8], "little")
            for bit in range(64)]
    tables = []
    for b in range(8):
        t = [0] * 256
        for v in range(1, 256):
            low = v & -v
            t[v] = t[v ^ low] ^ cols[8 * b + low.bit_length() - 1]
        tables.append(tuple(t))
    return tuple(tables)


def draw_columns(state, lanes, stride):
    """Draw `stride` trits per lane for `lanes` consecutive blocks.

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

def _elements(cols, layout):
    """Split a chunk's columns into the drawn elements, per the layout."""
    out, at = [], 0
    for kind in layout:
        width = _DRAW_WIDTH[kind]
        out.append(tuple(cols[at:at + width]) if kind == "e"
                   else (_ZERO,) * 10 + tuple(cols[at:at + width]))
        at += width
    return out


def _stack(groups, width):
    """Each group's elements cut to `width` lanes, group g at bit g*width."""
    if len(groups) == 1:
        return groups[0]
    keep = (1 << width) - 1
    out = []
    for elems in zip(*groups):
        coords = []
        for planes in zip(*elems):
            nz = sg = 0
            for a, b in reversed(planes):
                nz = (nz << width) | (a & keep)
                sg = (sg << width) | (b & keep)
            coords.append((nz, sg))
        out.append(tuple(coords))
    return out


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


def _passes(names):
    """(block, names) per pass over the stream: the laws that read only
    elements share one block, each other law runs alone on its layout."""
    shared = tuple(n for n in names if set(LAWS[n].layout) == {"e"})
    alone = [(LAWS[n].layout, (n,)) for n in names if n not in shared]
    if not shared:
        return alone
    block = "e" * lcm(*(len(LAWS[n].layout) for n in shared))
    return [(block, shared)] + alone


class LoopKernel(_native.LoopKernel):
    """`_native.LoopKernel` whose sweeps run CHUNK lanes per pass."""

    def sweep(self, name, seed, trials):
        """Run a named identity sweep; see `_native.LoopKernel.sweep`."""
        _check_names((name,))
        _check_seed(seed)
        results, _ = self._drive(LAWS[name].layout, (name,), seed, trials)
        return results[name]

    def sweep_many(self, names, seed, trials):
        """Several sweeps from one seed, each shared stream drawn once.

        Returns (results, seconds), both keyed by name: what `sweep`
        returns, and the seconds of the passes attributed to the sweep
        (see `_drive`), which sum to the wall time of the passes.
        """
        names = tuple(names)
        _check_names(names)
        if len(set(names)) < len(names):
            raise ValueError(f"duplicate sweep names in {names}")
        _check_seed(seed)
        if trials < 0:
            raise ValueError("trials must be >= 0")
        results, seconds = {}, {}
        for block, group in _passes(names):
            r, s = self._drive(block, group, seed, trials)
            results.update(r)
            seconds.update(s)
        return ({n: results[n] for n in names},
                {n: seconds[n] for n in names})

    def _drive(self, block, names, seed, trials):
        """Sweep the named laws over one stream of `block` draws per lane.

        Every law's layout must tile the block.  Returns the results and,
        per law, its own evaluation time plus a share of the rest of the
        pass (the draws) in proportion to the draws its trials read.
        """
        t_pass = perf_counter()
        laws = []
        for name in names:
            _, layout, lhs, rhs = LAWS[name]
            laws.append((name, len(layout), len(block) // len(layout),
                         lhs, rhs))
        lanes_needed = max(-(-trials // r) for _, _, r, _, _ in laws)
        stride = sum(_DRAW_WIDTH[kind] for kind in block)
        found = {name: [0, -1, None] for name in names}
        own = dict.fromkeys(names, 0.0)
        state = seed
        for start in range(0, lanes_needed, CHUNK):
            lanes = min(CHUNK, lanes_needed - start)
            cols, state = draw_columns(state, lanes, stride)
            drawn = _elements(cols, block)
            for name, k, r, lhs, rhs in laws:
                t0 = perf_counter()
                # lanes of this chunk whose group-g trial is in the budget
                counts = [min(lanes, -(-(trials - g) // r) - start)
                          for g in range(r)]
                width = counts[0]
                if width > 0:
                    xs = _stack([drawn[g * k:(g + 1) * k] for g in range(r)],
                                width)
                    mask = 0
                    for g, n in enumerate(counts):
                        if n > 0:
                            mask |= ((1 << n) - 1) << (g * width)
                    p = _Planes(self._f, self._h, (1 << (r * width)) - 1)
                    bad = _differ(lhs(p, *xs), rhs(p, *xs)) & mask
                    if bad:
                        entry = found[name]
                        entry[0] += bad.bit_count()
                        if entry[1] < 0:
                            entry[1], bit = _first_failure(bad, r, width,
                                                           start)
                            entry[2] = tuple(lane_trits(x, bit) for x in xs)
                own[name] += perf_counter() - t0
        rest = perf_counter() - t_pass - sum(own.values())
        reads = sum(k for _, k, _, _, _ in laws)
        seconds = {name: own[name] + rest * k / reads
                   for name, k, _, _, _ in laws}
        return {name: tuple(found[name]) for name in names}, seconds
