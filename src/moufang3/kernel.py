"""The evaluation kernel, pure Python throughout (`BACKEND`): bit-sliced
GF(3) arithmetic for the identity sweeps and the variety count.

`LoopKernel` is `_native.LoopKernel` with `sweep` replaced and `sweep_many`
added; products, inverses and draws of single elements stay the scalar
reference.  It trusts its inputs: `loop.Loop` and `symbolic.embed` are
where elements are checked.  A sweep returns exactly what `_native`
returns: the same violation count, first failing trial and witness, from
the same xorshift-star stream and the same law of `_native.LAWS`, evaluated
for many trials at once on bit planes.  Since all sweeps restart from one
seed, `sweep_many` draws the stream once and evaluates all of them on it;
`sweeps.SharedSweeps` times the pass.

Heads only: a verdict reads only the head trits of a trial, the ones
`Law.place` puts on coordinates 1..HEAD (`Law.heads`).  The tables read
heads only, so a tail enters every product and inverse additively, and
every law has the same drawn elements with the same signs on both sides,
so the tails cancel from lhs - rhs.  A law added to `LAWS` must keep this:
`tests/test_law_oracle.py` checks it on zero tables, where the sides are
linear.  The draw computes head trits only and the laws read zero tails;
the witness of a failing law is redrawn whole with `_native._trits`.

Lanes: a pass draws lanes of S consecutive trits of the stream, lane L the
L-th block of S.  A trial reads w = `Law.trits` trits, the sum of its
law's `draws` (N = 19 an element, N - HEAD = 9 a tail): 57 for Moufang, 38
for each alternative law and flexibility, 19 for the inverse law and 28
for `tail_central`.  S is UNIT * m, UNIT = lcm(57, 38, 19) = 114, for the
least m in 1..13 that draws the pass as one chunk of ceil(w * trials / S)
lanes, w the widest trial of the pass (`lane_stride`); every other pass
takes BLOCK = 14 * UNIT = lcm(57, 38, 19, 28) = 1596 trits a lane, over as
many chunks of at most CHUNK lanes as it needs.  So a chunk holds whole
trials of every law, and a `verify --trials 2000` pass is one chunk of
1000 lanes of 114 trits.

Stream: lane L starts at the seed advanced by L*S steps, from the jump-
ahead by S, a GF(2)-linear map of the 64-bit state (Haramoto et al. 2008)
applied as eight 256-entry byte tables, built by stepping the 64 unit
vectors together in one packed int.  The start states are packed lane-
major, lane i in 64-bit slot i of one int, and all lanes step together S
times.  For the 126-bit product by the multiplier, slot 2i multiplies in
the low and slot 2i+1 in the high half of 16-byte pair i, then nibble sums
reduce each output mod 3 into one byte.  `draw_lanes` computes step j's
outputs only for the leading lanes up to the last that holds a head trit
of a trial within the budget (`head_reach`), collects eight steps' bytes in
one int, converted by one `to_bytes` call, and stores each step with one
strided slice into a bytearray in stream order: byte p is draw p.

Trials: each law reads the n trials of a chunk as planes of one lane per
trial, trial i at bit i: its trit j is the bytearray's bytes j, j + w, ..,
parsed for the head offsets j and zero for the others.  The first failing
trial is the lowest set bit of the lanes where the sides differ.

Arithmetic: a column of trits, one per lane, is two bit-plane ints
(Boothby & Bradshaw 2009): `nz` has bit i set when lane i's trit is nonzero
and `sg` when it is 2.  GF(3) addition costs six big-int operations and
multiplication three, so one product of the loop evaluates the flattened
f table for every lane at once, read in the one flat format that the
scalar kernel reads too (`_native.flat_terms`): `_poly` is its one reader
on bit planes, as `_native.term_sums` is at one point.  Laws of the same
`draws` share their planes and their products of two drawn elements.

Counting: `PolyEvaluator.count_all_zero` evaluates a system of flattened
polynomials in at most HEAD variables, one lane per point of F_3^n (a head),
through the same term evaluator `_poly` as the loop's product, and counts
the lanes where every polynomial's nonzero plane is clear.
`subloops.count_l_set` counts the associator variety this way.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from struct import pack

from . import _native
from ._native import (HEAD, LAWS, N, RNG_MULTIPLIER, _check_sweep, _trits,
                      flat_terms, term_sums)

BACKEND = "pure"

# Lanes drawn and evaluated together; the memory of a pass is bounded by it.
CHUNK = 2048

# v * this: byte 7 sums v's bytes 0..7, and byte 15 its bytes 8..15
_BYTE_SUM = 0x0101010101010101
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
    planes `v`, with `plane_mul`, `plane_neg` and `plane_add` written inline.

    A monomial starts from its first factor's planes, which is the product
    of the lane mask `ones` and that factor as long as every plane of `v`
    keeps sg within nz within `ones`, as every draw, column and operation
    here does.  So a constant term is `ones` itself and x*x is
    x's nonzero plane.
    """
    a0, a1 = acc
    for coeff, codes in terms:
        if codes:
            p0, p1 = v[codes[0]]
            for c in codes[1:]:
                b0, b1 = v[c]
                p0 &= b0
                p1 = (p1 ^ b1) & p0
        else:
            p0, p1 = ones, 0
        if coeff == 2:
            p1 ^= p0
        a0, a1 = (a0 ^ p0) | (a0 ^ a1 ^ p1), (a0 ^ p1) & (a1 ^ p0)
    return a0, a1


class _Planes:
    """The loop's product and inverse evaluated lane-wise on bit planes.

    An element is a tuple of N plane pairs.  Constant monomials need the
    lane mask `ones`; the shipped tables have none.  A product of two of
    the `drawn` elements is computed once: the laws that draw the same
    elements share it (x*x, x*y and y*x of the two-element laws).
    """

    identity = (_ZERO,) * N

    def __init__(self, f, h, ones, drawn=()):
        self._f, self._h, self._ones = f, h, ones
        self._drawn, self._products = {id(x) for x in drawn}, {}

    def mul(self, x, y):
        key = id(x), id(y)
        if key in self._products:
            return self._products[key]
        v, ones = x[:HEAD] + y[:HEAD], self._ones
        z = tuple(_poly(plane_add(a, b), terms, v, ones)
                  for a, b, terms in zip(x, y, self._f))
        if self._drawn.issuperset(key):
            self._products[key] = z
        return z

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
    `nvars` variables: one point at a time (`_native.term_sums`), or, in
    at most HEAD variables, all 3^nvars at once on bit planes."""

    def __init__(self, flat, nvars):
        self._polys = flat_terms(flat, nvars)
        self.nvars = nvars

    def eval_at(self, point):
        if len(point) != self.nvars:
            raise ValueError(f"point must have {self.nvars} coordinates")
        return tuple([s % 3 for s in term_sums(self._polys, point)])

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


# -- the lane-major xorshift-star stream -------------------------------------

def _words(word, lanes):
    """The 64-bit `word` in each of `lanes` 64-bit slots of one int."""
    return int.from_bytes(word.to_bytes(8, "little") * lanes, "little")


def _packed(states):
    """Lane i's 64-bit state, of the sequence `states`, in slot i of one
    int."""
    return int.from_bytes(pack(f"<{len(states)}Q", *states), "little")


def _step_masks(lanes):
    """The bits of each of `_advance`'s three shifts that stay in their
    slot: 52, 39 and 37 of every 64."""
    return (_words((1 << 52) - 1, lanes),
            _words((1 << 64) - (1 << 25), lanes),
            _words((1 << 37) - 1, lanes))


def _advance(s, masks):
    """One xorshift step of every packed lane; `masks` is _step_masks(..)."""
    m12, m25, m27 = masks
    s ^= (s >> 12) & m12
    s ^= (s << 25) & m25
    return s ^ (s >> 27) & m27


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
    of the images of that byte's bits.  The 64 unit vectors step together,
    `stride` times, as the lanes of one packed int.
    """
    s, masks = _packed([1 << bit for bit in range(64)]), _step_masks(64)
    for _ in range(stride):
        s = _advance(s, masks)
    raw = s.to_bytes(8 * 64, "little")
    tables = []
    for b in range(8):
        t = [0]
        for bit in range(8 * b, 8 * b + 8):
            col = int.from_bytes(raw[8 * bit:8 * bit + 8], "little")
            t += [v ^ col for v in t]
        tables.append(tuple(t))
    return tuple(tables)


def draw_lanes(starts, stride, reach):
    """The draws of lanes of `stride` trits from the states `starts`, in
    stream order: byte L*stride + j is the nibble sum of lane L's draw j,
    whose residue mod 3 is its trit, for the first reach[j] lanes, and 0
    for the others.  A step that no lane needs only advances the state.
    """
    lanes = len(starts)
    s, masks = _packed(starts), _step_masks(lanes)
    # the output: slots 2i and 2i+1 share 16-byte pair i
    pairs = (lanes + 1) // 2
    even = int.from_bytes((b"\xff" * 8 + bytes(8)) * pairs, "little")
    odd = even << 64
    nibbles = int.from_bytes(b"\x0f" * 16 * pairs, "little")
    sums = int.from_bytes((bytes(7) + b"\xff") * 2 * pairs, "little")
    data = bytearray(lanes * stride)
    # per count of leading lanes, the mask of their slots
    low = {lanes: -1}
    for batch in range(0, stride, 8):
        counts, acc = reach[batch:batch + 8], 0
        for j, count in enumerate(counts):
            s = _advance(s, masks)
            if count:
                if count not in low:
                    low[count] = (1 << 64 * count) - 1
                t = s & low[count]
                # Each lane's output is the low 64 bits w of its state times
                # the multiplier, which needs 128 bits: even slots multiply
                # in the low half of their pair, odd slots in the high half.
                # w mod 3 is the sum of its 16 nibbles mod 3, which byte 7 of
                # its slot holds after the nibbles are spread into bytes and
                # multiplied by _BYTE_SUM (at most 240, so no byte carries).
                p = ((t & even) * RNG_MULTIPLIER & even
                     | (t & odd) * RNG_MULTIPLIER & odd)
                p = ((p & nibbles) + ((p >> 4) & nibbles)) * _BYTE_SUM & sums
                # step j's sums go to byte j of each slot
                acc |= p >> 8 * (7 - j)
        if acc:
            raw = acc.to_bytes(8 * max(counts), "little")
            for j, count in enumerate(counts):
                if count:
                    at = batch + j
                    data[at:at + count * stride:stride] = raw[j:8 * count:8]
    return data


def _column(data, j, w, n):
    """Trit j of each of n trials of w trits laid end to end in `data`, as
    a plane pair, trial i at bit i."""
    digits = data[j + (n - 1) * w::-w]
    return (int(digits.translate(_NZ_DIGIT), 2),
            int(digits.translate(_SG_DIGIT), 2))


# -- the sweeps ----------------------------------------------------------------

# Trits per lane of a pass of more than one chunk: the least block that the
# trials of every law tile, lcm(57, 38, 19, 28).
BLOCK = lcm(*(law.trits for law in LAWS.values()))
# The least block that the trials of the laws drawing only whole elements
# tile, lcm(57, 38, 19); a pass of one chunk takes a multiple of it.
UNIT = lcm(*(law.trits for law in LAWS.values() if set(law.draws) == {N}))


def lane_stride(widest, trials):
    """S, the trits per lane of a pass of `trials` trials of at most
    `widest` trits each: UNIT * m for the least m that draws the pass as
    one chunk of ceil(widest * trials / S) lanes, and BLOCK when no
    stride below BLOCK does."""
    for stride in range(UNIT, BLOCK, UNIT):
        if widest * trials <= stride * CHUNK:
            return stride
    return BLOCK


def head_reach(laws, trials, stride):
    """Per draw j of a lane, the lanes of a pass, counted from lane 0, up
    to the last whose draw j some trial of `laws` within `trials` places
    on a head coordinate (`Law.heads`)."""
    out = [0] * stride
    # laws of the same draws read the same trits
    for law in {law.draws: law for law in laws}.values():
        # trial t's trits are draws t*w + o of the pass; the trial `cycle`
        # trials before it has them on the same draws of earlier lanes
        w, heads = law.trits, law.heads
        cycle = lcm(w, stride) // w
        for t in range(max(0, trials - cycle), trials):
            for o in heads:
                lane, j = divmod(t * w + o, stride)
                if out[j] <= lane:
                    out[j] = lane + 1
    return out


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
        laws = [(name, LAWS[name]) for name in names]
        widest = max(law.trits for _, law in laws)
        stride = lane_stride(widest, trials)
        needed = head_reach([law for _, law in laws], trials, stride)
        found = {name: [0, -1, None] for name in names}
        state, total = seed, -(-widest * trials // stride)
        for start in range(0, total, CHUNK):
            tables, starts = _jump_tables(stride), []
            for _ in range(min(CHUNK, total - start)):
                starts.append(state)
                state = _jump(tables, state)
            lanes = len(starts)
            data = draw_lanes(starts, stride,
                        [min(lanes, max(0, r - start)) for r in needed])
            drawn = {}
            for name, law in laws:
                # the chunk holds whole trials: its first is at draw
                # start * stride, and each trial gets a lane of its own
                w = law.trits
                first = start * stride // w
                n = min(trials - first, lanes * stride // w)
                if n <= 0:
                    continue
                if law.draws not in drawn:
                    heads = law.heads
                    cols = [_column(data, j, w, n) if j in heads else _ZERO
                            for j in range(w)]
                    xs = law.place(_Planes.identity, cols)
                    drawn[law.draws] = xs, _Planes(self._f, self._h,
                                                   (1 << n) - 1, xs)
                xs, p = drawn[law.draws]
                bad = _differ(law.lhs(p, *xs), law.rhs(p, *xs))
                if bad:
                    entry = found[name]
                    entry[0] += bad.bit_count()
                    if entry[1] < 0:
                        # redraw the least failing trial from its lane's
                        # start, tail trits included
                        trial = first + (bad & -bad).bit_length() - 1
                        lane, at = divmod(trial * w, stride)
                        trits = _trits(starts[lane - start], at + w)[0][at:]
                        entry[1] = trial
                        entry[2] = tuple(law.place(self.identity, trits))
        return {name: tuple(found[name]) for name in names}
