"""The evaluation kernel, pure Python throughout (`BACKEND`): bit-sliced
GF(3) arithmetic for the identity sweeps and the variety count.

`LoopKernel` is `_native.LoopKernel` with `sweep` replaced and `sweep_many`
added; products, inverses and draws of single elements stay the scalar
reference.  It trusts its inputs: `loop.Loop` and `symbolic.embed` are
where elements are checked.  A sweep runs CHUNK lanes per pass and returns
exactly what `_native` returns: the same violation count, first failing
trial and witness, because every lane consumes the same xorshift-star
stream and evaluates the same law of `_native.LAWS`, on bit planes.

Lanes: lane i of a chunk holds S consecutive trits of the stream, the
i-th block of S.  A trial reads w = `Law.trits` trits, the sum of its
law's `draws` (N = 19 an element, N - HEAD = 9 a tail): 57 for Moufang, 38
for each alternative law and flexibility, 19 for the inverse law and 28
for `tail_central`.  S is UNIT * m, UNIT = lcm(57, 38, 19) = 114, for the
least m in 1..13 that draws the pass as one chunk of ceil(w * trials / S)
lanes, w the widest trial of the pass (`lane_stride`); every other pass
takes BLOCK = 14 * UNIT = lcm(57, 38, 19, 28) = 1596 trits a lane, over as
many chunks as it needs.  So a `verify --trials 2000` pass is one chunk of
1000 lanes of 114 trits, and a million-trial pass 18 chunks of 1596.
A law whose w divides S has r = S / w groups per lane, and group g of
lane L is trial r*L + g, reading trits g*w .. g*w + w - 1 of the lane:
`_stack` cuts them out of the columns.  `tail_central` at S < BLOCK does
not tile a lane; its trials tile the period lcm(28, S) of k lanes, and
`_gather` slices them out of the draw's bytes into the same group layout,
a period in place of a lane.
One draw per chunk therefore serves every law, and since all sweeps restart
from one seed, `sweep_many` evaluates all of them on it.  It returns their
results only; `sweeps.SharedSweeps` times the pass.  Each group is masked
to the periods whose trial is below the budget; the first failing trial is
the least over all groups, and the witness is read from that group's lane.

Stream: lane L starts at the seed advanced by L*S steps, from the jump-
ahead by S, a GF(2)-linear map of the 64-bit state (Haramoto et al. 2008)
applied as eight 256-entry byte tables; the tables are built the same way
as the draw, by stepping the 64 unit vectors together in one packed int,
or for an even stride from the tables of half of it.  The start states are
packed lane-major, lane i in 64-bit slot i of one int, and all lanes step
together S times.  For the 126-bit product by the multiplier, slot 2i
multiplies in the low and slot 2i+1 in the high half of 16-byte pair i,
then nibble sums reduce each output mod 3 into one byte.  Eight steps'
bytes collect in one int, converted by one `to_bytes` call; each step's
bytes, one per lane, become a column of planes.

Arithmetic: a column of trits, one per lane, is two bit-plane ints
(Boothby & Bradshaw 2009): `nz` has bit i set when lane i's trit is nonzero
and `sg` when it is 2.  GF(3) addition costs six big-int operations and
multiplication three, so one product of the loop evaluates the flattened
f table for every lane at once, read in the one flat format that the
scalar kernel reads too (`_native.flat_terms`).  The r groups of a law are
stacked side by side into planes r lane-widths wide, so one evaluation
covers them all; laws of the same `draws` share the stacked planes and
their products of two drawn elements.

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
from ._native import HEAD, LAWS, N, RNG_MULTIPLIER, _check_sweep, flat_terms

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
    keeps sg within nz within `ones`, as every draw, stack, gather and
    operation here does.  So a constant term is `ones` itself and x*x is
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
    of the images of that byte's bits.  An even stride maps each unit
    vector twice by the tables of half the stride, down to an odd stride
    (BLOCK = 4 * 399 takes 399 steps, UNIT = 2 * 57 takes 57); for an odd
    one the 64 unit vectors step together as the lanes of one packed int.
    """
    if stride > 1 and stride % 2 == 0:
        half = _jump_tables(stride // 2)
        cols = [_jump(half, half[bit >> 3][1 << (bit & 7)])
                for bit in range(64)]
    else:
        s, masks = _packed([1 << bit for bit in range(64)]), _step_masks(64)
        for _ in range(stride):
            s = _advance(s, masks)
        raw = s.to_bytes(8 * 64, "little")
        cols = [int.from_bytes(raw[8 * bit:8 * bit + 8], "little")
                for bit in range(64)]
    tables = []
    for b in range(8):
        t = [0]
        for col in cols[8 * b:8 * b + 8]:
            t += [v ^ col for v in t]
        tables.append(tuple(t))
    return tuple(tables)


def draw_columns(state, lanes, stride, keep_steps=False):
    """Draw `stride` trits per lane for `lanes` consecutive blocks.

    Returns the columns, one (nz, sg) plane pair per draw; the state after
    the last lane's draws; and, when `keep_steps`, each draw's bytes (see
    `_gather`), else None.  Lane i's trits equal draws
    i*stride .. (i+1)*stride - 1 of `_native.random_element`'s stream.
    """
    tables, starts = _jump_tables(stride), []
    for _ in range(lanes):
        starts.append(state)
        state = _jump(tables, state)
    s, masks = _packed(starts), _step_masks(lanes)
    # the output: slots 2i and 2i+1 share 16-byte pair i
    pairs = (lanes + 1) // 2
    even = int.from_bytes((b"\xff" * 8 + bytes(8)) * pairs, "little")
    odd = even << 64
    nibbles = int.from_bytes(b"\x0f" * 16 * pairs, "little")
    sums = int.from_bytes((bytes(7) + b"\xff") * 2 * pairs, "little")
    cols, steps = [], [] if keep_steps else None
    for batch in range(0, stride, 8):
        n, acc = min(8, stride - batch), 0
        for j in range(n):
            s = _advance(s, masks)
            # Each lane's output is the low 64 bits w of its state times the
            # multiplier, which needs 128 bits: even slots multiply in the
            # low half of their pair, odd slots in the high half.  w mod 3
            # is the sum of its 16 nibbles mod 3, which byte 7 of its half
            # holds after the nibbles are spread into bytes and multiplied
            # by _BYTE_SUM (at most 240, so no byte carries).
            p = ((s & even) * RNG_MULTIPLIER & even
                 | (s & odd) * RNG_MULTIPLIER & odd)
            p = ((p & nibbles) + ((p >> 4) & nibbles)) * _BYTE_SUM & sums
            # step j's sums go to bytes j and 8 + j of each pair
            acc |= p >> 8 * (7 - j)
        # big-endian, pair `pairs`-1 first, its byte 8 + j before byte j:
        # every eighth byte from 7 - j reads slot i at bit i of the plane
        raw = acc.to_bytes(16 * pairs, "big")
        for j in range(n):
            digits = raw[7 - j::8]
            cols.append((int(digits.translate(_NZ_DIGIT), 2),
                         int(digits.translate(_SG_DIGIT), 2)))
            if keep_steps:
                steps.append(digits)
    return cols, state, steps


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


def _gather(steps, law, stride, width):
    """`_stack` for a law whose width w does not divide the stride, read
    from the draw's bytes `steps` (slot i at index -1 - i of each).

    Its trials tile the period lcm(w, stride) of k = period / stride
    lanes, r = period / w trials, and group g of period V is trial
    r*V + g.  Its trit j is draw (g*w + j) % stride of lane
    V*k + (g*w + j) // stride.  A group holds `width` periods; lanes past
    the draw read as zero trits.
    """
    w = law.trits
    k = lcm(w, stride) // stride
    span = k * width
    # lane i at index i, zero trits up to the last lane read
    pad = bytes(max(0, span - len(steps[0])))
    rows = [digits[::-1] + pad for digits in steps]
    # trit o*stride + d of every period: draw d of its lane o
    trits = [row[o:o + span:k] for o in range(k) for row in rows]
    stacked = []
    for j in range(w):
        digits = b"".join(trits[j::w])[::-1]
        stacked.append((int(digits.translate(_NZ_DIGIT), 2),
                        int(digits.translate(_SG_DIGIT), 2)))
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
        widest = max(LAWS[name].trits for name in names)
        stride = lane_stride(widest, trials)
        # per law: the lanes k and groups r of its period lcm(w, stride);
        # k > 1 needs a stride below BLOCK, so a pass of one chunk
        laws = []
        for name in names:
            law = LAWS[name]
            period = lcm(law.trits, stride)
            laws.append((name, law, period // stride, period // law.trits))
        gathered = any(k > 1 for _, _, k, _ in laws)
        lanes_needed = -(-widest * trials // stride)
        found = {name: [0, -1, None] for name in names}
        state = seed
        for start in range(0, lanes_needed, CHUNK):
            lanes = min(CHUNK, lanes_needed - start)
            cols, state, steps = draw_columns(state, lanes, stride, gathered)
            drawn = {}
            for name, law, k, r in laws:
                # periods of this chunk whose group-g trial is in the budget
                counts = [min(lanes, -(-(trials - g) // r) - start)
                          for g in range(r)]
                width = counts[0]
                if width <= 0:
                    continue
                # laws of the same draws have the same r, so the same width
                if law.draws not in drawn:
                    xs = (_gather(steps, law, stride, width) if k > 1
                          else _stack(cols, law, width))
                    ones = (1 << (r * width)) - 1
                    drawn[law.draws] = xs, _Planes(self._f, self._h, ones, xs)
                xs, p = drawn[law.draws]
                mask = 0
                for g, n in enumerate(counts):
                    if n > 0:
                        mask |= ((1 << n) - 1) << (g * width)
                bad = _differ(law.lhs(p, *xs), law.rhs(p, *xs)) & mask
                if bad:
                    entry = found[name]
                    entry[0] += bad.bit_count()
                    if entry[1] < 0:
                        entry[1], bit = _first_failure(bad, r, width, start)
                        entry[2] = tuple(lane_trits(x, bit) for x in xs)
        return {name: tuple(found[name]) for name in names}
