"""Crosscorrelation and Walsh spectra, exact, by naive sum and fast transform.

The Walsh transform W(u) = sum_x w^(Tr(x^d) - <u,x>) is computed as a
length-p^n transform over the additive group (Z_p)^n, one p-point butterfly
stage per digit of x; no floating point anywhere.  The input puts f(x) =
Tr(x^d) at x = alpha^k for every k, block by block, so that no index
array of the field's size is built.  Odd p and p = 2 below `_PACKED_MIN` =
2^20 elements gather the m-sequence at the indices k d mod p^n - 1
(`gf.decimated`) and scatter it into an int8 table at the exp entries.
p = 2 from 2^20 up reads neither the m-sequence nor the exp table, so
neither is built: `gf.FieldCtx.trace_windows` gives each block's elements
alpha^k from the exp prefix of 2^16 entries and in-cache tables of the
block's linear map, and its bits s_(k d) from a table of 2^16 powers of
alpha^d and one linear form per block, and `_packed_input` adds each bit
at bit alpha^k of a bit-packed table with `np.add.at`, 2 MB at 2^24 where
the int8 one takes 16 MB, so that the random writes stay in the L2 cache.

Every stage runs at the width its numbers need, no wider, and every width
is exact by a bound on the values, not by a check.  The scatter of the
input, each stage (for p = 2 from 2^20 up, each band of stages) and the
histogram run in blocks through `gf.run_blocks`, so a pass of 2^21
elements or more uses every thread it is given; the blocks write disjoint
entries, or, in the packed input, each range fills a packed table of its
own and the tables are OR-ed, so the values do not depend on the thread
count.  The odd-p index swap is one copy on the calling thread.

For p = 2 it is the binary Walsh-Hadamard transform (w = -1) of the +-1
input.  After i bits every value is a sum of 2^i terms +-1, so |value| <=
2^i.  The bits go two per radix-4 stage, an odd leftover bit gets one
radix-2 stage.  As for odd p below, the high half of the bits is
transformed first, then the two halves of the index are swapped and the
low half is transformed, and the result stays in that half-swapped order,
which `WalshTable` reads.  `_wht_2` does this in bands of about
`_BAND_BYTES`: phase 1 expands each band of columns of the packed input by
one take from `_SIGNS`, transforms the high half in int16, and writes it
transposed and widened to int32 into the output, where the low bits of
the other half are transformed while the band is in cache; phase 2 copies
bands of the output's columns into a buffer for the rest.  A field of one
band (every one below 2^20) is transformed whole, in place.  The high half,
n - n // 2 <= 12 bits at n <= 24 (the table bound), runs in int16 (|value|
<= 2^12); int32 holds 2^24.  At (2,24) the int32 output, 64 MiB, is the
only field-sized array made.

For odd p the transform runs in the group ring Z[Z_p]: each point carries
p integer coordinates, the coefficients of 1, w, ..., w^(p-1), starting
from the uint8 indicator of Tr(x^d).  Multiplying by a power of w only
rotates the coordinates, so a stage is slice additions with no products.
After k stages a coordinate counts the points of a block of p^k that take
one exponent value, so it lies in [0, p^k]: stage k writes uint8 while p^k
< 2^8, uint16 while p^k < 2^16, and int32 after that (p^n <= 2^24).  The
result is reduced once, at the end, into int32 (in place when the last
stage is int32), to the unique basis 1, ..., w^(p-2) of `cyclo.CycInt`.

Only two of the p slices of the top digit x_(n-1) are transformed.  Tr is
GF(p)-linear, so f(z x) = z^d f(x) for every z in GF(p)*, for any d.  The
slices x_(n-1) = 0 and 1 go through the stages of the low n - 1 digits as
one batch of two, whose last stage writes into the first two slices of the
(p, p, p^(n-1)) array of all p; slice z = 2 .. p - 1 is slice 1 with x = z y
substituted: its coordinate z^d c at u is slice 1's coordinate c at
z^(1-d) u, that is, one permutation of the coordinates and, unless
z^(1-d) = 1 (always so for odd d at p = 3), one gather of the points,
each digit of u times z^(1-d).  One stage on the top digit over the p
slices ends the transform.  A Galois check of a record (sigma_c: w -> w^c
fixes its values) therefore rests on this same identity and is not
independent of the kernel.

Every value is thus a row of p - 1 int32 coordinates (one, the integer
itself, for p = 2), and a `WalshTable` is read in one of two ways: the
per-shift array `by_log`, row tau = W(alpha^tau), or the histogram
`unique_values` of W(a) over a != 0.  The crosscorrelation spectrum of the
decimation pair is the multiset {W(a) - 1 : a != 0}, read from the
histogram; the a = 0 point of the transform corresponds to no shift and is
excluded.

The transform takes any exponent d; a spectrum is that of a d coprime to
p^n - 1, which `class_record` and `moment_identity_check` require.  For odd
p every W(a) of such a d is real: p^n - 1 is even, so d is odd, and x -> -x
negates the exponent Tr(x^d) - <a, x>, so w^c and w^(-c) occur equally
often.  In the basis 1, w, ..., w^(p-2) coordinate 1 is therefore 0 and
coordinate c equals coordinate p - c.

The histogram keys on that real half.  It packs the key columns of each
row, 0 and 2 .. (p - 1) / 2 (the value itself for p = 2 and p = 3), into
one mixed-radix integer key, in the lexicographic order of the
coordinates, sorts the keys of each block of 2^20 rows in a buffer the
calling thread made and counts their runs; only keys that would pass 2^62
are renumbered densely instead.  The distinct rows are rebuilt with
coordinate 1 = 0 and coordinate p - c = coordinate c.  Its precondition is
a real table, which two array passes check (coordinate 1 all zero, columns
c and p - c equal); any other table raises `OutOfDomain`.

A spectrum has one form, the integer record of `class_record`: `rows`,
the int32 coordinates of its distinct values, and `counts`, int64, how
often each occurs, the rows in the order of `cyclo.value_key` (the
rational values ascending, then the others by their coordinates).  The
`spectrum` command prints it, `search` classifies and caches it, and the
catalog checks (`families`) and `codes` read it.

The naive path counts, for every shift at once, the t with
s_{t+tau} - s_{dt} = r (exact integer correlations of residue indicators,
`lfsr.correlation_counts`) and is the oracle the transform is tested
against.

The moments report is one function of one transform of d
(`moment_identity_check`).  One pass over the histogram gives the power
sums P_l = sum W(a)^l over a != 0, l = 0 .. 4 (`power_sums`, one running
product per distinct value); sum C, sum C^2 and sum C^3 over all shifts
are their binomial combinations, C = W - 1, and the printed power
moments are the P_l themselves.  Each sampled shifted sum
sum_tau C(tau - t) C(tau) is one int64 matrix product of `by_log` minus 1
with its roll by t, whose (i, j) entries are folded onto w^((i + j) mod p).
p = 2 is the case of one coordinate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from math import comb, gcd, prod

import numpy as np

from .cyclo import CycInt, coords_json
from .errors import Budget, OutOfDomain
from .gf import FieldCtx, decimated, run_blocks
from . import lfsr

NAIVE_MAX_ORDER = 2 ** 14   # the O(p^2n) oracle stays at desk scale
# The shifted second moments are int64 products of C coordinates, exact up
# to this bound: |coord| <= p^n <= 2^16, so a sum over the L < 2^16 shifts
# stays below 2^48, and folding onto the p powers of w adds at most p - 1
# <= 12 such sums: every sum stays below 12 * 2^48 < 2^63.
MOMENT_CHECK_MAX_ORDER = 2 ** 16
MOMENT_CHECK_SEED = 2024   # draws the shifts of the shifted second moments
_HISTOGRAM_BLOCK = 2 ** 20   # rows per block of the histogram, their keys sorted in one buffer
_SCATTER_BLOCK = 2 ** 14     # exp entries per intp index block of the input scatter
# p = 2 fields of at least this many elements (and at least 2^3) build the
# input as a bit-packed table from trace windows (`_packed_input`), which
# their transform expands band by band.  `walsh_fast` per class on one
# thread, int8 path against packed, median ms (2-core x86 VM): (2,18) 3.8 /
# 3.8, (2,19) 7.5 / 8.9, (2,20) 20.7 / 16.3
_PACKED_MIN = 2 ** 20
# bytes of one band of the binary transform (`_wht_2`) in int32, the int16
# band half that: at (2,24) the transform took 219 ms in bands of 2^19
# bytes, 165 in 2^20 and 191 in 2^21 on one thread, 199, 122 and 127 on two
# (medians; 2 MB of L2 cache per core)
_BAND_BYTES = 2 ** 20
# row b: (-1)^(bit j of b) for j = 0 .. 7, the +-1 input of one packed byte
_SIGNS = (1 - 2 * (np.arange(256)[:, None] >> np.arange(8) & 1)).astype(np.int16)


# ----------------------------------------------------------------------
# Fast transform
# ----------------------------------------------------------------------

def _radix4(a: np.ndarray, t: np.ndarray) -> None:
    """One radix-4 stage on a (groups, 4, inner) view, in place: with a_j
    the entries that differ in the two bits (j = b_i + 2 b_(i+1)), y_j =
    sum_k (-1)^<j,k> a_k from the sums and differences of (a_0, a_1) and
    (a_2, a_3), through t, a (groups, inner) buffer."""
    a0, a1, a2, a3 = a.transpose(1, 0, 2)
    np.add(a0, a1, out=t)
    np.subtract(a0, a1, out=a1)
    np.add(a2, a3, out=a0)
    np.subtract(a2, a3, out=a3)
    np.subtract(t, a0, out=a2)   # y_2 = (a_0 + a_1) - (a_2 + a_3)
    np.add(t, a0, out=a0)        # y_0
    np.subtract(a1, a3, out=t)   # y_3 = (a_0 - a_1) - (a_2 - a_3)
    np.add(a1, a3, out=a1)       # y_1
    a3[...] = t


def _radix2(a: np.ndarray, t: np.ndarray) -> None:
    """One radix-2 stage on a (groups, 2, inner) view, in place, through
    t, a (groups, inner) buffer."""
    a0, a1 = a.transpose(1, 0, 2)
    np.subtract(a0, a1, out=t)
    a0 += a1
    a1[...] = t


def _wht_stages(g: np.ndarray, lo: int, hi: int, buf: np.ndarray) -> None:
    """Walsh-Hadamard stages on bits lo .. hi - 1 of the index of g, in place.

    Bits go two at a time (`_radix4`); an odd last bit gets one radix-2
    stage.  Each stage runs in blocks (`run_blocks`) of its outer groups
    or of its inner entries, whichever are more.  The stages share buf, of
    g's dtype and `_stage_size` entries, which the caller makes: memory
    that a pool thread frees stays with that thread (malloc keeps an arena
    per thread).
    """
    i = lo
    while i < hi:
        r = 4 if i + 2 <= hi else 2
        a = g.reshape(-1, r, 2 ** i)
        t = buf[:g.size // r].reshape(a.shape[0], a.shape[2])
        butterfly = _radix4 if r == 4 else _radix2
        if a.shape[0] >= a.shape[2]:
            run_blocks(lambda b0, b1: butterfly(a[b0:b1], t[b0:b1]), a.shape[0], g.size)
        else:
            run_blocks(lambda b0, b1: butterfly(a[:, :, b0:b1], t[:, b0:b1]), a.shape[2],
                       g.size)
        i += r // 2


def _stage_size(size: int, bits: int) -> int:
    """Entries of the buffer `_wht_stages` needs for `bits` stages' bits of
    an array of `size` entries: a quarter, or a half for a radix-2 stage."""
    return size // (2 if bits % 2 else 4)


def _wht_2(f: np.ndarray) -> np.ndarray:
    """Binary Walsh-Hadamard transform, kernel (-1)^<u,x>, of a +-1 input of
    length 2^n, returned as a fresh int32 array in the half-swapped order
    (`WalshTable`): the value at u sits at (u mod 2^h) 2^(n-h) + u div 2^h,
    h = n // 2.  f is either the +-1 entries, in an integer dtype, which
    are overwritten, or the bit-packed table of `_packed_input` (uint8, bit
    x mod 8 of byte x div 8 set where the entry at x is -1).

    The layout of `_transform_ring`.  With x = a 2^h + b the input is a
    (2^(n-h), 2^h) matrix, and the output the (2^h, 2^(n-h)) one, b
    leading.  A band is the 2^(n-h) rows of w columns b of the input,
    about `_BAND_BYTES` in int32.  Phase 1, band by band: the band is
    expanded from the packed bytes by one take from `_SIGNS` into int16,
    its bits of a are transformed, it is written transposed and widened
    into its w rows of the output, and there, in int32, its low log2(w)
    bits of b are transformed.  Phase 2 copies each band of columns a of
    the output into a buffer, transforms the other bits of b there and
    writes it back.  So every stage runs in cache, on contiguous blocks of
    at least w entries (2^(n-h) for the bits of b), and the bands of each
    phase run in ranges (`run_blocks`).  A +-1 array, or a packed table
    whose entries fit one band, is the one band: transformed in place (the
    table expanded whole first), transposed into the output and
    transformed there, with no phase 2.  int16 is exact while n - n // 2
    <= 14 bits (|value| <= 2^14 after them).
    """
    packed = f.dtype == np.uint8
    n = (8 * f.size if packed else f.size).bit_length() - 1
    h = n // 2
    rows, cols = 2 ** (n - h), 2 ** h
    out = np.empty((cols, rows), dtype=np.int32)
    w = min(cols, max(8, _BAND_BYTES // (4 * rows)))   # columns b of a band
    one = not packed or w == cols
    if one:   # one band: the +-1 entries themselves
        w = cols
        f = (_SIGNS.take(f, axis=0) if packed else f).reshape(rows, cols)
    else:
        f = f.reshape(rows, cols // 8)
    k = w.bit_length() - 1

    def phase1(c0, c1, scratch):
        band, buf, buf32 = scratch
        for b in range(c0 * w, c1 * w, w):
            g = f if band is None else np.take(
                _SIGNS, f[:, b // 8:(b + w) // 8], axis=0, out=band.reshape(rows, -1, 8),
                mode="clip").reshape(rows, w)
            _wht_stages(g.reshape(-1), k, k + n - h, buf)
            o = out[b:b + w]
            o[...] = g.T
            _wht_stages(o.reshape(-1), n - h, n - h + k, buf32)

    run_blocks(phase1, cols // w, 2 ** n, lambda: (
        None if one else np.empty((rows, w), dtype=np.int16),
        np.empty(_stage_size(rows * w, n - h), dtype=f.dtype if one else np.int16),
        np.empty(_stage_size(rows * w, k), dtype=np.int32)))
    del f   # the caller's narrow buffer, if it handed over its only reference
    if one:
        return out.reshape(-1)
    v = min(rows, max(1, _BAND_BYTES // (4 * cols)))   # columns a of a phase 2 band
    j = v.bit_length() - 1

    def phase2(c0, c1, scratch):
        band, buf = scratch
        for a in range(c0 * v, c1 * v, v):
            band[...] = out[:, a:a + v]
            _wht_stages(band.reshape(-1), j + k, j + h, buf)
            out[:, a:a + v] = band

    run_blocks(phase2, rows // v, 2 ** n, lambda: (
        np.empty((cols, v), dtype=np.int32),
        np.empty(_stage_size(cols * v, h - k), dtype=np.int32)))
    return out.reshape(-1)


def _count_dtype(bound: int) -> type:
    """The narrowest of uint8, uint16 and int32 that holds [0, bound]."""
    return np.uint8 if bound < 2 ** 8 else np.uint16 if bound < 2 ** 16 else np.int32


def _ring_stage(v: np.ndarray, p: int, dtype: type, out: np.ndarray | None = None) -> np.ndarray:
    """One butterfly stage in Z[Z_p]: out_j = sum_k w^(-jk) v_k, in dtype,
    into `out` (of v's shape and of dtype) if it is given, else into a
    fresh array.

    v has shape (p, A, p, B): ring coordinate c, outer block, the digit
    transformed, inner block.  Multiplying by w^(-s) moves coefficient
    c + s to c, so each (j, k) is two slice-adds, with no products.  The
    stage runs in blocks of the longer of A and B.
    """
    if out is None:
        out = np.empty(v.shape, dtype=dtype)
    if v.shape[1] >= v.shape[3]:
        run_blocks(lambda b0, b1: _ring_block(v[:, b0:b1], out[:, b0:b1], p), v.shape[1],
                   v.size)
    else:
        run_blocks(lambda b0, b1: _ring_block(v[..., b0:b1], out[..., b0:b1], p),
                   v.shape[3], v.size)
    return out


def _ring_block(v: np.ndarray, out: np.ndarray, p: int) -> None:
    """`_ring_stage` of v into out, arrays of one shape (p, A, p, B)."""
    for j in range(p):
        o = out[:, :, j]
        o[...] = v[:, :, 0]
        for k in range(1, p):
            s = j * k % p
            o[:p - s] += v[s:, :, k]
            if s:
                o[p - s:] += v[:s, :, k]


def _transform_ring(g: np.ndarray, p: int, n: int, out: np.ndarray) -> None:
    """Transform with kernel w^(-<u,x>) over (Z_p)^n, in the group ring Z[Z_p],
    of each of a batch of inputs side by side, into `out`.

    g has shape (p, B p^n): g[c, b p^n + x] is the coefficient of w^c at x
    in input b, an indicator of one c per x.  After k stages a coordinate
    counts the points of a block of p^k, so stage k writes
    `_count_dtype(p^k)`.  A stage is fast when the digit it transforms has
    a long contiguous inner block, so the high half of the digits is
    transformed first, then the two halves of each input's index are
    swapped for the low half.  The result, of shape (p, B, p^n) and dtype
    `_count_dtype(p^n)`, is written by the last stage into `out`, which
    may be a view into a larger array, and stays in that half-swapped
    order: u of input b at (b, (u mod p^h) p^(n-h) + u div p^h), h = n // 2.
    """
    if n == 0:
        out[...] = g.reshape(out.shape)   # no digit: the input itself
        return
    last = out.reshape(p, -1, p, p ** (n - 1))   # the shape of every last stage
    h = n // 2
    for k, i in enumerate(range(h, n), 1):
        g = _ring_stage(g.reshape(p, -1, p, p ** i), p, _count_dtype(p ** k),
                        last if k == n else None)
    if h == 0:
        return
    g = g.reshape(p, -1, p ** (n - h), p ** h).transpose(0, 1, 3, 2).copy()
    for k, i in enumerate(range(h), n - h + 1):
        g = _ring_stage(g.reshape(p, -1, p, p ** (n - h + i)), p, _count_dtype(p ** k),
                        last if k == n else None)


def _scaled_digits(p: int, k: int, s: int) -> np.ndarray:
    """The intp index of r -> s r over (Z_p)^k: entry r is the integer whose
    k base-p digits are those of r, each times s mod p."""
    idx = np.zeros(1, dtype=np.intp)
    digit = np.arange(p, dtype=np.intp) * s % p
    for i in range(k):
        idx = (digit[:, None] * p ** i + idx).ravel()
    return idx


class WalshTable:
    """Exact Walsh transform values W(a) of f(x) = Tr(x^d) over GF(p^n).

    Each value is a row of p - 1 integer coordinates in the basis 1, w, ...,
    w^(p-2) of `cyclo.CycInt`; for p = 2 the one coordinate is the integer.
    The table has two read-outs: `by_log`, the per-shift array whose row
    tau is W(alpha^tau), and `unique_values`, the histogram of W(a) over
    a != 0, which `class_record` reads.  The a = 0 point has no log and is
    `zero_value`.  `_by_u` holds the rows in the order the transform ends
    in, with the two halves of the group index u swapped.  For p = 2, W at
    u is row (u mod 2^h) 2^(n-h) + u div 2^h, h = n // 2.  For odd p the
    top digit u_(n-1) leads and the halves of the low n - 1 digits v = u
    mod p^(n-1) are swapped: W at u is row u_(n-1) p^(n-1) + (v mod p^h)
    p^(n-1-h) + v div p^h, h = (n - 1) // 2.  Either way u = 0 is row 0.
    """

    def __init__(self, ctx: FieldCtx, by_u: np.ndarray):
        self.ctx = ctx
        self.p = ctx.p
        self.n = ctx.n
        self._by_u = by_u.reshape(ctx.order, -1)

    @cached_property
    def by_log(self) -> np.ndarray:
        """(p^n - 1, p - 1) int32 rows; row tau is W(alpha^tau)."""
        p, n = self.p, self.n
        u = self.ctx.gram_index(self.ctx.exp_table)
        top = 0
        if p > 2:   # the top digit first, then the low n - 1 digits half-swapped
            n -= 1
            top, u = np.divmod(u, p ** n)
            top *= p ** n
        low = p ** (n // 2)
        return self._by_u[top + u % low * (p ** n // low) + u // low]

    def zero_value(self) -> CycInt:
        """W(0); vanishes whenever gcd(d, p^n-1) = 1."""
        return CycInt(self.p, self._by_u[0].tolist())

    def unique_values(self):
        """(rows, counts): the distinct W(a) over a != 0, as fresh arrays of
        rows in lexicographic order (the order of np.unique(axis=0)), and
        how often each occurs.

        Each row is one mixed-radix key over its key columns, the first
        column most significant and signed (|W| <= p^n), the others offset
        by their minimum, so that key order is row order.  For odd p the
        table must be real (`_require_real`), and the key columns are 0 and
        2 .. (p - 1) / 2: coordinate 1 is 0 and coordinate p - c is
        coordinate c, so the rows are rebuilt from those alone.
        """
        p, data = self.p, self._by_u[1:]
        if p > 2:
            _require_real(data, p)
        cols = [0, *range(2, (p + 1) // 2)]   # p = 2 and p = 3: the first column alone
        lows = [int(data[:, c].min()) for c in cols[1:]]
        spans = [int(data[:, c].max()) - lo + 1 for c, lo in zip(cols[1:], lows)]
        bound = 2 * (self.ctx.order + 1) * prod(spans)   # above twice every |key|
        if bound > 2 ** 63:
            # renumber the keys densely (ids < p^n <= 2^24) before one would pass 2^62
            lows.insert(0, int(data[:, 0].min()))
            spans.insert(0, int(data[:, 0].max()) - lows[0] + 1)
            ids, size = np.zeros(len(data), dtype=np.int64), 1
            for c, lo, span in zip(cols, lows, spans):
                if size * span > 2 ** 62:
                    ids = np.unique(ids, return_inverse=True)[1]
                    size = int(ids.max()) + 1
                ids = ids * span + (data[:, c] - lo)
                size *= span
            ids = np.unique(ids, return_inverse=True)[1]
            counts = np.bincount(ids)
            row = np.empty(len(counts), dtype=np.int64)
            row[ids] = np.arange(len(ids))   # rows with one id are equal: any will do
            return data[row], counts
        # the keys of each block of rows are sorted in a buffer of the calling
        # thread (`run_blocks` scratch), in int32 when they fit, and the runs
        # of equal keys counted; the blocks' counts are summed in int64
        dtype = np.int32 if bound <= 2 ** 31 else np.int64
        size = min(_HISTOGRAM_BLOCK, len(data))

        def histograms(b0, b1, scratch):
            keys_buf, new = scratch
            parts = []
            for lo in range(b0 * _HISTOGRAM_BLOCK, min(b1 * _HISTOGRAM_BLOCK, len(data)),
                            _HISTOGRAM_BLOCK):
                block = data[lo:lo + _HISTOGRAM_BLOCK]
                keys = keys_buf[:len(block)]
                keys[...] = block[:, 0]
                for c, low, span in zip(cols[1:], lows, spans):
                    keys *= span   # in place: each partial key stays within the bound
                    keys -= low
                    keys += block[:, c]
                keys.sort()
                np.not_equal(keys[1:], keys[:-1], out=new[1:len(block)])
                starts = np.flatnonzero(new[:len(block)])
                parts.append((keys[starts], np.diff(starts, append=len(block))))
            return parts

        parts = [part for ranges in run_blocks(
            histograms, -(-len(data) // _HISTOGRAM_BLOCK), len(data),
            lambda: (np.empty(size, dtype=dtype), np.ones(size, dtype=bool)))
            for part in ranges]
        keys = np.concatenate([k for k, _ in parts])
        order = np.argsort(keys)
        keys, counts = keys[order], np.concatenate([c for _, c in parts])[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        keys, counts = keys[starts], np.add.reduceat(counts, starts)
        rows = np.zeros((len(keys), data.shape[1]), dtype=data.dtype)
        for c, low, span in reversed(list(zip(cols[1:], lows, spans))):
            keys, digit = np.divmod(keys, span)
            rows[:, c] = digit + low
            rows[:, p - c] = rows[:, c]
        rows[:, 0] = keys
        return rows, counts


def _require_real(data: np.ndarray, p: int) -> None:
    """Raise `OutOfDomain` unless every row of data, (k, p - 1) coordinates
    of values in Z[w] for odd p, is real: coordinate 1 is 0 and coordinate
    c equals coordinate p - c.  The spectrum of a d coprime to p^n - 1 is."""
    if data[:, 1].any() or not all(np.array_equal(data[:, c], data[:, p - c])
                                   for c in range(2, (p + 1) // 2)):
        raise OutOfDomain("the histogram for odd p needs real values (d coprime to p^n - 1)")


def _packed_input(ctx: FieldCtx, d: int) -> np.ndarray:
    """f(x) = Tr(x^d) for p = 2 as a bit-packed table, bit x mod 8 of byte
    x div 8 (the input of `_wht_2`), an eighth of the int8 one, so that
    the random writes stay in cache.  The points x = alpha^k and the bits
    f(x) come in blocks of k from `FieldCtx.trace_windows`, which reads no
    exp table and no m-sequence, and each bit is added at bit x of a packed
    table, one per range of blocks (`run_blocks` scratch).  exp is a
    permutation, so every bit is added once, the sum is an OR, and the
    ranges' tables are OR-ed.  `np.add.at` holds the interpreter lock, so
    only the rest of a range (the points and the bits) runs in parallel."""
    count, blocks = ctx.trace_windows(d)

    def scatter(q0, q1, f):
        for x, bits in blocks(q0, q1):
            np.add.at(f, x >> 3, bits << (x & 7).astype(np.uint8))
        return f

    tables = run_blocks(scatter, count, ctx.period,
                        lambda: np.zeros(ctx.order // 8, dtype=np.uint8))
    f = tables[0]
    for t in tables[1:]:
        f |= t
    return f


def _packs(ctx: FieldCtx) -> bool:
    """The field takes the packed p = 2 input (`_packed_input`)."""
    return ctx.p == 2 and ctx.order >= _PACKED_MIN


def build_class_tables(ctx: FieldCtx) -> None:
    """Build the tables of ctx that `class_record` reads: the exp table and
    the m-sequence, unless the field takes the packed p = 2 input, which
    reads neither.  Processes forked after this share them copy-on-write
    instead of each building its own."""
    if not _packs(ctx):
        ctx.mseq   # reads the exp table, which the scatter reads too


def _transform_input(ctx: FieldCtx, d: int) -> np.ndarray:
    """The transform's input for f(x) = Tr(x^d): for p = 2, (-1)^f(x) in
    int16, or from `_PACKED_MIN` elements up f bit-packed (`_packed_input`);
    else the (p, p^n) uint8 indicator whose row c marks f(x) = c."""
    if _packs(ctx):
        return _packed_input(ctx, d)
    f_nonzero = decimated(ctx.mseq, d)   # f at x = alpha^k
    exp = ctx.exp_table
    # scatter f in int8 (a casting scatter is slower); exp is a permutation,
    # so blocks of k write disjoint entries, and f(0) = 0.  The int32 exp
    # indices are copied into an intp buffer a block at a time: numpy's
    # fancy assignment is about twice as fast with intp indices, and an
    # intp exp table would be twice its size
    f = np.zeros(ctx.order, dtype=np.int8)

    def scatter(lo, hi, idx):
        for a in range(lo, hi, _SCATTER_BLOCK):
            b = min(a + _SCATTER_BLOCK, hi)
            i = idx[:b - a]
            i[...] = exp[a:b]
            f[i] = f_nonzero[a:b]

    run_blocks(scatter, ctx.period, ctx.period,
               lambda: np.empty(min(_SCATTER_BLOCK, ctx.period), dtype=np.intp))
    if ctx.p == 2:
        return np.subtract(1, 2 * f, dtype=np.int16)
    f = f[:2 * ctx.order // ctx.p]   # the slices of top digit 0 and 1 (`walsh_fast`)
    return np.equal(f, np.arange(ctx.p, dtype=np.int8)[:, None]).view(np.uint8)


def _rebuild_slices(g: np.ndarray, p: int, k: int, d: int) -> None:
    """Fill g[:, z], z = 2 .. p - 1, from g[:, 1], in place.

    g has shape (p, p, p^k): g[:, z] is the slice of top digit z of the
    transform of f(x) = Tr(x^d), taken over the low k digits.  f(z y) =
    z^d f(y) and <u, z y> = <z^(1-d) u, y> z^d, so coordinate z^d c of
    slice z at u is coordinate c of slice 1 at z^(1-d) u, for any d.
    """
    for z in range(2, p):
        e, s = pow(z, d % (p - 1), p), pow(z, (1 - d) % (p - 1), p)
        rows = np.arange(p) * e % p
        if s == 1:
            g[rows, z] = g[:, 1]
            continue
        idx = _scaled_digits(p, k, s)
        # one take per row, straight into g (mode "clip" is unbuffered); a
        # take along axis 1 of the strided (p, p^k) slice took 3x as long
        # at (5,9) (2-core x86 VM, numpy 2.4)
        for c in range(p):
            np.take(g[c, 1], idx, out=g[rows[c], z], mode="clip")


def walsh_fast(ctx: FieldCtx, d: int) -> WalshTable:
    """Walsh transform table of Tr(x^d) via the group transform, for any
    exponent d; the readers of a spectrum (`class_record`,
    `moment_identity_check`) require gcd(d, p^n - 1) = 1."""
    # the input goes to the transform unnamed, so that it can be freed there
    if ctx.p == 2:
        return WalshTable(ctx, _wht_2(_transform_input(ctx, d)))
    p, n = ctx.p, ctx.n
    m = p ** (n - 1)
    # g[c, z] is slice x_(n-1) = z transformed over the low n - 1 digits;
    # the slices z = 0 and 1 are transformed, as one batch, straight into it
    g = np.empty((p, p, m), dtype=_count_dtype(m))
    _transform_ring(_transform_input(ctx, d), p, n - 1, g[:, :2])
    _rebuild_slices(g, p, n - 1, d)
    g = _ring_stage(g.reshape(p, 1, p, m), p, _count_dtype(p ** n)).reshape(p, -1)
    # reduce to the basis 1..w^(p-2) by w^(p-1) = -(1 + ... + w^(p-2))
    if g.dtype != np.int32:
        return WalshTable(ctx, np.subtract(g[:-1], g[-1], dtype=np.int32).T)
    g[:-1] -= g[-1]
    return WalshTable(ctx, g[:-1].T)


# ----------------------------------------------------------------------
# Naive oracle
# ----------------------------------------------------------------------

def _require_coprime(ctx: FieldCtx, d: int) -> None:
    """A spectrum, and its moments, are those of a d coprime to p^n - 1."""
    if gcd(d, ctx.period) != 1:
        raise OutOfDomain(f"gcd({d}, {ctx.period}) != 1")


def crosscorr_naive(ctx: FieldCtx, d: int, tau: int) -> CycInt:
    """Direct O(p^n) sum of w^(s_{t+tau} - s_{dt}); the reference oracle."""
    _require_coprime(ctx, d)
    L = ctx.period
    tr = ctx.trace_table
    exp = ctx.exp_table
    p = ctx.p
    counts = [0] * p
    for t in range(L):
        r = (int(tr[exp[(t + tau) % L]]) - int(tr[exp[(d * t) % L]])) % p
        counts[r] += 1
    return CycInt.from_counts(p, counts)


def _naive_record(ctx: FieldCtx, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, counts) of the spectrum by the tau-sums, organized as exact
    integer correlations; rows in lexicographic order.  Still O(p^(2n));
    permitted only on small fields."""
    if ctx.order > NAIVE_MAX_ORDER:
        raise Budget(f"naive spectrum limited to p^n <= {NAIVE_MAX_ORDER}")
    p, L = ctx.p, ctx.period
    s = lfsr.generate_trace(ctx).as_array()
    sd = s[(np.arange(L, dtype=np.int64) * (d % L)) % L]
    # column tau counts the t with s_(t+tau) - s_(dt) = r, r = 0..p-1, and
    # sum_r count_r w^r has the coordinates count_r - count_(p-1)
    columns = lfsr.correlation_counts(s, sd, p)
    return np.unique((columns[:-1] - columns[-1]).T.astype(np.int32), axis=0,
                     return_counts=True)


def class_record(ctx: FieldCtx, d: int,
                 method: str = "fast") -> tuple[np.ndarray, np.ndarray]:
    """The spectrum {C_d(tau)} = {W(a) - 1 : a != 0} of d as one integer
    record, shared by every decimation in the class of d (`search`):
    `rows`, the (k, p - 1) int32 coordinates of its k distinct values, and
    `counts`, int64, how often each occurs.  The "naive" method, by the
    tau-sums, is the oracle of the "fast" transform.

    The rows are in the order of `cyclo.value_key` (`value_ordered`).  Both
    methods give rows in lexicographic order, which subtracting 1 from the
    first coordinate keeps.
    """
    _require_coprime(ctx, d)
    if method == "fast":
        rows, counts = walsh_fast(ctx, d).unique_values()
        rows[:, 0] -= 1
    elif method == "naive":
        rows, counts = _naive_record(ctx, d)
    else:
        raise OutOfDomain(f"unknown method {method!r}")
    return value_ordered(rows, counts)


def value_ordered(rows: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A record whose rows are in lexicographic order, put in the order of
    `cyclo.value_key`: the rational values ascending, then the others in
    the lexicographic order of their coordinates.  One stable sort puts the
    rational rows (no nonzero coordinate past the first) first."""
    order = np.argsort(rows[:, 1:].any(axis=1), kind="stable")
    return rows[order], counts[order]


@dataclass(frozen=True, eq=False)
class Entries:
    """The JSON form of a record, in its order: the entries {"value",
    "count"}, or, made without counts, the values alone.  It holds the
    record's arrays, which `cli._json_chunks` writes by template; no item
    is made.  Not compared by value: its fields are arrays."""

    p: int
    rows: np.ndarray
    counts: np.ndarray | None = None

    def items(self) -> list:
        """The items, built by `cyclo.coords_json` apart from the writer's
        templates: the reference the writer is tested against."""
        values = [coords_json(self.p, r) for r in self.rows.tolist()]
        if self.counts is None:
            return values
        return [{"value": v, "count": c} for v, c in zip(values, self.counts.tolist())]


# ----------------------------------------------------------------------
# Moments and solution counts
# ----------------------------------------------------------------------

def power_sums(p: int, rows: np.ndarray, counts: np.ndarray, top: int) -> list[CycInt]:
    """[sum value^l * count for l = 0 .. top] over the distinct values of a
    record, exact in Z[w], in one pass over the rows: each row's powers are
    one running product.  On the histogram of W(a), a != 0
    (`WalshTable.unique_values`), these are the sums P_l of W(a)^l; those
    of C = W - 1 are their binomial combinations (`moment_identity_check`)."""
    sums = [CycInt.zero(p)] * (top + 1)
    for row, c in zip(rows.tolist(), counts.tolist()):
        value, power = CycInt(p, row), CycInt.from_int(p, c)
        sums[0] += power
        for l in range(1, top + 1):
            power = power * value
            sums[l] += power
    return sums


def _power_sum_count(ctx: FieldCtx, d: int, k: int, target: int, xs: np.ndarray) -> int:
    """Count (x_1..x_k) over xs with sum x_i = target and sum x_i^d = target.

    x_k is solved for, so x_2..x_(k-1) are enumerated as one array of sums
    and x_1 runs over chunks of xs, keeping each step near 2^16 cells.
    """
    powd = ctx.pow(np.arange(ctx.order, dtype=np.int32), d)
    inside = np.zeros(ctx.order, dtype=bool)
    inside[xs] = True
    s, t = np.zeros(1, dtype=np.int32), np.zeros(1, dtype=np.int32)
    for _ in range(k - 2):
        s = ctx.add(s[:, None], xs).ravel()
        t = ctx.add(t[:, None], powd[xs]).ravel()
    rest = ctx.sub(target, s)   # x_1 + x_k
    count, step = 0, max(1, 2 ** 16 // len(s))
    for x1 in (xs[lo:lo + step] for lo in range(0, len(xs), step)):
        xk = ctx.add(ctx.neg(x1)[:, None], rest)
        tot = ctx.add(ctx.add(powd[x1][:, None], t), powd[xk])
        count += int(np.count_nonzero(inside[xk] & (tot == target)))
    return count


def solution_count_N(ctx: FieldCtx, d: int, l: int) -> int:
    """Brute-force count of (x_1..x_l) with sum x_i = 0 and sum x_i^d = 0."""
    if l not in (1, 2, 3, 4):
        raise OutOfDomain("l must be in 1..4")
    if ctx.order ** (l - 1) > 2 ** 32:
        raise Budget(f"p^(n(l-1)) = {ctx.order ** (l - 1)} exceeds 2^32")
    if l == 1:
        return 1  # only x = 0 (0^d = 0)
    return _power_sum_count(ctx, d, l, 0, np.arange(ctx.order, dtype=np.int32))


def b3_count(ctx: FieldCtx, d: int) -> int:
    """Count the pairs of nonzero x_1, x_2 with x_1 + x_2 = -1 and
    x_1^d + x_2^d = -1."""
    return _power_sum_count(ctx, d, 2, ctx.neg(1), np.arange(1, ctx.order, dtype=np.int32))


def _shifted_second_moment(wt: WalshTable, t: int) -> CycInt:
    """sum over tau of C(tau - t) C(tau), with C(tau) = W(alpha^tau) - 1.

    One integer product of (L, p - 1) coordinate arrays (p = 2 has one
    coordinate); the product of w^i and w^j is folded onto w^((i + j) mod p).
    """
    p = wt.p
    c = wt.by_log.astype(np.int64)
    c[:, 0] -= 1
    counts = np.zeros(p, dtype=np.int64)
    np.add.at(counts, np.add.outer(np.arange(p - 1), np.arange(p - 1)) % p,
              np.roll(c, t, axis=0).T @ c)
    return CycInt.from_counts(p, counts.tolist())


def moment_identity_check(ctx: FieldCtx, d: int) -> tuple[dict, bool]:
    """The moments report of d and whether every identity holds: sum C = 1,
    sum C^2 = p^(2n) - p^n - 1, the shifted second moments at three shifts
    drawn with `MOMENT_CHECK_SEED`, and sum C^3 against the brute-force
    pair count b_3 (all exact), with the power moments sum W(a)^l over
    every a, l = 0 .. 4.  Every sum but the shifted ones is read from the
    power sums P_l of the histogram of W(a), a != 0: sum C^l is
    sum_k C(l, k) (-1)^(l - k) P_k, and sum W(a)^l over every a is P_l,
    and 1 more at l = 0 for W(0)^0 (W(0) = 0 for invertible d)."""
    if ctx.order > MOMENT_CHECK_MAX_ORDER:
        raise Budget("moment identity check is grid-bounded")
    _require_coprime(ctx, d)
    L, q = ctx.period, ctx.order
    wt = walsh_fast(ctx, d)
    w_sums = power_sums(ctx.p, *wt.unique_values(), 4)
    total, t0, third = (sum(comb(l, k) * (-1) ** (l - k) * w_sums[k] for k in range(l + 1))
                        for l in (1, 2, 3))
    rng = random.Random(MOMENT_CHECK_SEED)
    shifted = [[t, _shifted_second_moment(wt, t) == -q - 1]
               for t in sorted(rng.sample(range(1, L), min(3, L - 1)))]
    b3 = b3_count(ctx, d)
    checks = {
        "sum_values_ok": total == 1,
        "second_moment_t0_ok": t0 == q * q - q - 1,
        "second_moment_shifted_ok": all(ok for _, ok in shifted),
        "third_moment_vs_b3_ok": third == -((q - 1) ** 2) + 2 + b3 * q * q,
    }
    report = {"p": ctx.p, "n": ctx.n, "d": d, "sum_values": total.to_json(),
              "second_moment_shifted": shifted, "b3": b3, **checks,
              "power_moments": {str(l): (s + (l == 0)).to_json()
                                for l, s in enumerate(w_sums)}}
    return report, all(checks.values())
