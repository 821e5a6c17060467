"""Crosscorrelation and Walsh spectra, exact, by naive sum and fast transform.

The Walsh transform W(u) = sum_x w^(Tr(x^d) - <u,x>) is computed as a
length-p^n transform over the additive group (Z_p)^n, one p-point butterfly
stage per digit of x; no floating point anywhere.  The input reads the
m-sequence at k d mod p^n - 1 for every k, gathered block by block by
`gf.decimated`, so that no index array of the field's size is built.

Every stage runs at the width its numbers need, no wider, and every width
is exact by a bound on the values, not by a check.  The scatter of the
input, each stage, the index swap and the histogram run in blocks through
`gf.run_blocks`, so a pass of 2^21 elements or more uses every thread it
is given; the blocks write disjoint entries, so the values do not depend
on the thread count.

For p = 2 it is the binary Walsh-Hadamard transform (w = -1) of the +-1
input.  After i bits every value is a sum of 2^i terms +-1, so |value| <=
2^i.  The bits go two per radix-4 stage, an odd leftover bit gets one
radix-2 stage.  As for odd p below, the high half of the bits is
transformed first, then the two halves of the index are swapped (a
transpose copied in cache-sized bands) and the low half is transformed, so
every stage streams contiguous blocks of at least 2^(n/2) entries.  The
result stays in that half-swapped order, which `WalshTable` reads, so no
second swap and no second buffer are made.  The high half, n - n // 2 <= 12
bits at n <= 24 (the table bound), runs in int16 (|value| <= 2^12); the
swap widens to int32, which holds 2^24.  At (2,24) the int16 input and the
int32 output, 32 + 64 MiB, are the only field-sized arrays alive at once
past the field's own tables.

For odd p the transform runs in the group ring Z[Z_p]: each point carries
p integer coordinates, the coefficients of 1, w, ..., w^(p-1), starting
from the uint8 indicator of Tr(x^d).  Multiplying by a power of w only
rotates the coordinates, so a stage is slice additions with no products.
After k stages a coordinate counts the points of a block of p^k that take
one exponent value, so it lies in [0, p^k]: stage k writes uint8 while p^k
< 2^8, uint16 while p^k < 2^16, and int32 after that (p^n <= 2^24).  The
result is reduced once, at the end, into int32, to the unique basis 1,
..., w^(p-2) of `cyclo.CycInt`.

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

The moment identities are checked from one transform of d.  The power sums
sum C, sum C^2 and sum C^3 over all shifts are sums over the histogram,
(value - 1)^l * count (`power_sum`).  Each sampled shifted sum
sum_tau C(tau - t) C(tau) is one int64 matrix product of `by_log` minus 1
with its roll by t, whose (i, j) entries are folded onto w^((i + j) mod p).
p = 2 is the case of one coordinate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, prod

import numpy as np

from .cyclo import CycInt, coords_json
from .errors import Budget, OutOfDomain
from .gf import FieldCtx, decimated, run_blocks, runs_inline
from . import lfsr

NAIVE_MAX_ORDER = 2 ** 14   # the O(p^2n) oracle stays at desk scale
# The shifted second moments are int64 products of C coordinates, exact up
# to this bound: |coord| <= p^n <= 2^16, so a sum over the L < 2^16 shifts
# stays below 2^48, and folding onto the p powers of w adds at most p - 1
# <= 12 such sums: every sum stays below 12 * 2^48 < 2^63.
MOMENT_CHECK_MAX_ORDER = 2 ** 16
MOMENT_CHECK_SEED = 2024   # draws the shifts of the shifted second moments
_HISTOGRAM_BLOCK = 2 ** 20   # keys per np.unique call of the histogram
_SCATTER_BLOCK = 2 ** 14     # exp entries per intp index block of the input scatter


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


def _wht_stages(g: np.ndarray, lo: int, hi: int) -> None:
    """Walsh-Hadamard stages on bits lo .. hi - 1 of the index of g, in place.

    Bits go two at a time (`_radix4`); an odd last bit gets one radix-2
    stage.  Each stage runs in blocks (`run_blocks`) of its outer groups
    or of its inner entries, whichever are more; a pass that runs inline
    is one butterfly call on the whole view.  The stages share one buffer,
    made here rather than in the blocks: memory that a pool thread frees
    stays with that thread (malloc keeps an arena per thread).
    """
    buf = np.empty(g.size // (2 if (hi - lo) % 2 else 4), dtype=g.dtype)
    inline = runs_inline(g.size)
    i = lo
    while i < hi:
        r = 4 if i + 2 <= hi else 2
        a = g.reshape(-1, r, 2 ** i)
        t = buf[:g.size // r].reshape(a.shape[0], a.shape[2])
        butterfly = _radix4 if r == 4 else _radix2
        if inline:
            butterfly(a, t)
        elif a.shape[0] >= a.shape[2]:
            run_blocks(lambda b0, b1: butterfly(a[b0:b1], t[b0:b1]), a.shape[0], g.size)
        else:
            run_blocks(lambda b0, b1: butterfly(a[:, :, b0:b1], t[:, b0:b1]), a.shape[2],
                       g.size)
        i += r // 2


def _transpose_into(x: np.ndarray, out: np.ndarray) -> None:
    """out = x.T for 2-D arrays, copied 16 rows of x at a time so that the
    reads and writes of each band stay in cache; the bands in blocks."""
    def bands(b0, b1):
        for r in range(16 * b0, min(16 * b1, x.shape[0]), 16):
            out[:, r:r + 16] = x[r:r + 16].T

    count = -(-x.shape[0] // 16)
    if runs_inline(x.size):
        bands(0, count)
    else:
        run_blocks(bands, count, x.size)


def _wht_2(g: np.ndarray) -> np.ndarray:
    """Binary Walsh-Hadamard transform, kernel (-1)^<u,x>, of g (length 2^n),
    returned as a fresh int32 array in the half-swapped order (`WalshTable`):
    the value at u sits at (u mod 2^h) 2^(n-h) + u div 2^h, h = n // 2.  g
    is overwritten.

    The layout of `_transform_ring`: the high half of the bits is
    transformed first, in g's own dtype, then the index halves are swapped
    into an int32 array, so that the low half becomes the high one, and
    transformed there; every stage runs on contiguous blocks of at least
    2^(n/2) entries.  An int16 g of entries +-1 is exact while n - n // 2
    <= 14 bits (|value| <= 2^14 after them).
    """
    n = g.size.bit_length() - 1
    h = n // 2
    _wht_stages(g, h, n)
    out = np.empty((2 ** h, 2 ** (n - h)), dtype=np.int32)
    _transpose_into(g.reshape(-1, 2 ** h), out)
    del g   # the caller's narrow buffer, if it handed over its only reference
    out = out.reshape(-1)
    _wht_stages(out, n - h, n)
    return out


def _count_dtype(bound: int) -> type:
    """The narrowest of uint8, uint16 and int32 that holds [0, bound]."""
    return np.uint8 if bound < 2 ** 8 else np.uint16 if bound < 2 ** 16 else np.int32


def _ring_stage(v: np.ndarray, p: int, dtype: type) -> np.ndarray:
    """One butterfly stage in Z[Z_p]: out_j = sum_k w^(-jk) v_k, in dtype.

    v has shape (p, A, p, B): ring coordinate c, outer block, the digit
    transformed, inner block.  Multiplying by w^(-s) moves coefficient
    c + s to c, so each (j, k) is two slice-adds, with no products.  The
    stage runs in blocks of the longer of A and B, or inline as one call.
    """
    out = np.empty(v.shape, dtype=dtype)
    if runs_inline(v.size):
        _ring_block(v, out, p)
    elif v.shape[1] >= v.shape[3]:
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


def _transform_ring(g: np.ndarray, p: int, n: int) -> np.ndarray:
    """Transform with kernel w^(-<u,x>) over (Z_p)^n, in the group ring Z[Z_p].

    g has shape (p, p^n): g[c, x] is the coefficient of w^c at x, an
    indicator of one c per x.  After k stages a coordinate counts the points
    of a block of p^k, so stage k writes `_count_dtype(p^k)`.  A stage
    is fast when the digit it transforms has a long contiguous inner block,
    so the high half of the digits is transformed first, then the two
    halves of the index are swapped for the low half.  The result, of shape
    (p, p^n), stays in that half-swapped order (`WalshTable`).
    """
    h = n // 2
    for k, i in enumerate(range(h, n), 1):
        g = _ring_stage(g.reshape(p, -1, p, p ** i), p, _count_dtype(p ** k))
    g = g.reshape(p, -1, p ** h).transpose(0, 2, 1).copy()
    for k, i in enumerate(range(h), n - h + 1):
        g = _ring_stage(g.reshape(p, -1, p, p ** (n - h + i)), p, _count_dtype(p ** k))
    return g.reshape(p, -1)


class WalshTable:
    """Exact Walsh transform values W(a) of f(x) = Tr(x^d) over GF(p^n).

    Each value is a row of p - 1 integer coordinates in the basis 1, w, ...,
    w^(p-2) of `cyclo.CycInt`; for p = 2 the one coordinate is the integer.
    The table has two read-outs: `by_log`, the per-shift array whose row
    tau is W(alpha^tau), and `unique_values`, the histogram of W(a) over
    a != 0, which `class_record` reads.  The a = 0 point has no log and is
    `zero_value`.  `_by_u` holds the rows in the order the transform ends
    in, with the two halves of the group index u swapped: W at u is row
    (u mod p^h) p^(n-h) + u div p^h, h = n // 2, so u = 0 is row 0.
    """

    def __init__(self, ctx: FieldCtx, by_u: np.ndarray):
        self.ctx = ctx
        self.p = ctx.p
        self.n = ctx.n
        self._by_u = by_u.reshape(ctx.order, -1)

    @cached_property
    def by_log(self) -> np.ndarray:
        """(p^n - 1, p - 1) int32 rows; row tau is W(alpha^tau)."""
        low = self.p ** (self.n // 2)
        u = self.ctx.gram_index(self.ctx.exp_table)
        return self._by_u[u % low * (self.ctx.order // low) + u // low]

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


def _transform_input(ctx: FieldCtx, d: int) -> np.ndarray:
    """The transform's input for f(x) = Tr(x^d): (-1)^f(x) in int16 for
    p = 2, else the (p, p^n) uint8 indicator whose row c marks f(x) = c."""
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
    return np.equal(f, np.arange(ctx.p, dtype=np.int8)[:, None]).view(np.uint8)


def walsh_fast(ctx: FieldCtx, d: int) -> WalshTable:
    """Walsh transform table of Tr(x^d) via the group transform, for any
    exponent d; the readers of a spectrum (`class_record`,
    `moment_identity_check`) require gcd(d, p^n - 1) = 1."""
    # the input goes to the transform unnamed, so that it can be freed there
    if ctx.p == 2:
        return WalshTable(ctx, _wht_2(_transform_input(ctx, d)))
    g = _transform_ring(_transform_input(ctx, d), ctx.p, ctx.n)
    # reduce to the basis 1..w^(p-2) by w^(p-1) = -(1 + ... + w^(p-2))
    g = np.subtract(g[:-1], g[-1], dtype=np.int32)
    return WalshTable(ctx, g.T)


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


class Entries(list):
    """The JSON form of a record, in its order: the entries {"value",
    "count"}, or, made without counts, the values alone.  `record` keeps
    the (p, rows, counts) arrays it stands for (counts None for values
    alone), and the items are made from it on first read, so a writer that
    renders the record row by row (`cli._json_text`) makes none, and the
    record stays as compact as its arrays until then."""

    def __init__(self, p: int, rows: np.ndarray, counts: np.ndarray | None = None):
        super().__init__()
        self.record = (p, rows, counts)

    def _made(self) -> list:
        if not list.__len__(self) and len(self.record[1]):
            p, rows, counts = self.record
            values = (coords_json(p, r) for r in rows.tolist())
            self.extend(values if counts is None else
                        ({"value": v, "count": c} for v, c in zip(values, counts.tolist())))
        return self

    def __len__(self):
        return list.__len__(self._made())

    def __iter__(self):
        return list.__iter__(self._made())

    def __getitem__(self, i):
        return list.__getitem__(self._made(), i)

    def __eq__(self, other):
        return list.__eq__(self._made(), other)

    def __repr__(self):
        return list.__repr__(self._made())

    __hash__ = None


def entries_json(p: int, rows: np.ndarray, counts: np.ndarray) -> Entries:
    """The JSON entries {"value", "count"} of a record, in its order."""
    return Entries(p, rows, counts)


# ----------------------------------------------------------------------
# Moments and solution counts
# ----------------------------------------------------------------------

def power_sum(p: int, rows: np.ndarray, counts: np.ndarray, l: int,
              shift: int = 0) -> CycInt:
    """sum (value + shift)^l * count over the distinct values of a record,
    exact in Z[w].  On a spectrum, shift 0 gives the power sums of C over
    all shifts (l = 1 gives 1).  On the histogram of W(a), a != 0
    (`WalshTable.unique_values`), shift -1 gives the same sums, and shift
    0 those of W, the power moments of W for l >= 1 (W(0) = 0 for
    invertible d)."""
    acc = CycInt.zero(p)
    for row, c in zip(rows.tolist(), counts.tolist()):
        row[0] += shift
        acc = acc + CycInt(p, row) ** l * c
    return acc


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


def b_l_count(ctx: FieldCtx, d: int, l: int) -> int:
    """Count nonzero (x_1..x_{l-1}) with sum x_i = -1 and sum x_i^d = -1."""
    if l not in (3, 4):
        raise OutOfDomain("l must be 3 or 4")
    if ctx.order ** (l - 2) > 2 ** 32:
        raise Budget("enumeration exceeds 2^32")
    return _power_sum_count(ctx, d, l - 1, ctx.neg(1), np.arange(1, ctx.order, dtype=np.int32))


@dataclass
class MomentReport:
    """Exact verdicts for the first/second moment identities and b_3 form,
    with the histogram of W(a), a != 0 (`WalshTable.unique_values`), that
    they were read from."""

    p: int
    n: int
    d: int
    sum_c: CycInt
    sum_c_ok: bool
    autocorr_t0_ok: bool
    shifted: list
    shifted_ok: bool
    b3: int
    third_moment_ok: bool
    histogram: tuple = field(repr=False, compare=False)

    def all_pass(self) -> bool:
        return self.sum_c_ok and self.autocorr_t0_ok and self.shifted_ok and self.third_moment_ok

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "d": self.d,
            "sum_values": self.sum_c.to_json(),
            "sum_values_ok": self.sum_c_ok,
            "second_moment_t0_ok": self.autocorr_t0_ok,
            "second_moment_shifted": [[t, ok] for t, ok in self.shifted],
            "second_moment_shifted_ok": self.shifted_ok,
            "third_moment_vs_b3_ok": self.third_moment_ok,
            "b3": self.b3,
        }


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


def moment_identity_check(ctx: FieldCtx, d: int) -> MomentReport:
    """Check sum C = 1, the shifted second moments at three shifts drawn
    with `MOMENT_CHECK_SEED`, and the l = 3 moment against the brute-force
    pair count b_3 (all exact)."""
    if ctx.order > MOMENT_CHECK_MAX_ORDER:
        raise Budget("moment identity check is grid-bounded")
    _require_coprime(ctx, d)
    L, q = ctx.period, ctx.order
    wt = walsh_fast(ctx, d)
    histogram = wt.unique_values()
    total, t0, third = (power_sum(ctx.p, *histogram, l, -1) for l in (1, 2, 3))
    rng = random.Random(MOMENT_CHECK_SEED)
    shifted = [(t, _shifted_second_moment(wt, t) == -q - 1)
               for t in sorted(rng.sample(range(1, L), min(3, L - 1)))]
    b3 = b_l_count(ctx, d, 3)
    return MomentReport(
        p=ctx.p, n=ctx.n, d=d,
        sum_c=total, sum_c_ok=total == 1,
        autocorr_t0_ok=t0 == q * q - q - 1,
        shifted=shifted, shifted_ok=all(ok for _, ok in shifted),
        b3=b3, third_moment_ok=third == -((q - 1) ** 2) + 2 + b3 * q * q,
        histogram=histogram,
    )
