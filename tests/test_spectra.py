"""Spectra: naive oracle vs fast transform, moments, solution counts."""

import copy
import itertools
import random
import tracemalloc
from math import gcd, prod
from types import SimpleNamespace

import numpy as np
import pytest

from mseqcorr import gf, spectra
from mseqcorr.cyclo import CycInt
from mseqcorr.errors import Budget, OutOfDomain
from mseqcorr.spectra import class_record, power_sum


def _coprime_ds(L):
    return [d for d in range(1, L) if gcd(d, L) == 1]


def _same(a, b):
    """Two (rows, counts) records are equal, order included."""
    return all(map(np.array_equal, a, b))


def _integers(record):
    """{value: count} of a record whose values are all rational."""
    rows, counts = record
    assert not rows[:, 1:].any()
    return dict(zip(rows[:, 0].tolist(), counts.tolist()))


@pytest.mark.parametrize("n", range(1, 13))
def test_binary_transform_matches_sylvester_product(n):
    h = np.ones((1, 1), dtype=np.int8)
    for _ in range(n):
        h = np.block([[h, h], [h, -h]])   # Sylvester: h[u, x] = (-1)^<u,x>
    rng = np.random.default_rng(n)
    for _ in range(3):
        x = (1 - 2 * rng.integers(0, 2, 2 ** n)).astype(np.int32)
        # the transform ends with the index halves swapped: the value at u
        # sits at (u mod 2^(n//2)) 2^(n - n//2) + u div 2^(n//2)
        ref = (h @ x).reshape(-1, 2 ** (n // 2)).T.reshape(-1)
        for dtype in (np.int32, np.int16):
            out = spectra._wht_2(x.astype(dtype))
            assert out.dtype == np.int32
            assert np.array_equal(out, ref)


def _wht_int64(bits):
    """The binary transform of (-1)^bits in int64, one radix-2 stage per
    bit of the index, y_0 = a_0 + a_1 and y_1 = a_0 - a_1, in natural order."""
    x = 1 - 2 * bits.astype(np.int64)
    for i in range(bits.size.bit_length() - 1):
        a = x.reshape(-1, 2, 2 ** i)
        a0 = a[:, 0].copy()
        a[:, 0] += a[:, 1]
        a[:, 1] = a0 - a[:, 1]
    return x


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n,band", [(9, 2 ** 8), (12, 2 ** 8), (20, None), (22, None)])
def test_banded_binary_transform_matches_int64_kernel(n, band, threads, monkeypatch):
    # from the packed table, past one band: at (2,20) and (2,22) each phase
    # of `_wht_2` runs several bands of `_BAND_BYTES`, at (2,22) in two
    # ranges on two threads; bands of 2^8 bytes and ranges from 2^4
    # elements give the same at n = 9 and 12, phase 2 in bands of one column
    if band is not None:
        monkeypatch.setattr(spectra, "_BAND_BYTES", band)
        monkeypatch.setattr(gf, "_PARALLEL_MIN", 2 ** 4)
    bits = np.random.default_rng(n).integers(0, 2, 2 ** n).astype(np.uint8)
    h = n // 2
    ref = _wht_int64(bits).reshape(-1, 2 ** h).T.reshape(-1)   # half-swapped order
    with gf.block_threads(threads):
        out = spectra._wht_2(np.packbits(bits, bitorder="little"))
    assert out.dtype == np.int32 and np.array_equal(out, ref)


def _ring_transform_int64(ctx, d):
    """The group-ring transform of Tr(x^d) with every buffer int64, one
    stage per digit in digit order, reduced to the basis 1..w^(p-2)."""
    p, L = ctx.p, ctx.period
    g = np.zeros((p, ctx.order), dtype=np.int64)
    g[0, 0] = 1
    g[ctx.mseq[np.arange(L, dtype=np.int64) * d % L], ctx.exp_table] = 1
    for i in range(ctx.n):
        v = g.reshape(p, -1, p, p ** i)
        g = np.empty_like(v)
        for j in range(p):
            o = g[:, :, j]
            o[...] = v[:, :, 0]
            for k in range(1, p):
                s = j * k % p
                o[:p - s] += v[s:, :, k]
                if s:
                    o[p - s:] += v[:s, :, k]
        g = g.reshape(p, -1)
    return (g[:-1] - g[-1]).T


@pytest.mark.parametrize("p,n", [(3, 11), (5, 7), (7, 6), (11, 5), (13, 5)])
def test_ring_transform_matches_int64_kernel(p, n):
    # p^n > 2^16: the stages go uint8, uint16 and int32 in turn
    ctx = gf.field_ctx(p, n)
    rng = random.Random(p * 100 + n)
    for d in rng.sample(_coprime_ds(ctx.period)[1:], 2):
        by_u = spectra.walsh_fast(ctx, d)._by_u
        ref = _ring_transform_int64(ctx, d)
        assert by_u.dtype == np.int32 and np.abs(ref).max() < 2 ** 31
        assert by_u.tobytes() == _transform_order(ref, p, n).astype(np.int32).tobytes(), d


def _transform_order(ref, p, n):
    """Rows of ref, indexed by u, in the order odd-p `walsh_fast` ends in:
    the top digit of u first, then the halves of the low n - 1 digits
    swapped, so that row j p^(n-1) + (v mod p^h) p^(n-1-h) + v div p^h,
    h = (n - 1) // 2, holds u = j p^(n-1) + v."""
    return ref.reshape(p, -1, p ** ((n - 1) // 2), p - 1).transpose(0, 2, 1, 3) \
        .reshape(-1, p - 1)


@pytest.mark.parametrize("p", [p for p in gf.SUPPORTED_PRIMES if p > 2])
@pytest.mark.parametrize("n", [1, 2])
def test_rebuilt_slices_match_int64_kernel_for_every_exponent(p, n):
    # every d from 0 to p^n - 1: the slices of top digit 2 .. p - 1 are
    # rebuilt from slice 1 by the scaling x -> z x, which must hold for any
    # d, coprime or not, whichever digit scalings z^(1-d) it needs
    ctx = gf.field_ctx(p, n)
    kinds = set()
    for d in range(ctx.order):
        by_u = spectra.walsh_fast(ctx, d)._by_u
        ref = _ring_transform_int64(ctx, d)
        assert by_u.tobytes() == _transform_order(ref, p, n).astype(np.int32).tobytes(), d
        scalings = {pow(z, (1 - d) % (p - 1), p) for z in range(1, p)}
        kinds.add("no scaling" if scalings == {1} else
                  "every scaling" if len(scalings) == p - 1 else "some scalings")
        kinds.add("coprime" if gcd(d, ctx.period) == 1 else "not coprime")
    assert kinds >= {"no scaling", "every scaling", "coprime", "not coprime"}
    if p > 3:
        assert "some scalings" in kinds


@pytest.mark.parametrize("p,n", [(3, 9), (5, 5), (7, 4), (11, 3), (13, 3)])
def test_rebuilt_slices_match_int64_kernel_past_one_half_swap(p, n):
    # larger fields, whose low n - 1 digits are half-swapped: d = 1 mod p - 1
    # (no scaling), d = 2 (not coprime; z^(1-d) = z^-1 takes every scaling)
    # and two coprime d
    ctx = gf.field_ctx(p, n)
    rng = random.Random(p * 10 + n)
    coprime = rng.sample(_coprime_ds(ctx.period)[1:], 2)
    for d in [1 + 7 * (p - 1), 2, *coprime]:
        by_u = spectra.walsh_fast(ctx, d)._by_u
        ref = _ring_transform_int64(ctx, d)
        assert by_u.tobytes() == _transform_order(ref, p, n).astype(np.int32).tobytes(), d


@pytest.mark.parametrize("p,n", [(2, 17), (2, 24), (3, 11), (5, 7), (7, 6),
                                 (11, 5), (13, 5)])
def test_transform_of_constant_sequence_reaches_the_bound(p, n):
    # f = 0 everywhere puts the whole input on w^0 (all ones for p = 2), so
    # after k stages the u = 0 point of each block holds p^k, the top of the
    # stage's range, and W is p^n at u = 0 and 0 elsewhere.  f = 0 goes in
    # through what the input reads: the m-sequence, and for the packed p = 2
    # input (`FieldCtx.trace_windows`) a zero trace basis
    ctx = copy.copy(gf.field_ctx(p, n))
    ctx.mseq = np.zeros(ctx.period, dtype=np.int8)
    ctx._trace_basis = [0] * n
    by_u = spectra.walsh_fast(ctx, 1)._by_u
    expected = np.zeros((p ** n, p - 1), dtype=np.int32)
    expected[0, 0] = p ** n
    assert by_u.dtype == np.int32 and np.array_equal(by_u, expected)


@pytest.mark.parametrize("p,n", [(2, 12), (3, 7), (5, 5), (7, 4), (11, 3), (13, 3)])
def test_many_blocks_give_the_one_block_records(p, n, monkeypatch):
    # with blocks of 2^6 the gather and the histogram (every p) each run
    # tens of blocks, the last one partial
    spec = gf.field_ctx(p, n).spec
    one = gf.FieldCtx(spec)
    L = one.period
    degenerate = {pow(p, j, L) for j in range(n)}
    ds = random.Random(p * 100 + n).sample(
        [d for d in _coprime_ds(L) if d not in degenerate], 3)
    expected = {d: class_record(one, d) for d in ds}
    for name, module in (("_CHUNK", gf), ("_HISTOGRAM_BLOCK", spectra)):
        monkeypatch.setattr(module, name, 2 ** 6)
    many = gf.FieldCtx(spec)
    assert many.mseq.dtype == np.int8 and np.array_equal(many.mseq, one.mseq)
    for d in ds:
        assert np.array_equal(gf.decimated(many.mseq, d), one.mseq[np.arange(L) * d % L]), d
        rows, counts = class_record(many, d)
        assert counts.dtype == np.int64
        assert _same((rows, counts), expected[d]), d
        assert _same((rows, counts), class_record(many, d, method="naive")), d


def test_packed_input_gives_the_bytes_of_the_int8_path(monkeypatch):
    # with the packed input lowered to 2^3 elements, every p = 2 field from
    # (2,3) to (2,14) takes it; blocks of 2^6 give many blocks of trace
    # windows, the last one partial, and ranges from 2^3 elements on two
    # threads make the packed tables of two ranges, which are OR-ed; the
    # table must be the int8 gather and scatter's f, packed in little bit
    # order, for coprime, non-coprime and degenerate d
    rng = random.Random(28)
    cases = {}
    for n in range(3, 15):
        one = gf.FieldCtx(gf.field_ctx(2, n).spec)
        L = one.period
        degenerate = sorted(gf.degenerate_set(2, n))
        coprime = [d for d in _coprime_ds(L) if d not in degenerate]
        other = [d for d in range(L) if gcd(d, L) > 1]   # only d = 0 when L is prime
        ds = rng.sample(degenerate, 2) + rng.sample(coprime, 2) + rng.sample(other, 1) \
            + [L + rng.choice(coprime)]
        cases[n] = (one.spec, {d: spectra._transform_input(one, d) for d in ds})
    calls, ranges = [], []
    real_packed, real_run_blocks = spectra._packed_input, spectra.run_blocks

    def counted_packed(ctx, d):
        calls.append((ctx.n, d))
        return real_packed(ctx, d)

    def counted_run_blocks(fn, count, elements, scratch=None):
        out = real_run_blocks(fn, count, elements, scratch)
        if fn.__name__ == "scatter":
            ranges.append(len(out))
        return out

    monkeypatch.setattr(spectra, "_packed_input", counted_packed)
    monkeypatch.setattr(spectra, "run_blocks", counted_run_blocks)
    monkeypatch.setattr(spectra, "_PACKED_MIN", 2 ** 3)
    monkeypatch.setattr(gf, "_CHUNK", 2 ** 6)
    monkeypatch.setattr(gf, "_PARALLEL_MIN", 2 ** 4)
    with gf.block_threads(2):
        for n, (spec, expected) in cases.items():
            many = gf.FieldCtx(spec)
            for d, ref in expected.items():
                got = spectra._transform_input(many, d)
                packed = np.packbits(ref == -1, bitorder="little")
                assert got.dtype == np.uint8 and got.tobytes() == packed.tobytes(), (n, d)
                if gcd(d, many.period) == 1:
                    assert _same(class_record(many, d), class_record(many, d, method="naive")), \
                        (n, d)
    assert {n for n, _ in calls} == set(cases)
    assert max(ranges) == 2


def _real_table(rng, p, high, rows):
    """by_u of random values in [-high, high]: one column for p = 2, and
    real rows for odd p (coordinate 1 is 0, coordinate p - c is coordinate
    c), drawn on the key columns 0 and 2 .. (p - 1) / 2."""
    by_u = np.zeros((rows, p - 1), dtype=np.int32)
    keys = (0, *range(2, (p + 1) // 2))
    for c in keys:
        by_u[:, c] = rng.integers(-high, high + 1, rows)
    for c in keys[1:]:
        by_u[:, p - c] = by_u[:, c]
    return by_u


def test_blocked_histogram_matches_numpy_unique(monkeypatch):
    # random tables of one column (p = 2) and real tables of p - 1 columns,
    # whose keys are int32 ((3, 40), (5, 40)), int64 ((13, 40)) or
    # renumbered ((13, 2000)), with one row (one key to merge), row counts
    # one below, equal to and one above a multiple of the block, and 4095
    # rows (64 blocks)
    monkeypatch.setattr(spectra, "_HISTOGRAM_BLOCK", 2 ** 6)
    for p, high in ((2, 40), (3, 40), (5, 40), (13, 40), (13, 2000)):
        rng = np.random.default_rng(p * 100 + high)
        for rows in (1, 63, 64, 65, 127, 128, 129, 1000, 1023, 1024, 1025, 4095):
            ctx = SimpleNamespace(p=p, n=1, order=rows + 1)   # by_u's rows, a = 0 first
            by_u = _real_table(rng, p, high, rows + 1)
            vals, ref = np.unique(by_u[1:], axis=0, return_counts=True)
            wt = spectra.WalshTable(ctx, by_u)
            ctx.order = max(rows + 1, high)   # the key bound: |value| <= high <= order
            got, counts = wt.unique_values()
            assert got.dtype == vals.dtype and counts.dtype == ref.dtype, (p, high, rows)
            assert np.array_equal(got, vals) and np.array_equal(counts, ref), (p, high, rows)


def test_histogram_rejects_a_table_that_is_not_real():
    # the odd-p histogram keys on half the coordinates, so a table with a
    # nonzero coordinate 1 or with coordinates c and p - c apart in one row,
    # the first or the last, is refused
    rng = np.random.default_rng(7)
    for p in (3, 5, 7, 13):
        for c, other in [(1, None)] + [(c, p - c) for c in range(2, (p + 1) // 2)]:
            for row in (1, 4095):
                by_u = _real_table(rng, p, 40, 4096)
                by_u[row, c] += 1
                ctx = SimpleNamespace(p=p, n=1, order=4096)
                with pytest.raises(OutOfDomain, match="needs real values"):
                    spectra.WalshTable(ctx, by_u).unique_values()
                if other is not None:
                    by_u[row, other] += 1   # mirrored again: accepted
                    spectra.WalshTable(ctx, by_u).unique_values()


def test_binary_class_record_memory_peak():
    # the int32 output of the transform, 64 MiB, is the only field-sized
    # buffer made at (2,24): no m-sequence is built, and the input is a
    # packed table expanded band by band.  On two block threads: each range
    # adds its scratch (the histogram's, 5 MiB, the largest)
    ctx = gf.field_ctx(2, 24)
    tracemalloc.start()
    try:
        with gf.block_threads(2):
            class_record(ctx, 12582919)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80 * 2 ** 20, peak / 2 ** 20


def test_degenerate_crosscorrelation():
    ctx = gf.field_ctx(2, 4)
    for d in (1, 2, 4, 8):
        assert spectra.crosscorr_naive(ctx, d, 0) == 15
        assert spectra.crosscorr_naive(ctx, d, 5) == -1
        rows, counts = class_record(ctx, d)
        assert rows.tolist() == [[-1], [15]] and counts.tolist() == [14, 1]


def test_spectrum_builds_no_log_or_trace_table():
    ctx = gf.field_ctx(2, 18)   # above the context cache bound: a fresh build
    class_record(ctx, 5)
    assert "log_table" not in vars(ctx) and "trace_table" not in vars(ctx)
    assert "mseq" in vars(ctx)
    # from the packed input up, the m-sequence is not built either
    ctx = gf.field_ctx(2, 20)
    assert ctx.order >= spectra._PACKED_MIN
    class_record(ctx, 7)
    assert "log_table" not in vars(ctx) and "trace_table" not in vars(ctx)
    assert "mseq" not in vars(ctx)


def test_gold_n5_distribution():
    ctx = gf.field_ctx(2, 5)
    vals = {int(spectra.crosscorr_naive(ctx, 3, t).as_integer()) for t in range(31)}
    assert vals == {7, -9, -1}
    assert _integers(class_record(ctx, 3)) == {7: 10, -9: 6, -1: 15}


def test_ternary_n3_d7_distribution():
    assert _integers(class_record(gf.field_ctx(3, 3), 7)) == {8: 6, -10: 3, -1: 17}


@pytest.mark.parametrize("p,n", [(2, 4), (2, 7), (2, 8), (3, 4), (5, 2),
                                 (7, 2), (7, 3), (11, 2), (13, 2)])
def test_oracle_equivalence(p, n):
    ctx = gf.field_ctx(p, n)
    for d in _coprime_ds(ctx.period):
        fast = class_record(ctx, d, method="fast")
        naive = class_record(ctx, d, method="naive")
        assert _same(fast, naive), (p, n, d)


def test_naive_matches_per_shift_sum():
    # the naive method's correlation bookkeeping against the literal tau-sum
    ctx = gf.field_ctx(3, 3)
    d = 7
    rows, counts = class_record(ctx, d, method="naive")
    literal = {}
    for tau in range(ctx.period):
        v = spectra.crosscorr_naive(ctx, d, tau)
        literal[v] = literal.get(v, 0) + 1
    assert literal == {CycInt(3, r): c for r, c in zip(rows.tolist(), counts.tolist())}


def test_walsh_zero_point_vanishes():
    for p, n in ((2, 6), (3, 3), (5, 2)):
        ctx = gf.field_ctx(p, n)
        for d in _coprime_ds(ctx.period)[:6]:
            assert spectra.walsh_fast(ctx, d).zero_value().is_zero()


def test_walsh_linear_exponent_single_spike():
    ctx = gf.field_ctx(2, 4)
    wt = spectra.walsh_fast(ctx, 1)
    rows, counts = wt.unique_values()
    assert rows.tolist() == [[0], [16]] and counts.tolist() == [14, 1]
    assert wt.zero_value().is_zero()
    # the spike sits at a = 1: W(a) = sum (-1)^(Tr((1-a)x))
    assert wt.by_log[0, 0] == 16


@pytest.mark.parametrize("p,n", [(2, 5), (2, 8), (3, 2), (3, 4), (5, 3), (7, 3),
                                 (11, 2), (13, 2), (2, 1), (3, 1), (5, 1), (7, 1),
                                 (11, 1), (13, 1), (3, 5), (13, 3)])
def test_walsh_value_at_log_matches_direct_sum(p, n):
    # W(a) = sum over x of w^(Tr(x^d) - Tr(ax)), placed at a = alpha^tau;
    # n = 1 (no index half to swap) and odd n check the order `by_log` reads
    ctx = gf.field_ctx(p, n)
    degenerate = {pow(p, j, ctx.period) for j in range(n)}
    d = next((d for d in _coprime_ds(ctx.period) if d not in degenerate), 1)
    wt = spectra.walsh_fast(ctx, d)
    assert wt.by_log.shape == (ctx.period, p - 1) and wt.by_log.dtype == np.int32
    xs = np.arange(ctx.order)
    trace_xd = ctx.trace_table[[ctx.pow(x, d) for x in range(ctx.order)]].astype(int)
    for tau in range(ctx.period):
        a = ctx.element_from_log(tau)
        counts = np.bincount((trace_xd - ctx.trace_table[ctx.mul(a, xs)]) % p, minlength=p)
        assert CycInt(p, wt.by_log[tau].tolist()) == CycInt.from_counts(p, counts.tolist()), \
            (d, tau)


@pytest.mark.parametrize("p,n", [(7, 4), (11, 3), (13, 3)])
def test_oracle_equivalence_sampled(p, n):
    ctx = gf.field_ctx(p, n)
    degenerate = {pow(p, j, ctx.period) for j in range(n)}
    ds = [d for d in _coprime_ds(ctx.period) if d not in degenerate]
    for d in random.Random(p * 100 + n).sample(ds, 2):
        fast = class_record(ctx, d, method="fast")
        assert _same(fast, class_record(ctx, d, method="naive")), (p, n, d)


@pytest.mark.parametrize("p,n,d", [(2, 7, 11), (2, 10, 7), (3, 5, 5), (5, 3, 7),
                                   (7, 3, 5), (11, 2, 7), (13, 2, 5), (11, 5, 7)])
def test_unique_values_matches_numpy_unique(p, n, d):
    # the reference is np.unique over the rows of every a != 0; order must agree too
    wt = spectra.walsh_fast(gf.field_ctx(p, n), d)
    vals, counts = np.unique(wt.by_log, axis=0, return_counts=True)
    rows, c = wt.unique_values()
    assert rows.tolist() == vals.tolist() and c.tolist() == counts.tolist()
    if (p, n) == (11, 5):
        assert len(rows) == 30069   # tens of thousands of distinct values


HISTOGRAM_GRID = [(p, n, None) for p in gf.SUPPORTED_PRIMES for n in range(1, 11)
                  if p ** n <= 2 ** 10] + [(11, 3, None), (13, 3, None), (13, 5, 11)]


def test_unique_values_matches_numpy_unique_on_grid():
    # Every coprime d of every field up to 2^10 elements, and of (11,3) and
    # (13,3), and the heavy class (13,5) d = 11 (74268 distinct values): the
    # histogram has np.unique's rows, counts and dtypes on each of its
    # paths, packed keys in int32 or in int64 (when twice the key bound
    # (p^n + 1) * (product of the other key columns' spans) passes 2^31)
    # and renumbered keys (when it passes 2^63, at (13,5) d = 11).  The key
    # columns are 0 and, for odd p, 2 .. (p - 1) / 2.
    paths = set()
    for p, n, only in HISTOGRAM_GRID:
        ctx = gf.field_ctx(p, n)
        for d in _coprime_ds(ctx.period) if only is None else [only]:
            wt = spectra.walsh_fast(ctx, d)
            vals, counts = np.unique(wt.by_log, axis=0, return_counts=True)
            rows, c = wt.unique_values()
            assert rows.dtype == vals.dtype and c.dtype == counts.dtype, (p, n, d)
            assert np.array_equal(rows, vals) and np.array_equal(c, counts), (p, n, d)
            rest = wt.by_log[:, 2:(p + 1) // 2]
            spans = rest.max(axis=0) - rest.min(axis=0) + 1
            bound = 2 * (ctx.order + 1) * prod(spans.tolist())
            paths.add("int32" if bound <= 2 ** 31 else "int64" if bound <= 2 ** 63
                      else "renumbered")
    assert paths == {"int32", "int64", "renumbered"}


@pytest.mark.parametrize("p,n", [(2, 16), (3, 10), (5, 6), (7, 5), (11, 4), (13, 4)])
def test_linear_exponent_histogram_reaches_the_key_bound(p, n):
    # d = 1: W(a) is p^n at a = 1, the bound of the signed first digit, and
    # 0 at every other a != 0
    wt = spectra.walsh_fast(gf.field_ctx(p, n), 1)
    vals, counts = np.unique(wt.by_log, axis=0, return_counts=True)
    rows, c = wt.unique_values()
    assert rows.dtype == vals.dtype and c.dtype == counts.dtype
    assert np.array_equal(rows, vals) and np.array_equal(c, counts)
    assert rows[-1, 0] == p ** n and c.tolist() == [p ** n - 2, 1]


def test_odd_histogram_memory_peak():
    # (5,8): the int32 keys of one block and np.unique's sorted copy, not a
    # field-sized int64 key array per column pass
    ctx = gf.field_ctx(5, 8)
    d = random.Random(1).choice([d for d in range(2, 10 ** 4) if gcd(d, ctx.period) == 1])
    wt = spectra.walsh_fast(ctx, d)
    tracemalloc.start()
    try:
        wt.unique_values()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2 ** 20, peak / 2 ** 20


def test_walsh_global_sums():
    for p, n in ((2, 8), (3, 4), (5, 3)):
        ctx = gf.field_ctx(p, n)
        for d in _coprime_ds(ctx.period)[:4]:
            wt = spectra.walsh_fast(ctx, d)
            total = wt.zero_value()
            sq = total * total.conjugate()
            rows, counts = wt.unique_values()
            for v, c in zip(rows.tolist(), counts.tolist()):
                v = CycInt(p, v)
                total = total + v * c
                sq = sq + v * v.conjugate() * c
            assert total == p ** n
            assert sq == p ** (2 * n)


def test_spectrum_symmetries():
    ctx = gf.field_ctx(2, 6)
    L = ctx.period
    for d in (5, 11, 23):
        base = class_record(ctx, d)
        assert _same(base, class_record(ctx, d * 2 % L))
        assert _same(base, class_record(ctx, pow(d, -1, L)))
    ctx3 = gf.field_ctx(3, 3)
    for d in (5, 7):
        base = class_record(ctx3, d)
        assert _same(base, class_record(ctx3, d * 3 % 26))
        assert _same(base, class_record(ctx3, pow(d, -1, 26)))


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (5, 3), (7, 2), (11, 2), (13, 2)])
def test_spectrum_is_modulus_invariant(p, n):
    L = p ** n - 1
    moduli = [c for c in itertools.product(range(p), repeat=n) if gf.is_primitive(p, n, c)]
    assert len(moduli) == len(_coprime_ds(L)) // n   # phi(p^n - 1) / n
    ds = [d for d in _coprime_ds(L) if d not in {pow(p, j, L) for j in range(n)}][:3]
    ref = [class_record(gf.field_ctx(p, n), d) for d in ds]
    for coeffs in moduli:
        ctx = gf.field_ctx(p, n, coeffs)
        for d, record in zip(ds, ref):
            assert _same(class_record(ctx, d), record), (coeffs, d)


def test_spectrum_keys_are_real():
    for p, n in ((3, 4), (5, 2), (7, 2)):
        ctx = gf.field_ctx(p, n)
        for d in _coprime_ds(ctx.period)[:8]:
            for row in class_record(ctx, d)[0].tolist():
                assert CycInt(p, row).conjugate() == CycInt(p, row)


ODD_GRID = [(p, n) for p in gf.SUPPORTED_PRIMES[1:] for n in range(1, 11) if p ** n <= 2 ** 10]


@pytest.mark.parametrize("p,n", ODD_GRID)
def test_odd_spectra_are_real_on_grid(p, n):
    # a d coprime to the even p^n - 1 is odd, so x -> -x negates Tr(x^d) -
    # <u, x> and N_c(u) = N_(-c)(u): in the basis 1, w, ..., w^(p-2)
    # coordinate 1 is 0 and coordinate c equals coordinate p - c
    ctx = gf.field_ctx(p, n)
    for d in _coprime_ds(ctx.period):
        rows = class_record(ctx, d)[0]
        assert not rows[:, 1].any(), (p, n, d)
        assert np.array_equal(rows[:, 2:], rows[:, 2:][:, ::-1]), (p, n, d)


def test_nondegenerate_spectra_have_at_least_three_values():
    for p, n in ((2, 6), (3, 3), (5, 2)):
        ctx = gf.field_ctx(p, n)
        L = ctx.period
        degen = {pow(p, j, L) for j in range(n)}
        for d in _coprime_ds(L):
            if d in degen:
                continue
            assert len(class_record(ctx, d)[1]) >= 3, (p, n, d)


def test_spectrum_totals_and_first_moment():
    for p, n in ((2, 7), (3, 4)):
        ctx = gf.field_ctx(p, n)
        for d in _coprime_ds(ctx.period)[:10]:
            rows, counts = class_record(ctx, d)
            assert counts.sum() == p ** n - 1
            assert power_sum(p, rows, counts, 1) == 1


def test_power_moments_first_two():
    for p, n in ((2, 6), (3, 3)):
        ctx = gf.field_ctx(p, n)
        for d in _coprime_ds(ctx.period)[:6]:
            # W = C + 1 over the p^n - 1 points a != 0 (W(0) = 0)
            record = class_record(ctx, d)
            assert power_sum(p, *record, 0, 1) == p ** n - 1
            assert power_sum(p, *record, 1, 1) == p ** n
            assert power_sum(p, *record, 2, 1) == p ** (2 * n)


def test_third_moment_equals_m1_count():
    ctx = gf.field_ctx(2, 5)
    d = 3
    record = class_record(ctx, d)
    m1 = sum(
        1 for x in range(32)
        if ctx.add(ctx.pow(ctx.add(x, 1), d), ctx.pow(x, d)) == 1
    )
    assert m1 == 2
    assert power_sum(2, *record, 3, 1) == 2 ** 10 * m1


def test_solution_counts_small_l():
    for p, n in ((2, 5), (3, 2)):
        ctx = gf.field_ctx(p, n)
        d = 3 if p == 2 else 5
        assert spectra.solution_count_N(ctx, d, 1) == 1
        assert spectra.solution_count_N(ctx, d, 2) == p ** n


def test_solution_count_matches_moment_formula():
    # P^(l) = (p^(2n) N^(l) - p^(ln)) / (p^n - 1), exact
    for p, n, ds in ((2, 6, (5, 11)), (3, 3, (5, 7)), (2, 8, (7,))):
        ctx = gf.field_ctx(p, n)
        q = p ** n
        for d in ds:
            record = class_record(ctx, d)
            for l in (1, 2, 3, 4):
                N = spectra.solution_count_N(ctx, d, l)
                lhs = power_sum(p, *record, l, 1)
                num = q * q * N - q ** l
                assert num % (q - 1) == 0
                assert lhs == num // (q - 1), (p, n, d, l)


def test_budget_guard():
    ctx = gf.field_ctx(2, 12)
    with pytest.raises(Budget):
        spectra.solution_count_N(ctx, 5, 4)  # 2^36 tuples


def test_b3_degenerate_decimation():
    ctx = gf.field_ctx(2, 4)
    assert spectra.b_l_count(ctx, 2, 3) == 14  # p^n - 2


def test_b3_matches_nonzero_restricted_count():
    ctx = gf.field_ctx(2, 5)
    d = 3
    direct = 0
    for x1 in range(1, 32):
        for x2 in range(1, 32):
            if ctx.add(x1, x2) == 1 and ctx.add(ctx.pow(x1, d), ctx.pow(x2, d)) == 1:
                direct += 1
    assert spectra.b_l_count(ctx, d, 3) == direct


def test_b3_m1_relation():
    # M_1 = b_3 + 2: the two boundary solutions x in {0, -1}
    for p, n, d in ((2, 6, 5), (3, 3, 7), (5, 2, 7)):
        ctx = gf.field_ctx(p, n)
        m1 = sum(
            1 for x in range(p ** n)
            if ctx.sub(ctx.pow(ctx.add(x, 1), d), ctx.pow(x, d)) == 1
        )
        assert m1 == spectra.b_l_count(ctx, d, 3) + 2


@pytest.mark.parametrize("p,n,d", [(2, 6, 5), (2, 8, 7), (3, 3, 7), (5, 2, 7), (3, 4, 7),
                                   (5, 3, 3), (7, 2, 5), (11, 2, 7), (13, 2, 5)])
def test_moment_identity_check_passes(p, n, d):
    rep = spectra.moment_identity_check(gf.field_ctx(p, n), d)
    assert rep.all_pass(), rep.to_dict()


SHIFT_CASES = [(2, 5, 3), (3, 3, 7), (5, 2, 7), (7, 2, 5), (11, 2, 7), (13, 2, 5)]


def _sampled_shifts(L):
    return sorted(random.Random(2024).sample(range(1, L), 3))   # moment_identity_check's


@pytest.mark.parametrize("p,n,d", SHIFT_CASES)
def test_shifted_second_moment_matches_literal_sums(p, n, d):
    ctx = gf.field_ctx(p, n)
    L = ctx.period
    wt = spectra.walsh_fast(ctx, d)
    cvals = [spectra.crosscorr_naive(ctx, d, tau) for tau in range(L)]
    for t in [0, 1] + _sampled_shifts(L):
        literal = CycInt.zero(p)
        for tau in range(L):
            literal = literal + cvals[(tau - t) % L] * cvals[tau]
        assert spectra._shifted_second_moment(wt, t) == literal, t
    # t = 0 is the second moment, which the check takes from the histogram
    assert spectra._shifted_second_moment(wt, 0) == power_sum(p, *wt.unique_values(), 2, -1)


@pytest.mark.parametrize("p,n,d", SHIFT_CASES)
def test_shifted_moment_verdicts_see_one_changed_coordinate(p, n, d, monkeypatch):
    # C(0) -> C(0) + w changes each shifted sum by w (C(-t) + C(t)), which is
    # nonzero here; the histogram-based verdicts do not read the per-shift array
    ctx = gf.field_ctx(p, n)
    assert spectra.moment_identity_check(ctx, d).shifted_ok
    by_log = spectra.WalshTable.by_log.func

    def changed(self):
        c = by_log(self)
        c[0] += CycInt.root_power(p, 1).coords
        return c

    monkeypatch.setattr(spectra.WalshTable, "by_log", property(changed))
    rep = spectra.moment_identity_check(ctx, d)
    assert [t for t, _ in rep.shifted] == _sampled_shifts(ctx.period)
    assert [ok for _, ok in rep.shifted] == [False] * 3
    assert rep.sum_c_ok and rep.autocorr_t0_ok and rep.third_moment_ok
    # and by exactly that amount (w is not real, so this also pins w^i w^j)
    wt = spectra.walsh_fast(ctx, d)
    w = CycInt.root_power(p, 1)
    for t, _ in rep.shifted:
        change = w * (spectra.crosscorr_naive(ctx, d, -t) + spectra.crosscorr_naive(ctx, d, t))
        assert spectra._shifted_second_moment(wt, t) == -ctx.order - 1 + change, t


def test_shifted_second_moment_t1_value():
    # explicit t = 1 instance over GF(16), d = 7
    ctx = gf.field_ctx(2, 4)
    cvals = [spectra.crosscorr_naive(ctx, 7, t).as_integer() for t in range(15)]
    s = sum(cvals[(tau - 1) % 15] * cvals[tau] for tau in range(15))
    assert s == -17


def test_not_coprime_errors():
    ctx = gf.field_ctx(2, 4)
    with pytest.raises(OutOfDomain, match=r"gcd\(3, 15\) != 1"):
        class_record(ctx, 3)
    with pytest.raises(OutOfDomain, match=r"gcd\(5, 15\) != 1"):
        spectra.crosscorr_naive(ctx, 5, 0)
    with pytest.raises(OutOfDomain, match=r"gcd\(3, 15\) != 1"):
        spectra.moment_identity_check(ctx, 3)
    # the transform itself is defined for any exponent
    wt = spectra.walsh_fast(ctx, 3)
    assert int(wt.by_log.sum()) + wt.zero_value() == 16


def test_naive_budget():
    with pytest.raises(Budget):
        class_record(gf.field_ctx(2, 16), 7, method="naive")


def test_spectrum_json_ordering():
    entries = spectra.Entries(2, *class_record(gf.field_ctx(2, 5), 3)).items()
    vals = [e["value"] for e in entries]
    assert vals == sorted(vals)


def test_walsh_matches_literal_shift_sums_non_coprime():
    # for p = 2 the per-shift identity C(tau) = W(alpha^tau) - 1 needs no
    # coprimality; check d = 3 over GF(64) (gcd(3, 63) = 3) by literal sums
    ctx = gf.field_ctx(2, 6)
    d = 3
    wt = spectra.walsh_fast(ctx, d)
    exp = ctx.exp_table
    tr = ctx.trace_table
    for tau in range(0, 63, 7):
        acc = 0
        for t in range(63):
            acc += (-1) ** ((int(tr[exp[(t + tau) % 63]]) - int(tr[exp[(d * t) % 63]])) % 2)
        assert acc == wt.by_log[tau, 0] - 1
