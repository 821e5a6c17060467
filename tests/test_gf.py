"""Field construction: canonical polynomials, tables, traces, unit circle."""

import hashlib
import random
import sys
import threading
import time

import numpy as np
import pytest

from mseqcorr import gf, lfsr
from mseqcorr.errors import Budget, OutOfDomain


# -- independent polynomial oracle (kept separate from the library path) ----

def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _poly_mod(a, mod, p):
    a = list(a)
    while len(a) >= len(mod):
        c = a[-1]
        if c:
            shift = len(a) - len(mod)
            for i, mi in enumerate(mod):
                a[shift + i] = (a[shift + i] - c * mi) % p
        a.pop()
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _root_order(coeffs, p):
    """Multiplicative order of x modulo the monic poly, by slow iteration."""
    n = len(coeffs)
    mod = list(coeffs) + [1]
    cur = [0, 1] if n > 1 else [(-coeffs[0]) % p]
    k = 1
    seenone = cur == [1]
    while not seenone:
        cur = _poly_mod(_poly_mul(cur, [0, 1] if n > 1 else [(-coeffs[0]) % p], p), mod, p)
        k += 1
        seenone = cur == [1]
        if k > p ** n:
            raise AssertionError("order search ran away")
    return k


@pytest.mark.parametrize("p,n,expected", [
    (2, 1, (1,)),
    (2, 4, (1, 1, 0, 0)),
    (3, 2, (2, 1)),
])
def test_canonical_polynomial_examples(p, n, expected):
    spec = gf.find_primitive_polynomial(p, n)
    assert spec.coeffs == expected
    if n > 1:
        assert _root_order(spec.coeffs, p) == p ** n - 1


def test_canonical_polynomial_is_least():
    # exhaust the (2, 4) candidates with the independent oracle
    good = []
    for c3 in (0, 1):
        for c2 in (0, 1):
            for c1 in (0, 1):
                coeffs = (1, c1, c2, c3)
                if _root_order(coeffs, 2) == 15:
                    good.append(coeffs)
    spec = gf.find_primitive_polynomial(2, 4)
    assert spec.coeffs in good
    assert spec.coeffs == min(good, key=lambda c: tuple(reversed(c)))


@pytest.mark.parametrize("p,n,coeffs,expected", [
    (3, 2, (1, 0), False),          # root order 4 != 8
    (2, 4, (1, 1, 0, 0), True),
    (2, 4, (1, 1, 1, 1), False),    # divides x^5 - 1
])
def test_is_primitive_examples(p, n, coeffs, expected):
    assert gf.is_primitive(p, n, coeffs) is expected


def test_is_primitive_matches_order_oracle_gf3_quadratics():
    for c1 in range(3):
        for c0 in (1, 2):
            coeffs = (c0, c1)
            assert gf.is_primitive(3, 2, coeffs) == (_root_order(coeffs, 3) == 8)


@pytest.mark.parametrize("p", gf.SUPPORTED_PRIMES)
def test_is_primitive_degree_one_matches_order_oracle(p):
    # x mod (x + c) is -c, primitive iff -c generates GF(p)*
    for c in range(1, p):
        assert gf.is_primitive(p, 1, (c,)) == (_root_order((c,), p) == p - 1), (p, c)


def test_composite_p_rejected():
    with pytest.raises(OutOfDomain, match="p=4 is not prime"):
        gf.find_primitive_polynomial(4, 2)
    with pytest.raises(OutOfDomain, match="p=9 is not prime"):
        gf.is_primitive(9, 2, (1, 1))


def test_too_large_rejected():
    with pytest.raises(Budget):
        gf.find_primitive_polynomial(2, 41)
    # the degree alone decides a huge power, which is neither built nor printed
    with pytest.raises(Budget, match=r"^p\^n = 13\^100000000 exceeds the arithmetic bound 2\^40$"):
        gf.is_primitive(13, 10 ** 8, (1,))
    assert gf.power_exceeds(2, 41, 2 ** 40) and not gf.power_exceeds(2, 40, 2 ** 40)
    assert gf.power_exceeds(3, 26, 3 ** 26 - 1) and not gf.power_exceeds(3, 26, 3 ** 26)
    with pytest.raises(Budget):
        gf.FieldCtx(gf.FieldSpec(2, 25, tuple([1] + [0] * 23 + [1])))


def _decimation_oracle(L, d):
    return [k * d % L for k in range(L)]


def test_decimation_index_every_prime_small_n():
    for p in gf.SUPPORTED_PRIMES:
        n = 1
        while p ** n <= 2 ** 10:
            L = p ** n - 1
            for d in (1, 2, L - 1, L, L + 1, 3 * L + 2, p ** n + p):
                idx = gf.decimated(np.arange(L, dtype=np.int32), d)
                assert idx.dtype == np.int32
                assert idx.tolist() == _decimation_oracle(L, d), (p, n, d)
            n += 1


def test_decimation_index_any_period():
    # every L below 300, most of them not a multiple of the block size
    # ceil(sqrt(L)), L = 1 included
    for L in range(1, 300):
        for d in (0, 1, 7, L - 1, L + 5, -3):
            assert gf.decimated(np.arange(L), d).tolist() == _decimation_oracle(L, d), (L, d)


@pytest.mark.parametrize("p,n,d", [(2, 24, 12582919), (3, 15, 7174457)])
def test_decimation_index_sampled_largest_fields(p, n, d):
    L = p ** n - 1
    for e in (d, d + L, L - 1):
        idx = gf.decimated(np.arange(L, dtype=np.int32), e)
        assert idx.dtype == np.int32 and len(idx) == L
        ks = random.Random(L + e).sample(range(L), 2000) + [0, 1, L - 2, L - 1]
        assert [int(idx[k]) for k in ks] == [k * e % L for k in ks], e


def test_decimation_index_bounds():
    # a broadcast view: 2^31 entries that take no memory
    for values in (np.empty(0, dtype=np.int8), np.broadcast_to(np.int8(0), (2 ** 31,))):
        with pytest.raises(Budget):
            gf.decimated(values, 3)


def test_factorize_small_and_semiprime():
    assert gf.factorize(2 ** 16 - 1) == {3: 1, 5: 1, 17: 1, 257: 1}
    n = 1000003 * 1000033  # both factors above 10^6, the product below 2^40
    assert gf.factorize(n) == {1000003: 1, 1000033: 1}


def test_factorize_and_is_prime_match_a_sieve():
    N = 10 ** 5
    spf = np.zeros(N, dtype=np.int64)   # smallest prime factor
    for q in range(2, N):
        if spf[q] == 0:
            spf[q::q][spf[q::q] == 0] = q
    for n in range(N):
        want: dict[int, int] = {}
        m = n
        while m > 1:
            q = int(spf[m])
            want[q] = want.get(q, 0) + 1
            m //= q
        assert gf.factorize(n) == want, n
        assert gf.is_prime(n) == (n > 1 and spf[n] == n), n


def test_factorize_bound():
    assert gf.is_prime(2 ** 40 - 87)   # the largest prime below 2^40
    assert gf.factorize(2 ** 40) == {2: 40}
    with pytest.raises(Budget):
        gf.factorize(2 ** 40 + 1)


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (5, 3), (7, 2), (11, 2), (13, 2)])
def test_exp_log_tables(p, n):
    ctx = gf.field_ctx(p, n)
    L = ctx.period
    assert ctx.element_from_log(0) == 1
    # bijection onto nonzero elements
    assert sorted(int(v) for v in ctx.exp_table) == list(range(1, L + 1))
    for v in range(1, L + 1):
        assert ctx.element_from_log(int(ctx.log_table[v])) == v
    # multiplicativity, exhaustive on small fields
    rng = random.Random(7)
    pairs = (
        [(i, j) for i in range(L) for j in range(L)] if L * L <= 2 ** 12
        else [(rng.randrange(L), rng.randrange(L)) for _ in range(2000)]
    )
    for i, j in pairs:
        a, b = ctx.element_from_log(i), ctx.element_from_log(j)
        assert ctx.mul(a, b) == ctx.element_from_log((i + j) % L)


def test_mul_matches_digit_convolution_oracle():
    # slow polynomial multiplication as the independent check
    p, n = 3, 3
    ctx = gf.field_ctx(p, n)
    mod = list(ctx.spec.coeffs) + [1]

    def unpack(v):
        return [(v // p ** i) % p for i in range(n)]

    def pack(digs):
        return sum(d * p ** i for i, d in enumerate(digs))

    for a in range(ctx.order):
        for b in range(0, ctx.order, 5):
            prod = _poly_mod(_poly_mul(unpack(a), unpack(b), p), mod, p)
            prod += [0] * (n - len(prod))
            assert ctx.mul(a, b) == pack(prod)


ONE_FIELD_PER_PRIME = [(2, 6), (3, 3), (5, 2), (7, 2), (11, 2), (13, 2)]


def _digits(v, p, n):
    return [(v // p ** i) % p for i in range(n)]


@pytest.mark.parametrize("p,n", ONE_FIELD_PER_PRIME)
def test_array_ops_match_scalar_ops(p, n):
    ctx = gf.field_ctx(p, n)
    q = ctx.order
    a, b = np.divmod(np.arange(q * q), q)   # every pair of elements
    for op in (ctx.add, ctx.sub, ctx.mul):
        got = op(a, b)
        assert isinstance(got, np.ndarray)
        assert got.tolist() == [op(int(x), int(y)) for x, y in zip(a, b)]
        assert op(q - 1, b[:q]).tolist() == [op(q - 1, y) for y in range(q)]
    assert ctx.neg(b[:q]).tolist() == [ctx.neg(y) for y in range(q)]
    assert all(type(op(q - 1, 1)) is int for op in (ctx.add, ctx.sub, ctx.mul, ctx.pow))
    # pow and inv: array calls match scalar calls, and powers match repeated mul
    x, nz = b[:q], b[1:q]
    for e in (0, 1, 2, 3, q - 2, 5 * q + 3):
        assert ctx.pow(x, e).tolist() == [ctx.pow(y, e) for y in range(q)]
    for e in (-1, -3):
        assert ctx.pow(nz, e).tolist() == [ctx.pow(y, e) for y in range(1, q)]
    acc = np.ones(q, dtype=np.int64)
    for e in range(5):
        assert ctx.pow(x, e).tolist() == acc.tolist()
        acc = ctx.mul(acc, x)
    assert ctx.inv(nz).tolist() == [ctx.inv(y) for y in range(1, q)]
    assert ctx.mul(ctx.inv(nz), nz).tolist() == [1] * (q - 1)
    assert type(ctx.inv(q - 1)) is int
    with pytest.raises(ZeroDivisionError):
        ctx.inv(x)
    with pytest.raises(ZeroDivisionError):
        ctx.pow(x, -1)
    # add is digit-wise addition mod p (independent oracle)
    for x, y in zip(a.tolist(), b.tolist()):
        s = [(i + j) % p for i, j in zip(_digits(x, p, n), _digits(y, p, n))]
        assert ctx.add(x, y) == sum(d * p ** i for i, d in enumerate(s))


def test_exp_table_matches_polynomial_stepping():
    for p in gf.SUPPORTED_PRIMES:
        n = 1
        while p ** n <= 2 ** 12:
            ctx = gf.field_ctx(p, n)
            mod = ctx.spec.coeffs
            x = (0, 1) + (0,) * (n - 2) if n > 1 else ((-mod[0]) % p,)
            v = (1,) + (0,) * (n - 1)
            for k in range(ctx.period):
                assert int(ctx.exp_table[k]) == sum(c * p ** i for i, c in enumerate(v)), (p, n, k)
                v = gf._poly_mulmod(v, x, mod, p)
            assert v == (1,) + (0,) * (n - 1)
            n += 1


def test_mseq_matches_recursion_and_trace_table():
    # s_k = Tr(alpha^k) three ways: the lazy mseq, the LFSR recursion run
    # from its first n symbols, and the full trace table read at exp
    for p in gf.SUPPORTED_PRIMES:
        n = 1
        while p ** n <= 2 ** 12:
            ctx = gf.field_ctx(p, n)
            s = ctx.mseq
            assert s.dtype == np.int8 and len(s) == ctx.period
            rec = lfsr.generate_recursion(ctx.spec, s[:n].tolist())
            assert rec.symbols == s.astype(np.uint8).tobytes(), (p, n)
            assert (s == ctx.trace_table[ctx.exp_table]).all(), (p, n)
            n += 1


# sha256 of (canonical coefficients, exp_table, mseq, trace_table,
# gram_index(exp_table)), each array with its dtype, for every supported
# (p, n) with p^n <= 2^16: any change to how the tables are built must keep
# every table bit-identical
FIELD_TABLES_SHA256 = {
    (2, 1): "95299d293c78db42ef82d61b99d293a78f103ff721c80379b3a5e4ea17467a2f",
    (2, 2): "a6b74e21a02eda4dc97905b792f6d1f05a51a22d90747a22f4b20cb5b6bbdf4b",
    (2, 3): "43747841ad4473f03c16e4e37dd01b0bda2fb4f47f0b1c5f87fc1c46d63db0d5",
    (2, 4): "7abc9ce4c7a41608e96a206e1350bda334911bcc7c4dbc64987a4bcfe2f39892",
    (2, 5): "b5c5794a1ec079e62106183cb7093c28ba49f26dc2c620ae7f50505e1cac4a8b",
    (2, 6): "24228e483aa3a4f5cb4e181fd35892de3f824b778165793bc68cd92a2ec42b01",
    (2, 7): "a9360f250296f6a96044feec6981873a607a202404b63cd58813269ceefe98cd",
    (2, 8): "c1b356bea89cffda49a7c2e83eba769744545cc41d03ff1e069a75ca4c34cb87",
    (2, 9): "c6594b2bc44b1b16437cea63a4e2207333f3fb491e4f000df685058e8f4bbb3c",
    (2, 10): "58a94aa3939790106142ffdf962e5ee553a15d4fd0fbbcb5e1ba6e6506383f10",
    (2, 11): "d9fed4b182905b508e3e564045ceee4d7c8ee0244259a82ba980e81c7d075b1d",
    (2, 12): "d09e507104acec2275408e819507d003db675a2f4de88862cb3805032750a1ce",
    (2, 13): "3176300b6955d72db5dba0ea303e5ff3ca68fd8ff5f1a068143a99d9c0fb8959",
    (2, 14): "e9b8a2e33fd556edbe6eab245ab23775d2c234c80aec394c469e220bcb294e20",
    (2, 15): "80a44200c6f68ca55433083270ea04ab11294f0d67c0df67f54428a5a0291cb9",
    (2, 16): "71228a5b9a58bfc57753f80a015df95d4002cd6d1da85ee0aef02247d4c77d12",
    (3, 1): "8029aeb35a017681803464d609dbcf767d158a1e6e2d319bf758fda4a3345267",
    (3, 2): "e1a393072af8d9d84e3591e2870bfbc3f3990e1a848a0f404e581577425e5e39",
    (3, 3): "5cae20feefc6bb26e3fe3ede306dc01ada264cdd8e517ff4baa839e2d209d6f7",
    (3, 4): "19619aaf57eec581d06fe0f545747d9798dddd4d42b213638d87d79e0d6f0d6e",
    (3, 5): "cf3c788282744d27a1cd22fef1d10204d8c497f75552a30ff8d20f467ef26d54",
    (3, 6): "fb4d36cc0b254dbf42fd1a2caa9b8ebbf13146a61127278595217922f1b963bf",
    (3, 7): "19898fd1825858d5c3928ae26865d6c754bd630c509aff49c4e5a0c907ce9fe5",
    (3, 8): "47a727b38468c9d4741098612371d21a11d66c35fbffc6087d13e9c8cc479900",
    (3, 9): "0528967115e7d093c95471b64975d5e0d8317bc7bd357a6c8bc53f394cc53bc2",
    (3, 10): "fdad3739865e606b9ae9ce5656167a5ae555cc97f47d78b12edb268d48c1d577",
    (5, 1): "681919eb617466299b508b7729331be461778f8a5ee9baaa93233070bfea8e09",
    (5, 2): "521bcbf5625d481be4c805952854d67b537abb46b7f4a09d45b877b321fb401d",
    (5, 3): "1ff381e66f5edfdbb92c8bcb8636918b282d97f3c7f31a811674a43cacb0974b",
    (5, 4): "2d1f23fdc0a36e65724a507abdb13f7f5fa770b898b6eab67d119befc25bfeb5",
    (5, 5): "480fc5266e26fb9d48e54fa3f8aba992e12d48784a4a34235f309d4eb81bce9c",
    (5, 6): "0e00eb85434eae6acebb09f2273612c26c3de9e27e7040e216fb2f01d632d511",
    (7, 1): "1545c9e8213c9ec7e8a38d774fdc4cffd54b04de7bd68bf9bd3a5cf061ab5df2",
    (7, 2): "c0f1beb9b394ac9a01a6dc140dcc750ff1ec1ccfc22d690f6892e8afed2ee979",
    (7, 3): "ea23c445b0021170d41e17804af0ad8d7cd8d0be66c9505f9d233775a099a271",
    (7, 4): "1b44bb80cec5b412bb5fb5eae8aa1469d4df13275fe92120b37c2ac257796afd",
    (7, 5): "3449b68c6a6b686613bfbc4b2465d3603957929e167c71fedede0903d82482da",
    (11, 1): "ade172b3bb6bf8f5ee69f7b7354778972c403775d4bba6708020e5e077cd72c1",
    (11, 2): "09fa4e8342735543f4195a5fe6c61190e81d1bf5f32a221971156475f5232e55",
    (11, 3): "39f5bbab22029a9a52b572e2f7d57fb89a38184442841ec0c42513388d3b5d69",
    (11, 4): "cabc4d9aa12c9422380255fb640f7d28d135d4a8ac15f48df64c2cceb9f472ef",
    (13, 1): "6eec0bf4f601225be8258b6bcf72722454adf9aa677824deeea5092509c4f54a",
    (13, 2): "667fe7be4e3a852ca80851bb65f69f83364b9c5db130d9f83af73d1afbd22451",
    (13, 3): "316b61c3a19564c9722aea63560627dc06be266d16b55c23e2b0a736e64edd27",
    (13, 4): "5908909c7baf38ad0bdb98cc4401ac03f946c0fa386511d6f9f403cd048934d4",
}


def _field_tables_digest(ctx):
    h = hashlib.sha256(repr(ctx.spec.coeffs).encode())
    for a in (ctx.exp_table, ctx.mseq, ctx.trace_table, ctx.gram_index(ctx.exp_table)):
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


def test_field_tables_pinned():
    fields = [(p, n) for p in gf.SUPPORTED_PRIMES
              for n in range(1, 17) if p ** n <= 2 ** 16]
    assert sorted(FIELD_TABLES_SHA256) == sorted(fields)
    for p, n in fields:
        assert _field_tables_digest(gf.field_ctx(p, n)) == FIELD_TABLES_SHA256[p, n], (p, n)


# the largest supported field of each prime, where the digit slots of the
# table build are widest
LARGEST_FIELD_PER_PRIME = [(2, 24), (3, 15), (5, 10), (7, 8), (11, 6), (13, 6)]


@pytest.mark.parametrize("p,n", LARGEST_FIELD_PER_PRIME)
def test_tables_match_polynomial_oracle_on_largest_fields(p, n):
    # exp[k] = x^k mod f by square-and-multiply, and mseq[k] = Tr(x^k) as
    # sum_i [x^i] (x^k mod f) * Tr(x^i), with Tr(x^i) the trace of the
    # multiplication-by-x^i matrix, sum_j [x^j] (x^(i+j) mod f)
    ctx = gf.field_ctx(p, n)
    assert ctx.exp_table.dtype == np.int32
    mod = list(ctx.spec.coeffs) + [1]
    powers = [[1]]
    for _ in range(2 * n - 2):
        powers.append(_poly_mod(_poly_mul(powers[-1], [0, 1], p), mod, p))
    tr_basis = [sum((powers[i + j] + [0] * n)[j] for j in range(n)) % p for i in range(n)]
    squares = [[0, 1]]   # x^(2^j) mod f
    while 2 ** len(squares) <= ctx.period:
        squares.append(_poly_mod(_poly_mul(squares[-1], squares[-1], p), mod, p))
    rng = random.Random(p * 100 + n)
    for k in [0, 1, n, ctx.period - 1] + [rng.randrange(ctx.period) for _ in range(2000)]:
        v = [1]
        for j, sq in enumerate(squares):
            if k >> j & 1:
                v = _poly_mod(_poly_mul(v, sq, p), mod, p)
        assert int(ctx.exp_table[k]) == sum(c * p ** i for i, c in enumerate(v)), (p, n, k)
        assert int(ctx.mseq[k]) == sum(c * t for c, t in zip(v, tr_basis)) % p, (p, n, k)


def test_lazy_tables_are_thread_safe():
    # four threads make the first reads of one fresh context's lazy tables
    spec = gf.find_primitive_polynomial(3, 8)
    serial = gf.FieldCtx(spec)
    want = (serial.log_table, serial.trace_table)
    shared = gf.FieldCtx(spec)
    got = [None] * 4

    def read(i):
        got[i] = (shared.log_table, shared.trace_table)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for log, tr in got:
        assert (log == want[0]).all() and (tr == want[1]).all()


def test_run_blocks_tiles_the_range_on_at_most_threads_threads():
    # below the threshold, or with one thread, a pass is one inline call;
    # above it, one range per thread (at most count, at most one per half
    # threshold of elements), in order, each on a pool thread, with its
    # scratch made in the calling thread
    main = threading.get_ident()
    big = 4 * gf._PARALLEL_MIN
    for threads in (1, 2, 3, 4):
        for count in (1, 2, 5, 1000):
            for elements, most in ((gf._PARALLEL_MIN - 1, 1), (gf._PARALLEL_MIN, 2), (big, 8)):
                with gf.block_threads(threads):
                    got = gf.run_blocks(lambda lo, hi: (lo, hi, threading.get_ident()),
                                        count, elements)
                    # working memory: made once per range, in the calling thread
                    made = gf.run_blocks(lambda lo, hi, made_by: made_by, count, elements,
                                         threading.get_ident)
                pieces = min(count, threads, most)
                assert made == [main] * pieces
                assert [lo for lo, _, _ in got] == [count * i // pieces for i in range(pieces)]
                assert [hi for _, hi, _ in got] == [count * i // pieces
                                                    for i in range(1, pieces + 1)]
                ids = {ident for _, _, ident in got}
                assert ids == {main} if pieces == 1 else main not in ids and len(ids) <= pieces


def test_run_blocks_waits_for_every_block_before_raising():
    finished = []

    def block(lo, hi):
        if lo == 0:
            raise ValueError("first block")
        time.sleep(0.05)
        finished.append(lo)

    with gf.block_threads(2), pytest.raises(ValueError, match="first block"):
        gf.run_blocks(block, 2, 2 * gf._PARALLEL_MIN)
    assert finished == [1]


def test_block_threads_below_one_rejected():
    for threads in (0, -3):
        with pytest.raises(OutOfDomain, match="threads must be at least 1"):
            with gf.block_threads(threads):
                pass


@pytest.mark.parametrize("p,n", ONE_FIELD_PER_PRIME)
def test_gram_index_pairs_trace(p, n):
    # Tr(a x) = <u(a), digits(x)> mod p for every pair
    ctx = gf.field_ctx(p, n)
    q = ctx.order
    u = ctx.gram_index(np.arange(q))
    a, x = np.divmod(np.arange(q * q), q)
    du = np.array([_digits(v, p, n) for v in u.tolist()])
    dx = np.array([_digits(v, p, n) for v in range(q)])
    dots = (du[a] * dx[x]).sum(axis=1) % p
    assert (ctx.trace_table[ctx.mul(a, x)] == dots).all()


def test_add_inverse_pow():
    ctx = gf.field_ctx(5, 2)
    for a in range(1, ctx.order):
        assert ctx.mul(a, ctx.inv(a)) == 1
        assert ctx.add(a, ctx.neg(a)) == 0
        assert ctx.pow(a, ctx.period) == 1
    assert ctx.pow(0, 5) == 0
    assert ctx.pow(0, 0) == 1
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


@pytest.mark.parametrize("p,n", [(2, 8), (3, 5), (5, 4), (2, 2), (7, 3), (11, 2), (13, 2)])
def test_trace_fibers_and_linearity(p, n):
    ctx = gf.field_ctx(p, n)
    counts = np.bincount(ctx.trace_table, minlength=p)
    assert all(int(c) == p ** (n - 1) for c in counts)
    assert ctx.trace(0) == 0
    rng = random.Random(11)
    for _ in range(200):
        a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
        assert ctx.trace(ctx.add(a, b)) == (ctx.trace(a) + ctx.trace(b)) % p


def test_trace_gf4_of_one():
    ctx = gf.field_ctx(2, 2)
    assert ctx.trace(1) == 0  # 1 + 1 in characteristic 2


def test_trace_matches_frobenius_sum():
    ctx = gf.field_ctx(3, 3)
    for a in range(ctx.order):
        acc = 0
        for k in range(ctx.n):
            acc = ctx.add(acc, ctx.frobenius(a, k))
        assert acc == ctx.trace(a)  # trace lands in the prime field


@pytest.mark.parametrize("p,n,size", [(2, 2, 3), (3, 2, 4), (2, 6, 9)])
def test_unit_circle(p, n, size):
    ctx = gf.field_ctx(p, n)
    uc = ctx.unit_circle().tolist()
    assert len(uc) == size
    assert len(set(uc)) == size
    assert 1 in uc
    m = n // 2
    for x in uc:
        assert ctx.pow(x, p ** m + 1) == 1
        assert ctx.mul(x, ctx.conj_half(x)) == 1
        # closed under x -> 1/conj(x) (which fixes every element of U)
        assert ctx.inv(ctx.conj_half(x)) == x


def test_unit_circle_needs_even_degree():
    with pytest.raises(OutOfDomain, match="unit circle needs n = 2m"):
        gf.field_ctx(2, 5).unit_circle()


def test_unit_circle_is_norm_kernel():
    ctx = gf.field_ctx(2, 6)
    members = set(ctx.unit_circle().tolist())
    kernel = {x for x in range(1, ctx.order) if ctx.pow(x, 2 ** 3 + 1) == 1}
    assert members == kernel


def test_grid_canonical_polys_are_primitive():
    for p, nmax in ((2, 12), (3, 7), (5, 4), (7, 3), (11, 2), (13, 2)):
        for n in range(1, nmax + 1):
            spec = gf.find_primitive_polynomial(p, n)
            assert gf.is_primitive(p, n, spec.coeffs)


def test_canonical_table_is_the_search():
    # the pinned moduli are those the search finds, for exactly the
    # supported fields that have tables
    fields = [(p, n) for p in gf.SUPPORTED_PRIMES for n in range(1, 25)
              if p ** n <= gf.MAX_TABLE_ORDER]
    assert len(fields) == 69 and sorted(gf._CANONICAL) == fields
    for p, n in fields:
        assert gf._CANONICAL[(p, n)] == gf.find_primitive_polynomial(p, n).coeffs, (p, n)


def test_field_ctx_reads_the_table_and_searches_off_it(monkeypatch):
    # a field on the table makes no search; with its entry removed, the
    # search gives the same spec
    searched = []

    def search(p, n):
        searched.append((p, n))
        return find(p, n)

    find = gf.find_primitive_polynomial
    monkeypatch.setattr(gf, "find_primitive_polynomial", search)
    gf._canonical_spec.cache_clear()
    try:
        pinned = gf.field_ctx(3, 12).spec
        assert searched == []
        monkeypatch.delitem(gf._CANONICAL, (3, 12))
        gf._canonical_spec.cache_clear()
        assert gf.field_ctx(3, 12).spec == pinned and searched == [(3, 12)]
    finally:
        gf._canonical_spec.cache_clear()


def test_modulus_file_roundtrip(tmp_path):
    path = tmp_path / "moduli.txt"
    path.write_text("# override table\n2 3 1 1 0\n3 2 2 1\n")
    table = gf.load_modulus_file(path)
    assert table[(2, 3)] == (1, 1, 0)
    ctx = gf.field_ctx(2, 3, table[(2, 3)])
    assert ctx.order == 8
    bad = tmp_path / "bad.txt"
    bad.write_text("2 3 1 0 0\n")  # x^3 + 1 is not primitive
    with pytest.raises(OutOfDomain, match="modulus is not primitive"):
        gf.load_modulus_file(bad)


def test_exp_multiplicativity_randomized_large():
    ctx = gf.field_ctx(2, 14)
    L = ctx.period
    rng = random.Random(1234)
    for _ in range(100_000):
        i, j = rng.randrange(L), rng.randrange(L)
        assert ctx.mul(ctx.element_from_log(i), ctx.element_from_log(j)) \
            == ctx.element_from_log((i + j) % L)
