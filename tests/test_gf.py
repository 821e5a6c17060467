"""Field construction: canonical polynomials, tables, traces, unit circle."""

import random
import sys
import threading

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


def test_composite_p_rejected():
    with pytest.raises(OutOfDomain, match="p=4 is not prime"):
        gf.find_primitive_polynomial(4, 2)
    with pytest.raises(OutOfDomain, match="p=9 is not prime"):
        gf.is_primitive(9, 2, (1, 1))


def test_too_large_rejected():
    with pytest.raises(Budget):
        gf.find_primitive_polynomial(2, 41)
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
                idx = gf.decimation_index(L, d)
                assert idx.dtype == np.int32
                assert idx.tolist() == _decimation_oracle(L, d), (p, n, d)
            n += 1


def test_decimation_index_any_period():
    # every L below 300, most of them not a multiple of the block size
    # ceil(sqrt(L)), L = 1 included
    for L in range(1, 300):
        for d in (0, 1, 7, L - 1, L + 5, -3):
            assert gf.decimation_index(L, d).tolist() == _decimation_oracle(L, d), (L, d)


@pytest.mark.parametrize("p,n,d", [(2, 24, 12582919), (3, 15, 7174457)])
def test_decimation_index_sampled_largest_fields(p, n, d):
    L = p ** n - 1
    for e in (d, d + L, L - 1):
        idx = gf.decimation_index(L, e)
        assert idx.dtype == np.int32 and len(idx) == L
        ks = random.Random(L + e).sample(range(L), 2000) + [0, 1, L - 2, L - 1]
        assert [int(idx[k]) for k in ks] == [k * e % L for k in ks], e


def test_decimation_index_bounds():
    for L in (0, 2 ** 31):
        with pytest.raises(Budget):
            gf.decimation_index(L, 3)


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
    uc = ctx.unit_circle()
    assert len(uc.elements) == size
    assert len(set(uc.elements)) == size
    assert 1 in uc.elements
    m = n // 2
    for x in uc.elements:
        assert ctx.pow(x, p ** m + 1) == 1
        assert ctx.mul(x, ctx.conj_half(x)) == 1
        # closed under x -> 1/conj(x) (which fixes every element of U)
        assert ctx.inv(ctx.conj_half(x)) == x


def test_unit_circle_needs_even_degree():
    with pytest.raises(OutOfDomain, match="unit circle needs n = 2m"):
        gf.field_ctx(2, 5).unit_circle()


def test_unit_circle_is_norm_kernel():
    ctx = gf.field_ctx(2, 6)
    members = set(ctx.unit_circle().elements)
    kernel = {x for x in range(1, ctx.order) if ctx.pow(x, 2 ** 3 + 1) == 1}
    assert members == kernel


def test_grid_canonical_polys_are_primitive():
    for p, nmax in ((2, 12), (3, 7), (5, 4), (7, 3), (11, 2), (13, 2)):
        for n in range(1, nmax + 1):
            spec = gf.find_primitive_polynomial(p, n)
            assert gf.is_primitive(p, n, spec.coeffs)


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
