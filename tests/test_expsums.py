"""Kloosterman/cubic/mixed sums, the tau recurrence, and identity checks."""

from fractions import Fraction

import pytest

from mseqcorr import expsums, gf
from mseqcorr.errors import OutOfDomain


def test_kloosterman_zero_argument():
    for m in range(2, 8):
        assert expsums.kloosterman(gf.field_ctx(2, m), 0) == 0


def test_kloosterman_direct_gf8():
    # literal 8-term sum, written out independently
    ctx = gf.field_ctx(2, 3)
    for a in range(8):
        acc = 0
        for x in range(8):
            xinv = ctx.pow(x, 2 ** 3 - 2)
            acc += (-1) ** ctx.trace(ctx.add(xinv, ctx.mul(a, x)))
        assert expsums.kloosterman(ctx, a) == acc


def test_kloosterman_all_matches_direct():
    for m in (3, 5):
        ctx = gf.field_ctx(2, m)
        table = expsums.kloosterman_all(ctx)
        assert table[0] == 0
        for a in range(ctx.order):
            assert table[a] == expsums.kloosterman(ctx, a)


def test_kloosterman_divisibility_and_weil():
    # the x = 0 term shifts the classical range to [1 - 2 sqrt(q), 1 + 2 sqrt(q)]
    for m in range(2, 13):
        ctx = gf.field_ctx(2, m)
        for a, k in expsums.kloosterman_all(ctx).items():
            if a == 0:
                continue
            assert k % 4 == 0
            assert (k - 1) ** 2 <= 4 * 2 ** m


def test_ternary_kloosterman_divisible_by_three():
    for m in (2, 3, 4):
        ctx = gf.field_ctx(3, m)
        table = expsums.kloosterman_all(ctx)
        for a, v in table.items():
            if a == 0:
                continue
            assert v.as_integer() % 3 == 0
        a = ctx.element_from_log(1)
        assert expsums.kloosterman(ctx, a) == table[a]


def test_cubic_sum_balance_cases():
    ctx = gf.field_ctx(2, 5)
    for a in (1, 7, 19):
        assert expsums.cubic_sum(ctx, 0, a) == 0
    for b in (1, 5):
        assert expsums.cubic_sum(ctx, b, 0) == 0  # cube is a bijection, odd n


def test_cubic_sum_direct_n5():
    ctx = gf.field_ctx(2, 5)
    acc = 0
    for x in range(32):
        acc += (-1) ** ctx.trace(ctx.add(ctx.pow(x, 3), x))
    assert expsums.cubic_sum(ctx, 1, 1) == acc


def test_g_sum_balance_cases():
    ctx = gf.field_ctx(2, 5)
    for a in (1, 9):
        assert expsums.g_sum(ctx, 0, a) == -1
    for b in (1, 11):
        assert expsums.g_sum(ctx, b, 0) == -1


def test_g_sum_direct_n5():
    ctx = gf.field_ctx(2, 5)
    acc = 0
    for x in range(1, 32):
        acc += (-1) ** ctx.trace(ctx.add(ctx.pow(x, 3), ctx.inv(x)))
    assert expsums.g_sum(ctx, 1, 1) == acc


def test_tau_values():
    assert expsums.tau_value(1) == Fraction(1, 2)
    assert expsums.tau_value(2) == Fraction(-7, 4)
    assert expsums.tau_value(3) == Fraction(-11, 8)
    assert expsums.tau_value(4) == Fraction(17, 16)


def test_tau_recurrence_and_bound():
    prev2, prev1 = expsums.tau_value(1), expsums.tau_value(2)
    for m in range(3, 65):
        t = expsums.tau_value(m)
        assert t == prev1 / 2 - prev2
        prev2, prev1 = prev1, t
        assert abs(t) <= 2
        assert (2 ** m * t).denominator == 1  # denominator divides 2^m


def test_weighted_kloosterman_sum_values():
    # frozen values, cross-checked against the tau closed form below
    assert expsums.kloosterman_weighted_sum(3) == 28
    assert expsums.kloosterman_weighted_sum(5) == 4


def test_weighted_sum_closed_form():
    for m in (3, 5, 7):
        R = expsums.kloosterman_weighted_sum(m)
        assert R == -(2 ** m) * expsums.tau_value(m) + 2 ** (m + 1) + 1
        # the raw double sum carries everything except the boundary constant
        assert expsums.kloosterman_double_sum(m) == R - 2 ** (m + 1)


def test_weighted_sum_domain_size():
    # the y-domain excludes GF(2): 2^m - 2 summands
    m = 3
    ctx = gf.field_ctx(2, m)
    ys = [y for y in range(ctx.order) if y not in (0, 1)]
    assert len(ys) == 2 ** m - 2


def test_weighted_sum_rejects_even_m():
    with pytest.raises(OutOfDomain, match="defined for odd m >= 3"):
        expsums.kloosterman_weighted_sum(4)


@pytest.mark.parametrize("n,k", [(5, 2), (7, 2), (7, 3)])
def test_conjectured_identities_hold(n, k):
    rep = expsums.conjectured_sum_identities(n, k)
    assert rep["first"]["equal"] and rep["second"]["equal"]


def test_conjectured_identity_k1_trivial():
    rep = expsums.conjectured_sum_identities(5, 1)
    assert rep["first"]["lhs"] == rep["first"]["rhs"]  # 2^1 + 1 = 3 syntactically


def test_conjectured_identities_reduce_k_mod_n():
    # 2 has order n mod 2^n - 1, so k and k + 7 * 10^12 give the same
    # exponents at n = 7; the sums are taken without building 2^k
    small = expsums.conjectured_sum_identities(7, 3)
    huge = expsums.conjectured_sum_identities(7, 3 + 7 * 10 ** 12)
    assert huge["k"] == 3 + 7 * 10 ** 12
    assert (huge["first"], huge["second"]) == (small["first"], small["second"])


def test_identities_need_odd_n():
    with pytest.raises(OutOfDomain, match="odd-degree binary fields"):
        expsums.conjectured_sum_identities(6, 1)
    with pytest.raises(OutOfDomain, match=r"need gcd\(k, n\) = 1"):
        expsums.conjectured_sum_identities(9, 3)
