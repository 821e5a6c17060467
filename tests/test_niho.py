"""Unit-circle root counts and the Walsh reduction for Niho exponents."""

import numpy as np
import pytest

from mseqcorr import gf, niho, spectra
from mseqcorr.errors import OutOfDomain


def test_resolve_fraction_examples():
    # (2^9 + 1)/(2^3 + 1) mod 31 reduces to the d = 2^(2k) - 2^k + 1 class
    d = niho.resolve_fraction(2 ** 9 + 1, 2 ** 3 + 1, 31)
    assert d == 26
    ctx = gf.field_ctx(2, 5)
    assert all(map(np.array_equal, spectra.class_record(ctx, d),
                   spectra.class_record(ctx, 13)))
    assert niho.resolve_fraction(9, 1, 31) == 9
    assert niho.resolve_fraction(5, 3, 31) == 12


def test_resolve_fraction_not_invertible():
    with pytest.raises(OutOfDomain, match=r"gcd\(3, 30\) != 1"):
        niho.resolve_fraction(5, 3, 30)
    with pytest.raises(OutOfDomain, match="31/3 is 0 mod 31"):
        niho.resolve_fraction(31, 3, 31)  # 0 mod 31


def test_niho_decimation_depends_on_s_mod():
    p, m = 2, 3
    mod = p ** m + 1
    for s in range(1, 6):
        assert niho.niho_decimation(p, m, s) == niho.niho_decimation(p, m, s + mod)
    ctx = gf.field_ctx(2, 6)
    for a in (1, 5, 37):
        assert niho.count_unit_roots(ctx, 3, a) == niho.count_unit_roots(ctx, 3 + 9, a)


def test_count_unit_roots_direct_cross_check():
    # evaluate the quintic over U by plain field arithmetic, compare
    ctx = gf.field_ctx(2, 6)
    s = 3
    U = ctx.unit_circle().tolist()
    for tau in range(0, ctx.period, 5):
        a = ctx.element_from_log(tau)
        abar = ctx.conj_half(a)
        direct = 0
        for x in U:
            val = ctx.pow(x, 2 * s - 1)
            val = ctx.add(val, ctx.mul(a, ctx.pow(x, s)))
            val = ctx.add(val, ctx.mul(abar, ctx.pow(x, s - 1)))
            val = ctx.add(val, 1)
            if val == 0:
                direct += 1
        assert niho.count_unit_roots(ctx, s, a) == direct


@pytest.mark.parametrize("p,m,s", [(2, 3, 3), (3, 2, 2), (5, 1, 2)])
def test_count_unit_roots_array_matches_scalar(p, m, s):
    ctx = gf.field_ctx(p, 2 * m)
    a = np.arange(ctx.order)
    batched = niho.count_unit_roots(ctx, s, a)
    assert batched.tolist() == [niho.count_unit_roots(ctx, s, int(x)) for x in a]


@pytest.mark.parametrize("p,m,s", [(2, 2, 2), (2, 3, 3), (2, 4, 2), (3, 1, 2), (3, 2, 3)])
def test_walsh_identity(p, m, s):
    rep = niho.walsh_identity_report(gf.field_ctx(p, 2 * m), s)
    assert rep["holds"], rep


@pytest.mark.parametrize("p,m,s,coord", [(2, 3, 3, 0), (3, 2, 3, 0), (3, 2, 3, 1)])
def test_walsh_identity_sees_one_changed_entry(p, m, s, coord, monkeypatch):
    tau = 5
    walsh_fast = spectra.walsh_fast

    def changed(*args, **kwargs):
        wt = walsh_fast(*args, **kwargs)
        wt.by_log[tau, coord] += 1
        return wt

    monkeypatch.setattr(spectra, "walsh_fast", changed)
    rep = niho.walsh_identity_report(gf.field_ctx(p, 2 * m), s)
    assert not rep["holds"] and rep["mismatch_shifts"] == [tau]


def test_value_set_four_valued_case():
    ctx = gf.field_ctx(2, 8)
    assert set(niho.value_list(ctx, niho.unit_root_histogram(ctx, 2))) == {-16, 0, 16, 32}


def test_value_set_nonbinary_bound():
    ctx = gf.field_ctx(3, 4)
    assert set(niho.value_list(ctx, niho.unit_root_histogram(ctx, 2))) <= {-9, 0, 9, 18}


def test_value_set_quintic_bound():
    ctx = gf.field_ctx(2, 4)
    allowed = {(j - 1) * 4 for j in range(6)}
    assert set(niho.value_list(ctx, niho.unit_root_histogram(ctx, 3))) <= allowed


def test_seven_roots_never_4_6_7():
    ctx = gf.field_ctx(2, 8)
    hist = niho.unit_root_histogram(ctx, 4)
    assert set(hist) <= {0, 1, 2, 3, 5}


def test_root_count_total_consistency():
    # sum over all nonzero a of (N(a) - 1) = p^m - (N(0) - 1) via sum W = p^n
    for p, m, s in ((2, 3, 2), (3, 1, 2)):
        ctx = gf.field_ctx(p, 2 * m)
        hist = niho.unit_root_histogram(ctx, s)
        total = sum((na - 1) * cnt for na, cnt in hist.items())
        w0 = spectra.walsh_fast(ctx, niho.niho_decimation(p, m, s)).zero_value()
        # sum over nonzero a of W = p^n - W(0)
        assert total * p ** m == p ** (2 * m) - w0.as_integer()


def test_odd_degree_rejected():
    ctx = gf.field_ctx(2, 5)
    with pytest.raises(OutOfDomain, match="Niho machinery needs n = 2m"):
        niho.count_unit_roots(ctx, 2, 1)
    with pytest.raises(OutOfDomain, match="Niho machinery needs n = 2m"):
        niho.unit_root_histogram(ctx, 2)


def test_walsh_identity_larger_grid():
    # the identity holds on the wider grid too (binary m = 6, ternary m = 3)
    rep = niho.walsh_identity_report(gf.field_ctx(2, 12), 3)
    assert rep["holds"]
    rep3 = niho.walsh_identity_report(gf.field_ctx(3, 6), 2)
    assert rep3["holds"]
