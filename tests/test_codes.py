"""Weight distributions of two-nonzero cyclic codes vs brute enumeration."""

import numpy as np
import pytest

from mseqcorr import codes, gf
from mseqcorr.cyclo import NotRational
from mseqcorr.errors import OutOfDomain
from mseqcorr.spectra import walsh_fast


def test_codeword_weight_examples():
    ctx = gf.field_ctx(2, 5)
    assert codes.codeword_weight(ctx, 0, 0, 3) == 0
    for a in (1, 7, 30):
        assert codes.codeword_weight(ctx, a, 0, 3) == 16  # p^(n-1)(p-1)
    ctx3 = gf.field_ctx(3, 3)
    assert codes.codeword_weight(ctx3, 5, 0, 7) == 18


def test_weight_from_walsh_value():
    ctx = gf.field_ctx(2, 6)
    d = 5
    wt = walsh_fast(ctx, d)
    # pick b = 1: weight(a, 1) = (p^n - W(-a)) * (p-1) / p  (d-th root of 1 is 1)
    for tau in (0, 3, 11):
        a = ctx.element_from_log(tau)
        w = codes.codeword_weight(ctx, a, 1, d)
        wv = int(wt.by_log[ctx.log_table[ctx.neg(a)], 0])
        assert w == (64 - wv) // 2


@pytest.mark.parametrize("p,n,d", [(2, 5, 3), (2, 6, 5), (3, 3, 7)])
def test_walsh_equals_brute(p, n, d):
    ctx = gf.field_ctx(p, n)
    brute = codes.weight_distribution_brute(ctx, d)
    walsh = codes.weight_distribution_via_walsh(ctx, d)
    assert brute.counts == walsh.counts
    assert brute.total() == p ** (2 * n)
    assert brute.counts[0] == 1


def test_gold_code_weights():
    dist = codes.weight_distribution_via_walsh(gf.field_ctx(2, 5), 3)
    assert dist.counts == {0: 1, 12: 310, 16: 527, 20: 186}


def test_degenerate_decimation_single_weight():
    dist = codes.weight_distribution_via_walsh(gf.field_ctx(2, 5), 1)
    assert set(dist.counts) == {0, 16}


def test_condition_violated():
    # p = 5: d = 7 is coprime to 24 but 7 != 1 mod 4
    with pytest.raises(OutOfDomain, match="is not 1 mod p-1"):
        codes.weight_distribution_via_walsh(gf.field_ctx(5, 2), 7)


def test_not_coprime():
    with pytest.raises(OutOfDomain, match=r"gcd\(3, 15\) != 1"):
        codes.weight_distribution_via_walsh(gf.field_ctx(2, 4), 3)
    with pytest.raises(OutOfDomain, match=r"gcd\(3, 15\) != 1"):
        codes.weight_distribution_brute(gf.field_ctx(2, 4), 3)


def test_weights_refuse_an_irrational_spectrum_value(monkeypatch):
    # a weight needs C as an integer; d = 1 mod p-1 makes every value
    # rational, so an irrational row is a fault and raises, not a weight
    def record(ctx, d):
        return np.array([[-1, 0], [1, 1]], dtype=np.int32), np.array([7, 1])

    monkeypatch.setattr(codes, "class_record", record)
    with pytest.raises(NotRational):
        codes.weight_distribution_via_walsh(gf.field_ctx(3, 2), 5)
