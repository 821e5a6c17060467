"""m-sequence generation, decimation, and the classical property checks."""

import numpy as np
import pytest

from mseqcorr import gf, lfsr
from mseqcorr.errors import OutOfDomain


def test_trace_sequence_gf8():
    ctx = gf.field_ctx(2, 3)
    s = lfsr.generate_trace(ctx)
    assert s.period == 7
    assert sorted(np.bincount(s.as_array(), minlength=2)) == [3, 4]
    # direct check against the frobenius-sum definition
    for t in range(7):
        assert s.symbols[t] == ctx.trace(ctx.element_from_log(t))


def test_trace_sequence_balance_examples():
    s = lfsr.generate_trace(gf.field_ctx(2, 2))
    assert s.period == 3 and sorted(s.symbols) == [0, 1, 1]
    s9 = lfsr.generate_trace(gf.field_ctx(3, 2))
    counts = np.bincount(s9.as_array(), minlength=3)
    assert list(counts) == [2, 3, 3]


def test_recursion_matches_trace_up_to_shift():
    spec = gf.find_primitive_polynomial(2, 3)
    rec = lfsr.generate_recursion(spec, (1, 0, 0))
    trace = lfsr.generate_trace(gf.field_ctx(2, 3))
    assert lfsr.minimal_period(rec.symbols) == 7
    assert lfsr.alignment_shift(rec, trace) is not None


@pytest.mark.parametrize("p,n", [(2, 4), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_recursion_trace_agreement_grid(p, n):
    spec = gf.find_primitive_polynomial(p, n)
    ctx = gf.field_ctx(p, n)
    trace = lfsr.generate_trace(ctx)
    rec = lfsr.generate_recursion(spec, tuple(trace.symbols[:n]))
    assert rec.symbols == trace.symbols
    other = lfsr.generate_recursion(spec, (1,) + (0,) * (n - 1))
    assert lfsr.alignment_shift(other, trace) is not None


def test_zero_state_rejected():
    spec = gf.find_primitive_polynomial(2, 3)
    with pytest.raises(OutOfDomain, match="all-zero initial state"):
        lfsr.generate_recursion(spec, (0, 0, 0))


def test_recursion_minimal_period_gf9():
    spec = gf.find_primitive_polynomial(3, 2)
    for init in ((1, 0), (0, 1), (2, 2), (1, 2)):
        seq = lfsr.generate_recursion(spec, init)
        assert lfsr.minimal_period(seq.symbols) == 8


def test_decimate_identity_and_power_of_p():
    ctx = gf.field_ctx(3, 2)
    s = lfsr.generate_trace(ctx)
    assert lfsr.decimate(s, 1).symbols == s.symbols
    dec = lfsr.decimate(s, 3)  # degenerate: a pure shift
    assert lfsr.alignment_shift(dec, s) is not None


def test_decimate_lands_on_other_primitive_poly():
    ctx = gf.field_ctx(2, 3)
    s = lfsr.generate_trace(ctx)
    dec = lfsr.decimate(s, 3)
    # the only other degree-3 primitive polynomial is x^3 + x^2 + 1
    other = lfsr.generate_recursion(gf.FieldSpec(2, 3, (1, 0, 1)), (1, 0, 0))
    assert lfsr.alignment_shift(dec, other) is not None


def test_decimate_not_coprime():
    s = lfsr.generate_trace(gf.field_ctx(2, 4))
    with pytest.raises(OutOfDomain, match=r"gcd\(3, 15\) != 1"):
        lfsr.decimate(s, 3)


def test_decimate_composition():
    s = lfsr.generate_trace(gf.field_ctx(2, 5))
    a = lfsr.decimate(lfsr.decimate(s, 3), 5)
    b = lfsr.decimate(s, 15 % 31)
    assert a.symbols == b.symbols


def test_decimate_matches_direct_expression():
    s = lfsr.generate_trace(gf.field_ctx(2, 16))
    L, d = s.period, 40009
    direct = bytes(int(v) for v in s.as_array()[(np.arange(L, dtype=np.int64) * d) % L])
    assert lfsr.decimate(s, d).symbols == direct


def test_autocorrelation_two_level():
    for p, n in ((2, 5), (3, 3), (5, 2)):
        s = lfsr.generate_trace(gf.field_ctx(p, n))
        ac = lfsr.autocorrelation_all(s)
        assert ac[0] == s.period
        assert all(v == -1 for v in ac[1:])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_correlation_counts_literal(p):
    rng = np.random.default_rng(p)
    u, v = rng.integers(0, p, 40), rng.integers(0, p, 40)
    counts = lfsr.correlation_counts(u, v, p)
    assert counts.shape == (p, 40)
    for tau in range(40):
        literal = np.bincount((np.roll(u, -tau) - v) % p, minlength=p)
        assert counts[:, tau].tolist() == literal.tolist(), tau


@pytest.mark.parametrize("p,n", [(2, 3), (2, 6), (3, 3), (5, 2)])
def test_golomb_all_pass(p, n):
    s = lfsr.generate_trace(gf.field_ctx(p, n))
    rep = lfsr.check_golomb(s)
    assert rep.all_pass(), rep.to_dict()
    if p != 2:
        assert rep.runs is None


def test_golomb_run_profile_n4():
    s = lfsr.generate_trace(gf.field_ctx(2, 4))
    hist = lfsr._run_lengths(s.symbols)
    assert hist == {1: 4, 2: 2, 3: 1, 4: 1}
    assert lfsr.check_golomb(s).runs is True


def test_golomb_rejects_non_msequence():
    fake = lfsr.MSeq(p=2, n=2, symbols=bytes([0, 1, 0, 1]), origin="fake")
    rep = lfsr.check_golomb(fake)
    assert rep.span is False
    assert not rep.all_pass()


def test_golomb_rejects_wrong_balance():
    # right period, wrong content
    fake = lfsr.MSeq(p=2, n=3, symbols=bytes([1, 1, 1, 1, 1, 1, 0]), origin="fake")
    rep = lfsr.check_golomb(fake)
    assert not rep.all_pass()
