"""m-sequence generation, decimation, and the classical property checks."""

import hashlib
import json
import random
from math import gcd

import numpy as np
import pytest

from mseqcorr import gf, lfsr
from mseqcorr.cyclo import CycInt
from mseqcorr.errors import OutOfDomain


def _minimal_period(symbols: bytes) -> int:
    """The least k > 0 by which a rotation of the period maps it onto itself."""
    return next(k for k in range(1, len(symbols) + 1)
                if symbols[k:] + symbols[:k] == symbols)


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
    assert _minimal_period(rec.symbols) == 7
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
        assert _minimal_period(seq.symbols) == 8


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
    # sum_t w^(s_(t+tau) - s_t) in Z[w], one literal residue count per shift
    for p, n in ((2, 5), (3, 3), (5, 2)):
        s = lfsr.generate_trace(gf.field_ctx(p, n))
        arr = s.as_array()
        ac = [CycInt.from_counts(p, np.bincount((np.roll(arr, -tau) - arr) % p,
                                                minlength=p).tolist())
              for tau in range(s.period)]
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


def _de_bruijn(p, n):
    """The least de Bruijn sequence of order n over Z_p (concatenated Lyndon
    words); it starts with n zeros."""
    a, out = [0] * (n + 1), []

    def gen(t, q):
        if t > n:
            if n % q == 0:
                out.extend(a[1:q + 1])
            return
        a[t] = a[t - q]
        gen(t + 1, q)
        for j in range(a[t - q] + 1, p):
            a[t] = j
            gen(t + 1, t)

    gen(1, 1)
    return out


def _golomb_inputs():
    """The sequences the Golomb golden digest covers: the criterion-1 grid of
    m-sequences and, for each (p, n), a seeded one-symbol mutation, a seeded
    swap of two unequal symbols (balance kept), a seeded random sequence, a
    decimation of the m-sequence, and the de Bruijn sequence with one zero
    removed (every nonzero window once, but not linear for most n); then the
    hand-made fakes above and a ternary one."""
    out = []
    for p, nmax in ((2, 12), (3, 7), (5, 4)):
        for n in range(2, nmax + 1):
            seq = lfsr.generate_trace(gf.field_ctx(p, n))
            L = seq.period
            rng = random.Random(f"golomb {p} {n}")
            sym = bytearray(seq.symbols)
            pos = rng.randrange(L)
            sym[pos] = (sym[pos] + rng.randrange(1, p)) % p
            swap = bytearray(seq.symbols)
            i = rng.randrange(L)
            j = rng.choice([k for k in range(L) if swap[k] != swap[i]])
            swap[i], swap[j] = swap[j], swap[i]
            noise = bytes(rng.randrange(p) for _ in range(L))
            d = rng.choice([k for k in range(2, L) if gcd(k, L) == 1] or [1])
            out += [seq, lfsr.MSeq(p, n, bytes(sym), "mutated"),
                    lfsr.MSeq(p, n, bytes(swap), "swapped"),
                    lfsr.MSeq(p, n, noise, "random"), lfsr.decimate(seq, d),
                    lfsr.MSeq(p, n, bytes(_de_bruijn(p, n)[1:]), "de Bruijn")]
    out += [lfsr.MSeq(p=2, n=2, symbols=bytes([0, 1, 0, 1]), origin="fake"),
            lfsr.MSeq(p=2, n=3, symbols=bytes([1, 1, 1, 1, 1, 1, 0]), origin="fake"),
            lfsr.MSeq(p=3, n=2, symbols=bytes([0, 1, 2, 0, 1, 2, 0, 1]), origin="fake")]
    return out


# sha256 of every report of `_golomb_inputs`, as sorted JSON, one per line
GOLOMB_SHA256 = "e0073123e37d9825f852f9b71c34d10909950f3e6ac46d2560a01fdf6c54e4c0"


def test_golomb_reports_pinned():
    lines = [json.dumps(lfsr.check_golomb(seq).to_dict(), sort_keys=True)
             for seq in _golomb_inputs()]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLOMB_SHA256
