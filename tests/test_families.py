"""Family catalog: predicted closed forms against computed spectra."""

import hashlib
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from mseqcorr import families, gf
from mseqcorr.cyclo import CycInt
from mseqcorr.errors import Budget, OutOfDomain
from mseqcorr.families import AtMostKValues, coset_spectrum_method, verify_family
from mseqcorr.spectra import class_record, power_sum


def _verify(fid, p, n, params):
    fam = families.get_family(fid)
    d = fam.decimation(p, n, params)
    comp = class_record(gf.field_ctx(p, n), d)
    return verify_family(fid, p, n, params, comp)


def _same(a, b):
    """Two (rows, counts) records are equal, order included."""
    return all(map(np.array_equal, a, b))


def _integers(record):
    """{value: count} of a record whose values are all rational."""
    rows, counts = record
    assert not rows[:, 1:].any()
    return dict(zip(rows[:, 0].tolist(), counts.tolist()))


def test_catalog_size_and_stable_ids():
    cat = families.catalog()
    assert len(cat) >= 22
    ids = {f.id for f in cat}
    for required in ("gold", "kasami-welch", "welch", "niho-4val-unified",
                     "dfhr-s3", "dfhr-s3-odd", "helleseth-half",
                     "helleseth-third", "helleseth-2003", "hkl-s4"):
        assert required in ids
    assert len(ids) == len(cat)


def test_gold_domain():
    fam = families.get_family("gold")
    assert fam.check_domain(2, 5, {"k": 1}) is None
    assert fam.check_domain(2, 4, {"k": 1}) is not None  # n/gcd even
    assert fam.check_domain(3, 5, {"k": 1}) is not None


def _domain_grid(fam, p, n):
    """The candidates at (p, n), no parameters at all, and an off-range
    grid: every single key of k, t, r, i, form in -1..n, r with each sign
    (including the invalid 0 and 2), and kasami-frac pairs with t in -1..n
    (the unknown pair 3:1 among them) or with t missing."""
    vals = range(-1, n + 1)
    grid = list(fam.candidates(p, n)) + [{}, {"sign": 1}, {"pair": "2:1"}]
    for key in ("k", "t", "r", "i", "form"):
        grid += [{key: v} for v in vals]
    grid += [{"r": r, "sign": s} for r in vals for s in (-1, 0, 1, 2)]
    grid += [{"pair": pair, "t": t} for pair in ("2:1", "3:1") for t in vals]
    return grid


# sha256 of (id, p, n, [(params, check_domain is None) over the grid],
# instances(p, n)) for every family, supported p and 1 <= n <= 16
DOMAIN_SHA256 = "5ad57779c83d6702a3d3c87370e29c7d99764bf7ffc85a4ca6baceb306f85901"


def test_domain_pinned_on_grid():
    h = hashlib.sha256()
    for fam in families.catalog():
        for p in gf.SUPPORTED_PRIMES:
            for n in range(1, 17):
                rows = [(params, fam.check_domain(p, n, params) is None)
                        for params in _domain_grid(fam, p, n)]
                h.update(repr((fam.id, p, n, rows, fam.instances(p, n))).encode())
    assert h.hexdigest() == DOMAIN_SHA256


def test_huge_parameter_is_budget():
    fam = families.get_family("trachtenberg-half")
    for k in (families.MAX_PARAM + 1, 3000001, -(10 ** 9)):
        with pytest.raises(Budget, match=f"trachtenberg-half parameter k = {k} exceeds"):
            fam.decimation(13, 3, {"k": k})
    # at the bound itself the formula still runs
    assert fam.decimation(13, 3, {"k": families.MAX_PARAM}) == 85


def test_gold_smallest_points():
    assert _verify("gold", 2, 5, {"k": 1}).passed
    assert _verify("gold", 2, 7, {"k": 2}).passed


def test_kasami_welch_n9():
    v = _verify("kasami-welch", 2, 9, {"k": 3})
    assert v.passed
    assert _integers(v.predicted) == {63: 36, -65: 28, -1: 447}


def test_dfhr_s3_odd_tau_counts():
    fam = families.get_family("dfhr-s3-odd")
    pred = fam.predicted(2, 6, {})
    assert _integers(pred) == {-9: 18, -1: 27, 7: 12, 15: 4, 23: 2}


def test_hkl_s4_value_sets():
    fam = families.get_family("hkl-s4")
    pred = fam.predicted(2, 8, {})
    assert isinstance(pred, AtMostKValues)
    assert pred.k == 5
    odd = families.get_family("hkl-s4-odd").predicted(2, 6, {})
    assert odd.k == 6


def test_predicted_tables_satisfy_invariants():
    """Every proved-distribution instance on a small sweep: counts sum to
    p^n - 1 and sum(value * count) = 1 (these catch transcription slipsing)."""
    checked = 0
    for p, nmax in ((2, 12), (3, 6), (5, 4), (7, 2)):
        for n in range(2, nmax + 1):
            for fam in families.catalog():
                if fam.status != "proved-distribution":
                    continue
                for params in fam.instances(p, n):
                    try:
                        pred = fam.predicted(p, n, params)
                    except OutOfDomain:
                        continue
                    assert pred[1].sum() == p ** n - 1, (fam.id, p, n, params)
                    assert power_sum(p, *pred, 1) == 1, (fam.id, p, n, params)
                    checked += 1
    assert checked > 60


def test_instance_enumeration_examples():
    gold = families.get_family("gold")
    assert {frozenset(i.items()) for i in gold.instances(2, 5)} == {
        frozenset({("k", 1)}), frozenset({("k", 2)}),
        frozenset({("k", 3)}), frozenset({("k", 4)})}
    assert gold.instances(2, 4) == []
    kl = families.get_family("katz-langevin")
    assert kl.instances(3, 7) == [{"k": 2}]


def test_three_valued_decimations_at_small_points():
    # gold k=1..4 -> 3,5,9,17; kasami -> 3,13,26,24; welch -> 7; two-term -> 5
    d25 = families.three_valued_decimations(2, 5)
    assert set(d25) == {3, 5, 7, 9, 13, 17, 24, 26}
    # ternary: 2*3+1=7; 3^1+2=5; (3^2+1)/2=5, (3^4+1)/2=15; 7, 73=21 mod 26
    d33 = families.three_valued_decimations(3, 3)
    assert set(d33) == {5, 7, 15, 21}


def test_out_of_domain_raises_with_constraint():
    fam = families.get_family("dfhr-s3")
    with pytest.raises(OutOfDomain) as ei:
        fam.predicted(2, 12, {})   # m = 6 = 2 mod 4
    assert "m" in str(ei.value)
    with pytest.raises(OutOfDomain):
        families.get_family("helleseth-half").predicted(3, 3, {"i": 0})  # 27 = 3 mod 4


def test_verify_family_detects_mismatch():
    fam = families.get_family("gold")
    rows, counts = class_record(gf.field_ctx(2, 5), 3)
    doctored = (rows, counts + (rows[:, 0] == -1))   # one more -1
    verdict = verify_family("gold", 2, 5, {"k": 1}, doctored)
    assert not verdict.passed
    assert verdict.detail == "value CycInt(2, -1): 15 vs 16"


def test_normalization_convention_recorded():
    by_id = {f.id: f for f in families.catalog()}
    assert by_id["niho-4val-unified"].source_counts_total == "p^n"
    assert by_id["dobbertin-5val"].source_counts_total == "p^n"
    assert by_id["gold"].source_counts_total == "p^n-1"


def test_source_rows_count_the_a0_point_as_recorded():
    """The raw source rows of every proved-distribution instance sum to p^n
    when the descriptor records "p^n" and to p^n - 1 otherwise, so
    `source_counts_total` alone decides the a = 0 normalization."""
    checked = 0
    for p, nmax in ((2, 12), (3, 6), (5, 4), (7, 2)):
        for n in range(2, nmax + 1):
            for fam in families.catalog():
                if fam.status != "proved-distribution":
                    continue
                for params in fam.instances(p, n):
                    total = sum(Fraction(c) for _, c in fam.source(p, n, params))
                    want = p ** n if fam.source_counts_total == "p^n" else p ** n - 1
                    assert total == want, (fam.id, p, n, params)
                    checked += 1
    assert checked > 200


def test_unified_4val_normalized_minus_one_count():
    pred = families.predicted_spectrum("niho-4val-unified", 2, 8,
                                       {"r": 1, "sign": -1})
    assert _integers(pred)[-1] == 119
    assert power_sum(2, *pred, 1) == 1


def test_helleseth_half_odd_degree_irrational_values():
    # p = 5, n = 1: d = 3; the two single occurrences are real irrationals
    pred = families.predicted_spectrum("helleseth-half", 5, 1, {"i": 0})
    irr = [CycInt(5, r) for r in pred[0].tolist() if any(r[1:])]
    assert len(irr) >= 2
    for v in irr:
        assert v.conjugate() == v
    comp = class_record(gf.field_ctx(5, 1), 3)
    assert _same(pred, comp)


def test_coset_method_matches_direct():
    ctx = gf.field_ctx(2, 8)
    assert _same(coset_spectrum_method(ctx, 13, 5), class_record(ctx, 13))
    ctx52 = gf.field_ctx(5, 2)
    assert _same(coset_spectrum_method(ctx52, 13, 3), class_record(ctx52, 13))


@pytest.mark.parametrize("p,n", [(2, 4), (2, 6), (2, 8), (3, 4), (5, 2), (7, 2), (13, 2)])
def test_coset_method_matches_direct_on_grid(p, n):
    """Every coprime d and every N | p^n - 1, 2 <= N <= 15: the coset method
    gives the transform's record, order included, exactly when some twist j
    has (d p^j - 1) N = 0 mod p^n - 1, and otherwise names the failed
    congruence."""
    ctx = gf.field_ctx(p, n)
    L = ctx.period
    applied = 0
    for d in range(1, L):
        if gcd(d, L) != 1:
            continue
        direct = class_record(ctx, d)
        for N in range(2, 16):
            if L % N:
                continue
            if any((d * p ** j - 1) * N % L == 0 for j in range(n)):
                assert _same(coset_spectrum_method(ctx, d, N), direct), (d, N)
                applied += 1
            else:
                with pytest.raises(OutOfDomain) as err:
                    coset_spectrum_method(ctx, d, N)
                assert str(err.value) == \
                    f"(d p^j - 1) N != 0 mod p^n - 1 for every j < {n}", (d, N)
    assert applied


def test_coset_method_inapplicable():
    with pytest.raises(OutOfDomain, match="N = 7 does not divide"):
        coset_spectrum_method(gf.field_ctx(2, 5), 3, 7)   # 7 does not divide 31
    with pytest.raises(OutOfDomain, match=r"\(d p\^j - 1\) N != 0"):
        coset_spectrum_method(gf.field_ctx(2, 6), 5, 3)   # congruence fails every j


def test_every_admissible_instance_verifies_on_small_grid():
    """Predicted = computed for every catalog instance over a modest grid."""
    checked = 0
    for p, nmax in ((2, 10), (3, 6), (5, 4), (7, 2)):
        for n in range(2, nmax + 1):
            ctx = None
            cache = {}
            for fam in families.catalog():
                for params in fam.instances(p, n):
                    ctx = ctx or gf.field_ctx(p, n)
                    d = fam.decimation(p, n, params)
                    if d not in cache:
                        cache[d] = class_record(ctx, d)
                    v = verify_family(fam.id, p, n, params, cache[d])
                    assert v.passed, (fam.id, p, n, params, v.detail)
                    checked += 1
    assert checked > 150
