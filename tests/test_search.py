"""Decimation classification, caching, and conjecture evidence."""

import json
from math import gcd

import numpy as np
import pytest

from mseqcorr import gf, search, spectra
from mseqcorr.errors import Budget


def test_partition_is_partition():
    for p, n in ((2, 5), (3, 3), (2, 6)):
        L = p ** n - 1
        parts = search.class_partition(p, n)
        everything = [d for part in parts for d in part[1]]
        assert len(everything) == len(set(everything))
        expected = {
            d for d in range(2, L)
            if gcd(d, L) == 1 and d not in search.degenerate_set(p, n)
        }
        assert set(everything) == expected
        for rep, members in parts:
            assert rep == min(members)


def test_partition_reps_gf32():
    parts = search.class_partition(2, 5)
    assert [rep for rep, _ in parts] == [3, 5, 15]
    by_rep = {rep: members for rep, members in parts}
    assert set(by_rep[3]) == {3, 6, 12, 24, 17, 11, 22, 13, 26, 21}


def test_members_share_spectrum():
    ctx = gf.field_ctx(2, 6)
    for cls in search.canonical_classes(2, 6):
        for member in cls.members[:2]:
            assert spectra.spectrum(ctx, member).same_entries(cls.spectrum)


SMALL_GRID = [(p, n) for p in gf.SUPPORTED_PRIMES for n in range(1, 11) if p ** n <= 2 ** 10]


@pytest.mark.parametrize("p,n", SMALL_GRID)
def test_class_moves_keep_the_histogram(p, n):
    # d -> d p^j and d -> d^(-1) leave the spectrum unchanged: every member
    # of a class has its representative's histogram of W(a), a != 0.  And no
    # nondegenerate class is two-valued (Helleseth 1976: at least three values).
    ctx = gf.field_ctx(p, n)
    for rep, members in search.class_partition(p, n):
        vals, counts = spectra.walsh_fast(ctx, rep).unique_values()
        assert len(vals) >= 3, (p, n, rep)
        for d in members:
            v, c = spectra.walsh_fast(ctx, d).unique_values()
            assert np.array_equal(v, vals) and np.array_equal(c, counts), (p, n, rep, d)


def test_classify_buckets_gf16_no_three_valued():
    buckets = search.classify_by_value_count(2, 4)
    assert 3 not in buckets


def test_classify_buckets_gf64_three_valued_matches_catalog():
    buckets = search.classify_by_value_count(2, 6)
    got = {cls.rep for cls in buckets.get(3, [])}
    from mseqcorr import families
    want = {search._class_rep_of(d, 2, 6)
            for d in families.three_valued_decimations(2, 6)}
    assert got == want


def test_minus_one_reports():
    rep = search.check_minus_one(2, 8)
    assert rep.holds and not rep.counterexamples
    rep3 = search.check_minus_one(3, 4)
    assert rep3.holds
    # all coprime d qualify for p = 2 and p = 3 (d is odd automatically)
    assert rep.checked_classes == len(search.class_partition(2, 8))


def test_completeness_small_grid():
    for p, n in ((2, 5), (2, 6), (2, 7), (3, 3), (3, 5), (5, 3)):
        rep = search.three_valued_completeness(p, n)
        assert rep.holds, rep.to_dict()
        assert rep.unexplained == [] and rep.missing == []


def test_budget_guard():
    with pytest.raises(Budget):
        search.canonical_classes(2, 25)


def test_cache_roundtrip(tmp_path):
    cache = search.SpectrumCache(str(tmp_path))
    first = search.canonical_classes(2, 6, cache=cache)
    path = tmp_path / "spectra_p2_n6.jsonl"
    assert path.exists()
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(first)
    # second run consumes the cache and appends nothing
    second = search.canonical_classes(2, 6, cache=cache)
    assert len(path.read_text().strip().splitlines()) == len(lines)
    for a, b in zip(first, second):
        assert a.rep == b.rep and a.spectrum.same_entries(b.spectrum)


def test_cache_isolated_by_modulus(tmp_path):
    cache = search.SpectrumCache(str(tmp_path))
    search.canonical_classes(2, 6, cache=cache)
    # the reciprocal of x^6 + x + 1 is primitive but keys different rows
    other = (1, 0, 0, 0, 0, 1)
    assert gf.is_primitive(2, 6, other)
    assert cache.load(2, 6, other) == {}
    assert cache.load(2, 6, gf.find_primitive_polynomial(2, 6).coeffs)


def test_cache_rewrite_drops_only_invalid_lines(tmp_path, capsys):
    cache = search.SpectrumCache(str(tmp_path))
    other = (1, 0, 0, 0, 0, 1)
    search.canonical_classes(2, 6, cache=cache)
    search.canonical_classes(2, 6, cache=cache, ctx=gf.field_ctx(2, 6, other))
    path = tmp_path / "spectra_p2_n6.jsonl"
    good = path.read_text()
    # a garbage line names no class, so nothing is recomputed; it still goes
    path.write_text(good + "not json\n")
    capsys.readouterr()
    search.canonical_classes(2, 6, cache=search.SpectrumCache(str(tmp_path)))
    assert "skipped 1 invalid record" in capsys.readouterr().err
    assert path.read_text() == good   # both moduli kept, in order
    search.canonical_classes(2, 6, cache=search.SpectrumCache(str(tmp_path)))
    assert capsys.readouterr().err == ""


def test_load_drops_invalid_lines_at_once(tmp_path, capsys):
    cache = search.SpectrumCache(str(tmp_path))
    coeffs = gf.find_primitive_polynomial(2, 6).coeffs
    search.canonical_classes(2, 6, cache=cache)
    path = tmp_path / "spectra_p2_n6.jsonl"
    good = path.read_text()
    first, rest = good.split("\n", 1)
    unversioned = json.loads(first)
    del unversioned["version"]
    newer = {**unversioned, "version": 2, "modulus": [0]}   # skipped, though not ours
    path.write_text("\n".join([first, "{\"torn", "", json.dumps(unversioned),
                               json.dumps(newer), rest]))
    capsys.readouterr()
    assert len(cache.load(2, 6, coeffs)) == len(good.splitlines())
    assert "skipped 3 invalid record" in capsys.readouterr().err
    assert path.read_text() == good   # gone before any append
    assert len(cache.load(2, 6, coeffs)) == len(good.splitlines())
    assert capsys.readouterr().err == ""
    assert [f.name for f in tmp_path.iterdir()] == [path.name]


def test_threads_deterministic():
    serial = search.classify_by_value_count(3, 4, threads=1)
    threaded = search.classify_by_value_count(3, 4, threads=4)
    assert {t: [c.rep for c in v] for t, v in serial.items()} == \
           {t: [c.rep for c in v] for t, v in threaded.items()}
    for t in serial:
        for a, b in zip(serial[t], threaded[t]):
            assert a.spectrum.same_entries(b.spectrum)
