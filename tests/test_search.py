"""Decimation classification, caching, and conjecture evidence."""

import json
import time
from math import gcd

import numpy as np
import pytest

from mseqcorr import gf, search, spectra
from mseqcorr.cyclo import value_key
from mseqcorr.errors import Budget, OutOfDomain


def test_partition_is_partition():
    for p, n in ((2, 5), (3, 3), (2, 6)):
        L = p ** n - 1
        parts = search.class_partition(p, n)
        everything = [d for part in parts for d in part[1]]
        assert len(everything) == len(set(everything))
        expected = {
            d for d in range(2, L)
            if gcd(d, L) == 1 and d not in gf.degenerate_set(p, n)
        }
        assert set(everything) == expected
        for rep, members in parts:
            assert rep == min(members)


def test_partition_matches_orbit_oracle():
    # the literal orbits of d p^j and d^(-1) p^j, d stepped one at a time
    for p in gf.SUPPORTED_PRIMES:
        n = 1
        while p ** n <= 2 ** 12:
            L = p ** n - 1
            degenerate = {pow(p, j, L) for j in range(n)} if L > 1 else set()
            seen, expected = set(), []
            for d in range(2, L):
                if d in seen or d in degenerate or gcd(d, L) != 1:
                    continue
                members = {b * pow(p, j, L) % L for b in (d, pow(d, -1, L)) for j in range(n)}
                seen |= members
                expected.append((min(members), tuple(sorted(members))))
            assert search.class_partition(p, n) == sorted(expected), (p, n)
            n += 1


def test_partition_reps_gf32():
    parts = search.class_partition(2, 5)
    assert [rep for rep, _ in parts] == [3, 5, 15]
    by_rep = {rep: members for rep, members in parts}
    assert set(by_rep[3]) == {3, 6, 12, 24, 17, 11, 22, 13, 26, 21}


def _same_record(cls, rows, counts):
    return np.array_equal(cls.rows, rows) and np.array_equal(cls.counts, counts)


def test_members_share_spectrum():
    ctx = gf.field_ctx(2, 6)
    for cls in search.canonical_classes(2, 6):
        for member in cls.members[:2]:
            assert _same_record(cls, *spectra.class_record(ctx, member))


SMALL_GRID = [(p, n) for p in gf.SUPPORTED_PRIMES for n in range(1, 11) if p ** n <= 2 ** 10]


@pytest.mark.parametrize("p,n", SMALL_GRID)
def test_class_moves_keep_the_histogram(p, n):
    # d -> d p^j and d -> d^(-1) leave the spectrum unchanged: every member
    # of a class has its representative's histogram of W(a), a != 0.  And no
    # nondegenerate class is two-valued (Helleseth 1976: at least three values).
    # The class record is the representative's histogram less 1, its rows
    # sorted by cyclo.value_key: the vectorized sort of class_record agrees
    # with the key on every class.
    ctx = gf.field_ctx(p, n)
    classes = list(search.canonical_classes(p, n))
    assert [(c.rep, c.members) for c in classes] == search.class_partition(p, n)
    for cls in classes:
        assert cls.rows.dtype == np.int32 and cls.counts.dtype == np.int64
        vals, counts = spectra.walsh_fast(ctx, cls.rep).unique_values()
        rows = [[r[0] - 1, *r[1:]] for r in vals.tolist()]
        order = sorted(range(len(rows)), key=lambda i: value_key(rows[i]))
        assert cls.rows.tolist() == [rows[i] for i in order], (p, n, cls.rep)
        assert cls.counts.tolist() == counts[order].tolist(), (p, n, cls.rep)
        assert len(vals) >= 3, (p, n, cls.rep)
        for d in cls.members:
            v, c = spectra.walsh_fast(ctx, d).unique_values()
            assert np.array_equal(v, vals) and np.array_equal(c, counts), (p, n, cls.rep, d)


def test_classify_buckets_gf16_no_three_valued():
    classes = list(search.canonical_classes(2, 4))
    assert classes and all(len(cls.counts) != 3 for cls in classes)


def test_classify_buckets_gf64_three_valued_matches_catalog():
    got = {cls.rep for cls in search.canonical_classes(2, 6) if len(cls.counts) == 3}
    from mseqcorr import families
    rep_of = {d: rep for rep, members in search.class_partition(2, 6) for d in members}
    want = {rep_of[d] for d in families.three_valued_decimations(2, 6)}
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
    with pytest.raises(Budget):   # at the call, before the stream is read
        search.canonical_classes(2, 25)


def test_threads_below_one_rejected_at_the_call():
    for threads in (0, -3):
        with pytest.raises(OutOfDomain, match="threads"):
            search.canonical_classes(2, 4, threads=threads)


@pytest.mark.parametrize("p,n", [(2, 10), (3, 5)])
def test_batched_appends_serial_and_threaded(p, n, tmp_path, monkeypatch):
    # appends of 3 records, with every third class already cached between
    # them: a serial and a threaded run write the same bytes, one append per
    # 3 computed classes and one for the rest, and yield the same records
    monkeypatch.setattr(search, "_APPEND_EVERY", 3)
    append, sizes = search.SpectrumCache.append, []

    def counted(self, p, n, modulus, records):
        sizes.append(len(records))
        append(self, p, n, modulus, records)

    monkeypatch.setattr(search.SpectrumCache, "append", counted)
    ctx = gf.field_ctx(p, n)
    reference = list(search.canonical_classes(p, n))
    assert [(c.rep, c.members) for c in reference] == search.class_partition(p, n)
    seeded = reference[::3]
    todo = len(reference) - len(seeded)
    files = []
    for threads in (1, 2):
        cache = search.SpectrumCache(str(tmp_path / f"threads{threads}"))
        append(cache, p, n, ctx.spec.coeffs, [(c.rep, c.rows, c.counts) for c in seeded])
        sizes.clear()
        stream = list(search.canonical_classes(p, n, cache=cache, threads=threads))
        assert sizes == [3] * (todo // 3) + [todo % 3] * (todo % 3 > 0), threads
        assert [(c.rep, c.members) for c in stream] == [(c.rep, c.members) for c in reference]
        assert all(_same_record(a, b.rows, b.counts) for a, b in zip(reference, stream))
        files.append((tmp_path / f"threads{threads}" / f"spectra_p{p}_n{n}.jsonl").read_bytes())
    serial, threaded = files
    assert serial == threaded
    seeded_reps = [c.rep for c in seeded]
    assert [json.loads(line)["d"] for line in serial.splitlines()] == \
           seeded_reps + [c.rep for c in reference if c.rep not in seeded_reps]


def test_cache_roundtrip(tmp_path):
    cache = search.SpectrumCache(str(tmp_path))
    first = list(search.canonical_classes(2, 6, cache=cache))
    path = tmp_path / "spectra_p2_n6.jsonl"
    assert path.exists()
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(first)
    # second run consumes the cache and appends nothing
    second = list(search.canonical_classes(2, 6, cache=cache))
    assert len(path.read_text().strip().splitlines()) == len(lines)
    for a, b in zip(first, second):
        assert a.rep == b.rep and _same_record(a, b.rows, b.counts)
        assert (a.rows.dtype, a.counts.dtype) == (b.rows.dtype, b.counts.dtype)


def test_cache_isolated_by_modulus(tmp_path):
    cache = search.SpectrumCache(str(tmp_path))
    list(search.canonical_classes(2, 6, cache=cache))
    # the reciprocal of x^6 + x + 1 is primitive but keys different rows
    other = (1, 0, 0, 0, 0, 1)
    assert gf.is_primitive(2, 6, other)
    assert cache.load(2, 6, other) == {}
    assert cache.load(2, 6, gf.find_primitive_polynomial(2, 6).coeffs)


def test_cache_rewrite_drops_only_invalid_lines(tmp_path, capsys):
    cache = search.SpectrumCache(str(tmp_path))
    other = (1, 0, 0, 0, 0, 1)
    list(search.canonical_classes(2, 6, cache=cache))
    ctx = gf.field_ctx(2, 6, other)
    cache.append(2, 6, other, [(rep, *spectra.class_record(ctx, rep))
                               for rep, _ in search.class_partition(2, 6)])
    path = tmp_path / "spectra_p2_n6.jsonl"
    good = path.read_text()
    # a garbage line names no class, so nothing is recomputed; it still goes
    path.write_text(good + "not json\n")
    capsys.readouterr()
    list(search.canonical_classes(2, 6, cache=search.SpectrumCache(str(tmp_path))))
    assert "skipped 1 invalid record" in capsys.readouterr().err
    assert path.read_text() == good   # both moduli kept, in order
    list(search.canonical_classes(2, 6, cache=search.SpectrumCache(str(tmp_path))))
    assert capsys.readouterr().err == ""


def test_load_drops_invalid_lines_at_once(tmp_path, capsys):
    cache = search.SpectrumCache(str(tmp_path))
    coeffs = gf.find_primitive_polynomial(2, 6).coeffs
    list(search.canonical_classes(2, 6, cache=cache))
    path = tmp_path / "spectra_p2_n6.jsonl"
    good = path.read_text()
    first, rest = good.split("\n", 1)
    unversioned = json.loads(first)
    del unversioned["version"]
    newer = {**unversioned, "version": search.CACHE_VERSION + 1,
             "modulus": [0]}   # skipped, though not ours
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
    serial = list(search.canonical_classes(3, 4, threads=1))
    threaded = list(search.canonical_classes(3, 4, threads=4))
    assert [(c.rep, c.members) for c in serial] == \
           [(c.rep, c.members) for c in threaded] == search.class_partition(3, 4)
    for a, b in zip(serial, threaded):
        assert _same_record(a, b.rows, b.counts)


def test_stopped_threaded_stream_computes_no_more(monkeypatch):
    # closing the stream cancels the classes its workers have not started
    record, calls = search.class_record, []

    def slow(ctx, d):
        calls.append(d)
        time.sleep(0.05)
        return record(ctx, d)

    monkeypatch.setattr(search, "class_record", slow)
    stream = search.canonical_classes(2, 10, threads=2)
    first = next(stream)
    stream.close()
    assert first.rep == search.class_partition(2, 10)[0][0]
    assert len(calls) <= 4 < len(search.class_partition(2, 10))


def test_version_1_record_recomputed_once(tmp_path, capsys):
    # a line of the first format: the spectrum's CycInt JSON entries
    ctx = gf.field_ctx(2, 6)
    classes = list(search.canonical_classes(2, 6))
    rep = classes[0].rep
    old = {"p": 2, "n": 6, "d": rep, "method": "fast",
           "entries": spectra.entries_json(2, *spectra.class_record(ctx, rep)),
           "modulus": list(ctx.spec.coeffs), "version": 1}
    path = tmp_path / "spectra_p2_n6.jsonl"
    path.write_text(json.dumps(old, sort_keys=True) + "\n")
    cache = search.SpectrumCache(str(tmp_path))
    capsys.readouterr()
    again = list(search.canonical_classes(2, 6, cache=cache))
    assert capsys.readouterr().err.count("skipped 1 invalid record") == 1
    assert [json.loads(line)["d"] for line in path.read_text().splitlines()] == \
           [c.rep for c in classes]   # every class computed once, in version 2
    assert all(_same_record(a, b.rows, b.counts) for a, b in zip(classes, again))
    assert len(cache.load(2, 6, ctx.spec.coeffs)) == len(classes)
    assert capsys.readouterr().err == ""


def _mutations(rec):
    """Invalid variants of a valid record (rows rational and not, counts
    with one count >= 2, a rational row counted at least 3 times), each
    with a name."""
    rows, counts = rec["rows"], rec["counts"]
    i = next(j for j, c in enumerate(counts) if c >= 2)
    top = [max(r[0] for r in rows) + 1] + [1] * (len(rows[0]) - 1)

    def with_(rows=rows, counts=counts):
        return {**rec, "rows": rows, "counts": counts}

    swapped = [1, 0] + list(range(2, len(rows)))
    out = {
        "bool count": with_(counts=[True] + counts[1:]),
        "float coordinate": with_(rows=[[float(rows[0][0])] + rows[0][1:]] + rows[1:]),
        "string count": with_(counts=[str(counts[0])] + counts[1:]),
        "null coordinate": with_(rows=[[None] + rows[0][1:]] + rows[1:]),
        "row too long": with_(rows=[rows[0] + [0]] + rows[1:]),
        "row too short": with_(rows=[rows[0][:-1]] + rows[1:]),
        "more counts than rows": with_(counts=counts + [1]),
        "zero count": with_(rows=rows + [top], counts=counts + [0]),
        # the sums still hold: only the order of the rows is wrong
        "duplicate row": with_(rows=rows[:i + 1] + rows[i:],
                               counts=counts[:i] + [1, counts[i] - 1] + counts[i + 1:]),
        "unsorted rows": with_(rows=[rows[j] for j in swapped],
                               counts=[counts[j] for j in swapped]),
        "count sum off": with_(counts=[counts[0] + 1] + counts[1:]),
        "value sum off": with_(counts=[c - (j == i) + (j == (i == 0))   # one moved
                                       for j, c in enumerate(counts)]),
        "rows not a list": with_(rows={"0": rows[0]}),
    }
    # rows of -B and B + 2v around the rational ones, two fewer of the value v:
    # the sums and the order hold, but B does not fit the int32 rows
    j = next(j for j, (r, c) in enumerate(zip(rows, counts)) if not any(r[1:]) and c >= 3)
    last = max(k for k, r in enumerate(rows) if not any(r[1:]))
    zeros, big = [0] * (len(rows[0]) - 1), 2 ** 40
    out["coordinate past int32"] = with_(
        rows=[[-big] + zeros] + rows[:last + 1] + [[big + 2 * rows[j][0]] + zeros]
        + rows[last + 1:],
        counts=[1] + [c - 2 * (k == j) for k, c in enumerate(counts[:last + 1])] + [1]
        + counts[last + 1:])
    if len(rows[0]) > 1:   # False for the 0 past the first coordinate of a rational row
        j = next(j for j, r in enumerate(rows) if not any(r[1:]))
        out["bool coordinate"] = with_(
            rows=rows[:j] + [[rows[j][0], False] + rows[j][2:]] + rows[j + 1:])
    return out


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (5, 3)])
def test_cache_rejects_invalid_records(p, n, tmp_path, capsys):
    ctx = gf.field_ctx(p, n)
    cls = list(search.canonical_classes(p, n))[-1]
    cache = search.SpectrumCache(str(tmp_path))
    cache.append(p, n, ctx.spec.coeffs, [(cls.rep, cls.rows, cls.counts)])
    path = tmp_path / f"spectra_p{p}_n{n}.jsonl"
    good = json.loads(path.read_text())
    assert good["version"] == search.CACHE_VERSION
    loaded = cache.load(p, n, ctx.spec.coeffs)
    assert _same_record(cls, *loaded[cls.rep])
    for name, bad in _mutations(good).items():
        path.write_text(json.dumps(bad) + "\n")
        capsys.readouterr()
        assert cache.load(p, n, ctx.spec.coeffs) == {}, name
        assert "skipped 1 invalid record" in capsys.readouterr().err, name
        assert path.read_text() == "", name
