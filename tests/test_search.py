"""Decimation classification, caching, and conjecture evidence."""

import itertools
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


def _files(directory):
    """{name: {array name: array}} of the record files in a directory."""
    out = {}
    for path in sorted(directory.glob("*.npz")):
        with np.load(path) as arrays:
            out[path.name] = dict(arrays)
    return out


def _file_name(modulus, first):
    return f"m{'-'.join(map(str, modulus))}_d{first}.npz"


def _written_reps(directory):
    """The d of every record file in a directory, in the order they were
    appended: each file's d ascend from its first, which names it."""
    files = sorted(_files(directory).values(), key=lambda f: f["d"][0])
    return [d for f in files for d in f["d"].tolist()]


@pytest.mark.parametrize("p,n", [(2, 10), (3, 5)])
def test_batched_appends_serial_and_threaded(p, n, tmp_path, monkeypatch):
    # appends of 3 records, with every third class already cached between
    # them: a serial and a threaded run write the same files, one append per
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
        files.append(_files(tmp_path / f"threads{threads}" / f"spectra_p{p}_n{n}"))
    serial, threaded = files
    assert serial.keys() == threaded.keys()
    for name, arrays in serial.items():
        assert arrays.keys() == threaded[name].keys()
        for k, v in arrays.items():
            assert v.dtype == threaded[name][k].dtype and np.array_equal(v, threaded[name][k])
    seeded_reps = [c.rep for c in seeded]
    assert _written_reps(tmp_path / "threads1" / f"spectra_p{p}_n{n}") == \
           seeded_reps + [c.rep for c in reference if c.rep not in seeded_reps]


def test_cache_roundtrip(tmp_path):
    cache = search.SpectrumCache(str(tmp_path))
    first = list(search.canonical_classes(2, 6, cache=cache))
    path = tmp_path / "spectra_p2_n6"
    assert path.is_dir()
    assert _written_reps(path) == [c.rep for c in first]
    stamps = {f.name: f.stat().st_mtime_ns for f in path.iterdir()}
    # second run consumes the cache and appends nothing
    second = list(search.canonical_classes(2, 6, cache=cache))
    assert {f.name: f.stat().st_mtime_ns for f in path.iterdir()} == stamps
    for a, b in zip(first, second):
        assert a.rep == b.rep and _same_record(a, b.rows, b.counts)
        assert (a.rows.dtype, a.counts.dtype) == (b.rows.dtype, b.counts.dtype)


def test_cache_isolated_by_modulus(tmp_path):
    cache = search.SpectrumCache(str(tmp_path))
    list(search.canonical_classes(2, 6, cache=cache))
    # the reciprocal of x^6 + x + 1 is primitive, and its records are kept apart
    other = (1, 0, 0, 0, 0, 1)
    assert gf.is_primitive(2, 6, other)
    assert cache.load(2, 6, other) == {}
    assert cache.load(2, 6, gf.find_primitive_polynomial(2, 6).coeffs)


def test_moduli_with_one_first_rep_keep_both_files(tmp_path):
    # two moduli each append a batch that starts at the same representative:
    # both files stay, and each modulus loads only its own records
    cache = search.SpectrumCache(str(tmp_path))
    reps = [rep for rep, _ in search.class_partition(2, 6)]
    batches = {gf.find_primitive_polynomial(2, 6).coeffs: reps[:3],
               (1, 0, 0, 0, 0, 1): reps[:1] + reps[4:6]}
    for modulus, batch in batches.items():
        ctx = gf.field_ctx(2, 6, modulus)
        cache.append(2, 6, modulus, [(rep, *spectra.class_record(ctx, rep)) for rep in batch])
    assert len(list((tmp_path / "spectra_p2_n6").iterdir())) == 2
    for modulus, batch in batches.items():
        loaded = cache.load(2, 6, modulus)
        assert list(loaded) == batch
        ctx = gf.field_ctx(2, 6, modulus)
        for d, (rows, counts) in loaded.items():
            assert all(map(np.array_equal, spectra.class_record(ctx, d), (rows, counts)))


def test_invalid_file_dropped_other_modulus_kept(tmp_path, capsys):
    cache = search.SpectrumCache(str(tmp_path))
    coeffs, other = gf.find_primitive_polynomial(2, 6).coeffs, (1, 0, 0, 0, 0, 1)
    list(search.canonical_classes(2, 6, cache=cache))
    ctx = gf.field_ctx(2, 6, other)
    cache.append(2, 6, other, [(rep, *spectra.class_record(ctx, rep))
                               for rep, _ in search.class_partition(2, 6)])
    path = tmp_path / "spectra_p2_n6"
    good = _files(path)
    # a file of this modulus that is no zip names no class, so nothing is
    # recomputed; it still goes
    (path / _file_name(coeffs, 7)).write_bytes(b"not a zip\n")
    capsys.readouterr()
    list(search.canonical_classes(2, 6, cache=search.SpectrumCache(str(tmp_path))))
    assert "deleted 1 invalid file" in capsys.readouterr().err
    assert _files(path).keys() == good.keys()   # both moduli kept
    list(search.canonical_classes(2, 6, cache=search.SpectrumCache(str(tmp_path))))
    assert capsys.readouterr().err == ""
    assert cache.load(2, 6, other).keys() == cache.load(2, 6, coeffs).keys()


def test_load_drops_invalid_files_at_once(tmp_path, monkeypatch, capsys):
    cache = search.SpectrumCache(str(tmp_path))
    coeffs, other = gf.find_primitive_polynomial(2, 10).coeffs, (1, 0, 0, 1, 0, 0, 0, 0, 0, 1)
    monkeypatch.setattr(search, "_APPEND_EVERY", 10)
    list(search.canonical_classes(2, 10, cache=cache))
    path = tmp_path / "spectra_p2_n10"
    names = sorted(f.name for f in path.iterdir())
    assert len(names) == 4   # 31 classes in appends of 10
    data = (path / names[0]).read_bytes()
    (path / names[0]).write_bytes(data[:len(data) // 2])   # torn
    (path / names[1]).write_bytes(b"")
    (path / _file_name(coeffs, 9)).write_bytes(b"not a zip")
    stranger = _file_name(other, 5)
    (path / stranger).write_bytes(b"not opened")   # another modulus: kept
    capsys.readouterr()
    loaded = cache.load(2, 10, coeffs)
    assert "deleted 3 invalid file(s)" in capsys.readouterr().err
    assert sorted(f.name for f in path.iterdir()) == sorted(names[2:] + [stranger])
    assert len(cache.load(2, 10, coeffs)) == len(loaded) == 11
    assert capsys.readouterr().err == ""


def test_threads_deterministic():
    serial = list(search.canonical_classes(3, 4, threads=1))
    threaded = list(search.canonical_classes(3, 4, threads=4))
    assert [(c.rep, c.members) for c in serial] == \
           [(c.rep, c.members) for c in threaded] == search.class_partition(3, 4)
    for a, b in zip(serial, threaded):
        assert _same_record(a, b.rows, b.counts)


def test_class_threads_and_block_threads_give_one_stream(monkeypatch):
    # (2, 18) is above the threshold set here: with one class thread each
    # class runs its passes in blocks on the block pool; with two, the
    # class workers run them inline and the block pool is never asked for
    # (the field build's passes, on the calling thread, stay below it)
    monkeypatch.setattr(gf, "_PARALLEL_MIN", 2 ** 17)
    pools, pool = [], gf._pool
    monkeypatch.setattr(gf, "_pool", lambda threads: (pools.append(threads), pool(threads))[1])
    with gf.block_threads(2):
        serial = list(itertools.islice(search.canonical_classes(2, 18, threads=1), 16))
    assert set(pools) == {2}
    pools.clear()
    threaded = list(itertools.islice(search.canonical_classes(2, 18, threads=2), 16))
    assert pools == []
    assert [(c.rep, c.members) for c in serial] == [(c.rep, c.members) for c in threaded] \
        == search.class_partition(2, 18)[:16]
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


def _mutations(arrays):
    """Invalid variants of the arrays of a valid one-record file (rows
    rational and not, one count >= 2), each with a name."""
    rows, counts, sizes = arrays["rows"], arrays["counts"], arrays["sizes"]
    i = int(np.flatnonzero(counts >= 2)[0])

    def with_(**changed):
        return {**arrays, **changed}

    def plus(a, at, by):
        out = a.copy()
        np.add.at(out, at, by)
        return out

    swapped = np.r_[1, 0, 2:len(rows)]
    out = {
        # a row past the last in the module's order
        "zero count": with_(rows=np.r_[rows, plus(rows[-1:], (0, -1), 1)],
                            counts=np.r_[counts, 0], sizes=sizes + 1),
        # the sums still hold: only the order of the rows is wrong
        "duplicate row": with_(rows=np.r_[rows[:i + 1], rows[i:]],
                               counts=np.r_[counts[:i], 1, counts[i] - 1, counts[i + 1:]],
                               sizes=sizes + 1),
        "unsorted rows": with_(rows=rows[swapped], counts=counts[swapped]),
        "count sum off": with_(counts=plus(counts, 0, 1)),
        "value sum off": with_(counts=plus(counts, [i, int(i == 0)], [-1, 1])),
        # coordinate p - 2 of the sum off (the value itself for p = 2)
        "last coordinate off": with_(rows=plus(rows, (-1, -1), 1)),
        "row width p": with_(rows=np.c_[rows, np.zeros(len(rows), dtype=np.int32)]),
        "row width p - 2": with_(rows=rows[:, :-1]),
        "more counts than rows": with_(counts=np.r_[counts, 1]),
        "float64 rows": with_(rows=rows.astype(np.float64)),
        "bool counts": with_(counts=counts.astype(bool)),
        "sizes not summing to the counts": with_(sizes=sizes - 1),
        "another modulus": with_(modulus=arrays["modulus"][::-1]),
        "no d": {k: v for k, v in arrays.items() if k != "d"},
    }
    rational = ~rows[:, 1:].any(axis=1)
    below, above = (np.flatnonzero(rational & (sign * rows[:, 0] > 0)) for sign in (-1, 1))
    if len(below) and len(above):   # rational rows a < 0 < b counted b and -a times more
        out["count sum off, value sum kept"] = with_(counts=plus(
            counts, [below[0], above[0]], [rows[above[0], 0], -rows[below[0], 0]]))
    irrational = np.flatnonzero(~rational)
    if len(irrational):   # the sums still hold: an irrational row before the rational ones
        first = np.r_[irrational[0], np.delete(np.arange(len(rows)), irrational[0])]
        out["irrational row first"] = with_(rows=rows[first], counts=counts[first])
    return out


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (5, 3)])
def test_cache_rejects_invalid_records(p, n, tmp_path, capsys):
    ctx = gf.field_ctx(p, n)
    cls = list(search.canonical_classes(p, n))[-1]
    cache = search.SpectrumCache(str(tmp_path))
    cache.append(p, n, ctx.spec.coeffs, [(cls.rep, cls.rows, cls.counts)])
    [(name, good)] = _files(tmp_path / f"spectra_p{p}_n{n}").items()
    path = tmp_path / f"spectra_p{p}_n{n}" / name
    loaded = cache.load(p, n, ctx.spec.coeffs)
    assert _same_record(cls, *loaded[cls.rep])
    for mutation, bad in _mutations(good).items():
        np.savez(path, **bad)
        capsys.readouterr()
        assert cache.load(p, n, ctx.spec.coeffs) == {}, mutation
        assert "deleted 1 invalid file" in capsys.readouterr().err, mutation
        assert not path.exists(), mutation


# one-record files at (2,16) that pass every other check of the cache in
# wrapping int32 and int64 arithmetic: (rows, counts, sizes)
Q16 = 2 ** 16
WRAPPING = {
    # sum count = q - 1 and sum value = 1; the step from q to -2^31 wraps to
    # a positive int32, so the rows look increasing
    "coordinate -2^31": ([-4, 1, Q16, -2 ** 31], [6553, 26213, 32768, 1], [4]),
    # the counts sum to q - 1 + 2^64, the values to 1 + q 2^63
    "count past q": ([1, 2, Q16 - 2], [Q16 + 1, 2 ** 63 - 1, 2 ** 63 - 1], [3]),
    # the sizes sum to 3 + 2^64
    "sizes wrap": ([1, 2, Q16 - 2], [1, 1, Q16 - 3], [3] + [2 ** 62] * 4),
}


@pytest.mark.parametrize("name", sorted(WRAPPING))
def test_cache_checks_bounds_before_sums(name, tmp_path, capsys):
    rows, counts, sizes = WRAPPING[name]
    coeffs = gf.find_primitive_polynomial(2, 16).coeffs
    cache = search.SpectrumCache(str(tmp_path))
    path = tmp_path / "spectra_p2_n16" / _file_name(coeffs, 7)
    path.parent.mkdir()
    np.savez(path, modulus=np.array(coeffs), d=np.arange(7, 7 + len(sizes)),
             sizes=np.array(sizes), rows=np.array(rows, dtype=np.int32)[:, None],
             counts=np.array(counts))
    assert cache.load(2, 16, coeffs) == {}
    assert "deleted 1 invalid file" in capsys.readouterr().err
    assert not path.exists()
