"""Exhaustive decimation classification and finite conjecture checks.

Coprime nondegenerate decimations are partitioned into equivalence classes
closed under d -> d * p^j and d -> d^(-1) (all members share one spectrum);
one Walsh transform per class representative covers the whole coprime range.

A class carries its spectrum as one integer record (`spectra.class_record`,
the one form of a spectrum): `rows`, the distinct values C = W - 1 as rows
of p - 1 basis coordinates of Z[w] (`cyclo`), and `counts`, how often each
occurs.  The rows are in the order of `cyclo.value_key`: the rational
values ascending, then the others in the lexicographic order of their
coordinates.

`canonical_classes` is the one pass over the classes of a field: an
iterator of `DecimationClass` in representative order, which each check
and `classify` reads once.  Records can be persisted to a JSON-lines cache
keyed by (p, n, modulus, class representative) so repeated runs are
incremental: the stream appends its computed records `_APPEND_EVERY` at a
time, so a run stopped partway keeps them and the next computes only the
rest.  A line holds {p, n, d, modulus, version, rows, counts}, the rows and
counts as lists of JSON integers, and is trusted only after the checks of
`_record_ok`.  A line of another version (version 1 held `CycInt` JSON
entries) is skipped, counted once on stderr and dropped from the file, and
its class computed again.

A conjecture check that FAILS is a reportable finding (recorded in the
returned report), never a crash.
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from operator import lt, mul

import numpy as np

from .cyclo import value_key
from .errors import Budget, OutOfDomain
from . import families
from .gf import FieldCtx, factorize, field_ctx
from .spectra import class_record

CLASSIFY_MAX_ORDER = 2 ** 24
CACHE_VERSION = 2   # the record format; a record of any other version is recomputed
_APPEND_EVERY = 64   # computed records per cache append


@dataclass(eq=False)
class DecimationClass:
    """One equivalence class of decimations with its shared spectrum:
    `rows`, the (k, p - 1) int32 coordinates of its k distinct values, in
    the module's order, and `counts`, int64."""

    rep: int
    members: tuple[int, ...]
    rows: np.ndarray
    counts: np.ndarray


def class_partition(p: int, n: int) -> list[tuple[int, tuple[int, ...]]]:
    """Partition of nondegenerate coprime d under d ~ d p^j ~ d^(-1) p^j.

    Returns (representative, sorted members) pairs ordered by representative;
    the representative is the least member of the merged coset pair.

    The coprime d are sieved by the primes of p^n - 1, and their coset
    minima min_j d p^j are n array products; the degenerate d are the coset
    of 1.  The inverse coset of a coset with least member c is that of
    c^(-1), so one modular inverse per coset reads its minimum back, and
    the lesser minimum of the pair is the class's representative.  One
    sort of the keys rep * L + d groups the classes, each in ascending
    order.
    """
    L = p ** n - 1
    coprime = np.ones(max(L, 2), dtype=bool)
    coprime[:2] = False
    for r in factorize(L):
        coprime[::r] = False
    d = np.flatnonzero(coprime)
    least, x = d.copy(), d
    for _ in range(n - 1):
        x = x * p % L
        np.minimum(least, x, out=least)
    nondegenerate = least != 1
    d, least = d[nondegenerate], least[nondegenerate]
    cosets, coset_of = np.unique(least, return_inverse=True)
    inverses = np.array([pow(c, -1, L) for c in cosets.tolist()], dtype=np.int64)
    rep = np.minimum(cosets, least[np.searchsorted(d, inverses)])[coset_of]
    rep, members = np.divmod(np.sort(rep * L + d), L)
    starts = np.flatnonzero(np.diff(rep, prepend=-1)).tolist() + [len(members)]
    members = members.tolist()
    return [(members[a], tuple(members[a:b])) for a, b in zip(starts, starts[1:])]


class SpectrumCache:
    """JSON-lines spectrum store, one file per (p, n) under a directory."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, p: int, n: int) -> str:
        return os.path.join(self.directory, f"spectra_p{p}_n{n}.jsonl")

    def load(self, p: int, n: int, modulus: tuple) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """{d: (rows, counts)} for this modulus.  Unparseable or invalid
        lines, and records of another `CACHE_VERSION` (or none) whatever
        their modulus, are skipped (and counted on stderr), so their classes
        are computed again, and dropped from the file at once."""
        path = self._path(p, n)
        out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if not os.path.exists(path):
            return out
        skipped: set[int] = set()
        with open(path) as fh:
            for number, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    ours = tuple(rec["modulus"]) == tuple(modulus)
                    ok = rec.get("version") == CACHE_VERSION \
                        and (not ours or _record_ok(rec, p, n))
                    # a coordinate past int32 (no |W| <= p^n is) raises OverflowError
                    if ok and ours:
                        out[rec["d"]] = (np.array(rec["rows"], dtype=np.int32),
                                         np.array(rec["counts"], dtype=np.int64))
                except (ValueError, KeyError, TypeError, OverflowError):
                    ok = False
                if not ok:
                    skipped.add(number)
        if skipped:
            print(f"spectrum cache {path}: skipped {len(skipped)} invalid record(s)",
                  file=sys.stderr)
            _drop_lines(path, skipped)
        return out

    def append(self, p: int, n: int, modulus: tuple, records) -> None:
        """Write a list of (d, rows, counts) records as lines at the end of
        the file; `canonical_classes` calls it once per `_APPEND_EVERY`
        computed classes and once for the rest."""
        with open(self._path(p, n), "ab+") as fh:
            if fh.seek(0, os.SEEK_END):
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")   # a torn last line must not absorb the next record
            fh.writelines(
                json.dumps({"p": p, "n": n, "d": d, "modulus": list(modulus),
                            "version": CACHE_VERSION, "rows": rows.tolist(),
                            "counts": counts.tolist()}, sort_keys=True).encode() + b"\n"
                for d, rows, counts in records)


def _drop_lines(path: str, numbers: set[int]) -> None:
    """Rewrite the file without the lines of these numbers (and without
    blank lines), replacing it whole, so a crash leaves the old file or
    the new one."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(path) as src, open(tmp, "w") as dst:
            dst.writelines(line.strip() + "\n" for number, line in enumerate(src)
                           if number not in numbers and line.strip())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _record_ok(rec: dict, p: int, n: int) -> bool:
    """A cache record is trusted only if it is keyed (p, n), every row is
    p - 1 JSON integers (a bool, float, string or null is none), every count
    is an integer >= 1, one per row, the rows are strictly increasing in the
    module's order (so no value is listed twice), and sum count = p^n - 1
    and sum row * count = 1 in Z[w]; checked on the JSON lists, before any
    array is built."""
    rows, counts = rec["rows"], rec["counts"]
    if (rec["p"], rec["n"], type(rec["d"]), type(rows), type(counts)) \
            != (p, n, int, list, list) or len(rows) != len(counts):
        return False
    if set(map(type, counts)) != {int} or min(counts) < 1 \
            or set(map(type, rows)) != {list} or set(map(len, rows)) != {p - 1} \
            or set(map(type, chain.from_iterable(rows))) != {int}:
        return False
    keys = list(map(value_key, rows))
    if not all(map(lt, keys, keys[1:])):
        return False
    acc = [sum(map(mul, column, counts)) for column in zip(*rows)]
    return sum(counts) == p ** n - 1 and acc == [1] + [0] * (p - 2)


def canonical_classes(p: int, n: int, cache: SpectrumCache | None = None,
                      threads: int = 1) -> Iterator[DecimationClass]:
    """Every nondegenerate coprime class with its spectrum, as an iterator
    in representative order.  The arguments are checked at the call; the
    cache is read and the missing records computed (by `threads` workers)
    as the iterator is read."""
    if p ** n > CLASSIFY_MAX_ORDER:
        raise Budget(f"classification bounded to p^n <= {CLASSIFY_MAX_ORDER}")
    if threads < 1:
        raise OutOfDomain(f"threads must be at least 1, not {threads}")
    return _class_stream(p, n, cache, threads, field_ctx(p, n))


def _class_stream(p: int, n: int, cache: SpectrumCache | None, threads: int,
                  ctx: FieldCtx) -> Iterator[DecimationClass]:
    parts = class_partition(p, n)
    records = cache.load(p, n, ctx.spec.coeffs) if cache is not None else {}
    todo = [rep for rep, _ in parts if rep not in records]   # ascending
    batch = []
    pool = ThreadPoolExecutor(threads) if threads > 1 else None
    try:
        fresh = (pool.map if pool else map)(partial(class_record, ctx), todo)
        for rep, members in parts:
            if rep in records:
                rows, counts = records.pop(rep)
            else:
                rows, counts = next(fresh)
                if cache is not None:
                    batch.append((rep, rows, counts))
                    if len(batch) == _APPEND_EVERY or rep == todo[-1]:
                        cache.append(p, n, ctx.spec.coeffs, batch)
                        batch = []
            yield DecimationClass(rep, members, rows, counts)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)   # a stopped stream computes no more


# ----------------------------------------------------------------------
# Conjecture evidence
# ----------------------------------------------------------------------

@dataclass
class MinusOneReport:
    """Evidence that -1 occurs in every qualifying spectrum at (p, n)."""

    p: int
    n: int
    holds: bool
    checked_classes: int
    counterexamples: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "check": "minus-one", "p": self.p, "n": self.n,
            "holds": self.holds, "checked_classes": self.checked_classes,
            "counterexamples": self.counterexamples,
        }


def check_minus_one(p: int, n: int, **kw) -> MinusOneReport:
    """For every coprime d with d = 1 mod p-1: some a != 0 has W_d(a) = 0.

    Degenerate d hold trivially (-1 at every nonzero shift); the qualifying
    set is closed under the class moves, so one check per class suffices.
    """
    minus_one = [-1] + [0] * (p - 2)
    counter = []
    checked = 0
    for cls in canonical_classes(p, n, **kw):
        if (cls.rep - 1) % (p - 1):
            continue
        checked += 1
        if not (cls.rows == minus_one).all(axis=1).any():
            counter.append(cls.rep)
    return MinusOneReport(p=p, n=n, holds=not counter,
                          checked_classes=checked, counterexamples=counter)


@dataclass
class CompletenessReport:
    """Exhaustive three-valued classes vs the catalog's predictions."""

    p: int
    n: int
    holds: bool   # the found and the predicted classes are the same set
    found_reps: list[int]
    predicted_reps: list[int]
    unexplained: list[int]
    missing: list[int]

    def to_dict(self) -> dict:
        return {
            "check": "three-valued-completeness", "p": self.p, "n": self.n,
            "exact_match": self.holds,
            "found": self.found_reps, "predicted": self.predicted_reps,
            "unexplained": self.unexplained, "missing": self.missing,
        }


def three_valued_completeness(p: int, n: int, **kw) -> CompletenessReport:
    """Compare the exhaustive three-valued classes with the classes of the
    catalog-predicted d."""
    classes = canonical_classes(p, n, **kw)
    predicted_d = set(families.three_valued_decimations(p, n))
    found, predicted = [], []
    for cls in classes:
        if len(cls.counts) == 3:
            found.append(cls.rep)
        if not predicted_d.isdisjoint(cls.members):
            predicted.append(cls.rep)
    unexplained = sorted(set(found) - set(predicted))
    missing = sorted(set(predicted) - set(found))
    return CompletenessReport(
        p=p, n=n, holds=not unexplained and not missing,
        found_reps=found, predicted_reps=predicted,
        unexplained=unexplained, missing=missing)
