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
and `classify` reads once.  The classes missing from the cache are
computed in that order, one after another, or, given threads > 1 and at
least `gf._PARALLEL_MIN` elements of such work, on a pool of processes
forked for the field and joined when the iterator ends (`_computed`);
the records do not depend on which.  The computed records are appended to a
`SpectrumCache`, if given, `_APPEND_EVERY` at a time, so a run stopped
partway keeps them and the next computes only the rest.  The cache is a
directory per (p, n) holding one `.npz` file per append, whole or absent,
named by the modulus and the append's first representative.  A file that
fails the array checks of `_split` is deleted, counted on stderr, and its
classes computed again.  The JSON-lines files of earlier versions
(`spectra_p*_n*.jsonl`) are no longer read and may be deleted.

A conjecture check that FAILS is a reportable finding (recorded in the
returned report), never a crash.
"""

from __future__ import annotations

import glob
import os
import sys
import tempfile
import threading
import time
import zipfile
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import Budget, OutOfDomain
from . import families, gf
from .gf import FieldCtx, factorize, field_ctx, inline_blocks
from .spectra import class_record

CLASSIFY_MAX_ORDER = 2 ** 24
_APPEND_EVERY = 64   # computed records per cache append
_CHUNK_MAX = 64      # most classes per task of a class pool


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
    """Binary spectrum store, a directory per (p, n) under `directory`."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, p: int, n: int) -> str:
        return os.path.join(self.directory, f"spectra_p{p}_n{n}")

    def load(self, p: int, n: int, modulus: tuple) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """{d: (rows, counts)} from this modulus's files (another modulus's
        are not opened).  A file that does not open or fails `_split` is
        deleted (and counted on stderr), so its classes are computed again."""
        directory = self._path(p, n)
        out, dropped = {}, 0
        for name in sorted(glob.glob(f"{_file_prefix(modulus)}*.npz", root_dir=directory)):
            path = os.path.join(directory, name)
            try:
                with open(path, "rb") as fh, np.lib.npyio.NpzFile(fh) as arrays:
                    records = _split(dict(arrays), p, n, modulus)
            except (OSError, ValueError, EOFError, zipfile.BadZipFile):
                records = None
            if records is None:
                os.remove(path)
                dropped += 1
            else:
                out.update(records)
        if dropped:
            print(f"spectrum cache {directory}: deleted {dropped} invalid file(s)",
                  file=sys.stderr)
        return out

    def append(self, p: int, n: int, modulus: tuple, records) -> None:
        """Write a list of (d, rows, counts) records as one file, named by
        the modulus and the first d, under a temporary name and renamed, so
        it is whole or absent; `canonical_classes` calls it once per
        `_APPEND_EVERY` computed classes and once for the rest."""
        d, rows, counts = zip(*records)
        directory = self._path(p, n)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=directory)
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, modulus=np.array(modulus, dtype=np.int64),
                         d=np.array(d, dtype=np.int64),
                         sizes=np.array(list(map(len, counts)), dtype=np.int64),
                         rows=np.concatenate(rows), counts=np.concatenate(counts))
            os.replace(tmp, os.path.join(directory, f"{_file_prefix(modulus)}{d[0]}.npz"))
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)


def _file_prefix(modulus: tuple) -> str:
    return "m" + "-".join(map(str, modulus)) + "_d"


_DTYPES = {"modulus": np.int64, "d": np.int64, "sizes": np.int64,
           "rows": np.int32, "counts": np.int64}


def _split(arrays: dict, p: int, n: int, modulus: tuple) -> dict | None:
    """{d: (rows, counts)} of one file's arrays, record i the next
    `sizes[i]` rows and counts; None unless the arrays are `_DTYPES` of
    this modulus, with counts in [1, p^n), coordinates in [-p^n, p^n] (the
    bounds, checked first, keep the sums and row steps from wrapping) and,
    in each record, a row of p - 1 coordinates per count, sum count =
    p^n - 1, sum row * count = 1 in Z[w] and the rows strictly increasing
    in the module's order."""
    if arrays.keys() != _DTYPES.keys() \
            or any(getattr(arrays[k], "dtype", None) != t for k, t in _DTYPES.items()):
        return None
    mod, d, sizes, rows, counts = (arrays[k] for k in _DTYPES)
    q = p ** n
    if mod.tolist() != list(modulus) or (d.ndim, sizes.ndim, counts.ndim) != (1, 1, 1) \
            or not len(d) == len(sizes) > 0 or rows.shape != (len(counts), p - 1) \
            or not (sizes.min() >= 1 and sizes.max() <= len(counts)
                    and sizes.sum() == len(counts) and counts.min() >= 1
                    and counts.max() < q and rows.min() >= -q and rows.max() <= q):
        return None
    ends = np.cumsum(sizes)
    starts = ends - sizes
    sums = np.add.reduceat(rows * counts[:, None], starts)
    # adjacent rows a, b: (any(a[1:]), a) < (any(b[1:]), b), unless b starts a record
    irrational = rows[:, 1:].any(axis=1)
    step = np.diff(rows, axis=0)
    lead = step[np.arange(len(step)), (step != 0).argmax(axis=1)]
    rising = np.where(irrational[:-1] == irrational[1:], lead > 0, irrational[1:])
    rising[ends[:-1] - 1] = True
    if (np.add.reduceat(counts, starts) != q - 1).any() or (sums[:, 0] != 1).any() \
            or sums[:, 1:].any() or not rising.all():
        return None
    return dict(zip(d.tolist(), zip(np.split(rows, ends[:-1]), np.split(counts, ends[:-1]))))


def canonical_classes(p: int, n: int, cache: SpectrumCache | None = None,
                      threads: int = 1) -> Iterator[DecimationClass]:
    """Every nondegenerate coprime class with its spectrum, as an iterator
    in representative order.  The arguments are checked at the call; the
    cache is read and the missing records computed (by `threads` worker
    processes, `_computed`) as the iterator is read."""
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
    with _computed(ctx, todo, threads) as fresh:
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


@contextmanager
def _computed(ctx: FieldCtx, todo: list[int], threads: int):
    """An iterator of the records of the representatives `todo`, in order.

    They are computed here, one class after another with its passes in
    blocks, unless `threads` > 1 and the work reaches the block rule,
    len(todo) * p^n >= `gf._PARALLEL_MIN` elements: then by a pool of
    `threads` forked processes (`_fork_pool`), each running whole classes
    with their passes inline, in tasks of up to `_CHUNK_MAX` classes
    (fewer, so that each process gets about four tasks, and fewer at large
    fields, so that a stopped stream waits little for the tasks in
    flight).  An exception of a class is raised here with its type.

    The processes are forked at the first task with SIGINT blocked, and
    each ignores it before unblocking it, so a Ctrl-C is handled once, by
    this process.  On leaving, however the stream ends, the tasks not
    started are cancelled and the processes joined, so none outlives the
    stream.
    """
    pool = None
    if threads > 1 and len(todo) * ctx.order >= gf._PARALLEL_MIN:
        pool = _fork_pool(ctx, threads)
    if pool is None:
        yield map(partial(class_record, ctx), todo)
        return
    import signal
    chunk = max(1, min(_CHUNK_MAX, len(todo) // (4 * threads), 2 ** 22 // ctx.order))
    try:
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            if sys.version_info < (3, 11):
                # a submit forks one more process, while the pool's manager
                # thread runs after the first: fork them all before it
                for _ in range(threads):
                    pool._adjust_process_count()
            fresh = pool.map(_forked_record, todo, chunksize=chunk)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield fresh
    finally:
        pool.shutdown(cancel_futures=True)   # a stopped stream computes no more


def _fork_pool(ctx: FieldCtx, threads: int):
    """A `ProcessPoolExecutor` of `threads` processes to be forked from
    this one with no thread but the caller's alive: the block pools are
    stopped first.  None, to compute here, where `fork` is no start method
    or another thread stays alive.  The processes inherit the field
    context through the fork; only d and the records are pickled."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    gf.stop_blocks()
    if threading.active_count() > 1:
        return None
    return ProcessPoolExecutor(threads, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(ctx, os.getpid()))


_worker_ctx: FieldCtx | None = None   # in a class pool's process, its field


def _start_worker(ctx: FieldCtx, parent: int) -> None:
    """The initializer of a class pool's process (its arguments are
    inherited through the fork, not pickled)."""
    import signal
    global _worker_ctx
    _worker_ctx = ctx
    inline_blocks()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    threading.Thread(target=_exit_without, args=(parent,), daemon=True).start()


def _exit_without(parent: int) -> None:
    """End this process within a second of its parent: a parent killed by
    a signal it does not handle (SIGTERM, SIGKILL) joins no process, and
    an idle one would wait for a task forever."""
    while os.getppid() == parent:
        time.sleep(1)
    os._exit(1)


def _forked_record(d: int) -> tuple[np.ndarray, np.ndarray]:
    return class_record(_worker_ctx, d)


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
