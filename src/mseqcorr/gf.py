"""Finite fields GF(p^n) with exp/log and trace tables.

An element sum_i c_i * alpha^i (c_i in GF(p), alpha the residue class of x
modulo the defining polynomial) is packed into the integer sum_i c_i * p**i.
Zero is 0, the multiplicative identity is 1, and all products/powers/inverses
reduce to index arithmetic mod p^n - 1 through the exp/log tables of alpha.
This module is the only one that reads the packed digits.

`FieldCtx.add`, `neg`, `sub`, `mul`, `inv`, `pow`, `frobenius` and
`conj_half` take Python ints or numpy integer arrays (broadcast against each
other; exponents are ints): an int in gives an int out, an array in gives an
array out.  Addition is XOR for p = 2 and digit-wise mod p otherwise;
negation is multiplication by the constant p - 1 = -1.

The exp table is built by doubling, the same way for every p: exp[k:2k] =
alpha^k * exp[:k], written straight into the table.  Multiplication by
alpha^k is GF(p)-linear, so it is applied to a whole array from the images
of the basis alpha^0..alpha^(n-1).
Each group of g digits (p^g <= 256) indexes a table of the images of its
digit patterns, held as words with one digit per fixed-width bit slot: one
bit for p = 2, where the word is the packed element and the sum is XOR, and
3-5 bits with a guard bit for odd p, summed by a carry-free SWAR add (several
digits in one machine word) and repacked to base p by shift and mask.  The
odd-p words are int64 and live only for one chunk of 2^16 elements.  The Gram
index map u(a) is the same linear map; the trace, whose images Tr(alpha^i)
lie in GF(p), sums small ints and reduces mod p once.

`FieldCtx` builds only the exp table and those n traces when it is made.
The log table, the m-sequence s_k = Tr(alpha^k) (for p = 2, a parity of
masked exp entries), the full trace table and the Gram matrix are built on
first use, so a spectrum, which reads exp and the m-sequence alone, never
pays for the others.  `decimated` reads a sequence at the indices k d
mod L, made block by block, without an index array of the field's size.
For p = 2, `FieldCtx.trace_windows` gives the decimated m-sequence s_(k d
mod L) in the same blocks with no m-sequence at all: with k = q B + r,
s_(k d) is the parity of exp[r d mod L] masked by the n-bit linear form of
alpha^(q B d), so a block reads one in-cache table of B entries; the
packed p = 2 transform input in `spectra` scatters these bits.

A pass over a whole field runs through `run_blocks`: here the chunks of
the linear maps, the p = 2 m-sequence parity and the blocks of
`decimated`, in `spectra` the scatter of the transform input (with the
trace windows, for the packed p = 2 input: each range fills a packed table
of its own, and its `np.add.at` holds the interpreter lock, so only the
rest of the range runs in parallel), each transform stage, the bands of
the banded p = 2 transform and the histogram (the odd-p index swap is one
copy on the calling thread).  A pass of at least
`_PARALLEL_MIN` = 2^21 elements is cut into one range per thread, run on
one shared `ThreadPoolExecutor` made on the first such pass; numpy
releases the interpreter lock inside its loops, so the ranges run in
parallel.  A smaller pass is one call in the calling thread, decided
before any range arithmetic: below 2^21 the blocked passes measured no
faster on 2 cores, and the scatter and the binary stages up to 1.8 times
slower at 2^20.  The thread count is the
calling thread's: `block_threads(n)` sets it for a with statement, and it
is `CORES`, the available cores, otherwise.  A thread that ran
`inline_blocks` (a worker of the block pool, or a process of a class pool
in `search`) makes every pass one call.  The ranges write disjoint parts
of arrays the caller made, so no result depends on the thread count.
`stop_blocks` shuts the pool down before a fork; the next parallel pass
makes it again.

Defining polynomials are primitive by construction, so alpha generates the
full multiplicative group and the exp table enumerates every nonzero element.
The canonical polynomial for (p, n) is the lexicographically least primitive
one (on the coefficient tuple c_{n-1}, ..., c_1, c_0).  For the supported
fields with tables (p in `SUPPORTED_PRIMES`, p^n <= 2^24) it is read from the
pinned table `_CANONICAL`, which a test checks against
`find_primitive_polynomial`; only a (p, n) off the table is searched for.  A
table of alternate moduli can be loaded from a file, see
`load_modulus_file`.

Size bounds: tables are built only for p^n <= 2^24; polynomial-level
operations (primitivity testing, canonical polynomial search) go up to 2^40.
Primitivity needs the primes of p - 1 and p^n - 1, found by trial division
alone, which is complete up to 2^40 (divisors up to 2^20); `factorize` and
`is_prime` refuse larger numbers.  Past any of these bounds they raise
`errors.Budget`.  Arguments outside what a function accepts (a composite p,
a prime outside `SUPPORTED_PRIMES` for `field_ctx`, a degree n < 1, an odd
n where n = 2m is needed, a non-primitive or malformed modulus, the log of
0) raise `errors.OutOfDomain`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import isqrt

import numpy as np

from .errors import Budget, OutOfDomain

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)
MAX_TABLE_ORDER = 2 ** 24   # exp/log tables kept in memory
MAX_POLY_ORDER = 2 ** 40    # polynomial arithmetic only
_GROUP_TABLE = 256          # entries of one digit-group lookup table
_CHUNK = 2 ** 16            # elements per pass of a linear map
_PARALLEL_MIN = 2 ** 21     # elements of a pass below which it is one call, inline
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else os.cpu_count() or 1


# ----------------------------------------------------------------------
# Field-sized passes in blocks on one shared thread pool
# ----------------------------------------------------------------------

_local = threading.local()   # .threads: the block threads of this thread's passes


@contextmanager
def block_threads(threads: int):
    """Inside the with statement, the passes the calling thread makes run
    on up to `threads` threads (1: each pass is one call, inline); outside
    any, on `CORES`."""
    if threads < 1:
        raise OutOfDomain(f"threads must be at least 1, not {threads}")
    before = getattr(_local, "threads", None)
    _local.threads = threads
    try:
        yield
    finally:
        _local.threads = before


def inline_blocks() -> None:
    """Make every pass of the calling thread one call, inline: the
    initializer of a pool whose workers each run whole passes at once."""
    _local.threads = 1


_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()


def _pool(threads: int) -> ThreadPoolExecutor:
    # made on the first parallel pass; its workers start as blocks arrive
    with _pools_lock:
        if threads not in _pools:
            _pools[threads] = ThreadPoolExecutor(threads, thread_name_prefix="mseqcorr-blocks",
                                                 initializer=inline_blocks)
        return _pools[threads]


def stop_blocks() -> None:
    """Shut down the block pools and join their threads, so that no thread
    of this module is alive (before a fork); the next parallel pass makes
    its pool again."""
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown()


def run_blocks(fn, count: int, elements: int, scratch=None) -> list:
    """[fn(lo, hi)] over ranges [lo, hi) that tile [0, count), in order.

    A pass of `elements` elements below `_PARALLEL_MIN`, or made where
    blocks run inline (`block_threads`), is the one call fn(0, count).  A
    larger one is cut into one range per thread, but no more ranges than
    count or than blocks of `_PARALLEL_MIN` / 2 elements, run on the
    shared pool of that many threads.  The ranges must be independent:
    numpy releases the interpreter lock inside its loops, so they run in
    parallel.  More blocks than threads measured slower: each block pays
    its numpy calls again, and the ring stage makes hundreds of them.

    A range that needs working memory gets it from `scratch`, called once
    per range in the calling thread, as fn's third argument: fn(lo, hi,
    scratch()).  Memory that a pool thread frees stays in its malloc
    arena, so temporaries made inside the ranges raise the peak RSS with
    the thread count.
    """
    if elements < _PARALLEL_MIN:   # most passes: one call, before any range arithmetic
        return [fn(0, count) if scratch is None else fn(0, count, scratch())]
    threads = getattr(_local, "threads", None) or CORES
    pieces = min(count, threads, elements // (_PARALLEL_MIN // 2))
    if pieces < 2:
        return [fn(0, count) if scratch is None else fn(0, count, scratch())]
    bounds = [count * i // pieces for i in range(pieces + 1)]
    calls = [(lo, hi) if scratch is None else (lo, hi, scratch())
             for lo, hi in zip(bounds, bounds[1:])]
    futures = [_pool(threads).submit(fn, *call) for call in calls]
    wait(futures)   # every block has finished, also when one raised
    return [f.result() for f in futures]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, complete for n <= 2^40.

    The module factors only p - 1 and p^n - 1 <= MAX_POLY_ORDER, so trial
    divisors up to sqrt(2^40) = 2^20 suffice: what is left above 1 is prime.
    """
    if n > MAX_POLY_ORDER:
        raise Budget(f"{n} exceeds the factoring bound 2^40")
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return factorize(n) == {n: 1}


# ----------------------------------------------------------------------
# Polynomial arithmetic over GF(p), coefficient tuples c[0..deg] low-first
# ----------------------------------------------------------------------

def _poly_mulmod(a: tuple, b: tuple, mod_low: tuple, p: int) -> tuple:
    """(a*b) mod (x^n + mod poly), operands of degree < n.

    The sums are exact integers, reduced mod p once per coefficient: a
    high coefficient when it is folded, the low ones at the end.
    """
    n = len(mod_low)
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for k in range(2 * n - 2, n - 1, -1):
        ck = prod[k] % p
        if ck:
            for j, mj in enumerate(mod_low):
                prod[k - n + j] -= ck * mj
    return tuple(c % p for c in prod[:n])


def _poly_powmod(base: tuple, e: int, mod_low: tuple, p: int) -> tuple:
    n = len(mod_low)
    result = tuple([1] + [0] * (n - 1))
    acc = base
    while e:
        if e & 1:
            result = _poly_mulmod(result, acc, mod_low, p)
        acc = _poly_mulmod(acc, acc, mod_low, p)
        e >>= 1
    return result


@dataclass(frozen=True)
class FieldSpec:
    """Defining data of GF(p^n): prime p, degree n, monic modulus.

    coeffs lists c_0, ..., c_{n-1} of the modulus x^n + c_{n-1} x^{n-1}
    + ... + c_1 x + c_0; the leading 1 is implied.
    """

    p: int
    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise OutOfDomain(f"p={self.p} is not prime")
        if self.n < 1 or len(self.coeffs) != self.n:
            raise OutOfDomain("coefficient list must have length n >= 1")
        if self.coeffs[0] % self.p == 0:
            raise OutOfDomain("constant term c_0 must be nonzero")

    @property
    def order(self) -> int:
        return self.p ** self.n

    @property
    def period(self) -> int:
        return self.p ** self.n - 1


def power_exceeds(p: int, n: int, bound: int) -> bool:
    """p^n > bound, for p >= 2 and n >= 0, without computing a huge power:
    p^n >= 2^n, so a degree n at or past the bit length of bound decides it."""
    return n >= bound.bit_length() or p ** n > bound


def check_degree(n: int) -> None:
    """Raise `OutOfDomain` unless the extension degree n is at least 1."""
    if n < 1:
        raise OutOfDomain(f"n={n}: the extension degree must be >= 1")


def check_supported_prime(p: int) -> None:
    """Raise `OutOfDomain` unless p is one of `SUPPORTED_PRIMES`."""
    if p not in SUPPORTED_PRIMES:
        raise OutOfDomain(f"p={p} is not a supported prime {SUPPORTED_PRIMES}")


def _check_poly_args(p: int, n: int) -> None:
    check_degree(n)
    # before the primality test: p <= 2^40 from here
    if p >= 2 and power_exceeds(p, n, MAX_POLY_ORDER):
        raise Budget(f"p^n = {p}^{n} exceeds the arithmetic bound 2^40")
    if not is_prime(p):
        raise OutOfDomain(f"p={p} is not prime")


def is_primitive(p: int, n: int, coeffs) -> bool:
    """True iff x has multiplicative order p^n - 1 modulo the monic poly.

    Checks x^(p^n-1) = 1 and x^((p^n-1)/r) != 1 for every prime r | p^n-1.
    Complete: order p^n - 1 forces the modulus to be primitive (a reducible
    modulus caps the order of any unit strictly below p^n - 1).
    """
    _check_poly_args(p, n)
    coeffs = tuple(c % p for c in coeffs)
    if len(coeffs) != n or coeffs[0] == 0:
        return False
    L = p ** n - 1
    # x mod the modulus; for n = 1 that is x mod (x + c_0) = -c_0
    x = tuple([0, 1] + [0] * (n - 2)) if n >= 2 else (-coeffs[0] % p,)
    one = tuple([1] + [0] * (n - 1))
    if _poly_powmod(x, L, coeffs, p) != one:
        return False
    for r in factorize(L):
        if _poly_powmod(x, L // r, coeffs, p) == one:
            return False
    return True


def _has_root(coeffs: tuple, c: int, p: int) -> bool:
    """True iff c is a root of the monic x^n + c_{n-1} x^{n-1} + ... + c_0."""
    v = 1
    for ci in reversed(coeffs):
        v = (v * c + ci) % p
    return v == 0


def find_primitive_polynomial(p: int, n: int) -> FieldSpec:
    """Lexicographically least primitive polynomial of degree n over GF(p).

    The order is lexicographic on (c_{n-1}, ..., c_1, c_0); deterministic
    across runs, no external tables.  For n > 1 a candidate with a root in
    GF(p)* has a linear factor, so it is skipped before `is_primitive`.
    """
    _check_poly_args(p, n)
    for lex in product(range(p), repeat=n):   # (c_{n-1}, ..., c_0) in order
        coeffs = lex[::-1]
        if coeffs[0] == 0:
            continue
        if n > 1 and any(_has_root(coeffs, c, p) for c in range(1, p)):
            continue   # a linear factor x - c: reducible, so not primitive
        if is_primitive(p, n, coeffs):
            return FieldSpec(p, n, coeffs)
    raise RuntimeError(f"no primitive polynomial found for ({p},{n})")


def load_modulus_file(path) -> dict[tuple[int, int], tuple[int, ...]]:
    """Parse an override table: lines of "p n c_0 c_1 ... c_{n-1}" in decimal."""
    table: dict[tuple[int, int], tuple[int, ...]] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#")[0].strip()
            if not line:
                continue
            try:
                parts = [int(tok) for tok in line.split()]
            except ValueError:
                parts = []   # a token that is not a decimal integer
            if len(parts) < 3:
                raise OutOfDomain(f"{path}:{lineno}: expected 'p n c_0 ... c_(n-1)' in decimal")
            p, n, coeffs = parts[0], parts[1], tuple(parts[2:])
            if len(coeffs) != n:
                raise OutOfDomain(f"{path}:{lineno}: {n} coefficients expected")
            if not is_primitive(p, n, coeffs):
                raise OutOfDomain(f"{path}:{lineno}: modulus is not primitive over GF({p})")
            table[(p, n)] = coeffs
    return table


def _digits(v, p: int, n: int) -> np.ndarray:
    """(len(v), n) int64 base-p digits of the packed ints v, low digit first."""
    return np.asarray(v, dtype=np.int64)[:, None] // p ** np.arange(n, dtype=np.int64) % p


def degenerate_set(p: int, n: int) -> set[int]:
    """The degenerate decimations d = p^j mod p^n - 1, j < n: each
    decimates the m-sequence to a shift of itself."""
    L = p ** n - 1
    return {pow(p, j, L) for j in range(n)}


def _multiples(count: int, step: int, L: int) -> np.ndarray:
    """k * step mod L for k = 0 .. count - 1, as uint32."""
    return (np.arange(count, dtype=np.int64) * (step % L) % L).astype(np.uint32)


def _wrap(s: np.ndarray, L: int) -> np.ndarray:
    """s mod L in place, for uint32 s < 2L < 2^32: one unsigned
    min(s, s - L), since s - L runs past 2^32 exactly when s < L."""
    return np.minimum(s, s - np.uint32(L), out=s)


def _decimation_split(L: int, d: int) -> tuple[int, np.ndarray]:
    """(B, r): the block size B = `_CHUNK` (or L) of k = q B + r, and the
    uint32 table of r d mod L, r < B.  The table is split the same way, r =
    i b + j with b about sqrt(B), and built from two tables of about sqrt(B)
    multiples.  Needs 1 <= L < 2^31."""
    if not 1 <= L < 2 ** 31:
        raise Budget(f"period {L} outside the int32 index range [1, 2^31)")
    d %= L
    B = min(_CHUNK, L)
    b = isqrt(B - 1) + 1
    r = np.add.outer(_multiples(-(-B // b), b * d, L), _multiples(b, d, L)).ravel()[:B]
    return B, _wrap(r, L)


def decimated(values: np.ndarray, d: int) -> np.ndarray:
    """values[k d mod L] for k = 0 .. L - 1, L = len(values), a fresh array;
    needs 1 <= L < 2^31.  The indices are made block by block, so that no
    index array of the field's size is built: with k = q B + r
    (`_decimation_split`), k d = q (B d) + r d, so block q adds (q B d) mod
    L to the table of (r d) mod L, and the sum, below 2L, wraps with
    `_wrap`.  The blocks run in ranges (`run_blocks`)."""
    L = len(values)
    B, r = _decimation_split(L, d)
    d %= L
    out = np.empty(L, dtype=values.dtype)

    def gather(q0, q1):
        for q in range(q0, q1):
            lo = q * B
            m = min(B, L - lo)
            out[lo:lo + m] = values.take(_wrap(r[:m] + np.uint32(q * B * d % L), L) if q
                                         else r[:m])

    run_blocks(gather, -(-L // B), L)
    return out


class FieldCtx:
    """GF(p^n) as tables: exp and the trace basis eager, the rest on first use.

    Construction builds the exp table and the n traces Tr(alpha^i) of the
    polynomial basis, all a crosscorrelation spectrum needs besides the
    m-sequence.  The log table, the m-sequence s_k = Tr(alpha^k), the full
    trace table over all p^n elements and the Gram matrix are cached
    properties, built on first use.  A cached property stores only a
    finished array, so a context stays safe to share across threads: two
    first reads at once at worst build the same array twice.  Elements are
    packed ints (see module docstring).
    """

    def __init__(self, spec: FieldSpec):
        p, n = spec.p, spec.n
        order = spec.order
        if order > MAX_TABLE_ORDER:
            raise Budget(
                f"p^n={order} exceeds the table bound 2^24; "
                "use polynomial-level operations instead"
            )
        self.spec = spec
        self.p = p
        self.n = n
        self.order = order
        self.period = order - 1

        self._place = tuple(p ** i for i in range(n))   # packed weight of digit i
        self._group = 1                                  # digits per lookup table
        while p ** (self._group + 1) <= _GROUP_TABLE:
            self._group += 1
        self._patterns = _digits(np.arange(p ** self._group), p, self._group)
        # Word layout of `_linear_map`: digit i in the w bits from w * i up,
        # w = 1 for p = 2.  For odd p the top bit of a slot is a guard bit
        # (see `_slot_add`), and `_unslot` merges neighbouring fields
        # pairwise, low + high * p^j, until one is left.  p^n <= 2^24 keeps
        # n * w <= 45 bits, so a word fits an int64.
        w = self._slot_bits = 1 if p == 2 else (p - 1).bit_length() + 1
        self._slot_weights = np.int64(1) << w * np.arange(n, dtype=np.int64)
        ones = sum(1 << w * i for i in range(n))
        self._guard = ones << (w - 1)
        self._bias = self._guard - p * ones        # 2^(w-1) - p in every slot
        self._merges = []
        width, fields = w, n
        while p != 2 and fields > 1:
            low = sum(((1 << width) - 1) << (2 * width * j) for j in range((fields + 1) // 2))
            self._merges.append((width, low, p ** (width // w)))
            width, fields = 2 * width, (fields + 1) // 2

        self._exp = self._build_exp()
        self._trace_basis = self._build_trace_basis()

    def _build_exp(self) -> np.ndarray:
        """exp[k:2k] = alpha^k * exp[:k], doubling k until the period is full.

        `imgs` holds alpha^k, ..., alpha^(k+n-1), the images of the basis
        under multiplication by alpha^k; squaring that map doubles k.  Each
        doubling writes straight into exp[k:2k], with no field-sized copy.
        """
        p, L = self.p, self.period
        exp = np.empty(L, dtype=np.int32)
        exp[0] = 1
        alpha_n = sum((-c) % p * w for c, w in zip(self.spec.coeffs, self._place))
        imgs = np.array(self._place[1:] + (alpha_n,), dtype=np.int32)
        k = 1
        while k < L:
            m = min(k, L - k)
            self._linear_map(imgs, exp[:m], out=exp[k:k + m])
            imgs = self._linear_map(imgs, imgs)
            k += m
        return exp

    def _group_tables(self, images, weights, dtype):
        """[(lo, table)]: the images of every digit pattern of each group.

        The digits lo .. lo+g-1 of x, read as one number c < p^g, index
        table[c] = sum_j c_j images[lo + j], where the images are rows of
        digits and the sum is reduced mod p digit by digit and packed with
        `weights`.
        """
        p, g = self.p, self._group
        tables = []
        for lo in range(0, len(images), g):
            rows = images[lo:lo + g]
            patterns = self._patterns[:p ** len(rows), :len(rows)]
            tables.append((lo, (patterns @ rows % p @ weights).astype(dtype)))
        return tables

    def _apply(self, tables, x, add, finish, dtype, out=None):
        """Sum the group tables' parts for packed x, `_CHUNK` elements at a
        time (the chunks in blocks, `run_blocks`): add(acc, part) sums part
        into acc and may overwrite part, and finish(acc, spare) gives the
        result, spare a free buffer of acc's size; if finish is None, the
        sum is the result, made in the output itself.  The output is `out`,
        a 1-D array of x's size apart from x, if it is given, else a fresh
        array of x's shape.  x must hold field elements, 0 <= x < p^n: the
        table reads clip, they do not check.

        The digit patterns, the sum and the parts live in buffers of one
        chunk that the calling thread makes for each range (`run_blocks`
        scratch) and every chunk reuses: with no field-sized array freed in
        between, malloc gives chunk-sized arrays back to the system as they
        are freed, and fresh ones pay their page faults again chunk after
        chunk.  Building the (2,20) exp table straight into the table with
        fresh arrays per chunk made 5672 page faults in 26 ms, with these
        buffers 1256 in 16-21 ms (2-core x86 VM).
        """
        x = np.asarray(x)
        flat = x.ravel()
        if out is None:
            out = np.empty(flat.shape, dtype=dtype)
        size, word = min(_CHUNK, len(flat)), tables[0][1].dtype

        def chunks(c0, c1, scratch):
            idx, acc, part = scratch
            for s in range(c0 * _CHUNK, min(c1 * _CHUNK, len(flat)), _CHUNK):
                m = min(_CHUNK, len(flat) - s)
                o, c, part_m = out[s:s + m], idx[:m], part[:m]
                total = o if finish is None else acc[:m]
                for i, table in enumerate(self._group_digits(tables, flat[s:s + m], c)):
                    # mode "clip" takes without a buffer; every pattern is in range
                    if i == 0:
                        np.take(table, c, out=total, mode="clip")
                    else:
                        add(total, np.take(table, c, out=part_m, mode="clip"))
                if finish is not None:
                    o[...] = finish(total, part_m)

        run_blocks(chunks, -(-len(flat) // _CHUNK), len(flat),
                   lambda: (np.empty(size, dtype=np.intp),
                            None if finish is None else np.empty(size, dtype=word),
                            np.empty(size, dtype=word)))
        return out.reshape(x.shape)

    def _group_digits(self, tables, x, idx):
        """For each group table in turn, write the digits of its group of
        the packed x, read as one number, into idx, and yield the table.
        For odd p the groups are peeled off low first, x = q * p^g + c, and
        c = x - q * p^g."""
        rest = x
        for lo, table in tables:
            if self.p == 2:
                np.bitwise_and(np.right_shift(x, lo, out=idx), len(table) - 1, out=idx)
            elif lo + self._group < self.n:
                q = rest // len(table)
                np.subtract(rest, q * len(table), out=idx)
                rest = q
            else:
                idx[...] = rest   # the last group
            yield table

    def _linear_map(self, images, x, out=None):
        """Apply the GF(p)-linear map sending alpha^i to images[i] to packed x.

        Each digit group of x indexes a table of at most 256 words (see
        `_group_tables`), each word holding one image digit per slot.  The
        parts are summed carry-free slot by slot (`_slot_add`) and repacked
        to base p (`_unslot`).  For p = 2 a word is the packed element
        itself, summed in the output (`_apply`).  Working in chunks keeps
        the int64 words to a few hundred KB whatever the size of x.  Returns
        int32, in `out` if it is given.
        """
        dtype = np.int32 if self.p == 2 else np.int64
        tables = self._group_tables(_digits(images, self.p, self.n), self._slot_weights, dtype)
        return self._apply(tables, x, self._slot_add, None if self.p == 2 else self._unslot,
                           np.int32, out)

    def _slot_add(self, acc, part):
        """acc += part digit-wise mod p, in place, on slot words; part is
        overwritten.

        For p = 2 this is XOR.  For odd p a slot has w bits with 2p - 2 <
        2^w, so s = a + b stays within every slot; s + 2^(w-1) - p sets the
        slot's top (guard) bit exactly when s >= p, and p is taken off those
        slots.
        """
        if self.p == 2:
            acc ^= part
            return
        acc += part
        # part is spent: it takes p in every slot whose sum reached p
        np.add(acc, self._bias, out=part)
        part &= self._guard
        part >>= self._slot_bits - 1
        part *= self.p
        acc -= part

    def _unslot(self, acc, high):
        """Slot words to packed base-p ints, in place: merging neighbouring
        fields as low + high * p^j halves their number, log2(n) steps; high
        is a buffer of acc's size."""
        for shift, low, weight in self._merges:
            np.right_shift(acc, shift, out=high)
            high &= low
            high *= weight
            acc &= low
            acc += high
        return acc

    def _trace_map(self, values, x):
        """Apply the GF(p)-linear map sending alpha^i to values[i] in GF(p)
        to packed x: the parts are small ints, summed and reduced mod p
        once.  At p^n <= 2^24 there are at most 4 parts below 13 each, so
        the sum fits int8.  Returns int8."""
        tables = self._group_tables(np.asarray(values)[:, None], np.ones(1, dtype=np.int64),
                                    np.int8)
        return self._apply(tables, x, lambda acc, part: np.add(acc, part, out=acc),
                           # acc % p, which numpy runs far slower on int8
                           lambda acc, spare: acc - acc // self.p * self.p, np.int8)

    # -- raw tables ----------------------------------------------------

    @property
    def exp_table(self) -> np.ndarray:
        return self._exp

    @cached_property
    def log_table(self) -> np.ndarray:
        """log[exp[k]] = k; log[0] = -1."""
        log = np.full(self.order, -1, dtype=np.int32)
        log[self._exp] = np.arange(self.period, dtype=np.int32)
        return log

    @cached_property
    def mseq(self) -> np.ndarray:
        """The m-sequence s_k = Tr(alpha^k), k = 0 .. p^n - 2, as int8."""
        if self.p == 2:
            # Tr is the parity of the digits selected by the trace basis
            t = sum(b << i for i, b in enumerate(self._trace_basis))
            # both made here, not in the blocks: memory a pool thread frees
            # stays with that thread (malloc keeps an arena per thread)
            masked = np.empty(self.period, dtype=np.int32)
            out = np.empty(self.period, dtype=np.int8)

            def parity(lo, hi):
                o = out[lo:hi]
                np.bitwise_count(np.bitwise_and(self._exp[lo:hi], t, out=masked[lo:hi]),
                                 out=o.view(np.uint8))
                o &= 1

            run_blocks(parity, self.period, self.period)
            return out
        return self._trace_map(self._trace_basis, self._exp)

    def trace_windows(self, d: int):
        """The bits s_(k d mod L) of the decimated m-sequence for p = 2,
        block by block, read from exp without the m-sequence.

        Returns (count, blocks), the blocks of k of `_decimation_split`:
        blocks(q0, q1) yields (lo, bits) for the blocks q = q0 .. q1 - 1 of
        the `count`, bits the uint8 s_(k d mod L) for k = lo .. lo +
        len(bits) - 1, in a buffer that the next block overwrites.  With k =
        q B + r (`_decimation_split`), alpha^(k d) = alpha^(q B d) V[r], V[r]
        = alpha^(r d) = exp[r d mod L], and y -> Tr(alpha^(q B d) y) is the
        parity of y & w_q, the mask whose bit i is Tr(alpha^(q B d + i)),
        read from exp at n entries per block.  So a block is one AND with
        the in-cache V, one bit count and one & 1, with no random read.
        """
        L, n = self.period, self.n
        B, r = _decimation_split(L, d)
        d %= L
        t = sum(b << i for i, b in enumerate(self._trace_basis))   # Tr y = parity(y & t)
        count = -(-L // B)
        V = self._exp.take(r)
        idx = (_multiples(count, B * d, L).astype(np.int64)[:, None] + np.arange(n)) % L
        w = np.bitwise_or.reduce((np.bitwise_count(self._exp[idx] & t) & 1).astype(np.int32)
                                 << np.arange(n, dtype=np.int32), axis=1)

        def blocks(q0, q1):
            masked = np.empty(B, dtype=np.int32)
            bits = np.empty(B, dtype=np.uint8)
            for q in range(q0, q1):
                m = min(B, L - q * B)
                np.bitwise_count(np.bitwise_and(V[:m], w[q], out=masked[:m]), out=bits[:m])
                bits[:m] &= 1
                yield q * B, bits[:m]

        return count, blocks

    @cached_property
    def trace_table(self) -> np.ndarray:
        """Tr(a) for every packed a in [0, p^n), as int8."""
        return self._trace_map(self._trace_basis, np.arange(self.order, dtype=np.int32))

    # -- element arithmetic --------------------------------------------

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        return sum((a // w + b // w) % self.p * w for w in self._place)

    def neg(self, a):
        return self.mul(self.p - 1, a)   # the packed constant p - 1 is -1

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        log = self.log_table
        r = self._exp[(log[a] + log[b]) % self.period] * ((a != 0) & (b != 0))
        return r if isinstance(r, np.ndarray) else int(r)

    def inv(self, a):
        return self.pow(a, -1)

    def pow(self, a, e: int):
        """a^e, with 0^0 = 1; zero to a negative power raises."""
        if e < 0 and np.any(a == 0):
            raise ZeroDivisionError("zero to a negative power")
        k = self.log_table[a].astype(np.int64) * (e % self.period) % self.period
        r = self._exp[k] * ((a != 0) | (e == 0))   # e = 0 reads exp[0] = 1
        return r if isinstance(r, np.ndarray) else int(r)

    def element_from_log(self, i: int) -> int:
        return int(self._exp[i % self.period])

    def frobenius(self, a, k: int = 1):
        """a^(p^k)."""
        e = self.log_table[a].astype(np.int64) * pow(self.p, k, self.period) % self.period
        r = self._exp[e] * (a != 0)
        return r if isinstance(r, np.ndarray) else int(r)

    def conj_half(self, a):
        """a^(p^m) for n = 2m, the subfield conjugate used on the unit circle."""
        if self.n % 2:
            raise OutOfDomain("conjugate over GF(p^m) needs n = 2m")
        return self.frobenius(a, self.n // 2)

    # -- traces ----------------------------------------------------------

    def _build_trace_basis(self) -> list[int]:
        """Tr(alpha^i) = sum_k alpha^(i p^k), i < n, read from exp indices."""
        tb = []
        for i in range(self.n):
            acc = 0
            for k in range(self.n):
                acc = self.add(acc, int(self._exp[i * self.p ** k % self.period]))
            # acc lies in GF(p), i.e. packed value < p
            tb.append(acc)
        return tb

    @cached_property
    def _gram(self) -> np.ndarray:
        """Symmetric n x n matrix G[i][j] = Tr(alpha^i * alpha^j) over GF(p)."""
        ij = np.add.outer(np.arange(self.n), np.arange(self.n)) % self.period
        return self.mseq[ij].astype(np.int64)

    def gram_index(self, a):
        """u(a) = G . digits(a) mod p, packed; Tr(a x) = <u(a), digits(x)>."""
        cols = [int(self._gram[:, i] @ self._place) for i in range(self.n)]
        return self._linear_map(cols, a)

    def trace(self, a: int) -> int:
        """Absolute trace Tr(a) = a + a^p + ... + a^(p^(n-1)) as an int in [0, p)."""
        return int(self.trace_table[a])

    # -- subsets ----------------------------------------------------------

    def unit_circle(self) -> np.ndarray:
        """All x with x * x^(p^m) = 1 (n = 2m), the subgroup of order p^m + 1,
        as an int32 array in log order."""
        if self.n % 2:
            raise OutOfDomain("unit circle needs n = 2m")
        m = self.n // 2
        logs = np.arange(self.p ** m + 1, dtype=np.int64) * (self.p ** m - 1)
        return self._exp[logs % self.period]

    def __repr__(self):
        return f"FieldCtx(GF({self.p}^{self.n}), modulus={self.spec.coeffs})"


# The canonical modulus c_0, ..., c_(n-1) of every supported (p, n) with
# p^n <= 2^24, as `find_primitive_polynomial` finds it (a test compares them);
# the search costs tens of ms per field, paid again by every CLI process.
_CANONICAL = {
    (2, 1): (1,), (2, 2): (1, 1), (2, 3): (1, 1, 0), (2, 4): (1, 1, 0, 0),
    (2, 5): (1, 0, 1, 0, 0), (2, 6): (1, 1, 0, 0, 0, 0), (2, 7): (1, 1, 0, 0, 0, 0, 0),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0), (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0), (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, 12): (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0),
    (2, 13): (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, 14): (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, 15): (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, 16): (1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, 17): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, 18): (1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, 19): (1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, 20): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, 21): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, 22): (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, 23): (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, 24): (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (3, 1): (1,), (3, 2): (2, 1), (3, 3): (1, 2, 0), (3, 4): (2, 1, 0, 0),
    (3, 5): (1, 2, 0, 0, 0), (3, 6): (2, 1, 0, 0, 0, 0), (3, 7): (1, 2, 1, 0, 0, 0, 0),
    (3, 8): (2, 0, 0, 1, 0, 0, 0, 0), (3, 9): (1, 0, 1, 2, 0, 0, 0, 0, 0),
    (3, 10): (2, 1, 0, 1, 0, 0, 0, 0, 0, 0), (3, 11): (1, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (3, 12): (2, 2, 2, 1, 2, 0, 0, 0, 0, 0, 0, 0),
    (3, 13): (1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (3, 14): (2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (3, 15): (1, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (5, 1): (2,), (5, 2): (2, 1), (5, 3): (2, 3, 0), (5, 4): (2, 2, 1, 0),
    (5, 5): (2, 4, 0, 0, 0), (5, 6): (2, 1, 0, 0, 0, 0), (5, 7): (2, 3, 0, 0, 0, 0, 0),
    (5, 8): (3, 2, 1, 0, 0, 0, 0, 0), (5, 9): (3, 2, 1, 0, 0, 0, 0, 0, 0),
    (5, 10): (3, 1, 1, 0, 0, 0, 0, 0, 0, 0),
    (7, 1): (2,), (7, 2): (3, 1), (7, 3): (2, 3, 0), (7, 4): (5, 3, 1, 0),
    (7, 5): (4, 1, 0, 0, 0), (7, 6): (5, 1, 3, 0, 0, 0), (7, 7): (2, 6, 0, 0, 0, 0, 0),
    (7, 8): (3, 1, 0, 0, 0, 0, 0, 0),
    (11, 1): (3,), (11, 2): (7, 1), (11, 3): (4, 1, 0), (11, 4): (2, 1, 0, 0),
    (11, 5): (4, 1, 1, 0, 0), (11, 6): (8, 2, 1, 0, 0, 0),
    (13, 1): (2,), (13, 2): (2, 1), (13, 3): (6, 1, 0), (13, 4): (2, 1, 1, 0),
    (13, 5): (2, 4, 0, 0, 0), (13, 6): (2, 2, 1, 0, 0, 0),
}


@lru_cache(maxsize=None)
def _canonical_spec(p: int, n: int) -> FieldSpec:
    coeffs = _CANONICAL.get((p, n))
    return find_primitive_polynomial(p, n) if coeffs is None else FieldSpec(p, n, coeffs)


_CTX_CACHE: dict[tuple, FieldCtx] = {}
_CTX_CACHE_MAX_ORDER = 2 ** 16


def field_ctx(p: int, n: int, coeffs=None) -> FieldCtx:
    """FieldCtx for (p, n), canonical modulus unless coeffs is given.

    p must be one of `SUPPORTED_PRIMES`, the primes every fast path is
    tested against an oracle on.

    Small fields are cached; contexts above 2^16 elements are rebuilt on
    demand so long runs do not pin hundreds of MB.
    """
    check_supported_prime(p)
    key = (p, n, tuple(coeffs) if coeffs is not None else None)
    hit = _CTX_CACHE.get(key)
    if hit is not None:
        return hit
    spec = FieldSpec(p, n, tuple(coeffs)) if coeffs is not None else _canonical_spec(p, n)
    if coeffs is not None and not is_primitive(p, n, spec.coeffs):
        raise OutOfDomain(f"modulus {coeffs} is not primitive over GF({p})")
    ctx = FieldCtx(spec)
    if ctx.order <= _CTX_CACHE_MAX_ORDER:
        _CTX_CACHE[key] = ctx
    return ctx
