"""p-ary m-sequences: trace form, linear recursion, decimation, Golomb checks.

The canonical phase of an m-sequence is the trace form s_t = Tr(alpha^t);
recursion output is a cyclic shift of it and can be aligned by matching.
Symbols are stored one per byte regardless of p (grid symbols fit a byte).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import gcd

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import OutOfDomain
from .gf import FieldCtx, FieldSpec, decimated

SAMPLE_DECIMATIONS = 3     # coprime d >= 2 of the decimation-closure check
SAMPLE_TAUS = (1, 2, 3)    # shifts of the shift-and-subtract check


@dataclass(frozen=True)
class MSeq:
    """One period of a p-ary sequence with generator metadata."""

    p: int
    n: int
    symbols: bytes
    origin: str = ""

    @property
    def period(self) -> int:
        return len(self.symbols)

    def as_array(self) -> np.ndarray:
        return np.frombuffer(self.symbols, dtype=np.uint8).astype(np.int64)

    def __repr__(self):
        head = "".join(str(s) for s in self.symbols[:16])
        tail = "..." if self.period > 16 else ""
        return f"MSeq(p={self.p}, n={self.n}, len={self.period}, {head}{tail})"


def generate_trace(ctx: FieldCtx) -> MSeq:
    """s_t = Tr(alpha^t) for t = 0 .. p^n - 2."""
    return MSeq(ctx.p, ctx.n, ctx.mseq.astype(np.uint8).tobytes(), origin="trace")


def generate_recursion(spec: FieldSpec, initial_state) -> MSeq:
    """Run s_{t+n} = -(c_{n-1} s_{t+n-1} + ... + c_0 s_t) for one full period."""
    state = [s % spec.p for s in initial_state]
    if len(state) != spec.n:
        raise OutOfDomain(f"initial state must have length {spec.n}")
    if not any(state):
        raise OutOfDomain("all-zero initial state generates the zero orbit")
    p, n, L = spec.p, spec.n, spec.period
    c = spec.coeffs
    out = list(state)
    for _ in range(L - n):
        nxt = -sum(ci * si for ci, si in zip(c, out[-n:])) % p
        out.append(nxt)
    return MSeq(p, n, bytes(out), origin=f"recursion{tuple(initial_state)}")


def decimate(seq: MSeq, d: int) -> MSeq:
    """symbols'[t] = symbols[d*t mod period]; requires gcd(d, period) = 1."""
    L = seq.period
    if gcd(d, L) != 1:
        raise OutOfDomain(f"gcd({d}, {L}) != 1")
    sym = decimated(np.frombuffer(seq.symbols, dtype=np.uint8), d)
    return MSeq(seq.p, seq.n, sym.tobytes(), origin=f"{seq.origin}/dec{d}")


def alignment_shift(seq: MSeq, ref: MSeq) -> int | None:
    """Shift tau with seq.symbols[tau:] + seq.symbols[:tau] == ref.symbols,
    or None."""
    if seq.period != ref.period:
        return None
    doubled = seq.symbols + seq.symbols
    pos = doubled.find(ref.symbols)
    return pos if 0 <= pos < seq.period else None


def correlation_counts(u: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """(p, L) int64 counts: entry [r, tau] is the number of t with
    u_(t+tau) - v_t = r mod p (indices mod L), every shift at once by exact
    integer correlations of the residue indicators."""
    L = len(u)
    out = np.zeros((p, L), dtype=np.int64)
    ind_v = [(v == j).astype(np.int64) for j in range(p)]
    for i in range(p):
        ui = (u == i).astype(np.int64)
        ui2 = np.concatenate([ui, ui[:-1]])
        for j in range(p):
            # over t, u_(t+tau) = i and v_t = j, for all tau at once
            out[(i - j) % p] += np.correlate(ui2, ind_v[j], mode="valid")
    return out


@dataclass
class GolombReport:
    """Six property verdicts; `runs` is None for p != 2."""

    span: bool
    decimation: bool
    shift_and_subtract: bool
    balance: bool
    autocorrelation: bool
    runs: bool | None

    def all_pass(self) -> bool:
        checks = [self.span, self.decimation, self.shift_and_subtract,
                  self.balance, self.autocorrelation]
        if self.runs is not None:
            checks.append(self.runs)
        return all(checks)

    def to_dict(self) -> dict:
        return {
            "span": self.span,
            "decimation": self.decimation,
            "shift_and_subtract": self.shift_and_subtract,
            "balance": self.balance,
            "autocorrelation": self.autocorrelation,
            "runs": self.runs,
        }


def _infer_degree(p: int, L: int) -> int | None:
    n, q = 0, 1
    while q < L + 1:
        q *= p
        n += 1
    return n if q == L + 1 else None


def _run_lengths(symbols: bytes) -> dict[int, int]:
    """Circular run-length histogram (over any alphabet)."""
    arr = np.frombuffer(symbols, dtype=np.uint8)
    starts = np.flatnonzero(arr != np.roll(arr, 1))   # where a run begins
    if not len(starts):
        return {len(arr): 1}
    lengths = np.diff(starts, append=starts[0] + len(arr))
    return dict(zip(*(a.tolist() for a in np.unique(lengths, return_counts=True))))


def _span_and_balance(arr: np.ndarray, p: int, n: int) -> tuple[bool, bool]:
    """Whether the L cyclic n-windows of arr are distinct and none is all
    zero, and whether each symbol s < p occurs p^(n-1) times, 0 once less."""
    windows = sliding_window_view(np.concatenate([arr, arr[:n - 1]]), n)
    distinct = np.unique(windows, axis=0)
    expected = np.full(p, p ** (n - 1))
    expected[0] -= 1
    return (len(distinct) == len(arr) and bool(distinct.any(axis=1).all()),
            np.array_equal(np.bincount(arr, minlength=p)[:p], expected))


def check_golomb(seq: MSeq) -> GolombReport:
    """Span, decimation closure, shift-and-subtract, balance, two-level
    autocorrelation, and (p=2) the run-length profile.

    All six hold exactly for a genuine m-sequence; non-m-sequences fail
    at least one.  Decimation closure is spot-checked on the first
    `SAMPLE_DECIMATIONS` coprime d >= 2, each decimation for span and
    balance (a sequence with distinct windows and balanced counts misses
    exactly the zero window), and shift-and-subtract on `SAMPLE_TAUS`.
    """
    p, L = seq.p, seq.period
    arr = seq.as_array()
    n = _infer_degree(p, L)
    if n is None:
        span = balance = decim_ok = False
    else:
        span, balance = _span_and_balance(arr, p, n)
        coprime = (d for d in range(2, L) if gcd(d, L) == 1)
        decim_ok = all(all(_span_and_balance(decimate(seq, d).as_array(), p, n))
                       for d in islice(coprime, SAMPLE_DECIMATIONS))

    doubled = seq.symbols + seq.symbols
    shift_ok = all(
        doubled.find(((np.roll(arr, -tau) - arr) % p).astype(np.uint8).tobytes()) >= 0
        for tau in SAMPLE_TAUS if tau % L)

    # the Z[w] coordinates of the autocorrelation at every shift, one per column
    counts = correlation_counts(arr, arr, p)
    ac = counts[:-1] - counts[-1]
    two_level = np.zeros_like(ac)
    two_level[0] = -1
    two_level[0, 0] = L
    auto_ok = np.array_equal(ac, two_level)

    runs_ok: bool | None = None
    if p == 2:
        if n is None:
            runs_ok = False
        else:
            hist = _run_lengths(seq.symbols)
            want: dict[int, int] = {k: 2 ** (n - 1 - k) for k in range(1, n - 1)}
            if n >= 2:
                want[n - 1] = want.get(n - 1, 0) + 1
            want[n] = want.get(n, 0) + 1
            runs_ok = hist == want

    return GolombReport(
        span=span,
        decimation=decim_ok,
        shift_and_subtract=shift_ok,
        balance=balance,
        autocorrelation=auto_ok,
        runs=runs_ok,
    )
