"""p-ary m-sequences: trace form, linear recursion, decimation, Golomb checks.

The canonical phase of an m-sequence is the trace form s_t = Tr(alpha^t);
recursion output is a cyclic shift of it and can be aligned by matching.
Symbols are stored one per byte regardless of p (grid symbols fit a byte).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .cyclo import CycInt
from .errors import OutOfDomain
from .gf import FieldCtx, FieldSpec, decimation_index


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
    sym = np.frombuffer(seq.symbols, dtype=np.uint8)[decimation_index(L, d)]
    return MSeq(seq.p, seq.n, sym.tobytes(), origin=f"{seq.origin}/dec{d}")


def minimal_period(symbols: bytes) -> int:
    L = len(symbols)
    for cand in sorted(k for k in range(1, L + 1) if L % k == 0):
        if all(symbols[i] == symbols[i % cand] for i in range(L)):
            return cand
    return L


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


def autocorrelation_all(seq: MSeq) -> list[CycInt]:
    """sum_t w^(s_(t+tau) - s_t), exact in Z[w], for every shift tau."""
    arr = seq.as_array()
    return [CycInt.from_counts(seq.p, col)
            for col in correlation_counts(arr, arr, seq.p).T.tolist()]


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
    L = len(symbols)
    if len(set(symbols)) == 1:
        return {L: 1}
    # rotate so position 0 starts a run
    start = next(i for i in range(L) if symbols[i] != symbols[i - 1])
    s = symbols[start:] + symbols[:start]
    hist: dict[int, int] = {}
    run = 1
    for i in range(1, L + 1):
        if i < L and s[i] == s[i - 1]:
            run += 1
        else:
            hist[run] = hist.get(run, 0) + 1
            run = 1
    return hist


def check_golomb(seq: MSeq, sample_taus=(1, 2, 3), sample_decimations=3) -> GolombReport:
    """Span, decimation closure, shift-and-subtract, balance, two-level
    autocorrelation, and (p=2) the run-length profile.

    All six hold exactly for a genuine m-sequence; non-m-sequences fail
    at least one.
    """
    p, L = seq.p, seq.period
    arr = seq.as_array()
    n = _infer_degree(p, L)

    if n is None:
        span = False
    else:
        windows = {tuple(arr[(t + np.arange(n)) % L]) for t in range(L)}
        span = len(windows) == L and all(any(w) for w in windows)

    expected = {s: p ** (n - 1) if s else p ** (n - 1) - 1 for s in range(p)} if n else {}
    counts = np.bincount(arr, minlength=p)
    balance = n is not None and all(int(counts[s]) == expected[s] for s in range(p))

    # decimation closure, spot checks: first few coprime nontrivial d
    decim_ok = True
    if n is None:
        decim_ok = False
    else:
        tested = 0
        d = 2
        while tested < sample_decimations and d < L:
            if gcd(d, L) == 1:
                dec = decimate(seq, d)
                darr = dec.as_array()
                dcounts = np.bincount(darr, minlength=p)
                dwin = {tuple(darr[(t + np.arange(n)) % L]) for t in range(L)}
                decim_ok &= len(dwin) == L and all(
                    int(dcounts[s]) == expected[s] for s in range(p)
                )
                tested += 1
            d += 1

    shift_ok = True
    doubled = seq.symbols + seq.symbols
    for tau in sample_taus:
        tau %= L
        if tau == 0:
            continue
        diff = bytes(int(v) for v in (np.roll(arr, -tau) - arr) % p)
        shift_ok &= doubled.find(diff) >= 0

    ac = autocorrelation_all(seq)
    auto_ok = ac[0] == L and all(v == -1 for v in ac[1:])

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
