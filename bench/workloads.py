"""Workload definitions: each turns a seed into the argv lists of one pass.

A pass is the list of CLI invocations a fresh worker process runs once, in
order, from one thread.  The program only ever sees these argv lists; the
seed picks the decimations and other free parameters, so the same seed
gives the same inputs.  No command passes --threads, so every pass measures
the default a user gets.
"""

from __future__ import annotations

import random
from math import gcd

CACHE_TOKEN = "{cache}"   # replaced by a fresh, empty directory per pass


def _coprime_decimation(rng: random.Random, p: int, n: int,
                        one_mod_p_minus_1: bool | None = None) -> int:
    """A seeded d coprime to p^n - 1 outside the degenerate class {p^j}.

    one_mod_p_minus_1, when given, requires d = 1 mod p-1 (True) or
    d != 1 mod p-1 (False).
    """
    L = p ** n - 1
    degenerate = {pow(p, j, L) for j in range(n)}
    while True:
        d = rng.randrange(2, L)
        if gcd(d, L) != 1 or d in degenerate:
            continue
        if one_mod_p_minus_1 is not None and ((d - 1) % (p - 1) == 0) != one_mod_p_minus_1:
            continue
        return d


def _spectrum(p: int, n: int, d: int) -> list[str]:
    return ["spectrum", "--p", str(p), "--n", str(n), "--d", str(d)]


def spectrum_p2_n24(rng: random.Random) -> list[list[str]]:
    return [_spectrum(2, 24, _coprime_decimation(rng, 2, 24))]


def spectrum_odd_p(rng: random.Random) -> list[list[str]]:
    return [
        _spectrum(3, 12, 11),
        _spectrum(3, 12, _coprime_decimation(rng, 3, 12)),
        _spectrum(7, 6, 5),
        # A d != 1 mod 6 gave thousands of distinct values at every seed
        # tried, a d = 1 mod 6 about sixty; the workload is about the former.
        _spectrum(7, 6, _coprime_decimation(rng, 7, 6, one_mod_p_minus_1=False)),
        _spectrum(13, 5, 7),
    ]


def evidence_sweep(rng: random.Random) -> list[list[str]]:
    """Exhaustive inputs; the seed is unused."""
    out = []
    for p, max_n in ((2, 16), (3, 8)):
        grid = ["--p", str(p), "--max-n", str(max_n), "--cache-dir", CACHE_TOKEN]
        out += [
            ["classify", *grid],
            ["conjecture", "--check", "minus-one", *grid],
            ["conjecture", "--check", "three-valued", *grid],
            ["classify", *grid],
        ]
    return out


def catalog_checks(rng: random.Random) -> list[list[str]]:
    out = [
        ["verify", "--family", "all", "--p", "2", "--n", "14"],
        ["verify", "--family", "all", "--p", "3", "--n", "8"],
    ]
    for p, n in ((2, 16), (3, 10)):
        out.append(["moments", "--p", str(p), "--n", str(n),
                    "--d", str(_coprime_decimation(rng, p, n))])
    for p, m in ((2, 6), (3, 3)):
        out.append(["niho", "--p", str(p), "--m", str(m),
                    "--s", str(rng.randrange(2, p ** m + 1)), "--check-identity"])
    for p, m in ((2, 12), (3, 8)):
        out.append(["expsum", "--kind", "kloosterman", "--p", str(p), "--m", str(m),
                    "--a-log", str(rng.randrange(0, p ** m - 1))])
    d = _coprime_decimation(rng, 3, 9, one_mod_p_minus_1=True)
    out.append(["code-weights", "--p", "3", "--n", "9", "--d", str(d)])
    return out


WORKLOADS = {
    "spectrum-p2-n24": spectrum_p2_n24,
    "spectrum-odd-p": spectrum_odd_p,
    "evidence-sweep": evidence_sweep,
    "catalog-checks": catalog_checks,
}


def commands(workload: str, seed: int) -> list[list[str]]:
    return WORKLOADS[workload](random.Random(seed))
