"""Acceptance gate: one test per criterion, exact equality everywhere.

Each test prints a single PASS/FAIL line (visible with -s or on failure).
All comparisons are integer/cyclotomic exact; the only tolerances are the
stated wall-clock budgets.
"""

import json
import subprocess
import sys
import time
from math import gcd

import numpy as np
import pytest

from mseqcorr import codes, expsums, families, gf, lfsr, niho, search, spectra
from mseqcorr.errors import Budget


def _report(num: int, desc: str, ok: bool, extra: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{tag}] {desc}{' - ' + extra if extra else ''}")
    assert ok, f"criterion {num} failed: {desc} {extra}"


def _verify(fid, p, n, params):
    fam = families.get_family(fid)
    d = fam.decimation(p, n, params)
    comp = spectra.class_record(gf.field_ctx(p, n), d)
    return families.verify_family(fid, p, n, params, comp)


def _same(a, b):
    """Two (rows, counts) records are equal, order included."""
    return all(map(np.array_equal, a, b))


def test_criterion_1_golomb_suite():
    t0 = time.time()
    ok = True
    for p, nmax in ((2, 12), (3, 7), (5, 4)):
        for n in range(2, nmax + 1):
            seq = lfsr.generate_trace(gf.field_ctx(p, n))
            rep = lfsr.check_golomb(seq)
            ok &= rep.all_pass()
            ok &= (rep.runs is not None) == (p == 2)
    elapsed = time.time() - t0
    ok &= elapsed < 60
    _report(1, "Golomb properties on the full grid", ok, f"{elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    checked = 0
    ok = True
    for p, nmax in ((2, 10), (3, 5), (5, 3)):
        for n in range(2, nmax + 1):
            ctx = gf.field_ctx(p, n)
            L = ctx.period
            for d in range(1, L):
                if gcd(d, L) != 1:
                    continue
                ok &= _same(spectra.class_record(ctx, d, method="fast"),
                            spectra.class_record(ctx, d, method="naive"))
                checked += 1
    elapsed = time.time() - t0
    ok &= elapsed < 600
    _report(2, "fast transform = naive oracle for every coprime d",
            ok, f"{checked} decimations, {elapsed:.1f}s")


def test_criterion_3_three_valued_families():
    jobs = [
        ("gold", 2, 5, {"k": 1}), ("gold", 2, 9, {"k": 3}),
        ("kasami-welch", 2, 9, {"k": 3}),
        ("cusick-dobbertin-a", 2, 6, {}), ("cusick-dobbertin-b", 2, 6, {}),
        ("cusick-dobbertin-a", 2, 10, {}), ("cusick-dobbertin-b", 2, 10, {}),
        ("welch", 2, 5, {}), ("welch", 2, 7, {}), ("welch", 2, 9, {}),
        ("welch-ternary", 3, 3, {}), ("welch-ternary", 3, 5, {}),
        ("katz-langevin", 3, 3, {"k": 1}), ("katz-langevin", 3, 7, {"k": 2}),
        ("trachtenberg-half", 3, 3, {"k": 1}), ("trachtenberg-half", 5, 3, {"k": 1}),
        ("helleseth-kasami-p", 3, 3, {"k": 1}), ("helleseth-kasami-p", 5, 3, {"k": 1}),
    ]
    ok = True
    for fid, p, n, params in jobs:
        v = _verify(fid, p, n, params)
        ok &= v.passed
    # the n | 4k-1 reading of the ternary 3^k + 2 family is the one that
    # passes; the n | 4k+1 alternative (k = 5 at n = 7) is many-valued
    alt_rows, _ = spectra.class_record(gf.field_ctx(3, 7), 3 ** 5 + 2)
    ok &= len(alt_rows) > 3
    _report(3, "three-valued distributions exact at all stated points", ok)


def test_criterion_4_four_valued_families():
    ok = True
    for fid, p, n, params in [
        ("niho-4val-unified", 2, 8, {"r": 1, "sign": -1}),   # d = 31
        ("niho-4val-unified", 2, 8, {"r": 2, "sign": -1}),
        ("niho-4val-unified", 2, 8, {"r": 2, "sign": 1}),
        ("niho-4val-unified", 2, 12, {"r": 1, "sign": -1}),  # d = 127
        ("helleseth-4val-p", 3, 4, {}), ("helleseth-4val-p", 7, 2, {}),
        ("xia-ternary-4val", 3, 3, {"form": 1}),
        ("xia-ternary-4val", 3, 3, {"form": 2}),
    ]:
        v = _verify(fid, p, n, params)
        ok &= v.passed
        ok &= spectra.power_sums(p, *v.predicted, 1)[1] == 1
    rows, counts = families.get_family("niho-4val-unified").predicted(
        2, 8, {"r": 1, "sign": -1})
    ok &= counts[rows[:, 0] == -1].tolist() == [119]  # a = 0 normalization
    _report(4, "four-valued tables exact after a=0 normalization", ok)


def test_criterion_5_five_valued_families():
    ok = True
    for fid, p, n, params in [
        ("helleseth-5val", 2, 8, {}), ("helleseth-5val", 2, 12, {}),
        ("dobbertin-5val", 2, 4, {}), ("dobbertin-5val", 2, 12, {}),
        ("dfhr-s3", 2, 8, {}),                       # m = 4, d = 46, tau_4
        ("hkl-s4", 2, 4, {}), ("hkl-s4", 2, 8, {}),
        ("xia-ternary-5val", 3, 2, {}), ("xia-ternary-5val", 3, 6, {}),
        ("xia-ternary-5val", 3, 8, {}),
        ("helleseth-half", 5, 2, {"i": 0}), ("helleseth-half", 3, 4, {"i": 0}),
    ]:
        ok &= _verify(fid, p, n, params).passed
    for pair in ("2:1", "5:1", "5:3"):
        for n in (5, 7, 9):
            ok &= _verify("kasami-frac", 2, n, {"pair": pair, "t": 1}).passed
    ok &= families.get_family("dfhr-s3").decimation(2, 8, {}) == 46
    _report(5, "five-valued distributions and value-set bounds", ok)


def test_criterion_6_six_valued_families():
    ok = True
    # exact distribution plus the coset-decomposition cross-check
    ok &= _verify("th-h-1978", 2, 8, {}).passed
    ctx8 = gf.field_ctx(2, 8)
    ok &= _same(families.coset_spectrum_method(ctx8, 13, 5),
                spectra.class_record(ctx8, 13))
    # tau form and Kloosterman form at m = 3, 5
    for n in (6, 10):
        ok &= _verify("dfhr-s3-odd", 2, n, {}).passed
        ok &= _verify("dfhr-s3-odd-kloosterman", 2, n, {}).passed
    for m in (3, 5, 7):
        R = expsums.kloosterman_weighted_sum(m)
        ok &= R == -(2 ** m) * expsums.tau_value(m) + 2 ** (m + 1) + 1
    # cube-coset family, both f branches
    for p, n, i in ((2, 4, 1), (2, 4, 3), (5, 2, 1), (2, 6, 0)):
        ok &= _verify("helleseth-third", p, n, {"i": i}).passed
    f0 = ((2 ** 6 - 1) // 3) % 3
    ok &= f0 == 0  # the (2, 6, 0) instance exercises the f = 0 branch
    ctx52 = gf.field_ctx(5, 2)
    ok &= _same(families.coset_spectrum_method(ctx52, 13, 3),
                spectra.class_record(ctx52, 13))
    ok &= _verify("helleseth-2003", 3, 4, {}).passed
    _report(6, "six-valued distributions, coset method, R-link", ok)


def test_criterion_7_moment_identities():
    ok = True
    # sum of values = 1 on every computed spectrum of a dense sample
    for p, n in ((2, 6), (3, 3), (5, 2)):
        ctx = gf.field_ctx(p, n)
        for d in range(1, ctx.period):
            if gcd(d, ctx.period) == 1:
                ok &= spectra.power_sums(p, *spectra.class_record(ctx, d), 1)[1] == 1
    # shifted second moments and the l = 3 pair-count identity
    for p, n, d in ((2, 6, 5), (2, 8, 7), (3, 4, 11), (5, 2, 7)):
        ok &= spectra.moment_identity_check(gf.field_ctx(p, n), d)[1]
    # power moments l = 1..4 against brute-force tuple counts
    for p, nmax, picks in ((2, 8, (3, 5)), (3, 4, (5, 7))):
        for n in range(2, nmax + 1):
            ctx = gf.field_ctx(p, n)
            q = p ** n
            ds = [d for d in picks if gcd(d, q - 1) == 1][:2] or [1]
            for d in ds:
                rows, counts = spectra.class_record(ctx, d)
                rows[:, 0] += 1   # W = C + 1
                w_sums = spectra.power_sums(p, rows, counts, 4)
                for l in (1, 2, 3, 4):
                    N = spectra.solution_count_N(ctx, d, l)
                    ok &= w_sums[l] == (q * q * N - q ** l) // (q - 1)
    # b_3 closed form for d = 2^m + 3 over GF(2^(2m)).  The closed form
    # counts all pairs solving x1 + x2 = 1 = x1^d + x2^d; the power-moment
    # b_3 restricts to nonzero coordinates, which drops exactly the two
    # boundary pairs (0,1) and (1,0).
    for m in (2, 3, 4):
        ctx = gf.field_ctx(2, 2 * m)
        b3_nonzero = spectra.b3_count(ctx, 2 ** m + 3)
        ok &= b3_nonzero + 2 == 2 ** m + (-1) ** (m + 1) + 1
    _report(7, "power-moment identities and brute-force counts", ok)


def test_criterion_8_niho_identity():
    ok = True
    for p, ms, ss in ((2, (2, 3, 4, 5), (2, 3, 4)), (3, (1, 2), (2, 3))):
        for m in ms:
            ctx = gf.field_ctx(p, 2 * m)
            for s in ss:
                rep = niho.walsh_identity_report(ctx, s)
                ok &= rep["holds"]
    _report(8, "W(a) = (N(a)-1) p^m for every nonzero a on the grid", ok)


def test_criterion_9_open_problem_evidence():
    t0 = time.time()
    ok = True
    for n in range(2, 15):
        classes = list(search.canonical_classes(2, n))   # one stream, both checks
        ok &= search.check_minus_one(2, n, classes)[1]
        rep, holds = search.three_valued_completeness(2, n, classes)
        ok &= holds
        if n in (4, 8):
            ok &= rep["found"] == []
    for n in range(2, 8):
        ok &= search.check_minus_one(3, n, search.canonical_classes(3, n))[1]
    ok &= search.three_valued_completeness(3, 4, search.canonical_classes(3, 4))[0]["found"] == []
    for n, k in ((5, 2), (7, 2), (7, 3), (9, 2), (11, 3), (13, 5)):
        ok &= expsums.conjectured_sum_identities(n, k)["both_equal"]
    _report(9, "minus-one, completeness, and sum-identity evidence",
            ok, f"{time.time() - t0:.1f}s")


def test_criterion_10_code_weights_and_divisibility():
    ok = True
    for p, n, d in ((2, 5, 3), (2, 6, 5), (3, 3, 7)):
        ctx = gf.field_ctx(p, n)
        ok &= codes.weight_distribution_via_walsh(ctx, d).counts == \
            codes.weight_distribution_brute(ctx, d).counts
    for m in range(2, 11):
        table = expsums.kloosterman_all(gf.field_ctx(2, m))
        ok &= all(k % 4 == 0 for a, k in table.items() if a != 0)
    for m in range(2, 7):
        table = expsums.kloosterman_all(gf.field_ctx(3, m))
        ok &= all(v.as_integer() % 3 == 0 for a, v in table.items() if a != 0)
    _report(10, "code weights and Kloosterman divisibility", ok)


def test_criterion_11_performance():
    t0 = time.time()
    ctx20 = gf.FieldCtx(gf.find_primitive_polynomial(2, 20))
    record = spectra.class_record(ctx20, 7)
    t20 = time.time() - t0
    ok = t20 < 300
    ok &= record[1].sum() == 2 ** 20 - 1 and spectra.power_sums(2, *record, 1)[1] == 1
    del ctx20, record

    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "mseqcorr.cli", "spectrum", "--p", "2",
         "--n", "24", "--d", "11", "--threads", "8"],
        capture_output=True, text=True)
    t24 = time.time() - t0
    ok &= proc.returncode == 0 and t24 < 3600
    doc = json.loads(proc.stdout)
    ok &= sum(e["count"] for e in doc["entries"]) == 2 ** 24 - 1

    # the naive oracle refuses beyond desk scale
    try:
        spectra.class_record(gf.FieldCtx(gf.find_primitive_polynomial(2, 16)), 7, method="naive")
        naive_guard = False
    except Budget:
        naive_guard = True
    ok &= naive_guard
    _report(11, "n=20 and n=24 fast spectra within budget",
            ok, f"n20={t20:.1f}s n24={t24:.1f}s")
