"""CLI surface: subcommands, formats, exit codes, determinism."""

import hashlib
import json
import math
import multiprocessing
import os
import random
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from mseqcorr import cli, gf, lfsr, niho, search, spectra
from mseqcorr.cli import main
from mseqcorr.errors import Budget, OutOfDomain


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_spectrum_json(capsys):
    code, out, err = run_cli("spectrum", "--p", "2", "--n", "5", "--d", "3",
                             "--out", "json", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 2 and doc["n"] == 5 and doc["d"] == 3
    assert doc["entries"] == [
        {"count": 6, "value": -9},
        {"count": 15, "value": -1},
        {"count": 10, "value": 7},
    ]


def test_spectrum_deterministic_bytes(capsys):
    _, out1, _ = run_cli("spectrum", "--p", "3", "--n", "3", "--d", "7", capsys=capsys)
    _, out2, _ = run_cli("spectrum", "--p", "3", "--n", "3", "--d", "7",
                         "--threads", "4", capsys=capsys)
    assert out1 == out2


def test_spectrum_fraction_and_csv(capsys):
    code, out, _ = run_cli("spectrum", "--p", "2", "--n", "5", "--d", "9/5",
                           "--out", "csv", capsys=capsys)
    assert code == 0
    assert out.splitlines()[0] == "value,count"
    # 9/5 = 8 mod 31, a degenerate decimation
    assert "31,1" in out


def test_spectrum_method_naive(capsys):
    code, out, _ = run_cli("spectrum", "--p", "2", "--n", "6", "--d", "11",
                           "--method", "naive", capsys=capsys)
    assert code == 0
    assert json.loads(out)["method"] == "naive"


def test_usage_error_not_coprime(capsys):
    code, out, err = run_cli("spectrum", "--p", "2", "--n", "5", "--d", "0",
                             capsys=capsys)
    assert code == 2
    assert "coprime" in err


def test_usage_error_bad_flag(capsys):
    assert main(["spectrum", "--p", "2", "--n", "5"]) == 2  # missing --d


def test_field_command(capsys):
    code, out, _ = run_cli("field", "--p", "2", "--n", "4", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["modulus_coeffs"] == [1, 1, 0, 0]
    assert doc["period"] == 15


def test_seq_digits_and_raw(tmp_path, capsys):
    code, out, _ = run_cli("seq", "--p", "3", "--n", "2", capsys=capsys)
    assert code == 0
    assert out.strip() == "22021101"
    raw = tmp_path / "seq.bin"
    code, _, _ = run_cli("seq", "--p", "2", "--n", "3", "--format", "raw",
                         "--out-file", str(raw), capsys=capsys)
    assert code == 0
    data = raw.read_bytes()
    assert len(data) == 7 and set(data) <= {0, 1}


def test_seq_with_decimation(capsys):
    code, out, _ = run_cli("seq", "--p", "2", "--n", "3", "--d", "3", capsys=capsys)
    assert code == 0
    assert len(out.strip()) == 7


@pytest.mark.parametrize("p,n", [(2, 5), (3, 3), (5, 2), (7, 2), (11, 2), (13, 2)])
def test_seq_digits_match_the_literal_join(p, n, capsys):
    # p <= 9: one digit per symbol, no separator; p > 9: space-separated
    ctx = gf.field_ctx(p, n)
    d = next(d for d in range(2, ctx.period) if math.gcd(d, ctx.period) == 1)
    for extra in ([], ["--d", str(d)]):
        seq = lfsr.generate_trace(ctx)
        if extra:
            seq = lfsr.decimate(seq, d)
        literal = ("" if p <= 9 else " ").join(str(s) for s in seq.symbols)
        code, out, _ = run_cli("seq", "--p", str(p), "--n", str(n), *extra, capsys=capsys)
        assert code == 0 and out == literal + "\n", extra
    if p > 9:
        assert {"10", str(p - 1)} <= set(literal.split())


def test_verify_family_all_small(capsys):
    code, out, _ = run_cli("verify", "--family", "all", "--p", "2", "--n", "6",
                           capsys=capsys)
    assert code == 0
    verdicts = json.loads(out)
    assert verdicts and all(v["verdict"] == "pass" for v in verdicts)
    families_seen = {v["family"] for v in verdicts}
    assert "gold" in families_seen and "dfhr-s3-odd" in families_seen


def test_verify_single_family_params(capsys):
    code, out, _ = run_cli("verify", "--family", "gold", "--p", "2", "--n", "5",
                           "--params", "k=2", capsys=capsys)
    assert code == 0
    assert json.loads(out)[0]["d"] == 5


def test_verify_text_valued_params(capsys):
    """kasami-frac's `pair` is text in its candidates, so --params keeps it
    text; the one verdict is the one `--family all` gives for it."""
    code, out, _ = run_cli("verify", "--family", "kasami-frac", "--p", "2", "--n", "5",
                           "--params", "pair=5:1,t=1", capsys=capsys)
    assert code == 0
    verdicts = json.loads(out)
    code, out, _ = run_cli("verify", "--family", "all", "--p", "2", "--n", "5",
                           capsys=capsys)
    assert code == 0
    assert verdicts == [v for v in json.loads(out) if v["family"] == "kasami-frac"
                        and v["params"] == {"pair": "5:1", "t": 1}]


MOMENTS_GOLDEN = {
    ("2", "8", "7"): {
        "b3": 2, "d": 7, "n": 8, "p": 2,
        "power_moments": {"0": 256, "1": 256, "2": 65536, "3": 262144, "4": 56098816},
        "second_moment_shifted": [[47, True], [121, True], [187, True]],
        "second_moment_shifted_ok": True, "second_moment_t0_ok": True,
        "sum_values": 1, "sum_values_ok": True, "third_moment_vs_b3_ok": True},
    ("3", "4", "11"): {
        "b3": 7, "d": 11, "n": 4, "p": 3,
        "power_moments": {"0": 81, "1": 81, "2": 6561, "3": 59049, "4": 1476225},
        "second_moment_shifted": [[24, True], [61, True], [75, True]],
        "second_moment_shifted_ok": True, "second_moment_t0_ok": True,
        "sum_values": 1, "sum_values_ok": True, "third_moment_vs_b3_ok": True},
    ("5", "3", "3"): {
        "b3": 0, "d": 3, "n": 3, "p": 5,
        "power_moments": {"0": 125, "1": 125, "2": 15625, "3": 31250, "4": 3890625},
        "second_moment_shifted": [[24, True], [61, True], [94, True]],
        "second_moment_shifted_ok": True, "second_moment_t0_ok": True,
        "sum_values": 1, "sum_values_ok": True, "third_moment_vs_b3_ok": True},
    ("7", "2", "5"): {
        "b3": 2, "d": 5, "n": 2, "p": 7,
        "power_moments": {"0": 49, "1": 49, "2": 2401, "3": 9604, "4": 338541},
        "second_moment_shifted": [[12, True], [31, True], [47, True]],
        "second_moment_shifted_ok": True, "second_moment_t0_ok": True,
        "sum_values": 1, "sum_values_ok": True, "third_moment_vs_b3_ok": True},
    ("13", "2", "5"): {
        "b3": 2, "d": 5, "n": 2, "p": 13,
        "power_moments": {"0": 169, "1": 169, "2": 28561, "3": 114244, "4": 14309061},
        "second_moment_shifted": [[47, True], [121, True], [149, True]],
        "second_moment_shifted_ok": True, "second_moment_t0_ok": True,
        "sum_values": 1, "sum_values_ok": True, "third_moment_vs_b3_ok": True},
}


@pytest.mark.parametrize("p,n,d", sorted(MOMENTS_GOLDEN))
def test_moments_golden_bytes(p, n, d, capsys):
    code, out, err = run_cli("moments", "--p", p, "--n", n, "--d", d, capsys=capsys)
    assert code == 0 and err == ""
    assert out == json.dumps(MOMENTS_GOLDEN[p, n, d], sort_keys=True, indent=2) + "\n"


def test_moments_at_each_primes_largest_field(capsys):
    # the largest p^n <= MOMENT_CHECK_MAX_ORDER of each prime, where the
    # int64 sums of the shifted second moments come nearest their bound
    rng = random.Random(1)
    for p, n in ((2, 16), (3, 10), (5, 6), (7, 5), (11, 4), (13, 4)):
        assert p ** n <= spectra.MOMENT_CHECK_MAX_ORDER < p ** (n + 1)
        L = p ** n - 1
        d = rng.randrange(2, L)
        while math.gcd(d, L) != 1:
            d = rng.randrange(2, L)
        code, out, err = run_cli("moments", "--p", str(p), "--n", str(n), "--d", str(d),
                                 capsys=capsys)
        doc = json.loads(out)
        assert (code, err) == (0, ""), (p, n, d)
        assert doc["power_moments"]["1"] == p ** n and doc["sum_values"] == 1, (p, n, d)


# sha256 of the stdout of `verify --family all` at every (p, n) with
# p = 2, n <= 12; p = 3, n <= 6; p = 5, n <= 4; p = 7, n <= 3; p = 11, 13,
# n <= 2: every catalog instance there, its predicted and computed tables
VERIFY_ALL_SHA256 = {
    (2, 1): "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    (2, 2): "8d5b45c96828ec5b90f86d0e98c2903bda3e6405477c5954963030f9344d677f",
    (2, 3): "8b423b6a730820da5bcfcee17c89d84fe288ad6204c8db331e9b99514172cb9c",
    (2, 4): "1de7061b2d5a157b137758993595a6f35fda10b88d78df5eb347ec86f02a4c6b",
    (2, 5): "c691b9973aa8ecc65d259a290c1aed3825d169fee165315c3e42a8ec600ac2d7",
    (2, 6): "aa4015ff26c21272b09bed30a438c284c450123a1988d20cdfdb24fd2c606484",
    (2, 7): "0c4f50805b5c22802ebbf942079e7e9067082dc3585baaea304583ea2eefc9cb",
    (2, 8): "6fba07e806ff39d044733cf8becd96480a7da023fa963e39cd7a9c95cf2f3091",
    (2, 9): "383fdf075a5c2b5a23c82824e0e44de6f5272ee37ce5b88c26b9fb8e8a2ecc30",
    (2, 10): "a97a940c43dc6288ee417b8a6a85c88563b12aae407d114f05c72f0f8bcf3aa1",
    (2, 11): "7403790863e8bbd22addbfde179f87844137618f11bd8e52af581837408df856",
    (2, 12): "2a639b584aade8af8da6b7aff735ad96aaf6096527437d63621118665d9b3315",
    (3, 1): "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    (3, 2): "030706e71c97c9f515eefb47e876fa2962e72801fdd80c53328ee6302487ab50",
    (3, 3): "ef034b335787cad17821de9a0f43a23dab6926ebf8c67b7380153f8623d50396",
    (3, 4): "324917641902ba501e81bfa33c6d06eda1a3c2d4ad5bed8bff2506b2e0ea3108",
    (3, 5): "f5099b604baca42e44c5b31670826df6d4ac7101bf3d51588822be885d1b7e8b",
    (3, 6): "4caa988dc8084aa5921f83853a025b922ba247eaa7fd52d709f6ea926d0a8850",
    (5, 1): "0ff641a8830e3dcc5c1c2a02df9a13a07c77857f95ce24792868dbb6112b7fbb",
    (5, 2): "23599b9afabfa33b6d4889a69e279bcaa59dd7dd9b7b277f996a8328e1b19310",
    (5, 3): "a1adb7596b3e5e49f76e89f406797fda86e991f8fcc798c2b1aabaeec477e5f7",
    (5, 4): "4b2299685f3bcb67de30060a4a845e0e51564a2543a5df7b21b0f7508c2859f4",
    (7, 1): "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    (7, 2): "65591b8920cd4e45e3aa192b428caa57bdbc0d6d333208d3ac661942b262df9e",
    (7, 3): "dad33d4344e47fcb1fa759936d96e02ebd0866c65bedbd3993d45c553c6b01a3",
    (11, 1): "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    (11, 2): "dd82837f274452055bce82ab72bdb39e21d320229985fbd74b92884350742ab6",
    (13, 1): "6f180943dfaaaa9979a9271aab82f149410b5e6ac560bdca89c63be2bda9ca79",
    (13, 2): "e95f2df12758a0efcef9ad55ca3fe448bd1a7601d542d4ba526f7ce25c086dc5",
}


@pytest.mark.parametrize("p,n", sorted(VERIFY_ALL_SHA256))
def test_verify_all_golden_bytes(p, n, capsys):
    code, out, err = run_cli("verify", "--family", "all", "--p", str(p), "--n", str(n),
                             capsys=capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256[p, n]


def test_niho_command(capsys):
    code, out, _ = run_cli("niho", "--p", "2", "--m", "4", "--s", "2",
                           "--check-identity", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["value_set"] == [-16, 0, 16, 32]
    assert doc["identity_holds"] is True


def test_niho_counts_unit_roots_once(monkeypatch, capsys):
    # the histogram, the value set and the identity check read one count
    calls = []
    count = niho.count_unit_roots
    monkeypatch.setattr(niho, "count_unit_roots", lambda *a: (calls.append(a), count(*a))[1])
    argv = ["niho", "--p", "3", "--m", "3", "--s", "11"]
    code, checked, _ = run_cli(*argv, "--check-identity", capsys=capsys)
    assert code == 0 and len(calls) == 1
    code, plain, _ = run_cli(*argv, capsys=capsys)
    assert code == 0 and len(calls) == 2
    doc = json.loads(checked)
    assert doc.pop("identity_holds") is True and doc == json.loads(plain)


def test_expsum_commands(capsys):
    code, out, _ = run_cli("expsum", "--kind", "kloosterman", "--p", "2",
                           "--m", "3", "--a-zero", capsys=capsys)
    assert code == 0 and json.loads(out)["value"] == 0
    code, out, _ = run_cli("expsum", "--kind", "r", "--m", "3", capsys=capsys)
    assert code == 0 and json.loads(out)["value"] == 28
    code, out, _ = run_cli("expsum", "--kind", "op6", "--n", "5", "--k", "2",
                           capsys=capsys)
    assert code == 0 and json.loads(out)["both_equal"] is True
    code, out, _ = run_cli("expsum", "--kind", "cubic", "--n", "5",
                           "--b-zero", "--a-log", "3", capsys=capsys)
    assert code == 0 and json.loads(out)["value"] == 0


def test_code_weights_command(capsys):
    code, out, _ = run_cli("code-weights", "--p", "2", "--n", "5", "--d", "3",
                           capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["weights"] == [
        {"count": 1, "w": 0}, {"count": 310, "w": 12},
        {"count": 527, "w": 16}, {"count": 186, "w": 20}]


# sha256 of the stdout of `classify`, `conjecture --check minus-one` and
# `conjecture --check three-valued` with --max-n n, all on one cache
# directory: cold classify, then warm classify (the same bytes), then the two
# checks.  At p = 5, 7 and 13 the classify reports list non-rational values,
# so the order of values (integers ascending, then coordinate tuples) is pinned.
CLASSIFY_SHA256 = {
    (2, 10): ("6d281436dd93676b450727d73f12e7db0659b89959c06656533ec17a9479fecf",
              "6d8279d6232392fe6e322a4ad524371ad2733b5b1b07ff111aedae3ef0017757",
              "4a25ab79fb96f7eb4b9cc2d0ed592da516c9a811e9c1975bba60bb954eae3371"),
    (3, 6): ("e7d0cef9f555c58771e5773c58747049a845bee06acd19df5df867e04304a85e",
             "9120619d1ccb9ef8b5bb96ba416ec3c58fc76d0c500d3cd40c8eb32e693b30b0",
             "ed26a98c7ed599e1effe169797bbf76dbe5466ebae6618c142c8b46db2f0232c"),
    (5, 4): ("beb8eadfe66ee33452267ff4106b80d3c357ed37997f47f9440ced484f37bf8e",
             "430115dd8f1a7f57816b6a2138ac37cd927dea64b0cba615d4fb8744b41329fc",
             "d07590dfe40f8808b50c35490973db72c165bb5d8061ba5700907980afab1745"),
    (7, 3): ("e8441ed2398ae7d44651950aa463706e48732b18b31bd57bfc3512541f957ac0",
             "18b1d2a27b0c01774d87b25ca404f3161b80d1c4a7b647971678f820dae47524",
             "e2b87e5df81f221f7c2bc4f92e36d7e3ef51f011d737271ed1a6c8b941c44406"),
    (11, 2): ("685bbe74e77f0c1f9b2a97cf5c08cb48e8048bbc8c7035c78da88488dc324a39",
              "5df31f6c518fdb19f172c2f1524e1146ee173ebd17f47f0e2f8efb249b40639e",
              "73d6f8d7eb80dd40f6b99cddac813e3e77d15a02f1cced10f9b7479e57a06f50"),
    (13, 2): ("bbadf0c7dc15c5f3d186ca99b800a4a3952912d6783bea8f35258f1e96722ff0",
              "3fb91a73c59fba1d6a06a4a848ec74d9a968063ffa29c558647b66bf999175ee",
              "f14c0792f439a71ea3d7b1c1613e3d392e44d9f25c30991425d13e53030c86b5"),
}


@pytest.mark.parametrize("p,n", sorted(CLASSIFY_SHA256))
def test_classify_golden_bytes(p, n, tmp_path, capsys):
    grid = ("--p", str(p), "--max-n", str(n), "--cache-dir", str(tmp_path))
    runs = [run_cli("classify", *grid, capsys=capsys),
            run_cli("classify", *grid, capsys=capsys),
            run_cli("conjecture", "--check", "minus-one", *grid, capsys=capsys),
            run_cli("conjecture", "--check", "three-valued", *grid, capsys=capsys)]
    assert [(code, err) for code, _, err in runs] == [(0, "")] * 4
    digests = [hashlib.sha256(out.encode()).hexdigest() for _, out, _ in runs]
    classify, minus_one, three_valued = CLASSIFY_SHA256[p, n]
    assert digests == [classify, classify, minus_one, three_valued]


@pytest.mark.parametrize("p,n", sorted(CLASSIFY_SHA256))
def test_classify_golden_bytes_on_a_pool(p, n, tmp_path, monkeypatch, capsys):
    # with the block rule at 2^6 elements every field with that much
    # missing work runs on a fork pool of two processes: the same bytes,
    # cold and warm, and no process left
    monkeypatch.setattr(gf, "_PARALLEL_MIN", 2 ** 6)
    grid = ("--p", str(p), "--max-n", str(n), "--cache-dir", str(tmp_path), "--threads", "2")
    runs = [run_cli("classify", *grid, capsys=capsys),
            run_cli("classify", *grid, capsys=capsys)]
    shutil.rmtree(tmp_path)
    runs += [run_cli("conjecture", "--check", "minus-one", *grid, capsys=capsys),
             run_cli("conjecture", "--check", "three-valued", *grid, capsys=capsys)]
    assert [(code, err) for code, _, err in runs] == [(0, "")] * 4
    digests = [hashlib.sha256(out.encode()).hexdigest() for _, out, _ in runs]
    classify, minus_one, three_valued = CLASSIFY_SHA256[p, n]
    assert digests == [classify, classify, minus_one, three_valued]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command", [("classify",), ("conjecture", "--check", "minus-one")])
def test_threads_1_makes_no_block_pool(command, tmp_path, monkeypatch, capsys):
    # with the block rule at 2^6 elements every pass at (2,10) is big enough
    # to run in blocks, but --threads 1 holds them to the calling thread
    monkeypatch.setattr(gf, "_PARALLEL_MIN", 2 ** 6)
    pools = []
    pool = gf._pool
    monkeypatch.setattr(gf, "_pool", lambda threads: (pools.append(threads), pool(threads))[1])
    code, _, err = run_cli(*command, "--p", "2", "--n", "10", "--cache-dir", str(tmp_path),
                           "--threads", "1", capsys=capsys)
    assert (code, err) == (0, "")
    assert pools == []


# The child prints its own peak RSS in kB (Linux `ru_maxrss`) to stderr.
PEAK_RSS_CHILD = """\
import resource, sys
from mseqcorr.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""


def test_classify_streams_a_large_document():
    # (7,5) prints 114 MB; written whole from one string it peaked at 289 MB,
    # streamed it peaks near 50 MB, the rows and one class's text
    proc = subprocess.Popen(
        [sys.executable, "-c", PEAK_RSS_CHILD, "classify", "--p", "7", "--n", "5",
         "--threads", "1", "--cache-dir", ""],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    digest = hashlib.sha256()
    while chunk := proc.stdout.read(2 ** 20):
        digest.update(chunk)
    _, err = proc.communicate()
    assert proc.returncode == 0, err
    assert digest.hexdigest() == \
        "c8d6f33ab28dd1da642a84046724851b9c2053388e1c93a865586ac6a5a66fe6"
    assert int(err) < 120 * 1024, f"peak RSS {int(err) / 1024:.0f} MB"


def test_binary_spectrum_peak_rss():
    # at (2,24) the int32 transform output, 64 MB, is the only field-sized
    # array `spectrum` makes: no exp table (64 MB, which read 173 MB here)
    # and no m-sequence
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, "spectrum", "--p", "2", "--n", "24",
         "--d", "12345679"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("{")
    assert int(proc.stderr) < 130 * 1024, f"peak RSS {int(proc.stderr) / 1024:.0f} MB"


def _cached_reps(directory):
    """The d of every record file in a spectrum cache directory, in the
    order they were appended: each file's d ascend from its first."""
    files = []
    for path in directory.glob("*.npz"):
        with np.load(path) as arrays:
            files.append(arrays["d"].tolist())
    return [d for f in sorted(files) for d in f]


def test_classify_with_cache(tmp_path, capsys):
    args = ("classify", "--p", "2", "--n", "6", "--cache-dir", str(tmp_path))
    code, out1, _ = run_cli(*args, capsys=capsys)
    assert code == 0
    assert _cached_reps(tmp_path / "spectra_p2_n6") == \
           [rep for rep, _ in search.class_partition(2, 6)]
    code, out2, _ = run_cli(*args, capsys=capsys)
    assert out1 == out2  # cache reuse is byte-identical


def test_stale_jsonl_cache_is_ignored(tmp_path, capsys):
    # a JSON-lines file of the earlier format, with a valid line and a torn
    # one, is neither read nor changed, and the output is that of no cache
    args = ["classify", "--p", "2", "--n", "6"]
    code, fresh, _ = run_cli(*args, capsys=capsys)
    rep = search.class_partition(2, 6)[0][0]
    rows, counts = spectra.class_record(gf.field_ctx(2, 6), rep)
    line = json.dumps({"p": 2, "n": 6, "d": rep, "version": 2,
                       "modulus": list(gf.find_primitive_polynomial(2, 6).coeffs),
                       "rows": rows.tolist(), "counts": counts.tolist()}, sort_keys=True)
    stale = tmp_path / "spectra_p2_n6.jsonl"
    stale.write_text(line + "\n{\"torn")
    code, out, err = run_cli(*args, "--cache-dir", str(tmp_path), capsys=capsys)
    assert (code, out, err) == (0, fresh, "")
    assert stale.read_text() == line + "\n{\"torn"
    assert _cached_reps(tmp_path / "spectra_p2_n6") == \
           [rep for rep, _ in search.class_partition(2, 6)]


def test_classify_recovers_from_truncated_cache(tmp_path, capsys):
    args = ("classify", "--p", "2", "--n", "6", "--cache-dir", str(tmp_path))
    code, fresh, _ = run_cli(*args, capsys=capsys)
    [path] = (tmp_path / "spectra_p2_n6").iterdir()
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - 40])   # cut the end of the file
    code, out, err = run_cli(*args, capsys=capsys)
    assert code == 0 and out == fresh
    assert err.count("deleted 1 invalid file") == 1
    # the file was deleted and written again whole, so the next run reuses
    # every record and reports nothing
    reps = [rep for rep, _ in search.class_partition(2, 6)]
    assert len(search.SpectrumCache(str(tmp_path)).load(
        2, 6, gf.find_primitive_polynomial(2, 6).coeffs)) == len(reps)
    code, out, err = run_cli(*args, capsys=capsys)
    assert code == 0 and out == fresh and err == ""
    assert list((tmp_path / "spectra_p2_n6").iterdir()) == [path]   # no temp file left
    assert _cached_reps(path.parent) == reps

    path.write_bytes(b"not a zip")   # the same with a file that is no zip
    code, out, err = run_cli(*args, capsys=capsys)
    assert code == 0 and out == fresh and err.count("deleted 1 invalid file") == 1
    assert list((tmp_path / "spectra_p2_n6").iterdir()) == [path]
    assert _cached_reps(path.parent) == reps


def test_stopped_classify_resumes_from_its_appends(tmp_path, monkeypatch, capsys):
    # (2,14) has 379 classes.  A run stopped at the 200th computed class
    # keeps the three appends of 64 before it; the next run computes only
    # the other 187 and prints the bytes of a run with no cache.
    args = ["classify", "--p", "2", "--n", "14"]
    code, fresh, _ = run_cli(*args, capsys=capsys)
    assert code == 0
    reps = [rep for rep, _ in search.class_partition(2, 14)]
    assert len(reps) == 379 and search._APPEND_EVERY == 64
    record, calls = search.class_record, []

    def stopped(ctx, d):
        calls.append(d)
        if len(calls) == 200:
            raise KeyboardInterrupt
        return record(ctx, d)

    monkeypatch.setattr(search, "class_record", stopped)
    args += ["--cache-dir", str(tmp_path), "--threads", "1"]   # counted in this process
    with pytest.raises(KeyboardInterrupt):
        main(args)
    assert capsys.readouterr().out == ""
    path = tmp_path / "spectra_p2_n14"
    assert _cached_reps(path) == reps[:192]
    assert len(list(path.iterdir())) == 3

    def counted(ctx, d):
        calls.append(d)
        return record(ctx, d)

    calls.clear()
    monkeypatch.setattr(search, "class_record", counted)
    code, out, err = run_cli(*args, capsys=capsys)
    assert (code, err) == (0, "") and out == fresh
    assert calls == reps[192:] and len(calls) == 187
    assert _cached_reps(path) == reps


def test_minus_one_ignores_tampered_cache(tmp_path, capsys):
    args = ("conjecture", "--check", "minus-one", "--p", "2", "--n", "7",
            "--cache-dir", str(tmp_path))
    code, fresh, _ = run_cli(*args, capsys=capsys)
    assert code == 0
    [path] = (tmp_path / "spectra_p2_n7").iterdir()
    with np.load(path) as stored:
        arrays = dict(stored)
    minus_one = arrays["rows"][:, 0] == -1
    assert minus_one.sum() == len(arrays["d"])   # the row of the value -1, once a class
    arrays["rows"][minus_one, 0] = 3
    np.savez(path, **arrays)
    code, out, err = run_cli(*args, capsys=capsys)
    assert code == 0 and out == fresh
    assert json.loads(out)[0]["counterexamples"] == []
    assert "deleted 1 invalid file" in err


def _assert_usage_error(argv, capsys):
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "Traceback" not in err
    return err


@pytest.mark.parametrize("argv", [
    "niho --p 2 --m 0 --s 2",
    "expsum --kind kloosterman --p 2 --m 0",
    "expsum --kind kloosterman --p 2",
    "expsum --kind cubic --n 0",
    "classify --p 2 --n -3",
    "field --p 2 --n 0",
])
def test_degree_below_one_is_usage_error(argv, capsys):
    _assert_usage_error(argv.split(), capsys)


# an off-domain instance names the family and its first unmet condition
DOMAIN_ERRORS = {
    "verify --family gold --p 3 --n 5 --params k=1": "gold needs p = 2",
    "verify --family niho-4val-unified --p 2 --n 8 --params r=4,sign=1":
        "niho-4val-unified needs v2(r) < v2(m)",
    "verify --family niho-4val-unified --p 2 --n 8 --params sign=1":
        "niho-4val-unified needs r >= 1",   # a missing key, not a KeyError
    "verify --family katz-langevin --p 3 --n 5 --params k=-1":
        "katz-langevin needs k >= 1",   # n | 4k - 1 holds at k = -1, n = 5
    "spectrum --p 2 --n 5 --d 3 --threads 0": "threads must be at least 1, not 0",
    "verify --family gold --p 2 --n 5 --params k3": "bad --params item 'k3'; expected key=value",
    "moments --p 2 --n 17 --d 5": "Budget: moment identity check is grid-bounded",
}


@pytest.mark.parametrize("argv", [
    "verify --family nosuch --p 2 --n 5",
    "field --p 2 --n 4 --modulus-file {tmp}/missing.txt",
    "seq --p 2 --n 3 --out-file {tmp}/missing/x",
    "classify --p 2 --n 4 --cache-dir {tmp}/file/x",
    "spectrum --p 2 --n 5 --d abc",
    "verify --family gold --p 2 --n 5 --params k=x",
    "classify --p 2 --n 25",
    "classify --p 2 --max-n 30",
    "classify --p 2 --max-n 1",
    "conjecture --check three-valued --p 3 --n 16",
    "expsum --kind cubic --p 3 --n 3",
    "expsum --kind g --p 5 --n 2",
    "spectrum --p 17 --n 2 --d 5",
    "verify --family all --p 2 --n 5 --params k=2",
    "verify --family gold --p 2 --n 5 --params k=1,x=2",
    "verify --family kasami-frac --p 2 --n 5 --params pair=4:1,t=1",
    "verify --family gold --p 3 --n 5 --params k=1",
    "verify --family niho-4val-unified --p 2 --n 8 --params r=4,sign=1",
    "verify --family niho-4val-unified --p 2 --n 8 --params sign=1",
    "verify --family katz-langevin --p 3 --n 5 --params k=-1",
    "classify --p 2 --n 3 --max-n 4",
    "conjecture --check minus-one --p 2 --n 3 --max-n 4",
    "classify --p 2 --n 4 --threads 0",
    "classify --p 2 --max-n 4 --threads -3",
    "conjecture --check minus-one --p 2 --n 4 --threads 0",
    "conjecture --check three-valued --p 2 --n 4 --threads -3",
    "spectrum --p 2 --n 5 --d 3 --threads 0",
    # conjecture runs over (p, n) only: no op6, no --k, no default p
    "conjecture --check op6 --n 7 --k 3",
    "conjecture --check minus-one --p 2 --n 6 --k 3",
    "conjecture --check minus-one --n 6",
    # an expsum option the kind does not read
    "expsum --kind r --m 3 --p 3 --n 9",
    "expsum --kind kloosterman --p 2 --m 3 --n 5 --b-log 4",
    "verify --family gold --p 2 --n 5 --params k3",
    "moments --p 2 --n 17 --d 5",
])
def test_usage_errors_exit_2(argv, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    err = _assert_usage_error(argv.format(tmp=tmp_path).split(), capsys)
    assert DOMAIN_ERRORS.get(argv, "") in err


# each is rejected before the cache directory is made, with the message the
# class stream or the field build gives
REJECTED_RUNS = {
    "classify --p 2 --n 4 --threads 0": "threads must be at least 1, not 0",
    "conjecture --check minus-one --p 2 --n 4 --threads -3": "threads must be at least 1, not -3",
    "classify --p 4 --n 3": "p=4 is not a supported prime (2, 3, 5, 7, 11, 13)",
    "conjecture --check three-valued --p 17 --n 2":
        "p=17 is not a supported prime (2, 3, 5, 7, 11, 13)",
    "classify --p 1 --max-n 3": "p=1 is not a supported prime (2, 3, 5, 7, 11, 13)",
    "classify --p 2 --n -3": "n=-3: the extension degree must be >= 1",
}


@pytest.mark.parametrize("argv", REJECTED_RUNS)
def test_rejected_run_makes_no_cache_dir(argv, tmp_path, capsys):
    err = _assert_usage_error(argv.split() + ["--cache-dir", str(tmp_path / "new")], capsys)
    assert REJECTED_RUNS[argv] in err
    assert not (tmp_path / "new").exists()


# each would compute with the huge integer before any bound; each must stop
# at a bound at once
HUGE_INTEGERS = [
    "field --p 2 --n 20000",
    "niho --p 2 --m 10000 --s 2",
    "spectrum --p 13 --n 100000000 --d 5",
    "classify --p 2 --max-n 1000000000",
    "conjecture --check minus-one --p 3 --n 1000000000",
    "verify --family trachtenberg-half --p 13 --n 3 --params k=3000001",
    "verify --family gold --p 2 --n 5 --params k=-5000",
    "verify --family gold --p 2 --n 5 --params k=" + "1" * 5000,
    "spectrum --p 2 --n 5 --d " + "7" * 5000,
]


@pytest.mark.parametrize("argv", HUGE_INTEGERS)
def test_huge_integers_fail_fast(argv, capsys):
    t0 = time.perf_counter()
    err = _assert_usage_error(argv.split(), capsys)
    assert time.perf_counter() - t0 < 1.0
    assert err.startswith("usage error: Budget:")


@pytest.mark.parametrize("exc", [ValueError, KeyError])
def test_internal_error_exits_3(exc, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise exc("a bug inside the library")

    # the spectrum command reads its record from the transform
    monkeypatch.setattr(spectra, "walsh_fast", broken)
    code, out, err = run_cli("spectrum", "--p", "2", "--n", "5", "--d", "3",
                             capsys=capsys)
    assert code == 3 and out == ""
    assert "Traceback" in err and exc.__name__ in err
    assert "usage error" not in err


@pytest.mark.parametrize("exc", [Budget, OutOfDomain])
def test_pool_worker_usage_error_exits_2(exc, monkeypatch, capsys):
    # an error raised in a pool's process reaches the CLI with its type
    monkeypatch.setattr(gf, "_PARALLEL_MIN", 2 ** 6)
    record, parent = search.class_record, os.getpid()

    def failing(ctx, d):
        if d == 7:
            raise exc(f"class {d} in a forked process: {os.getpid() != parent}")
        return record(ctx, d)

    monkeypatch.setattr(search, "class_record", failing)
    code, out, err = run_cli("classify", "--p", "2", "--n", "8", "--threads", "2",
                             capsys=capsys)
    assert (code, out) == (2, "")
    assert err == f"usage error: {exc.__name__}: class 7 in a forked process: True\n"
    assert multiprocessing.active_children() == []


def test_broken_pool_exits_3(monkeypatch, capsys):
    # a pool's process that dies breaks the pool: an internal error
    monkeypatch.setattr(gf, "_PARALLEL_MIN", 2 ** 6)
    parent = os.getpid()

    def dying(ctx, d):
        assert os.getpid() != parent   # never in the test's own process
        os._exit(1)

    monkeypatch.setattr(search, "class_record", dying)
    code, out, err = run_cli("classify", "--p", "2", "--n", "8", "--threads", "2",
                             capsys=capsys)
    assert (code, out) == (3, "")
    assert "BrokenProcessPool" in err and "internal error" in err
    assert multiprocessing.active_children() == []


def test_classify_needs_n(capsys):
    code, _, err = run_cli("classify", "--p", "2", capsys=capsys)
    assert code == 2


def test_conjecture_minus_one(capsys):
    code, out, _ = run_cli("conjecture", "--check", "minus-one", "--p", "2",
                           "--max-n", "6", capsys=capsys)
    assert code == 0
    docs = json.loads(out)
    assert all(doc["holds"] for doc in docs)


def test_conjecture_three_valued(capsys):
    code, out, _ = run_cli("conjecture", "--check", "three-valued", "--p", "3",
                           "--n", "4", capsys=capsys)
    assert code == 0
    assert json.loads(out)[0]["found"] == []


# each command and the reducer of `search` it runs over one class stream
REDUCERS = {"classify": search.classify_by_value_count,
            "conjecture --check minus-one": search.check_minus_one,
            "conjecture --check three-valued": search.three_valued_completeness}


@pytest.mark.parametrize("p,n", [(2, 8), (3, 5), (5, 3)])
def test_reducers_over_one_stream_give_the_printed_reports(p, n, capsys):
    classes = list(search.canonical_classes(p, n))
    for command, reduce in REDUCERS.items():
        code, out, _ = run_cli(*command.split(), "--p", str(p), "--n", str(n), capsys=capsys)
        report, holds = reduce(p, n, classes)
        assert (code, out) == (0 if holds else 1, _emitted([report], capsys)), command


@pytest.mark.parametrize("command", REDUCERS)
def test_one_class_stream_per_degree(command, monkeypatch, capsys):
    calls = []
    stream = search.canonical_classes
    monkeypatch.setattr(search, "canonical_classes",
                        lambda p, n, **kw: (calls.append((p, n)), stream(p, n, **kw))[1])
    code, out, _ = run_cli(*command.split(), "--p", "3", "--max-n", "5", capsys=capsys)
    assert code == 0 and len(json.loads(out)) == 4
    assert calls == [(3, 2), (3, 3), (3, 4), (3, 5)]


def test_conjecture_finding_exits_1(monkeypatch, capsys):
    # with no catalog prediction every three-valued class is unexplained
    monkeypatch.setattr(search.families, "three_valued_decimations", lambda p, n: [])
    code, out, _ = run_cli("conjecture", "--check", "three-valued", "--p", "2",
                           "--max-n", "5", capsys=capsys)
    docs = json.loads(out)
    assert code == 1 and [doc["exact_match"] for doc in docs] == [True, False, True, False]
    assert docs[-1]["unexplained"] == docs[-1]["found"] == [3, 5]


def test_minus_one_counterexample_exits_1(monkeypatch, capsys):
    # of two crafted classes the one whose record lacks -1 is listed, and
    # the check does not hold
    def crafted(rep, values):
        rows = np.array([[v] for v in values], dtype=np.int32)
        return search.DecimationClass(rep, (rep,), rows, np.ones(len(values), dtype=np.int64))

    classes = [crafted(7, [-5, -1, 3]), crafted(11, [-5, 3])]
    monkeypatch.setattr(search, "canonical_classes", lambda p, n, **kw: iter(classes))
    code, out, _ = run_cli("conjecture", "--check", "minus-one", "--p", "2", "--n", "4",
                           capsys=capsys)
    assert code == 1
    assert json.loads(out) == [{"check": "minus-one", "p": 2, "n": 4, "holds": False,
                                "checked_classes": 2, "counterexamples": [11]}]


def test_modulus_file_flag(tmp_path, capsys):
    path = tmp_path / "mods.txt"
    path.write_text("2 6 1 0 0 0 0 1\n")
    code, out, _ = run_cli("field", "--p", "2", "--n", "6",
                           "--modulus-file", str(path), capsys=capsys)
    assert code == 0
    assert json.loads(out)["modulus_coeffs"] == [1, 0, 0, 0, 0, 1]


@pytest.mark.parametrize("line,message", [
    ("2 5 1 0 x 0 1", "expected 'p n c_0 ... c_(n-1)' in decimal"),   # not a decimal token
    ("2 5", "expected 'p n c_0 ... c_(n-1)' in decimal"),             # fewer than three numbers
    ("2 5 1 0 1", "5 coefficients expected"),
])
def test_malformed_modulus_file_line_exits_2(line, message, tmp_path, capsys):
    path = tmp_path / "mods.txt"
    path.write_text(f"# a comment line\n{line}\n")
    err = _assert_usage_error(["spectrum", "--p", "2", "--n", "5", "--d", "3",
                               "--modulus-file", str(path)], capsys)
    assert err == f"usage error: OutOfDomain: {path}:2: {message}\n"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mseqcorr.cli", "spectrum", "--p", "2",
         "--n", "5", "--d", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["d"] == 3


# Keys and strings that need escapes or are not ASCII.
JSON_TEXTS = ["", "p", "value", 'quote"d', "back\\slash", "tab\tnew\nline", "\x00\x1f\x7f",
              "/", "é", "日本", "\U0001f600", "\u2028", "\ud800"]


def _random_json(rng, depth):
    """A random document of the types the CLI emits, with some floats and
    int keys for the json.dumps fallback."""
    kind = rng.randrange(12 if depth < 6 else 7)
    if kind == 0:
        return rng.randrange(-10 ** 3, 10 ** 3)
    if kind == 1:
        return rng.choice((-1, 1)) * rng.randrange(2 ** 63 - 2, 2 ** 100)
    if kind == 2:
        return rng.choice((True, False, None))
    if kind == 3:
        return rng.choice(JSON_TEXTS)
    if kind == 4:
        return rng.choice((0.5, -0.0, 1e300, float("inf"), float("nan")))
    if kind == 5:
        return [rng.randrange(-5, 5) for _ in range(rng.randrange(5))]
    if kind == 6:
        return rng.choice(([], {}, (), [[]], {"": {}}))
    size = rng.randrange(1, 5)
    if kind in (7, 8):
        return [_random_json(rng, depth + 1) for _ in range(size)]
    if kind == 9:
        return tuple(_random_json(rng, depth + 1) for _ in range(size))
    if kind == 10:
        return {rng.randrange(-9, 9): _random_json(rng, depth + 1) for _ in range(size)}
    return {rng.choice(JSON_TEXTS): _random_json(rng, depth + 1) for _ in range(size)}


def _emitted(obj, capsys):
    cli._emit(obj)
    out, err = capsys.readouterr()
    assert err == ""
    return out


def test_emit_matches_json_dumps_on_random_documents(capsys):
    rng = random.Random(13)
    docs = [_random_json(rng, 0) for _ in range(400)]
    deep = 1
    for i in range(60):   # deep nesting, lists and dicts in turn
        deep = [deep, True] if i % 2 else {"k\u00e9": deep, "a": None}
    docs += [deep, [], {}, True, False, None, -1, 2 ** 64, "\n"]
    kinds = set()
    for doc in docs:
        kinds.add(type(doc))
        assert _emitted(doc, capsys) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert kinds >= {dict, list, tuple, int, str, bool, type(None), float}


# one invocation of every subcommand that prints JSON
EMITTING_ARGV = [
    "field --p 2 --n 4",
    "spectrum --p 3 --n 3 --d 7",
    "spectrum --p 5 --n 2 --d 7 --method naive",
    "spectrum --p 7 --n 6 --d 8273",   # 12110 values, most of them not rational
    "moments --p 3 --n 4 --d 11",
    "verify --family all --p 2 --n 6",
    "verify --family kasami-frac --p 2 --n 5 --params pair=5:1,t=1",
    "niho --p 2 --m 4 --s 2 --check-identity",
    "expsum --kind kloosterman --p 3 --m 2 --a-log 1",
    "expsum --kind r --m 3",
    "expsum --kind op6 --n 5 --k 2",
    "expsum --kind cubic --n 5 --b-zero --a-log 3",
    "code-weights --p 2 --n 5 --d 3",
    "classify --p 7 --n 2",
    "classify --p 2 --max-n 4",   # an empty buckets dict at n = 2 beside non-empty ones
    "conjecture --check minus-one --p 2 --max-n 6",
    "conjecture --check three-valued --p 3 --n 4",
]


@pytest.mark.parametrize("argv", EMITTING_ARGV)
def test_emit_matches_json_dumps_for_every_subcommand(argv, monkeypatch, capsys):
    docs = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda obj: (docs.append(obj), emit(obj)))
    assert main(argv.split()) in (0, 1)
    out, _ = capsys.readouterr()
    assert len(docs) == 1
    assert out == json.dumps(docs[0], sort_keys=True, indent=2,
                             default=spectra.Entries.items) + "\n"
