"""The bytes `spectrum` prints, pinned by sha256.

Every supported prime at a small degree, JSON and CSV, both methods, an
integer, a fractional and a degenerate decimation (9/5 = 8 = 2^3 mod 31 at
(2, 5)), and spectra with non-rational values at p = 5, 7, 11 and 13.  The
`spectrum-odd-p`, `spectrum-p2-n24` and `catalog-checks` commands of the
benchmark at seed 1 are run in-process and checked against the digests the
benchmark recorded; both bench files are only read.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from mseqcorr import gf
from mseqcorr.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"

# "<spectrum arguments>": sha256 of stdout
SPECTRUM_SHA256 = {
    "--p 2 --n 5 --d 3 --method fast --out json":
        "4029cf13987f11f8db3766cc014f09a389af062559802c9f151cea402787c7e1",
    "--p 2 --n 5 --d 3 --method fast --out csv":
        "2a16a17e045e3b3fccd3dd40d3e58e7a95d441c402abb5faeb514dd9560e8bdf",
    "--p 2 --n 5 --d 3 --method naive --out json":
        "15d1d8532dd966f10737045b8127cf1eb89037c643c08e205a8fb7fc30085b2f",
    "--p 2 --n 5 --d 3 --method naive --out csv":
        "2a16a17e045e3b3fccd3dd40d3e58e7a95d441c402abb5faeb514dd9560e8bdf",
    "--p 2 --n 5 --d 11 --method fast --out json":
        "66af258d3e98311742ceed67668e4f95ac33c4610597b5ff5475b4cdb9807cae",
    "--p 2 --n 5 --d 11 --method fast --out csv":
        "2a16a17e045e3b3fccd3dd40d3e58e7a95d441c402abb5faeb514dd9560e8bdf",
    "--p 2 --n 5 --d 11 --method naive --out json":
        "8af4fef8e5defd0b983c5bd0e3244243258fb8415a4efebb8f5e49472cd5dc46",
    "--p 2 --n 5 --d 11 --method naive --out csv":
        "2a16a17e045e3b3fccd3dd40d3e58e7a95d441c402abb5faeb514dd9560e8bdf",
    "--p 2 --n 5 --d 9/5 --method fast --out json":
        "51d13ced1c336ad56f1afff93af1bcc11456fd86614d3d57adb713ed54e82f9c",
    "--p 2 --n 5 --d 9/5 --method fast --out csv":
        "04f8ef3f13b0e2d9665066727bbc83d173e7f236295820ee3a2c81935411fb04",
    "--p 2 --n 5 --d 9/5 --method naive --out json":
        "8706ce75ee3d61fd12d040f6b288a73eb9c7760fc8e2f8442922f4a59bcf2fbc",
    "--p 2 --n 5 --d 9/5 --method naive --out csv":
        "04f8ef3f13b0e2d9665066727bbc83d173e7f236295820ee3a2c81935411fb04",
    "--p 2 --n 5 --d 3/7 --method fast --out json":
        "cd16dcaa3249296f925cc89e6bb7eb3b6e207e4e07990c63209a7e605b9a4a9e",
    "--p 2 --n 5 --d 3/7 --method fast --out csv":
        "5107fa321d0dc2e5560b4c53109aa508882992c65b103cde21d5a5661144be04",
    "--p 2 --n 5 --d 3/7 --method naive --out json":
        "4adf5e191360917fc06fb425591761ee1dcc389e5836193de23e6a511a41bd14",
    "--p 2 --n 5 --d 3/7 --method naive --out csv":
        "5107fa321d0dc2e5560b4c53109aa508882992c65b103cde21d5a5661144be04",
    "--p 2 --n 6 --d 11 --method fast --out json":
        "262626e9fbe4d51d823a680504ee40723f659099f9e280ca6bbbd92dfe234fcc",
    "--p 2 --n 6 --d 11 --method fast --out csv":
        "19f2c85e1e46fe4e2a2ca9a037f9461fe288ea610c0cee18b962d60f1a3b52c7",
    "--p 2 --n 6 --d 11 --method naive --out json":
        "09d01cc29e3db792612188d209d64faf2e323895c9731f70b8af6a4899ccf182",
    "--p 2 --n 6 --d 11 --method naive --out csv":
        "19f2c85e1e46fe4e2a2ca9a037f9461fe288ea610c0cee18b962d60f1a3b52c7",
    "--p 3 --n 4 --d 7 --method fast --out json":
        "9affae8e36adc27427a75255d28d3200dad540cc5d939ac83a668abf8fb58069",
    "--p 3 --n 4 --d 7 --method fast --out csv":
        "3efc87afea6ee8e51af40cb9814b2116c953e600d9c3cff1a617fc30cbd57763",
    "--p 3 --n 4 --d 7 --method naive --out json":
        "d6d7b509476ee72e39afeecbb83213db31327654d2fa7bd90daf5e2d63bc4c50",
    "--p 3 --n 4 --d 7 --method naive --out csv":
        "3efc87afea6ee8e51af40cb9814b2116c953e600d9c3cff1a617fc30cbd57763",
    "--p 3 --n 4 --d 13 --method fast --out json":
        "41ca3001d43e638dc3fa46d08e816e7d8bc3ef9496ff2a705f47f6547f34b6ec",
    "--p 3 --n 4 --d 13 --method fast --out csv":
        "96680face79dfde93567407f2484bd4630b58a15e232a3e172a78aea3575c4d1",
    "--p 3 --n 4 --d 13 --method naive --out json":
        "52d7232d48914cc1e60fa0985694d20dcf9e01dea23bf99520c9718ac01614ff",
    "--p 3 --n 4 --d 13 --method naive --out csv":
        "96680face79dfde93567407f2484bd4630b58a15e232a3e172a78aea3575c4d1",
    "--p 3 --n 4 --d 7/11 --method fast --out json":
        "a68fb3626a923b3985e6a2094000f34939fa6c1f493e1813ea9a0b23eb36a9dc",
    "--p 3 --n 4 --d 7/11 --method fast --out csv":
        "96680face79dfde93567407f2484bd4630b58a15e232a3e172a78aea3575c4d1",
    "--p 3 --n 4 --d 7/11 --method naive --out json":
        "4274f7ae83df4ed138f7f2cf5af2a4290c1dbb1ac0b8ea26e82b4538ee6d94be",
    "--p 3 --n 4 --d 7/11 --method naive --out csv":
        "96680face79dfde93567407f2484bd4630b58a15e232a3e172a78aea3575c4d1",
    "--p 3 --n 5 --d 5 --method fast --out json":
        "67e475ca9c129de4fe73cd6dbca45480f02dff98948f9d41452400ba0a97ad7a",
    "--p 3 --n 5 --d 5 --method fast --out csv":
        "520b39fabf423db8328a34019f9bfdc6a74cc5c981a709b2a420fd118069e1cb",
    "--p 3 --n 5 --d 5 --method naive --out json":
        "1b261b269a74e9cfd9334b1be979d1425cb782824f020a1d301c61a8cd054b49",
    "--p 3 --n 5 --d 5 --method naive --out csv":
        "520b39fabf423db8328a34019f9bfdc6a74cc5c981a709b2a420fd118069e1cb",
    "--p 3 --n 5 --d 7 --method fast --out json":
        "9c45eb753be38c86353f38d6f40c73f1d7eca51a9bd035ee5b1b3093a547c95f",
    "--p 3 --n 5 --d 7 --method fast --out csv":
        "520b39fabf423db8328a34019f9bfdc6a74cc5c981a709b2a420fd118069e1cb",
    "--p 3 --n 5 --d 7 --method naive --out json":
        "070529cafbb50b30adee4a02fd8ed34e547685a2bb9160ee55dc2d10f751fcb5",
    "--p 3 --n 5 --d 7 --method naive --out csv":
        "520b39fabf423db8328a34019f9bfdc6a74cc5c981a709b2a420fd118069e1cb",
    "--p 5 --n 4 --d 7 --method fast --out json":
        "2223af2148f68a2578239502dca412548402d2138b30c655ff8dffea62ad2e54",
    "--p 5 --n 4 --d 7 --method fast --out csv":
        "1e71a3f08503145ec5fb5f140e15f4414217565bf4e44767a552fa2ad914086e",
    "--p 5 --n 4 --d 7 --method naive --out json":
        "c570e2dff4f67bf03f79083a07107c89d66037296842ca9b1a85fffbcbf87637",
    "--p 5 --n 4 --d 7 --method naive --out csv":
        "1e71a3f08503145ec5fb5f140e15f4414217565bf4e44767a552fa2ad914086e",
    "--p 5 --n 4 --d 11 --method fast --out json":
        "058bba14b1265bd78dc45ca75f03264f053148d40c2eae28984d98d519dc062c",
    "--p 5 --n 4 --d 11 --method fast --out csv":
        "4cbb8b6f2bcdcf536176f2aca4bbf1e78383bc33aff61786585033c7216ea57e",
    "--p 5 --n 4 --d 11 --method naive --out json":
        "4d1cd47cb637072524e75248c4ea2ae5f716f6f4079711019fed33bbfa161f1b",
    "--p 5 --n 4 --d 11 --method naive --out csv":
        "4cbb8b6f2bcdcf536176f2aca4bbf1e78383bc33aff61786585033c7216ea57e",
    "--p 5 --n 4 --d 7/11 --method fast --out json":
        "c918332809ddd2b4eec9deae2ed87e6a17c53393c8ba14a142476b376955c3b9",
    "--p 5 --n 4 --d 7/11 --method fast --out csv":
        "33ecce2b301ccecf438234aef950b4c6c90bfd17f65ec6867103edbeda8cf0b3",
    "--p 5 --n 4 --d 7/11 --method naive --out json":
        "3c1fe9547650ffe66b087181d872347d1f1eb82546309cad69a2e556ef2fc25a",
    "--p 5 --n 4 --d 7/11 --method naive --out csv":
        "33ecce2b301ccecf438234aef950b4c6c90bfd17f65ec6867103edbeda8cf0b3",
    "--p 7 --n 3 --d 5 --method fast --out json":
        "be26b35ce17dc6c57eba8e4f5b4363a48b79bd935c973f717bce732807416dd2",
    "--p 7 --n 3 --d 5 --method fast --out csv":
        "6ff003cb215249d65f06f022ad9112a11d612ac8598377c8129b5de775ea9d35",
    "--p 7 --n 3 --d 5 --method naive --out json":
        "8585d8baf233fa7c50a681187e38ec72e4c7cbbd2ae2c4c7f4b0349be5a1f521",
    "--p 7 --n 3 --d 5 --method naive --out csv":
        "6ff003cb215249d65f06f022ad9112a11d612ac8598377c8129b5de775ea9d35",
    "--p 7 --n 3 --d 13 --method fast --out json":
        "9342c867f11fb7869f2aaa1d1cc86ec3dcb3bfe1cbc5add8693bca23812f5be2",
    "--p 7 --n 3 --d 13 --method fast --out csv":
        "f4418cd606ac40df94bb9767443c7bc03789aecf8320bd2c85c1bff8cfc67c5e",
    "--p 7 --n 3 --d 13 --method naive --out json":
        "1a342415f79a17330260c7a350f9af141fdf5a1669cdfa6734118b6fda85f040",
    "--p 7 --n 3 --d 13 --method naive --out csv":
        "f4418cd606ac40df94bb9767443c7bc03789aecf8320bd2c85c1bff8cfc67c5e",
    "--p 11 --n 2 --d 7 --method fast --out json":
        "1d48160fa218c803aac74642b2a29adcaa72aed46f91f69a4338a018462a3b3e",
    "--p 11 --n 2 --d 7 --method fast --out csv":
        "c4664609c8ed69978774e6ee504886aff8534c2f6205df04bcf817b033eceb20",
    "--p 11 --n 2 --d 7 --method naive --out json":
        "80fa9e3cb42e1bf4b27a62a462dbf03916514141b8993700bb03f23d659450ba",
    "--p 11 --n 2 --d 7 --method naive --out csv":
        "c4664609c8ed69978774e6ee504886aff8534c2f6205df04bcf817b033eceb20",
    "--p 11 --n 2 --d 13 --method fast --out json":
        "1e48ed5ccedbe3814ca478545e6ed312a095c4425a790f82d83932708670f77b",
    "--p 11 --n 2 --d 13 --method fast --out csv":
        "a0ba471384e20bfa23a74524981d1137d79123677d214e6c5e155f9447c7e7bb",
    "--p 11 --n 2 --d 13 --method naive --out json":
        "93b1081bb542847d74413b5276f40a14165de78daf89d954ec07c3f0ddea5ba2",
    "--p 11 --n 2 --d 13 --method naive --out csv":
        "a0ba471384e20bfa23a74524981d1137d79123677d214e6c5e155f9447c7e7bb",
    "--p 13 --n 2 --d 5 --method fast --out json":
        "9ad995ae3c0f2f3f4560fc173493e5fa01ac65b2d38a3dd5725035f28323eadc",
    "--p 13 --n 2 --d 5 --method fast --out csv":
        "e4da193d9c8b54cd7d0fa4e2b91fd90202fe551db289b615bbf79880e4108146",
    "--p 13 --n 2 --d 5 --method naive --out json":
        "3247b6b769741547482b73361dc39323c12e4662a9f0ef8ac6941a74d7953c2a",
    "--p 13 --n 2 --d 5 --method naive --out csv":
        "e4da193d9c8b54cd7d0fa4e2b91fd90202fe551db289b615bbf79880e4108146",
    "--p 13 --n 2 --d 11 --method fast --out json":
        "1cb68ab91064b27b5611fa1b6fad4f379c88985f297e266dd2b5cf7be2b9a718",
    "--p 13 --n 2 --d 11 --method fast --out csv":
        "fe7acd32289b2ed1057e13e191cb1b79870360c3f760b82f3a4757092f7c11b2",
    "--p 13 --n 2 --d 11 --method naive --out json":
        "261a574919b11e93883511715e9eeea99cafc42c0029ae821962636dcba991e5",
    "--p 13 --n 2 --d 11 --method naive --out csv":
        "fe7acd32289b2ed1057e13e191cb1b79870360c3f760b82f3a4757092f7c11b2",
    "--p 13 --n 2 --d 5/11 --method fast --out json":
        "142e24e1b53cdc39f62d51c140811a3831db8569204ec1802f7cdffb6ff72995",
    "--p 13 --n 2 --d 5/11 --method fast --out csv":
        "66abbfd71536cbc99690d75d068c59aa64a15fcf0bcd33e6944d6b493444f260",
    "--p 13 --n 2 --d 5/11 --method naive --out json":
        "b4c6e04a924b73c894f63238e981a33956d3ef1d364d494332efe79b5d5042ac",
    "--p 13 --n 2 --d 5/11 --method naive --out csv":
        "66abbfd71536cbc99690d75d068c59aa64a15fcf0bcd33e6944d6b493444f260",
}


def _stdout(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


@pytest.mark.parametrize("args", sorted(SPECTRUM_SHA256))
def test_spectrum_bytes_pinned(args, capsys):
    out = _stdout(["spectrum", *args.split()], capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == SPECTRUM_SHA256[args]


def _bench_commands(workload: str) -> tuple[list, dict]:
    """The workload's commands at seed 1 and the recorded stdout digests."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    digests = json.loads((BENCH / "digests.json").read_text())
    return workloads.commands(workload, 1), digests


def test_bench_odd_p_spectra_match_recorded_digests(capsys):
    commands, digests = _bench_commands("spectrum-odd-p")
    assert len(commands) == 5
    for argv in commands:
        out = _stdout(argv, capsys)
        assert hashlib.sha256(out.encode()).hexdigest() == digests[" ".join(argv)], argv


def test_bench_p2_n24_spectrum_matches_recorded_digest(capsys):
    # the largest field, whose binary transform runs 12 bits in int16
    commands, digests = _bench_commands("spectrum-p2-n24")
    assert [argv[:5] for argv in commands] == [["spectrum", "--p", "2", "--n", "24"]]
    out = _stdout(commands[0], capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == digests[" ".join(commands[0])]


def test_bench_catalog_checks_match_recorded_digests(capsys):
    # verify --family all at (2,14) and (3,8), moments at (2,16) and (3,10),
    # niho, expsum and code-weights at p = 3: each exits 0 with the bytes
    # the benchmark recorded
    commands, digests = _bench_commands("catalog-checks")
    assert [argv[0] for argv in commands] == [
        "verify", "verify", "moments", "moments", "niho", "niho",
        "expsum", "expsum", "code-weights"]
    for argv in commands:
        out = _stdout(argv, capsys)
        assert hashlib.sha256(out.encode()).hexdigest() == digests[" ".join(argv)], argv


# one field per prime, each above the threshold the test sets: its
# m-sequence, gather, input, transform and histogram run in blocks for
# threads > 1
THREADED_FIELDS = ["--p 2 --n 18 --d 5", "--p 3 --n 11 --d 5", "--p 5 --n 8 --d 7",
                   "--p 7 --n 7 --d 5", "--p 11 --n 5 --d 3", "--p 13 --n 5 --d 7"]


@pytest.mark.parametrize("args", THREADED_FIELDS)
def test_spectrum_bytes_do_not_depend_on_threads(args, monkeypatch, capsys):
    monkeypatch.setattr(gf, "_PARALLEL_MIN", 2 ** 17)
    pools, pool = [], gf._pool
    monkeypatch.setattr(gf, "_pool", lambda threads: (pools.append(threads), pool(threads))[1])
    outs = []
    for threads in (1, 2, 3):
        pools.clear()
        outs.append(_stdout(["spectrum", *args.split(), "--threads", str(threads)], capsys))
        # threads 1 runs every pass inline; the others run blocks on their pool
        assert set(pools) == ({threads} if threads > 1 else set()), threads
    assert outs[0] == outs[1] == outs[2]
