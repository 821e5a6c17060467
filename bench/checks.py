"""Output checks for one pass of a workload, independent of the program.

Every check reads only the command's exit code and stdout text; none
imports mseqcorr, so a defect in the program cannot hide a defect in the
check.  A command fails when it exits non-zero or when any check below
reports a problem:

- every spectrum (from `spectrum`, and the computed side of each `verify`
  verdict) has sum count = p^n - 1 and sum value * count = 1 exactly in
  Z[w], with values in the basis 1, w, ..., w^(p-2);
- the verdict fields of `moments`, `niho`, `verify` and `conjecture` are
  true;
- a Kloosterman value obeys the Weil bound (K - 1)^2 <= 4 p^m, the x = 0
  term being 1;
- a weight distribution counts all p^(2n) codewords;
- a `classify` report covers every nondegenerate coprime decimation once,
  its buckets agree with the listed value counts, and a repeated (warm)
  `classify` prints the same bytes as the first (cold) one;
- the sha256 of stdout equals the digest recorded for that argv, when one
  is recorded (digests.json holds every command of every workload at the
  default seed).
"""

from __future__ import annotations

import copy
import hashlib
import json
from math import gcd


def _coords(value, p: int) -> list[int]:
    if isinstance(value, int):
        return [value] + [0] * (p - 2)
    coords = value["coords"]
    if value["p"] != p or len(coords) != p - 1:
        raise ValueError(f"value {value!r} is not in Z[w] for p = {p}")
    return list(coords)


def spectrum_problems(entries, p: int, n: int) -> list[str]:
    total = 0
    acc = [0] * (p - 1)
    for e in entries:
        count = e["count"]
        total += count
        for i, c in enumerate(_coords(e["value"], p)):
            acc[i] += c * count
    out = []
    if total != p ** n - 1:
        out.append(f"sum count = {total}, expected {p ** n - 1}")
    if acc != [1] + [0] * (p - 2):
        out.append(f"sum value*count = {acc}, expected 1")
    return out


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _totient(m: int) -> int:
    out, q = m, 2
    while q * q <= m:
        if m % q == 0:
            while m % q == 0:
                m //= q
            out -= out // q
        q += 1
    if m > 1:
        out -= out // m
    return out


def _classify_problems(report) -> list[str]:
    out = []
    for block in report:
        p, n = block["p"], block["n"]
        L = p ** n - 1
        nondegenerate = _totient(L) - len({pow(p, j, L) for j in range(n)})
        members = 0
        for t, classes in block["buckets"].items():
            for c in classes:
                members += c["members"]
                if len(c["values"]) != int(t):
                    out.append(f"({p},{n}) class {c['rep']} in bucket {t} "
                               f"lists {len(c['values'])} values")
                if gcd(c["rep"], L) != 1:
                    out.append(f"({p},{n}) class {c['rep']} is not coprime")
        if members != nondegenerate:
            out.append(f"({p},{n}) classes cover {members} decimations, "
                       f"expected {nondegenerate}")
    return out


def _content_problems(argv: list[str], obj) -> list[str]:
    cmd = argv[0]
    if cmd == "spectrum":
        p, n = int(_arg(argv, "--p")), int(_arg(argv, "--n"))
        if (obj["p"], obj["n"]) != (p, n):
            return [f"spectrum reports (p, n) = ({obj['p']}, {obj['n']})"]
        return spectrum_problems(obj["entries"], p, n)
    if cmd == "moments":
        flags = [k for k in obj if k.endswith("_ok")]
        bad = [k for k in flags if obj[k] is not True]
        if len(flags) < 4 or bad or obj["sum_values"] != 1:
            return [f"moment identities fail: {bad or flags}"]
        return []
    if cmd == "verify":
        out = []
        for v in obj:
            if v["verdict"] != "pass":
                out.append(f"family {v['family']} {v['params']}: {v['verdict']}")
            if v["computed"] is not None:
                out += spectrum_problems(v["computed"], v["p"], v["n"])
        return out or ([] if obj else ["no verdicts"])
    if cmd == "niho":
        return [] if obj.get("identity_holds") is True else ["Niho identity fails"]
    if cmd == "expsum":
        q = int(_arg(argv, "--p")) ** int(_arg(argv, "--m"))
        v = obj["value"]
        if not isinstance(v, int) or (v - 1) ** 2 > 4 * q:
            return [f"Kloosterman value {v!r} breaks the Weil bound at q = {q}"]
        return []
    if cmd == "code-weights":
        p, n = obj["p"], obj["n"]
        total = sum(w["count"] for w in obj["weights"])
        return [] if total == p ** (2 * n) else [f"{total} codewords, expected {p ** (2 * n)}"]
    if cmd == "classify":
        return _classify_problems(obj)
    if cmd == "conjecture":
        key = {"minus-one": "holds", "three-valued": "exact_match"}[_arg(argv, "--check")]
        bad = [r["n"] for r in obj if r[key] is not True]
        return [f"{key} is false at n = {bad}"] if bad or not obj else []
    return []


def argv_key(argv: list[str]) -> str:
    return " ".join(argv)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_pass(commands: list[list[str]], results: list[tuple],
               digests: dict[str, str]) -> list[list[str]]:
    """Problems per command; results are (exit code, stdout text) pairs.

    commands hold the argv as the workload wrote it (cache directories as a
    placeholder), so repeated commands and digests match across passes.
    """
    first_output: dict[str, str] = {}
    out = []
    for argv, (rc, text) in zip(commands, results):
        key = argv_key(argv)
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if rc == 0:
            try:
                problems += _content_problems(argv, json.loads(text))
            except (ValueError, KeyError, TypeError, IndexError) as e:
                problems.append(f"unreadable output: {type(e).__name__}: {e}")
        if key in first_output and first_output[key] != text:
            problems.append("output differs from the first run of the same command")
        first_output.setdefault(key, text)
        if key in digests and digests[key] != sha256(text):
            problems.append("stdout digest differs from the recorded one")
        out.append(problems)
    return out


# ----------------------------------------------------------------------
# Self-test: the checker must reject corrupted outputs
# ----------------------------------------------------------------------

# spectrum --p 5 --n 2 --d 7, as printed by the CLI (sorted keys).
_SAMPLE = {"d": 7, "method": "fast", "n": 2, "p": 5, "entries": [
    {"count": 2, "value": -6}, {"count": 8, "value": -1}, {"count": 4, "value": 4},
    {"count": 2, "value": {"coords": [-6, 0, -5, -5], "p": 5}},
    {"count": 2, "value": {"coords": [-1, 0, -5, -5], "p": 5}},
    {"count": 2, "value": {"coords": [-1, 0, 5, 5], "p": 5}},
    {"count": 1, "value": {"coords": [4, 0, -5, -5], "p": 5}},
    {"count": 2, "value": {"coords": [4, 0, 5, 5], "p": 5}},
    {"count": 1, "value": {"coords": [9, 0, 5, 5], "p": 5}},
]}
_SAMPLE_ARGV = ["spectrum", "--p", "5", "--n", "2", "--d", "7"]


def self_test() -> list[str]:
    """Empty when the checker accepts the sample and rejects each corruption."""

    def failed(obj, argv=_SAMPLE_ARGV, rc=0) -> bool:
        text = json.dumps(obj, sort_keys=True, indent=2)
        return bool(check_pass([argv], [(rc, text)], {})[0])

    errors = []
    if failed(_SAMPLE):
        errors.append("the checker rejects a correct spectrum")
    moved = copy.deepcopy(_SAMPLE)            # one shift moved between values
    moved["entries"][0]["count"] -= 1
    moved["entries"][1]["count"] += 1
    lost = copy.deepcopy(_SAMPLE)             # one shift dropped
    lost["entries"][2]["count"] -= 1
    twisted = copy.deepcopy(_SAMPLE)          # one irrational coordinate changed
    twisted["entries"][5]["value"]["coords"][2] += 1
    for label, bad in (("moved", moved), ("lost", lost), ("twisted", twisted)):
        if not failed(bad):
            errors.append(f"the checker accepts a {label} spectrum")
    if not failed(_SAMPLE, rc=1):
        errors.append("the checker accepts a non-zero exit code")
    cold = ["classify", "--p", "2", "--n", "3", "--cache-dir", "{cache}"]
    report = [{"p": 2, "n": 3, "buckets": {"3": [{"rep": 3, "members": 3, "values": [-5, -1, 3]}]}}]
    texts = [json.dumps(report), json.dumps(report) + " "]
    if not check_pass([cold, cold], [(0, t) for t in texts], {})[1]:
        errors.append("the checker accepts a warm classify that differs from the cold one")
    return errors
