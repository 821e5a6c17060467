"""Command-line entry point.

Subcommands: field, seq, spectrum, moments, verify, niho, expsum,
code-weights, classify, conjecture.  JSON is the canonical output format
(sorted keys, deterministic bytes regardless of worker count); CSV is a
lossy value,count projection of spectra.

Every JSON document goes to stdout through `_emit`, in exactly the bytes of
json.dumps(obj, sort_keys=True, indent=2) and a newline.  It is not that
call: with an indent, json.dumps runs the pure-Python encoder, a generator
per nested value, which made printing a spectrum of thousands of Z[w]
values take longer than computing it.  `_emit` writes the pieces one
generator (`_json_chunks`) yields, so no string of the whole document is
made.  A record, the entries of a spectrum (`spectrum`, `verify`) or the
values of a `classify` class, is a `spectra.Entries` of its arrays, and
its text is written from one template per row: the largest string made is
one record's text.

`spectrum --threads N` runs each field-sized pass on N threads (see
`gf.run_blocks`).  `classify` and `conjecture --threads N` compute a
field's missing classes on N processes forked for that field, each
running whole classes on one thread, once the missing work reaches
`gf._PARALLEL_MIN` = 2^21 elements (`search._computed`); a smaller field,
or N = 1, computes its classes here, one after another, their passes on N
threads.  N defaults to the available cores for all three.

Exit codes: 0 success, 1 computation-level finding (verification mismatch
or conjecture counterexample), 2 usage error, 3 internal error.  The code
is decided by the exception type alone: `errors.OutOfDomain`,
`errors.Budget` and `OSError` (from a path the user gave) are usage
errors; any other exception is a bug and prints its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import traceback
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

import numpy as np

from . import codes, expsums, families, lfsr, niho, search, spectra
from .errors import Budget, MseqCorrError, OutOfDomain
from .gf import (CORES, block_threads, check_degree, check_supported_prime, field_ctx,
                 load_modulus_file, power_exceeds)


def _int(text: str, what: str) -> int:
    if not re.fullmatch(r"\s*[+-]?\d+(_\d+)*\s*", text):   # the forms int() reads
        raise OutOfDomain(f"{what} {text!r} is not an integer")
    try:
        return int(text)
    except ValueError:   # more digits than int() converts from a str
        raise Budget(f"{what} has more than {sys.get_int_max_str_digits()} digits") \
            from None


def _json_chunks(obj, indent: str):
    """Yield, in pieces, the text json.dumps(obj, sort_keys=True, indent=2)
    gives obj, for an obj whose lines start at `indent` (a newline and the
    spaces of its depth).  Exact str and int values, bools, None,
    `spectra.Entries` (from its arrays), and non-empty lists, tuples and
    dicts with str keys are written here, a container's form decided
    before any of it is yielded; anything else (a float, another subclass,
    an empty container, a dict with other keys) is left to json.dumps, and
    its lines moved to this depth."""
    t = type(obj)
    if t is str:
        yield _quote(obj)
    elif t is int:
        yield int.__repr__(obj)
    elif t is bool:
        yield "true" if obj else "false"
    elif obj is None:
        yield "null"
    elif t is spectra.Entries:
        yield _entries_text(obj.p, obj.rows, obj.counts, indent) if len(obj.rows) else "[]"
    elif (t is list or t is tuple) and obj:
        inner = indent + "  "
        head = "[" + inner
        for v in obj:
            yield head
            yield from _json_chunks(v, inner)
            head = "," + inner
        yield indent + "]"
    elif t is dict and obj and all(isinstance(k, str) for k in obj):
        inner = indent + "  "
        head = "{" + inner
        for k, v in sorted(obj.items()):
            yield head + _quote(k) + ": "
            yield from _json_chunks(v, inner)
            head = "," + inner
        yield indent + "}"
    else:
        yield json.dumps(obj, sort_keys=True, indent=2).replace("\n", indent)


def _entries_text(p: int, rows, counts, indent: str) -> str:
    """The text `_json_chunks` gives `spectra.Entries` of this record with
    at least one row: one `%` over the joined templates of the items, that
    of a rational value or that of a {"coords": [...], "p": p} one, inside
    an entry {"count", "value"} unless counts is None.  Every template
    takes all p - 1 coordinates: a rational one prints the first and
    formats the others, all 0, as "%.0s", which prints nothing."""
    i1, i2 = indent + "  ", indent + "    "

    def values(i):   # the templates of a value whose lines start at i
        j, k = i + "  ", i + "    "
        return "%d" + "%.0s" * (p - 2), ("{" + j + '"coords": [' + k + ("," + k).join(
            ["%d"] * (p - 1)) + j + "]," + j + f'"p": {p}' + i + "}")

    if counts is None:
        rational, other = values(i1)
        args = rows
    else:
        rational, other = ("{" + i2 + '"count": %d,' + i2 + '"value": ' + v + i1 + "}"
                           for v in values(i2))
        args = np.column_stack((counts, rows))
    templates = [other if o else rational for o in rows[:, 1:].any(axis=1).tolist()]
    # the brackets go into the template, so that the text is made once
    return ("[" + i1 + ("," + i1).join(templates) + indent + "]") \
        % tuple(args.ravel().tolist())


def _emit(obj) -> None:
    """Write obj to stdout as json.dumps(obj, sort_keys=True, indent=2) does,
    and a newline, in the pieces of `_json_chunks`; every JSON document of
    the CLI is written here."""
    sys.stdout.writelines(_json_chunks(obj, "\n"))
    sys.stdout.write("\n")


def _parse_decimation(text: str, modulus: int) -> int:
    if "/" in text:
        num, den = text.split("/", 1)
        d = niho.resolve_fraction(_int(num, "decimation"), _int(den, "decimation"),
                                  modulus)
    else:
        d = _int(text, "decimation") % modulus
    if gcd(d, modulus) != 1:
        raise OutOfDomain(f"decimation {text} is not coprime to {modulus}")
    return d


def _ctx_for(args):
    coeffs = None
    if getattr(args, "modulus_file", None):
        table = load_modulus_file(args.modulus_file)
        coeffs = table.get((args.p, args.n))
    return field_ctx(args.p, args.n, coeffs)


def _parse_params(text: str) -> dict[str, str]:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        k, _, v = item.partition("=")
        if not _:
            raise OutOfDomain(f"bad --params item {item!r}; expected key=value")
        out[k.strip()] = v
    return out


# ----------------------------------------------------------------------
# Subcommand handlers
# ----------------------------------------------------------------------

def _cmd_field(args) -> int:
    ctx = _ctx_for(args)
    _emit({
        "p": ctx.p, "n": ctx.n, "order": ctx.order, "period": ctx.period,
        "modulus_coeffs": list(ctx.spec.coeffs), "primitive": True,
    })
    return 0


def _cmd_seq(args) -> int:
    ctx = _ctx_for(args)
    seq = lfsr.generate_trace(ctx)
    if args.d:
        seq = lfsr.decimate(seq, _parse_decimation(args.d, ctx.period))
    if args.format == "raw":
        if args.out_file:
            with open(args.out_file, "wb") as fh:
                fh.write(seq.symbols)
        else:
            sys.stdout.buffer.write(seq.symbols)
        return 0
    line = seq.symbols.translate(bytes.maketrans(bytes(range(13)), b"0123456789:;<")).decode()
    if ctx.p > 9:   # space-separated, 10..12 in two digits
        line = " ".join(line).replace(":", "10").replace(";", "11").replace("<", "12")
    if args.out_file:
        with open(args.out_file, "w") as fh:
            fh.write(line + "\n")
    else:
        print(line)
    return 0


def _cmd_spectrum(args) -> int:
    with block_threads(args.threads):   # checks --threads before any work
        ctx = _ctx_for(args)
        d = _parse_decimation(args.d, ctx.period)
        rows, counts = spectra.class_record(ctx, d, method=args.method)
    if args.out == "csv":
        # a rational value is its integer, any other its quoted coordinates
        sys.stdout.write("".join(["value,count\n"] + [
            f'"{r}",{c}\n' if any(r[1:]) else f"{r[0]},{c}\n"
            for r, c in zip(rows.tolist(), counts.tolist())]))
    else:
        _emit({"p": ctx.p, "n": ctx.n, "d": d, "method": args.method,
               "entries": spectra.Entries(ctx.p, rows, counts)})
    return 0


def _cmd_moments(args) -> int:
    ctx = _ctx_for(args)
    d = _parse_decimation(args.d, ctx.period)
    report = spectra.moment_identity_check(ctx, d)
    out = report.to_dict()
    # sum W(a)^l over every a: the histogram holds a != 0, and W(0)^l = 0^l
    out["power_moments"] = {
        str(l): (spectra.power_sum(ctx.p, *report.histogram, l) + (l == 0)).to_json()
        for l in range(5)}
    _emit(out)
    return 0 if report.all_pass() else 1


def _cmd_verify(args) -> int:
    ctx = _ctx_for(args)
    params = _parse_params(args.params)
    if args.family == "all":
        if params:
            raise OutOfDomain("--params needs one --family, not all")
        jobs = []
        for fam in families.catalog():
            for inst in fam.instances(args.p, args.n):
                jobs.append((fam.id, inst))
    else:
        fam = families.get_family(args.family)
        candidates = fam.candidates(args.p, args.n)
        unread = sorted(set(params).difference(*candidates))
        if unread:
            raise OutOfDomain(f"family {args.family} reads no parameter "
                              f"{', '.join(unread)} at (p={args.p}, n={args.n})")
        # a value stays text where the family's candidates carry text
        text = {k for c in candidates for k, v in c.items() if isinstance(v, str)}
        params = {k: v.strip() if k in text else _int(v, f"--params {k}")
                  for k, v in params.items()}
        insts = [params] if params else fam.instances(args.p, args.n)
        if not insts:
            raise OutOfDomain(
                f"family {args.family} has no admissible instance at "
                f"(p={args.p}, n={args.n}); pass --params")
        jobs = [(fam.id, inst) for inst in insts]
    verdicts = []
    records: dict[int, tuple] = {}
    for fid, inst in jobs:
        fam = families.get_family(fid)
        d = fam.decimation(args.p, args.n, inst)
        if d not in records:
            records[d] = spectra.class_record(ctx, d)
        verdicts.append(families.verify_family(fid, args.p, args.n, inst, records[d]))
    _emit([v.to_dict() for v in verdicts])
    return 0 if all(v.passed for v in verdicts) else 1


def _cmd_niho(args) -> int:
    ctx = field_ctx(args.p, 2 * args.m)
    out = {"p": args.p, "m": args.m, "s": args.s,
           "d": niho.niho_decimation(args.p, args.m, args.s)}
    # one root count: the identity report has the histogram and values too
    if args.check_identity:
        rep = niho.walsh_identity_report(ctx, args.s)
        hist, values = rep["histogram"], rep["value_set"]
        out["identity_holds"] = rep["holds"]
    else:
        hist = niho.unit_root_histogram(ctx, args.s)
        values = niho.value_list(ctx, hist)
    out["histogram"] = {str(k): v for k, v in hist.items()}
    out["value_set"] = values
    _emit(out)
    return 0 if out.get("identity_holds", True) else 1


def _cmd_expsum(args) -> int:
    if args.kind == "kloosterman":
        ctx = field_ctx(args.p, args.m)
        a = 0 if args.a_zero else ctx.element_from_log(args.a_log)
        v = expsums.kloosterman(ctx, a)
        _emit({"kind": "kloosterman", "p": args.p, "m": args.m,
               "a_log": None if args.a_zero else args.a_log,
               "value": v if isinstance(v, int) else v.to_json()})
    elif args.kind in ("cubic", "g"):
        ctx = field_ctx(args.p, args.n)   # the sums reject p != 2
        b = 0 if args.b_zero else ctx.element_from_log(args.b_log)
        a = 0 if args.a_zero else ctx.element_from_log(args.a_log)
        fn = expsums.cubic_sum if args.kind == "cubic" else expsums.g_sum
        _emit({"kind": args.kind, "n": args.n, "value": fn(ctx, b, a)})
    elif args.kind == "r":
        _emit({"kind": "r", "m": args.m,
               "value": expsums.kloosterman_weighted_sum(args.m)})
    elif args.kind == "op6":
        rep = expsums.conjectured_sum_identities(args.n, args.k)
        _emit({"kind": "op6", **rep})
        return 0 if rep["both_equal"] else 1
    return 0


def _cmd_code_weights(args) -> int:
    ctx = _ctx_for(args)
    d = _parse_decimation(args.d, ctx.period)
    dist = codes.weight_distribution_via_walsh(ctx, d)
    _emit(dist.to_json_dict())
    return 0


def _degrees(args) -> range:
    """The degrees n of a classify/conjecture run, all within the
    classification bound; checked, with p, before any work and before the
    cache directory is made."""
    if args.n and args.max_n:
        raise OutOfDomain("pass --n or --max-n, not both")
    ns = range(2, args.max_n + 1) if args.max_n else range(args.n, args.n + 1)
    if not (args.n or args.max_n) or not ns:
        raise OutOfDomain("pass --n, or --max-n >= 2")
    if args.p >= 2 and power_exceeds(args.p, ns[-1], search.CLASSIFY_MAX_ORDER):
        raise Budget(f"p^n = {args.p}^{ns[-1]} exceeds the classification bound "
                     f"p^n <= {search.CLASSIFY_MAX_ORDER}")
    check_supported_prime(args.p)
    check_degree(ns[0])
    return ns


def _cmd_classify(args) -> int:
    with block_threads(args.threads):   # checks --threads before any work
        ns = _degrees(args)
        cache = search.SpectrumCache(args.cache_dir) if args.cache_dir else None
        out = []
        for n in ns:
            buckets: dict[str, list] = {}   # by value count; `_emit` sorts the keys
            for c in search.canonical_classes(args.p, n, cache=cache, threads=args.threads):
                buckets.setdefault(str(len(c.counts)), []).append(
                    {"rep": c.rep, "members": len(c.members),
                     "values": spectra.Entries(args.p, c.rows)})
            out.append({"p": args.p, "n": n, "buckets": buckets})
    _emit(out)
    return 0


def _cmd_conjecture(args) -> int:
    if args.check == "op6":   # the one check that takes no (p, n)
        rep = expsums.conjectured_sum_identities(args.n, args.k)
        _emit([{"check": "op6", **rep}])
        return 0 if rep["both_equal"] else 1
    # each check runs over one (p, n); its report has `holds` and `to_dict`
    check = {"minus-one": search.check_minus_one,
             "three-valued": search.three_valued_completeness}[args.check]
    with block_threads(args.threads):   # checks --threads before any work
        ns = _degrees(args)
        cache = search.SpectrumCache(args.cache_dir) if args.cache_dir else None
        reports = [check(args.p, n, cache=cache, threads=args.threads) for n in ns]
    _emit([r.to_dict() for r in reports])
    return 0 if all(r.holds for r in reports) else 1


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def _add_field_args(sp, with_d=False):
    sp.add_argument("--p", type=int, required=True, help="prime characteristic")
    sp.add_argument("--n", type=int, required=True, help="extension degree")
    sp.add_argument("--modulus-file", help="override table of defining polynomials")
    if with_d:
        sp.add_argument("--d", required=True,
                        help="decimation, integer or fraction d1/d2 mod p^n-1")


_CLASS_THREADS_HELP = ("processes that compute a field's missing classes once their work "
                       "reaches 2^21 elements, each on one thread; 1: one thread; "
                       f"default: the available cores ({CORES} here)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mseqcorr",
        description="Exact crosscorrelation and Walsh spectra of p-ary "
                    "m-sequence decimation pairs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("field", help="canonical field data for (p, n)")
    _add_field_args(sp)
    sp.set_defaults(fn=_cmd_field)

    sp = sub.add_parser("seq", help="emit one period of the m-sequence")
    _add_field_args(sp)
    sp.add_argument("--d", default="", help="optional decimation to apply")
    sp.add_argument("--format", choices=("digits", "raw"), default="digits")
    sp.add_argument("--out-file", default="")
    sp.set_defaults(fn=_cmd_seq)

    sp = sub.add_parser("spectrum", help="crosscorrelation spectrum of a decimation")
    _add_field_args(sp, with_d=True)
    sp.add_argument("--method", choices=("fast", "naive"), default="fast")
    sp.add_argument("--out", choices=("json", "csv"), default="json")
    sp.add_argument("--threads", type=int, default=CORES,
                    help="threads of each field-sized pass (field tables, "
                         "gather, transform, histogram); default: the available "
                         f"cores ({CORES} here)")
    sp.set_defaults(fn=_cmd_spectrum)

    sp = sub.add_parser("moments", help="power-moment identity report")
    _add_field_args(sp, with_d=True)
    sp.set_defaults(fn=_cmd_moments)

    sp = sub.add_parser("verify", help="check predicted family distributions")
    sp.add_argument("--family", required=True, help="family id or 'all'")
    _add_field_args(sp)
    sp.add_argument("--params", default="", help="comma list k=v of family parameters")
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("niho", help="unit-circle root counts for d = s(p^m-1)+1")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--check-identity", action="store_true")
    sp.set_defaults(fn=_cmd_niho)

    sp = sub.add_parser("expsum", help="auxiliary exponential sums")
    sp.add_argument("--kind", required=True,
                    choices=("kloosterman", "cubic", "g", "r", "op6"))
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--a-log", type=int, default=0)
    sp.add_argument("--b-log", type=int, default=0)
    sp.add_argument("--a-zero", action="store_true")
    sp.add_argument("--b-zero", action="store_true")
    sp.set_defaults(fn=_cmd_expsum)

    sp = sub.add_parser("code-weights", help="weight distribution of the two-nonzero code")
    _add_field_args(sp, with_d=True)
    sp.set_defaults(fn=_cmd_code_weights)

    default_cache = os.environ.get("MSEQCORR_CACHE_DIR", "")

    sp = sub.add_parser("classify", help="exhaustive classification by value count")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--max-n", type=int, default=0)
    sp.add_argument("--cache-dir", default=default_cache)
    sp.add_argument("--threads", type=int, default=CORES, help=_CLASS_THREADS_HELP)
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser("conjecture", help="finite evidence checks")
    sp.add_argument("--check", required=True,
                    choices=("minus-one", "three-valued", "op6"))
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--max-n", type=int, default=0)
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--cache-dir", default=default_cache)
    sp.add_argument("--threads", type=int, default=CORES, help=_CLASS_THREADS_HELP)
    sp.set_defaults(fn=_cmd_conjecture)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (MseqCorrError, OSError) as e:
        print(f"usage error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        print("internal error: a bug, see the traceback above", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
