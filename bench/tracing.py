"""Spans and counters recorded from outside the program.

`Tracer.install` wraps the public functions of each mseqcorr module in
place: module functions wherever a module of the package binds them (for
example `search.spectrum` and `codes.walsh_fast` are bound by import),
methods on their classes.  Nothing under src/ is edited.  Spans (name,
start, end, parent, run id, info) stay in memory until the pass ends;
`layer_metrics` reduces them to the per-layer numbers and `span_records`
gives them in a form to write out.

Scalar field operations and Z[w] operations are counted, not timed: they
run millions of times per pass and a span each would swamp the pass.
Counts include nested calls (`FieldCtx.sub` also counts the `add` and `neg`
it makes; `CycInt.__pow__` counts its multiplications).
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name): functions wrapped wherever they are bound.
FUNCTION_SPANS = (
    ("cli", "_emit", "cli.emit"),
    ("spectra", "spectrum", "spectra.spectrum"),
    ("spectra", "walsh_fast", "spectra.walsh_fast"),
    ("spectra", "moment_identity_check", "spectra.moment_identity_check"),
    ("search", "canonical_classes", "search.canonical_classes"),
    ("search", "class_partition", "search.class_partition"),
    ("search", "classify_by_value_count", "search.classify_by_value_count"),
    ("search", "check_minus_one", "search.check_minus_one"),
    ("search", "three_valued_completeness", "search.three_valued_completeness"),
    ("niho", "count_unit_roots", "niho.count_unit_roots"),
    ("niho", "unit_root_histogram", "niho.unit_root_histogram"),
    ("niho", "niho_value_set", "niho.niho_value_set"),
    ("niho", "walsh_identity_report", "niho.walsh_identity_report"),
    ("expsums", "kloosterman", "expsums.kloosterman"),
    ("families", "verify_family", "families.verify_family"),
    ("codes", "weight_distribution_via_walsh", "codes.weights"),
)

# (module, class, method, span name)
METHOD_SPANS = (
    ("gf", "FieldCtx", "__init__", "gf.field_build"),
    ("spectra", "WalshTable", "unique_values", "spectra.unique_values"),
    ("spectra", "WalshTable", "spectrum", "spectra.table_spectrum"),
    ("search", "SpectrumCache", "load", "search.cache_load"),
    ("search", "SpectrumCache", "append", "search.cache_append"),
)

# (module, class, methods, counter name)
COUNTERS = (
    ("gf", "FieldCtx", ("add", "neg", "sub", "mul"), "gf.scalar_ops"),
    ("cyclo", "CycInt", ("__add__", "__radd__", "__sub__", "__rsub__",
                         "__mul__", "__rmul__", "__pow__"), "cyclo.ops"),
)

LAYERS = ("cli", "gf", "spectra", "search", "niho", "expsums", "families", "codes")
# Every workload reaches these layers, so their times are reported in
# seconds.  The time of a layer only some workloads reach is reported as its
# share of the traced commands' wall time: a workload that never reaches it
# reads 0, not a time of 0 s that would be the same on every run.
EVERY_WORKLOAD = ("cli", "gf", "spectra")


def _field_info(args, out):
    return {"order": args[1].order}


def _transform_info(args, out):
    ctx = args[0]
    arr = getattr(out, "_by_u", None)
    nbytes = arr.nbytes if arr is not None else ctx.order * (ctx.p - 1) * 8
    return {"p": ctx.p, "n": ctx.n, "order": ctx.order, "nbytes": int(nbytes)}


def _len_info(args, out):
    return {"len": len(out)}


def _table_info(args, out):
    return {"distinct": out.num_values()}


def _cache_load_info(args, out):
    cache, p, n = args[0], args[1], args[2]
    path = cache._path(p, n)
    return {"records": len(out),
            "bytes": os.path.getsize(path) if os.path.exists(path) else 0}


def _cache_append_info(args, out):
    return {"records": len(args[4])}


INFO = {
    "gf.field_build": _field_info,
    "spectra.walsh_fast": _transform_info,
    "spectra.unique_values": _len_info,
    "spectra.table_spectrum": _table_info,
    "search.class_partition": _len_info,
    "search.cache_load": _cache_load_info,
    "search.cache_append": _cache_append_info,
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, run id, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._boxes: dict[str, list[int]] = {}
        self.run_id = ""
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, info = self.spans, self._stack, INFO.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if info is not None:
                rec[5] = info(args, out)
            return out

        return traced

    def _count(self, key: str, fn):
        box = self._boxes.setdefault(key, [0])   # a list cell is cheaper than a dict

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        return counted

    def count(self, key: str) -> int:
        return self._boxes.get(key, [0])[0]

    def install(self) -> None:
        """Wrap every target; call once per process, after importing mseqcorr.cli.

        A target the program no longer has is listed in `missing` and its
        metrics read 0.
        """
        package = [m for name, m in list(sys.modules.items())
                   if name == "mseqcorr" or name.startswith("mseqcorr.")]

        def lookup(module, *path):
            obj = sys.modules.get(f"mseqcorr.{module}")
            for attr in path:
                obj = getattr(obj, attr, None)
            if obj is None:
                self.missing.append(".".join((module, *path)) + " not found")
            return obj

        for module, attr, name in FUNCTION_SPANS:
            orig = lookup(module, attr)
            if orig is None:
                continue
            traced = self.wrap(name, orig)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)
        for module, cls_name, method, name in METHOD_SPANS:
            orig = lookup(module, cls_name, method)
            if orig is not None:
                setattr(lookup(module, cls_name), method, self.wrap(name, orig))
        for module, cls_name, methods, key in COUNTERS:
            for method in methods:
                orig = lookup(module, cls_name, method)
                if orig is not None:
                    setattr(lookup(module, cls_name), method, self._count(key, orig))

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": par, "run": run,
                 **({"info": info} if info else {})}
                for n, s, e, par, run, info in self.spans]


def _is_class_spectrum(spans, rec) -> bool:
    """A spectrum computed for one class representative during classification."""
    return rec[0] == "spectra.spectrum" and rec[3] >= 0 \
        and spans[rec[3]][0] == "search.canonical_classes"


def class_counts(tracer: Tracer, commands: int) -> list[list[int]]:
    """[classes requested, classes computed] per command (run id)."""
    out = [[0, 0] for _ in range(commands)]
    for rec in tracer.spans:
        run = int(rec[4])
        if rec[0] == "search.class_partition":
            out[run][0] += rec[5]["len"]
        elif _is_class_spectrum(tracer.spans, rec):
            out[run][1] += 1
    return out


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer: Tracer, stdout_bytes: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass (units as in BENCHMARK.json)."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total = defaultdict(float)
    calls = Counter()
    self_s = defaultdict(float)
    info_sum = Counter()
    spectrum_ms = []
    computed = 0
    transform = Counter()
    for i, rec in enumerate(spans):
        name, start, end, parent, _, info = rec
        dur = end - start
        total[name] += dur
        calls[name] += 1
        self_s[name] += dur - child[i]
        for k, v in (info or {}).items():
            info_sum[f"{name}.{k}"] += v
        if name == "spectra.spectrum":
            spectrum_ms.append(dur * 1e3)
            computed += _is_class_spectrum(spans, rec)
        if name == "spectra.walsh_fast":
            p, n, order, nbytes = info["p"], info["n"], info["order"], info["nbytes"]
            butterflies = n * order // p
            transform["stages"] += n
            transform["butterflies"] += butterflies
            # p = 2: one add and one subtract per pair; odd p: p^2 products of
            # a (p-1)-vector by a (p-1) x (p-1) matrix, p^2 (p-1)^2 multiply-adds.
            transform["ops"] += butterflies * (2 if p == 2 else p * p * (p - 1) ** 2)
            # model: every stage reads and writes the whole array once
            transform["bytes_moved"] += 2 * n * nbytes
    requested = info_sum["search.class_partition.len"]
    layer_self = defaultdict(float)
    for name, s in self_s.items():
        layer_self[name.partition(".")[0]] += s
    build_s = total["gf.field_build"]
    traced_s = total["cli.main"]

    def share(seconds: float) -> float:
        return seconds / traced_s if traced_s else 0.0

    out = {
        "gf.field_build_s": build_s,
        "gf.field_builds": calls["gf.field_build"],
        "gf.elements_per_s": info_sum["gf.field_build.order"] / build_s if build_s else 0.0,
        "gf.scalar_ops": tracer.count("gf.scalar_ops"),
        "spectra.transform_s": total["spectra.walsh_fast"],
        "spectra.transform_calls": calls["spectra.walsh_fast"],
        "spectra.transform_points": info_sum["spectra.walsh_fast.order"],
        "spectra.transform_bytes": info_sum["spectra.walsh_fast.nbytes"],
        "spectra.computed_stages": transform["stages"],
        "spectra.computed_butterflies": transform["butterflies"],
        "spectra.computed_butterfly_ops": transform["ops"],
        "spectra.computed_bytes_moved": transform["bytes_moved"],
        "spectra.histogram_s": total["spectra.unique_values"],
        "spectra.wrap_s": self_s["spectra.table_spectrum"],
        "spectra.distinct_values": info_sum["spectra.table_spectrum.distinct"],
        "spectra.spectrum_p50_ms": percentile(spectrum_ms, 50),
        "spectra.spectrum_p99_ms": percentile(spectrum_ms, 99),
        "spectra.spectrum_samples": len(spectrum_ms),
        "spectra.moment_check_share": share(total["spectra.moment_identity_check"]),
        "cyclo.ops": tracer.count("cyclo.ops"),
        "search.partition_share": share(total["search.class_partition"]),
        "search.classes_requested": requested,
        "search.classes_computed": computed,
        "search.cache_hit_ratio": (requested - computed) / requested if requested else 0.0,
        "search.cache_load_share": share(total["search.cache_load"]),
        "search.cache_records_read": info_sum["search.cache_load.records"],
        "search.cache_bytes_read": info_sum["search.cache_load.bytes"],
        "search.cache_append_share": share(total["search.cache_append"]),
        "search.cache_records_written": info_sum["search.cache_append.records"],
        "niho.root_count_share": share(total["niho.count_unit_roots"]),
        "niho.root_count_calls": calls["niho.count_unit_roots"],
        "expsums.kloosterman_share": share(total["expsums.kloosterman"]),
        "families.verify_share": share(total["families.verify_family"]),
        "codes.weights_share": share(total["codes.weights"]),
        "cli.emit_s": total["cli.emit"],
        "cli.stdout_bytes": stdout_bytes,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        if layer in EVERY_WORKLOAD:
            out[f"{layer}.self_s"] = layer_self[layer]
        else:
            out[f"{layer}.self_share"] = share(layer_self[layer])
    return out

