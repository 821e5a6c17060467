"""Benchmark of the mseqcorr CLI: end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --record-digests

Run from the root of a checkout; the program is imported from src/.  Each
pass of a workload runs in a fresh worker process (worker.py) that calls
`mseqcorr.cli.main(argv)` once per command, one after another (a closed
loop with one client).  A run makes at least two passes, and more until
the next one would end after --seconds, then prints every metric with its unit and, as its last
line, one JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 1 the passes alternate untraced and traced, and the metrics are the
per-layer ones.  Details of every pass, the machine facts and the input
properties go to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DEFAULT_SEED = 1
# Import-only workers before each pass.  The machine's speed changes from
# one few-second spell to the next, so the probes are spread over the run.
PROBES_PER_PASS = 8
# A pass can take half of a 30-s run; the median of one pass would carry the
# whole of the machine's drift.
MIN_PASSES = 2
RUN_LIMIT_S = 170      # no worker outlives this many seconds of the run


def machine_facts() -> dict:
    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True,
                                 text=True, timeout=10, check=True).stdout
            return int(out)
        except (OSError, subprocess.SubprocessError, ValueError):
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def spawn(job: dict, deadline: float) -> dict:
    """Run one worker; its result, or {"error": ...} if it did not finish."""
    env = dict(os.environ)
    env.pop("MSEQCORR_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        return {"error": "worker timed out", "wall_s": time.perf_counter() - start}
    wall_s = time.perf_counter() - start
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}",
                "wall_s": wall_s}
    res["setup_s"] = res["ready_at"] - start
    res["wall_s"] = wall_s
    return res


def run_pass(cmds: list[list[str]], traced: bool, spans_file: Path,
             deadline: float, digests: bool = True) -> dict:
    cache_dir = None
    if any(workloads.CACHE_TOKEN in argv for argv in cmds):
        cache_dir = OUT / f"cache-{os.getpid()}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache_dir.mkdir(parents=True)
    job = {"commands": cmds, "trace": traced, "digests": digests,
           "cache_dir": str(cache_dir), "spans_file": str(spans_file)}
    try:
        res = spawn(job, deadline)
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    res["traced"] = traced
    return res


def failed_commands(res: dict, attempted: int) -> int:
    if "error" in res:
        return attempted
    return sum(1 for c in res["commands"] if c["problems"])


def declared_metrics(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def aggregate(passes: list[dict], setup: list[float], trace: bool,
              ok_ratio: float) -> dict:
    plain = [p for p in passes if not p["traced"] and "error" not in p]
    traced = [p for p in passes if p["traced"] and "error" not in p]
    if not plain or (trace and not traced):
        return {}
    median = statistics.median
    if not trace:
        return {
            "setup_s": median(setup),
            "work_s": median(p["command_s"] for p in plain),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in plain),
            "ok_ratio": ok_ratio,
        }
    out = {k: median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
    out["proc.cpu_s"] = median(p["cpu_s"] for p in plain)
    out["trace.work_s"] = median(p["command_s"] for p in traced)
    out["trace.overhead_s"] = out["trace.work_s"] - median(p["command_s"] for p in plain)
    return out


def print_result(correct: bool, attempted: int, failed: int, metrics: dict,
                 declared: dict[str, str]) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in declared.items() if k in metrics},
    }))


def benchmark(workload: str, seed: int, seconds: int, trace: bool) -> int:
    cmds = workloads.commands(workload, seed)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    spans_file = OUT / f"{tag}-spans.json"
    declared = declared_metrics("per_layer" if trace else "end_to_end")
    start = time.perf_counter()
    deadline, limit = start + seconds, start + RUN_LIMIT_S

    spawn({"probe": True}, limit)   # warm-up: bytecode and file caches
    setup: list[float] = []
    passes: list[dict] = []
    longest = 0.0                   # the longest round of probes and a pass
    while True:
        round_start = time.perf_counter()
        for _ in range(PROBES_PER_PASS):
            probe = spawn({"probe": True}, limit)
            if "error" in probe:
                print(f"set-up probe failed: {probe['error']}", file=sys.stderr)
                print_result(False, len(cmds), len(cmds), {}, declared)
                return 1
            setup.append(probe["setup_s"])
        res = run_pass(cmds, trace and len(passes) % 2 == 1, spans_file, limit)
        passes.append(res)
        if "error" in res:
            break
        setup.append(res["setup_s"])
        longest = max(longest, time.perf_counter() - round_start)
        if len(passes) >= MIN_PASSES and time.perf_counter() + longest > deadline:
            break
        if time.perf_counter() + longest > limit:
            break

    attempted = len(cmds) * len(passes)
    failed = sum(failed_commands(p, len(cmds)) for p in passes)
    metrics = aggregate(passes, setup, trace, (attempted - failed) / attempted)
    if set(metrics) != set(declared):
        for p in passes:
            if "error" in p:
                print(f"pass failed: {p['error']}", file=sys.stderr)
        print(f"metrics {sorted(set(metrics) ^ set(declared))} are missing or "
              "not declared in BENCHMARK.json", file=sys.stderr)
        print_result(False, attempted, failed, metrics, declared)
        return 1

    facts = machine_facts()
    facts["numpy"] = next((p["numpy"] for p in passes if "numpy" in p), None)
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": facts, "setup_samples_s": setup,
              "passes": passes, "metrics": metrics,
              "unmeasured": next((p.get("unmeasured") for p in passes if p.get("unmeasured")), [])}
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1))

    print(f"workload {workload}  seed {seed}  passes {len(passes)} "
          f"({sum(p['traced'] for p in passes)} traced)  commands/pass {len(cmds)}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    for rec in _command_rows(passes):
        print(rec)
    for name, unit in declared.items():
        print(f"  {name:32s} {metrics[name]:.6g} {unit}")
    print(f"  {'fail_ratio':32s} {failed / attempted:.6g} ratio ({failed}/{attempted} commands)")
    for note in report["unmeasured"]:
        print(f"  unmeasured: {note}")
    for p in passes:
        for c in p.get("commands", []):
            if c["problems"]:
                print(f"  FAILED {' '.join(c['argv'])}: {'; '.join(c['problems'])}")
        if "error" in p:
            print(f"  FAILED pass: {p['error']}")
    print_result(failed == 0, attempted, failed, metrics, declared)
    return 0


def _command_rows(passes: list[dict]) -> list[str]:
    """Input properties per command: time, stdout bytes, distinct values, classes."""
    done = [p for p in passes if "error" not in p]
    rows = []
    for i, c in enumerate(done[0]["commands"] if done else []):
        secs = statistics.median(p["commands"][i]["seconds"] for p in done
                                 if not p["traced"])
        extra = ""
        if "distinct_values" in c:
            extra += f"  distinct_values={c['distinct_values']}"
        for p in done:
            tc = p["commands"][i]
            if tc.get("classes_requested"):
                loaded = tc["classes_requested"] - tc["classes_computed"]
                extra += f"  classes computed={tc['classes_computed']} loaded={loaded}"
                break
        rows.append(f"  {secs:8.3f} s  {c['stdout_bytes']:9d} B  {' '.join(c['argv'])}{extra}")
    return rows


def record_digests() -> int:
    """Write digests.json: the sha256 of every command's stdout at the default seed."""
    digests = {}
    for workload in workloads.WORKLOADS:
        cmds = workloads.commands(workload, DEFAULT_SEED)
        res = run_pass(cmds, False, OUT / "unused-spans.json",
                       time.perf_counter() + RUN_LIMIT_S, digests=False)
        if "error" in res or any(c["problems"] for c in res["commands"]):
            print(f"{workload}: outputs fail their checks; nothing recorded",
                  file=sys.stderr)
            return 1
        for c in res["commands"]:
            digests[checks.argv_key(c["argv"])] = c["sha256"]
    (BENCH / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mseqcorr" / "cli.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'mseqcorr'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    broken = checks.self_test()
    if broken:
        print("output checker self-test failed: " + "; ".join(broken), file=sys.stderr)
        return 3
    OUT.mkdir(exist_ok=True)
    if args.record_digests:
        return record_digests()
    if not args.workload:
        ap.error("--workload is required")
    return benchmark(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
