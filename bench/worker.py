"""One pass of a workload in a fresh interpreter.

    PYTHONPATH=src python3 bench/worker.py '<job JSON>'

The worker imports `mseqcorr.cli` first and notes the monotonic clock (which
Linux shares between processes) so that the parent can time the set-up
every CLI invocation pays.  It then runs the job's commands in order from
one thread, one `mseqcorr.cli.main(argv)` call each with stdout and stderr
captured.  It checks every output after the timed region and prints one
JSON line with the pass's numbers.  A probe job stops after the import.
With "trace" set the public functions of each module are wrapped first (see
tracing.py) and the spans are written to the job's "spans_file".
"""

import sys
import time

import mseqcorr.cli

READY_AT = time.perf_counter()

# Everything imported below is harness, outside the set-up.
import contextlib
import io
import json
import resource
import traceback
from pathlib import Path

import numpy

import checks
import tracing
from workloads import CACHE_TOKEN


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run(job: dict) -> dict:
    tracer = None
    main = mseqcorr.cli.main
    if job["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
        main = tracer.wrap("cli.main", main)
    commands = job["commands"]
    results = []
    seconds = []
    errors = []
    cpu_s = 0.0
    for i, argv in enumerate(commands):
        real_argv = [job["cache_dir"] if a == CACHE_TOKEN else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.run_id = str(i)
        cpu0, t0 = _cpu_s(), time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(real_argv)
            # A crash, or a SystemExit from argument parsing, is a failed
            # command, not a failed pass.
            except BaseException:
                traceback.print_exc()
                rc = None
        seconds.append(time.perf_counter() - t0)
        cpu_s += _cpu_s() - cpu0
        results.append((rc, out.getvalue()))
        errors.append(err.getvalue())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    digests = {}
    if job["digests"]:
        digests = json.loads(Path(__file__).with_name("digests.json").read_text())
    problems = checks.check_pass(commands, results, digests)
    records = []
    for argv, (rc, text), secs, err, probs in zip(commands, results, seconds, errors, problems):
        rec = {"argv": argv, "exit": rc, "seconds": secs,
               "stdout_bytes": len(text.encode()), "sha256": checks.sha256(text),
               "problems": probs}
        if argv[0] == "spectrum" and rc == 0:
            rec["distinct_values"] = len(json.loads(text)["entries"])
        if probs:
            rec["stderr_tail"] = err[-2000:]
        records.append(rec)
    res = {"command_s": sum(seconds), "cpu_s": cpu_s,
           "peak_rss_mb": peak_rss_mb, "numpy": numpy.__version__,
           "commands": records}
    if tracer:
        res["layers"] = tracing.layer_metrics(
            tracer, sum(r["stdout_bytes"] for r in records))
        res["unmeasured"] = tracer.missing
        for rec, counts in zip(records, tracing.class_counts(tracer, len(records))):
            rec["classes_requested"], rec["classes_computed"] = counts
        Path(job["spans_file"]).write_text(json.dumps(tracer.span_records()))
    return res


if __name__ == "__main__":
    ready = {"ready_at": READY_AT}
    job = json.loads(sys.argv[1])
    print(json.dumps(ready if job.get("probe") else {**ready, **run(job)}))
