"""One benchmark pass in a fresh interpreter; see run.py.

    python child.py pass WORKLOAD SPAWNED_AT OUT_JSON [--trace WORK_DIR] [--spans FILE]
    python child.py canon SEED OUT_JSON

``pass`` imports degpow, builds the workload's tasks, runs them, checks
the report and writes timings to OUT_JSON.  SPAWNED_AT is the parent's
``time.monotonic()`` just before it started this interpreter; the clock is
system-wide, so setup time runs from interpreter start to tasks built.
``canon`` times canonical_form on a sample of random graphs drawn from SEED.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time

from tracer import Tracer, aggregate
from workloads import WORKLOADS, report_digest

CANON_SAMPLE = 1000  # per order, so p99 has 10 samples beyond it


def _usage() -> tuple[float, float]:
    """Peak RSS in MB over this process and its reaped children, and CPU s."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    peak_kb = max(me.ru_maxrss, kids.ru_maxrss)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return peak_kb / 1024, cpu


def run_pass(name: str, spawned_at: float, out: str, trace_dir: str | None,
             spans_file: str | None) -> None:
    spec = WORKLOADS[name]
    import degpow

    if spec["mode"] == "tasks":
        from degpow import verify
    else:
        from degpow import cli
    tracer = None
    if trace_dir is not None:
        tracer = Tracer(trace_dir)
        tracer.install()
    if spec["mode"] == "tasks":
        tasks = list(spec["tasks"])
        jobs = 1
    else:
        report_path = os.path.join(os.path.dirname(out), f"report-{os.getpid()}.json")
        argv = [*spec["argv"], "--json", report_path]
        jobs = spec["jobs"]
    ready = time.monotonic()
    if spec["mode"] == "tasks":
        records = [rec for task in tasks for rec in verify.run_task(task)]
        exit_code = 0
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            exit_code = cli.main(argv)
    done = time.monotonic()
    peak_mb, cpu_s = _usage()

    if spec["mode"] == "tasks":
        rows = json.loads(json.dumps([r.to_dict() for r in records]))
    else:
        with open(report_path) as fh:
            rows = json.load(fh)["records"]
    digest = report_digest(rows)
    failed = sum(r["verdict"] != "pass" for r in rows)
    mismatch = exit_code != 0 or len(rows) != spec["records"] or digest != spec["digest"]
    result = {
        "setup_s": ready - spawned_at,
        "run_s": done - ready,
        "peak_rss_mb": peak_mb,
        "records": len(rows),
        "failed": failed + int(mismatch),
        "digest": digest,
        "degpow_file": degpow.__file__,
    }
    if tracer is not None:
        snaps = [tracer.snapshot()]
        for fname in sorted(os.listdir(trace_dir)):
            if fname.startswith("worker-"):
                with open(os.path.join(trace_dir, fname)) as fh:
                    snaps.append(json.load(fh))
        result["layers"], result["tasks"] = aggregate(snaps, done - ready, jobs, cpu_s)
        if spans_file is not None:
            with open(spans_file, "w") as fh:
                json.dump(snaps, fh)
    with open(out, "w") as fh:
        json.dump(result, fh)


def _random_graph(rng: random.Random, n: int, edges: int | None):
    from degpow import new_graph

    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if edges is None:
        chosen = [e for e in pairs if rng.random() < 0.5]
    else:
        chosen = rng.sample(pairs, edges)
    return new_graph(n, chosen)


def run_canon(seed: int, out: str) -> None:
    """canonical_form per call in microseconds: random n=8 graphs with edge
    probability 1/2, and sparse n=9 graphs with 8 to 12 edges."""
    from degpow import canonical_form

    rng = random.Random(seed)
    result = {}
    for label, n in (("canon8", 8), ("canon9", 9)):
        graphs = [_random_graph(rng, n, None if n == 8 else rng.randint(8, 12))
                  for _ in range(CANON_SAMPLE)]
        times = []
        for g in graphs:
            t0 = time.perf_counter_ns()
            canonical_form(g)
            times.append((time.perf_counter_ns() - t0) / 1000)
        cuts = statistics.quantiles(times, n=100)
        result[f"enumeration.{label}_us_p50"] = statistics.median(times)
        result[f"enumeration.{label}_us_p99"] = cuts[98]
    with open(out, "w") as fh:
        json.dump(result, fh)


def main(argv: list[str]) -> None:
    if argv[0] == "canon":
        run_canon(int(argv[1]), argv[2])
        return
    name, spawned_at, out = argv[1], float(argv[2]), argv[3]
    opts = dict(zip(argv[4::2], argv[5::2]))
    run_pass(name, spawned_at, out, opts.get("--trace"), opts.get("--spans"))


if __name__ == "__main__":
    main(sys.argv[1:])
