#!/usr/bin/env python3
"""degpow benchmark: fixed verification workloads in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass starts a new interpreter
(child.py), because degpow's class cache and the structure predicates'
lru caches live for one process and every CLI invocation pays for them
again.  Passes repeat, one at a time (a closed loop with one caller), for
about S seconds; at least three run.

--trace 0 reports the end-to-end metrics as medians over the passes:
run_s (the verification calls), setup_s (interpreter start to imports done
and tasks built) and peak_rss_mb (over the pass's process tree).
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics (medians over the traced passes), the tracing overhead, a
canonical-form timing sample drawn from --seed, and a per-task table.  The
workloads are exhaustive and do not use the seed.

Every pass checks its report: each record must pass, and the record count
and report digest must match workloads.py.  A wrong report counts as a
failed record; the last stdout line is the result JSON, and the exit code is
1 when anything failed.  Traced spans of the first traced pass are written
to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
HARD_LIMIT_S = 170  # children still running then are killed, so a run ends within 180 s
OUT_DIR = ROOT / ".perfbench-out"


def _loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def _environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "degpow").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "source_sha256": src.hexdigest(),
        "loadavg_start": _loadavg(),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _wait(proc: subprocess.Popen, deadline: float) -> int | None:
    """The exit code, or None after killing the child's whole session."""
    try:
        return proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def _child(args: list[str], out: Path, env: dict, deadline: float,
           stamp: bool = False) -> dict | None:
    """Run child.py with args and load its OUT_JSON; with stamp, its
    SPAWNED_AT argument is the clock reading just before the start."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    if stamp:
        cmd[4] = repr(time.monotonic())
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL)
    if _wait(proc, deadline) != 0 or not out.exists():
        return None
    with open(out) as fh:
        return json.load(fh)


def _one_pass(name: str, work: Path, idx: int, env: dict, deadline: float,
              trace: bool, spans: Path | None) -> dict | None:
    out = work / f"pass-{idx}.json"
    args = ["pass", name, "", str(out)]
    if trace:
        tdir = work / f"trace-{idx}"
        tdir.mkdir()
        args += ["--trace", str(tdir)]
        if spans is not None:
            args += ["--spans", str(spans)]
    result = _child(args, out, env, deadline, stamp=True)
    if result is not None and not Path(result["degpow_file"]).is_relative_to(ROOT / "src"):
        raise SystemExit(f"degpow was imported from {result['degpow_file']}, not {ROOT / 'src'}")
    return result


def _task_table(passes: list[dict], run_s: float) -> list[str]:
    """Rows as in the ROADMAP baseline: the largest t2 and t1 task, the other
    theorem tasks and the closed-form scans; task seconds are medians."""
    seconds: dict[str, list[float]] = {}
    records: dict[str, int] = {}
    for p in passes:
        for label, secs, recs in p["tasks"]:
            seconds.setdefault(label, []).append(secs)
            records[label] = recs
    top: dict[str, int] = {}
    for label in seconds:
        thm, _, n = label.partition(" n=")
        if n:
            top[thm] = max(top.get(thm, 0), int(n))

    def row_of(label: str) -> str:
        thm, _, n = label.partition(" n=")
        if not n:
            return "closed-form scans"
        if thm in ("t2", "t1") and int(n) == top[thm]:
            return f"{thm} at n={n}"
        return "other theorem tasks"

    rows = {f"{thm} at n={top[thm]}": [0, 0, 0.0] for thm in ("t2", "t1") if thm in top}
    rows["other theorem tasks"] = [0, 0, 0.0]
    rows["closed-form scans"] = [0, 0, 0.0]
    for label, secs in seconds.items():
        row = rows[row_of(label)]
        row[0] += 1
        row[1] += records[label]
        row[2] += statistics.median(secs)
    lines = [f"{'tasks (traced, median s)':<26}{'tasks':>6}{'records':>9}{'seconds':>10}{'share':>8}"]
    for label, (count, recs, secs) in rows.items():
        lines.append(f"{label:<26}{count:>6}{recs:>9}{secs:>10.3f}{secs / run_s:>8.1%}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "degpow" / "__init__.py").is_file():
        print(f"error: no degpow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    hard_deadline = time.monotonic() + HARD_LIMIT_S
    env = _child_env()
    info = _environment()
    spec = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json" if args.trace else None
    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    canon = None
    try:
        # untimed: compile degpow's bytecode before the first measured pass
        warm = subprocess.Popen([sys.executable, "-c", "import degpow.cli"], cwd=ROOT,
                                env=env, start_new_session=True)
        if _wait(warm, hard_deadline) != 0:
            print("error: degpow does not import", file=sys.stderr)
            return 2
        start = time.monotonic()
        idx = 0
        while True:
            t0 = time.monotonic()
            for trace in (False, True) if args.trace else (False,):
                result = _one_pass(args.workload, work, idx, env, hard_deadline, trace,
                                   spans if trace and not traced else None)
                idx += 1
                attempted += spec["records"]
                if result is None:
                    failed += spec["records"]
                    continue
                failed += result["failed"]
                (traced if trace else plain).append(result)
            now = time.monotonic()
            rounds = idx // (2 if args.trace else 1)
            if now + (now - t0) > hard_deadline or (
                    rounds >= MIN_PASSES and now + (now - t0) > start + args.seconds):
                break
        if args.trace:
            out = work / "canon.json"
            canon = _child(["canon", str(args.seed), str(out)], out, env, hard_deadline)
            if canon is None:
                failed += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info["loadavg_end"] = _loadavg()
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, passes=len(plain) + len(traced))
    print("environment: " + json.dumps(info, sort_keys=True))
    print(f"seed {args.seed}: the workload grid is exhaustive and does not use the seed;"
          + (" only the canonical-form sample is drawn from it" if args.trace else ""))

    def med(rows: list[dict], key: str) -> float:
        return statistics.median(r[key] for r in rows) if rows else 0.0

    if args.trace:
        run_traced, run_plain = med(traced, "run_s"), med(plain, "run_s")
        values = {key: med([t["layers"] for t in traced], key)
                  for key in (traced[0]["layers"] if traced else {})}
        values.update(canon or {})
        values["trace.overhead"] = run_traced / run_plain - 1 if run_plain else 0.0
        if traced:
            print("\n".join(_task_table(traced, run_traced)))
            gen = values["enumeration.generate_s"]
            print(f"enumeration.generate_s is {gen / run_traced:.1%} of traced run_s"
                  f" ({run_traced:.3f} s); spans of one traced pass: {spans}")
    else:
        values = {key: med(plain, key) for key in ("run_s", "setup_s", "peak_rss_mb")}
        print("run_s per pass: " + " ".join(f"{r['run_s']:.4f}" for r in plain))
    correct = failed == 0 and bool(plain) and (bool(traced) or not args.trace)
    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = wanted["per_layer" if args.trace else "end_to_end"]
    if correct and any(m["name"] not in values for m in wanted):
        raise SystemExit("a metric named in BENCHMARK.json was not measured")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
