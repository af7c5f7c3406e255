"""One workload in one fresh process: build the seeded job list, then run it
pass after pass (closed loop, one caller) while another pass fits in the
time budget.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 \
        --result FILE --scratch DIR [--setup-only]

Prints ``ready`` once bohrgap is imported and the inputs exist; with
--setup-only it stops there.  With --trace 1 each job runs twice in a row,
untraced and traced, so both see the machine at the same speed and their
difference is the tracing overhead.  The first execution of every job
is checked for correctness; every later one must reproduce its output
digest.  The result (pass and job times, failures, digests, and the trace
summary when --trace 1) goes to --result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import bohrgap  # noqa: E402

if Path(bohrgap.__file__).resolve().parent != SRC / "bohrgap":
    sys.exit(f"bohrgap imported from {bohrgap.__file__}, not from {SRC}")

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, install  # noqa: E402

_PROBE_ARRAY = np.arange(1, 200_001, dtype=np.uint64)


def probe() -> float:
    """Seconds for a fixed slice of Python and numpy work (about 2.5 ms).

    Timed before and after every job, it gives the machine's speed at that
    moment; a job's time divided by it cancels the slow phases of a shared
    host, which last from under a second to minutes.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    int((_PROBE_ARRAY * np.uint64(2654435761) + np.uint64(acc)).sum())
    return time.perf_counter() - t0


class CliRunner:
    """Spawns one bohrgap command line per call and keeps per-process stats.

    A spawn made while the tracer is active runs through ``cli_child.py``,
    and its child's trace summary merges into ``child_trace``.  Startup and
    payload size come from untraced spawns only, read right after each one.
    """

    def __init__(self, scratch: Path, tracer: Tracer | None):
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.startup_s = []  # process time - manifest wall_s, per untraced spawn
        self.payload_bytes = 0
        self.child_trace = {}
        self.max_rss_kb = 0
        self.stderr = open(scratch / "cli-stderr.txt", "ab")

    def __call__(self, args):
        out = args[args.index("--out") + 1]
        traced = self.tracer is not None and self.tracer.active
        spans = out + ".trace.json"
        if traced:
            cmd = [sys.executable, str(HERE / "cli_child.py"), spans] + args
        else:
            cmd = [sys.executable, "-m", "bohrgap"] + args
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL, stderr=self.stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        secs = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        if traced:
            with open(spans) as fh:
                _merge(self.child_trace, json.load(fh))
        else:
            with open(os.path.join(out, "manifest.json")) as fh:
                self.startup_s.append(secs - json.load(fh)["timings"]["wall_s"])
            self.payload_bytes += os.path.getsize(os.path.join(out, "payload.json"))
        return proc.returncode

    def stats(self, passes: int) -> dict:
        return {
            "startup_s": self.startup_s,
            "payload_bytes": self.payload_bytes / passes,
            "max_rss_kb": self.max_rss_kb,
        }

    def close(self):
        self.stderr.close()


def _merge(total: dict, part: dict) -> None:
    """Add one trace summary into another, key by key."""
    for key, val in part.items():
        if isinstance(val, dict):
            dest = total.setdefault(key, {})
            for name, v in val.items():
                dest[name] = dest.get(name, 0) + v
        else:
            total[key] = total.get(key, 0) + val


def _execute_into(times, fn):
    """Run one job execution and append its seconds to times; (output, error or None)."""
    t0 = time.perf_counter()
    try:
        out, err = fn(), None
    except Exception as e:  # any non-documented failure counts against the job
        out, err = None, f"{type(e).__name__}: {e}"
    times.append(time.perf_counter() - t0)
    return out, err


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--scratch", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--min-passes", type=int, default=1)
    args = ap.parse_args()

    args.scratch.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    runner = None
    ctx = {}
    if args.workload == "cli":
        runner = CliRunner(args.scratch, tracer)
        ctx = {"spawn": runner, "out": str(args.scratch)}
    jobs = workloads.build(args.workload, args.seed, ctx)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if tracer is not None:
        install(tracer)

    deadline = time.perf_counter() + args.seconds
    pass_walls, job_times, traced_times, probe_times, failures = [], [], [], [], []
    digests = {}  # job index -> digest of its first execution
    attempted = 0
    while True:
        outs = []  # (job index, output, error)
        t_pass = time.perf_counter()
        before = probe()
        for idx, job in enumerate(jobs):
            runs = [(job_times, job.run)]
            if tracer is not None:
                runs.append((traced_times, lambda: tracer.run_job(idx, job.run)))
                # alternate which goes first, so neither gains from following the other
                if len(pass_walls) % 2:
                    runs.reverse()
            for times, fn in runs:
                outs.append((idx, *_execute_into(times, fn)))
            after = probe()
            probe_times.append((before + after) / 2)
            before = after
        pass_walls.append(time.perf_counter() - t_pass)
        for idx, out, err in outs:
            job = jobs[idx]
            attempted += 1
            first = idx not in digests
            if err is None:
                try:
                    if first:
                        job.check(out)
                    d = workloads.digest(job.canon(out))
                    if first:
                        digests[idx] = d
                    elif d != digests[idx]:
                        err = "output differs from the job's first execution"
                except Exception as e:  # a crashing check is a failed check
                    err = f"{type(e).__name__}: {e}"
            if err is not None:
                failures.append({"pass": len(pass_walls), "job": job.name, "error": err})
                digests.setdefault(idx, "failed")
        # only start a pass that should end within the budget
        if len(pass_walls) >= args.min_passes and time.perf_counter() + pass_walls[-1] > deadline:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": pass_walls,
        "jobs_per_pass": len(jobs),
        "keys": [job.key for job in jobs],
        "job_times": job_times,
        "probe_times": probe_times,
        "attempted": attempted,
        "failures": failures,
        "digests": [(job.name, digests[idx]) for idx, job in enumerate(jobs)],
    }
    if tracer is not None:
        result["traced_times"] = traced_times
        result["trace"] = tracer.summary()
        tracer.write(args.scratch / "spans.json")
    if runner is not None:
        runner.close()
        result["cli"] = runner.stats(len(pass_walls))
        if tracer is not None:
            _merge(result["trace"], runner.child_trace)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
