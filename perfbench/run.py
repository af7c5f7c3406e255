"""bohrgap benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; bohrgap is imported from ``src/``.  With
--trace 0 the workload runs untraced in a fresh process and the end-to-end
metrics are reported; set-up is timed in separate fresh processes.  With
--trace 1 each job runs untraced and traced, back to back in one fresh
process, and the per-layer metrics plus the tracing overhead are reported.
Human-readable lines come first; the last line of stdout is one JSON object.
Scratch output (cli payloads, digests, spans) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("construct", "series", "degenerate", "cli")
SETUP_PROBES = 5
# seconds a run may take beyond --seconds: the set-up probes, the pass that
# the worker's budget check lets start, and a second pass that --trace 0
# always runs
LIMIT_SLACK = 110.0
_START = time.monotonic()


class BenchError(RuntimeError):
    pass


def _remaining(limit):
    return max(0.0, limit - (time.monotonic() - _START))


def _worker_cmd(workload, seed, scratch, *extra):
    return [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--scratch", str(scratch), *extra,
    ]  # fmt: skip


def setup_seconds(workload, seed, scratch, limit):
    """Fresh process to first job: interpreter start, import, input generation."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            _worker_cmd(workload, seed, scratch, "--setup-only"), stdout=subprocess.PIPE, text=True
        )
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=_remaining(limit))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"run exceeded {limit} s") from None
        finally:
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"set-up probe failed with exit code {code}")
    return statistics.median(times)


def run_worker(workload, seed, seconds, trace, scratch, limit, min_passes=1):
    """Run the workload in a fresh process; return its result and peak RSS (KB)."""
    result_path = scratch / f"result-{trace}.json"
    cmd = _worker_cmd(
        workload, seed, scratch, "--seconds", str(seconds), "--trace", str(trace),
        "--result", str(result_path), "--min-passes", str(min_passes),
    )  # fmt: skip
    # own process group, so a timeout also stops the worker's cli children
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, start_new_session=True)
    deadline = time.monotonic() + _remaining(limit)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            break
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"run exceeded {limit} s")
        time.sleep(0.05)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh), usage.ru_maxrss


def tail(times):
    """(value, percentile) at the highest percentile with at least 10 values beyond it."""
    s = sorted(times)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def _by_job(res, values):
    """Group per-execution values by job key (pass-major order in the result:
    one value per job and pass)."""
    groups = {}
    n = res["jobs_per_pass"]
    for i, v in enumerate(values):
        groups.setdefault(res["keys"][i % n], []).append(v)
    return groups


def best_times(res):
    """Each job's best wall time over its executions in the run."""
    return [min(v) for v in _by_job(res, res["job_times"]).values()]


def trace_overhead(res):
    """Per pass: the sum over jobs of the median, over passes, of traced
    minus untraced seconds of the two back-to-back executions."""
    diffs = [t - u for t, u in zip(res["traced_times"], res["job_times"])]
    return sum(statistics.median(v) for v in _by_job(res, diffs).values())


def end_to_end(res, rss_kb, setup_s):
    """Declared metrics count job time in probes: each execution's wall time
    divided by the probe timed next to it (see worker.probe), so the host's
    slow phases cancel; each job takes the median over its executions, for
    the tail too.  The wall-clock forms print beside them."""
    times = res["job_times"]
    rel = _by_job(res, [t / p for t, p in zip(times, res["probe_times"])])
    job_rel = {key: statistics.median(v) for key, v in rel.items()}
    best = best_times(res)
    # the tail ranks one pass's executions, each at its job's median, so its
    # percentile does not move with the number of passes
    rel_tail, pct = tail([job_rel[key] for key in res["keys"]])
    raw_tail, raw_pct = tail(times)
    peak_kb = res["cli"]["max_rss_kb"] if "cli" in res else rss_kb
    metrics = {
        "wall_probe": (sum(job_rel.values()), "probe"),
        "job_p50_probe": (statistics.median(job_rel.values()), "probe"),
        "job_tail_probe": (rel_tail, "probe"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(best), "s"),
        "job_p50_s": (statistics.median(best), "s"),
        "job_tail_s": (raw_tail, "s"),
        "probe_ms": (statistics.median(res["probe_times"]) * 1e3, "ms"),
    }
    runs = len(times) // len(job_rel)
    notes = {
        "wall_probe": f"sum over {len(job_rel)} jobs of the median of {runs} executions",
        "job_p50_probe": f"median of {len(job_rel)} jobs",
        "job_tail_probe": f"p{pct:.1f} of the {res['jobs_per_pass']} executions of a pass, 10 beyond",
        "setup_s": f"median of {SETUP_PROBES} fresh processes",
        "wall_s": f"sum of {len(best)} job best times over {len(res['passes'])} passes",
        "job_p50_s": f"median of {len(best)} job best times",
        "job_tail_s": f"p{raw_pct:.1f} of {len(times)} job executions, 10 beyond",
        "probe_ms": "median probe time",
    }
    return metrics, notes


def per_layer(traced):
    """Per-pass layer metrics from the traced executions; overhead against
    the untraced execution run next to each of them."""
    t = traced["trace"]
    passes = len(traced["passes"])
    self_s = lambda layer: t["self_s"].get(layer, 0.0) / passes  # noqa: E731
    incl = lambda key: t["incl_s"].get(key, 0.0) / passes  # noqa: E731
    calls = lambda key: t["calls"].get(key, 0) / passes  # noqa: E731
    count = lambda key: t["counts"].get(key, 0) / passes  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731

    n_scanned = count("scan.n_scanned")
    lifts, lift_s = count("gap.lifts_checked"), incl("gap._lift_coeff_check")
    exact_calls = calls("scan.exact")
    handler_s = sum(v for k, v in t["incl_s"].items() if k.startswith("cli.cmd_")) / passes
    cli = traced.get("cli")
    m = {
        "gap.lift_check_s": (lift_s, "s"),
        "gap.lifts_checked": (lifts, "count"),
        "gap.lifts_per_s": (ratio(lifts, lift_s), "1/s"),
        "gap.proper_s": (incl("gap.is_proper"), "s"),
        "gap.self_s": (self_s("gap"), "s"),
        "minima.self_s": (self_s("minima"), "s"),
        "minima.pool_size": (count("minima.pool_size"), "count"),
        "minima.gauge_calls": (calls("minima.gauge_interval"), "count"),
        "scan.self_s": (self_s("scan"), "s"),
        "scan.n_scanned": (n_scanned, "count"),
        "scan.ns_per_n": (ratio(incl("scan.dist_words") * 1e9, n_scanned), "ns"),
        "scan.exact_calls": (exact_calls, "count"),
        "scan.exact_share": (ratio(exact_calls, n_scanned), "ratio"),
        "scan.exact_s": (incl("scan.exact"), "s"),
        "realfield.self_s": (self_s("realfield"), "s"),
        "realfield.refine_calls": (count("realfield.refine_calls"), "count"),
        "realfield.refine_192": (count("realfield.refine_192"), "count"),
        "sums.self_s": (self_s("sums"), "s"),
        "sums.dyadic_s": (incl("sums.dyadic_table"), "s"),
        "sums.gallagher_s": (incl("sums.gallagher_experiment"), "s"),
        "sums.support_borderline": (count("sums.support_borderline"), "count"),
        "counting.sieve_s": (incl("counting.TotientTable"), "s"),
        "counting.self_s": (self_s("counting"), "s"),
        "counting.totient_avg_s": (incl("counting.totient_average"), "s"),
        "bohr.self_s": (self_s("bohr"), "s"),
        "bohr.members": (count("bohr.members"), "count"),
        "exponents.self_s": (self_s("exponents"), "s"),
        "cli.startup_s": (statistics.median(cli["startup_s"]) if cli else 0.0, "s"),
        "cli.handler_s": (handler_s, "s"),
        "cli.payload_bytes": (cli["payload_bytes"] if cli else 0, "B"),
        "trace.overhead_s": (trace_overhead(traced), "s"),
    }
    notes = {"trace.overhead_s": "traced - untraced time, each job run both ways back to back"}
    return m, notes


def _write_digests(workload, seed, res):
    path = OUT / f"digests-{workload}-seed{seed}.txt"
    with open(path, "w") as fh:
        for name, d in res["digests"]:
            fh.write(f"{d}  {name}\n")
    return path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "bohrgap" / "__init__.py").is_file():
        print(f"no bohrgap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    limit = args.seconds + LIMIT_SLACK
    try:
        if args.trace:
            res, _ = run_worker(args.workload, args.seed, args.seconds, 1, scratch, limit)
            metrics, notes = per_layer(res)
            shutil.copy(scratch / "spans.json", OUT / f"spans-{args.workload}.json")
        else:
            setup_s = setup_seconds(args.workload, args.seed, scratch, limit)
            # two passes at least, so every job has repeated executions and the
            # tail percentile does not depend on how fast the first pass ran
            res, rss_kb = run_worker(args.workload, args.seed, args.seconds, 0, scratch, limit, min_passes=2)
            metrics, notes = end_to_end(res, rss_kb, setup_s)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = res["attempted"]
    failures = res["failures"]
    digest_path = _write_digests(args.workload, args.seed, res)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<26} {value:>14.6g} {unit}{note}")
    print(f"  {'failed_frac':<26} {len(failures) / attempted:>14.6g} ratio  ({len(failures)} of {attempted} jobs)")
    for f in failures[:10]:
        print(f"  FAILED pass {f['pass']} {f['job']}: {f['error']}")
    print(f"  digests: {digest_path.relative_to(ROOT)}")
    # the JSON line carries the metrics BENCHMARK.json declares; the lines
    # above show the undeclared ones too
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]]
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in declared},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
