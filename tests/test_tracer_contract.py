"""perfbench/tracer.py patches bohrgap by name from outside: the names it
reaches must exist and its wrappers must record spans and counters."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# run in a child so the patched bindings cannot leak into other tests
SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import bohrgap as bg
from bohrgap import cli, gap, minima, scan
from tracer import Tracer, install

tr = Tracer()
install(tr)
wrapped = [f.__name__ for f in (minima.gauge_interval, minima.ball_lines, gap._lift_coeff_check)
           if getattr(f, "__bench_traced__", False)]
spec = bg.BohrSpec.build(["sqrt:2"], None, 10**4, ["0.3"])
# q > 2^31 leaves no block decider, so the tie at n = 1 reaches the exact callback
tie = bg.BohrSpec.build(["rat:1/2147483659"], None, 10, ["1/2147483659"])

def degenerate_minima():
    body = bg.build_body(bg.BohrSpec.build(["rat:2/5"], None, 1000, ["0.1"]))
    res = bg.successive_minima(body)
    return minima.gauge_interval(body, res.minima_vectors[0])

tr.run_job("outer", lambda: bg.outer_gap(spec))
tr.run_job("minima", degenerate_minima)
tr.run_job("enumerate", lambda: (bg.enumerate_bohr(spec, "positive"), bg.enumerate_bohr(tie, "positive")))
tr.run_job("mask", lambda: bg.support_mask(spec, 2000))
with contextlib.redirect_stdout(io.StringIO()):
    tr.run_job("cli", lambda: cli.main(["gap", "outer", "--k", "2", "--alpha", "sqrt:2", "--N", "1000", "--delta", "0.1"]))
constructors = sorted(n for n in ("for_fraction", "for_fixed") if n in scan.ThresholdSpec.__dict__)
print(json.dumps({"wrapped": wrapped, "constructors": constructors, "spans": len(tr.spans), **tr.summary()}))
"""


def test_tracer_installs_and_records_spans_and_counters(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["wrapped"] == ["gauge_interval", "ball_lines", "_lift_coeff_check"]
    assert out["constructors"] == ["for_fixed", "for_fraction"]
    assert out["spans"] > 0 and out["spans_dropped"] == 0
    for name in (
        "gap.outer_gap", "gap._lift_coeff_check", "minima.ball_lines", "minima.successive_minima",
        "minima.gauge_interval", "bohr.enumerate_bohr", "sums.support_mask", "scan.dist_words",
        "cli.main", "cli.cmd_gap", "scan.exact",
    ):
        assert out["calls"].get(name, 0) > 0, name
    assert {"gap.lifts_checked", "bohr.members", "sums.support_borderline", "scan.n_scanned"} <= set(out["counts"])
    assert out["self_s"]["minima"] > 0 and out["self_s"]["gap"] > 0
    assert list(tmp_path.iterdir()) == []
