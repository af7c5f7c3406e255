"""Layer micro-cases behind the ROADMAP baseline rows, outside the timed workloads.

    python3 perfbench/micro.py

Each case reports the median of ``REPS`` timed calls.  Results print as a table
and go to ``.perfbench_out/micro.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import bohrgap as bg  # noqa: E402
from bohrgap.realfield import RealSpec  # noqa: E402
from bohrgap.scan import CoordScan, ThresholdSpec, members_in_range  # noqa: E402

REPS = 3


def _timed(fn):
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _kernel_cases():
    ns = np.arange(1, 10**6 + 1, dtype=np.uint64)
    for scale in (128, 192, 256):
        coord = CoordScan(RealSpec.parse("sqrt:2").realize(scale), RealSpec.parse("dec:0.3").realize(scale))
        yield f"dist_words 1e6 n, scale {scale}", "ms per 1e6 n", 1e3, lambda c=coord: c.dist_words(ns)
        yield f"dist_floats 1e6 n, scale {scale}", "ms per 1e6 n", 1e3, lambda c=coord: c.dist_floats(ns)


def _band_case(alpha, width, N):
    coord = CoordScan(RealSpec.parse(alpha).realize(128))
    spec = ThresholdSpec.for_fraction(coord, width, N)
    return lambda: members_in_range([coord], [spec], 1, N)


def cases():
    yield from _kernel_cases()
    yield (
        "members_in_range sparse band (sqrt:2, width 1/10, N=1e6)", "ms per 1e6 n", 1e3,
        _band_case("sqrt:2", Fraction(1, 10), 10**6),
    )  # fmt: skip
    # width 1/3 at rat:1/3: two thirds of all n sit exactly on the boundary
    dense_n = 2 * 10**4
    dense = _band_case("rat:1/3", Fraction(1, 3), dense_n)
    yield "members_in_range dense band (rat:1/3, width 1/3, N=2e4)", "ms per 1e6 n", 1e3 * 10**6 / dense_n, dense
    yield "totient_sieve(10**7)", "s", 1.0, lambda: bg.totient_sieve(10**7)
    spec = bg.BohrSpec.build(["sqrt:2", "sqrt:3"], None, 10**6, ["1", "1"])
    mask = bg.support_mask(spec, 10**6)
    yield "dyadic_table k=3, N=1e6", "s", 1.0, lambda: bg.dyadic_table(spec, mask)


def main() -> int:
    rows = []
    for name, unit, factor, fn in cases():
        value = _timed(fn) * factor
        rows.append({"case": name, "value": value, "unit": unit, "reps": REPS})
        print(f"{name:<60} {value:>10.4g} {unit}", flush=True)
    out = HERE.parent / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with open(out / "micro.json", "w") as fh:
        json.dump(rows, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
