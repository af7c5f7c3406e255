"""Seeded job lists for the four workloads, with a correctness check and a
canonical output per job.

A job is one closed-loop call sequence into bohrgap.  ``run`` returns the
job's output; a documented ``ConstructionError`` is caught stage by stage and
kept as output, as the command line does.  ``check`` raises ``CheckFailed``
when the output is wrong.  ``canon`` maps the output to JSON-able data whose
sha256 is the job's digest.

The seed varies values only (which quadratic irrationals, shifts, coprime
numerators, experiment seeds, job order); sizes (k, N, widths, job counts,
sample counts) are fixed per workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import bohrgap as bg
from bohrgap.errors import ConstructionError

# square-free m > 1, so sqrt:m is a quadratic irrational
NONSQUARES = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30, 31)
WORKLOADS = ("construct", "series", "degenerate", "cli")


class CheckFailed(Exception):
    pass


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    canon: Callable[[object], object]
    key: str = ""  # jobs sharing a key repeat the same work; the key is timed as one job

    def __post_init__(self):
        self.key = self.key or self.name


def canonical(obj):
    """JSON-able form of library outputs, stable across runs of one commit."""
    if isinstance(obj, ConstructionError):
        return {"error_path": type(obj).__name__, "message": str(obj)}
    if hasattr(obj, "to_dict"):
        return canonical(obj.to_dict())
    if hasattr(obj, "as_dict"):
        return canonical(obj.as_dict())
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return {"sha256": hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest(), "shape": list(obj.shape)}
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if hasattr(obj, "item"):
        return canonical(obj.item())
    return str(obj)


def digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _or_error(fn):
    """fn()'s result, or the documented construction failure it raised."""
    try:
        return fn()
    except ConstructionError as e:
        return e


def _sqrts(rng, count):
    return [f"sqrt:{m}" for m in rng.sample(NONSQUARES, count)]


# -- construct ---------------------------------------------------------------------

CONSTRUCT_CELLS = [  # (k, N, width per coordinate, shifted)
    (k, N, "0.1" if k == 2 else "0.2", shifted)
    for k in (2, 3)
    for N in (10**4, 10**5)
    for shifted in (False, True)
]
CONSTRUCT_REPS = 3


def _check_inner(spec, g):
    els = bg.gap_elements(g)
    members = bg.enumerate_bohr(spec, "positive").members
    require(bool(np.isin(els, members).all()), "inner GAP escapes the Bohr set")
    require(g.checks["containment"] and g.checks["proper"], "inner GAP certificate flags")


def _check_construct(spec, hom):
    def check(out):
        g = out["inner"]
        if isinstance(g, bg.GAP):
            _check_inner(spec, g)
            require(out["proper"].proper, "is_proper rejects the inner GAP")
            rows = out["alpha_p"]
            require(len(rows) == 25 and all(0 <= r["alpha_p"] <= 1 for r in rows), "alpha_p table")
        card = out["card"]
        require(card["cardinality"] == bg.enumerate_bohr(spec, "symmetric").cardinality, "cardinality")
        o = out["outer"]
        if isinstance(o, bg.GAP):
            c = o.checks
            require(c["containment"] and not c["containment_failures"], "outer containment")
            require(c["checked_lifts"] >= c["bohr_cardinality"], "outer checked fewer lifts than members")

    return check


def _construct_job(spec, hom, name):
    def run():
        out = {"inner": _or_error(lambda: bg.inner_gap(spec))}
        if isinstance(out["inner"], bg.GAP):
            out["proper"] = bg.is_proper(out["inner"])
            out["alpha_p"] = bg.alpha_p_table(out["inner"], 100, spec.epsilon)
        out["card"] = bg.cardinality_ratio(spec)
        out["outer"] = _or_error(lambda: bg.outer_gap(hom))
        return out

    return Job(name, run, _check_construct(spec, hom), canonical)


def construct_jobs(seed, ctx):
    rng = random.Random(f"construct:{seed}")
    jobs = []
    for rep in range(CONSTRUCT_REPS):
        for k, N, width, shifted in CONSTRUCT_CELLS:
            alphas = _sqrts(rng, k - 1)
            gammas = [f"dec:0.{rng.randrange(100, 1000)}" for _ in alphas] if shifted else None
            spec = bg.BohrSpec.build(alphas, gammas, N, [width] * (k - 1))
            hom = bg.BohrSpec(spec.alpha, None, N, spec.delta, spec.epsilon)
            tag = f"k{k}-N{N}-{'dec' if shifted else 'hom'}-{rep}:{','.join(alphas)}"
            jobs.append(_construct_job(spec, hom, tag))
    return jobs


# -- series ------------------------------------------------------------------------

SERIES_N = 10**6
SERIES_CHECKPOINTS = (10**4, 10**5, 10**6)
GALLAGHER_CHUNKS = 15
GALLAGHER_SAMPLES = 1


def _check_mask(mask):
    require(mask.N == SERIES_N and 0 < mask.kept <= SERIES_N and mask.borderline >= 0, "support mask")


def _check_series_rows(rows):
    require([r["N"] for r in rows] == list(SERIES_CHECKPOINTS), "series checkpoints")
    for a, b in zip(rows, rows[1:]):
        require(a["T"] <= b["T"], "T_N decreases")
    for r in rows:
        require(0 < r["T_star"] <= r["T"], "T*_N outside (0, T_N]")


def _check_dyadic(state):
    def check(out):
        dt, t = out
        mask = state["mask"]
        require(dt.low_sum() <= t.value <= dt.high_sum(), "dyadic sandwich low <= T <= high")
        require(dt.total == mask.kept and dt.zero_excluded == 0, "dyadic total != mask.kept")

    return check


def _check_ds(rep):
    require(len(rep["rows"]) == len(SERIES_CHECKPOINTS), "ds rows")
    for r in rep["rows"]:
        require(r["L"] <= r["U"], f"L > U at N={r['N']}")


def _check_exponents(rep):
    d = rep.as_dict()
    for key in ("omega_lower", "omega_times_lower", "omega_star_lower", "omega_hat_lower"):
        require(key in d, f"exponent report lacks {key}")


def _check_gallagher(res):
    require(len(res.rows) == GALLAGHER_SAMPLES and 0 <= res.hit_fraction <= 1, "gallagher rows")
    for row in res.rows:
        hits = [row["hits"][cp] for cp in res.checkpoints]
        require(hits == sorted(hits), "gallagher hit counts decrease along checkpoints")


def series_jobs(seed, ctx):
    rng = random.Random(f"series:{seed}")
    alphas = _sqrts(rng, 2)
    spec = bg.BohrSpec.build(alphas, None, SERIES_N, ["1", "1"])
    target = bg.TargetVector.parse(alphas)
    psi = bg.psi_family("log", c=1.0, k=spec.k)
    state = {}

    def mask_job():
        state["mask"] = bg.support_mask(spec, SERIES_N)
        return state["mask"]

    jobs = [
        Job("support_mask", mask_job, _check_mask, canonical),
        Job("sum_series", lambda: bg.sum_series(spec, SERIES_CHECKPOINTS), _check_series_rows, canonical),
        Job(
            "dyadic_table+t_sum",
            lambda: (bg.dyadic_table(spec, state["mask"]), bg.t_sum(spec, state["mask"])),
            _check_dyadic(state),
            canonical,
        ),
        Job("ds_hypothesis_check", lambda: bg.ds_hypothesis_check(spec, psi, SERIES_CHECKPOINTS), _check_ds, canonical),
        Job("exponent_report", lambda: bg.exponent_report(target, None, n_max=SERIES_N), _check_exponents, canonical),
    ]
    for c in range(GALLAGHER_CHUNKS):
        s = rng.randrange(1 << 31)
        jobs.append(
            Job(
                f"gallagher[{c}] seed={s}",
                lambda s=s: bg.gallagher_experiment(spec, psi, GALLAGHER_SAMPLES, SERIES_N, s),
                _check_gallagher,
                canonical,
            )
        )
    for j in jobs:
        j.name = f"{j.name}:{','.join(alphas)}"
    return jobs


# -- degenerate --------------------------------------------------------------------

# (denominator, N) of the minima jobs, each run as successive_minima and as
# inner_gap; the gauge pool grows with N/q.  rat:1/2 at N=1000 is the
# single-denominator extreme.
DEGENERATE_MINIMA = [(q, 1000) for q in (3, 4, 5, 6)] + [(q, 2000) for q in (7, 8, 9, 10)]
DEGENERATE_HALF = (2, 1000)
# width 1/q: every n with n*p = +-1 mod q sits exactly on the boundary.  At
# this N every tie job is cheaper than every minima job, so the median job
# is one of the four q = 3 tie jobs, whose cost does not depend on p.
DEGENERATE_TIES = [3, 5, 7, 9, 11, 13] * 4
TIE_N = 3000


def _coprime(rng, q):
    return rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])


def _check_minima(res):
    (a, b), (c, d) = res.basis  # k = 2 here
    require(abs(a * d - b * c) == 1, "minima basis is not unimodular")
    lo = [x.bounds()[0] for x in res.lambdas]
    hi = [x.bounds()[1] for x in res.lambdas]
    require(lo[0] <= hi[1], "lambda_1 > lambda_2")


def _check_degenerate_inner(spec):
    def check(out):
        if isinstance(out, bg.GAP):
            _check_inner(spec, out)

    return check


def _check_ties(p, q, N):
    def check(bset):
        ns = np.arange(1, N + 1, dtype=np.int64)
        r = (ns * p) % q
        expect = ns[(r == 0) | (r == 1) | (r == q - 1)]
        require(np.array_equal(bset.members, expect), "tie members differ from the integer oracle")

    return check


def degenerate_jobs(seed, ctx):
    rng = random.Random(f"degenerate:{seed}")
    jobs = []
    for q, N in DEGENERATE_MINIMA + [DEGENERATE_HALF]:
        p = _coprime(rng, q)
        spec = bg.BohrSpec.build([f"rat:{p}/{q}"], None, N, ["0.1"])
        jobs.append(
            Job(
                f"inner rat:{p}/{q} N={N}",
                lambda s=spec: _or_error(lambda: bg.inner_gap(s)),
                _check_degenerate_inner(spec),
                canonical,
            )
        )
        if (q, N) != DEGENERATE_HALF:
            jobs.append(Job(f"minima rat:{p}/{q} N={N}", lambda s=spec: bg.successive_minima(bg.build_body(s)), _check_minima, canonical))
    for i, q in enumerate(DEGENERATE_TIES):
        p = _coprime(rng, q)
        spec = bg.BohrSpec.build([f"rat:{p}/{q}"], None, TIE_N, [f"1/{q}"])
        jobs.append(
            Job(f"ties[{i}] rat:{p}/{q} N={TIE_N}", lambda s=spec: bg.enumerate_bohr(s, "positive"), _check_ties(p, q, TIE_N), canonical)
        )
    rng.shuffle(jobs)
    return jobs


# -- cli ---------------------------------------------------------------------------


def cli_lines(seed):
    """README command lines (plus the outer verify) with seeded values.

    The k = 3 lines keep the README's pair sqrt:2, sqrt:3: their cost moves
    by up to 2x with the pair, which would make the line mix, and so the
    median and tail job, change with the seed.
    """
    rng = random.Random(f"cli:{seed}")
    a = lambda: f"sqrt:{rng.choice(NONSQUARES)}"  # noqa: E731
    a1, a2 = "sqrt:2", "sqrt:3"
    return [
        f"gap inner --k 2 --alpha {a()} --N 100000 --delta 0.1 --eps 0.05",
        f"gap outer --k 2 --alpha {a()} --N 100000 --delta 0.1",
        f"gap verify --form inner --k 2 --alpha {a()} --N 100000 --delta 0.1",
        f"gap verify --form outer --k 2 --alpha {a()} --N 100000 --delta 0.7",
        f"bohr enumerate --k 2 --alpha {a()} --gamma dec:0.{rng.randrange(100, 1000)} --N 10000 --delta 0.2",
        f"minima --k 3 --alpha {a1} --alpha {a2} --N 100000 --delta 0.5 --delta 0.5",
        f"count davenport --box 20,20 --moduli 1,{rng.randrange(1, 5)} --p 5",
        f"count alphap --k 2 --alpha {a()} --N 100000 --delta 0.1 --pmax 100",
        f"count totient --k 2 --alpha {a()} --N 100000 --delta 0.1",
        f"sums t --k 2 --alpha rat:{rng.choice((1, 2))}/3 --gamma rat:1/2 --N 9 --no-restrict",
        f"sums dyadic --k 3 --alpha {a1} --alpha {a2} --N 10000 --delta 1 --delta 1",
        f"sums dscheck --k 3 --alpha {a1} --alpha {a2} --N 1000000 --delta 1 --delta 1 --psi log",
        f"exponents --alpha {a()} --n-max 1000000",
        f"experiment gallagher --k 2 --alpha {a()} --N 1000000 --delta 1 --samples 2 --seed {rng.randrange(1 << 31)}",
    ]


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def cli_jobs(seed, ctx):
    """One job per line, then one rerun job per line replaying its manifest.

    A line and its replay do the same work, so they share a timing key.
    ctx supplies ``spawn(argv) -> exit code`` and a scratch ``out`` dir.
    """
    jobs, reruns = [], []
    for i, line in enumerate(cli_lines(seed)):
        out = os.path.join(ctx["out"], f"line{i:02d}")
        replay = out + "-rerun"

        def run_line(line=line, out=out):
            code = ctx["spawn"](line.split() + ["--out", out])
            return {"exit": code, "payload": _read(os.path.join(out, "payload.json"))}

        def run_rerun(out=out, replay=replay):
            code = ctx["spawn"](["rerun", os.path.join(out, "manifest.json"), "--out", replay])
            return {"exit": code, "payload": _read(os.path.join(replay, "payload.json"))}

        def check_line(res):
            require(res["exit"] == 0, f"exit code {res['exit']}")
            json.loads(res["payload"])

        def check_rerun(res, out=out):
            require(res["exit"] == 0, f"rerun exit code {res['exit']}")
            require(res["payload"] == _read(os.path.join(out, "payload.json")), "rerun payload bytes differ")

        def canon(res):
            return {"exit": res["exit"], "payload_sha256": hashlib.sha256(res["payload"]).hexdigest()}

        jobs.append(Job(line, run_line, check_line, canon))
        reruns.append(Job(f"rerun {line}", run_rerun, check_rerun, canon, key=line))
    return jobs + reruns


BUILDERS = {
    "construct": construct_jobs,
    "series": series_jobs,
    "degenerate": degenerate_jobs,
    "cli": cli_jobs,
}


def build(workload, seed, ctx=None):
    jobs = BUILDERS[workload](seed, ctx or {})
    assert len({j.name for j in jobs}) == len(jobs), "job names must be unique"
    return jobs

