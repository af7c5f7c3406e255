"""Batch command line front end.

Subcommands wire spec parameters (alpha/gamma constructors, N, widths, eps)
to the library operations and emit JSON payloads plus CSV where a tabular
schema exists.  With --out DIR each run also writes manifest.json (config
echo, library version, timings); payloads themselves carry no timings, so
re-running a manifest reproduces them byte for byte.

Each handler imports the library modules it runs, so a process loads only
what its command needs.

Exit codes: 0 success (including construction failures on documented error
paths, which are data), 2 validation, 3 budget or precision exhaustion.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from . import __version__
from .errors import (
    BudgetExceeded,
    ConstructionError,
    PrecisionExhausted,
    ValidationError,
)

if TYPE_CHECKING:
    from .bohr import BohrSpec

Q = Fraction

_M61 = (1 << 61) - 1

# list-valued flags that repeat on the command line vs comma-joined ones
_APPEND_DESTS = {"alpha", "gamma", "delta"}


def _csv_ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def _csv_floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


# -- payload plumbing -----------------------------------------------------------


def _jsonable(obj):
    """Deterministic JSON form: fractions to strings, special floats to
    strings, numpy scalars to Python numbers."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if hasattr(obj, "item"):  # numpy scalar
        return _jsonable(obj.item())
    return str(obj)


class RunOutput:
    def __init__(self, payload: dict, csv: Optional[str] = None, summary=()):
        self.payload = payload
        self.csv = csv
        self.summary = list(summary)


def _config_echo(ns: argparse.Namespace) -> dict:
    skip = {"out", "config", "manifest", "command_path", "handler", "group", "sub"}
    cfg = {}
    for key, val in sorted(vars(ns).items()):
        if key in skip or val is None or callable(val):
            continue
        cfg[key] = val
    return cfg


def _emit(ns: argparse.Namespace, out: RunOutput, elapsed: float) -> None:
    for line in out.summary:
        print(line)
    payload_text = json.dumps(_jsonable(out.payload), indent=2, sort_keys=True) + "\n"
    if ns.out:
        os.makedirs(ns.out, exist_ok=True)
        with open(os.path.join(ns.out, "payload.json"), "w") as fh:
            fh.write(payload_text)
        if out.csv is not None:
            with open(os.path.join(ns.out, "table.csv"), "w") as fh:
                fh.write(out.csv)
        manifest = {
            "command": ns.command_path,
            "config": _jsonable(_config_echo(ns)),
            "version": __version__,
            "timings": {"wall_s": round(elapsed, 6)},
        }
        with open(os.path.join(ns.out, "manifest.json"), "w") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(payload_text)


# -- spec construction ------------------------------------------------------------


def _spec_from(ns: argparse.Namespace) -> BohrSpec:
    from .bohr import BohrSpec

    alphas = ns.alpha or []
    if not alphas:
        raise ValidationError("at least one --alpha constructor is required")
    if getattr(ns, "k", None) is not None and ns.k != len(alphas) + 1:
        raise ValidationError(
            f"k = {ns.k} disagrees with {len(alphas)} fixed coordinates (k counts the sampled form too)"
        )
    deltas = list(ns.delta) if getattr(ns, "delta", None) else ["1"]
    if len(deltas) == 1 and len(alphas) > 1:
        deltas = deltas * len(alphas)
    gamma = list(ns.gamma) if getattr(ns, "gamma", None) else None
    return BohrSpec.build(alphas, gamma, ns.N, deltas, Q(ns.eps), ns.scale)


def _psi_from(ns: argparse.Namespace, default_k: int):
    from .sums import psi_family

    tag = ns.psi
    if tag == "log" or tag == "loglog":
        return psi_family(tag, c=ns.psi_c, k=ns.psi_k if ns.psi_k is not None else default_k)
    if tag == "power":
        return psi_family(tag, c=ns.psi_c, a=ns.psi_a)
    if not ns.psi_table:
        raise ValidationError("--psi table needs --psi-table values")
    return psi_family("table", table=tuple(ns.psi_table))


def _bohr_payload(bset, member_cap: int = 10**5) -> dict:
    d = bset.to_dict()
    if d["cardinality"] > member_cap:
        d["members"] = None
        d["members_omitted"] = True
    else:
        d["members_omitted"] = False
    return d


# -- handlers ---------------------------------------------------------------------


def cmd_bohr_enumerate(ns) -> RunOutput:
    from .bohr import enumerate_bohr

    spec = _spec_from(ns)
    bset = enumerate_bohr(spec, ns.mode)
    payload = _bohr_payload(bset)
    return RunOutput(payload, None, [f"#B = {bset.cardinality} (mode {ns.mode}, N = {spec.N})"])


def cmd_bohr_lift(ns) -> RunOutput:
    from .bohr import all_lifts, is_member

    spec = _spec_from(ns)
    lifts = all_lifts(spec, ns.n)
    payload = {"n": ns.n, "member": is_member(spec, ns.n), "lifts": [list(v) for v in lifts]}
    return RunOutput(payload, None, [f"n = {ns.n}: {len(lifts)} lift(s)"])


def cmd_bohr_restrict(ns) -> RunOutput:
    from .bohr import restricted_bohr

    spec = _spec_from(ns)
    bset = restricted_bohr(spec)
    payload = _bohr_payload(bset)
    payload["restricted"] = True
    payload["eps"] = str(spec.epsilon)
    return RunOutput(payload, None, [f"#(B restricted) = {bset.cardinality}"])


def cmd_minima(ns) -> RunOutput:
    from .minima import build_body, successive_minima

    spec = _spec_from(ns)
    body = build_body(spec)
    res = successive_minima(body, ns.budget) if ns.budget else successive_minima(body)
    payload = {
        "vol_s": str(body.vol_s()),
        "lam_pow_k": str(body.lam_pow_k),
        "minima": res.to_dict(),
    }
    lams = payload["minima"].get("basis_gauges")
    return RunOutput(payload, None, [f"vol(S) = {payload['vol_s']}", f"minima gauges: {lams}"])


def _gap_build(ns, form: str):
    from .gap import inner_gap, outer_gap

    spec = _spec_from(ns)
    if form == "inner":
        g = inner_gap(spec, ns.budget) if ns.budget else inner_gap(spec)
    else:
        kw = {"c_k": ns.ck} if getattr(ns, "ck", None) is not None else {}
        g = outer_gap(spec, budget=ns.budget, **kw) if ns.budget else outer_gap(spec, **kw)
    return spec, g


def cmd_gap_inner(ns) -> RunOutput:
    _, g = _gap_build(ns, "inner")
    return RunOutput(g.to_dict(), None, list(g.trace))


def cmd_gap_outer(ns) -> RunOutput:
    _, g = _gap_build(ns, "outer")
    return RunOutput(g.to_dict(), None, list(g.trace))


def cmd_gap_verify(ns) -> RunOutput:
    from .bohr import is_member
    from .gap import cardinality_ratio, gap_elements, is_proper

    if ns.limit < 0:
        raise ValidationError("--limit must be >= 0")
    spec, g = _gap_build(ns, ns.form)
    budget = ns.budget or 10**8
    proper = is_proper(g, budget)
    violations = 0
    if ns.form == "inner":
        els = gap_elements(g, budget)[: ns.limit]
        checked = len(els)
        violations = sum(not is_member(spec, int(n)) for n in els)
    else:
        # outer_gap ran the lift check on every member of B^0 with this
        # budget and raises on any failure, so its first --limit pass too
        checked = min(ns.limit, g.checks["bohr_cardinality"])
    card = cardinality_ratio(spec)
    payload = {
        "form": ns.form,
        "gap": g.to_dict(),
        "proper": proper.to_dict(),
        "containment": {"checked": checked, "violations": violations},
        "cardinality": card,
    }
    # the covering progression may repeat values; distinctness binds inner only
    status = "ok" if violations == 0 and (proper.proper or ns.form == "outer") else "violated"
    return RunOutput(payload, None, [f"verify {ns.form}: {status} ({checked} containment checks)"])


def cmd_count_davenport(ns) -> RunOutput:
    from .counting import congruence_lattice, davenport_count, davenport_csv

    lattice = None
    if ns.moduli:
        if ns.p is None:
            raise ValidationError("--moduli needs --p")
        lattice = congruence_lattice(tuple(ns.moduli), ns.p)
    box = tuple(ns.box)
    cert = davenport_count(box, lattice, ns.budget or 10**8)
    csv = davenport_csv([cert])
    summary = [
        f"count = {cert.count}, main term = {cert.main_term}, "
        f"|discrepancy| = {cert.discrepancy}, bound = {cert.bound:.6g}"
    ]
    return RunOutput(cert.to_dict(), csv, summary)


def cmd_count_alphap(ns) -> RunOutput:
    from .counting import alpha_p_table, alpha_table_csv
    from .gap import inner_gap

    spec = _spec_from(ns)
    g = inner_gap(spec, ns.budget) if ns.budget else inner_gap(spec)
    rows = alpha_p_table(g, ns.pmax, spec.epsilon, ns.budget or 10**8)
    csv = alpha_table_csv(rows)
    payload = {
        "p_max": ns.pmax,
        "eps": str(spec.epsilon),
        "rows": [
            {
                "p": r["p"],
                "alpha_p": str(r["alpha_p"]),
                "alpha_p_float": r["alpha_p_float"],
                "p_eps_weighted": r["p_eps_weighted"],
                "reference_bound": r["reference_bound"],
                "excess": r["excess"],
            }
            for r in rows
        ],
    }
    worst = max((r["p_eps_weighted"] for r in rows), default=0.0)
    return RunOutput(payload, csv, [f"{len(rows)} primes, max alpha_p * p^eps = {worst:.6g}"])


def cmd_count_totient(ns) -> RunOutput:
    import mpmath

    from .bohr import enumerate_bohr, restricted_bohr
    from .counting import totient_average

    spec = _spec_from(ns)
    bset = enumerate_bohr(spec, "positive") if ns.no_restrict else restricted_bohr(spec)
    members = [int(n) for n in bset.members]
    avg = totient_average(members)
    with mpmath.workdps(40):
        if avg == 0:
            decimal = "0.0"
        else:
            decimal = mpmath.nstr(
                mpmath.mpf(avg.numerator) / mpmath.mpf(avg.denominator), 25
            )
    payload = {
        "cardinality": len(members),
        "restricted": not ns.no_restrict,
        "sum_phi_over_n": {
            "decimal": decimal,
            "float": float(avg),
            "num_mod_m61": avg.numerator % _M61,
            "den_mod_m61": avg.denominator % _M61,
            "modulus": "2^61-1",
        },
    }
    return RunOutput(payload, None, [f"sum phi(n)/n over {len(members)} elements = {decimal}"])


def cmd_sums_t(ns) -> RunOutput:
    from .sums import sum_series, sums_csv

    spec = _spec_from(ns)
    cps = ns.checkpoints or [ns.N]
    rows = sum_series(spec, cps, restrict=not ns.no_restrict)
    csv = sums_csv(rows)
    summary = [
        f"T({r['N']}) = {r['T']:.12g}   T*({r['N']}) = {r['T_star']:.12g}   "
        f"T*/T = {r['ratio_star']:.6g}"
        for r in rows
    ]
    return RunOutput({"rows": rows, "restricted": not ns.no_restrict}, csv, summary)


def cmd_sums_dyadic(ns) -> RunOutput:
    from .sums import dyadic_table, support_mask, t_sum, trivial_mask

    spec = _spec_from(ns)
    mask = trivial_mask(ns.N) if ns.no_restrict else support_mask(spec, ns.N)
    dt = dyadic_table(spec, mask)
    t = t_sum(spec, mask)
    payload = dt.to_dict()
    payload["restricted"] = not ns.no_restrict
    payload["T"] = t.value
    payload["sandwich_holds"] = bool(dt.low_sum() <= t.value <= dt.high_sum())
    summary = [
        f"{len(dt.cells)} cells, {dt.zero_excluded} zero-distance exclusions",
        f"sandwich: {dt.low_sum()} <= T = {t.value:.12g} <= {dt.high_sum()}",
    ]
    return RunOutput(payload, None, summary)


def cmd_sums_dscheck(ns) -> RunOutput:
    from .sums import ds_hypothesis_check

    spec = _spec_from(ns)
    psi = _psi_from(ns, spec.k)
    cps = ns.checkpoints or [ns.N]
    rep = ds_hypothesis_check(spec, psi, cps)
    summary = [
        f"N = {r['N']}: L/R = {r['L_over_R']:.6g}, U/R = {r['U_over_R']:.6g}, L <= U: {r['L_le_U']}"
        for r in rep["rows"]
    ]
    return RunOutput(rep, None, summary)


def cmd_exponents(ns) -> RunOutput:
    from .exponents import TargetVector, exponent_report
    from .realfield import RealSpec

    alpha = TargetVector.parse(ns.alpha, ns.scale)
    gamma = None
    if ns.gamma:
        gamma = tuple(RealSpec.parse(t).realize(ns.scale) for t in ns.gamma)
    x_list = tuple(ns.x_list) if ns.x_list else (10**3, 10**4, 10**5, 10**6)
    rep = exponent_report(alpha, gamma, n_max=ns.n_max, h_max=ns.h_max, x_list=x_list)
    payload = rep.as_dict()
    summary = [
        f"{name} = {payload[name]['value']}"
        for name in ("omega_lower", "omega_times_lower", "omega_star_lower", "omega_hat_lower")
    ]
    return RunOutput(payload, None, summary)


def cmd_experiment_gallagher(ns) -> RunOutput:
    from .sums import experiment_csv, gallagher_experiment

    spec = _spec_from(ns)
    psi = _psi_from(ns, spec.k)
    res = gallagher_experiment(spec, psi, ns.samples, ns.N, ns.seed, ns.checkpoints)
    csv = experiment_csv(res)
    summary = [
        f"hit fraction = {res.hit_fraction:.4g} over {ns.samples} samples",
        "median hits: "
        + ", ".join(f"N={cp}: {res.median_hits[cp]:g}" for cp in res.checkpoints),
    ]
    return RunOutput(res.to_dict(), csv, summary)


# -- argument wiring ---------------------------------------------------------------


def _add_common(p, spec=True, budget=True):
    if spec:
        p.add_argument("--k", type=int, help="total number of forms (fixed coordinates + 1)")
        p.add_argument("--alpha", action="append", metavar="CONSTRUCTOR",
                       help="rat:p/q | sqrt:m | dec:string (repeat per coordinate)")
        p.add_argument("--gamma", action="append", metavar="CONSTRUCTOR",
                       help="inhomogeneous shift per coordinate (omit for homogeneous)")
        p.add_argument("--N", type=int, required=True, help="box bound")
        p.add_argument("--delta", action="append", metavar="WIDTH",
                       help="width per coordinate (single value broadcasts)")
        p.add_argument("--eps", default="1/20", help="restriction exponent (fraction or decimal)")
        p.add_argument("--scale", type=int, default=128, help="fixed point bits")
    if budget:
        p.add_argument("--budget", type=int, default=None, help="enumeration budget")
    p.add_argument("--out", default=None, metavar="DIR", help="write payload/manifest here")
    p.add_argument("--config", default=None, metavar="FILE",
                   help="key=value file supplying flag defaults")


def _add_psi(p):
    p.add_argument("--psi", default="log", choices=("log", "loglog", "power", "table"))
    p.add_argument("--psi-c", dest="psi_c", type=float, default=1.0)
    p.add_argument("--psi-k", dest="psi_k", type=int, default=None,
                   help="logarithm power (defaults to the number of forms k)")
    p.add_argument("--psi-a", dest="psi_a", type=float, default=1.0)
    p.add_argument("--psi-table", dest="psi_table", type=_csv_floats, default=None)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="bohrgap", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--version", action="version", version=f"bohrgap {__version__}")
    groups = top.add_subparsers(dest="group", required=True)

    bohr = groups.add_parser("bohr", help="Bohr set enumeration and lifting")
    bohr_sub = bohr.add_subparsers(dest="sub", required=True)
    p = bohr_sub.add_parser("enumerate")
    _add_common(p)
    p.add_argument("--mode", default="symmetric", choices=("symmetric", "positive"))
    p.set_defaults(handler=cmd_bohr_enumerate, command_path="bohr enumerate")
    p = bohr_sub.add_parser("lift")
    _add_common(p)
    p.add_argument("--n", type=int, required=True, help="integer to lift")
    p.set_defaults(handler=cmd_bohr_lift, command_path="bohr lift")
    p = bohr_sub.add_parser("restrict")
    _add_common(p)
    p.set_defaults(handler=cmd_bohr_restrict, command_path="bohr restrict")

    p = groups.add_parser("minima", help="reduced successive minima of the normalized body")
    _add_common(p)
    p.set_defaults(handler=cmd_minima, command_path="minima")

    gap = groups.add_parser("gap", help="inner/outer progression structure")
    gap_sub = gap.add_subparsers(dest="sub", required=True)
    p = gap_sub.add_parser("inner")
    _add_common(p)
    p.set_defaults(handler=cmd_gap_inner, command_path="gap inner")
    p = gap_sub.add_parser("outer")
    _add_common(p)
    p.add_argument("--ck", type=float, default=None, help="override the outer length constant")
    p.set_defaults(handler=cmd_gap_outer, command_path="gap outer")
    p = gap_sub.add_parser("verify")
    _add_common(p)
    p.add_argument("--form", default="inner", choices=("inner", "outer"))
    p.add_argument("--ck", type=float, default=None)
    p.add_argument("--limit", type=int, default=10**4, help="containment checks cap")
    p.set_defaults(handler=cmd_gap_verify, command_path="gap verify")

    count = groups.add_parser("count", help="lattice counting and totient densities")
    count_sub = count.add_subparsers(dest="sub", required=True)
    p = count_sub.add_parser("davenport")
    _add_common(p, spec=False)
    p.add_argument("--box", type=_csv_ints, required=True, help="half side lengths N_1,..,N_d")
    p.add_argument("--moduli", type=_csv_ints, default=None, help="congruence coefficients")
    p.add_argument("--p", type=int, default=None, help="congruence prime")
    p.set_defaults(handler=cmd_count_davenport, command_path="count davenport")
    p = count_sub.add_parser("alphap")
    _add_common(p)
    p.add_argument("--pmax", type=int, default=100, help="densities for primes up to this")
    p.set_defaults(handler=cmd_count_alphap, command_path="count alphap")
    p = count_sub.add_parser("totient")
    _add_common(p)
    p.add_argument("--no-restrict", dest="no_restrict", action="store_true",
                   help="average over the positive Bohr set instead of the restricted one")
    p.set_defaults(handler=cmd_count_totient, command_path="count totient")

    sums = groups.add_parser("sums", help="restricted reciprocal-distance sums")
    sums_sub = sums.add_subparsers(dest="sub", required=True)
    p = sums_sub.add_parser("t")
    _add_common(p)
    p.add_argument("--no-restrict", dest="no_restrict", action="store_true")
    p.add_argument("--checkpoints", type=_csv_ints, default=None)
    p.set_defaults(handler=cmd_sums_t, command_path="sums t")
    p = sums_sub.add_parser("dyadic")
    _add_common(p)
    p.add_argument("--no-restrict", dest="no_restrict", action="store_true")
    p.set_defaults(handler=cmd_sums_dyadic, command_path="sums dyadic")
    p = sums_sub.add_parser("dscheck")
    _add_common(p)
    _add_psi(p)
    p.add_argument("--checkpoints", type=_csv_ints, default=None)
    p.set_defaults(handler=cmd_sums_dscheck, command_path="sums dscheck")

    p = groups.add_parser("exponents", help="finite-horizon approximation exponent estimators")
    p.add_argument("--alpha", action="append", required=True)
    p.add_argument("--gamma", action="append")
    p.add_argument("--scale", type=int, default=128)
    p.add_argument("--n-max", dest="n_max", type=int, default=10**6)
    p.add_argument("--h-max", dest="h_max", type=int, default=2000)
    p.add_argument("--x-list", dest="x_list", type=_csv_ints, default=None)
    _add_common(p, spec=False, budget=False)
    p.set_defaults(handler=cmd_exponents, command_path="exponents")

    exp = groups.add_parser("experiment", help="seeded Monte-Carlo fibre experiments")
    exp_sub = exp.add_subparsers(dest="sub", required=True)
    p = exp_sub.add_parser("gallagher")
    _add_common(p)
    _add_psi(p)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoints", type=_csv_ints, default=None)
    p.set_defaults(handler=cmd_experiment_gallagher, command_path="experiment gallagher")

    p = groups.add_parser("rerun", help="replay a manifest")
    p.add_argument("manifest", help="path to manifest.json from a previous --out run")
    p.add_argument("--out", default=None, metavar="DIR")
    p.set_defaults(handler=None, command_path="rerun")

    return top


# -- config files and manifest replay ------------------------------------------------


def _read_text(path: str, what: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise ValidationError(f"cannot read {what} {path!r}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ValidationError(f"{what} {path!r} is not text: {e}") from None


def _read_config(path: str) -> dict:
    cfg = {}
    for raw in _read_text(path, "config file").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line without '=': {raw.strip()!r}")
        key, val = line.split("=", 1)
        cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


def _config_tokens(cfg: dict) -> list[str]:
    tokens = []
    for key, val in sorted(cfg.items()):
        flag = "--" + key.replace("_", "-")
        if isinstance(val, bool):
            if val:
                tokens.append(flag)
            continue
        if key in _APPEND_DESTS:
            vals = val if isinstance(val, list) else [v.strip() for v in str(val).split(",")]
            for v in vals:
                tokens.extend([flag, str(v)])
            continue
        if isinstance(val, list):
            tokens.extend([flag, ",".join(str(v) for v in val)])
            continue
        tokens.extend([flag, str(val)])
    return tokens


def _apply_config_file(argv: list[str]) -> list[str]:
    """Splice the file of --config FILE (or --config=FILE) into argv."""
    argv = [part for t in argv for part in (t.split("=", 1) if t.startswith("--config=") else [t])]
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv) or not argv[i + 1]:
        raise ValidationError("--config needs a path")
    cfg = _read_config(argv[i + 1])
    rest = argv[:i] + argv[i + 2 :]
    present = {t.split("=", 1)[0].lstrip("-").replace("-", "_") for t in rest if t.startswith("--")}
    cfg = {k: v for k, v in cfg.items() if k not in present}
    # config tokens go right after the command words so flags stay grouped
    head = 0
    while head < len(rest) and not rest[head].startswith("-"):
        head += 1
    return rest[:head] + _config_tokens(cfg) + rest[head:]


def _replay_argv(ns) -> list[str]:
    """The command line a manifest records, with rerun's own --out."""
    path = ns.manifest
    try:
        manifest = json.loads(_read_text(path, "manifest"))
    except json.JSONDecodeError as e:
        raise ValidationError(f"manifest {path!r} is not JSON: {e}") from None
    if not (
        isinstance(manifest, dict)
        and isinstance(manifest.get("command"), str)
        and isinstance(manifest.get("config"), dict)
    ):
        raise ValidationError(f"manifest {path!r} lacks a 'command' string and a 'config' object")
    command = manifest["command"].split()
    if command[:1] == ["rerun"]:
        raise ValidationError(f"manifest {path!r} replays another rerun")
    argv = command + _config_tokens(manifest["config"])
    if ns.out:
        argv += ["--out", ns.out]
    return argv


# -- entry point -----------------------------------------------------------------------


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser()
        ns = parser.parse_args(_apply_config_file(argv))
        if ns.command_path == "rerun":
            ns = parser.parse_args(_replay_argv(ns))
        if getattr(ns, "config", None) is not None:  # argparse took a prefix that was not spliced
            flags = [f for f in (t.partition("=")[0] for t in argv) if f.startswith("--c") and "--config".startswith(f)]
            raise ValidationError(f"{flags[0] if flags else 'a prefix'} abbreviates --config; spell it out to read the file")
        if getattr(ns, "budget", None) is not None and ns.budget < 1:
            raise ValidationError("--budget must be >= 1")
        t0 = time.perf_counter()
        try:
            out = ns.handler(ns)
        except ConstructionError as e:
            out = RunOutput(
                {"status": "failed", "error_path": type(e).__name__, "message": str(e)},
                None,
                [f"construction failed via {type(e).__name__}: {e}"],
            )
        _emit(ns, out, time.perf_counter() - t0)
        return 0
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 2
    except (BudgetExceeded, PrecisionExhausted) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
