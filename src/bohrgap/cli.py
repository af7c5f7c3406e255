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
import decimal
import gc
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
    from .realfield import BohrSpec

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
    """A handler's payload, its table (header, rows) for table.csv or None,
    and its summary lines."""

    def __init__(self, payload: dict, table: Optional[tuple] = None, summary=()):
        self.payload = payload
        self.table = table
        self.summary = list(summary)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def _table_csv(header, rows) -> str:
    """table.csv: floats to 12 significant digits, None empty, str() otherwise."""
    return "".join(",".join(map(_csv_cell, row)) + "\n" for row in [header, *rows])


def _config_echo(ns: argparse.Namespace) -> dict:
    skip = {"out", "config", "command_path", "group", "sub"}
    return {key: val for key, val in sorted(vars(ns).items()) if key not in skip and val is not None}


def _emit(ns: argparse.Namespace, out: RunOutput, elapsed: float) -> None:
    for line in out.summary:
        print(line)
    payload_text = json.dumps(_jsonable(out.payload), indent=2, sort_keys=True) + "\n"
    if not ns.out:
        sys.stdout.write(payload_text)
        return
    manifest = {
        "command": ns.command_path,
        "config": _jsonable(_config_echo(ns)),
        "version": __version__,
        "timings": {"wall_s": round(elapsed, 6)},
    }
    files = {"payload.json": payload_text, "table.csv": None if out.table is None else _table_csv(*out.table),
             "manifest.json": json.dumps(manifest, indent=2, sort_keys=True) + "\n"}
    try:
        os.makedirs(ns.out, exist_ok=True)
        for name, text in files.items():
            if text is not None:
                with open(os.path.join(ns.out, name), "w") as fh:
                    fh.write(text)
    except OSError as e:
        raise ValidationError(f"cannot write --out {ns.out!r}: {e.strerror}") from None


# -- spec construction ------------------------------------------------------------


def _spec_from(ns: argparse.Namespace) -> BohrSpec:
    from .realfield import BohrSpec

    alphas = ns.alpha or []
    if not alphas:
        raise ValidationError("at least one --alpha constructor is required")
    if ns.k is not None and ns.k != len(alphas) + 1:
        raise ValidationError(
            f"k = {ns.k} disagrees with {len(alphas)} fixed coordinates (k counts the sampled form too)"
        )
    deltas = list(ns.delta) if ns.delta else ["1"]
    if len(deltas) == 1 and len(alphas) > 1:
        deltas = deltas * len(alphas)
    gamma = list(ns.gamma) if ns.gamma else None
    try:
        eps = Fraction(ns.eps)
    except (ValueError, ZeroDivisionError) as e:
        raise ValidationError(f"bad epsilon {ns.eps!r}: {e}") from e
    return BohrSpec.build(alphas, gamma, ns.N, deltas, eps, ns.scale)


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
    d["members_omitted"] = d["cardinality"] > member_cap
    if d["members_omitted"]:
        d["members"] = None
    return d


def _digits25(x: Fraction) -> str:
    """x >= 0 to 25 significant digits, rounded half-even, in fixed notation
    without trailing zeros ("0.0", "1.0", "0.5")."""
    q = decimal.Context(prec=25).divide(x.numerator, x.denominator)
    whole, _, frac = format(q, "f").partition(".")
    return f"{whole}.{frac.rstrip('0') or '0'}"


# -- handlers ---------------------------------------------------------------------


def cmd_bohr_enumerate(ns) -> RunOutput:
    from .bohr import enumerate_bohr

    spec = _spec_from(ns)
    bset = enumerate_bohr(spec, ns.mode)
    return RunOutput(_bohr_payload(bset), None, [f"#B = {bset.cardinality} (mode {ns.mode}, N = {spec.N})"])


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
    payload = {**_bohr_payload(bset), "restricted": True, "eps": str(spec.epsilon)}
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
    """(spec, GAP, the inner form's (certificate, sorted elements) or None)."""
    from .gap import _inner_gap, outer_gap

    spec = _spec_from(ns)
    if form == "inner":
        return spec, *_inner_gap(spec, ns.budget or 10**8)
    return spec, outer_gap(spec, getattr(ns, "ck", None), ns.budget or 10**8), None


def cmd_gap(ns) -> RunOutput:
    g = _gap_build(ns, ns.sub)[1]
    return RunOutput(g.to_dict(), None, list(g.trace))


def cmd_gap_verify(ns) -> RunOutput:
    from .gap import _proper_sorted, cardinality_ratio

    if ns.limit < 0:
        raise ValidationError("--limit must be >= 0")
    if ns.form == "inner" and ns.ck is not None:
        raise ValidationError("--ck needs --form outer")
    spec, g, box = _gap_build(ns, ns.form)
    # inner_gap classified every element (and raises on an improper box), and
    # outer_gap ran the lift check on every member of B^0, with this budget;
    # both raise on any failure, so the first --limit pass too
    if ns.form == "inner":
        proper, checked = box[0], min(ns.limit, len(box[1]))
    else:
        # only the certificate outlives the box: cardinality_ratio scans next
        proper = _proper_sorted(g, ns.budget or 10**8)[0]
        checked = min(ns.limit, g.checks["bohr_cardinality"])
    card = cardinality_ratio(spec)
    payload = {
        "form": ns.form,
        "gap": g.to_dict(),
        "proper": proper.to_dict(),
        "containment": {"checked": checked, "violations": 0},
        "cardinality": card,
    }
    return RunOutput(payload, None, [f"verify {ns.form}: ok ({checked} containment checks)"])


def cmd_count_davenport(ns) -> RunOutput:
    from .counting import congruence_lattice, davenport_count

    if bool(ns.moduli) != (ns.p is not None):
        raise ValidationError("--moduli needs --p" if ns.moduli else "--p needs --moduli")
    lattice = congruence_lattice(tuple(ns.moduli), ns.p) if ns.moduli else None
    cert = davenport_count(tuple(ns.box), lattice, ns.budget or 10**8)
    summary = [
        f"count = {cert.count}, main term = {cert.main_term}, "
        f"|discrepancy| = {cert.discrepancy}, bound = {cert.bound:.6g}"
    ]
    table = (("box", "count", "main_term", "discrepancy", "bound", "realized_ratio"),
             [("x".join(map(str, cert.box)), cert.count, cert.main_term, cert.discrepancy,
               cert.bound, cert.realized_ratio)])
    return RunOutput(cert.to_dict(), table, summary)


def cmd_count_alphap(ns) -> RunOutput:
    from .counting import alpha_p_table
    from .gap import inner_gap

    spec = _spec_from(ns)
    g = inner_gap(spec, ns.budget) if ns.budget else inner_gap(spec)
    rows = alpha_p_table(g, ns.pmax, spec.epsilon, ns.budget or 10**8)
    payload = {
        "p_max": ns.pmax,
        "eps": str(spec.epsilon),
        "rows": rows,  # alpha_p, a Fraction, is written as a string
    }
    worst = max((r["p_eps_weighted"] for r in rows), default=0.0)
    header = ("p", "alpha_p", "alpha_p_float", "p_eps_weighted", "reference_bound", "excess")
    table = (header, [tuple(r[h] for h in header) for r in rows])
    return RunOutput(payload, table, [f"{len(rows)} primes, max alpha_p * p^eps = {worst:.6g}"])


def cmd_count_totient(ns) -> RunOutput:
    from .bohr import enumerate_bohr, restricted_bohr
    from .counting import totient_average

    spec = _spec_from(ns)
    bset = enumerate_bohr(spec, "positive") if ns.no_restrict else restricted_bohr(spec)
    members = [int(n) for n in bset.members]
    avg = totient_average(members)
    digits = _digits25(avg)
    payload = {
        "cardinality": len(members),
        "restricted": not ns.no_restrict,
        "sum_phi_over_n": {
            "decimal": digits,
            "float": float(avg),
            "num_mod_m61": avg.numerator % _M61,
            "den_mod_m61": avg.denominator % _M61,
            "modulus": "2^61-1",
        },
    }
    return RunOutput(payload, None, [f"sum phi(n)/n over {len(members)} elements = {digits}"])


def cmd_sums_t(ns) -> RunOutput:
    from .sums import sum_series

    spec = _spec_from(ns)
    cps = ns.checkpoints or [ns.N]
    rows = sum_series(spec, cps, restrict=not ns.no_restrict)
    header = ("N", "T", "T_star", "ratio_T", "ratio_star", "eps", "k")
    table = (header, [tuple(r[h] for h in header) for r in rows])
    summary = [
        f"T({r['N']}) = {r['T']:.12g}   T*({r['N']}) = {r['T_star']:.12g}   "
        f"T*/T = {r['ratio_star']:.6g}"
        for r in rows
    ]
    return RunOutput({"rows": rows, "restricted": not ns.no_restrict}, table, summary)


def cmd_sums_dyadic(ns) -> RunOutput:
    from .sums import dyadic_table, support_mask, t_sum, trivial_mask

    spec = _spec_from(ns)
    mask = trivial_mask(ns.N) if ns.no_restrict else support_mask(spec, ns.N)
    dt = dyadic_table(spec, mask)
    t = t_sum(spec, mask)
    sandwich = bool(dt.low_sum() <= t.value <= dt.high_sum())
    payload = {**dt.to_dict(), "restricted": not ns.no_restrict, "T": t.value, "sandwich_holds": sandwich}
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
    from .exponents import exponent_report
    from .realfield import RealSpec, TargetVector

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
    from .sums import gallagher_experiment

    spec = _spec_from(ns)
    psi = _psi_from(ns, spec.k)
    res = gallagher_experiment(spec, psi, ns.samples, ns.N, ns.seed, ns.checkpoints)
    final = res.checkpoints[-1]
    table = (("sample_id", "alpha_k", "hits", "first_witness", "runmin"),
             [(r["sample_id"], r["alpha_k"], r["hits"][final], r["first_witness"], r["runmin"][final])
              for r in res.rows])
    summary = [
        f"hit fraction = {res.hit_fraction:.4g} over {ns.samples} samples",
        "median hits: "
        + ", ".join(f"N={cp}: {res.median_hits[cp]:g}" for cp in res.checkpoints),
    ]
    return RunOutput(res.to_dict(), table, summary)


# -- argument wiring ---------------------------------------------------------------


def _arg(*names, **kw):
    return names, kw


_SPEC = (
    _arg("--k", type=int, help="total number of forms (fixed coordinates + 1)"),
    _arg("--alpha", action="append", metavar="CONSTRUCTOR",
         help="rat:p/q | sqrt:m | dec:string (repeat per coordinate)"),
    _arg("--gamma", action="append", metavar="CONSTRUCTOR",
         help="inhomogeneous shift per coordinate (omit for homogeneous)"),
    _arg("--N", type=int, required=True, help="box bound"),
    _arg("--delta", action="append", metavar="WIDTH", help="width per coordinate (single value broadcasts)"),
    _arg("--eps", default="1/20", help="restriction exponent (fraction or decimal)"),
    _arg("--scale", type=int, default=128, help="fixed point bits"),
)
_BUDGET = (_arg("--budget", type=int, default=None, help="enumeration budget"),)
_FILES = (
    _arg("--out", default=None, metavar="DIR", help="write payload/manifest here"),
    _arg("--config", default=None, metavar="FILE", help="key=value file supplying flag defaults"),
)
_COMMON = _SPEC + _BUDGET + _FILES
_PSI = (
    _arg("--psi", default="log", choices=("log", "loglog", "power", "table")),
    _arg("--psi-c", type=float, default=1.0),
    _arg("--psi-k", type=int, default=None, help="logarithm power (defaults to the number of forms k)"),
    _arg("--psi-a", type=float, default=1.0),
    _arg("--psi-table", type=_csv_floats, default=None),
)
_NO_RESTRICT = _arg("--no-restrict", action="store_true")
_CHECKPOINTS = _arg("--checkpoints", type=_csv_ints, default=None)

# the help of each top-level name, in the order --help lists them
_GROUPS = {
    "bohr": "Bohr set enumeration and lifting",
    "minima": "reduced successive minima of the normalized body",
    "gap": "inner/outer progression structure",
    "count": "lattice counting and totient densities",
    "sums": "restricted reciprocal-distance sums",
    "exponents": "finite-horizon approximation exponent estimators",
    "experiment": "seeded Monte-Carlo fibre experiments",
    "rerun": "replay a manifest",
}

# command path -> (handler, its arguments in --help order); main replays rerun
_COMMANDS = {
    "bohr enumerate": (cmd_bohr_enumerate, _COMMON + (
        _arg("--mode", default="symmetric", choices=("symmetric", "positive")),)),
    "bohr lift": (cmd_bohr_lift, _COMMON + (_arg("--n", type=int, required=True, help="integer to lift"),)),
    "bohr restrict": (cmd_bohr_restrict, _COMMON),
    "minima": (cmd_minima, _COMMON),
    "gap inner": (cmd_gap, _COMMON),
    "gap outer": (cmd_gap, _COMMON + (
        _arg("--ck", type=float, default=None, help="override the outer length constant"),)),
    "gap verify": (cmd_gap_verify, _COMMON + (
        _arg("--form", default="inner", choices=("inner", "outer")),
        _arg("--ck", type=float, default=None),
        _arg("--limit", type=int, default=10**4, help="containment checks cap"),
    )),
    "count davenport": (cmd_count_davenport, _BUDGET + _FILES + (
        _arg("--box", type=_csv_ints, required=True, help="half side lengths N_1,..,N_d"),
        _arg("--moduli", type=_csv_ints, default=None, help="congruence coefficients"),
        _arg("--p", type=int, default=None, help="congruence prime"),
    )),
    "count alphap": (cmd_count_alphap, _COMMON + (
        _arg("--pmax", type=int, default=100, help="densities for primes up to this"),)),
    "count totient": (cmd_count_totient, _COMMON + (
        _arg("--no-restrict", action="store_true",
             help="average over the positive Bohr set instead of the restricted one"),)),
    "sums t": (cmd_sums_t, _COMMON + (_NO_RESTRICT, _CHECKPOINTS)),
    "sums dyadic": (cmd_sums_dyadic, _COMMON + (_NO_RESTRICT,)),
    "sums dscheck": (cmd_sums_dscheck, _COMMON + _PSI + (_CHECKPOINTS,)),
    "exponents": (cmd_exponents, (
        _arg("--alpha", action="append", required=True), _arg("--gamma", action="append"),
        _arg("--scale", type=int, default=128), _arg("--n-max", type=int, default=10**6),
        _arg("--h-max", type=int, default=2000), _arg("--x-list", type=_csv_ints, default=None),
    ) + _FILES),
    "experiment gallagher": (cmd_experiment_gallagher, _COMMON + _PSI + (
        _arg("--samples", type=int, default=200),
        _arg("--seed", type=int, default=0),
        _CHECKPOINTS,
    )),
    "rerun": (None, (_arg("manifest", help="path to manifest.json from a previous --out run"),
                     _arg("--out", default=None, metavar="DIR"))),
}


def build_parser() -> argparse.ArgumentParser:
    """Every group and command with its help, but no command's arguments:
    _parse adds those for the command a line runs."""
    top = argparse.ArgumentParser(prog="bohrgap", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--version", action="version", version=f"bohrgap {__version__}")
    groups = top.add_subparsers(dest="group", required=True)
    subs, top.commands = {}, {}
    for path in _COMMANDS:
        group, _, sub = path.partition(" ")
        if group not in subs:
            p = groups.add_parser(group, help=_GROUPS[group])
            subs[group] = p.add_subparsers(dest="sub", required=True) if sub else None
        if sub:
            p = subs[group].add_parser(sub)
        p.set_defaults(command_path=path)
        top.commands[path] = p
    return top


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Give the command that argv names its arguments, then parse argv.

    The command is read from the first words of argv that are not flags:
    argparse takes the same words for its group and subcommand, or stops
    at them with an error.
    """
    words = [t for t in argv if not t.startswith("-")][:2]
    path = words[0] if words[:1] and words[0] in _COMMANDS else " ".join(words)
    if path in _COMMANDS:
        for names, kw in _COMMANDS[path][1]:
            parser.commands[path].add_argument(*names, **kw)
    return parser.parse_args(argv)


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
        ns = _parse(parser, _apply_config_file(argv))
        if ns.command_path == "rerun":
            ns = _parse(parser, _replay_argv(ns))
        if getattr(ns, "config", None) is not None:  # argparse took a prefix that was not spliced
            flags = [f for f in (t.partition("=")[0] for t in argv) if f.startswith("--c") and "--config".startswith(f)]
            raise ValidationError(f"{flags[0] if flags else 'a prefix'} abbreviates --config; spell it out to read the file")
        if getattr(ns, "budget", None) is not None and ns.budget < 1:
            raise ValidationError("--budget must be >= 1")
        t0 = time.perf_counter()
        try:
            # by name, so a handler rebound on the module (a tracer's) is the one run
            out = globals()[_COMMANDS[ns.command_path][0].__name__](ns)
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


def entry() -> int:
    """main() for a `bohrgap` process: the cyclic collector stays paused and
    the heap is frozen however main() ends, so neither loading nor shutdown
    collects.  A command makes few cycles; reference counting frees the rest."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()
