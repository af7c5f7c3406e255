"""Command line front end: exit codes, payload shapes, manifest replay."""

import ast
import gc
import hashlib
import importlib
import json
import math
import os
import runpy
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bohrgap
import bohrgap.cli
from bohrgap.bohr import BohrSpec, enumerate_bohr, restricted_bohr
from bohrgap.cli import _digits25, _jsonable, main
from bohrgap.counting import totient_average
from fractions import Fraction as Q
from test_cli_pins import _run as in_process


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload_of(out: str) -> dict:
    i = out.find("{")
    assert i >= 0, out
    return json.loads(out[i:])


# -- documented examples ------------------------------------------------------


def test_t42_example(capsys):
    code, out, _ = run_cli(
        capsys, "sums", "t", "--k", "2", "--alpha", "rat:1/3", "--gamma", "rat:1/2",
        "--N", "9", "--no-restrict",
    )
    assert code == 0
    assert "T(9) = 42" in out
    d = payload_of(out)
    assert d["rows"][0]["T"] == 42.0


def test_gap_inner_example(capsys):
    code, out, _ = run_cli(
        capsys, "gap", "inner", "--k", "2", "--alpha", "sqrt:2",
        "--N", "100000", "--delta", "0.1", "--eps", "0.05",
    )
    assert code == 0
    d = payload_of(out)
    assert d["b"] == 2547
    assert d["moduli"] == [408, 985]
    assert d["checks"]["containment"] is True
    assert "basis" in out  # human-readable trace precedes the payload


def test_inner_delta_validation_exit2(capsys):
    code, out, err = run_cli(
        capsys, "gap", "inner", "--alpha", "sqrt:2", "--N", "100000", "--delta", "1.5",
    )
    assert code == 2
    assert "delta <= 1" in err and "inner window" in err


def test_construction_failure_is_data(capsys):
    code, out, _ = run_cli(
        capsys, "gap", "inner", "--alpha", "rat:1/2", "--N", "100000", "--delta", "0.1",
    )
    assert code == 0
    d = payload_of(out)
    assert d["status"] == "failed"
    assert d["error_path"] == "LengthUnderflow"


def test_budget_exit3(capsys):
    code, _, err = run_cli(
        capsys, "sums", "t", "--alpha", "sqrt:2", "--N", str(3 * 10**7), "--no-restrict",
    )
    assert code == 3
    assert "budget" in err.lower()


# -- payload correctness against the library -------------------------------------


def test_bohr_enumerate_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "bohr", "enumerate", "--alpha", "sqrt:2", "--N", "1000", "--delta", "0.1",
    )
    assert code == 0
    d = payload_of(out)
    spec = BohrSpec.build(["sqrt:2"], None, 1000, ["0.1"])
    bset = enumerate_bohr(spec, "symmetric")
    assert d["cardinality"] == bset.cardinality
    assert d["members"] == [int(n) for n in bset.members]
    assert not d["members_omitted"]


def test_bohr_lift(capsys):
    code, out, _ = run_cli(
        capsys, "bohr", "lift", "--alpha", "sqrt:2", "--N", "1000", "--delta", "0.1",
        "--n", "169",
    )
    assert code == 0
    d = payload_of(out)
    assert d["member"] is True
    assert d["lifts"] == [[169, 239]]


def test_minima_payload(capsys):
    code, out, _ = run_cli(
        capsys, "minima", "--alpha", "sqrt:2", "--N", "100000", "--delta", "0.1",
    )
    assert code == 0
    d = payload_of(out)
    assert d["vol_s"] == "1/25"
    assert d["minima"]["basis"] == [[408, 577], [985, 1393]]


def test_gap_verify_both_forms(capsys):
    code, out, _ = run_cli(
        capsys, "gap", "verify", "--alpha", "sqrt:2", "--N", "100000", "--delta", "0.1",
        "--form", "inner",
    )
    assert code == 0
    d = payload_of(out)
    assert d["containment"]["violations"] == 0
    assert d["proper"]["proper"] is True
    assert "verify inner: ok" in out

    code, out, _ = run_cli(
        capsys, "gap", "verify", "--alpha", "sqrt:2", "--N", "10000", "--delta", "0.3",
        "--form", "outer", "--limit", "300",
    )
    assert code == 0
    d = payload_of(out)
    assert d["containment"] == {"checked": 300, "violations": 0}
    assert "verify outer: ok" in out


def test_gap_verify_outer_reports_the_outer_check(capsys):
    # checked is min(--limit, #B^0): outer_gap has lifted every member
    argv = ["gap", "verify", "--alpha", "sqrt:2", "--N", "10000", "--delta", "0.3", "--form", "outer"]
    code, out, _ = run_cli(capsys, *argv, "--limit", "1000000")
    assert code == 0
    d = payload_of(out)
    card = enumerate_bohr(BohrSpec.build(["sqrt:2"], None, 10000, ["0.3"]), "symmetric").cardinality
    assert d["gap"]["checks"]["bohr_cardinality"] == card
    assert d["containment"] == {"checked": card, "violations": 0}
    code, out, _ = run_cli(capsys, *argv, "--limit", "0")
    assert code == 0 and payload_of(out)["containment"] == {"checked": 0, "violations": 0}


@pytest.mark.parametrize("form", ["inner", "outer"])
def test_gap_verify_rejects_a_negative_limit(capsys, form):
    code, out, err = run_cli(
        capsys, "gap", "verify", "--form", form, "--k", "2", "--alpha", "sqrt:2",
        "--N", "10000", "--delta", "0.3", "--limit", "-5",
    )
    assert code == 2
    assert "--limit must be >= 0" in err


def test_count_davenport_csv(capsys, tmp_path):
    out_dir = tmp_path / "dav"
    code, out, _ = run_cli(
        capsys, "count", "davenport", "--box", "2,2", "--moduli", "1,1", "--p", "2",
        "--out", str(out_dir),
    )
    assert code == 0
    csv = (out_dir / "table.csv").read_text()
    assert csv.splitlines()[0] == "box,count,main_term,discrepancy,bound,realized_ratio"
    assert csv.splitlines()[1].startswith("2x2,13,8,5,")
    d = json.loads((out_dir / "payload.json").read_text())
    assert d["count"] == 13


def test_count_totient_decimal(capsys):
    code, out, _ = run_cli(
        capsys, "count", "totient", "--alpha", "sqrt:2", "--N", "10000", "--delta", "0.5",
    )
    assert code == 0
    d = payload_of(out)
    spec = BohrSpec.build(["sqrt:2"], None, 10**4, ["0.5"], Q(1, 20))
    avg = totient_average([int(n) for n in restricted_bohr(spec).members])
    assert d["cardinality"] == 9993
    assert d["sum_phi_over_n"]["num_mod_m61"] == avg.numerator % ((1 << 61) - 1)
    assert d["sum_phi_over_n"]["den_mod_m61"] == avg.denominator % ((1 << 61) - 1)
    assert abs(d["sum_phi_over_n"]["float"] - float(avg)) < 1e-9
    assert d["sum_phi_over_n"]["decimal"].startswith("6074.72699279532")


def _mpmath_nstr25(x):
    """The totient decimal as first written: mpmath.nstr(x, 25) at 40 digits."""
    import mpmath

    with mpmath.workdps(40):
        return "0.0" if x == 0 else mpmath.nstr(mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator), 25)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 5000), max_size=40))
def test_totient_decimal_matches_mpmath_nstr(ns):
    # a sum of phi(n)/n has a squarefree reduced denominator, so it is never
    # a tie at the 26th digit; mpmath's 136-bit value could only differ by
    # double rounding within about 10^-40 of one
    avg = totient_average(ns)
    assert _digits25(avg) == _mpmath_nstr25(avg)


def test_totient_decimal_integers_and_values_below_one():
    for ns, want in [([], "0.0"), ([1], "1.0"), ([1, 1, 1], "3.0"), ([2], "0.5"), ([6], "0.3333333333333333333333333"),
                     ([1, 2], "1.5"), ([30], "0.2666666666666666666666667")]:
        avg = totient_average(ns)
        assert _digits25(avg) == _mpmath_nstr25(avg) == want, ns


def test_count_alphap(capsys):
    code, out, _ = run_cli(
        capsys, "count", "alphap", "--alpha", "sqrt:2", "--N", "100000", "--delta", "0.1",
        "--pmax", "20",
    )
    assert code == 0
    d = payload_of(out)
    ps = [r["p"] for r in d["rows"]]
    assert ps == [2, 3, 5, 7, 11, 13, 17, 19]
    assert all(r["excess"] <= 0 for r in d["rows"])


def test_sums_dyadic_sandwich(capsys):
    code, out, _ = run_cli(
        capsys, "sums", "dyadic", "--alpha", "sqrt:2", "--N", "10000",
    )
    assert code == 0
    d = payload_of(out)
    assert d["sandwich_holds"] is True
    assert d["restricted"] is True
    assert "sandwich:" in out


def test_sums_dscheck(capsys):
    code, out, _ = run_cli(
        capsys, "sums", "dscheck", "--alpha", "sqrt:2", "--alpha", "sqrt:3",
        "--N", "10000", "--checkpoints", "1000,10000",
    )
    assert code == 0
    d = payload_of(out)
    assert d["all_L_le_U"] is True
    assert [r["N"] for r in d["rows"]] == [1000, 10000]


def test_exponents_rational_infinite_witness(capsys):
    code, out, _ = run_cli(
        capsys, "exponents", "--alpha", "rat:1/3", "--n-max", "1000", "--h-max", "50",
        "--x-list", "100,1000",
    )
    assert code == 0
    d = payload_of(out)
    assert d["omega_lower"]["value"] is None  # witnesses, never numbers
    assert d["omega_lower"]["infinite_witness"] == 3
    assert d["omega_star_lower"]["infinite_witness"] == [3]


def test_experiment_gallagher_deterministic(capsys):
    args = (
        "experiment", "gallagher", "--alpha", "sqrt:2", "--N", "2000",
        "--samples", "3", "--seed", "1",
    )
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    d = payload_of(out1)
    assert d["params"]["seed"] == 1
    assert len(d["rows"]) == 3


# -- manifests, configs, replay -----------------------------------------------------


def test_manifest_rerun_byte_identical(capsys, tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    code, _, _ = run_cli(
        capsys, "sums", "t", "--alpha", "sqrt:2", "--alpha", "sqrt:3",
        "--N", "10000", "--checkpoints", "1000,10000", "--out", d1,
    )
    assert code == 0
    code, _, _ = run_cli(capsys, "rerun", os.path.join(d1, "manifest.json"), "--out", d2)
    assert code == 0
    for name in ("payload.json", "table.csv"):
        a = open(os.path.join(d1, name), "rb").read()
        b = open(os.path.join(d2, name), "rb").read()
        assert a == b, name
    m1 = json.loads(open(os.path.join(d1, "manifest.json")).read())
    m2 = json.loads(open(os.path.join(d2, "manifest.json")).read())
    assert m1["config"] == m2["config"] and m1["version"] == m2["version"]


def test_manifest_rerun_inhomogeneous(capsys, tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    code, _, _ = run_cli(
        capsys, "bohr", "enumerate", "--alpha", "sqrt:2", "--alpha", "sqrt:3",
        "--gamma", "dec:0.3", "--gamma", "dec:0.7", "--N", "500",
        "--delta", "0.2", "--delta", "0.4", "--out", d1,
    )
    assert code == 0
    code, _, _ = run_cli(capsys, "rerun", os.path.join(d1, "manifest.json"), "--out", d2)
    assert code == 0
    a = open(os.path.join(d1, "payload.json"), "rb").read()
    assert a == open(os.path.join(d2, "payload.json"), "rb").read()
    cfg = json.loads(open(os.path.join(d1, "manifest.json")).read())["config"]
    assert cfg["gamma"] == ["dec:0.3", "dec:0.7"]
    assert cfg["delta"] == ["0.2", "0.4"]


def test_config_file_defaults_and_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = sqrt:2\nN = 1000\ndelta = 0.1\n# comment\nmode = positive\n")
    code, out, _ = run_cli(capsys, "bohr", "enumerate", "--config", str(cfg))
    assert code == 0
    assert "mode positive" in out
    # explicit flag beats the config value
    code, out, _ = run_cli(
        capsys, "bohr", "enumerate", "--config", str(cfg), "--mode", "symmetric",
    )
    assert code == 0
    assert "mode symmetric" in out


def test_config_equals_spelling_matches_separate_path(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = sqrt:2\ndelta = 0.1\nmode = positive\n")
    payloads = []
    for name, flag in (("a", ["--config", str(cfg)]), ("b", [f"--config={cfg}"])):
        out_dir = tmp_path / name
        code, out, err = run_cli(capsys, "bohr", "enumerate", *flag, "--N", "1000", "--out", str(out_dir))
        assert code == 0, err
        assert "mode positive" in out
        payloads.append((out_dir / "payload.json").read_bytes())
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("flag", [["--config="], ["--config"]])
def test_config_without_path_exit2(capsys, flag):
    code, out, err = run_cli(capsys, "bohr", "enumerate", "--N", "1000", *flag)
    assert code == 2 and out == ""
    assert err == "validation error: --config needs a path\n"


@pytest.mark.parametrize("spelling", ["--co", "--conf", "--conf="])
def test_config_abbreviation_exit2(capsys, tmp_path, spelling):
    # argparse takes any prefix of --config; the file would be silently ignored
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = sqrt:2\ndelta = 0.1\nmode = positive\n")
    flag = [spelling + str(cfg)] if spelling.endswith("=") else [spelling, str(cfg)]
    code, out, err = run_cli(capsys, "bohr", "enumerate", *flag, "--N", "1000")
    assert code == 2 and out == ""
    assert err.startswith("validation error:") and spelling.rstrip("=") in err and "--config" in err


@pytest.mark.parametrize("argv,bad", [
    (["bohr", "enumerate", "--k", "2", "--alpha", "sqrt:x", "--N", "100"], "'x'"),
    (["bohr", "enumerate", "--alpha", "sqrt:2.5", "--N", "100"], "'2.5'"),
    (["bohr", "enumerate", "--alpha", "sqrt:", "--N", "100"], "''"),
    (["bohr", "enumerate", "--alpha", "sqrt:2", "--gamma", "sqrt:y", "--N", "100"], "'y'"),
    (["exponents", "--alpha", "sqrt:x"], "'x'"),
    (["bohr", "enumerate", "--alpha", "sqrt:2", "--N", "100", "--eps", "abc"], "'abc'"),
    (["bohr", "enumerate", "--alpha", "sqrt:2", "--N", "100", "--eps", "1/0"], "'1/0'"),
])
def test_malformed_constructor_text_exit2(capsys, argv, bad):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("validation error: bad ") and bad in err and "Traceback" not in err


@pytest.mark.parametrize("budget", ["0", "-4"])
def test_budget_below_one_exit2(capsys, budget):
    code, out, err = run_cli(
        capsys, "gap", "inner", "--k", "2", "--alpha", "sqrt:2", "--N", "100000",
        "--delta", "0.1", "--budget", budget,
    )
    assert code == 2 and out == ""
    assert err == "validation error: --budget must be >= 1\n"

def test_rerun_parses_once(capsys, tmp_path, monkeypatch):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    argv = ["bohr", "enumerate", "--alpha", "sqrt:2", "--N", "300", "--delta", "0.1", "--out"]
    assert run_cli(capsys, *argv, d1)[0] == 0
    built = []
    real = bohrgap.cli.build_parser
    monkeypatch.setattr(bohrgap.cli, "build_parser", lambda: built.append(1) or real())
    assert run_cli(capsys, "rerun", os.path.join(d1, "manifest.json"), "--out", d2)[0] == 0
    assert built == [1]
    a = open(os.path.join(d1, "payload.json"), "rb").read()
    assert a == open(os.path.join(d2, "payload.json"), "rb").read()
    m1, m2 = (json.loads(open(os.path.join(d, "manifest.json")).read()) for d in (d1, d2))
    assert sorted(m1) == sorted(m2) == ["command", "config", "timings", "version"]
    assert {k: m1[k] for k in ("command", "config", "version")} == {
        k: m2[k] for k in ("command", "config", "version")
    }


@pytest.mark.parametrize("case", ["missing", "no-config", "not-json", "nested-rerun", "config-missing"])
def test_unreadable_rerun_and_config_inputs_exit2(capsys, tmp_path, case):
    path = tmp_path / "input.json"
    if case == "no-config":
        path.write_text(json.dumps({"command": "bohr enumerate", "version": "0.1.0"}))
    elif case == "not-json":
        path.write_text("alpha = sqrt:2\n")
    elif case == "nested-rerun":
        path.write_text(json.dumps({"command": "rerun", "config": {"manifest": str(path)}}))
    if case == "config-missing":
        argv = ["bohr", "enumerate", "--config", str(path)]
    else:
        argv = ["rerun", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("validation error:") and str(path) in err


@pytest.mark.parametrize(
    "case, strerror",
    [("a-file", "File exists"), ("proc", "No such file or directory"), ("payload-a-dir", "Is a directory")],
)
def test_unwritable_out_exit2(capsys, tmp_path, case, strerror):
    target = str(tmp_path / "out")
    if case == "a-file":  # os.makedirs refuses
        Path(target).write_text("")
    elif case == "proc":
        if not os.path.isdir("/proc/self"):
            pytest.skip("no procfs")
        target = "/proc/nope"
    else:  # open refuses
        os.makedirs(os.path.join(target, "payload.json"))
    code, out, err = run_cli(capsys, "sums", "t", "--k", "2", "--alpha", "rat:1/3", "--N", "9", "--out", target)
    assert code == 2 and out.startswith("T(9) = ")
    assert err == f"validation error: cannot write --out {target!r}: {strerror}\n"


# sha256 of payload.json for the lines whose payloads need no libm float
# (the libm lines are platform-dependent); a refactor must keep them byte for byte
PAYLOAD_PINS = {
    "gap inner --k 2 --alpha sqrt:19 --N 100000 --delta 0.1 --eps 0.05":
        "9729b983cb56e8be19494dc3bc4331ade6478dc94d5188614d6a1a3e78ab1f51",
    "gap outer --k 2 --alpha sqrt:10 --N 100000 --delta 0.1":
        "fe390db40707de0a1a23d002556e84fce157104af502d3b785f824023f30ecd1",
    "gap verify --form inner --k 2 --alpha sqrt:2 --N 100000 --delta 0.1":
        "b3f67b4b52997815a5aed24f5a10766fbdce6685d3968553c52a3446491f644d",
    "gap verify --form outer --k 2 --alpha sqrt:29 --N 100000 --delta 0.7":
        "36cc2e723fab4a4a992b17540dfa4b75c319e944f4cb0e5fc7715628759de550",
    "bohr enumerate --k 2 --alpha sqrt:5 --gamma dec:0.598 --N 10000 --delta 0.2":
        "8f449d6295a8493cd59e6af4f5b89ab48e7165d0b649ce432fa97a7bd2172da5",
    "minima --k 3 --alpha sqrt:2 --alpha sqrt:3 --N 100000 --delta 0.5 --delta 0.5":
        "4854ff329991383f274dd38b7b1e2ef8e5f22f2bfd77f83a76f58922c8040ad3",
    "count davenport --box 20,20 --moduli 1,1 --p 5":
        "fbd52a672ed4ec67c3b1c4b126f6faa15a3f529427ef2822b965553ee45b8afb",
    "count totient --k 2 --alpha sqrt:17 --N 100000 --delta 0.1":
        "4d32be5437300f8c265a0f3d2952b495d9c73299320672f6e922e2394587c971",
    "sums t --k 2 --alpha rat:1/3 --gamma rat:1/2 --N 9 --no-restrict":
        "c1474eedcd282c98569f2aecbf9a85fadd9b66907cef326242c2cdb8f7c3f57c",
    "sums dyadic --k 3 --alpha sqrt:2 --alpha sqrt:3 --N 10000 --delta 1 --delta 1":
        "656c3156cf573963b6045b5a7d55566968cd6d1287a319885f8c7d7789ab6921",
}


@pytest.mark.parametrize("line", list(PAYLOAD_PINS))
def test_payload_digest_pins(capsys, tmp_path, line):
    code, _, err = run_cli(capsys, *line.split(), "--out", str(tmp_path))
    assert code == 0, err
    digest = hashlib.sha256((tmp_path / "payload.json").read_bytes()).hexdigest()
    assert digest == PAYLOAD_PINS[line]

def test_k_mismatch_validation(capsys):
    code, _, err = run_cli(
        capsys, "sums", "t", "--k", "3", "--alpha", "sqrt:2", "--N", "100",
    )
    assert code == 2
    assert "k = 3" in err


def test_jsonable_encoding():
    enc = _jsonable(
        {"f": Q(1, 3), "inf": math.inf, "ninf": -math.inf, "nan": math.nan,
         "np": np.int64(7), "t": (1, 2), "ok": 1.5}
    )
    assert enc == {"f": "1/3", "inf": "inf", "ninf": "-inf", "nan": "nan",
                   "np": 7, "t": [1, 2], "ok": 1.5}


# -- what a process imports ------------------------------------------------------------

SRC = str(Path(__file__).resolve().parents[1] / "src")

# runs one command line (or only `import bohrgap` without arguments), then
# prints the bohrgap submodules, numpy, mpmath and hashlib the process has
# loaded, and the source lines of the bohrgap modules (the package included),
# which a process without cached bytecode compiles
_PROBE = """
import contextlib, io, json, sys
if sys.argv[1:]:
    from bohrgap.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[1:]) == 0
else:
    import bohrgap
ours = [m for name, m in sys.modules.items() if name == "bohrgap" or name.startswith("bohrgap.")]
print(json.dumps([sorted(
    m.removeprefix("bohrgap.") for m in sys.modules
    if m.startswith("bohrgap.") or m in ("numpy", "mpmath", "hashlib")
), sum(len(open(m.__file__).readlines()) for m in ours)]))
"""


def fresh_process(code, *argv):
    """The last stdout line, as JSON, of `python -c code argv...` run on src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


SPEC_K2 = ("--k", "2", "--alpha", "sqrt:2", "--N", "2000", "--delta", "0.1")


# the source-line totals are upper bounds: a command that starts loading, or
# growing, code it does not run fails here first
@pytest.mark.parametrize(
    "argv, expected, lines",
    [
        ((), set(), 98),
        (("bohr", "enumerate", *SPEC_K2), {"bohr", "numpy", "realfield", "scan"}, 1884),
        (("exponents", "--alpha", "sqrt:2", "--n-max", "1000", "--h-max", "50", "--x-list", "100"),
         {"exponents", "numpy", "realfield", "scan"}, 2033),
        # the exact-integer commands load neither numpy nor mpmath
        (("minima", *SPEC_K2), {"lattice", "minima", "realfield"}, 2326),
        (("gap", "outer", "--k", "2", "--alpha", "sqrt:2", "--N", "100000", "--delta", "0.1"),
         {"gap", "lattice", "minima", "realfield"}, 2860),
        # only the inner box is hashed
        (("gap", "inner", "--k", "2", "--alpha", "sqrt:2", "--N", "100000", "--delta", "0.1"),
         {"bohr", "gap", "hashlib", "lattice", "minima", "numpy", "realfield", "scan"}, 3442),
        (("count", "davenport", "--box", "20,20", "--moduli", "1,3", "--p", "7"),
         {"counting", "lattice"}, 1579),
        (("sums", "t", *SPEC_K2), {"bohr", "counting", "numpy", "realfield", "scan", "sums"}, 3059),
    ],
    ids=["import", "bohr-enumerate", "exponents", "minima", "gap-outer", "gap-inner", "count-davenport", "sums-t"],
)
def test_a_process_loads_only_what_its_command_runs(argv, expected, lines):
    loaded, compiled = fresh_process(_PROBE, *argv)
    if argv:
        expected = expected | {"cli", "errors"}
    assert set(loaded) == expected
    assert compiled <= lines


# -- peak memory of the block-pass lines ------------------------------------------------

# runs one command line, through main or through the process entry (or only
# the imports), and prints the peak RSS in kB.
# Linux carries the parent's RSS high-water mark into a child's ru_maxrss
# across fork and exec, so inside a large test process ru_maxrss reads the
# parent; VmHWM counts the child's own address space only
_PEAK = """
import contextlib, io, json, resource, runpy, sys
import numpy, bohrgap.sums
if sys.argv[1:]:
    how, argv = sys.argv[1], sys.argv[2:]
    with contextlib.redirect_stdout(io.StringIO()):
        if how == "entry":  # as `python -m bohrgap` runs it
            sys.argv[1:] = argv
            try:
                runpy.run_module("bohrgap", run_name="__main__")
            except SystemExit as e:
                assert e.code == 0, e.code
        else:
            from bohrgap.cli import main
            assert main(argv) == 0
try:
    with open("/proc/self/status") as fh:
        peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except OSError:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps(peak))
"""


@pytest.mark.parametrize(
    "line",
    [
        "sums dscheck --k 3 --alpha sqrt:2 --alpha sqrt:3 --N 1000000 --delta 1 --delta 1 --psi log",
        "experiment gallagher --k 2 --alpha sqrt:2 --N 1000000 --delta 1 --samples 2 --seed 7",
        "gap verify --form outer --k 2 --alpha sqrt:21 --N 100000 --delta 0.7",
        "gap inner --k 2 --alpha sqrt:2 --N 10000000 --delta 0.1",
    ],
    ids=["sums-dscheck", "experiment-gallagher", "gap-verify-outer", "gap-inner"],
)
def test_block_pass_lines_peak_within_16_mb_of_their_imports(tmp_path, line):
    # the sums and the totient table stream one scan block at a time: no
    # array spans all 10^6 n; the outer verify frees its box before the
    # cardinality scan and tests the shift injection member by member; the
    # inner construction counts its Bohr set instead of listing 10^7 n
    base = fresh_process(_PEAK)
    for how in ("main", "entry"):
        peak = fresh_process(_PEAK, how, *line.split(), "--out", str(tmp_path / how))
        assert peak - base < 16 * 1024, f"{how}: {(peak - base) / 1024:.1f} MB above the imports"


PUBLIC_NAMES = {
    "BohrSet", "BohrSpec", "all_lifts", "enumerate_bohr", "is_member", "lift_bohr",
    "restricted_bohr", "shift_injection_holds",
    "CongruenceLattice", "DavenportCertificate", "TotientTable", "alpha_p", "alpha_p_table",
    "congruence_lattice", "davenport_count", "euclidean_minima", "totient_average",
    "totient_sieve",
    "AmbiguousLift", "BasePointDrift", "BudgetExceeded", "ConstructionError", "LengthUnderflow",
    "MinimaDegenerate", "NoBasePoint", "PrecisionExhausted", "SmallDirichletWitness",
    "ValidationError",
    "ExponentReport", "TargetVector", "dual_exponent_est", "exponent_report",
    "mult_exponent_est", "multiplicative_hypothesis", "simult_exponent_est",
    "uniform_inhom_est",
    "GAP", "cardinality_ratio", "gap_elements", "inner_gap", "is_proper",
    "outer_gap",
    "ConvexBody", "MinimaResult", "build_body", "successive_minima",
    "FixedReal", "RealSpec",
    "ApproxFunction", "DyadicTable", "GallagherResult", "ModifiedPsi", "SumResult",
    "SupportMask", "ds_hypothesis_check", "dyadic_table", "eta_split_check",
    "gallagher_experiment", "psi_family", "psi_modified", "sum_series", "support_mask",
    "t_star_sum", "t_sum", "trivial_mask",
}


def test_package_exports():
    assert len(bohrgap.__all__) == len(PUBLIC_NAMES) == 65
    assert set(bohrgap.__all__) == PUBLIC_NAMES
    for module, names in bohrgap._EXPORTS.items():
        mod = importlib.import_module(f"bohrgap.{module}")
        for name in names:
            obj = getattr(bohrgap, name)
            assert obj is getattr(mod, name) and obj.__module__ == mod.__name__, name
    # before any name is resolved
    assert PUBLIC_NAMES <= set(fresh_process("import bohrgap, json; print(json.dumps(dir(bohrgap)))"))
    with pytest.raises(AttributeError, match="no_such_name"):
        bohrgap.no_such_name
    star = {}
    exec("from bohrgap import *", star)
    assert set(star) - {"__builtins__"} == PUBLIC_NAMES


def _identifiers(tree) -> list[str]:
    """Every name, attribute and imported name that a syntax tree mentions."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.alias):
            out.append(node.name)
    return out


def test_every_library_definition_has_a_caller_outside_the_tests():
    # a definition that only tests reach is code no command runs; the public
    # names are kept for callers outside this repository
    root = Path(SRC).parent
    paths = [p for d in ("src/bohrgap", "perfbench", "demos") for p in sorted((root / d).glob("*.py"))]
    trees = {p: ast.parse(p.read_text()) for p in paths}
    mentions = Counter(name for tree in trees.values() for name in _identifiers(tree))
    unused = []
    for path, tree in trees.items():
        if path.parent.name != "bohrgap":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name in bohrgap.__all__ or (name.startswith("__") and name.endswith("__")):
                continue
            # mentions inside its own body (recursion) do not count
            if mentions[name] == _identifiers(node).count(name):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


# -- commands no other test runs ----------------------------------------------------


def test_bohr_restrict_matches_the_library(capsys):
    code, out, _ = run_cli(
        capsys, "bohr", "restrict", "--k", "2", "--alpha", "sqrt:2", "--gamma", "rat:1/3",
        "--N", "10000", "--delta", "0.1",
    )
    assert code == 0
    d = payload_of(out)
    members = restricted_bohr(BohrSpec.build(["sqrt:2"], ["rat:1/3"], 10000, ["0.1"])).members
    assert d["restricted"] is True and d["eps"] == "1/20" and d["mode"] == "restricted"
    assert d["members"] == [int(n) for n in members] and d["cardinality"] == len(members) > 0


def test_psi_table_values_parse_from_a_comma_list(capsys):
    from bohrgap.sums import ds_hypothesis_check, psi_family

    values = [1 / n for n in range(1, 301)]
    code, out, _ = run_cli(
        capsys, "sums", "dscheck", "--k", "2", "--alpha", "sqrt:2", "--N", "300", "--delta", "0.5",
        "--psi", "table", "--psi-table", ",".join(map(repr, values)) + ",", "--checkpoints", "100,300",
    )
    assert code == 0
    spec = BohrSpec.build(["sqrt:2"], None, 300, ["0.5"])
    want = ds_hypothesis_check(spec, psi_family("table", table=tuple(values)), [100, 300])
    assert payload_of(out) == json.loads(json.dumps(_jsonable(want)))
    assert payload_of(out)["kept"] > 0
    code, _, err = run_cli(capsys, "sums", "dscheck", "--alpha", "sqrt:2", "--N", "300", "--psi", "table")
    assert code == 2 and "--psi table needs --psi-table values" in err


# -- the process entry ---------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def bohrgap_process(*argv):
    """(exit code, stdout, stderr) of `python -m bohrgap argv...` run on src/."""
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "bohrgap", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


def written(out_dir: Path) -> dict:
    """The files of one --out run, the manifest without its timings."""
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    manifest = json.loads(files.pop("manifest.json"))
    del manifest["timings"]
    return {**files, "manifest": manifest}


ENTRY_LINE = "sums t --k 2 --alpha sqrt:2 --N 10000 --delta 0.5 --checkpoints 1000,10000"


@pytest.mark.parametrize(
    "line, code",
    [
        (ENTRY_LINE, 0),
        ("gap inner --k 3 --alpha sqrt:2 --N 100 --delta 0.1", 2),
        ("sums t --alpha sqrt:2 --N 30000000 --no-restrict", 3),
        ("gap verify --help", 0),
        ("gap verify --form sideways --N 100", 2),
    ],
    ids=["stdout", "validation", "budget", "help", "invalid-choice"],
)
def test_a_process_prints_and_exits_as_main_does(monkeypatch, line, code):
    monkeypatch.setenv("COLUMNS", "80")
    got = bohrgap_process(*line.split())
    assert got[0] == code
    assert got == in_process(line.split())


def test_an_irrational_width_exits_2_without_a_traceback():
    line = "bohr lift --alpha sqrt:3 --N 100 --delta sqrt:2 --n 7"
    assert bohrgap_process(*line.split()) == (2, "", "validation error: width 'sqrt:2' is not rational\n")


@pytest.mark.parametrize(
    "line, code",
    [
        ("bohr enumerate --k 2 --alpha sqrt:2 --N 100 --delta 0.1 --scale 100", 2),
        ("sums t --k 2 --alpha sqrt:2 --N 100 --scale 96", 2),
        ("exponents --alpha sqrt:2 --n-max 100 --scale 100", 2),
        # no scan runs here, so any scale the body accepts will do
        ("minima --k 2 --alpha sqrt:2 --N 100 --delta 0.1 --scale 100", 0),
        ("gap outer --k 2 --alpha sqrt:2 --N 100 --delta 0.1 --scale 100", 0),
    ],
    ids=["bohr-enumerate", "sums-t", "exponents", "minima", "gap-outer"],
)
def test_a_scan_scale_off_64_exits_2_without_a_traceback(line, code):
    got, out, err = bohrgap_process(*line.split())
    assert got == code, err
    if code == 2:
        assert out == "" and err == "validation error: scan needs a scale divisible by 64\n"


_SURD_TIE = "--k 2 --alpha sqrt:2 --gamma sqrt:8"  # ||2*sqrt(2) - sqrt(8)|| = 0 exactly
# no target is rational here, so the advice names the integer n*alpha - gamma
_SURD_ZERO = (
    "validation error: exact zero distance at n=2 inside the summation range;"
    " restrict the range or choose alpha and gamma with no integer n*alpha - gamma\n"
)


@pytest.mark.parametrize(
    "line, code",
    [
        (f"sums t {_SURD_TIE} --N 10 --no-restrict", 2),
        (f"sums dyadic {_SURD_TIE} --N 100 --delta 1 --no-restrict", 2),
        (f"bohr lift {_SURD_TIE} --N 100 --delta 1 --n 2", 0),
        ("exponents --alpha sqrt:2 --gamma sqrt:8 --n-max 1000 --h-max 10 --x-list 100", 0),
        # m above 10^12: 2*sqrt(m) - sqrt(4*m) = 0 found by a square test, not by factoring
        ("exponents --alpha sqrt:1000000000039 --alpha sqrt:4000000000156 --n-max 100 --h-max 10 --x-list 10", 0),
    ],
    ids=["sums-t", "sums-dyadic", "bohr-lift", "exponents", "exponents-dual-big-m"],
)
def test_a_surd_zero_is_decided_exactly(line, code):
    # the surd parts cancel at n = 2 (or at the dual vector (2, -1)): an exact
    # zero, not an exhausted ladder
    got, out, err = bohrgap_process(*line.split())
    assert got == code, err
    if code == 2:
        assert out == "" and err == _SURD_ZERO
    elif line.startswith("bohr"):
        assert payload_of(out) == {"lifts": [[2, -1], [2, 0], [2, 1]], "member": True, "n": 2}
    elif "--gamma" in line:
        d = payload_of(out)
        assert [d[k]["infinite_witness"] for k in ("omega_lower", "omega_times_lower", "omega_hat_lower")] == [2, 2, 2]
    else:
        assert payload_of(out)["omega_star_lower"]["infinite_witness"] == [2, -1]


_OUTER = "--k 2 --alpha sqrt:2 --N 1000 --delta 0.3"
_DSCHECK = "sums dscheck --k 2 --alpha sqrt:2 --N 100 --delta 1"


@pytest.mark.parametrize(
    "line, message",
    [
        (f"gap outer {_OUTER} --ck nan", "c_k must be finite and positive"),
        (f"gap outer {_OUTER} --ck inf", "c_k must be finite and positive"),
        (f"gap outer {_OUTER} --ck 1e400", "c_k must be finite and positive"),  # parses to inf
        (f"gap outer {_OUTER} --ck -3", "c_k must be finite and positive"),
        (f"gap verify --form outer {_OUTER} --ck nan", "c_k must be finite and positive"),
        (f"{_DSCHECK} --psi-c nan", "psi parameters must be finite"),
        (f"{_DSCHECK} --psi table --psi-table 1,nan,0.5", "psi parameters must be finite"),
        # finite constants whose psi(1) overflows the float range
        (f"{_DSCHECK} --psi-c 1e308", "psi is not finite at n=1"),
        (f"{_DSCHECK} --psi loglog --psi-c 1e307", "psi is not finite at n=1"),
        (f"gap verify --form inner {_OUTER} --ck 5", "--ck needs --form outer"),
        ("count davenport --box 20,20 --p 7", "--p needs --moduli"),
        ("count davenport --box 20,20 --moduli 1,3", "--moduli needs --p"),
    ],
    ids=["ck-nan", "ck-inf", "ck-1e400", "ck-negative", "verify-ck-nan", "psi-c-nan", "psi-table-nan",
         "psi-c-1e308", "loglog-psi-c-1e307", "verify-inner-ck", "p-alone", "moduli-alone"],
)
def test_an_input_outside_its_domain_exits_2(capsys, line, message):
    assert run_cli(capsys, *line.split()) == (2, "", f"validation error: {message}\n")


def test_davenport_at_a_large_prime_finishes_in_a_fresh_process():
    # the fourth Euclidean minimum is 10^10 times the first three
    got, out, err = bohrgap_process("count", "davenport", "--box", "5,5,5,5", "--moduli", "1,2,3,4", "--p", "1000003")
    assert got == 0, err
    assert payload_of(out)["minima_sq"] == [3, 3, 4, 33333533334]


def test_a_process_writes_and_replays_what_main_writes(tmp_path):
    got = bohrgap_process(*ENTRY_LINE.split(), "--out", str(tmp_path / "process"))
    assert got[0] == 0 and got == in_process([*ENTRY_LINE.split(), "--out", str(tmp_path / "main")])
    assert set(written(tmp_path / "process")) == {"payload.json", "table.csv", "manifest"}
    assert written(tmp_path / "process") == written(tmp_path / "main")
    manifest = str(tmp_path / "process" / "manifest.json")
    got = bohrgap_process("rerun", manifest, "--out", str(tmp_path / "process-rerun"))
    assert got[0] == 0 and got == in_process(["rerun", manifest, "--out", str(tmp_path / "main-rerun")])
    assert written(tmp_path / "process-rerun") == written(tmp_path / "main-rerun") == written(tmp_path / "main")


# runs entry() on one command line (or on a main that raises) and prints its
# exit code, whether the collector runs, and how many objects are frozen
_ENTRY_STATE = """
import contextlib, gc, io, json, sys
from bohrgap import cli
if sys.argv[1:] == ["crash"]:
    def crash():
        raise RuntimeError("crash")
    cli.main = crash
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.entry()
    except SystemExit as e:  # argparse's --help
        code = e.code
    except RuntimeError as e:
        code = str(e)
print(json.dumps([code, gc.isenabled(), gc.get_freeze_count()]))
"""


@pytest.mark.parametrize(
    "argv, code",
    [
        (("sums", "t", *SPEC_K2), 0),
        (("gap", "--help"), 0),
        (("gap", "inner", "--N", "0"), 2),
        (("sums", "t", "--alpha", "sqrt:2", "--N", "30000000", "--no-restrict"), 3),
        (("crash",), "crash"),
    ],
    ids=["ok", "help", "validation", "budget", "crash"],
)
def test_the_process_entry_pauses_the_collector_and_freezes_on_every_exit(argv, code):
    got_code, enabled, frozen = fresh_process(_ENTRY_STATE, *argv)
    assert (got_code, enabled) == (code, False)
    assert frozen > 1000


def test_main_in_process_leaves_the_collector_alone(capsys):
    before = gc.isenabled(), gc.get_freeze_count()
    assert run_cli(capsys, "sums", "t", *SPEC_K2)[0] == 0
    assert run_cli(capsys, "gap", "inner", "--N", "0")[0] == 2
    with pytest.raises(SystemExit):
        main(["gap", "--help"])
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_the_console_script_and_python_m_run_the_same_entry(monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"bohrgap": "bohrgap.cli:entry"}
    module, _, name = scripts["bohrgap"].partition(":")
    calls = []
    monkeypatch.setattr(importlib.import_module(module), name, lambda: calls.append(name) or 7)
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("bohrgap", run_name="__main__")
    assert calls == ["entry"] and exit_.value.code == 7


def test_a_line_with_the_collector_paused_leaves_bounded_cycles(capsys, tmp_path, monkeypatch):
    # pausing is safe while a command makes a bounded number of cycles, not
    # one per n: each seed-11 benchmark line, and the outer lift check at
    # N = 10^9, stopped at its lift budget and run to the end
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import cli_lines

    outer = "gap outer --k 2 --alpha sqrt:21 --N 1000000000 --delta 0.1"
    lines = cli_lines(11) + [outer, outer + " --budget 1000000000"]
    enabled = gc.isenabled()
    for i, line in enumerate(lines):
        argv = [*line.split(), "--out", str(tmp_path / f"line{i}")]
        code = main(argv)  # warm-up: first imports and caches
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == code
        finally:
            cycles = gc.collect()
            if enabled:
                gc.enable()
        capsys.readouterr()
        assert cycles < 10_000, (line, cycles)
