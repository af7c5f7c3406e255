"""Byte pins of the command line: help texts, parser errors and the outputs
of the benchmark's command lines plus EXTRA_LINES.

The pins in cli_pins.json were recorded on Linux x86-64 with

    PYTHONPATH=src python tests/test_cli_pins.py > cli_pins.json

(then moved into tests/), and a change to the command line front end must
keep every one of them.  Payloads that hold libm floats may differ on
another platform.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from bohrgap.cli import main

PINS_PATH = Path(__file__).resolve().with_name("cli_pins.json")
SEEDS = (1, 7, 11)

# every group and command path, in registration order
HELP_PATHS = [
    "", "bohr", "bohr enumerate", "bohr lift", "bohr restrict", "minima",
    "gap", "gap inner", "gap outer", "gap verify",
    "count", "count davenport", "count alphap", "count totient",
    "sums", "sums t", "sums dyadic", "sums dscheck",
    "exponents", "experiment", "experiment gallagher", "rerun",
]

# command lines the parser turns away, and --version
REFUSED = [
    "", "--version", "bogus", "gap", "gap bogus", "gap verify", "gap verify --N 100 --bogus 1",
    "gap verify --form sideways --N 100", "count davenport", "rerun",
    "exponents --N 5", "--N 5 gap inner", "gap --k 2 inner --N 100",
]

# a rank past 6: the minima walk's node budget is its only limit
EXTRA_LINES = [
    "minima --k 8 --alpha sqrt:2 --alpha sqrt:3 --alpha sqrt:5 --alpha sqrt:6 --alpha sqrt:7"
    " --alpha sqrt:10 --alpha sqrt:11 --N 1000000 --delta 0.1",
]

CONFIG_TEXT = "k = 2\nalpha = sqrt:7\nN = 100000\ndelta = 0.1  # width\neps = 0.05\n"
CONFIG_LINE = "gap inner --config {config} --N 50000"


def _sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _run(argv):
    """(exit code, stdout, stderr) of main(argv), SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def help_pin(path: str) -> dict:
    code, out, err = _run([*path.split(), "--help"])
    return {"exit": code, "stdout": _sha(out), "stderr": _sha(err)}


def refused_pin(line: str) -> dict:
    code, out, err = _run(line.split())
    return {"exit": code, "stdout": _sha(out), "stderr": _sha(err)}


def line_pin(argv, out_dir: Path) -> dict:
    """Digests of one --out run: stdout, payload, CSV and the manifest
    without its timings."""
    code, out, err = _run([*argv, "--out", str(out_dir)])
    manifest = json.loads((out_dir / "manifest.json").read_text())
    del manifest["timings"]
    csv = out_dir / "table.csv"
    return {
        "exit": code,
        "stdout": _sha(out),
        "stderr": _sha(err),
        "payload": _sha((out_dir / "payload.json").read_bytes()),
        "csv": _sha(csv.read_bytes()) if csv.exists() else None,
        "manifest": _sha(json.dumps(manifest, indent=2, sort_keys=True)),
    }


def config_pin(tmp: Path) -> dict:
    config = tmp / "line.cfg"
    config.write_text(CONFIG_TEXT)
    return line_pin(CONFIG_LINE.format(config=config).split(), tmp / "out")


PINS = json.loads(PINS_PATH.read_text()) if __name__ != "__main__" else {"lines": {}}


@pytest.fixture(autouse=True)
def _fixed_width(monkeypatch):
    # argparse wraps help at the terminal width
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("path", HELP_PATHS)
def test_help_text_pins(path):
    assert help_pin(path) == PINS["help"][path]


@pytest.mark.parametrize("line", REFUSED)
def test_refused_line_pins(line):
    assert refused_pin(line) == PINS["refused"][line]


@pytest.mark.parametrize("line", sorted(PINS["lines"]))
def test_benchmark_line_pins(tmp_path, line):
    want = PINS["lines"][line]
    assert line_pin(line.split(), tmp_path / "line") == want
    # the replay of its manifest writes the same bytes
    assert line_pin(["rerun", str(tmp_path / "line" / "manifest.json")], tmp_path / "rerun") == want


def test_config_splice_pin(tmp_path):
    assert config_pin(tmp_path) == PINS["config"]


def _record() -> dict:
    import os
    import tempfile

    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "perfbench"))
    from workloads import cli_lines

    os.environ["COLUMNS"] = "80"
    lines = sorted({line for seed in SEEDS for line in cli_lines(seed)} | set(EXTRA_LINES))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        return {
            "help": {p: help_pin(p) for p in HELP_PATHS},
            "refused": {line: refused_pin(line) for line in REFUSED},
            "lines": {line: line_pin(line.split(), tmp / f"line{i}") for i, line in enumerate(lines)},
            "config": config_pin(tmp),
        }


if __name__ == "__main__":
    print(json.dumps(_record(), indent=1, sort_keys=True))
