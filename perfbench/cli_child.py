"""Traced stand-in for ``python3 -m bohrgap``: patch the library, run one
command line, write the trace summary.

    python3 perfbench/cli_child.py SUMMARY.json <bohrgap arguments>
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bohrgap.cli  # noqa: E402
from tracer import Tracer, install  # noqa: E402


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    code = tracer.run_job(0, lambda: bohrgap.cli.main(argv))
    with open(summary_path, "w") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
