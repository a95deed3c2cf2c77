"""Run one citemetrics CLI command with the benchmark's span wrappers installed.

Usage: python3 bench/shim.py SPANS_PATH OP_ID -- CLI_ARGS...

The command's stdout, stderr and exit code are those of ``cli.run``. The
spans stay in memory until the command returns and are then written to
SPANS_PATH as one JSON list.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    spans_path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: shim.py SPANS_PATH OP_ID -- CLI_ARGS...")
    import citemetrics.cli as cli

    tracer = Tracer()
    tracer.op = op_id
    tracer.install()
    code = cli.run(argv)
    sys.stdout.flush()
    Path(spans_path).write_text(json.dumps(tracer.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
