"""One ``gridstore`` console launch with the per-layer tracer installed.

Usage: python traced_cli.py TRACE_JSON GRIDSTORE_ARGS...

Runs exactly what the ``gridstore`` console entry runs, then writes the
tracer's counts to TRACE_JSON and exits with the command's exit code.
"""

import json
import sys

import gridstore.cli

from tracer import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = gridstore.cli.run(argv)
    finally:
        tracer.uninstall()
        with open(out, "w") as f:
            json.dump(tracer.snapshot(), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
