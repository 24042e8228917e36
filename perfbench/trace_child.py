"""Traced stand-in for `python -m ncprob.cli`, used by the traced cold-cli run.

    python perfbench/trace_child.py SUMMARY.json <ncprob cli arguments...>

Times the import of the CLI, installs the span tracer in the fresh process,
runs the CLI with the given arguments and, on exit, writes the tracer's raw
summary (plus the import time) to SUMMARY.json.  Stdout and the exit code
are the CLI's own.
"""

import json
import sys
from time import perf_counter

import tracer


def main() -> int:
    summary_path, args = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import ncprob.cli
    import_s = perf_counter() - t0
    tr = tracer.Tracer()
    tr.install()
    tr.phase = "op"
    code = 0
    try:
        ncprob.cli.main.main(args=args, prog_name="ncprob", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.stdout.flush()
        raw = tr.summary()
        raw["cli.import_sum"] = import_s
        with open(summary_path, "w") as fh:
            json.dump(raw, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
