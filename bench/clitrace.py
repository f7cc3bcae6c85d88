"""Traced stand-in for ``python -m ergolab.cli`` (traced cli-batch rounds).

    python3 bench/clitrace.py SPANS.json <ergolab cli arguments...>

Imports ``ergolab.cli``, wraps the report builders and layer functions,
runs ``ergolab.cli.main`` on the arguments and, once it returns, writes the
spans plus the time the import finished to SPANS.json.  The exit code is
main's.
"""

import json
import sys
import time

import ergolab.cli

t_imported = time.monotonic()

from spans import REPORT_BUILDERS, Recorder  # noqa: E402  (after the timed import)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    rec.install(REPORT_BUILDERS)
    rec.qid = 0
    idx = rec.begin("cli", "main")
    try:
        code = ergolab.cli.main(argv)
    finally:
        rec.end(idx)
        with open(spans_path, "w") as fh:
            json.dump({"t_imported": t_imported, "spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
