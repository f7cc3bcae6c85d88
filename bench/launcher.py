"""Starts the cli-batch queries, one at a time, from a small process.

    python3 bench/launcher.py     # reads one JSON request per line on stdin

Each request is ``{"cmd": [...], "cwd": ..., "env": {...}}``; the reply
(one JSON line) is ``{"t0", "t1", "returncode", "output", "maxrss_kib"}``
with the spawn and exit times (time.monotonic) and the child's own peak
RSS.  A child's peak RSS counts the memory of the process it was forked
from, so the children are forked here, from a process that imports
neither NumPy nor ergolab, rather than from the worker.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        t0 = time.monotonic()
        proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=req["env"], stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        output = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        reply = {"t0": t0, "t1": t1, "returncode": proc.returncode, "output": output[-2000:],
                 "maxrss_kib": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
