"""Command launcher: runs one process per request and reports its cost.

Reads one JSON request per line on standard input,
``{"argv": [...], "log": "<stderr file>", "timeout": <seconds>}``, runs the
command with standard output discarded and standard error appended to the log,
and writes one JSON line ``{"wall_s": ..., "rss_mb": ..., "code": ...}``.

It runs as a small process of its own because on Linux a child's peak RSS
(``ru_maxrss``) includes the memory of the process it was forked from. Forked
from here, each command's figure is its own high-water mark rather than the
benchmark's, which holds numpy arrays and parsed logs.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], log: str, timeout: float) -> dict:
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        result = run(request["argv"], request["log"], request["timeout"])
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
