"""Start the benchmark's child processes from a small process.

Linux charges a new process with the high-water RSS of the process that
spawned it, so a child started from the benchmark (which holds the generated
inputs) would report the benchmark's memory in ``ru_maxrss``. This launcher
imports no numpy and stays near 14 MiB, below any ``duke`` child.

Protocol: one JSON request per stdin line, ``{"argv": [...], "stderr": path}``;
one JSON reply per stdout line, ``{"wall": s, "code": n, "maxrss_kib": n}``.
The launcher exits at end of input; on SIGTERM it kills the running child.
"""

import json
import os
import signal
import subprocess
import sys
import time


def _exit(signum, frame):
    raise SystemExit(1)


def main() -> int:
    signal.signal(signal.SIGTERM, _exit)
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        print(json.dumps({"wall": wall,
                          "code": os.waitstatus_to_exitcode(status),
                          "maxrss_kib": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
