"""Starts the benchmark's CLI invocations from a small, separate process.

On Linux a child started by fork or vfork keeps its parent's peak RSS as a
floor of the ``ru_maxrss`` that ``wait4`` reports, so children of the
benchmark process, which holds numpy and oracle matrices, would all read as
large as it.  This process imports nothing heavy and allocates nothing, so
``wait4`` reports each invocation's own peak.

Protocol: one JSON request per stdin line, ``{"argv", "cwd", "env", "out"}``,
answered by one JSON line ``{"seconds", "maxrss_kib", "code"}``.  Timing spans
process start to reaped exit.
"""

import json
import os
import subprocess
import sys
import time

for line in sys.stdin:
    request = json.loads(line)
    with open(request["out"], "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"seconds": elapsed, "maxrss_kib": usage.ru_maxrss,
                      "code": proc.returncode}), flush=True)
