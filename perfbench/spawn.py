"""Run commands for the benchmark and report their time and peak memory.

Linux charges a child the parent's peak resident set when it is forked,
so processes started from the benchmark itself, which holds numpy and the
expected outputs, would report that size. This small process starts them
instead. It reads one JSON request per line on standard input,
{"argv", "cwd", "env", "stdout", "stderr"}, runs the command to its end and
answers {"seconds", "rss_kib", "exit"} on standard output. It stops when
its input closes.
"""

import json
import os
import subprocess
import sys
import time


def serve() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                request["argv"], cwd=request["cwd"], env=request["env"], stdout=out, stderr=err
            )
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"seconds": seconds, "rss_kib": usage.ru_maxrss, "exit": proc.returncode}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
