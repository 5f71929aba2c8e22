"""Child launcher for the benchmark.

    python3 -S perfbench/launch.py

Reads one JSON request per line on stdin: {"argv", "stdin", "stdout",
"stderr", "timeout"}, the middle three being file paths and the last
seconds.  Runs the command to completion with those files as its stdio,
killing it at the timeout, and answers with one JSON line: {"wall_s",
"code", "rss_mb"}, where `code` is null for a killed child and `rss_mb` is
the child's peak resident set size from `os.wait4`.

It exists because a child's `ru_maxrss` also counts the memory of the
process that spawned it.  This process stays small: it skips `site` (`-S`),
imports little and never reads the children's output, so its own peak
(about 10 MB) is below any child's and the peak it reports is the child's.
"""

import json
import os
import signal
import sys
import time


def run(request: dict) -> dict:
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    fds = [
        os.open(request["stdin"], os.O_RDONLY),
        os.open(request["stdout"], write, 0o644),
        os.open(request["stderr"], write, 0o644),
    ]
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(
            request["argv"][0],
            request["argv"],
            os.environ,
            file_actions=[(os.POSIX_SPAWN_DUP2, fd, target) for target, fd in enumerate(fds)],
        )
    finally:
        for fd in fds:
            os.close(fd)
    killed = []

    def kill(signum, frame) -> None:
        try:
            os.kill(pid, signal.SIGKILL)
            killed.append(signum)
        except ProcessLookupError:  # reaped just before the alarm
            pass

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, request["timeout"])
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    code = None if killed else os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "code": code, "rss_mb": usage.ru_maxrss / 1024}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
