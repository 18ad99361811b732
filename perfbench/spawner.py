"""Launch the benchmark's child processes from a process that stays small.

Linux carries a process's RSS high-water mark across fork and exec, so a
child started straight from the benchmark (which holds cohorts and parsed
matrices) would report at least the benchmark's own peak as its
``ru_maxrss``. Children are therefore started by this helper, which the
benchmark launches before it loads numpy; the helper times each child and
returns the child's own rusage.

Protocol: one JSON request per line on stdin, one JSON reply per line on
stdout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def _serve() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                request["argv"],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=request["env"],
                cwd=request["cwd"],
            )
            watchdog = threading.Timer(request["timeout"], proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "exit_code": proc.returncode}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


class Spawner:
    """Client side: start the helper, send it commands, stop it."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv, env, cwd, log, timeout: float) -> tuple[float, float, int]:
        """Wall time (s), peak RSS (MB) and exit code of one child."""
        request = {"argv": argv, "env": env, "cwd": str(cwd), "log": str(log), "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("child launcher exited")
        reply = json.loads(line)
        return reply["wall_s"], reply["maxrss_kb"] / 1024.0, reply["exit_code"]

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    _serve()
