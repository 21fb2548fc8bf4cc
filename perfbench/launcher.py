"""Child launcher: runs one interpreter child per request line.

A child started with vfork and exec inherits, as the start of its peak
RSS, the peak RSS of the process that started it. The benchmark itself
holds large arrays, so it starts its children through this small
process and os.wait4 reports each child's own peak RSS.

Reads JSON lines [argv, stdout path, stderr path, timeout seconds] on
stdin and answers each with [wall seconds, exit code, peak RSS bytes].
A child past its timeout is killed. Exits when stdin closes.
"""

import json
import os
import signal
import sys
import time


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def run(argv, out_path, err_path, timeout):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o600),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o600)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    signal.alarm(timeout)
    try:
        _, status, usage = os.wait4(pid, 0)
    except _Timeout:
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
    wall = time.perf_counter() - t0
    return [wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss * 1024,
            usage.ru_utime + usage.ru_stime, usage.ru_minflt]


def main():
    signal.signal(signal.SIGALRM, _alarm)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(*json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
