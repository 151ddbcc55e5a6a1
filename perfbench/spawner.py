"""Start commands for run.py one at a time and report how each one ran.

A child's max RSS as ``wait4`` reports it also counts the memory of the
process that spawned it, so run.py starts this small process first and has
it spawn every measured command.  Protocol, one JSON object per line: a
request ``{"argv", "timeout", "out", "err"}`` on stdin (stdout and stderr go
to the named files) is answered on stdout with ``{"rc", "wall",
"rss_mb", "timed_out"}``.  Exits at end of input.
"""

import json
import os
import signal
import sys
import time


def run(argv, timeout, out_path, err_path):
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        killed = []
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)

        def kill(signum, frame):
            killed.append(True)
            os.kill(pid, signal.SIGKILL)

        signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    return {
        "rc": os.waitstatus_to_exitcode(status),
        "wall": wall,
        "rss_mb": usage.ru_maxrss / 1024,
        "timed_out": bool(killed),
    }


def main():
    for line in sys.stdin:
        req = json.loads(line)
        reply = run(req["argv"], req["timeout"], req["out"], req["err"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
