"""Start commands one at a time; report each one's wall time and rusage.

Reads one JSON request per line on stdin, {"argv": [...], "log": path}, runs
argv with stdout and stderr to log, and answers with one JSON line:
{"code", "wall", "cpu", "rss_mb"}. Exits at end of input.

A child's ru_maxrss starts from the RSS of the process that spawned it, so
the benchmark's own process (numpy, ground truth) would set a floor under
every stage's peak RSS. This small interpreter spawns the stages instead, and
staying up for the whole run keeps its start-up out of every pass. The token
{spawn} in argv is replaced with the time.monotonic() reading taken just
before the command starts, for the traced launcher's root span.
"""

import json
import os
import subprocess
import sys
import time


def run(argv: list[str], log_path: str) -> dict:
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.monotonic()
        argv = [repr(start) if a == "{spawn}" else a for a in argv]
        proc = subprocess.Popen(argv, stdout=log, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run(request["argv"], request["log"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
