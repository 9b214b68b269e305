"""Starts the benchmark's child processes; reports wall time and peak RSS.

On Linux a child's ``ru_maxrss`` includes the high-water mark of the process
it was spawned from, because the mark survives ``exec``. The benchmark starts
this small helper before it allocates anything and spawns every subcommand
through it, so the benchmark's own memory stays out of ``peak_rss_mb``.

Protocol: one JSON request per stdin line
(``{"argv", "cwd", "env", "stdout", "stderr"}``, the last two file paths),
one JSON reply per stdout line (``{"wall_s", "maxrss_kb", "code"}``). The
helper exits at end of input, after the running child has ended.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                    stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "maxrss_kb": usage.ru_maxrss,
                          "code": proc.returncode}), flush=True)


if __name__ == "__main__":
    main()
