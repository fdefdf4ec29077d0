"""Run one command; report its wall time, exit status and peak RSS.

    python3 perfbench/spawn.py RESULT_JSON STDOUT STDERR COMMAND [ARGS...]

This small process sits between the harness and each command.  On Linux a
new process inherits, as the start of its peak-RSS record, the high-water
mark of the process that spawned it; spawned from here rather than from the
harness (which holds whole pattern censuses), a command's reported peak RSS
is its own.  The wall time is taken here, around the command alone.
"""

import json
import os
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    result, stdout, stderr, command = argv[0], argv[1], argv[2], argv[3:]
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result, "w", encoding="utf-8") as fh:
        json.dump({"wall": wall, "status": proc.returncode, "maxrss_kb": usage.ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
