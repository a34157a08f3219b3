"""Peak resident memory of one command, free of its launcher's memory.

Usage: python3 rss_probe.py COMMAND...

On Linux a child's ru_maxrss also counts the resident memory of the
process that spawned it (the spawner's high-water mark is folded in at
exec), so a command launched from a large process reads as large as its
launcher. This probe is small, and does nothing but run COMMAND with its
standard output discarded and print the child's peak RSS in KiB.
"""

import os
import subprocess
import sys


def main() -> int:
    proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(usage.ru_maxrss)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
