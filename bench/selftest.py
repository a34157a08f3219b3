"""Fault-injection self-test of the benchmark's checks.

Usage, from the root of a checkout:

    python3 bench/selftest.py

For every workload it corrupts the output of the pinned-seed verification
op and of one timed op, from the benchmark side, by turning the last value
of the output into NaN. The test passes only if the golden-hash check
rejects the first, the per-op output check rejects the second (so the
loop's error rate is above zero), and the same ops pass when untouched.
Exit code 0 means every check fired.
"""

import sys

import run


def corrupt(text: str) -> str:
    head, last = text.rstrip("\n").rsplit("\n", 1)
    fields = last.split(",")
    fields[-1] = "nan"
    return head + "\n" + ",".join(fields) + "\n"


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    problems = []
    for name, workload in run.WORKLOADS.items():
        runner = run.Runner(workload)
        if not run.verify_golden(workload, runner):
            problems.append(f"{name}: golden hash fails on untouched output")
        if run.verify_golden(workload, runner, perturb=corrupt):
            problems.append(f"{name}: golden hash accepts corrupted output")
        stats = run.run_ops(workload, 0, 0.0, 3, perturb_op=1, perturb=corrupt)
        error_rate = stats.failed / stats.attempted
        if stats.failed != 1:
            problems.append(f"{name}: {stats.failed} of {stats.attempted} ops failed, expected exactly 1")
        print(f"{name}: corrupted op gives error_rate {error_rate:.3f} over {stats.attempted} ops")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("checks fire" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
