"""Benchmark of the qfft command line: end-to-end metrics and a traced per-module breakdown.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep-1k --seed 7 --seconds 25 --trace 0

Every workload is a closed loop with one client: op ``i`` runs the
``qfft`` command with ``--seed base+i`` and the next op starts when the
previous one has returned and its output has been checked.

- ``sweep-1k``: ``qfft sweep`` on the default config (N=1024, fft, uniform
  doubling ladder, b=6..14, 20 trials), in one long-lived process. Per-call
  overhead dominates; the only workload with many trials.
- ``sweep-64k``: ``qfft sweep`` at N=65536, ifft, mantissa mode, b=10..12,
  one trial, in one long-lived process. Array throughput dominates.
- ``fft-cli``: ``qfft fft`` at N=65536, uniform 12-bit ladder, 10-bit
  twiddle ROM, CSV output, each op a fresh ``python -m qfft.cli`` process.

Each run first verifies the workload's output at a pinned seed against the
sha256 in ``golden.json`` (untimed), then checks every op's output with
checks that hold for any seed. With ``--trace 0`` it reports:

- ``setup_s``: median over fresh processes of the time from launch until
  ``import qfft``, the config parse and the first Pipeline build are done.
  The probes are spread evenly over the timed loop, between ops;
- ``op_ms_p50``, ``op_ms_p90``: nearest-rank percentiles of op wall time
  over at least 100 ops, so that ten lie beyond p90 (a run that cannot
  finish them within ``MAX_LOOP_SECONDS`` is not correct);
- ``ops_per_s``: successful ops per second of op time (the benchmark's own
  output checks between ops are not counted);
- ``peak_rss_mb``: the sweep process's own peak (VmHWM), or for ``fft-cli``
  the mean peak of op processes launched through ``rss_probe.py``.

Every time above is wall time scaled to a reference machine speed. A
shared host's speed drifts, between spells about 1.7x apart that last
from a second to minutes, and a run of tens of seconds cannot average that
out. So a fixed calibration kernel (plain Python and numpy, no ``qfft``)
runs between every two timed ops or probes, and each op's wall time is
multiplied by ``REFERENCE_KERNEL_S`` over the mean of the kernel's wall
times just before and just after it. The kernel does not use ``qfft``, so
a change to the program moves the scaled times as it moves wall time. The
unscaled percentiles and the kernel's median are printed on the line
before the result. The benchmark and every process it starts run on one
CPU, the highest it may use, so that the kernel and the op it scales see
the same CPU, and one process with one BLAS thread computes at a time.

With ``--trace 1`` it alternates untraced and traced ops and reports
per-module metrics (see ``tracer.py``), writing every span to
``.bench_out/`` at the checkout root as JSON. The last line of standard output is
the result as one JSON object; earlier lines record the machine and the
sample counts. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# One CPU for the benchmark and every process it starts, set before numpy
# loads so that its BLAS starts one thread for it.
NPROC = len(os.sched_getaffinity(0))
PINNED_CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {PINNED_CPU})

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_OPS = 100  # leaves ten ops beyond p90
MIN_TRACED_OPS = 11
SETUP_PROBES = 15
RSS_PROBES = 3
MAX_LOOP_SECONDS = 120.0
OP_TIMEOUT_SECONDS = 60.0
FFT_SQNR_FLOOR_DB = 17.0  # 17.9-18.0 dB at the seed commit over 43 seeds
SWEEP_SLOPE_DB_PER_BIT = (5.0, 7.0)
# about the calibration kernel's median wall time on a 2-vCPU Xeon (4 MiB L2) in a fast spell,
# so that scaled times read as that machine's milliseconds
REFERENCE_KERNEL_S = 0.013
SWEEP_COLUMNS = (
    "bits,error_mean,error_std,error_variance,percent_error,sqnr_db,theory_variance,saturation_rate"
)


class CheckFailed(Exception):
    """An op's output broke a property that holds for every seed."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str | None
    in_process: bool
    n: int
    bits: tuple[int, int] = (0, 0)

    def argv(self, seed: int) -> list[str]:
        argv = [self.command, "--seed", str(seed)]
        if self.config is not None:
            argv += ["--config", str(BENCH / "configs" / self.config)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-1k", "sweep", None, True, 1024, (6, 14)),
        Workload("sweep-64k", "sweep", "sweep-64k.json", True, 65536, (10, 12)),
        Workload("fft-cli", "fft", "fft-cli.json", False, 65536),
    )
}


@dataclass
class OpResult:
    rc: int
    text: str
    record: dict | None = None  # spans handed back by a traced op process


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_process(cmd: list[str]) -> tuple[int, bytes]:
    """Run ``cmd`` to completion; return its exit code and stdout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT)
    timer = threading.Timer(OP_TIMEOUT_SECONDS, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out


class Runner:
    """Runs one op of a workload: in this process, or in a fresh one."""

    def __init__(self, workload: Workload, traced: bool = False):
        self.workload = workload
        self.traced = traced

    def __call__(self, seed: int) -> OpResult:
        argv = self.workload.argv(seed)
        if self.workload.in_process:
            from qfft import cli

            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            return OpResult(rc, buf.getvalue())
        if not self.traced:
            rc, out = _run_process([sys.executable, "-m", "qfft.cli", *argv])
            return OpResult(rc, out.decode())
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"op-{os.getpid()}.json"
        rc, out = _run_process([sys.executable, str(BENCH / "traced_cli.py"), str(spans), *argv])
        record = json.loads(spans.read_text())
        spans.unlink()
        return OpResult(rc, out.decode(), record)


# -- output checks ----------------------------------------------------------


def check_sweep(workload: Workload, seed: int, text: str) -> None:
    """Rows complete and in bit order, finite, unsaturated, SQNR rising with bits."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines or lines[0] != SWEEP_COLUMNS:
        raise CheckFailed(f"unexpected sweep header {lines[:1]}")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    lo, hi = workload.bits
    if rows.shape != (hi - lo + 1, 8) or list(rows[:, 0]) != list(range(lo, hi + 1)):
        raise CheckFailed(f"rows are not bits {lo}..{hi} in order")
    if not np.all(np.isfinite(rows)):
        raise CheckFailed("non-finite value in sweep rows")
    if np.any(rows[:, 7] != 0.0):
        raise CheckFailed("nonzero saturation_rate")
    bits, sqnr = rows[:, 0], rows[:, 5]
    if workload.name == "sweep-1k":
        slope = float(np.polyfit(bits, sqnr, 1)[0])
        if not SWEEP_SLOPE_DB_PER_BIT[0] <= slope <= SWEEP_SLOPE_DB_PER_BIT[1]:
            raise CheckFailed(f"SQNR slope {slope:.3f} dB/bit outside {SWEEP_SLOPE_DB_PER_BIT}")
    elif not np.all(np.diff(sqnr) > 0):
        raise CheckFailed(f"SQNR does not rise with bits: {sqnr.tolist()}")


def _input_signal(seed: int, n: int) -> np.ndarray:
    """The CLI's random input, regenerated here: PCG64(seed), real then imaginary in [-1, 1)."""
    rng = np.random.default_rng(seed)
    x = np.empty(n, dtype=np.complex128)
    x.real = rng.uniform(-1.0, 1.0, n)
    x.imag = rng.uniform(-1.0, 1.0, n)
    return x


def check_fft(workload: Workload, seed: int, text: str) -> None:
    """Finite, unsaturated, and within the SQNR floor of numpy's FFT of the input."""
    saturations = re.search(r"^# saturation_total: (\d+)$", text, re.MULTILINE)
    if saturations is None or int(saturations.group(1)) != 0:
        raise CheckFailed("saturation_total missing or nonzero")
    header = "index,real,imag\n"
    body = text[text.index(header) + len(header):] if header in text else ""
    values = np.fromstring(body.replace("\n", ","), sep=",")
    if values.size != 3 * workload.n:
        raise CheckFailed(f"expected {workload.n} output rows")
    values = values.reshape(-1, 3)
    if not np.array_equal(values[:, 0], np.arange(workload.n)):
        raise CheckFailed("output indices out of order")
    if not np.all(np.isfinite(values)):
        raise CheckFailed("non-finite output value")
    reference = np.fft.fft(_input_signal(seed, workload.n))
    error = reference - (values[:, 1] + 1j * values[:, 2])
    pooled = lambda v: np.concatenate([v.real, v.imag])  # noqa: E731
    sqnr = 10.0 * math.log10(pooled(reference).var() / pooled(error).var())
    if not sqnr >= FFT_SQNR_FLOOR_DB:
        raise CheckFailed(f"SQNR {sqnr:.2f} dB below the {FFT_SQNR_FLOOR_DB} dB floor")


def check_output(workload: Workload, seed: int, result: OpResult) -> None:
    if result.rc != 0:
        raise CheckFailed(f"exit code {result.rc}")
    (check_sweep if workload.command == "sweep" else check_fft)(workload, seed, result.text)


def verify_golden(workload: Workload, runner, perturb=None) -> bool:
    """Untimed op at the pinned seed; its output must hash to the recorded sha256."""
    golden = json.loads((BENCH / "golden.json").read_text())
    result = runner(golden["seed"])
    if perturb is not None:
        result.text = perturb(result.text)
    digest = hashlib.sha256(result.text.encode()).hexdigest()
    expected = golden["sha256"][workload.name]
    if digest != expected:
        print(f"golden mismatch for {workload.name}: {digest} != {expected}", file=sys.stderr)
        return False
    return True


# -- the op loop --------------------------------------------------------------


_KERNEL_RNG = np.random.default_rng(0)
_KERNEL_INPUT = _KERNEL_RNG.standard_normal(1024) + 1j * _KERNEL_RNG.standard_normal(1024)


def calibration_kernel() -> float:
    """Wall seconds of a fixed piece of work that does not touch qfft.

    Plain Python arithmetic, then many numpy calls on a 1024-point complex
    vector: the mix of interpreter and small-array work in a qfft op. Of
    the kernels tried, this one's time tracked the ops' times most closely
    on all three workloads as the host's speed drifted.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    for _ in range(300):
        y = _KERNEL_INPUT * 0.5
        r = np.round(y.real * 1024.0) / 1024.0
        np.clip(r, -1.0, 1.0, out=r)
        float(np.sum(np.abs(y)))
    return time.perf_counter() - t0


@dataclass
class LoopStats:
    """Op and set-up times scaled to the reference speed, and the op wall times."""

    times: list[float] = field(default_factory=list)
    traced_times: list[float] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    wall_times: list[float] = field(default_factory=list)
    kernel: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def run_ops(
    workload: Workload,
    base_seed: int,
    seconds: float,
    min_ops: int,
    tracer=None,
    setup_probes: int = 0,
    perturb_op: int | None = None,
    perturb=None,
) -> LoopStats:
    """Closed loop: op i runs seed base_seed + i until both limits are met.

    With a tracer, odd ops run traced and even ops untraced, so that drift
    in the machine's speed falls on both halves alike. Set-up probe k runs
    between ops once ``k * seconds / setup_probes`` seconds have passed.
    The calibration kernel runs after every op and probe.
    """
    from qfft.pipeline import processing_cost

    runners = (Runner(workload), Runner(workload, traced=True))
    stats = LoopStats()
    stats.kernel.append(calibration_kernel())

    def scaled(wall: float) -> float:
        """``wall`` seconds, measured since the last kernel run, at the reference speed."""
        stats.kernel.append(calibration_kernel())
        return wall * REFERENCE_KERNEL_S / statistics.fmean(stats.kernel[-2:])

    begin = time.perf_counter()
    op = 0
    while True:
        elapsed = time.perf_counter() - begin
        if len(stats.setup) < setup_probes and elapsed >= len(stats.setup) * seconds / setup_probes:
            stats.setup.append(scaled(setup_seconds(workload)))
            continue
        if (elapsed >= seconds and op >= min_ops) or elapsed >= MAX_LOOP_SECONDS:
            break
        seed = base_seed + op
        traced = tracer is not None and op % 2 == 1
        stats.attempted += 1
        try:
            if tracer is not None:
                tracer.set_active(traced)
            span = tracer.op(op) if traced else contextlib.nullcontext()
            t0 = time.perf_counter()
            with span as sid:
                result = runners[traced](seed)
            dt = time.perf_counter() - t0
            dt_scaled = scaled(dt)
            if result.record is not None:
                tracer.absorb(result.record, sid)
            if op == perturb_op:
                result.text = perturb(result.text)
            check_output(workload, seed, result)
            problem = tracer.check_butterflies(op, processing_cost) if traced else None
            if problem:
                raise CheckFailed(problem)
            (stats.traced_times if traced else stats.times).append(dt_scaled)
            if not traced:
                stats.wall_times.append(dt)
        except Exception as exc:  # every failure counts against error_rate
            stats.failed += 1
            if stats.failed <= 3:
                print(f"op {op} (seed {seed}) failed: {exc!r}", file=sys.stderr)
        op += 1
    if tracer is not None:
        tracer.set_active(False)
    return stats


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def setup_seconds(workload: Workload) -> float:
    """Seconds from launching a fresh process to its first built Pipeline."""
    config = str(BENCH / "configs" / workload.config) if workload.config else "-"
    t0 = time.perf_counter()
    rc, out = _run_process([sys.executable, str(BENCH / "setup_probe.py"), config, workload.command])
    if rc != 0:
        raise RuntimeError(f"setup probe exited with {rc}")
    return float(out) - t0


def own_peak_rss_kib() -> int:
    """VmHWM of this process; unlike ru_maxrss it leaves out the launcher's memory."""
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


def rss_kib(workload: Workload, probes: int) -> float:
    """Mean peak RSS of op processes, each launched from the small rss_probe.py."""
    seed = json.loads((BENCH / "golden.json").read_text())["seed"]
    cmd = [sys.executable, str(BENCH / "rss_probe.py"), sys.executable, "-m", "qfft.cli", *workload.argv(seed)]
    samples = []
    for _ in range(probes):
        rc, out = _run_process(cmd)
        if rc != 0:
            raise RuntimeError(f"rss probe exited with {rc}")
        samples.append(int(out))
    return statistics.fmean(samples)


# -- environment --------------------------------------------------------------


def _cache_sizes_kib() -> dict[str, int]:
    """Total size per cache level over distinct cache instances, from sysfs."""
    seen, totals = set(), {}
    for index in sorted(Path("/sys/devices/system/cpu").glob("cpu[0-9]*/cache/index[0-9]*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if (level, kind, shared) in seen or kind == "Instruction":
            continue
        seen.add((level, kind, shared))
        kib = int(size.rstrip("K")) if size.endswith("K") else int(size.rstrip("M")) * 1024
        totals[f"L{level}"] = totals.get(f"L{level}", 0) + kib
    return totals


def _blas_threads() -> int | None:
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    return {
        "cpu": cpu,
        "nproc": NPROC,
        "pinned_cpu": PINNED_CPU,
        "cache_kib": _cache_sizes_kib(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
    }


# -- runs ---------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def enough_ops(count: int, needed: int, what: str) -> bool:
    if count < needed:
        print(f"only {count} {what} succeeded within {MAX_LOOP_SECONDS:.0f} s; {needed} are needed", file=sys.stderr)
    return count >= needed


def plain_run(workload: Workload, seed: int, seconds: float) -> tuple[dict, int, int, bool]:
    golden_ok = verify_golden(workload, Runner(workload))
    stats = run_ops(workload, seed, seconds, MIN_OPS, setup_probes=SETUP_PROBES)
    attempted, failed = stats.attempted + 1, stats.failed + (not golden_ok)
    if not enough_ops(len(stats.times), MIN_OPS, "ops"):
        return {}, attempted, failed, False
    if workload.in_process:
        rss_kb = own_peak_rss_kib()
    else:
        rss_kb = rss_kib(workload, RSS_PROBES)
    metrics = {
        "setup_s": _metric(statistics.median(stats.setup), "s"),
        "op_ms_p50": _metric(1e3 * statistics.median(stats.times), "ms"),
        "op_ms_p90": _metric(1e3 * percentile(stats.times, 0.9), "ms"),
        "ops_per_s": _metric(len(stats.times) / sum(stats.times), "1/s"),
        "peak_rss_mb": _metric(rss_kb / 1024.0, "MB"),
    }
    print(json.dumps({
        "samples": {"ops": len(stats.times), "setup_probes": len(stats.setup), "kernel_runs": len(stats.kernel)},
        "unscaled": {"op_ms_p50": 1e3 * statistics.median(stats.wall_times),
                     "op_ms_p90": 1e3 * percentile(stats.wall_times, 0.9),
                     "kernel_ms_p50": 1e3 * statistics.median(stats.kernel)},
    }))
    return metrics, attempted, failed, failed == 0


def traced_run(workload: Workload, seed: int, seconds: float, env: dict) -> tuple[dict, int, int, bool]:
    from tracer import MODULE_SELF_PARTS, PER_LAYER, Tracer, attribution_gap, install, summarize

    golden_ok = verify_golden(workload, Runner(workload))
    tracer = Tracer()
    if workload.in_process:
        install(tracer)
    stats = run_ops(workload, seed, seconds, 2 * MIN_TRACED_OPS, tracer)
    attempted = 1 + stats.attempted
    failed = (not golden_ok) + stats.failed
    if not (enough_ops(len(stats.times), MIN_TRACED_OPS, "untraced ops")
            and enough_ops(len(stats.traced_times), MIN_TRACED_OPS, "traced ops")):
        return {}, attempted, failed, False
    values = summarize(tracer)
    gap = attribution_gap(values)
    if abs(gap) > 1e-6 * values["trace.op_ms"]:
        raise RuntimeError(f"module self times miss the traced op time by {gap} ms")
    values["trace.overhead_pct"] = 100.0 * (statistics.median(stats.traced_times) / statistics.median(stats.times) - 1.0)
    values["error_rate"] = failed / attempted
    OUT.mkdir(exist_ok=True)
    record = tracer.to_record({"env": env, "metrics": values})
    (OUT / f"trace-{workload.name}-seed{seed}.json").write_text(json.dumps(record))
    print(json.dumps({"samples": {"untraced_ops": len(stats.times), "traced_ops": len(stats.traced_times)},
                      "self_time_parts": list(MODULE_SELF_PARTS)}))
    metrics = {name: _metric(values[name], unit) for name, (unit, _) in PER_LAYER.items()}
    return metrics, attempted, failed, failed == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qfft" / "cli.py").is_file():
        print(f"error: no qfft sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    env = environment()
    print(json.dumps({"env": env}))
    if args.trace:
        metrics, attempted, failed, correct = traced_run(workload, args.seed, args.seconds, env)
    else:
        metrics, attempted, failed, correct = plain_run(workload, args.seed, args.seconds)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
