"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of the ``qfft`` modules from outside the
package, at the names their callers look up, and records one span per call:
name, start, end, parent span and op id. Counts that a layer boundary
exposes (butterflies, quantized components, snapshot bytes, ...) are
recorded at the same boundary, per op. Spans stay in memory until the run
ends; ``summarize`` turns them into per-op mean metrics for each module.

A span's self time is its duration minus the durations of its direct
child spans, so the self times of one op, plus the self time of the op's
root span (time no wrapped function accounts for), sum to the op's time.

Timestamps come from ``time.perf_counter``, which on Linux reads
CLOCK_MONOTONIC; spans recorded in a child process therefore line up with
the parent's op span.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

ROOT = "op"
FLOPS_PER_BUTTERFLY = 10  # one complex multiply (6 flops) and two complex adds (2 each)
MIB = float(1 << 20)


class Tracer:
    """Span and counter store for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_ids = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_counts: defaultdict[int, Counter] = defaultdict(Counter)
        self._seen: set = set()  # (op, kind, n) a table was requested for
        # last table returned per (kind, n), held so its buffer cannot be reused
        self._last: dict = {}
        self.peak_vector_bytes = 0
        self._stack = [-1]
        self._op = -1
        self._patches: list[tuple] = []  # (owner, attr, original, wrapper)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _push(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op_ids.append(self._op)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _pop(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def begin(self, op_id: int) -> None:
        """Attribute the spans and counts that follow to op ``op_id``."""
        self._op = op_id

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one op; yields its span id."""
        self.begin(op_id)
        sid = self._push(self._name_id(ROOT))
        try:
            yield sid
        finally:
            self._pop(sid)
            self._op = -1

    def count(self, key: str, value: int = 1) -> None:
        self.op_counts[self._op][key] += value

    def wrap(self, owner, attr: str, span: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span per call.

        ``on_result(sid, args, result)`` runs after the span closes.
        """
        fn = getattr(owner, attr)
        nid = self._name_id(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._push(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop(sid)
            if on_result is not None:
                on_result(sid, args, result)
            return result

        self._patches.append((owner, attr, fn, traced))
        setattr(owner, attr, traced)

    def set_active(self, active: bool) -> None:
        """Put the wrappers in place, or the original functions back."""
        for owner, attr, original, wrapper in self._patches:
            setattr(owner, attr, wrapper if active else original)

    def record_table(self, kind: str, n: int, table: np.ndarray) -> None:
        """Count, in the current op, the sizes a table is requested for and its builds.

        A call counts as a build when it returns a buffer other than the one
        the last call for the same size returned.
        """
        key = (kind, int(n))
        if (self._op, *key) not in self._seen:
            self._seen.add((self._op, *key))
            self.count(f"{kind}.sizes")
        last = self._last.get(key)
        if last is None or last.__array_interface__["data"][0] != table.__array_interface__["data"][0]:
            self.count(f"{kind}.builds")
        self._last[key] = table

    def check_butterflies(self, op_id: int, processing_cost) -> str | None:
        """Butterflies counted from ``dit_stage`` against the transforms counted."""
        counts = self.op_counts[op_id]
        expected = sum(
            processing_cost(int(key.split(":")[1]))[0] * value
            for key, value in counts.items()
            if key.startswith("transforms:")
        )
        got = counts["core.butterflies"]
        if got != expected:
            return f"butterflies {got} != processing_cost x transforms {expected}"
        return None

    def to_record(self, meta: dict | None = None) -> dict:
        """Plain-data form of every span and count, with ``meta``.

        A child process hands its spans back in this form, and a traced run
        writes its spans out in it when it ends.
        """
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op_ids.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counts": {str(k): dict(v) for k, v in self.op_counts.items()},
            "peak_vector_bytes": self.peak_vector_bytes,
            "meta": meta,
        }

    def absorb(self, record: dict, root_sid: int) -> None:
        """Add a child process's spans under the op span ``root_sid``."""
        op_id = self.op_ids[root_sid]
        offset = len(self.name)
        ids = [self._name_id(n) for n in record["names"]]
        for nid, parent, start, end in zip(
            record["name"], record["parent"], record["start"], record["end"]
        ):
            self.name.append(ids[nid])
            self.parent.append(root_sid if parent < 0 else parent + offset)
            self.op_ids.append(op_id)
            self.start.append(start)
            self.end.append(end)
        counts = self.op_counts[op_id]
        for child_counts in record["counts"].values():
            counts.update(child_counts)
        self.peak_vector_bytes = max(self.peak_vector_bytes, record["peak_vector_bytes"])


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every qfft module where callers look them up.

    ``cli`` and ``analysis`` bind ``generate_signal`` at import, ``cli``
    binds ``parse_config``, and ``pipeline`` binds ``apply_quantizer``, so
    those names are wrapped in the importing module. ``apply_quantizer``
    also calls itself through its own module for the real and imaginary
    parts; those nested spans are children of the outer one.
    """
    from qfft import analysis, cli, core, pipeline, quantization, report

    t = tracer

    def on_build(sid, args, result):
        t.count("pipeline.builds")

    def on_run(sid, args, trace):
        n = args[0].n
        t.count("pipeline.runs")
        t.count(f"transforms:{n}")
        arrays = [getattr(trace, "input", None), *(getattr(trace, "stage_outputs", None) or ())]
        t.count("pipeline.snapshot_bytes", sum(a.nbytes for a in arrays if isinstance(a, np.ndarray)))

    def on_reference(sid, args, result):
        t.count(f"transforms:{len(result)}")

    def on_table(kind):
        return lambda sid, args, result: t.record_table(kind, args[0], result)

    def on_stage(sid, args, result):
        data, twiddles, stage = args[:3]
        butterflies = int(result[0])
        t.count("core.stage_calls")
        t.count("core.butterflies", butterflies)
        # computed, not measured: the data vector read and written once, plus
        # the stage's twiddle slice (2**stage entries) read once
        t.count("core.stage_bytes", 2 * data.nbytes + twiddles.itemsize * (1 << stage))
        t.peak_vector_bytes = max(t.peak_vector_bytes, data.nbytes)

    quant_id = t._name_id("quant.apply")

    def on_quant(sid, args, result):
        parent = t.parent[sid]
        if parent >= 0 and t.name[parent] == quant_id:
            return  # real/imaginary half of a complex call already counted
        values = args[0]
        t.count("quant.calls")
        t.count("quant.components", values.size * (2 if np.iscomplexobj(values) else 1))
        t.count("quant.saturations", int(result[1]))

    t.wrap(cli, "main", "cli.main")
    t.wrap(cli, "parse_config", "config.parse")
    t.wrap(cli, "generate_signal", "signals.generate")
    t.wrap(analysis, "generate_signal", "signals.generate")
    t.wrap(analysis, "run_sweep", "analysis.sweep")
    t.wrap(pipeline.Pipeline, "__init__", "pipeline.build", on_build)
    t.wrap(pipeline.Pipeline, "run", "pipeline.run", on_run)
    t.wrap(core, "bit_reverse_permute", "core.bitrev")
    t.wrap(core, "bit_reversal_indices", "core.bitrev_build", on_table("bitrev"))
    t.wrap(core, "twiddle_table", "core.twiddle", on_table("twiddle"))
    t.wrap(core, "dit_stage", "core.stage", on_stage)
    t.wrap(core, "fft_reference", "core.reference", on_reference)
    t.wrap(pipeline, "apply_quantizer", "quant.apply", on_quant)
    t.wrap(quantization, "apply_quantizer", "quant.apply", on_quant)
    t.wrap(report, "emit_report", "report.emit")


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-op mean metrics of every module from the recorded spans."""
    name = np.array(tracer.name, dtype=np.int32)
    parent = np.array(tracer.parent, dtype=np.int32)
    dur = np.array(tracer.end, dtype=np.float64) - np.array(tracer.start, dtype=np.float64)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=name.size)
    self_time = dur - child
    if self_time.min(initial=0.0) < -1e-6:
        raise ValueError("child spans outlast their parent: spans do not nest")

    ids = {n: i for i, n in enumerate(tracer.names)}
    width = len(tracer.names)
    total = np.bincount(name, weights=dur, minlength=width)
    self_total = np.bincount(name, weights=self_time, minlength=width)
    parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)

    def outermost(*spans: str) -> np.ndarray:
        """Spans of the family ``spans`` not nested inside another of the family."""
        family = [ids[s] for s in spans if s in ids]
        return np.isin(name, family) & ~np.isin(parent_name, family)

    def t_ms(span):
        return 1e3 * total[ids[span]] if span in ids else 0.0

    def self_ms(span):
        return 1e3 * self_total[ids[span]] if span in ids else 0.0

    def module_self_ms(module):
        return 1e3 * sum(self_total[i] for n, i in ids.items() if n.split(".")[0] == module)

    ops = int(np.count_nonzero(name == ids[ROOT]))
    counts = Counter()
    for per_op in tracer.op_counts.values():
        counts.update(per_op)
    stage_s = total[ids["core.stage"]] if "core.stage" in ids else 0.0
    quant_ms = 1e3 * float(dur[outermost("quant.apply")].sum())
    bitrev = outermost("core.bitrev", "core.bitrev_build")
    flops = FLOPS_PER_BUTTERFLY * counts["core.butterflies"]

    sums = {
        "cli.self_ms": self_ms("cli.main"),
        "config.parse_ms": t_ms("config.parse"),
        "signals.generate_ms": t_ms("signals.generate"),
        "analysis.sweep_self_ms": self_ms("analysis.sweep"),
        "pipeline.build_ms": t_ms("pipeline.build"),
        "pipeline.builds": counts["pipeline.builds"],
        "pipeline.run_self_ms": self_ms("pipeline.run"),
        "pipeline.runs": counts["pipeline.runs"],
        "pipeline.self_ms": module_self_ms("pipeline"),
        "pipeline.snapshot_mb": counts["pipeline.snapshot_bytes"] / MIB,
        "core.bitrev_ms": 1e3 * float(dur[bitrev].sum()),
        "core.bitrev_calls": int(bitrev.sum()),
        "core.twiddle_ms": t_ms("core.twiddle"),
        "core.stage_ms": 1e3 * stage_s,
        "core.stage_calls": counts["core.stage_calls"],
        "core.reference_self_ms": self_ms("core.reference"),
        "core.self_ms": module_self_ms("core"),
        "core.butterflies": counts["core.butterflies"],
        "core.stage_mb_computed": counts["core.stage_bytes"] / MIB,
        "quant.ms": quant_ms,
        "quant.self_ms": module_self_ms("quant"),
        "quant.calls": counts["quant.calls"],
        "quant.components": counts["quant.components"],
        "quant.saturations": counts["quant.saturations"],
        "report.emit_ms": t_ms("report.emit"),
        "trace.op_ms": t_ms(ROOT),
        "trace.unattributed_ms": self_ms(ROOT),
    }
    metrics = {key: value / ops for key, value in sums.items()}
    # waste ratios: table builds per size requested in an op, so 1.0 means
    # one build per size per op on every workload, and below 1.0 means
    # tables built in one op were reused by later ones
    metrics["core.bitrev_per_size"] = counts["bitrev.builds"] / max(counts["bitrev.sizes"], 1)
    metrics["core.twiddle_per_size"] = counts["twiddle.builds"] / max(counts["twiddle.sizes"], 1)
    metrics["core.stage_ops_per_byte"] = flops / max(counts["core.stage_bytes"], 1)
    metrics["core.stage_gflops"] = flops / stage_s / 1e9 if stage_s > 0 else 0.0
    metrics["core.working_set_mb"] = tracer.peak_vector_bytes / MIB
    components = counts["quant.components"]
    metrics["quant.ns_per_component"] = 1e6 * quant_ms / components if components else 0.0
    return metrics


# every per-layer metric a traced run reports: name -> (unit, better)
PER_LAYER = {
    "cli.self_ms": ("ms", "lower"),
    "config.parse_ms": ("ms", "lower"),
    "signals.generate_ms": ("ms", "lower"),
    "analysis.sweep_self_ms": ("ms", "lower"),
    "pipeline.build_ms": ("ms", "lower"),
    "pipeline.builds": ("count", "lower"),
    "pipeline.run_self_ms": ("ms", "lower"),
    "pipeline.runs": ("count", "lower"),
    "pipeline.self_ms": ("ms", "lower"),
    "pipeline.snapshot_mb": ("MB", "lower"),
    "core.bitrev_ms": ("ms", "lower"),
    "core.bitrev_calls": ("count", "lower"),
    "core.bitrev_per_size": ("ratio", "lower"),
    "core.twiddle_ms": ("ms", "lower"),
    "core.twiddle_per_size": ("ratio", "lower"),
    "core.stage_ms": ("ms", "lower"),
    "core.stage_calls": ("count", "lower"),
    "core.reference_self_ms": ("ms", "lower"),
    "core.self_ms": ("ms", "lower"),
    "core.butterflies": ("count", "lower"),
    "core.stage_mb_computed": ("MB", "lower"),
    "core.stage_ops_per_byte": ("flop/B", "higher"),
    "core.stage_gflops": ("GFLOP/s", "higher"),
    "core.working_set_mb": ("MB", "lower"),
    "quant.ms": ("ms", "lower"),
    "quant.self_ms": ("ms", "lower"),
    "quant.calls": ("count", "lower"),
    "quant.ns_per_component": ("ns", "lower"),
    "quant.components": ("count", "lower"),
    "quant.saturations": ("count", "lower"),
    "report.emit_ms": ("ms", "lower"),
    "trace.op_ms": ("ms", "lower"),
    "trace.unattributed_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "error_rate": ("ratio", "lower"),
}

MODULE_SELF_PARTS = (
    "cli.self_ms",
    "config.parse_ms",
    "signals.generate_ms",
    "analysis.sweep_self_ms",
    "pipeline.self_ms",
    "core.self_ms",
    "quant.self_ms",
    "report.emit_ms",
    "trace.unattributed_ms",
)


def attribution_gap(metrics: dict[str, float]) -> float:
    """Traced op time minus the module self times and unattributed time, in ms."""
    return metrics["trace.op_ms"] - sum(metrics[k] for k in MODULE_SELF_PARTS)
