"""Command-line front end.

Subcommands map to the experiment families: ``fft`` writes the output
vector of ``analysis.run_transform``, ``sweep`` the rows of
``analysis.run_sweep`` (the quantized pipeline against the ideal
reference across bit resolutions), ``quantizer`` characterizes a bare
quantizer by Monte-Carlo, and ``selftest`` runs the built-in consistency
checks from ``--seed`` alone. All randomness flows from a single seed;
flags override config-file values. This module only parses, calls the
library and has ``report`` write what it returns, as it is.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import os
import sys

import numpy as np

from . import analysis, core, report
from .config import MAX_SWEEP_SAMPLES, ConfigError, ExperimentConfig, parse_characterization, parse_config
from .pipeline import Pipeline, PipelineConfig, processing_cost
from .quantization import QuantizerSpec
from .signals import generate_signal  # not called here: the benchmark's tracer wraps this name


# built once per process (about 0.9 ms): parse_args leaves the parser as it was
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfft",
        description="Statically quantized radix-2 FFT/IFFT pipeline simulator and noise analysis tool",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="PATH", help="JSON configuration document")
        p.add_argument("--seed", type=int, metavar="U64", help="override the config seed")
        p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), help="report format")

    p_fft = sub.add_parser("fft", help="run one transform and emit the output vector")
    add_common(p_fft)
    p_sweep = sub.add_parser("sweep", help="bit-resolution sweep against the ideal reference")
    add_common(p_sweep)
    p_quant = sub.add_parser("quantizer", help="pure quantizer Monte-Carlo characterization")
    add_common(p_quant)
    p_quant.add_argument(
        "--samples", type=int, default=1_000_000, help="Monte-Carlo sample count (default 1e6)"
    )
    p_self = sub.add_parser("selftest", help="run built-in consistency checks")
    p_self.add_argument("--seed", type=int, metavar="U64", help="the checks' seed (default 0)")
    return parser


def _load_config(args) -> tuple[ExperimentConfig, QuantizerSpec | None]:
    """The config with the flags applied, and the spec ``qfft quantizer`` characterizes (None otherwise)."""
    text = "{}"
    path = getattr(args, "config", None)
    if path is not None:
        with open(path) as handle:
            text = handle.read()
    cfg, spec = parse_characterization(text) if args.command == "quantizer" else (parse_config(text), None)
    # selftest has only --seed; replace checks the flags as it checks the file
    flags = {key: getattr(args, key, None) for key in ("seed", "out", "format")}
    return dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None}), spec


def _cmd_quantizer(cfg: ExperimentConfig, spec: QuantizerSpec, samples: int) -> None:
    # checked before any draw: each row holds a few float64 arrays of this length
    if not analysis.MIN_CHARACTERIZATION_SAMPLES <= samples <= MAX_SWEEP_SAMPLES:
        raise ConfigError(
            f"--samples: must be in [{analysis.MIN_CHARACTERIZATION_SAMPLES}, {MAX_SWEEP_SAMPLES}], got {samples}"
        )
    rows = analysis.quantizer_characterization(
        spec.mode, cfg.bits_lo, cfg.bits_hi, samples, seed=cfg.seed, x_max=spec.x_max
    )
    header = {
        "quantizer": {k: v for k, v in dataclasses.asdict(spec).items() if v is not None and k != "bits"},
        "sweep": {"bits_lo": cfg.bits_lo, "bits_hi": cfg.bits_hi},
        "samples": samples,
        "seed": cfg.seed,
        "format": cfg.format,
    }
    report.write([report.emit_report(rows, format=cfg.format, config=header)], cfg.out)


def _selftest_checks(seed: int):
    rng = np.random.default_rng(seed)
    # oracle equivalence of the staged transform
    for n in (2, 8, 64, 256):
        x = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        worst = np.max(np.abs(core.fft_reference(x) - core.dft_naive(x)))
        yield f"oracle equivalence n={n}", worst < 1e-9 * n, f"max abs error {worst:.3e}"
    # round trip and energy conservation
    x = rng.uniform(-1, 1, 256) + 1j * rng.uniform(-1, 1, 256)
    spectrum = core.fft_reference(x)
    worst = np.max(np.abs(core.fft_reference(spectrum, "ifft") - x))
    yield "round trip n=256", worst < 1e-12 * 256, f"max abs error {worst:.3e}"
    energy_in = float(np.sum(np.abs(x) ** 2))
    energy_out = float(np.sum(np.abs(spectrum) ** 2)) / 256
    rel = abs(energy_in - energy_out) / energy_in
    yield "energy conservation n=256", rel < 1e-10, f"relative discrepancy {rel:.3e}"
    # instrumented counters
    for n in (2, 8, 256):
        pipeline = Pipeline(PipelineConfig(n=n))
        trace = pipeline.run(rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        ok = (trace.multiplies, trace.additions) == processing_cost(n)
        yield f"operation counters n={n}", ok, f"({trace.multiplies}, {trace.additions})"
    # quantizer bypass is bit-exact
    x = rng.uniform(-1, 1, 64) + 1j * rng.uniform(-1, 1, 64)
    trace = Pipeline(PipelineConfig(n=64)).run(x)
    ok = trace.output.tobytes() == core.fft_reference(x).tobytes()
    yield "quantizer bypass bit-exact n=64", ok, ""
    # Monte-Carlo vs closed forms
    for mode, bits in (("uniform", 8), ("mantissa", 6)):
        (row,) = analysis.quantizer_characterization(mode, bits, bits, 200_000, seed=seed)
        empirical, theory = row.empirical_variance, row.theory_variance
        yield (
            f"{mode} quantizer variance b={bits}",
            abs(empirical - theory) / theory < 0.05,
            f"empirical {empirical:.6e} vs theory {theory:.6e}",
        )
    # reported, never failed (ok is None): whether complex128 multiply rounds
    # each product, as numpy's baseline loop does, or fuses one into the add,
    # as its X86_V3 and X86_V4 loops do; every butterfly's bits follow the loop
    probe = np.random.default_rng(1)
    w = probe.uniform(-1, 1, 64) + 1j * probe.uniform(-1, 1, 64)
    b = probe.uniform(-1, 1, 64) + 1j * probe.uniform(-1, 1, 64)
    product = w * b
    separate = np.array_equal(product.real, w.real * b.real - w.imag * b.imag) and np.array_equal(
        product.imag, w.real * b.imag + w.imag * b.real
    )
    yield "complex multiply loop", None, "separately rounded" if separate else "fused"


def _cmd_selftest(seed: int) -> int:
    failures = 0
    for name, ok, detail in _selftest_checks(seed):
        status = "INFO" if ok is None else "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"selftest {name}: {status}{suffix}")
        failures += status == "FAIL"
    print(f"selftest: {'all checks passed' if failures == 0 else f'{failures} check(s) failed'}")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg, spec = _load_config(args)
        status = 0
        if args.command == "selftest":
            status = _cmd_selftest(cfg.seed)
        elif args.command == "fft":
            trace = analysis.run_transform(cfg)
            report.write(report.emit_vector(trace.output, trace.saturation_total, cfg.format, cfg.to_dict()), cfg.out)
        elif args.command == "sweep":
            report.write([report.emit_report(analysis.run_sweep(cfg), format=cfg.format, config=cfg.to_dict())], cfg.out)
        else:
            _cmd_quantizer(cfg, spec, args.samples)
        # a report still buffered is written here, where a closed pipe is caught
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader went away (``qfft fft | head``): as the Python docs advise
        # for SIGPIPE, point stdout at devnull so the flush at exit cannot
        # fail again, and exit nonzero without a message
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> int:
    """The ``qfft`` process entry: ``main`` on ``sys.argv`` without the cyclic collector.

    A one-shot process frees what it made at exit, so it skips the
    collections numpy's lazy imports and the report would trigger, and
    freezes the heap so the collections at interpreter shutdown skip it
    too. ``main`` called in process leaves the caller's collector alone.
    """
    gc.disable()
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(console_main())
