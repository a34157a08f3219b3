"""Experiment configuration: JSON document parsing, validation, serialization.

Schema (all keys optional, defaults applied):

    {
      "n": 1024,
      "direction": "fft" | "ifft",
      "quantizer": {"mode": "off"|"uniform"|"mantissa", "bits": 8,
                    "x_max": 1.0 or null for automatic,
                    "per_stage": [{"mode":..., "bits":..., "x_max":...}, ...]},
      "twiddle_quantization": {"enabled": false, "bits": 8},
      "signal": {"kind": "impulse"|"sinusoid"|"multitone"|"random",
                 "bin": 0, "amplitude": 1.0,
                 "bins": [...], "amplitudes": [...]},  # bins/amplitudes: multitone only
      "sweep": {"bits_lo": 6, "bits_hi": 14, "trials": 20},  # trials * n <= 2**24
      "seed": 0,
      "out": null,
      "format": "csv" | "json"
    }

Unknown keys, type mismatches and constraint violations raise
``ConfigError`` naming the offending field.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

from . import core
from .pipeline import PipelineConfig
from .quantization import MAX_BITS, MODES, QuantizerSpec
from .signals import KINDS, SignalSpec, magnitude_bound

MAX_SWEEP_BITS = 24
# a sweep holds every trial's input, reference output and error (16 bytes each
# per trials x n sample), and the variance of the errors copies them: it peaks
# at about 40 MiB plus 64 bytes per sample, about 1.04 GiB at 2**24 samples
MAX_SWEEP_SAMPLES = 2**24


class ConfigError(ValueError):
    """Configuration document error carrying a field-path diagnostic."""


def uniform_stage_specs(n: int, bits: int, input_x_max: float) -> tuple[QuantizerSpec, ...]:
    """Per-stage uniform quantizers with full scale doubling each stage.

    Stage s gets x_max = input_x_max * 2**(s+1), tracking the worst-case
    factor-2 magnitude growth per butterfly stage so saturation does not
    drown the staircase noise.
    """
    stages = core.num_stages(n)
    return tuple(
        QuantizerSpec("uniform", bits, input_x_max * 2.0 ** (s + 1)) for s in range(stages)
    )


def mantissa_stage_specs(n: int, bits: int) -> tuple[QuantizerSpec, ...]:
    """Per-stage mantissa quantizers (scale-free, no full-scale ladder needed)."""
    stages = core.num_stages(n)
    return tuple(QuantizerSpec("mantissa", bits) for _ in range(stages))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment configuration with all defaults applied."""

    n: int = 1024
    direction: str = "fft"
    quantizer_mode: str = "uniform"
    quantizer_bits: int = 8
    quantizer_x_max: float | None = None
    per_stage: tuple[QuantizerSpec, ...] | None = None
    twiddle_enabled: bool = False
    twiddle_bits: int = 8
    signal_kind: str = "random"
    signal_bin: int = 0
    signal_bins: tuple[int, ...] = ()
    signal_amplitudes: tuple[float, ...] = ()
    signal_amplitude: float = 1.0
    bits_lo: int = 6
    bits_hi: int = 14
    trials: int = 20
    seed: int = 0
    out: str | None = None
    format: str = "csv"

    def signal_spec(self) -> SignalSpec:
        return SignalSpec(
            kind=self.signal_kind,
            n=self.n,
            bin=self.signal_bin,
            bins=self.signal_bins,
            amplitudes=self.signal_amplitudes,
            amplitude=self.signal_amplitude,
        )

    def base_x_max(self) -> float:
        """Input-stage full scale: explicit x_max or the signal magnitude bound."""
        if self.quantizer_x_max is not None:
            return self.quantizer_x_max
        return magnitude_bound(self.signal_spec())

    def stage_quantizers(self, bits: int | None = None) -> tuple[QuantizerSpec, ...]:
        """Stage quantizers at ``bits`` (default ``quantizer.bits``); ``per_stage`` fixes them."""
        if self.per_stage is not None:
            return self.per_stage
        b = self.quantizer_bits if bits is None else bits
        if self.quantizer_mode == "off":
            return tuple(QuantizerSpec("off") for _ in range(core.num_stages(self.n)))
        if self.quantizer_mode == "uniform":
            return uniform_stage_specs(self.n, b, self.base_x_max())
        return mantissa_stage_specs(self.n, b)

    def twiddle_quantizer(self) -> QuantizerSpec | None:
        # twiddle components live in [-1, 1]: a uniform ROM grid with x_max=1
        if not self.twiddle_enabled:
            return None
        return QuantizerSpec("uniform", self.twiddle_bits, 1.0)

    def pipeline_config(self, bits: int | None = None) -> PipelineConfig:
        return PipelineConfig(
            n=self.n,
            direction=self.direction,
            stage_quantizers=self.stage_quantizers(bits),
            twiddle_quantizer=self.twiddle_quantizer(),
        )

    def to_dict(self) -> dict:
        """Nested document form with every effective value filled in; an off stage is its mode alone."""
        doc = {
            "n": self.n,
            "direction": self.direction,
            "quantizer": {
                "mode": self.quantizer_mode,
                "bits": self.quantizer_bits,
                "x_max": self.quantizer_x_max,
            },
            "twiddle_quantization": {"enabled": self.twiddle_enabled, "bits": self.twiddle_bits},
            "signal": {
                "kind": self.signal_kind,
                "bin": self.signal_bin,
                "amplitude": self.signal_amplitude,
            },
            "sweep": {"bits_lo": self.bits_lo, "bits_hi": self.bits_hi, "trials": self.trials},
            "seed": self.seed,
            "out": self.out,
            "format": self.format,
        }
        if self.signal_kind == "multitone":
            doc["signal"]["bins"] = list(self.signal_bins)
            doc["signal"]["amplitudes"] = list(self.signal_amplitudes)
        if self.per_stage is not None:
            doc["quantizer"]["per_stage"] = [
                {"mode": s.mode} if s.mode == "off" else {"mode": s.mode, "bits": s.bits, "x_max": s.x_max}
                for s in self.per_stage
            ]
        return doc


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _check_keys(mapping: dict, path: str, allowed: tuple[str, ...]) -> None:
    for key in mapping:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"{where}: unknown key (allowed: {', '.join(allowed)})")


def _get_int(mapping: dict, path: str, key: str, default: int) -> int:
    value = mapping.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{_join(path, key)}: expected an integer, got {value!r}")
    return value


def _get_number(mapping: dict, path: str, key: str, default):
    value = mapping.get(key, default)
    if value is None:
        return None
    return _finite_number(value, _join(path, key))


def _finite_number(value, where: str) -> float:
    # JSON admits 1e400 (read as inf), Infinity, NaN and integers beyond float range
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}: must be a finite number, got {value!r}")
    return number


def _check_ladder_overflow(value: float, where: str, n: int) -> None:
    """Reject a full scale whose deepest uniform-ladder step is not finite.

    The doubling ladder gives the last stage a full scale of value * 2**log2(n),
    and the transform output magnitude stays below it; the check bounds
    2 * value * 2**(log2(n) + 1) so the steps and the output stay finite.
    """
    exponent = core.num_stages(n) + 1
    if not math.isfinite(2.0 * value * 2.0**exponent):
        raise ConfigError(
            f"{where}: full scale {value!r} is too large for n = {n}; "
            f"the deepest ladder step 2 * {value!r} * 2**{exponent} overflows"
        )


def _check_step_is_normal(value: float, where: str, bits: int) -> None:
    """Reject a uniform full scale whose finest step 2 * value * 2**-bits is not normal.

    A step that underflows to zero or to a subnormal makes x / q overflow
    or divide by zero inside the quantizer, and one that overflows makes
    the levels 0 * inf; either way the transform ends in non-finite values.
    """
    if not sys.float_info.min <= 2.0 * value * 2.0**-bits <= sys.float_info.max:
        raise ConfigError(
            f"{where}: full scale {value!r} at {bits} bits gives the ladder step "
            f"2 * {value!r} * 2**-{bits}, which is not a positive normal number"
        )


def _get_str(mapping: dict, path: str, key: str, default: str, choices: tuple[str, ...]) -> str:
    value = mapping.get(key, default)
    if not isinstance(value, str):
        raise ConfigError(f"{_join(path, key)}: expected a string, got {value!r}")
    if value not in choices:
        raise ConfigError(f"{_join(path, key)}: must be one of {', '.join(choices)}; got {value!r}")
    return value


def _get_bool(mapping: dict, path: str, key: str, default: bool) -> bool:
    value = mapping.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{_join(path, key)}: expected true/false, got {value!r}")
    return value


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _parse_quantizer_spec(entry, path: str) -> QuantizerSpec:
    entry = _require_mapping(entry, path)
    _check_keys(entry, path, ("mode", "bits", "x_max"))
    mode = _get_str(entry, path, "mode", "uniform", MODES)
    # an off entry ignores bits and x_max, but a malformed one is still an error
    bits = _get_int(entry, path, "bits", 8)
    x_max = _get_number(entry, path, "x_max", 1.0)
    if mode == "off":
        return QuantizerSpec("off")
    try:
        spec = QuantizerSpec(mode, bits, 1.0 if x_max is None else x_max)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if mode == "uniform":
        _check_step_is_normal(spec.x_max, f"{path}.x_max", bits)
    return spec


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON configuration document."""
    try:
        doc = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # integers past the interpreter's digit limit, nesting past its recursion limit
        raise ConfigError(f"unreadable JSON: {exc}") from exc
    doc = _require_mapping(doc, "config")
    _check_keys(
        doc,
        "",
        ("n", "direction", "quantizer", "twiddle_quantization", "signal", "sweep", "seed", "out", "format"),
    )

    n = _get_int(doc, "", "n", 1024)
    try:
        core.validate_size(n)
    except ValueError as exc:
        raise ConfigError(f"n: {exc}") from exc
    direction = _get_str(doc, "", "direction", "fft", core.DIRECTIONS)

    quant = _require_mapping(doc.get("quantizer", {}), "quantizer")
    _check_keys(quant, "quantizer", ("mode", "bits", "x_max", "per_stage"))
    quantizer_mode = _get_str(quant, "quantizer", "mode", "uniform", MODES)
    quantizer_bits = _get_int(quant, "quantizer", "bits", 8)
    if not 1 <= quantizer_bits <= MAX_BITS:
        raise ConfigError(f"quantizer.bits: must be in 1..{MAX_BITS}, got {quantizer_bits}")
    quantizer_x_max = _get_number(quant, "quantizer", "x_max", None)
    if quantizer_x_max is not None and not quantizer_x_max > 0:
        raise ConfigError(f"quantizer.x_max: must be positive, got {quantizer_x_max}")
    per_stage = None
    if "per_stage" in quant:
        raw = quant["per_stage"]
        if not isinstance(raw, list):
            raise ConfigError(f"quantizer.per_stage: expected a list, got {type(raw).__name__}")
        per_stage = tuple(
            _parse_quantizer_spec(entry, f"quantizer.per_stage[{i}]") for i, entry in enumerate(raw)
        )
        if len(per_stage) != core.num_stages(n):
            raise ConfigError(
                f"quantizer.per_stage: need exactly log2(n) = {core.num_stages(n)} entries, got {len(per_stage)}"
            )

    twiddle = _require_mapping(doc.get("twiddle_quantization", {}), "twiddle_quantization")
    _check_keys(twiddle, "twiddle_quantization", ("enabled", "bits"))
    twiddle_enabled = _get_bool(twiddle, "twiddle_quantization", "enabled", False)
    twiddle_bits = _get_int(twiddle, "twiddle_quantization", "bits", 8)
    if not 1 <= twiddle_bits <= MAX_BITS:
        raise ConfigError(f"twiddle_quantization.bits: must be in 1..{MAX_BITS}, got {twiddle_bits}")

    sig = _require_mapping(doc.get("signal", {}), "signal")
    _check_keys(sig, "signal", ("kind", "bin", "bins", "amplitudes", "amplitude"))
    signal_kind = _get_str(sig, "signal", "kind", "random", KINDS)
    signal_bin = _get_int(sig, "signal", "bin", 0)
    signal_amplitude = _get_number(sig, "signal", "amplitude", 1.0)
    for key in ("bins", "amplitudes"):
        if key in sig and signal_kind != "multitone":
            raise ConfigError(
                f"signal.{key}: only a multitone signal has {key}, got kind {signal_kind!r}"
            )
    if signal_amplitude is None:
        raise ConfigError("signal.amplitude: expected a number, got null")
    bins_raw = sig.get("bins", [])
    if not isinstance(bins_raw, list) or any(isinstance(b, bool) or not isinstance(b, int) for b in bins_raw):
        raise ConfigError(f"signal.bins: expected a list of integers, got {bins_raw!r}")
    amps_raw = sig.get("amplitudes", [])
    if not isinstance(amps_raw, list):
        raise ConfigError(f"signal.amplitudes: expected a list of numbers, got {amps_raw!r}")
    signal_amplitudes = tuple(
        _finite_number(a, f"signal.amplitudes[{i}]") for i, a in enumerate(amps_raw)
    )

    sweep = _require_mapping(doc.get("sweep", {}), "sweep")
    _check_keys(sweep, "sweep", ("bits_lo", "bits_hi", "trials"))
    bits_lo = _get_int(sweep, "sweep", "bits_lo", 6)
    bits_hi = _get_int(sweep, "sweep", "bits_hi", 14)
    if not 1 <= bits_lo <= bits_hi <= MAX_SWEEP_BITS:
        raise ConfigError(
            f"sweep: need 1 <= bits_lo <= bits_hi <= {MAX_SWEEP_BITS}, got {bits_lo}..{bits_hi}"
        )
    trials = _get_int(sweep, "sweep", "trials", 20)
    if trials < 1:
        raise ConfigError(f"sweep.trials: must be >= 1, got {trials}")
    if trials * n > MAX_SWEEP_SAMPLES:
        raise ConfigError(
            f"sweep.trials: trials * n must be at most {MAX_SWEEP_SAMPLES} (2**24), "
            f"got {trials} * {n}; at n = {n} at most {MAX_SWEEP_SAMPLES // n} trials"
        )

    seed = _get_int(doc, "", "seed", 0)
    if seed < 0:
        raise ConfigError(f"seed: must be nonnegative, got {seed}")
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out: expected a string path, got {out!r}")
    fmt = _get_str(doc, "", "format", "csv", ("csv", "json"))

    cfg = ExperimentConfig(
        n=n,
        direction=direction,
        quantizer_mode=quantizer_mode,
        quantizer_bits=quantizer_bits,
        quantizer_x_max=quantizer_x_max,
        per_stage=per_stage,
        twiddle_enabled=twiddle_enabled,
        twiddle_bits=twiddle_bits,
        signal_kind=signal_kind,
        signal_bin=signal_bin,
        signal_bins=tuple(bins_raw),
        signal_amplitudes=signal_amplitudes,
        signal_amplitude=signal_amplitude,
        bits_lo=bits_lo,
        bits_hi=bits_hi,
        trials=trials,
        seed=seed,
        out=out,
        format=fmt,
    )
    try:
        signal = cfg.signal_spec()
    except ValueError as exc:
        raise ConfigError(f"signal: {exc}") from exc
    if quantizer_x_max is not None:
        _check_ladder_overflow(quantizer_x_max, "quantizer.x_max", n)
    signal_field = "signal.amplitudes" if signal_kind == "multitone" else "signal.amplitude"
    _check_ladder_overflow(magnitude_bound(signal), signal_field, n)
    if quantizer_mode != "mantissa":
        # the uniform ladder of `qfft fft` and of the sweep rows, at its finest
        _check_step_is_normal(
            cfg.base_x_max(),
            "quantizer.x_max" if quantizer_x_max is not None else signal_field,
            max(quantizer_bits, bits_hi),
        )
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render the effective configuration back to its JSON document form."""
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True)
