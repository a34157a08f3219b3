"""Experiment configuration: JSON document parsing, validation, serialization.

Schema (all keys optional, defaults applied):

    {
      "n": 1024,  # a power of two in [2, 65536]
      "direction": "fft" | "ifft",
      "quantizer": {"per_stage": null,  # or log2(n) entries, each with mode, bits, x_max (uniform only)
                    # mode, bits and x_max set every stage where per_stage is null, and only there
                    "mode": "off" | "uniform" | "mantissa", "bits": 8,  # bits in 1..52
                    "x_max": null},  # a positive full scale, or null for automatic; uniform only
                    # "off" is no quantizer: a None stage in the PipelineConfig
      "twiddle_quantization": {"enabled": false, "bits": 8},
      "signal": {"kind": "impulse" | "sinusoid" | "multitone" | "random",
                 "bin": 0, "amplitude": 1.0,  # amplitude: random only
                 "bins": [], "amplitudes": []},  # bins, amplitudes: multitone only
      "sweep": {"bits_lo": 6, "bits_hi": 14, "trials": 20},  # trials * n <= 2**24
      "seed": 0,
      "out": null,
      "format": "csv" | "json"
    }

Each ``ExperimentConfig`` field declares its document path, kind and bounds
once; every instance, parsed or built in Python, is checked on construction.
Unknown keys, type mismatches and constraint violations raise ``ConfigError``
naming the offending path.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields

from . import core
from .pipeline import PipelineConfig
from .quantization import MAX_BITS, MODES, QuantizerSpec
from .signals import KINDS, SignalSpec, magnitude_bound

MAX_SWEEP_BITS = 24
# a sweep holds every trial's input, reference output and error (16 bytes each
# per trials x n sample), and the variance of the errors copies them: it peaks
# at about 40 MiB plus 64 bytes per sample, about 1.04 GiB at 2**24 samples
MAX_SWEEP_SAMPLES = 2**24
# the one signal kind that reads each kind-specific signal key
_SIGNAL_READERS = {"amplitude": "random", "bins": "multitone", "amplitudes": "multitone"}
# the modes a document names: "off" is no quantizer (a None stage), then the quantizer MODES
_MODES = ("off", *MODES)
_FIXED_BITS = "quantizer.per_stage: fixes the bits of every stage, so a sweep cannot vary them"


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


def _setting(path: str, default, kind: str, unread=None, **rules):
    """A field at document ``path``: ``_checked`` checks its ``kind`` and ``rules``. Where
    ``unread(config, key)`` gives a reason, no run reads the field: it must keep its
    default, and ``to_dict`` leaves it out."""
    metadata = {"path": path, "unread": unread, "rules": {"kind": kind, **rules}}
    return field(default=default, metadata=metadata)


def _signal_only(cfg, key: str) -> str | None:
    kind = _SIGNAL_READERS[key]
    if cfg.signal_kind != kind:
        return f"only a {kind} signal has {key}, got kind {cfg.signal_kind!r}"
    return None


def _without_per_stage(cfg, key: str) -> str | None:
    if cfg.per_stage is not None:
        return f"quantizer.per_stage sets every stage's quantizer, so {key} is not read; remove it"
    return None


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment configuration with all defaults applied.

    Construction checks every field and their relations, so a config built
    in Python or by ``dataclasses.replace`` passes the same boundary as a
    parsed one. Fields are declared in the order ``to_dict`` writes them;
    ``per_stage`` comes first, as the top-level quantizer fields are
    checked against it, and a document holds either it or them.
    """

    n: int = _setting("n", 1024, "integer", valid=core.validate_size)
    direction: str = _setting("direction", "fft", "string", choices=core.DIRECTIONS)
    per_stage: tuple[QuantizerSpec | None, ...] | None = _setting(
        "quantizer.per_stage", None, "list", items="stage", nullable=True
    )
    quantizer_mode: str = _setting("quantizer.mode", "uniform", "string", _without_per_stage, choices=_MODES)
    quantizer_bits: int = _setting("quantizer.bits", 8, "integer", _without_per_stage, low=1, high=MAX_BITS)
    quantizer_x_max: float | None = _setting(
        "quantizer.x_max", None, "number", _without_per_stage, nullable=True
    )
    twiddle_enabled: bool = _setting("twiddle_quantization.enabled", False, "boolean")
    twiddle_bits: int = _setting("twiddle_quantization.bits", 8, "integer", low=1, high=MAX_BITS)
    signal_kind: str = _setting("signal.kind", "random", "string", choices=KINDS)
    signal_bin: int = _setting("signal.bin", 0, "integer")
    signal_amplitude: float = _setting("signal.amplitude", 1.0, "number", _signal_only)
    signal_bins: tuple[int, ...] = _setting("signal.bins", (), "list", _signal_only, items="integer")
    signal_amplitudes: tuple[float, ...] = _setting(
        "signal.amplitudes", (), "list", _signal_only, items="number"
    )
    bits_lo: int = _setting("sweep.bits_lo", 6, "integer")
    bits_hi: int = _setting("sweep.bits_hi", 14, "integer")
    trials: int = _setting("sweep.trials", 20, "integer", low=1)
    seed: int = _setting("seed", 0, "integer", low=0)
    out: str | None = _setting("out", None, "string", nullable=True)
    format: str = _setting("format", "csv", "string", choices=("csv", "json"))

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            path = f.metadata["path"]
            unread = f.metadata["unread"]
            # any value but the default (a parsed [] for a default () included) was given
            reason = unread and value != f.default and unread(self, path.rpartition(".")[2])
            if reason:
                raise ConfigError(f"{path}: {reason}")
            object.__setattr__(self, f.name, _checked(value, path, **f.metadata["rules"]))
        if not 1 <= self.bits_lo <= self.bits_hi <= MAX_SWEEP_BITS:
            raise ConfigError(
                f"sweep: need 1 <= bits_lo <= bits_hi <= {MAX_SWEEP_BITS}, got {self.bits_lo}..{self.bits_hi}"
            )
        if self.trials * self.n > MAX_SWEEP_SAMPLES:
            raise ConfigError(
                f"sweep.trials: trials * n must be at most {MAX_SWEEP_SAMPLES} (2**24), "
                f"got {self.trials} * {self.n}; at n = {self.n} at most {MAX_SWEEP_SAMPLES // self.n} trials"
            )
        if self.per_stage is not None:
            if len(self.per_stage) != core.num_stages(self.n):
                raise ConfigError(
                    f"quantizer.per_stage: need exactly log2(n) = {core.num_stages(self.n)} entries, "
                    f"got {len(self.per_stage)}"
                )
            for i, spec in enumerate(self.per_stage):
                if spec is not None and spec.mode == "uniform":
                    _check_step_is_normal(spec.x_max, f"quantizer.per_stage[{i}].x_max", spec.bits)
        try:
            signal = self.signal_spec()
        except ValueError as exc:
            # SignalSpec messages open with the field they name
            raise ConfigError(f"signal.{exc}") from exc
        x_max = self.quantizer_x_max
        if x_max is not None:
            if self.quantizer_mode == "mantissa":
                raise _scale_free("quantizer.x_max")
            if not x_max > 0:
                raise ConfigError(f"quantizer.x_max: must be positive, got {x_max}")
            _check_ladder_overflow(x_max, "quantizer.x_max", self.n)
        signal_field = "signal.amplitudes" if self.signal_kind == "multitone" else "signal.amplitude"
        _check_ladder_overflow(magnitude_bound(signal), signal_field, self.n)
        if self.per_stage is None and self.quantizer_mode != "mantissa":
            # the uniform ladder of `qfft fft` and of the sweep rows, at its finest
            where = signal_field if x_max is None else "quantizer.x_max"
            _check_step_is_normal(self.base_x_max(), where, max(self.quantizer_bits, self.bits_hi))

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

    def stage_quantizers(self, bits: int | None = None) -> tuple[QuantizerSpec | None, ...]:
        """Stage quantizers at ``bits`` (default ``quantizer.bits``), None if off; per_stage fixes them."""
        if self.per_stage is not None:
            return self.per_stage
        b = self.quantizer_bits if bits is None else bits
        if self.quantizer_mode == "off":
            return (None,) * core.num_stages(self.n)
        if self.quantizer_mode == "uniform":
            return uniform_stage_specs(self.n, b, self.base_x_max())
        return mantissa_stage_specs(self.n, b)

    def swept_mode(self) -> str:
        """The mode whose bits a sweep varies; ``ConfigError`` if per_stage fixes them or "off" has none."""
        if self.per_stage is not None:
            raise ConfigError(_FIXED_BITS)
        if self.quantizer_mode == "off":
            raise ConfigError('quantizer.mode: "off" has no bits to sweep; use "uniform" or "mantissa"')
        return self.quantizer_mode

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
        """Nested document form with every value a run reads; a stage echoes its set fields or mode "off"."""
        doc: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            section, _, key = f.metadata["path"].rpartition(".")
            unread = f.metadata["unread"]
            if unread and unread(self, key):
                continue
            if f.name == "per_stage":
                if value is None:
                    continue
                value = [
                    {"mode": "off"} if s is None else {k: v for k, v in asdict(s).items() if v is not None}
                    for s in value
                ]
            elif isinstance(value, tuple):
                value = list(value)
            (doc.setdefault(section, {}) if section else doc)[key] = value
        return doc


def _checked(
    value, path: str, kind: str, items=None, choices=(), low=None, high=None, valid=None, nullable=False
):
    """``value`` as its declared kind (numbers as floats, lists as tuples), or ``ConfigError``.

    A list holds ``items`` of that kind, ``nullable`` admits None (automatic
    or absent), ``choices`` lists the admitted strings, ``low`` and ``high``
    bound an integer, and ``valid`` raises ``ValueError`` for a value outside
    the field's domain. A stage is a ``QuantizerSpec``, or None for no
    quantizer, as ``parse_config`` makes from a document's ``per_stage`` entry.
    """
    if value is None and nullable:
        return None
    if kind == "integer":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
    elif kind == "number":
        value = _finite_number(value, path)
    elif kind == "string":
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
    elif kind == "boolean":
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected true/false, got {value!r}")
    elif kind == "list":
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        value = tuple(_checked(item, f"{path}[{i}]", items) for i, item in enumerate(value))
    elif value is not None and not isinstance(value, QuantizerSpec):  # kind "stage"
        raise ConfigError(f"{path}: expected a QuantizerSpec or None, got {value!r}")
    if choices and value not in choices:
        raise ConfigError(f"{path}: must be one of {', '.join(choices)}; got {value!r}")
    if (low is not None and value < low) or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise ConfigError(f"{path}: must be {bound}, got {value}")
    if valid is not None:
        try:
            valid(value)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return value


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


def _scale_free(where: str) -> ConfigError:
    return ConfigError(f"{where}: a mantissa quantizer is scale-free and reads no full scale; remove it")


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


# document path -> field name, in declaration order
_FIELDS = {f.metadata["path"]: f.name for f in fields(ExperimentConfig)}
# the document paths `qfft quantizer` reads
CHARACTERIZATION_PATHS = ("quantizer.mode", "quantizer.x_max", "sweep.bits_lo", "sweep.bits_hi", "seed", "out", "format")
_STAGE_KEYS = ("mode", "bits", "x_max")


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    return value


@functools.cache
def _section_keys(prefix: str) -> tuple[str, ...]:
    # the keys of the section at prefix ("" for the top level), in declaration order
    return tuple(dict.fromkeys(p[len(prefix) :].split(".")[0] for p in _FIELDS if p.startswith(prefix)))


def _decode(section, prefix: str, values: dict) -> None:
    """Gather the values of the document ``section`` at ``prefix`` into ``values`` by field name."""
    allowed = _section_keys(prefix)
    for key, value in _require_mapping(section, prefix.rstrip(".") or "config").items():
        path = prefix + key
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key (allowed: {', '.join(allowed)})")
        if path in _FIELDS:
            values[_FIELDS[path]] = value
        else:
            _decode(value, path + ".", values)


def _parse_stage(entry, path: str) -> QuantizerSpec | None:
    for key in _require_mapping(entry, path):
        if key not in _STAGE_KEYS:
            raise ConfigError(f"{path}.{key}: unknown key (allowed: {', '.join(_STAGE_KEYS)})")
    mode = _checked(entry.get("mode", "uniform"), f"{path}.mode", "string", choices=_MODES)
    if mode == "mantissa" and "x_max" in entry:
        raise _scale_free(f"{path}.x_max")
    # an off entry ignores bits and x_max, but a malformed one is still an error
    bits = _checked(entry.get("bits", 8), f"{path}.bits", "integer")
    x_max = _checked(entry.get("x_max", 1.0), f"{path}.x_max", "number")
    if mode == "off":
        return None
    try:
        return QuantizerSpec(mode, bits, x_max if mode == "uniform" else None)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _document_values(text: str) -> dict:
    """The values of a JSON configuration document, by ``ExperimentConfig`` field name."""
    try:
        doc = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # integers past the interpreter's digit limit, nesting past its recursion limit
        raise ConfigError(f"unreadable JSON: {exc}") from exc
    values: dict = {}
    _decode(doc, "", values)
    stages = values.get("per_stage")
    if isinstance(stages, list):
        values["per_stage"] = tuple(
            _parse_stage(entry, f"quantizer.per_stage[{i}]") for i, entry in enumerate(stages)
        )
    return values


def parse_config(text: str) -> ExperimentConfig:
    """Parse a JSON configuration document into a (checked) ``ExperimentConfig``."""
    return ExperimentConfig(**_document_values(text))


def parse_characterization(text: str) -> tuple[ExperimentConfig, float]:
    """The config and the full scale (1.0 when null) ``qfft quantizer`` reads from a JSON document.

    It runs no transform: any key outside ``CHARACTERIZATION_PATHS`` is a
    ``ConfigError`` naming it, and no relation to ``n`` applies.
    """
    values = _document_values(text)
    for path, name in _FIELDS.items():
        if name in values and path not in CHARACTERIZATION_PATHS:
            reason = "qfft quantizer runs no transform and does not read it; remove it"
            raise ConfigError(_FIXED_BITS if path == "quantizer.per_stage" else f"{path}: {reason}")
    x_max = values.pop("quantizer_x_max", None)
    cfg = ExperimentConfig(**values)
    if x_max is not None and cfg.quantizer_mode == "mantissa":
        raise _scale_free("quantizer.x_max")
    x_max = 1.0 if x_max is None else _checked(x_max, "quantizer.x_max", "number")
    # a row's variance sums, per sample, a squared error below the square of the
    # coarsest step 2 * x_max * 2**-bits_lo: finite for any sample count an array holds
    limit = math.sqrt(sys.float_info.max / sys.maxsize) * 2.0 ** (cfg.bits_lo - 1)
    if not 0 < x_max <= limit:
        raise ConfigError(f"quantizer.x_max: must be in (0, {limit:.6g}] at {cfg.bits_lo} bits, got {x_max!r}")
    _check_step_is_normal(x_max, "quantizer.x_max", cfg.bits_hi)
    return cfg, x_max


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render the effective configuration back to its JSON document form."""
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True)
