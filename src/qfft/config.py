"""Experiment configuration: JSON document parsing, validation, serialization.

Schema (all keys optional, defaults applied):

    {
      "n": 1024,  # a power of two in [2, 65536]
      "direction": "fft" | "ifft",
      "quantizer": {"per_stage": null,  # or log2(n) entries, each with mode, bits, x_max (uniform only)
                    # mode, bits and x_max set every stage (pipeline_config) where per_stage is null, and only there
                    "mode": "off" | "uniform" | "mantissa", "bits": 8,  # bits in 1..52
                    "x_max": null},  # positive and within 2**+-400 of the signal's bound, or null for automatic; uniform only
                    # x_max names the signal's full scale: an ifft scales it by 1/n with its input, as the automatic one;
                    # a per_stage x_max is that stage's full scale on the data it sees, and is not scaled
                    # "off" is no quantizer (a None stage), and reads neither bits nor x_max
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
naming the offending path. ``QuantizerSpec`` alone judges a quantizer: its
errors open with the field they reject, and the config builds the spec and
prefixes that field's document path.
Every run is at unit scale (``ExperimentConfig.scale_exponent``); only what
it reports is scaled back, by ``scale_back``. A spec scales itself
(``QuantizerSpec.scaled``, ``SignalSpec.scaled``), so one ``stage_ladder``
serves every mode. The config tests no quantizer mode or signal kind by
name: ``quantization.SCALE_FREE`` says which modes read no full scale,
``signals.READERS`` which kind reads a signal key, and ``signals.SCALE_KEYS``
which key carries a kind's scale.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
from dataclasses import dataclass, field, fields

from . import core
from .pipeline import PipelineConfig
from .quantization import MAX_BITS, MODES, SCALE_FREE, QuantizerSpec
from .signals import KINDS, READERS, SCALE_KEYS, SignalSpec, magnitude_bound

MAX_SWEEP_BITS = 24
# a sweep holds every trial's input, reference output and error (16 bytes each
# per trials x n sample) and takes their moments in place: it peaks at about
# 40 MiB plus 48 bytes per sample, about 0.79 GiB at 2**24 samples
MAX_SWEEP_SAMPLES = 2**24
# the modes a document names: "off" is no quantizer (a None stage), then the quantizer MODES
_MODES = ("off", *MODES)
_FIXED_BITS = "quantizer.per_stage: fixes the bits of every stage, so a sweep cannot vary them"
# a uniform full scale within 2**+-400 of the signal's bound keeps every unit-scale step (from 2**-467, a
# 2**-451 step pre-scaled by an ifft's 1/65536, up to the deepest ladder level's 2**418), its square and
# every sum of squared errors a normal double
FULL_SCALE_RANGE = 400


class ConfigError(ValueError):
    """Configuration document error carrying a field-path diagnostic."""


def stage_ladder(spec: QuantizerSpec, n: int) -> tuple[QuantizerSpec, ...]:
    """The stage quantizers of an n-point transform with input quantizer ``spec``: stage s gets ``spec.scaled(s + 1)``,
    so a full scale doubles each stage with a butterfly's worst-case growth and a scale-free spec repeats."""
    return tuple(spec.scaled(s + 1) for s in range(core.num_stages(n)))


def _setting(path: str, default, kind: str, unread=None, **rules):
    """A field at document ``path``: ``_checked`` checks its ``kind`` and ``rules``. Where
    ``unread(config, key)`` gives a reason, no run reads the field: it must keep its
    default, and ``to_dict`` leaves it out."""
    metadata = {"path": path, "unread": unread, "rules": {"kind": kind, **rules}}
    return field(default=default, metadata=metadata)


def _signal_only(cfg, key: str) -> str | None:
    kind = READERS[key]
    if cfg.signal_kind != kind:
        return f"only a {kind} signal has {key}, got kind {cfg.signal_kind!r}"
    return None


def _top_level_quantizer(cfg, key: str) -> str | None:
    if cfg.per_stage is not None:
        return f"quantizer.per_stage sets every stage's quantizer, so {key} is not read; remove it"
    if cfg.quantizer_mode == "off" and key != "mode":
        return f'quantizer.mode "off" quantizes no stage, so {key} is not read; remove it'
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
    quantizer_mode: str = _setting("quantizer.mode", "uniform", "string", _top_level_quantizer, choices=_MODES)
    quantizer_bits: int = _setting("quantizer.bits", 8, "integer", _top_level_quantizer, low=1, high=MAX_BITS)
    quantizer_x_max: float | None = _setting(
        "quantizer.x_max", None, "number", _top_level_quantizer, nullable=True
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
        with _field_paths("signal."):
            signal = SignalSpec(
                self.signal_kind, self.n, self.signal_bin, self.signal_bins, self.signal_amplitudes, self.signal_amplitude
            )
            bound = magnitude_bound(signal)
        if not math.isfinite(bound):
            raise ConfigError(f"{self.amplitude_path}: the signal's magnitude bound is past the double range")
        object.__setattr__(self, "_scale_exponent", unit_exponent(bound))
        object.__setattr__(self, "_signal_spec", signal.scaled(-self.scale_exponent))
        # a scale-free top-level x_max is left to the spec, whose message wins over the ratio's
        given = [] if self.quantizer_mode in SCALE_FREE else [("quantizer.x_max", self.quantizer_x_max)]
        given += [(f"quantizer.per_stage[{i}].x_max", s.x_max) for i, s in enumerate(self.per_stage or ()) if s]
        for path, x_max in given:
            if x_max is not None and not (x_max > 0 and abs(unit_exponent(x_max) - self.scale_exponent) <= FULL_SCALE_RANGE):
                within = f"within 2**+-{FULL_SCALE_RANGE} of the signal's magnitude bound {bound!r}"
                raise ConfigError(f"{path}: full scale {x_max!r} must be positive and {within}")
        if self.per_stage is None and self.quantizer_mode != "off":
            # the spec judges the mode and full scale; at unit scale every step is normal
            with _field_paths("quantizer.", self.amplitude_path if self.quantizer_x_max is None else None):
                self.input_quantizer(self.quantizer_bits)

    @property
    def scale_exponent(self) -> int:
        """The static e that puts the signal's magnitude bound times 2**-e in [1, 2), 0 for a zero bound: a run
        sees the signal and each uniform full scale times 2**-e, and only its reports are scaled back."""
        return self._scale_exponent

    def signal_spec(self) -> SignalSpec:
        """The signal at unit scale: the given signal's ``scaled(-scale_exponent)``."""
        return self._signal_spec

    @property
    def amplitude_path(self) -> str:
        """The document path of the signal's scale key (``signals.SCALE_KEYS``), which scales every value a run
        reports; ``signal.amplitude`` for a kind of unit magnitude, whose reports stay in the double range."""
        return "signal." + SCALE_KEYS.get(self.signal_kind, "amplitude")

    def input_quantizer(self, bits: int) -> QuantizerSpec:
        """The stage ladder's unit-scale input quantizer at ``bits``, a sweep row's theory column before ``scale_back``: a
        uniform full scale is x_max times 2**-scale_exponent, or the unit-scale signal's magnitude bound if automatic,
        scaled as the run scales its input (``core.prescale_exponent``: an ifft's 1/N)."""
        x_max = None if self.quantizer_x_max is None else math.ldexp(self.quantizer_x_max, -self.scale_exponent)
        spec = QuantizerSpec.named(self.quantizer_mode, bits, x_max, magnitude_bound(self.signal_spec()))
        return spec.scaled(core.prescale_exponent(self.n, self.direction))

    def swept_mode(self) -> str:
        """The mode whose bits a sweep varies; ``ConfigError`` if per_stage fixes them or "off" has none."""
        if self.per_stage is not None:
            raise ConfigError(_FIXED_BITS)
        if self.quantizer_mode == "off":
            raise ConfigError('quantizer.mode: "off" has no bits to sweep; use "uniform" or "mantissa"')
        return self.quantizer_mode

    def pipeline_config(self, bits: int | None = None) -> PipelineConfig:
        """The unit-scale processor a run builds at ``bits`` (default ``quantizer.bits``): the one place the
        top-level quantizer fields become stage specs. Every stage spec is scaled by 2**-scale_exponent;
        a twiddle ROM is a uniform grid with x_max = 1 >= |w|, and is not scaled."""
        if self.per_stage is not None:
            stages = [s and s.scaled(-self.scale_exponent) for s in self.per_stage]
        elif self.quantizer_mode == "off":
            stages = ()
        else:
            stages = stage_ladder(self.input_quantizer(self.quantizer_bits if bits is None else bits), self.n)
        rom = QuantizerSpec("uniform", self.twiddle_bits, 1.0) if self.twiddle_enabled else None
        return PipelineConfig(self.n, self.direction, stages, rom)

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
                value = [{"mode": "off"} if s is None else s.echoed() for s in value]
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


def unit_exponent(bound: float) -> int:
    """The exponent e that puts the positive ``bound`` times 2**-e in [1, 2); 0 for a zero bound."""
    return math.frexp(bound)[1] - 1 if bound else 0


def scale_back(value: float, exponent: int, path: str) -> float:
    """A reported ``value`` of a unit-scale run times 2**exponent: exact, or ``ConfigError`` at ``path``."""
    if math.frexp(value)[1] + exponent > sys.float_info.max_exp:
        raise ConfigError(f"{path}: the reported value {value!r} * 2**{exponent} is past the double range")
    return math.ldexp(value, exponent)


@contextlib.contextmanager
def _field_paths(prefix: str, x_max: str | None = None):
    """Raise a ``QuantizerSpec`` or ``SignalSpec`` error, which opens with the field it rejects, as
    ``ConfigError`` at ``prefix`` + field, or at ``x_max`` for that field where the full scale is automatic."""
    try:
        yield
    except ValueError as exc:
        name, _, reason = str(exc).partition(": ")
        raise ConfigError(f"{x_max if name == 'x_max' and x_max else prefix + name}: {reason}") from exc


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
    # an off entry ignores bits and x_max, but a malformed one is still an error
    bits = _checked(entry.get("bits", 8), f"{path}.bits", "integer")
    x_max = None  # absent: a mode that reads a full scale gets QuantizerSpec.named's 1.0
    if "x_max" in entry:  # null included, a full scale, which a scale-free spec rejects
        x_max = 1.0 if mode in SCALE_FREE else _checked(entry["x_max"], f"{path}.x_max", "number")
    if mode == "off":
        return None
    with _field_paths(f"{path}."):
        return QuantizerSpec.named(mode, bits, x_max)


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


def parse_characterization(text: str) -> tuple[ExperimentConfig, QuantizerSpec]:
    """The config and the finest spec, at ``sweep.bits_hi``, that ``qfft quantizer`` reads from a JSON document.

    It runs no transform: any key outside ``CHARACTERIZATION_PATHS`` is a
    ``ConfigError`` naming it, and no relation to ``n`` applies. Mode "off"
    has no bits to sweep and is rejected as ``qfft sweep`` rejects it.
    """
    values = _document_values(text)
    for path, name in _FIELDS.items():
        if name in values and path not in CHARACTERIZATION_PATHS:
            reason = "qfft quantizer runs no transform and does not read it; remove it"
            raise ConfigError(_FIXED_BITS if path == "quantizer.per_stage" else f"{path}: {reason}")
    given = values.pop("quantizer_x_max", None)
    cfg = ExperimentConfig(**values)
    mode = cfg.swept_mode()
    x_max = None if given is None else _checked(given, "quantizer.x_max", "number")
    with _field_paths("quantizer."):
        return cfg, QuantizerSpec.named(mode, cfg.bits_hi, x_max)

