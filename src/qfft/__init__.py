"""Bit-accurate model of a statically quantized radix-2 FFT/IFFT pipeline.

Library layout: ``core`` holds the full-precision transforms and the
direct-summation DFT oracle, ``quantization`` the uniform and mantissa
quantizer models with their closed-form noise statistics, ``pipeline``
the staged quantized processor, ``analysis`` the sweep/characterization
experiment engine, and ``signals``/``config``/``report``/``cli`` the
experiment plumbing.
"""

from .analysis import (
    CharacterizationRow,
    ErrorReport,
    compare,
    quantizer_characterization,
    run_sweep,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    mantissa_stage_specs,
    parse_config,
    uniform_stage_specs,
)
from .core import (
    bit_reverse_permute,
    dft_naive,
    fft_reference,
    twiddle_table,
)
from .pipeline import Pipeline, PipelineConfig, RunTrace, processing_cost
from .quantization import (
    QuantizerSpec,
    apply_quantizer,
    relative_error,
    snr_db,
)
from .report import emit_report
from .signals import SignalSpec, generate_signal, magnitude_bound

__version__ = "0.1.0"

__all__ = [
    "CharacterizationRow",
    "ConfigError",
    "ErrorReport",
    "ExperimentConfig",
    "Pipeline",
    "PipelineConfig",
    "QuantizerSpec",
    "RunTrace",
    "SignalSpec",
    "apply_quantizer",
    "bit_reverse_permute",
    "compare",
    "dft_naive",
    "emit_report",
    "fft_reference",
    "generate_signal",
    "magnitude_bound",
    "mantissa_stage_specs",
    "parse_config",
    "processing_cost",
    "quantizer_characterization",
    "relative_error",
    "run_sweep",
    "snr_db",
    "twiddle_table",
    "uniform_stage_specs",
]
