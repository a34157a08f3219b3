"""Invariants of the pipeline hot path.

Cached read-only tables, the in-place quantizer and opt-in stage
snapshots must leave every output bit where it was.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfft import core
from qfft.analysis import SweepSpec, run_sweep
from qfft.pipeline import Pipeline, PipelineConfig, mantissa_stage_specs, uniform_stage_specs
from qfft.quantization import QuantizerSpec, apply_quantizer
from qfft.signals import SignalSpec


def random_signal(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))


def recurrence_indices(n):
    m = n.bit_length() - 1
    perm = np.zeros(n, dtype=np.intp)
    for i in range(1, n):
        perm[i] = (perm[i >> 1] >> 1) | ((i & 1) << (m - 1))
    return perm


class TestCachedTables:
    @pytest.mark.parametrize("n", [1 << m for m in range(1, 17)])
    def test_bit_reversal_matches_recurrence(self, n):
        perm = core.bit_reversal_indices(n)
        assert perm.dtype == np.intp
        assert np.array_equal(perm, recurrence_indices(n))

    @pytest.mark.parametrize("table_fn", [core.bit_reversal_indices, core.twiddle_table])
    def test_tables_are_shared_and_read_only(self, table_fn):
        table = table_fn(16)
        assert table_fn(16) is table
        with pytest.raises(ValueError):
            table[0] = 0
        with pytest.raises(ValueError):
            table += 1

    def test_float_size_is_not_served_from_the_cache(self):
        core.bit_reversal_indices(8)
        with pytest.raises(ValueError):
            core.bit_reversal_indices(8.0)

    def test_tables_built_once_per_size(self):
        core.bit_reversal_indices.cache_clear()
        core.twiddle_table.cache_clear()
        for built, n in enumerate((16, 64), start=1):
            specs = uniform_stage_specs(n, 8, 2.0)
            for direction in ("fft", "ifft"):
                pipeline = Pipeline(PipelineConfig(n=n, direction=direction, stage_quantizers=specs))
                for seed in range(3):
                    pipeline.run(random_signal(n, seed))
            sweep = SweepSpec(n=n, bits_lo=6, bits_hi=8, signal=SignalSpec("random", n), trials=2)
            run_sweep(sweep)
            run_sweep(sweep)
            assert core.bit_reversal_indices.cache_info().misses == built
            assert core.twiddle_table.cache_info().misses == built


QUANTIZERS = [QuantizerSpec("uniform", 6, 1.0), QuantizerSpec("mantissa", 6)]


def reference_quantize(components, spec):
    """The staircase formulas, written out on one real component array."""
    q = spec.step
    if spec.mode == "uniform":
        return np.clip(np.rint(components / q) * q, -spec.x_max, spec.x_max)
    mant, exp = np.frexp(components)
    return np.ldexp(np.rint(mant / q) * q, exp)


class TestInPlaceQuantizer:
    @pytest.mark.parametrize("spec", QUANTIZERS, ids=lambda s: s.mode)
    @pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("scale", [0.9, 4.0], ids=["in-range", "saturating"])
    def test_out_matches_fresh_result(self, spec, is_complex, scale):
        x = random_signal(512, seed=11, scale=scale)
        if not is_complex:
            x = np.ascontiguousarray(x.real)
        original = x.copy()

        fresh, fresh_saturations = apply_quantizer(x, spec)
        assert x.tobytes() == original.tobytes()
        inplace, saturations = apply_quantizer(x, spec, out=x)

        assert inplace is x
        assert inplace.tobytes() == fresh.tobytes()
        assert saturations == fresh_saturations
        assert (saturations > 0) == (spec.mode == "uniform" and scale > 1.0)

    @pytest.mark.parametrize("spec", QUANTIZERS, ids=lambda s: s.mode)
    def test_complex_components_follow_the_formulas(self, spec):
        x = random_signal(512, seed=12, scale=4.0)
        out, saturations = apply_quantizer(x, spec)
        assert out.real.tobytes() == reference_quantize(x.real, spec).tobytes()
        assert out.imag.tobytes() == reference_quantize(x.imag, spec).tobytes()
        expected = 0
        if spec.mode == "uniform":
            levels = np.rint(x.view(np.float64) / spec.step) * spec.step
            expected = int(np.count_nonzero(np.abs(levels) > spec.x_max))
        assert saturations == expected

    def test_off_with_out_copies(self):
        x = random_signal(8, seed=13)
        out = np.empty_like(x)
        result, saturations = apply_quantizer(x, QuantizerSpec("off"), out=out)
        assert result is out and saturations == 0
        assert out.tobytes() == x.tobytes()

    @pytest.mark.parametrize(
        "out",
        [
            np.empty(8, dtype=np.complex64),
            np.empty(4, dtype=np.complex128),
            np.empty(16, dtype=np.complex128)[::2],
        ],
        ids=["dtype", "shape", "strided"],
    )
    def test_unusable_out_rejected(self, out):
        with pytest.raises(ValueError, match="out must be"):
            apply_quantizer(random_signal(8, seed=14), QUANTIZERS[0], out=out)


PIPELINES = {
    "uniform": PipelineConfig(n=256, stage_quantizers=uniform_stage_specs(256, 7, 1.5)),
    "uniform-saturating": PipelineConfig(n=256, stage_quantizers=uniform_stage_specs(256, 7, 0.05)),
    "mantissa-ifft": PipelineConfig(n=256, direction="ifft", stage_quantizers=mantissa_stage_specs(256, 5)),
    "twiddle-and-input": PipelineConfig(
        n=64,
        twiddle_quantizer=QuantizerSpec("uniform", 5, 1.0),
        input_quantizer=QuantizerSpec("uniform", 4, 0.5),
    ),
}


class TestOptInSnapshots:
    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_snapshots_do_not_change_the_result(self, name):
        config = PIPELINES[name]
        pipeline = Pipeline(config)
        x = random_signal(config.n, seed=21)
        plain = pipeline.run(x)
        kept = pipeline.run(x, keep_stages=True)

        assert plain.output.tobytes() == kept.output.tobytes()
        assert plain.saturation_total == kept.saturation_total
        assert plain.input is None and plain.stage_outputs == []
        assert len(kept.stage_outputs) == config.stages
        assert kept.stage_outputs[-1].tobytes() == kept.output.tobytes()
        if name == "uniform-saturating":
            assert plain.saturation_total > 0

    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_run_leaves_its_input_alone(self, name):
        config = PIPELINES[name]
        x = random_signal(config.n, seed=22)
        original = x.copy()
        output = Pipeline(config).run(x).output
        assert x.tobytes() == original.tobytes()
        assert not np.shares_memory(output, x)


@pytest.mark.parametrize("m", range(1, 13))
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scale_exp=st.integers(-40, 40),
    direction=st.sampled_from(["fft", "ifft"]),
)
def test_bypass_is_bit_exact(m, seed, scale_exp, direction):
    n = 1 << m
    x = random_signal(n, seed, scale=2.0**scale_exp)
    output = Pipeline(PipelineConfig(n=n, direction=direction)).run(x).output
    reference = core.fft_reference(x, "forward" if direction == "fft" else "inverse")
    assert output.tobytes() == reference.tobytes()
