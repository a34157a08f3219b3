import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfft import signals
from qfft.core import fft_reference
from qfft.signals import SignalSpec, generate_signal, magnitude_bound


class TestSpecValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SignalSpec("sawtooth", 16)

    def test_rejects_bin_out_of_range(self):
        with pytest.raises(ValueError):
            SignalSpec("sinusoid", 16, bin=16)
        with pytest.raises(ValueError):
            SignalSpec("sinusoid", 16, bin=-1)

    def test_rejects_empty_multitone(self):
        with pytest.raises(ValueError):
            SignalSpec("multitone", 16)

    def test_rejects_multitone_bin_out_of_range(self):
        with pytest.raises(ValueError, match=r"^bins: must be in \[0, 8\)"):
            SignalSpec("multitone", 8, bins=(9,))

    def test_multitone_amplitudes_default_to_one(self):
        spec = SignalSpec("multitone", 16, bins=(1, 5))
        assert spec.amplitudes == (1.0, 1.0)

    def test_rejects_mismatched_amplitudes(self):
        with pytest.raises(ValueError):
            SignalSpec("multitone", 16, bins=(1, 5), amplitudes=(1.0,))

    def test_rejects_nonpositive_amplitude(self):
        with pytest.raises(ValueError):
            SignalSpec("random", 16, amplitude=0.0)


class TestGeneration:
    def test_impulse_has_flat_spectrum(self):
        x = generate_signal(SignalSpec("impulse", 16))
        assert x[0] == 1.0 and np.all(x[1:] == 0.0)
        assert np.allclose(fft_reference(x), np.ones(16), atol=1e-14)

    def test_sinusoid_concentrates_in_its_bin(self):
        x = generate_signal(SignalSpec("sinusoid", 16, bin=3))
        spectrum = fft_reference(x)
        assert abs(abs(spectrum[3]) - 16.0) < 1e-9
        others = np.delete(np.abs(spectrum), 3)
        assert np.max(others) < 1e-9

    def test_multitone_peaks(self):
        spec = SignalSpec("multitone", 32, bins=(2, 9), amplitudes=(1.0, 0.25))
        spectrum = fft_reference(generate_signal(spec))
        assert abs(spectrum[2] - 32.0) < 1e-9
        assert abs(spectrum[9] - 8.0) < 1e-9

    def test_random_is_seed_deterministic(self):
        spec = SignalSpec("random", 64, amplitude=0.5)
        a = generate_signal(spec, seed=9)
        b = generate_signal(spec, seed=9)
        c = generate_signal(spec, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_random_respects_amplitude_bound(self):
        x = generate_signal(SignalSpec("random", 256, amplitude=0.25), seed=4)
        assert np.max(np.abs(x.real)) <= 0.25
        assert np.max(np.abs(x.imag)) <= 0.25


def test_magnitude_bounds():
    assert magnitude_bound(SignalSpec("impulse", 8)) == 1.0
    assert magnitude_bound(SignalSpec("sinusoid", 8, bin=1)) == 1.0
    assert magnitude_bound(SignalSpec("multitone", 8, bins=(1, 2), amplitudes=(2.0, 0.5))) == 2.5
    assert magnitude_bound(SignalSpec("random", 8, amplitude=2.0)) == pytest.approx(
        2.0 * np.sqrt(2.0)
    )


# magnitudes in [1/16, 16] scaled by 2**k for |k| <= 900 keep every sample, and every
# product and partial sum that builds one, a normal double or zero
_MAGNITUDES = st.floats(1 / 16, 16)


@st.composite
def _scalable_specs(draw):
    """A spec of each kind that has a scale key, with a field for every key any such kind reads."""
    n = draw(st.sampled_from([2, 8, 64, 256]))
    bins = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    signs = st.sampled_from([-1.0, 1.0])
    amplitudes = tuple(draw(signs) * draw(_MAGNITUDES) for _ in bins)
    kind = draw(st.sampled_from(sorted(signals.SCALE_KEYS)))
    return SignalSpec(kind, n, bins=tuple(bins), amplitudes=amplitudes, amplitude=draw(_MAGNITUDES))


@settings(max_examples=200, deadline=None)
@given(spec=_scalable_specs(), exponent=st.integers(-900, 900), seed=st.integers(0, 2**32))
def test_a_scaled_signal_is_the_signal_times_a_power_of_two(spec, exponent, seed):
    scaled = spec.scaled(exponent)
    assert scaled.kind == spec.kind and spec.scaled(0) == spec
    expected = np.ldexp(generate_signal(spec, seed).view(np.float64), exponent)
    nonzero = np.abs(expected[expected != 0.0])
    assert nonzero.size == 0 or nonzero.min() >= np.finfo(np.float64).tiny
    assert generate_signal(scaled, seed).view(np.float64).tobytes() == expected.tobytes()
    assert magnitude_bound(scaled) == math.ldexp(magnitude_bound(spec), exponent)


@pytest.mark.parametrize("kind", sorted(set(signals.KINDS) - set(signals.SCALE_KEYS)))
def test_a_signal_without_a_scale_key_is_only_itself(kind):
    spec = SignalSpec(kind, 8)
    assert spec.scaled(0) is spec and magnitude_bound(spec) == 1.0
    with pytest.raises(ValueError, match=rf"^kind: a {kind} has unit magnitude"):
        spec.scaled(1)


def test_each_kind_specific_key_names_a_kind():
    assert set(signals.READERS.values()) <= set(signals.KINDS)
    assert set(signals.SCALE_KEYS) <= set(signals.KINDS)
    assert all(signals.READERS[key] == kind for kind, key in signals.SCALE_KEYS.items())
