import numpy as np
import pytest

from qfft.core import (
    bit_reverse_permute,
    dft_naive,
    bit_reversal_indices,
    dit_stage,
    fft_reference,
    num_stages,
    stage_twiddles,
    twiddle_table,
    validate_size,
)

# 16-point vector and its spectrum, frozen from a one-off pure-Python
# double-summation run (math.cos/math.sin only, no array library)
DFT16_INPUT = [
    (0.685408886843792 - 0.4406756927894113j),
    (0.9951870495141735 - 0.16363050142227054j),
    (0.08162133741520305 + 0.1474622687279814j),
    (-0.5808795789707257 - 0.8423599619460864j),
    (-0.48195595479855013 - 0.3379202003336377j),
    (-0.7937768573726103 + 0.2231368894374064j),
    (0.03651283552745066 + 0.828270688265319j),
    (0.5677099084223989 - 0.683281012898951j),
    (0.34382245221525376 + 0.8549652584802119j),
    (0.3060737839558123 - 0.6185511879552472j),
    (-0.44312864865524726 - 0.31062046144458066j),
    (0.6964454810075171 - 0.2507459488965367j),
    (0.3270586840261491 + 0.8086050832565381j),
    (0.7969083052306225 - 0.665289074134604j),
    (-0.7556178223164816 + 0.048818435394445636j),
    (-0.8828094048915716 + 0.07088476122875864j),
]
DFT16_EXPECTED = [
    (0.8985804571531866 - 1.3309306570306645j),
    (-0.5427635516248904 + 0.7365133456062163j),
    (0.17692073282720688 - 1.5369596166910728j),
    (1.581311890327798 - 4.052814998912031j),
    (2.436114654753819 - 1.3328823580898408j),
    (-1.3001085039846991 - 4.232587251594163j),
    (1.0306360301443769 - 1.0207160480325812j),
    (1.1672077462500945 - 0.12049237689251951j),
    (-1.3111369166380502 + 4.528741416144399j),
    (0.30489123829431264 - 4.0266015746797175j),
    (0.11084185408297098 + 0.708973631128895j),
    (3.5231836753793098 - 1.564361510393608j),
    (1.4737780778776122 + 1.6749693934309215j),
    (-1.6817745785312537 + 5.576170230887962j),
    (3.418115822271243 + 1.6231207646663561j),
    (-0.31925643908232976 - 2.680953474179123j),
]


def random_signal(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)


class TestValidation:
    def test_accepts_powers_of_two(self):
        for n in (2, 4, 1024, 1 << 16):
            validate_size(n)

    @pytest.mark.parametrize("n", [0, 1, 3, 12, 1000, (1 << 16) + 1, 1 << 17])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            validate_size(n)

    def test_reference_rejects_a_matrix(self):
        with pytest.raises(ValueError, match="signal must be one-dimensional"):
            fft_reference(np.zeros((2, 4), dtype=np.complex128))

    def test_num_stages(self):
        assert num_stages(2) == 1
        assert num_stages(1024) == 10


class TestDftNaive:
    def test_impulse_gives_all_ones(self):
        x = np.zeros(4, dtype=complex)
        x[0] = 1.0
        assert np.allclose(dft_naive(x), np.ones(4), atol=1e-15)

    def test_constant_concentrates_at_dc(self):
        spectrum = dft_naive(np.ones(4, dtype=complex))
        assert abs(spectrum[0] - 4.0) < 1e-14
        assert np.max(np.abs(spectrum[1:])) < 1e-14

    def test_frozen_16_point_vector(self):
        spectrum = dft_naive(np.array(DFT16_INPUT))
        assert np.max(np.abs(spectrum - np.array(DFT16_EXPECTED))) < 1e-12

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            dft_naive(np.zeros(12, dtype=complex))
        with pytest.raises(ValueError):
            dft_naive(np.zeros(0, dtype=complex))


class TestTwiddleTable:
    def test_known_entries(self):
        table = twiddle_table(8)
        assert abs(table[1] - (np.sqrt(2) / 2 - 1j * np.sqrt(2) / 2)) < 1e-15
        assert abs(twiddle_table(4)[1] - (0 - 1j)) < 1e-15
        assert twiddle_table(2)[0] == 1.0 + 0.0j

    def test_first_entry_is_exactly_one(self):
        for n in (2, 16, 4096):
            assert twiddle_table(n)[0] == 1.0 + 0.0j

    @pytest.mark.parametrize("n", [2, 8, 64, 1024])
    def test_unit_modulus(self, n):
        mags = np.abs(twiddle_table(n))
        assert np.all(np.abs(mags - 1.0) < 1e-12)

    def test_table_length_is_half(self):
        assert twiddle_table(16).size == 8

    def test_rejects_invalid_size(self):
        with pytest.raises(ValueError):
            twiddle_table(12)


class TestBitReversal:
    def test_order_n8(self):
        out = bit_reverse_permute(np.arange(8, dtype=complex))
        assert out.real.astype(int).tolist() == [0, 4, 2, 6, 1, 5, 3, 7]

    def test_identity_n2(self):
        out = bit_reverse_permute(np.array([1.0, 2.0], dtype=complex))
        assert out.tolist() == [1.0, 2.0]

    def test_n16_index_3_maps_to_12(self):
        out = bit_reverse_permute(np.arange(16, dtype=complex))
        assert out[3] == 12.0  # 0011 reversed is 1100

    @pytest.mark.parametrize("n", [2, 4, 32, 256])
    def test_involution(self, n):
        x = random_signal(n, seed=n)
        assert np.array_equal(bit_reverse_permute(bit_reverse_permute(x)), x)


def butterfly(a, b, w):
    """One 2-point stage of the kernel: (a + w*b, a - w*b)."""
    out = np.empty(2, dtype=complex)
    assert dit_stage(np.array([a, b], dtype=complex), np.array([w], dtype=complex), 0, out) == (1, 2)
    return tuple(out.tolist())


class TestButterfly:
    def test_unity_twiddle(self):
        assert butterfly(1, 1, 1) == (2, 0)

    def test_minus_j_twiddle(self):
        top, bot = butterfly(1, 1, -1j)
        assert top == 1 - 1j
        assert bot == 1 + 1j

    def test_zero_inputs(self):
        assert butterfly(0, 0, 0.3 - 0.7j) == (0, 0)


class TestFftReference:
    def test_impulse(self):
        x = np.zeros(4, dtype=complex)
        x[0] = 1.0
        assert np.allclose(fft_reference(x), np.ones(4), atol=1e-15)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 256])
    def test_matches_oracle(self, n):
        x = random_signal(n, seed=100 + n)
        worst = np.max(np.abs(fft_reference(x) - dft_naive(x)))
        assert worst < 1e-9 * n

    def test_round_trip_64(self):
        x = random_signal(64, seed=3)
        back = fft_reference(fft_reference(x, "fft"), "ifft")
        assert np.max(np.abs(back - x)) < 1e-12

    @pytest.mark.parametrize("n", [2, 32, 512])
    def test_round_trip_scaled(self, n):
        x = random_signal(n, seed=5 + n)
        back = fft_reference(fft_reference(x), "ifft")
        assert np.max(np.abs(back - x)) < 1e-12 * n

    @pytest.mark.parametrize("n", [4, 64, 1024])
    def test_energy_conservation(self, n):
        # time-domain energy equals 1/N of the spectral energy
        x = random_signal(n, seed=11 + n)
        spectrum = fft_reference(x)
        lhs = np.sum(np.abs(x) ** 2)
        rhs = np.sum(np.abs(spectrum) ** 2) / n
        assert abs(lhs - rhs) / lhs < 1e-10

    def test_linearity(self):
        x = random_signal(128, seed=21)
        y = random_signal(128, seed=22)
        a, b = 0.37 - 1.2j, -2.5 + 0.04j
        lhs = fft_reference(a * x + b * y)
        rhs = a * fft_reference(x) + b * fft_reference(y)
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-10

    def test_inverse_applies_1_over_n(self):
        # spectrum N*delta[0] comes back as the all-ones vector
        n = 16
        spectrum = np.zeros(n, dtype=complex)
        spectrum[0] = n
        assert np.allclose(fft_reference(spectrum, "ifft"), np.ones(n), atol=1e-14)

    def test_does_not_mutate_input(self):
        x = random_signal(32, seed=9)
        copy = x.copy()
        fft_reference(x)
        assert np.array_equal(x, copy)

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            fft_reference(np.ones(4, dtype=complex), "backward")
        # one vocabulary with PipelineConfig and the config file
        with pytest.raises(ValueError, match="fft"):
            fft_reference(np.ones(4, dtype=complex), "inverse")

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            fft_reference(np.ones(6, dtype=complex))


def test_dit_stage_reports_its_arithmetic():
    x = random_signal(16, seed=1)
    data, out = x.copy(), np.empty_like(x)
    total = [0, 0]
    for stage, row in enumerate(stage_twiddles(twiddle_table(16), "fft")):
        muls, adds = dit_stage(data, row, stage, out)
        assert muls == 8 and adds == 16
        total[0] += muls
        total[1] += adds
        data, out = out, data
    assert total == [32, 64]
    assert np.max(np.abs(data[bit_reversal_indices(16)] - dft_naive(x))) < 1e-12
