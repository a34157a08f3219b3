"""Invariants of the pipeline hot path.

Cached read-only tables, the in-place quantizer, the read-only
``after_stage`` view of ``Pipeline.run``, runs that consume their input
and the reworked stage and quantizer kernels must leave every output bit
where it was.
"""

import dataclasses
import json
import math
import pickle
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfft import core, emit_report, stage_ladder
from qfft import quantization as quantization_module
from qfft.analysis import ErrorReport, run_sweep, run_transform
from qfft.config import ExperimentConfig, parse_config
from qfft.pipeline import Pipeline, PipelineConfig
from qfft.quantization import QuantizerSpec, apply_quantizer
from qfft.signals import SignalSpec, generate_signal


def random_signal(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))


def recurrence_indices(n):
    m = n.bit_length() - 1
    perm = np.zeros(n, dtype=np.intp)
    for i in range(1, n):
        perm[i] = (perm[i >> 1] >> 1) | ((i & 1) << (m - 1))
    return perm


def in_place_order(data, stages_done):
    """Copy of ``core.staged_transform``'s working vector in the in-place order.

    ``data`` is the working vector after ``stages_done`` stages. Entry k of
    it is entry bitrev_S(k >> s) + bitrev_s(k mod 2**s) of the in-place
    vector (s = ``stages_done``, S = log2(n), bitrev_m reverses m bits), so
    it is scattered there.
    """
    n = data.size
    perm = core.bit_reversal_indices(n)
    k = np.arange(n)
    s = stages_done
    order = np.empty_like(data)
    order[perm[k >> s] + (perm[k & ((1 << s) - 1)] >> (n.bit_length() - 1 - s))] = data
    return order


class TestCachedTables:
    @pytest.mark.parametrize("n", [1 << m for m in range(1, 17)])
    def test_bit_reversal_matches_recurrence(self, n):
        perm = core.bit_reversal_indices(n)
        assert perm.dtype == np.intp
        assert np.array_equal(perm, recurrence_indices(n))

    @pytest.mark.parametrize("table_fn", [core.bit_reversal_indices])
    def test_tables_are_shared_and_read_only(self, table_fn):
        table = table_fn(16)
        assert table_fn(16) is table
        with pytest.raises(ValueError):
            table[0] = 0
        with pytest.raises(ValueError):
            table += 1

    def test_no_write_through_the_permutation_reaches_the_cached_table(self):
        ramp = np.arange(8, dtype=complex)
        perm = core.bit_reversal_indices(8)

        def set_writeable():
            perm.flags.writeable = True
            perm[1] = 0

        def setflags():
            perm.setflags(write=True)
            perm[1] = 0

        try:
            for attempt in (lambda: perm.base.__setitem__(1, 0), set_writeable, setflags):
                with pytest.raises((TypeError, ValueError)):
                    attempt()
                assert np.allclose(core.fft_reference(ramp), core.dft_naive(ramp), rtol=0, atol=1e-12)
        finally:
            core.bit_reversal_indices.cache_clear()

    def test_each_twiddle_table_is_a_new_writable_array(self):
        first, second = core.twiddle_table(16), core.twiddle_table(16)
        assert first is not second and not np.shares_memory(first, second)
        assert first.flags.writeable and second.flags.writeable
        assert first.tobytes() == second.tobytes()
        first[0] = 0
        assert second[0] == 1

    def test_float_size_is_not_served_from_the_cache(self):
        core.bit_reversal_indices(8)
        with pytest.raises(ValueError):
            core.bit_reversal_indices(8.0)

    def test_tables_built_once_per_size(self, monkeypatch):
        # twiddle_table is not cached: it is called once per rows build, by
        # direction_twiddles, and never by a run, the reference or a sweep
        tables = []
        build_table = core.twiddle_table
        monkeypatch.setattr(core, "twiddle_table", lambda n: tables.append(n) or build_table(n))
        core.bit_reversal_indices.cache_clear()
        core.direction_twiddles.cache_clear()
        for built, n in enumerate((16, 64), start=1):
            specs = stage_ladder(QuantizerSpec("uniform", 8, 2.0), n)
            for direction in ("fft", "ifft"):
                pipeline = Pipeline(PipelineConfig(n=n, direction=direction, stage_quantizers=specs))
                for seed in range(3):
                    pipeline.run(random_signal(n, seed))
                    core.fft_reference(random_signal(n, seed), direction)
            sweep = ExperimentConfig(n=n, bits_lo=6, bits_hi=8, trials=2)
            run_sweep(sweep)
            run_sweep(sweep)
            assert core.bit_reversal_indices.cache_info().misses == built
            assert core.direction_twiddles.cache_info().misses == 2 * built
            assert tables == [16, 16, 64, 64][: 2 * built]


def strided_dit_stage(data, twiddles, stage):
    """One in-place stage on ``data`` in the in-place order: the oracle of ``core.dit_stage``.

    Every block reads the strided slice of the half-circle table
    ``twiddles`` and numpy broadcasts over the (blocks, span) rows,
    whatever their width.
    """
    n = data.size
    span = 2 << stage
    half = span >> 1
    blocks = data.reshape(n // span, span)
    w = twiddles[:: n // span][:half]
    t = w * blocks[:, half:]
    np.subtract(blocks[:, :half], t, out=blocks[:, half:])
    blocks[:, :half] += t
    return t.size, 2 * t.size


# tiled, one-period and full-length twiddle rows all occur from N=4096 up;
# the strided kernel multiplies w*b, and a stage that multiplies b*w fails
@pytest.mark.parametrize("m", range(1, 17))
@pytest.mark.parametrize("table_kind", ["forward", "inverse", "5-bit-rom"])
def test_every_stage_matches_the_strided_kernel(m, table_kind):
    n = 1 << m
    table = core.twiddle_table(n)
    if table_kind == "5-bit-rom":
        table, _ = apply_quantizer(table, QuantizerSpec("uniform", 5, 1.0))
    direction = "ifft" if table_kind == "inverse" else "fft"
    rows = core.stage_twiddles(table, direction)
    if direction == "ifft":
        table = np.conj(table)
    data = random_signal(n, seed=m)
    oracle = data[recurrence_indices(n)]
    out = np.empty_like(data)
    for stage, row in enumerate(rows):
        assert core.dit_stage(data, row, stage, out) == strided_dit_stage(oracle, table, stage)
        assert in_place_order(out, stage + 1).tobytes() == oracle.tobytes(), f"stage {stage}"
        data, out = out, data


def in_place_run(x, direction, table, specs):
    """A pipeline run written out as in-place stages: output, saturations, snapshots.

    The snapshots are copies of every stage output, taken after that
    stage's quantizer, in the order of the in-place transform.
    """
    n = x.size
    data = x[recurrence_indices(n)]
    if direction == "ifft":
        data *= 1.0 / n
    components = data.view(np.float64)  # quantized in place, as the stage loop does
    snapshots = []
    saturations = 0
    for stage, spec in enumerate(specs):
        strided_dit_stage(data, table, stage)
        if spec is not None:
            saturations += apply_quantizer(components, spec, out=components)[1]
        snapshots.append(data.copy())
    return data, saturations, snapshots


STAGE_QUANTIZERS = {
    "off": lambda n: (),
    "uniform": lambda n: stage_ladder(QuantizerSpec("uniform", 9, 2.0), n),
    "uniform-saturating": lambda n: stage_ladder(QuantizerSpec("uniform", 2, 0.05), n),
    "mantissa": lambda n: stage_ladder(QuantizerSpec("mantissa", 5), n),
    "mixed-none": lambda n: tuple(
        None if stage % 2 else spec for stage, spec in enumerate(stage_ladder(QuantizerSpec("uniform", 2, 0.05), n))
    ),
}


@pytest.mark.parametrize("quantizer", sorted(STAGE_QUANTIZERS))
@pytest.mark.parametrize("m", range(1, 17))
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), direction=st.sampled_from(["fft", "ifft"]), rom=st.booleans())
def test_both_geometries_match_the_in_place_stages(m, seed, direction, rom, quantizer):
    n = 1 << m
    x = random_signal(n, seed)
    x[seed % n] = -0.0  # a signed zero through every stage
    rom_spec = QuantizerSpec("uniform", 5, 1.0) if rom else None
    specs = STAGE_QUANTIZERS[quantizer](n)
    pipeline = Pipeline(PipelineConfig(n, direction, specs, rom_spec))
    seen = []
    trace = pipeline.run(x, after_stage=lambda stage, data: seen.append(in_place_order(data, stage + 1)))

    table = core.twiddle_table(n)
    if direction == "ifft":
        table = np.conj(table)
    if rom:
        table = apply_quantizer(table, rom_spec)[0]
    output, saturations, snapshots = in_place_run(x, direction, table, pipeline.config.stage_quantizers)
    assert trace.output.tobytes() == output.tobytes()
    assert trace.saturation_total == saturations
    assert [a.tobytes() for a in seen] == [a.tobytes() for a in snapshots]
    if not rom:
        reference, _, _ = in_place_run(x, direction, table, [None] * m)
        assert core.fft_reference(x, direction).tobytes() == reference.tobytes()


def test_stage_twiddles_are_read_only():
    for n in (8, core.MAX_SIZE):
        for twiddle_quantizer in (None, QuantizerSpec("uniform", 5, 1.0)):
            pipeline = Pipeline(PipelineConfig(n=n, direction="ifft", twiddle_quantizer=twiddle_quantizer))
            assert len(pipeline.stage_twiddles) == core.num_stages(n)
            for row in pipeline.stage_twiddles:
                with pytest.raises(ValueError):
                    row[0] = 0.0


@pytest.mark.parametrize("n", [8, core.MAX_SIZE])
@pytest.mark.parametrize("direction", core.DIRECTIONS)
def test_pipelines_without_a_rom_share_the_reference_twiddles(n, direction):
    first = Pipeline(PipelineConfig(n=n, direction=direction))
    second = Pipeline(PipelineConfig(n=n, direction=direction, stage_quantizers=stage_ladder(QuantizerSpec("uniform", 6, 1.0), n)))
    assert second.stage_twiddles is first.stage_twiddles is core.direction_twiddles(n, direction)
    rom = Pipeline(PipelineConfig(n=n, direction=direction, twiddle_quantizer=QuantizerSpec("uniform", 5, 1.0)))
    for rom_row, row in zip(rom.stage_twiddles, first.stage_twiddles):
        assert not np.shares_memory(rom_row, row)


TWIDDLE_ROMS = {
    "none": None,
    "uniform-1": QuantizerSpec("uniform", 1, 1.0),
    "uniform-5": QuantizerSpec("uniform", 5, 1.0),
    "uniform-10": QuantizerSpec("uniform", 10, 1.0),
    "uniform-10-clipping": QuantizerSpec("uniform", 10, 0.5),
    "mantissa-3": QuantizerSpec("mantissa", 3),
}


@pytest.mark.parametrize("direction", core.DIRECTIONS)
@pytest.mark.parametrize("rom", sorted(TWIDDLE_ROMS))
def test_the_inverse_reads_the_forward_rom_conjugated(rom, direction):
    # the oracle conjugates the natural-order table for ifft, quantizes it and
    # then gathers; the pipeline quantizes the forward table and conjugates w_br
    spec = TWIDDLE_ROMS[rom]
    for m in range(1, 17):
        n = 1 << m
        table = core.twiddle_table(n)
        if direction == "ifft":
            table = np.conj(table)
        if spec is not None:
            table = apply_quantizer(table, spec)[0]
        w_br = table[core.bit_reversal_indices(n)[: n // 2] >> 1]
        row = Pipeline(PipelineConfig(n=n, direction=direction, twiddle_quantizer=spec)).stage_twiddles[-1]
        assert row.tobytes() == w_br.tobytes(), f"n = {n}"


@pytest.mark.parametrize("direction", core.DIRECTIONS)
@pytest.mark.parametrize("rom", sorted(name for name, spec in TWIDDLE_ROMS.items() if spec is not None))
def test_the_rom_quantized_in_place_keeps_the_rows_of_a_quantized_copy(rom, direction):
    # the oracle quantizes into a new array, then builds the rows from it
    spec = TWIDDLE_ROMS[rom]
    for m in range(1, 17):
        n = 1 << m
        oracle = core.stage_twiddles(apply_quantizer(core.twiddle_table(n), spec)[0], direction)
        rows = Pipeline(PipelineConfig(n=n, direction=direction, twiddle_quantizer=spec)).stage_twiddles
        assert [row.tobytes() for row in rows] == [row.tobytes() for row in oracle], f"n = {n}"


DIRECTION_ENTRY_POINTS = {
    "stage_twiddles": lambda direction: core.stage_twiddles(core.twiddle_table(8), direction),
    "staged_transform": lambda direction: core.staged_transform(
        np.ones(8, dtype=complex), core.direction_twiddles(8, "ifft"), direction
    ),
    "fft_reference": lambda direction: core.fft_reference(np.ones(8, dtype=complex), direction),
    "PipelineConfig": lambda direction: PipelineConfig(n=8, direction=direction),
}


@pytest.mark.parametrize("direction", ["inverse", None, "IFFT"])
@pytest.mark.parametrize("entry", DIRECTION_ENTRY_POINTS)
def test_every_entry_point_rejects_an_unknown_direction(entry, direction):
    with pytest.raises(ValueError, match=rf"^direction must be one of \('fft', 'ifft'\), got {re.escape(repr(direction))}$"):
        DIRECTION_ENTRY_POINTS[entry](direction)


@pytest.mark.parametrize("n", [2, 1024, 2048, 4096, core.MAX_SIZE])
def test_stage_twiddle_rows_are_tiled_up_to_the_tile_length(n):
    table = core.twiddle_table(n)
    w_br = table[core.bit_reversal_indices(n)[: n // 2] >> 1]
    rows = core.stage_twiddles(table, "fft")
    for stage, row in enumerate(rows):
        period = 1 << stage
        assert row.size == max(period, min(n // 2, core.TILE))
        assert row.tobytes() == np.tile(w_br[:period], row.size // period).tobytes()
        if row.size == period:
            assert np.shares_memory(row, rows[-1])  # a view of w_br, not a copy


def test_a_mantissa_run_at_the_largest_size_holds_two_vectors_and_the_exponents():
    # one fresh ping-pong buffer beside the thread's spare (1 MiB) and the
    # quantizer's int32 exponents (512 KiB), which are freed before the
    # output gather; a third vector, such as an output gather that does not
    # go straight into the free buffer, adds 1 MiB
    n = core.MAX_SIZE
    pipeline = Pipeline(PipelineConfig(n=n, direction="ifft", stage_quantizers=stage_ladder(QuantizerSpec("mantissa", 10), n)))
    x = random_signal(n, seed=31)
    pipeline.run(x)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = pipeline.run(x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert trace.output.nbytes == 1 << 20
    assert peak <= 1600 * 1024


def _peak_of(call) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _peak_of_a_second_call(call) -> int:
    call()
    return _peak_of(call)


@pytest.mark.parametrize("kind", ["reference", "uniform-run"])
def test_a_transform_at_the_largest_size_allocates_less_than_two_vectors(kind):
    # the thread keeps one working vector between transforms, so a call
    # allocates one fresh vector (1 MiB); a copy of the gather's index
    # would add 512 KiB, and two fresh ping-pong buffers 1 MiB
    n = core.MAX_SIZE
    x = random_signal(n, seed=37)
    if kind == "reference":
        call = lambda: core.fft_reference(x)  # noqa: E731
    else:
        pipeline = Pipeline(PipelineConfig(n=n, stage_quantizers=stage_ladder(QuantizerSpec("uniform", 12, 1.0), n)))
        call = lambda: pipeline.run(x)  # noqa: E731
    assert _peak_of_a_second_call(call) <= 1.25 * 2**20


@pytest.mark.parametrize(
    "mode, direction, budget",
    [
        # the quantizer's temporaries only (0.127 MiB); a default run takes a
        # fresh 1 MiB ping-pong buffer beside the spare
        ("uniform", "fft", 0.25 * 2**20),
        # and the mantissa quantizer's int32 exponents, 512 KiB
        ("mantissa", "ifft", 0.6 * 2**20),
    ],
)
def test_a_consumed_run_at_the_largest_size_allocates_no_vector(mode, direction, budget):
    # the thread's spare and the consumed input are the two working
    # vectors, and the output is gathered into the one the last stage did
    # not write
    n = core.MAX_SIZE
    spec = QuantizerSpec(mode, 12, 1.0 if mode == "uniform" else None)
    pipeline = Pipeline(PipelineConfig(n=n, direction=direction, stage_quantizers=stage_ladder(spec, n)))
    x = random_signal(n, seed=67)
    pipeline.run(x)  # leaves a spare
    consumed = x.copy()
    assert _peak_of(lambda: pipeline.run(consumed, overwrite_x=True)) <= budget


FFT_CLI_CONFIG = Path(__file__).resolve().parents[1] / "bench" / "configs" / "fft-cli.json"


def test_a_one_shot_transform_holds_the_signal_and_one_working_vector():
    # the fft-cli run as a fresh `qfft fft` process makes it: no spare on the
    # thread and no cached permutation. The signal, one working vector, the ROM's
    # twiddle rows and the permutation peak at 3.29 MiB; a third vector adds
    # 1 MiB. Once the run returns, only the output and the cached
    # permutation are left (1.50 MiB); a spare kept on the thread adds 1 MiB
    cfg = dataclasses.replace(parse_config(FFT_CLI_CONFIG.read_text()), seed=1806)
    generate_signal(cfg.signal_spec(), cfg.seed)  # imports numpy.random outside the trace
    measured = {}

    def one_shot():
        core.bit_reversal_indices.cache_clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            trace = run_transform(cfg)
            held, peak = tracemalloc.get_traced_memory()
            measured.update(peak=peak - base, held=held - base, output=trace.output.nbytes)
        finally:
            tracemalloc.stop()

    # a new thread has no spare working vector, as a new process has none
    thread = threading.Thread(target=one_shot)
    thread.start()
    thread.join(timeout=120)
    assert measured["output"] == 1 << 20
    assert measured["peak"] <= 3.6 * 2**20
    assert measured["held"] <= 1.6 * 2**20


def _fresh_permutation(n):
    core.bit_reversal_indices.cache_clear()
    return core.bit_reversal_indices(n)


@pytest.mark.parametrize(
    "build, budget",
    [
        # the 512 KiB table, the 256 KiB angles and one of cos and sin at a
        # time; a complex 1j*sin temporary adds 512 KiB
        (core.twiddle_table, 1_100_000),
        # the 512 KiB permutation; doubling by concatenation keeps two
        # shifted copies per step beside it
        (_fresh_permutation, 600_000),
    ],
    ids=["twiddle_table", "bit_reversal_indices"],
)
def test_a_table_build_allocates_little_beside_its_result(build, budget):
    assert _peak_of(lambda: build(core.MAX_SIZE)) <= budget


def test_a_random_signal_allocates_no_index():
    # the 1 MiB signal and two 512 KiB uniform draws, one at a time; an
    # unread np.arange(n) adds 512 KiB
    spec = SignalSpec("random", core.MAX_SIZE)
    assert _peak_of_a_second_call(lambda: generate_signal(spec, seed=5)) <= 1_650_000


def test_the_tables_keep_the_bytes_of_their_first_formulas():
    for m in range(1, 17):
        n = 1 << m
        ang = (2.0 * np.pi / n) * np.arange(n // 2)
        # tobytes compares the sign of every zero, which == does not
        assert core.twiddle_table(n).tobytes() == (np.cos(ang) - 1j * np.sin(ang)).tobytes()
        perm = np.zeros(1, dtype=np.intp)
        for _ in range(m):
            perm = np.concatenate((perm << 1, (perm << 1) | 1))
        assert core.bit_reversal_indices(n).tobytes() == perm.tobytes()


def test_two_threads_transform_concurrently_as_they_do_in_turn():
    n = 4096
    pipelines = [
        Pipeline(PipelineConfig(n=n, stage_quantizers=stage_ladder(QuantizerSpec("uniform", 10, 1.0), n))),
        Pipeline(PipelineConfig(n=n, direction="ifft", stage_quantizers=stage_ladder(QuantizerSpec("mantissa", 8), n))),
    ]
    inputs = [random_signal(n, seed=41), random_signal(n, seed=43, scale=3.0)]
    expected = [p.run(x).output.tobytes() for p, x in zip(pipelines, inputs)]
    start = threading.Barrier(2)
    results: list[list[bytes]] = [[], []]

    def work(i):
        start.wait()
        for _ in range(40):
            results[i].append(pipelines[i].run(inputs[i]).output.tobytes())

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i in range(2):
        assert results[i] == [expected[i]] * 40


def test_a_transform_nested_in_a_stage_hook_leaves_the_pipeline_output_alone(monkeypatch):
    n = 1024
    pipeline = Pipeline(PipelineConfig(n=n, stage_quantizers=stage_ladder(QuantizerSpec("uniform", 10, 1.0), n)))
    x = random_signal(n, seed=47)
    expected = pipeline.run(x).output.tobytes()
    seen, nested = [], []

    def quantize_and_transform(values, spec, out=None, bound=math.inf):
        # an n-point transform of the working vector between two stages: the
        # stage loop quantizes its float64 components, viewed back as the
        # complex vector, so that the nested run wants a spare of the outer's shape
        vector = values.view(np.complex128)
        assert vector.shape == (n,)
        seen.append(vector.copy())
        nested.append(core.fft_reference(vector))
        return apply_quantizer(values, spec, out, bound)

    monkeypatch.setattr(quantization_module, "apply_quantizer", quantize_and_transform)
    for overwrite_x in (False, True):  # the outer run leaves its input alone, then consumes a copy
        seen.clear()
        nested.clear()
        assert pipeline.run(x.copy(), overwrite_x=overwrite_x).output.tobytes() == expected
        assert len(nested) == core.num_stages(n)
        for values, result in zip(seen, nested):
            assert result.tobytes() == core.fft_reference(values).tobytes()


def _run_and_views(pipeline, x, **kwargs):
    views = []
    trace = pipeline.run(x, after_stage=lambda stage, data: views.append(data.tobytes()), **kwargs)
    return trace, views


def assert_consumed_run_matches_default(n, direction, quantizer, rom, seed):
    specs = STAGE_QUANTIZERS[quantizer](n)
    rom_spec = QuantizerSpec("uniform", 10, 1.0) if rom else None
    pipeline = Pipeline(PipelineConfig(n, direction, specs, rom_spec))
    x = random_signal(n, seed)
    x[seed % n] = -0.0
    # a full-scale component beside the signed zero: stage 0 puts x[j] +- x[j ^ n/2]
    # past the saturating ladder's 0.1, whatever the other components draw
    x[(seed + 1) % n] = 1.0
    expected, expected_views = _run_and_views(pipeline, x)
    trace, views = _run_and_views(pipeline, x.copy(), overwrite_x=True)
    assert trace.output.tobytes() == expected.output.tobytes()
    assert trace.saturation_total == expected.saturation_total
    assert (trace.multiplies, trace.additions) == (expected.multiplies, expected.additions)
    assert views == expected_views
    if quantizer == "uniform-saturating" and direction == "fft":  # an ifft's 1/N pre-scale keeps it in range
        assert trace.saturation_total > 0


@pytest.mark.parametrize("m", range(1, 13))
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    direction=st.sampled_from(core.DIRECTIONS),
    quantizer=st.sampled_from(sorted(STAGE_QUANTIZERS)),
    rom=st.booleans(),
)
# at n=2, a random x[1] inside stage 0's full scale once left the saturating ladder unsaturated
@example(seed=816, direction="fft", quantizer="uniform-saturating", rom=False)
def test_a_consumed_run_matches_a_default_run(m, seed, direction, quantizer, rom):
    assert_consumed_run_matches_default(1 << m, direction, quantizer, rom, seed)


@pytest.mark.parametrize(
    "direction, quantizer, rom",
    [("fft", "uniform", True), ("ifft", "mantissa", False), ("fft", "uniform-saturating", False), ("ifft", "off", True)],
)
def test_a_consumed_run_at_the_largest_size_matches_a_default_run(direction, quantizer, rom):
    assert_consumed_run_matches_default(core.MAX_SIZE, direction, quantizer, rom, seed=53)


def _read_only(x):
    x.flags.writeable = False
    return x


# inputs a run must not consume: read-only, strided and of another dtype
UNCONSUMABLE = {
    "read-only": lambda x: _read_only(x.copy()),
    "strided": lambda x: np.repeat(x, 2)[::2],
    "complex64": lambda x: x.astype(np.complex64),
}


@pytest.mark.parametrize("kind", sorted(UNCONSUMABLE))
@pytest.mark.parametrize("direction", core.DIRECTIONS)
def test_a_run_told_to_overwrite_an_unconsumable_input_leaves_it_alone(kind, direction):
    n = 256
    pipeline = Pipeline(PipelineConfig(n, direction, STAGE_QUANTIZERS["uniform"](n)))
    x = UNCONSUMABLE[kind](random_signal(n, seed=59))
    original = x.tobytes()
    expected = pipeline.run(np.array(x, dtype=np.complex128)).output.tobytes()
    output = pipeline.run(x, overwrite_x=True).output
    assert x.tobytes() == original
    assert output.tobytes() == expected
    assert not np.shares_memory(output, x)


@pytest.mark.parametrize("kind", ["read-only", "strided"])
@pytest.mark.parametrize("direction", core.DIRECTIONS)
def test_the_stage_loop_consumes_only_a_contiguous_writable_vector(kind, direction):
    n = 256
    x = UNCONSUMABLE[kind](random_signal(n, seed=61))
    original = x.tobytes()
    twiddles = core.direction_twiddles(n, direction)
    expected = core.staged_transform(np.array(x), twiddles, direction)[0].tobytes()
    output = core.staged_transform(x, twiddles, direction, overwrite_x=True)[0]
    assert x.tobytes() == original
    assert output.tobytes() == expected


def test_the_stage_loop_rejects_another_dtype_before_it_takes_the_spare():
    n = 256
    specs = STAGE_QUANTIZERS["uniform"](n)
    twiddles = core.direction_twiddles(n, "fft")
    core.staged_transform(random_signal(n, seed=67), twiddles, "fft", specs)  # leaves a spare
    spare = core._spare.vector
    with pytest.raises(ValueError) as rejected:
        core.staged_transform(random_signal(n, seed=67).astype(np.complex64), twiddles, "fft", specs)
    assert core._spare.vector is spare
    assert "complex64" in str(rejected.value)


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
        components = x.view(np.float64)  # in place only on components, as the stage loop quantizes
        inplace, saturations, bound = apply_quantizer(components, spec, out=components)

        assert inplace is components
        assert x.tobytes() == fresh.tobytes()
        assert saturations == fresh_saturations
        assert (saturations > 0) == (spec.mode == "uniform" and scale > 1.0)
        # with no bound given, uniform probes and returns the exact max |level| (x_max once clipped),
        # and a mantissa bound stays infinite
        assert bound == (np.abs(components).max() if spec.mode == "uniform" else math.inf)

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

    @pytest.mark.parametrize("spec", QUANTIZERS, ids=lambda s: s.mode)
    def test_empty_input(self, spec):
        out, saturations = apply_quantizer(np.empty(0), spec)
        assert out.shape == (0,) and saturations == 0

    @pytest.mark.parametrize(
        "out",
        [
            np.empty(8, dtype=np.complex64),
            np.empty(4, dtype=np.complex128),
            np.empty(16, dtype=np.complex128)[::2],
            np.empty(8, dtype=np.complex128),
        ],
        ids=["dtype", "shape", "strided", "another"],
    )
    def test_unusable_out_rejected(self, out):
        # out is the input itself or absent; an array of the right shape and dtype is no exception
        with pytest.raises(ValueError, match="out must be"):
            apply_quantizer(random_signal(8, seed=14), QUANTIZERS[0], out=out)

    # a complex128 vector or a 2-D float64 array is quantized in place only through a component view
    @pytest.mark.parametrize(
        "values",
        [np.ones(8, dtype=np.complex64), np.ones(8, dtype=np.float32), np.ones(8, dtype=np.complex128), np.ones((2, 4))],
    )
    def test_in_place_needs_a_kernel_dtype(self, values):
        with pytest.raises(ValueError, match="out must be"):
            apply_quantizer(values, QUANTIZERS[0], out=values)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(finite_floats, min_size=1, max_size=32), bits=st.integers(1, 52))
def test_mantissa_kernel_follows_the_formula(values, bits):
    # frexp, /q, rint, *q, ldexp written out: subnormals, zeros of both signs
    # and the largest finite values included (rounding those up overflows)
    x = np.array(values)
    spec = QuantizerSpec("mantissa", bits)
    with np.errstate(over="ignore"):
        expected = reference_quantize(x, spec)
        got = apply_quantizer(x, spec)[0]
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    ratios=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=32),
    x_max=st.floats(1e-6, 1e6),
    bits=st.integers(1, 52),
)
def test_uniform_saturations_count_levels_past_full_scale(ratios, x_max, bits):
    x = np.array(ratios) * x_max
    spec = QuantizerSpec("uniform", bits, x_max)
    levels = np.rint(x / spec.step) * spec.step
    out, saturations = apply_quantizer(x, spec)
    assert saturations == np.count_nonzero(np.abs(levels) > x_max)
    assert out.tobytes() == reference_quantize(x, spec).tobytes()


# the uniform reference below, for every shape the entry points take: the
# levels q*rint(x/q), the count of levels past x_max, then the clip. A NaN
# level is not counted and stays NaN, and the other levels of its array are
# counted and clipped as usual. Entries are multiples of x_max, the named
# values or, as an integer k, the midpoint (k + 1/2) q between two levels,
# where rounding must go to the even one.
SPECIAL_VALUES = ("x_max", "-x_max", "past", "-past", "inf", "-inf", "nan")


def uniform_reference(x, spec):
    components = np.ascontiguousarray(x).reshape(-1).view(np.float64)
    q = spec.step
    levels = q * np.rint(components / q)
    saturated = int(np.count_nonzero(np.abs(levels) > spec.x_max))
    return np.clip(levels, -spec.x_max, spec.x_max), saturated


@settings(max_examples=400, deadline=None)
@given(
    shape=st.sampled_from([(), (0,), (1,), (5,), (0, 3), (2, 3), (3, 1)]),
    is_complex=st.booleans(),
    entries=st.lists(
        st.one_of(st.floats(-3.0, 3.0), st.sampled_from(SPECIAL_VALUES), st.integers(-70, 70)),
        min_size=12,
        max_size=12,
    ),
    x_max=st.one_of(st.integers(-60, 60).map(lambda e: 2.0**e), st.floats(1e-12, 1e12)),
    bits=st.integers(1, 52),
)
def test_uniform_probe_matches_the_reference(shape, is_complex, entries, x_max, bits):
    spec = QuantizerSpec("uniform", bits, x_max)
    special = {
        "x_max": x_max,
        "-x_max": -x_max,
        "past": x_max + spec.step,
        "-past": -x_max - spec.step,
        "inf": np.inf,
        "-inf": -np.inf,
        "nan": np.nan,
    }

    def value(entry):
        if isinstance(entry, str):
            return special[entry]
        if isinstance(entry, int):
            return (entry + 0.5) * spec.step
        return entry * x_max

    values = np.array([value(e) for e in entries])
    size = int(np.prod(shape))
    x = values[:size].reshape(shape)
    if is_complex:
        z = np.empty(shape, dtype=np.complex128)
        z.real, z.imag = x, values[size : 2 * size].reshape(shape)
        x = z
    expected, expected_saturations = uniform_reference(x, spec)

    out, saturations = apply_quantizer(x, spec)
    assert out.shape == x.shape and out.dtype == x.dtype
    assert saturations == expected_saturations
    assert out.reshape(-1).view(np.float64).tobytes() == expected.tobytes()
    inplace = x.copy()
    components = inplace.reshape(-1).view(np.float64)  # a view of every shape's components
    assert apply_quantizer(components, spec, out=components)[1] == saturations
    assert inplace.tobytes() == out.tobytes()


# The stage loop carries a bound on every |component| through the stages, and a
# uniform quantizer probes for saturation only where that bound does not prove
# headroom. The bytes and counts must be those of a loop that always probes.


def probed_run(pipeline, x):
    """The stage loop written out, each stage quantized into a new array: output and saturations.

    The fresh-array form of ``apply_quantizer`` reads no bound and probes
    every uniform stage.
    """
    n, direction = pipeline.n, pipeline.config.direction
    exponent = core.prescale_exponent(n, direction)
    # x * 1.0 would turn a -0.0 real part into +0.0, as the complex product reads 1.0 as 1 + 0j
    data = x * 2.0**exponent if exponent else x
    saturations = 0
    for stage, (row, spec) in enumerate(zip(pipeline.stage_twiddles, pipeline.config.stage_quantizers)):
        out = np.empty_like(data)
        core.dit_stage(data, row, stage, out)
        if spec is not None:
            out, saturated = apply_quantizer(out, spec)
            saturations += saturated
        data = out
    return data[core.bit_reversal_indices(n)], saturations


def stage_loop_pipeline(m, direction, ladder, rom_bits):
    """A pipeline whose stage s is None, ("mantissa", bits) or ("uniform", bits, ratio).

    A uniform ratio is a fraction of the doubling ladder's full scale at
    stage s, 2**(s + 1) for a unit-scale input, pre-scaled as the input is.
    """
    k = core.prescale_exponent(1 << m, direction)
    specs = []
    for stage, entry in enumerate(ladder):
        if entry is None or entry[0] == "mantissa":
            specs.append(entry and QuantizerSpec(*entry))
        else:
            mode, bits, ratio = entry
            specs.append(QuantizerSpec(mode, bits, ratio * 2.0 ** (stage + 1 + k)))
    rom = None if rom_bits is None else QuantizerSpec("uniform", rom_bits, 1.0)
    return Pipeline(PipelineConfig(1 << m, direction, tuple(specs), rom))


def stage_loop_input(m, kind, seed, signed_zero, full_scale):
    """A unit-scale signal of ``kind``, with a -0.0 and a pair at exactly stage 0's full scale if asked."""
    n = 1 << m
    x = generate_signal(SignalSpec(kind, n, bin=seed % n if kind == "sinusoid" else 0), seed)
    if signed_zero:
        x[seed % n] = complex(-0.0, -0.0)
    if full_scale:
        # stage 0 adds x[j] and x[j + n/2]: a ratio-1 full scale 2 exactly, and 2 past a lower one
        j = (seed >> 8) % (n // 2)
        x[j] = x[j + n // 2] = 1.0
    return x


@st.composite
def stage_loop_cases(draw):
    m = draw(st.integers(1, 12))
    ratio = st.one_of(st.just(1.0), st.floats(0.3, 1.5))
    entry = st.one_of(
        st.none(),
        st.tuples(st.just("mantissa"), st.integers(2, 24)),
        st.tuples(st.just("uniform"), st.integers(2, 24), ratio),
    )
    return {
        "m": m,
        "direction": draw(st.sampled_from(core.DIRECTIONS)),
        "ladder": draw(st.lists(entry, min_size=m, max_size=m)),
        "rom_bits": draw(st.sampled_from([None, 3, 10])),
        "kind": draw(st.sampled_from(["random", "sinusoid", "impulse"])),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "signed_zero": draw(st.booleans()),
        "full_scale": draw(st.booleans()),
    }


LARGEST_STAGE_LOOP = {
    "m": 16,
    "direction": "fft",
    "ladder": [("uniform", 12, 1.0), ("mantissa", 9), None, ("uniform", 12, 0.5)] * 4,
    "rom_bits": 10,
    "kind": "random",
    "seed": 71,
    "signed_zero": True,
    "full_scale": True,
}


@settings(max_examples=200, deadline=None)
@given(case=stage_loop_cases())
@example(case=LARGEST_STAGE_LOOP)
def test_a_run_matches_a_stage_loop_that_always_probes(case):
    pipeline = stage_loop_pipeline(case["m"], case["direction"], case["ladder"], case["rom_bits"])
    x = stage_loop_input(case["m"], case["kind"], case["seed"], case["signed_zero"], case["full_scale"])
    bounds = []
    quantize = quantization_module.apply_quantizer

    def checked(values, spec, out=None, bound=math.inf):
        # the precondition: the bound handed to each stage quantizer holds
        bounds.append(bound >= np.abs(values).max())
        return quantize(values, spec, out, bound)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quantization_module, "apply_quantizer", checked)
        trace = pipeline.run(x)
    output, saturations = probed_run(pipeline, x)
    assert trace.output.tobytes() == output.tobytes()
    assert trace.saturation_total == saturations
    assert all(bounds) and len(bounds) == sum(spec is not None for spec in pipeline.config.stage_quantizers)


@pytest.fixture
def probes(monkeypatch):
    """The saturation probes of each ``Pipeline.run``, one list of full scales per run."""
    runs = []
    probe, run = quantization_module._saturation_probe, Pipeline.run

    def counted_probe(x, x_max):
        runs[-1].append(x_max)
        return probe(x, x_max)

    def counted_run(self, *args, **kwargs):
        runs.append([])
        return run(self, *args, **kwargs)

    monkeypatch.setattr(quantization_module, "_saturation_probe", counted_probe)
    monkeypatch.setattr(Pipeline, "run", counted_run)
    return runs


def test_the_default_sweep_ladder_probes_at_most_three_stages_a_run(probes):
    # the sweep-1k workload's config: n=1024, b=6..14, 20 random trials, no ROM
    cfg = ExperimentConfig()
    rows = run_sweep(cfg)
    assert len(probes) == len(rows) * cfg.trials == 180
    assert max(len(run) for run in probes) <= 3


def test_a_bound_that_proves_headroom_skips_the_probe(probes):
    # a level is q * rint(x / q), so no level passes x_max once bound + q/2 is at most it
    spec = QuantizerSpec("uniform", 8, 1.0)
    values = np.linspace(-0.5, 0.5, 16)
    probes.append([])
    expected = apply_quantizer(values, spec)[0].tobytes()
    for bound, probed in [(0.5, False), (1.0 - spec.step, False), (1.0, True), (math.inf, True), (math.nan, True)]:
        probes[-1].clear()
        components = values.copy()
        out, saturations, next_bound = apply_quantizer(components, spec, components, bound)
        assert out.tobytes() == expected and saturations == 0
        assert len(probes[-1]) == probed, bound
        # the probe's exact max |level|, else the bound plus q/2, widened
        assert next_bound == (0.5 if probed else (bound + spec.step / 2) * quantization_module.BOUND_SLACK)


def midpoint(k, spec):
    """A value in (0, 1] halfway between two uniform levels, or between two mantissa grid points."""
    if spec.mode == "uniform":
        return (k % max(1, int(1.0 / spec.step)) + 0.5) * spec.step
    half_grid = 2 ** (spec.bits - 1)
    return (half_grid + k % half_grid + 0.5) * spec.step


@settings(max_examples=300, deadline=None)
@given(
    entries=st.lists(st.one_of(st.floats(-1.0, 1.0), st.integers(0, 2**52)), min_size=1, max_size=16),
    bits=st.integers(2, 24),
    mode=st.sampled_from(quantization_module.MODES),
)
def test_the_bound_a_stage_quantizer_returns_holds(entries, bits, mode):
    # handed the tight bound max |x| <= 1, the quantizer returns one on every |level|;
    # a midpoint may round away from zero. A uniform full scale of 4 leaves every
    # level in range, so no probe runs and the bound returned is the widened one
    spec = QuantizerSpec(mode, bits, 4.0 if mode == "uniform" else None)
    x = np.array([midpoint(e, spec) if isinstance(e, int) else e for e in entries])
    bound = float(np.abs(x).max())
    out, saturations, next_bound = apply_quantizer(x, spec, x, bound)
    assert saturations == 0
    assert next_bound >= np.abs(out).max()


@pytest.mark.parametrize("n", [2, 1024, core.MAX_SIZE])
@pytest.mark.parametrize("rom", [None, QuantizerSpec("uniform", 10, 1.0), QuantizerSpec("mantissa", 3)])
def test_stage_growth_is_each_rows_own_maximum(n, rom):
    pipeline = Pipeline(PipelineConfig(n=n, twiddle_quantizer=rom))
    maxima = [float(np.abs(row).max()) for row in pipeline.stage_twiddles]
    assert len(pipeline.stage_growth) == len(maxima)
    for factor, peak in zip(pipeline.stage_growth, maxima):
        # the exact growth, widened by the slack and no more (|w|**2 rounds within it)
        exact = 1.0 + math.sqrt(2.0) * peak
        assert exact < factor <= exact * quantization_module.BOUND_SLACK * (1.0 + 2.0**-50)
    if rom == QuantizerSpec("uniform", 10, 1.0) and n > 2:
        assert max(maxima) > 1.0  # a rounded twiddle past the unit circle grows the bound more


QUANTIZER_SPECS = [
    QuantizerSpec("uniform", 7, 0.3),
    QuantizerSpec("uniform", 5, 2.0),
    QuantizerSpec("mantissa", 6),
    None,
]


@pytest.mark.parametrize("spec", QUANTIZER_SPECS, ids=["uniform-0.3", "uniform-2.0", "mantissa", "off"])
def test_quantizer_spec_contract_survives_its_cached_constants(spec):
    entry = ExperimentConfig(n=2, per_stage=(spec,)).to_dict()["quantizer"]["per_stage"][0]
    cfg = parse_config(json.dumps({"n": 4, "quantizer": {"per_stage": [entry] * 2}}))
    assert cfg.per_stage == (spec, spec)
    row = ErrorReport(6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def header():
        return emit_report([row], "csv", cfg.to_dict()).splitlines()[0].encode()

    before = header()
    Pipeline(cfg.pipeline_config()).run(random_signal(4, seed=1))
    if spec is not None:
        fresh = QuantizerSpec(spec.mode, spec.bits, spec.x_max)
        assert spec.step == fresh.step
        apply_quantizer(np.linspace(-1.0, 1.0, 8), spec)
        assert all(stage_spec.step == spec.step for stage_spec in cfg.per_stage)
        assert spec == fresh and fresh == spec
        assert hash(spec) == hash(fresh)
        assert repr(spec) == repr(fresh)
        assert dataclasses.asdict(spec) == dataclasses.asdict(fresh)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and hash(clone) == hash(spec) and repr(clone) == repr(spec)
        assert clone.step == spec.step
    assert header() == before


PIPELINES = {
    "uniform": PipelineConfig(n=256, stage_quantizers=stage_ladder(QuantizerSpec("uniform", 7, 1.5), 256)),
    "uniform-saturating": PipelineConfig(n=256, stage_quantizers=stage_ladder(QuantizerSpec("uniform", 7, 0.05), 256)),
    "mantissa-ifft": PipelineConfig(n=256, direction="ifft", stage_quantizers=stage_ladder(QuantizerSpec("mantissa", 5), 256)),
    "twiddle-rom": PipelineConfig(
        n=64,
        stage_quantizers=stage_ladder(QuantizerSpec("uniform", 4, 0.5), 64),
        twiddle_quantizer=QuantizerSpec("uniform", 5, 1.0),
    ),
    "bypass": PipelineConfig(n=256),
    "mixed-none": PipelineConfig(n=256, stage_quantizers=STAGE_QUANTIZERS["mixed-none"](256)),
}


class TestOptInSnapshots:
    """Runs with and without the opt-in per-stage view, the ``after_stage`` hook."""

    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_snapshots_do_not_change_the_result(self, name):
        config = PIPELINES[name]
        pipeline = Pipeline(config)
        x = random_signal(config.n, seed=21)
        stages = []

        def hook(stage, data):
            stages.append(stage)
            with pytest.raises(ValueError, match="read-only"):
                data[0] = 0.0

        plain = pipeline.run(x)
        hooked = pipeline.run(x, after_stage=hook)

        assert hooked.output.tobytes() == plain.output.tobytes()
        assert hooked.saturation_total == plain.saturation_total
        assert stages == list(range(config.stages))
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
    reference = core.fft_reference(x, direction)
    assert output.tobytes() == reference.tobytes()
