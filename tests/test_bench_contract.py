"""The benchmark's traced runs still see every layer they wrap.

``bench/tracer.py`` wraps ``qfft`` functions by the names their callers
look up. A rename breaks those wrappers, or leaves a layer untraced so
that the traced run counts no butterflies; both fail here. A call that
goes round a wrapped layer (a ``Pipeline.run`` that calls the quantizer
kernel instead of ``apply_quantizer``) leaves the butterflies right but
changes the per-layer counts pinned below.
"""

import json
from pathlib import Path

import pytest

from qfft import cli, core
from qfft.pipeline import processing_cost

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    return tracer


# a small size, and the largest, where the twiddle rows are tiled and shorter than n/2
@pytest.mark.parametrize("n", [64, core.MAX_SIZE])
def test_traced_fft_and_sweep_count_every_butterfly(tmp_path, tracer, n):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": n, "sweep": {"trials": 2}}))
    t = tracer.Tracer()
    try:
        tracer.install(t)
        for op, command in enumerate(["fft", "sweep"]):
            with t.op(op):
                assert cli.main([command, "--config", str(config), "--out", str(tmp_path / command)]) == 0
            assert t.op_counts[op]["core.butterflies"] > 0
            assert t.check_butterflies(op, processing_cost) is None
        # one qfft fft: one dit_stage call per stage, n/2 butterflies in each
        fft_counts = t.op_counts[0]["core.stage_calls"], t.op_counts[0]["core.butterflies"]
        assert fft_counts == {64: (6, 192), core.MAX_SIZE: (16, 524_288)}[n]
        assert tracer.summarize(t)["report.emit_ms"] > 0
    finally:
        t.set_active(False)


def test_traced_sweep_counts_each_layer_once_per_call(tmp_path, tracer):
    # 3 rows x 2 trials = 6 runs of 6 stages; 8 transforms with the 2 references
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 64, "sweep": {"trials": 2, "bits_lo": 6, "bits_hi": 8}}))
    t = tracer.Tracer()
    try:
        tracer.install(t)
        with t.op(0):
            assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "sweep")]) == 0
    finally:
        t.set_active(False)
    counts = t.op_counts[0]
    assert counts["pipeline.runs"] == 6
    assert counts["quant.calls"] == 36
    assert counts["quant.components"] == 36 * 2 * 64
    assert counts["core.stage_calls"] == 48
    assert counts["transforms:64"] == 8
