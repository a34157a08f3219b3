"""Set-up probe: import qfft, parse a workload's config, build its first Pipeline.

Usage: python3 setup_probe.py CONFIG|- COMMAND

Prints ``time.perf_counter()`` when the Pipeline is built. On Linux that
clock is CLOCK_MONOTONIC, shared by every process, so the launching
process subtracts its own launch time to get the set-up time.
"""

import sys
import time


def main() -> None:
    config, command = sys.argv[1], sys.argv[2]
    import qfft.cli  # noqa: F401  (the entry point a CLI user imports)
    from qfft.config import parse_config
    from qfft.pipeline import Pipeline

    text = "{}"
    if config != "-":
        with open(config) as handle:
            text = handle.read()
    cfg = parse_config(text)
    # a sweep's first pipeline is its lowest bit count; fft uses the configured bits
    Pipeline(cfg.pipeline_config(cfg.bits_lo if command == "sweep" else None))
    print(repr(time.perf_counter()))


if __name__ == "__main__":
    main()
