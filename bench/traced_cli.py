"""One traced ``qfft`` command in a fresh process.

Usage: python3 traced_cli.py SPANS_PATH QFFT_ARGS...

Imports ``qfft.cli``, wraps its modules' public functions (see
``tracer.install``), runs ``qfft.cli.main`` with the remaining arguments
and, on exit, writes the spans and counts it recorded to SPANS_PATH as
JSON for the launching process to merge under its op span.
"""

import json
import sys

from tracer import Tracer, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from qfft import cli

    tracer = Tracer()
    install(tracer)
    tracer.begin(0)
    try:
        return cli.main(argv)
    finally:
        with open(spans_path, "w") as handle:
            json.dump(tracer.to_record(), handle)


if __name__ == "__main__":
    sys.exit(main())
