"""Rendering and writing of every qfft report.

``emit_report`` renders sweep and characterization rows, ``emit_vector``
the output vector of ``qfft fft``, and ``write`` sends a rendered report
to stdout or a file. Every report carries its config (without ``out``:
the report must not depend on where it is written), its seed and
``STANDARD_NOTES``, less the inverse's 1/N note if no size ``n`` is set.

``emit_vector`` yields its rows a chunk at a time. A quantized output
takes few distinct values (a b-bit uniform stage has at most 2**b + 1
levels), so each chunk formats every distinct component bit pattern
once, with Python's own %-format, and assembles the rows from that
table. A vector whose first chunk is mostly distinct values skips the
table and formats each chunk with one %-format over all its rows. Both
give the bytes of one %-format per row, and the JSON rows are exactly
those of ``json.dumps(..., indent=2)``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
import sys
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

# conventions every report carries, so downstream plots are unambiguous
VARIANCE_NOTE = (
    "mantissa-mode theory variance is q^2/6 at step q = 2^-bits, "
    "twice (not half) the uniform staircase q^2/12 at equal step"
)
IFFT_SCALING_NOTE = "inverse runs pre-scale the input vector by 1/N before the butterfly stages"
STANDARD_NOTES = (VARIANCE_NOTE, IFFT_SCALING_NOTE)

CHUNK_ROWS = 4096
CSV_ROW = "%d,%s,%s\n"
# one element of json.dumps(..., indent=2)'s "output" list, with the separator in front
JSON_ROW = ',\n    {\n      "index": %d,\n      "real": %s,\n      "imag": %s\n    }'


def write(parts: Iterable[str], out: str | None) -> None:
    """Write the strings of a rendered report to stdout, or to the file ``out``."""
    if out is None:
        sys.stdout.writelines(parts)
    else:
        with open(out, "w", newline="") as handle:
            handle.writelines(parts)


def _header(config: dict) -> dict:
    return {key: value for key, value in config.items() if key != "out"}


def _notes(config: dict) -> list[str]:
    # only a config with a size n runs a transform, so only its report has the 1/N pre-scale
    return list(STANDARD_NOTES if "n" in config else STANDARD_NOTES[:1])


def _csv_comments(config: dict) -> list[str]:
    """Leading comment lines of a CSV report: ``# config:``, ``# seed:``, ``# note:``."""
    lines = ["# config: " + json.dumps(_header(config), sort_keys=True)]
    if "seed" in config:
        lines.append(f"# seed: {config['seed']}")
    return lines + [f"# note: {note}" for note in _notes(config)]


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".12e")


def emit_report(rows: Sequence, format: str, config: dict) -> str:
    """Render sweep (``ErrorReport``) or characterization rows as CSV or JSON text.

    The columns are the row dataclass's fields in order. Reals carry 12
    significant digits in CSV.
    A CSV report opens with a comment block; a JSON report is an object
    with ``config``, ``notes`` and ``rows``.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    if not rows:
        raise ValueError("refusing to emit an empty report")
    columns = [field.name for field in dataclasses.fields(rows[0])]
    values = [[getattr(row, name) for name in columns] for row in rows]
    if format == "csv":
        lines = _csv_comments(config) + [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in values]
        return "\n".join(lines) + "\n"
    records = [
        {name: v if isinstance(v, int) else float(v) for name, v in zip(columns, row)} for row in values
    ]
    payload = {"config": _header(config), "notes": _notes(config), "rows": records}
    return json.dumps(payload, indent=2) + "\n"


def emit_vector(output: np.ndarray, saturation_total: int, format: str, config: dict) -> Iterator[str]:
    """Chunks of the ``qfft fft`` report of a complex output vector, as CSV or JSON."""
    if format == "csv":
        lines = _csv_comments(config)
        lines.append(f"# saturation_total: {saturation_total}")
        lines.append("index,real,imag")
        return itertools.chain(["\n".join(lines) + "\n"], _rows(output, CSV_ROW, "%.12e"))
    # json.dumps(payload, indent=2) with the rows spliced into its empty "output" list;
    # "%r" is the float.__repr__ that json writes
    payload = {
        "config": _header(config),
        "notes": _notes(config),
        "saturation_total": saturation_total,
        "output": [],
    }
    head = json.dumps(payload, indent=2).removesuffix("]\n}")
    rows = _rows(output, JSON_ROW, "%r")
    # the first row takes no separator: "[" is followed directly by "\n    {"
    return itertools.chain([head, next(rows)[1:]], rows, ["\n  ]\n}\n"])


def _rows(output: np.ndarray, template: str, value_format: str) -> Iterator[str]:
    """``template % (index, real, imag)`` for every element of a complex vector.

    ``template`` holds ``%d`` for the index and ``%s`` for each component,
    which is written with ``value_format``. One string per ``CHUNK_ROWS``
    rows, so memory stays bounded. A chunk with at most half as many
    distinct component bit patterns as components is assembled from a
    table of them (``_table_chunk``); from the first chunk with more, the
    rest of the vector takes one %-format per chunk and no table, since a
    table it would not use costs a sort per chunk.
    """
    literals = [np.frombuffer(part.encode("ascii"), np.uint8) for part in re.split("%d|%s", template)]
    row_format = template.replace("%s", value_format)
    components = output.view(np.float64)
    tabulate = True
    for start in range(0, output.size, CHUNK_ROWS):
        chunk = components[2 * start : 2 * (start + CHUNK_ROWS)]
        if tabulate:
            # bit patterns, not values: 0.0 == -0.0 but they print differently
            keys, inverse = np.unique(chunk.view(np.uint64), return_inverse=True)
            tabulate = 2 * keys.size <= chunk.size
        if tabulate:
            yield _table_chunk(start, keys, inverse, literals, value_format)
        else:
            values = chunk.tolist()
            count = len(values) // 2
            fields = [0] * (3 * count)
            fields[0::3] = range(start, start + count)
            fields[1::3] = values[0::2]
            fields[2::3] = values[1::2]
            yield (row_format * count) % tuple(fields)


def _table_chunk(
    start: int, keys: np.ndarray, inverse: np.ndarray, literals: list[np.ndarray], value_format: str
) -> str:
    """Rows of one chunk, each distinct component formatted once.

    The strings of the distinct values (from Python's own %-format, so the
    bytes match the per-component path) sit in a NUL-padded table; a
    ``uint8`` matrix of rows is filled from the literals, the index
    digits and the table gathered by ``inverse``, and its NULs dropped.
    """
    table = np.array([value_format % v for v in keys.view(np.float64).tolist()], dtype=np.bytes_)
    texts = np.take(table.view(np.uint8).reshape(keys.size, table.itemsize), inverse.reshape(-1, 2), axis=0)
    count = texts.shape[0]
    index = _decimal_digits(start, start + count)
    pieces = (literals[0], index, literals[1], texts[:, 0], literals[2], texts[:, 1], literals[3])
    rows = np.concatenate([np.broadcast_to(piece, (count, piece.shape[-1])) for piece in pieces], axis=1)
    return rows[rows != 0].tobytes().decode("ascii")


def _decimal_digits(start: int, stop: int) -> np.ndarray:
    """ASCII digits of ``start..stop-1``, one right-aligned row each, NUL before shorter numbers."""
    width = len(str(stop - 1))
    numbers = np.arange(start, stop, dtype=np.uint32)  # transforms have at most 2**16 points
    digits = np.empty((numbers.size, width), np.uint8)
    rest = numbers
    for column in range(width - 1, -1, -1):
        quotient = rest // 10
        digits[:, column] = rest - 10 * quotient
        rest = quotient
    digits += ord("0")
    for column in range(width - 1):
        digits[numbers < 10 ** (width - 1 - column), column] = 0
    return digits
