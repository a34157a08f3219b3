"""CSV/JSON emission of sweep and characterization results."""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

from .analysis import CharacterizationRow, ErrorReport

CSV_COLUMNS = (
    "bits",
    "error_mean",
    "error_std",
    "error_variance",
    "percent_error",
    "sqnr_db",
    "theory_variance",
    "saturation_rate",
)

CHARACTERIZATION_COLUMNS = ("bits", "empirical_variance", "theory_variance")

# conventions every report carries, so downstream plots are unambiguous
VARIANCE_NOTE = (
    "mantissa-mode theory variance is q^2/6 at step q = 2^-bits, "
    "twice (not half) the uniform staircase q^2/12 at equal step"
)
IFFT_SCALING_NOTE = "inverse runs pre-scale the input vector by 1/N before the butterfly stages"
STANDARD_NOTES = (VARIANCE_NOTE, IFFT_SCALING_NOTE)


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".12e")


def _row_values(row: ErrorReport | CharacterizationRow, columns: Sequence[str]) -> list:
    return [getattr(row, name) for name in columns]


def csv_header(config: dict | None, notes: Iterable[str]) -> list[str]:
    """Leading comment lines of a CSV report: ``# config:``, ``# seed:``, ``# note:``."""
    lines = []
    if config is not None:
        lines.append("# config: " + json.dumps(config, sort_keys=True))
        if "seed" in config:
            lines.append(f"# seed: {config['seed']}")
    lines += [f"# note: {note}" for note in notes]
    return lines


def _render_csv(rows, columns, config: dict | None, notes: Iterable[str]) -> str:
    lines = csv_header(config, notes)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in _row_values(row, columns)))
    return "\n".join(lines) + "\n"


def _render_json(rows, columns, config: dict | None, notes: Iterable[str]) -> str:
    payload_rows = []
    for row in rows:
        payload_rows.append(
            {name: (v if isinstance(v, int) else float(v)) for name, v in zip(columns, _row_values(row, columns))}
        )
    notes = list(notes)
    if config is None and not notes:
        payload = payload_rows
    else:
        payload = {"config": config, "notes": notes, "rows": payload_rows}
    return json.dumps(payload, indent=2) + "\n"


def _render(rows, columns, fmt: str, config, notes) -> str:
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    if not rows:
        raise ValueError("refusing to emit an empty report")
    if fmt == "csv":
        return _render_csv(rows, columns, config, notes)
    return _render_json(rows, columns, config, notes)


def _write(text: str, destination) -> None:
    if destination is None:
        return
    if isinstance(destination, (str, os.PathLike)):
        with open(destination, "w", newline="") as handle:
            handle.write(text)
    else:
        destination.write(text)


def emit_report(
    rows: Sequence[ErrorReport],
    format: str = "csv",
    destination=None,
    config: dict | None = None,
    notes: Iterable[str] = (),
) -> str:
    """Render sweep rows as CSV or JSON; optionally write to a path or file object.

    CSV column order is fixed (bits, error_mean, error_std, error_variance,
    percent_error, sqnr_db, theory_variance, saturation_rate), reals carry
    at least 12 significant digits, and a leading comment block echoes the
    effective configuration and notes when given. Returns the rendered text.
    """
    text = _render(rows, CSV_COLUMNS, format, config, notes)
    _write(text, destination)
    return text


def emit_characterization(
    rows: Sequence[CharacterizationRow],
    format: str = "csv",
    destination=None,
    config: dict | None = None,
    notes: Iterable[str] = (),
) -> str:
    """Same emission machinery for pure-quantizer characterization rows."""
    text = _render(rows, CHARACTERIZATION_COLUMNS, format, config, notes)
    _write(text, destination)
    return text
