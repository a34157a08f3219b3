import json
import re

import pytest

from qfft.analysis import CharacterizationRow, ErrorReport
from qfft.report import CSV_COLUMNS, STANDARD_NOTES, emit_report, write


def make_rows(count=3):
    return [
        ErrorReport(
            bits=6 + i,
            error_mean=-1.25e-4 * (i + 1),
            error_std=0.5 ** (i + 1),
            error_variance=0.25 ** (i + 1),
            percent_error=12.5 / (i + 1),
            sqnr_db=20.0 + 6.0 * i,
            theory_variance=0.2 ** (i + 1),
            saturation_rate=0.0,
        )
        for i in range(count)
    ]


class TestCsv:
    def test_three_rows_make_four_lines(self):
        text = emit_report(make_rows(3))
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0] == ",".join(CSV_COLUMNS)

    def test_exact_header(self):
        header = emit_report(make_rows(1)).splitlines()[0]
        assert header == (
            "bits,error_mean,error_std,error_variance,percent_error,"
            "sqnr_db,theory_variance,saturation_rate"
        )

    def test_twelve_significant_digits(self):
        line = emit_report(make_rows(1)).splitlines()[1]
        fields = line.split(",")
        assert fields[0] == "6"
        for field in fields[1:]:
            assert re.fullmatch(r"-?\d\.\d{12}e[+-]\d{2,3}", field)

    def test_values_round_trip_through_text(self):
        row = make_rows(1)[0]
        fields = emit_report([row]).splitlines()[1].split(",")
        assert float(fields[3]) == pytest.approx(row.error_variance, rel=1e-12)
        assert float(fields[5]) == pytest.approx(row.sqnr_db, rel=1e-12)

    def test_comment_block_with_config_and_notes(self):
        config = {"n": 64, "seed": 11}
        text = emit_report(make_rows(2), config=config)
        lines = text.splitlines()
        assert lines[0].startswith("# config: ")
        assert json.loads(lines[0].removeprefix("# config: ")) == config
        assert "# seed: 11" in lines
        assert any("q^2/6" in line and "twice" in line for line in lines)
        assert any("1/N" in line for line in lines)
        # comments precede the header, data rows are untouched
        assert lines[-3] == ",".join(CSV_COLUMNS)

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_a_config_without_a_transform_size_leaves_out_the_inverse_note(self, format):
        # a qfft quantizer header has no n: it runs no transform, so no 1/N pre-scale
        text = emit_report(make_rows(1), format=format, config={"seed": 3})
        assert "q^2/6" in text
        assert "1/N" not in text

    def test_writes_to_path(self, tmp_path):
        target = tmp_path / "report.csv"
        text = emit_report(make_rows(2))
        write([text], str(target))
        assert target.read_text() == text


class TestJson:
    def test_mirrors_csv_values(self):
        rows = make_rows(3)
        payload = json.loads(emit_report(rows, format="json"))
        assert isinstance(payload, list) and len(payload) == 3
        for obj, row in zip(payload, rows):
            assert list(obj.keys()) == list(CSV_COLUMNS)
            assert obj["bits"] == row.bits
            assert obj["error_variance"] == row.error_variance
            assert obj["sqnr_db"] == row.sqnr_db

    def test_wrapped_when_config_present(self):
        payload = json.loads(
            emit_report(make_rows(1), format="json", config={"n": 8})
        )
        assert payload["config"] == {"n": 8}
        assert payload["notes"] == list(STANDARD_NOTES)
        assert len(payload["rows"]) == 1


class TestValidation:
    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            emit_report([])

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(make_rows(1), format="xml")


class TestCharacterizationEmitter:
    ROWS = [CharacterizationRow(4, 1.3e-3, 1.302083e-3), CharacterizationRow(5, 3.2e-4, 3.255e-4)]

    def test_csv_columns(self):
        lines = emit_report(self.ROWS).splitlines()
        assert lines[0] == "bits,empirical_variance,theory_variance"
        assert len(lines) == 3

    def test_json(self):
        payload = json.loads(emit_report(self.ROWS, format="json"))
        assert payload[0] == {
            "bits": 4,
            "empirical_variance": 1.3e-3,
            "theory_variance": 1.302083e-3,
        }
