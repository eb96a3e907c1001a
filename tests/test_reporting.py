"""Tests for table emission, config parsing, and serialization round-trips."""

import csv
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from vlcpos import (
    LedSpec,
    OutputTable,
    ParseError,
    PdSpec,
    Point3,
    UnsupportedFormat,
    ValidationError,
    config_hash,
    default_config,
    emit,
    estimate_lines,
    estimate_position,
    format_number,
    load_config,
    position_sweep_table,
    replication_table,
    run_position_sweep,
    serialize_config,
)
from vlcpos.scenario import replication_report

LED = LedSpec(
    position=Point3(2.5, 2.5, 3.0),
    transmit_power=15.0,
    half_power_angle=60.0,
)
PD = PdSpec(
    area=2.25e-6,
    fov=90.0,
    filter_gain=1.0,
    refractive_index=1.5,
)

POSITION_SWEEP_COLUMNS = (
    "index",
    "actual_x",
    "actual_y",
    "est_x",
    "est_y",
    "slant_d",
    "received_power",
    "error_m",
)


def _table():
    return OutputTable(
        name="demo",
        columns=("a", "b"),
        rows=((1, 2.5), (3, 2.685739664675734e-06)),
        metadata={"zeta": "last", "alpha": "first"},
    )


class TestFormatNumber:
    def test_six_significant_digits(self):
        assert format_number(2.685739664675734e-06) == "2.68574e-06"
        assert format_number(3.0) == "3"
        assert format_number(0.0784) == "0.0784"
        assert format_number(0.04207) == "0.04207"
        assert format_number(4.561775969948546) == "4.56178"


class TestOutputTable:
    def test_rejects_row_arity_mismatch(self):
        with pytest.raises(ValidationError):
            OutputTable(name="bad", columns=("a", "b"), rows=((1,),), metadata={})


class TestEmit:
    def test_csv_layout(self):
        buffer = io.StringIO()
        count = emit(_table(), "csv", buffer)
        text = buffer.getvalue()
        assert count == len(text.encode("utf-8"))
        assert "\r" not in text
        lines = text.splitlines()
        assert lines[0] == "# alpha = first"
        assert lines[1] == "# zeta = last"
        assert lines[2] == "a,b"
        assert lines[3] == "1,2.5"
        assert lines[4] == "3,2.68574e-06"

    def test_csv_to_path(self, tmp_path):
        target = tmp_path / "out.csv"
        emit(_table(), "csv", target)
        assert target.read_text(encoding="utf-8").startswith("# alpha = first\n")
        emit(_table(), "csv", str(target))
        assert target.read_text(encoding="utf-8").startswith("# alpha = first\n")

    def test_json_layout(self):
        buffer = io.StringIO()
        emit(_table(), "json", buffer)
        payload = json.loads(buffer.getvalue())
        assert payload["name"] == "demo"
        assert payload["columns"] == ["a", "b"]
        assert payload["rows"] == [[1, 2.5], [3, 2.68574e-06]]
        assert payload["metadata"] == {"alpha": "first", "zeta": "last"}

    def test_rejects_unknown_format(self):
        with pytest.raises(UnsupportedFormat):
            emit(_table(), "yaml", io.StringIO())

    @pytest.mark.parametrize(
        "rows",
        [
            (),
            ((1, None), (None, 2.5)),
            (('say "hi"', "h\u00e9llo \u2713"), ("back\\slash", "tab\tnew\nline")),
            ((1, 2), (3, 4)),
            ((1, math.inf), (2, 1234567.0)),
        ],
        ids=["empty", "none", "strings", "ints", "inf"],
    )
    def test_json_matches_json_dumps(self, rows):
        table = OutputTable(
            name="demo", columns=("a", "b"), rows=rows, metadata={"zeta": "z", "alpha": "\u00e5"}
        )
        payload = {
            "name": "demo",
            "columns": ["a", "b"],
            "rows": [
                [float(format_number(c)) if isinstance(c, float) else c for c in row]
                for row in rows
            ],
            "metadata": {"alpha": "\u00e5", "zeta": "z"},
        }
        buffer = io.StringIO()
        emit(table, "json", buffer)
        assert buffer.getvalue() == json.dumps(payload, indent=2) + "\n"

    def test_json_without_metadata(self):
        table = OutputTable(name="demo", columns=("a",), rows=((1.0,),), metadata={})
        buffer = io.StringIO()
        emit(table, "json", buffer)
        payload = {"name": "demo", "columns": ["a"], "rows": [[1.0]], "metadata": {}}
        assert buffer.getvalue() == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize(
        "columns, rows",
        [
            (("a", "b,c"), (("x,y", 'q"t'), ("line\nbreak", None), (True, 1.5), (7, -0.0))),
            (("only",), (("",), (None,), ("x",))),
        ],
        ids=["quoting", "one-column"],
    )
    def test_csv_matches_csv_writer(self, columns, rows):
        table = OutputTable(name="demo", columns=columns, rows=rows, metadata={"k": "v"})
        expected = io.StringIO()
        expected.write("# k = v\n")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                [
                    ""
                    if c is None
                    else str(c).lower()
                    if isinstance(c, bool)
                    else format_number(c)
                    if isinstance(c, float)
                    else c
                    for c in row
                ]
            )
        buffer = io.StringIO()
        emit(table, "csv", buffer)
        assert buffer.getvalue() == expected.getvalue()

    def test_emission_is_deterministic(self):
        a, b = io.StringIO(), io.StringIO()
        emit(_table(), "csv", a)
        emit(_table(), "csv", b)
        assert a.getvalue() == b.getvalue()


class TestSweepTables:
    def test_position_sweep_schema(self):
        result = run_position_sweep(default_config())
        table = position_sweep_table(result, {"config": "abc"})
        assert table.columns == POSITION_SWEEP_COLUMNS
        assert len(table.rows) == 10
        first = table.rows[0]
        assert first[0] == 1
        assert first[1] == first[2] == 2.5
        assert first[5] == 3.0
        assert first[7] == 0.0

    def test_replication_table_schema(self):
        table = replication_table(replication_report(), {})
        assert table.columns == (
            "check",
            "reference",
            "computed",
            "abs_diff",
            "verdict",
            "expected",
            "note",
        )
        verdicts = {row[4] for row in table.rows}
        assert "REPRODUCED" in verdicts
        assert "NOT-REPRODUCIBLE" in verdicts


class TestEstimateLines:
    def test_keys_present(self):
        record = estimate_position(
            1.4496953791835698e-06, LED, PD, 225.0, actual=Point3(1.42, 1.42, 0.0)
        )
        lines = estimate_lines(record, clipped=False)
        keys = [line.split(" = ")[0] for line in lines]
        assert keys == [
            "measured_power",
            "inverted_distance",
            "incidence_elevation",
            "complementary",
            "supplementary",
            "fused_offset",
            "estimated",
            "clipped_to_room",
            "positioning_error",
        ]
        assert "inverted_distance = 3.5" in lines

    def test_optional_fields_omitted(self):
        record = estimate_position(1.4496953791835698e-06, LED, PD, 225.0)
        lines = estimate_lines(record)
        text = "\n".join(lines)
        assert "clipped_to_room" not in text
        assert "positioning_error" not in text


class TestLoadConfig:
    def test_empty_text_gives_defaults(self):
        assert load_config("") == default_config()

    def test_single_override(self):
        config = load_config("led.transmit_power = 12")
        assert config.led.transmit_power == 12.0
        assert config == replace(default_config(), led=config.led)

    def test_half_power_angle_drives_order(self):
        config = load_config("led.half_power_angle = 60")
        assert math.isclose(config.led.lambertian_order, 1.0, rel_tol=1e-12)

    def test_order_override(self):
        config = load_config("led.lambertian_order = 1.3")
        assert config.led.lambertian_order == 1.3

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nled.transmit_power = 8  # trailing comment\n"
        assert load_config(text).led.transmit_power == 8.0

    def test_single_pd_position(self):
        config = load_config("sweep.positions = [(1.0, 2.0, 0.0)]")
        assert config.pd_positions == (Point3(1.0, 2.0, 0.0),)

    def test_sweep_positions(self):
        config = load_config("sweep.positions = [(1.0, 1.0, 0.0), (2.0, 2.0, 0.0)]")
        assert config.pd_positions == (Point3(1.0, 1.0, 0.0), Point3(2.0, 2.0, 0.0))

    def test_from_file(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("sweep.azimuth = 45.0\n", encoding="utf-8")
        assert load_config(path).azimuth == 45.0
        assert load_config(str(path)).azimuth == 45.0

    def test_rejects_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_bytes(b"room.width = 5\xff\n")
        with pytest.raises(ParseError, match="is not UTF-8 text"):
            load_config(path)

    def test_distance_range(self):
        config = load_config("sweep.distance_range = (2.0, 4.0)")
        assert config.distance_range == (2.0, 4.0)

    def test_rejects_unknown_key(self):
        # One detector is sweep.positions = [(x, y, 0.0)]; pd.position is no key.
        for text in ("foo.bar = 1", "pd.position = (1.0, 2.0, 0.0)"):
            with pytest.raises(ParseError) as info:
                load_config(text)
            assert info.value.line == 1
            assert "unknown key" in str(info.value)

    def test_rejects_malformed_line(self):
        with pytest.raises(ParseError) as info:
            load_config("led.transmit_power = 8\nnot a key value pair\n")
        assert info.value.line == 2

    def test_rejects_duplicate_key(self):
        with pytest.raises(ParseError) as info:
            load_config("pd.area = 1e-6\npd.area = 2e-6")
        assert info.value.line == 2

    def test_rejects_unparseable_value(self):
        with pytest.raises(ParseError):
            load_config("pd.area = not-a-number")

    def test_rejects_pd_position_off_floor(self):
        with pytest.raises(ValidationError):
            load_config("sweep.positions = [(2.5, 2.5, 1.0)]")

    def test_rejects_wrong_point_arity(self):
        with pytest.raises(ValidationError):
            load_config("led.position = (1.0, 2.0)")

    def test_rejects_bad_domain_values(self):
        with pytest.raises(ValidationError):
            load_config("pd.fov = 120")
        with pytest.raises(ValidationError):
            load_config("led.half_power_angle = 90")
        for elevations in ("[0]", "[95]"):
            with pytest.raises(ValidationError, match="got " + elevations.strip("[]")):
                load_config(f"sweep.elevations = {elevations}")
        # The serialized form needs the formula's order even when one is given.
        for order in ("", "\nled.lambertian_order = 2"):
            with pytest.raises(ValidationError, match="angle 1e-09"):
                load_config("led.half_power_angle = 1e-9" + order)

    @pytest.mark.parametrize(
        "text",
        [
            "room.width = 1e999",
            "led.transmit_power = 1e999",
            "sweep.transmit_powers = [8.0, -1e999]",
            "sweep.distance_samples = 2.7",
        ],
    )
    def test_rejects_non_finite_and_fractional_values(self, text):
        with pytest.raises(ValidationError, match=text.split(" = ")[0]):
            load_config(text)

    def test_accepts_integral_float_sample_count(self):
        assert load_config("sweep.distance_samples = 7.0").distance_samples == 7

    def test_rejects_bad_distance_range(self):
        with pytest.raises(ValidationError):
            load_config("sweep.distance_range = (1.0, 2.0, 3.0)")


class TestSerializeConfig:
    def test_default_round_trip(self):
        config = default_config()
        assert load_config(serialize_config(config)) == config

    def test_custom_round_trip(self):
        text = (
            "room.width = 4.0\n"
            "led.position = (2.0, 2.0, 2.5)\n"
            "led.transmit_power = 10.0\n"
            "led.lambertian_order = 1.3\n"
            "pd.fov = 60.0\n"
            "sweep.positions = [(0.5, 0.5, 0.0), (1.5, 1.5, 0.0)]\n"
            "sweep.transmit_powers = [10.0]\n"
            "sweep.elevations = [80.0, 90.0]\n"
            "sweep.azimuth = 45.0\n"
            "sweep.distance_samples = 7\n"
            "sweep.distance_range = (2.5, 3.5)\n"
        )
        config = load_config(text)
        assert load_config(serialize_config(config)) == config

    def test_order_override_is_preserved(self):
        config = load_config("led.lambertian_order = 1.3")
        assert "led.lambertian_order = 1.3" in serialize_config(config)
        assert "lambertian_order" not in serialize_config(default_config())


class TestConfigHash:
    def test_shape_and_stability(self):
        digest = config_hash(default_config())
        assert len(digest) == 12
        assert all(c in "0123456789abcdef" for c in digest)
        assert digest == config_hash(default_config())

    def test_sensitivity(self):
        other = load_config("led.transmit_power = 12")
        assert config_hash(other) != config_hash(default_config())
