"""Tests for table emission, config parsing, and serialization round-trips."""

import hashlib
import io
import json
import math
import re
from operator import attrgetter
from pathlib import Path

import pytest

from vlcpos import (
    OutputTable,
    ParseError,
    Point3,
    UnsupportedFormat,
    ValidationError,
    config_hash,
    default_config,
    emit,
    estimate_lines,
    estimate_position,
    format_number,
    lambertian_order,
    load_config,
    parse_config,
    replication_table,
)
from vlcpos.scenario import ReplicationCheck, replication_report

from config_text import serialize_config
from emitted import csv_reference, json_reference
from reference import CENTER_POWER, DIAGONAL_SLANTS, POWER_AT_3_5_M, PUBLISHED_COLUMN_MEAN

class TestFormatNumber:
    def test_six_significant_digits(self):
        assert format_number(CENTER_POWER) == "2.68574e-06"
        assert format_number(3.0) == "3"
        assert format_number(0.0784) == "0.0784"
        assert format_number(PUBLISHED_COLUMN_MEAN) == "0.04207"
        assert format_number(DIAGONAL_SLANTS[-1]) == "4.56178"


class TestOutputTable:
    def test_names_the_first_ragged_row(self):
        rows = [(1, 2)] * 5 + [(1, 2, 3), (1,)] + [(1, 2)] * 5
        with pytest.raises(ValidationError, match=r"^row 6 has 3 cells for 2 columns$"):
            OutputTable(name="bad", columns=("a", "b"), rows=tuple(rows), metadata={})

    def test_rejects_a_one_column_table(self):
        # So no table can render a row that is one empty CSV field.
        with pytest.raises(ValidationError, match="^a table needs at least two columns$"):
            OutputTable(name="bad", columns=("a",), rows=(("",),), metadata={})


# The demo table's text, spelled out.
LAYOUT = {
    "csv": "# alpha = first\n# zeta = last\na,b\n1,2.5\n3,2.68574e-06\n",
    "json": {"name": "demo", "columns": ["a", "b"], "rows": [[1, 2.5], [3, 2.68574e-06]],
             "metadata": {"alpha": "first", "zeta": "last"}},
}
SMALL = {"zeta": "z", "alpha": "å"}
# (columns, rows, metadata) of each table that emit renders as the csv and
# json modules do.
TABLES = {
    "layout": (("a", "b"), ((1, 2.5), (3, CENTER_POWER)),
               {"zeta": "last", "alpha": "first"}),
    "no-rows": (("a", "b"), (), SMALL),
    "none": (("a", "b"), ((1, None), (None, 2.5)), SMALL),
    "strings": (("a", "b"), (('say "hi"', "héllo ✓"), ("back\\slash", "tab\tnew\nline")),
                SMALL),
    "ints": (("a", "b"), ((1, 2), (3, 4)), SMALL),
    "inf": (("a", "b"), ((1, math.inf), (2, 1234567.0)), SMALL),
    "no-metadata": (("a", "b"), ((1.0, 2),), {}),
    "quoting": (("a", "b,c"), (("x,y", 'q"t'), ("line\nbreak", None), ("true", 1.5), (7, -0.0)),
                {"k": "v"}),
    "empty-cells": (("", "empty"), (("", None), (None, ""), ("x", "")), {"k": "v"}),
}


def _table():
    return OutputTable("demo", *TABLES["layout"])


class TestEmit:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", TABLES)
    def test_matches_the_csv_and_json_modules(self, case, fmt):
        table = OutputTable("demo", *TABLES[case])
        buffer = io.StringIO()
        count = emit(table, fmt, buffer)
        text = buffer.getvalue()
        assert text == (csv_reference if fmt == "csv" else json_reference)(table)
        assert count == len(text.encode("utf-8"))
        if case == "layout":
            assert (text if fmt == "csv" else json.loads(text)) == LAYOUT[fmt]

    @pytest.mark.parametrize("format, destination", [("csv", Path), ("json", Path), ("csv", str)],
                             ids=["csv", "json", "csv-str"])
    def test_path_gets_the_stream_bytes_and_their_count(self, tmp_path, format, destination):
        table = OutputTable("démo", ("a", "µ"), ((1, "ü"),), {"note": "±1 °C"})
        stream = io.StringIO()
        count = emit(table, format, stream)
        target = tmp_path / f"out.{format}"
        assert emit(table, format, destination(target)) == count == len(target.read_bytes())
        assert target.read_bytes() == stream.getvalue().encode("utf-8")

    @pytest.mark.parametrize("destination", ["stream", "existing.csv", "missing.csv"])
    def test_an_unknown_format_leaves_the_destination_alone(self, tmp_path, destination):
        existing = tmp_path / "existing.csv"
        existing.write_bytes(b"kept\n")
        target = io.StringIO() if destination == "stream" else tmp_path / destination
        with pytest.raises(UnsupportedFormat, match=r"^unsupported output format: 'yaml'$"):
            emit(_table(), "yaml", target)
        assert existing.read_bytes() == b"kept\n"
        assert not (tmp_path / "missing.csv").exists()
        assert destination != "stream" or target.getvalue() == ""


class TestSweepTables:
    def test_replication_table_schema(self):
        checks = replication_report(default_config())
        table = replication_table(checks, {})
        columns = ("check", "reference", "computed", "abs_diff", "verdict", "expected", "note")
        assert table.columns == columns
        assert table.rows == checks
        assert list(zip(table.columns, ReplicationCheck._fields)) == list(zip(columns, (
            "name", "reference", "computed", "difference", "verdict", "expected", "note")))
        verdicts = {row[4] for row in table.rows}
        assert "REPRODUCED" in verdicts
        assert "NOT-REPRODUCIBLE" in verdicts


ESTIMATE_KEYS = ["measured_power", "inverted_distance", "incidence_elevation", "complementary",
                 "supplementary", "fused_offset", "estimated", "clipped_to_room"]


@pytest.mark.parametrize(
    "actual, clipped, keys",
    [((1.42, 1.42, 0.0), False, ESTIMATE_KEYS + ["positioning_error"]),
     (None, True, ESTIMATE_KEYS)],
    ids=["with-actual", "clipped-without-actual"],
)
def test_estimate_lines_name_each_value_and_omit_the_error_without_an_actual(actual, clipped,
                                                                             keys):
    config = default_config()
    record = estimate_position(POWER_AT_3_5_M, config.led, config.pd_template, 225.0,
                               actual=actual and Point3(*actual))
    lines = estimate_lines(record, clipped=clipped)
    assert [line.split(" = ")[0] for line in lines] == keys
    assert "inverted_distance = 3.5" in lines
    assert f"clipped_to_room = {str(clipped).lower()}" in lines


class TestLoadConfig:
    # (a config text, a field, the value it loads as: the rest is the default)
    LOADS = {
        "empty": ("", "azimuth", 225.0),
        "single-override": ("led.transmit_power = 12", "led.transmit_power", 12.0),
        # The default's angle, so the derived order too.
        "half-power-angle": ("led.half_power_angle = 60", "led.half_power_angle", 60.0),
        "order-override": ("led.lambertian_order = 1.3", "led.lambertian_order", 1.3),
        "comments-and-blank-lines": ("# a comment\n\nled.transmit_power = 8  # trailing comment\n",
                                     "led.transmit_power", 8.0),
        "one-position": ("sweep.positions = [(1.0, 2.0, 0.0)]", "pd_positions",
                         ((1.0, 2.0, 0.0),)),
        "two-positions": ("sweep.positions = [(1.0, 1.0, 0.0), (2.0, 2.0, 0.0)]", "pd_positions",
                          ((1.0, 1.0, 0.0), (2.0, 2.0, 0.0))),
        "distance-range": ("sweep.distance_range = (2.0, 4.0)", "distance_range", (2.0, 4.0)),
        "integral-float-sample-count": ("sweep.distance_samples = 7.0", "distance_samples", 7),
        "sample-count-at-the-ceiling": ("sweep.distance_samples = 1e6", "distance_samples", 10**6),
    }

    @pytest.mark.parametrize("case", LOADS)
    def test_loads(self, case):
        text, field, value = self.LOADS[case]
        config, default = parse_config(text), default_config()
        loaded = attrgetter(field)(config)
        assert loaded == value and type(loaded) is type(value)
        record, _, name = field.rpartition(".")
        if record:
            value = getattr(default, record)._replace(**{name: value})
        assert config == default._replace(**{record or name: value})
        assert parse_config(serialize_config(config)) == config

    @pytest.mark.parametrize(
        "name, prefix, destination",
        [("scenario.cfg", b"", Path), ("scenario.cfg", b"", str), ("a=b/run.cfg", b"", str),
         ("marked.cfg", b"\xef\xbb\xbf", Path)],
        ids=["path", "str", "str-with-an-equals-sign", "byte-order-mark-dropped"],
    )
    def test_from_file(self, tmp_path, name, prefix, destination):
        # A path is read as a file even when it contains '='.
        text = "room.width = 4.0\nsweep.azimuth = 45.0\n"
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(prefix + text.encode("utf-8"))
        config = load_config(destination(path))
        assert config == parse_config(text)
        assert (config.room.width, config.azimuth) == (4.0, 45.0)

    # (a config text, the error it raises, its message); the CLI's contract in
    # limits.py holds each whole message that no row here repeats.
    REJECTED = {
        # One detector is sweep.positions = [(x, y, 0.0)]; pd.position is no key.
        **{text: (text, ParseError, f"line 1: unknown key '{text.split(' = ')[0]}'")
           for text in ("foo.bar = 1", "pd.position = (1.0, 2.0, 0.0)")},
        "malformed-line": ("led.transmit_power = 8\nnot a key value pair\n", ParseError,
                           "line 2: expected 'key = value', got 'not a key value pair'"),
        "bad-value-first": ("room.width = 'a'\nfoo = 1", ValidationError,
                            "line 1: room.width must be a number, got 'a'"),
        "unknown-key-first": ("foo = 1\nroom.width = 'a'", ParseError,
                              "line 1: unknown key 'foo'"),
        # ast.literal_eval names the node it cannot read by its repr, whose
        # address the test drops.
        "unparseable-value": ("pd.area = not-a-number", ParseError,
                              "line 1: invalid value 'not-a-number' for pd.area (PD active area "
                              "in square meters): malformed node or string on line 1: "
                              "<ast.UnaryOp object>"),
        "position-off-the-floor": ("sweep.positions = [(2.5, 2.5, 1.0)]", ValidationError,
                                   "line 1: sweep.positions point 1 must lie on the floor plane "
                                   "(z = 0), got z=1.0"),
        "elevation-95": ("sweep.elevations = [95]", ValidationError,
                         "line 1: sweep.elevations must lie in (0, 90], got 95.0"),
        # The angle's rule holds when an order is given too.
        "half-power-angle-1e-9-with-an-order": (
            "led.half_power_angle = 1e-9\nled.lambertian_order = 2", ValidationError,
            "line 1: led.half_power_angle must lie in [6.0371e-07, 90), got 1e-09"),
        "transmit-powers-1e999": ("sweep.transmit_powers = [8.0, -1e999]", ValidationError,
                                  "line 1: sweep.transmit_powers must be finite, got -inf"),
        "sample-count-past-the-ceiling": ("sweep.distance_samples = 1000001", ValidationError,
                                          "line 1: sweep.distance_samples must lie in "
                                          "[2, 1e+06], got 1000001"),
        "distance-range-triple": ("sweep.distance_range = (1.0, 2.0, 3.0)", ValidationError,
                                  "line 1: sweep.distance_range must be (low, high), got "
                                  "(1.0, 2.0, 3.0)"),
    }

    @pytest.mark.parametrize("case", REJECTED)
    def test_rejects(self, case):
        text, error, message = self.REJECTED[case]
        with pytest.raises(error) as raised:
            parse_config(text)
        got = re.sub(r" at 0x[0-9a-f]+", "", str(raised.value))
        assert (type(raised.value), got) == (error, message)


CUSTOM_TEXT = (
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


@pytest.mark.parametrize("text", ["", CUSTOM_TEXT, "led.lambertian_order = 1.3"],
                         ids=["default", "custom", "order-override"])
def test_serialized_config_loads_back_keeping_each_line_it_was_read_from(text):
    # The order is written only when it overrides the half-power angle's.
    config = parse_config(text)
    serialized = serialize_config(config)
    assert parse_config(serialized) == config
    assert set(text.splitlines()) <= set(serialized.splitlines())
    assert ("lambertian_order" in serialized) == ("lambertian_order" in text)


class TestConfigHash:
    def test_default_config_hash_is_pinned(self):
        # The hash digests the values' bits, not text; the text has its own pin below.
        assert config_hash(default_config()) == "1a036cb8c79a"

    def test_default_config_text_is_pinned(self):
        # The round-trip oracle's bytes. Their first 12 hex digits are the hash
        # that config_hash gave while it digested this text.
        text = serialize_config(default_config()).encode("utf-8")
        assert hashlib.sha256(text).hexdigest() == (
            "b43b69b192d57b4f5138b074b5ce1195fe6a031ad469ce40b09132f6e79fffef"
        )

    @pytest.mark.parametrize(
        "first, second, equal",
        [
            # The same values spelled as ints and as floats.
            (
                "room.width = 5\nsweep.positions = [(1, 1, 0)]",
                "room.width = 5.0e0\nsweep.positions = [(1.0, 1.0, 0.0)]",
                True,
            ),
            # An override equal to the derived order reads as no override.
            (f"led.lambertian_order = {lambertian_order(60.0)!r}", "", True),
            ("sweep.positions = [(1.0, 1.0, -0.0)]", "sweep.positions = [(1.0, 1.0, 0.0)]", False),
            ("led.transmit_power = 12", "", False),
            (f"led.transmit_power = {math.nextafter(15.0, math.inf)!r}", "", False),
            (f"led.transmit_power = {math.nextafter(15.0, 0.0)!r}", "", False),
            # The same doubles in the same order, one moved to the next key.
            (
                "sweep.transmit_powers = [8.0, 10.0]\nsweep.elevations = [60.0, 90.0]",
                "sweep.transmit_powers = [8.0]\nsweep.elevations = [10.0, 60.0, 90.0]",
                False,
            ),
            # Both read as the int 10**6, the ceiling.
            ("sweep.distance_samples = 1000000", "sweep.distance_samples = 1e6", True),
            ("sweep.distance_samples = 999999", "sweep.distance_samples = 1e6", False),
            # Neighbours across the step from one byte of the count to two.
            ("sweep.distance_samples = 127", "sweep.distance_samples = 128", False),
        ],
    )
    def test_near_collisions_hash_equal_exactly_when_their_texts_are(self, first, second, equal):
        first, second = parse_config(first), parse_config(second)
        assert (serialize_config(first) == serialize_config(second)) == equal
        assert (config_hash(first) == config_hash(second)) == equal

    # The last count of one, two and three bytes of two's complement.
    @pytest.mark.parametrize("samples", [127, 2**15 - 1, 10**6 - 1])
    def test_a_sample_count_hashes_apart_from_its_neighbour(self, samples):
        config = default_config()._replace(distance_samples=samples)
        neighbour = config._replace(distance_samples=samples + 1)
        assert serialize_config(config) != serialize_config(neighbour)
        assert config_hash(config) != config_hash(neighbour)
