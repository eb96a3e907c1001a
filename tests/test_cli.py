"""End-to-end tests for the command-line interface."""

import csv
import gc
import json
import math
import os
import subprocess
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import pytest

import vlcpos.cli
from vlcpos import default_config, format_number, link_geometry, load_config
from vlcpos.cli import cli

POWER_AT_3_5_M = "1.4496953791835698e-06"


def _strip_metadata(data: bytes) -> bytes:
    lines = data.split(b"\n")
    return b"\n".join(line for line in lines if not line.startswith(b"#"))


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle) if not row[0].startswith("#")]
    return rows[0], rows[1:]


class TestPositionSweep:
    def test_stdout_csv(self, capsys):
        assert cli(["position-sweep"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        metadata = [line for line in lines if line.startswith("#")]
        body = [line for line in lines if not line.startswith("#")]
        assert len(metadata) == 3
        assert body[0] == "index,actual_x,actual_y,est_x,est_y,slant_d,received_power,error_m"
        assert len(body) == 11
        assert body[1].startswith("1,2.5,2.5,")

    def test_out_file(self, tmp_path):
        target = tmp_path / "sweep.csv"
        assert cli(["position-sweep", "--out", str(target)]) == 0
        header, rows = _read_csv(target)
        assert header[0] == "index"
        assert len(rows) == 10
        assert rows[0][5] == "3"
        assert rows[0][7] == "0"
        assert rows[-1][0] == "10"

    def test_json_format(self, capsys):
        assert cli(["position-sweep", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "position_sweep"
        assert len(payload["rows"]) == 10
        assert payload["rows"][0][5] == 3.0

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert cli(["position-sweep", "--out", str(first)]) == 0
        assert cli(["position-sweep", "--out", str(second)]) == 0
        assert _strip_metadata(first.read_bytes()) == _strip_metadata(second.read_bytes())

    def test_tall_room_exits_0(self, tmp_path, capsys):
        # V^2 is near the float maximum, so K V^2 / P overflows for the
        # subnormal on-axis reading; the inversion runs in logarithms.
        path = tmp_path / "tall.cfg"
        path.write_text("room.height = 7e153\nled.position = (2.5, 2.5, 7e153)\n",
                        encoding="utf-8")
        assert cli(["position-sweep", "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""


class TestOtherSweeps:
    def test_power_sweep(self, tmp_path):
        target = tmp_path / "power.csv"
        assert cli(["power-sweep", "--out", str(target)]) == 0
        header, rows = _read_csv(target)
        assert header == ["transmit_power", "distance", "received_power"]
        assert len(rows) == 40

    def test_angle_sweep_with_samples(self, tmp_path):
        target = tmp_path / "angle.csv"
        assert cli(["angle-sweep", "--samples", "5", "--out", str(target)]) == 0
        header, rows = _read_csv(target)
        assert header == ["elevation", "distance", "received_power"]
        assert len(rows) == 20

    @pytest.mark.parametrize("samples", ["1", "0", "-3"])
    def test_samples_below_two_exit_2(self, capsys, samples):
        assert cli(["angle-sweep", "--samples", samples]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: ValidationError: distance_samples must be >= 2, got {samples}\n"
        )

    def test_samples_change_config_hash(self, capsys):
        assert cli(["angle-sweep"]) == 0
        default_meta = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("# config")
        ]
        assert cli(["angle-sweep", "--samples", "5"]) == 0
        changed_meta = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("# config")
        ]
        assert default_meta != changed_meta


class TestSweepDispatch:
    """The sweep commands call vlcpos.cli's current bindings, not copies taken
    at import, so a rebound module global (a tracing wrapper) sees every call."""

    @pytest.mark.parametrize(
        "command, runner, builder",
        [
            ("position-sweep", "run_position_sweep", "position_sweep_table"),
            ("power-sweep", "run_power_distance_sweep", "power_sweep_table"),
            ("angle-sweep", "run_angle_sweep", "angle_sweep_table"),
        ],
    )
    def test_runner_and_table_builder_resolve_through_module_globals(
        self, monkeypatch, capsys, command, runner, builder
    ):
        called = []
        for name in (runner, builder):
            original = getattr(vlcpos.cli, name)

            def spy(*args, _name=name, _original=original):
                called.append(_name)
                return _original(*args)

            monkeypatch.setattr(vlcpos.cli, name, spy)
        assert cli([command]) == 0
        assert called == [runner, builder]
        assert capsys.readouterr().out.count("\n") > 3


class TestEstimate:
    def test_known_power(self, capsys):
        assert cli(["estimate", "--power", POWER_AT_3_5_M]) == 0
        out = capsys.readouterr().out
        assert "inverted_distance = 3.5" in out
        assert "clipped_to_room = false" in out
        assert "positioning_error" not in out

    def test_with_actual(self, capsys):
        code = cli(["estimate", "--power", POWER_AT_3_5_M, "--actual", "1.42", "1.42"])
        assert code == 0
        assert "positioning_error = " in capsys.readouterr().out

    def test_clipping_flagged(self, capsys):
        assert cli(["estimate", "--power", "1e-8"]) == 0
        assert "clipped_to_room = true" in capsys.readouterr().out

    def test_power_too_high(self, capsys):
        assert cli(["estimate", "--power", "1.0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: PowerTooHigh:")

    def test_non_positive_power(self, capsys):
        assert cli(["estimate", "--power", "0.0"]) == 1
        assert "error: NonPositivePower:" in capsys.readouterr().err

    def test_power_at_the_float_floor_inverts_far_outside_the_room(self, capsys):
        # K V^(m+1) / P overflows, and the inversion runs in logarithms.
        assert cli(["estimate", "--power", "5e-324"]) == 0
        out = capsys.readouterr().out
        assert "inverted_distance = 8.14594e+79\n" in out
        assert "clipped_to_room = true\n" in out

    @pytest.mark.parametrize("actual", [[], ["--actual", "1", "1"]], ids=["one-shot", "actual"])
    def test_tall_room_at_the_float_floor_exits_0(self, tmp_path, capsys, actual):
        # d^2 overflows for the 3.9e156 m slant; d_hor is d sqrt(1 - c^2), and
        # the positioning error is a math.dist past the range of the squares.
        path = tmp_path / "tall.cfg"
        path.write_text("room.height = 7e153\nled.position = (2.5, 2.5, 7e153)\n",
                        encoding="utf-8")
        assert cli(["estimate", "--power", "5e-324", "--config", str(path), *actual]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = dict(line.split(" = ") for line in captured.out.splitlines())
        assert lines["inverted_distance"] == "3.93486e+156"
        assert lines["clipped_to_room"] == "true"
        numbers = [v for k, v in lines.items() if k not in ("estimated", "clipped_to_room")]
        numbers += lines["estimated"].strip("()").split(", ")
        assert all(math.isfinite(float(number)) for number in numbers)
        assert ("positioning_error" in lines) == bool(actual)

    @pytest.mark.parametrize("power", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_power(self, capsys, power):
        assert cli(["estimate", f"--power={power}"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: ValidationError: --power must be finite, got {float(power)}\n"

    @pytest.mark.parametrize("x", ["1e308", "nan"])
    def test_rejects_actual_off_the_floor(self, capsys, x):
        assert cli(["estimate", "--power", "1.4e-6", "--actual", x, "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValidationError: --actual (")
        assert f"({float(x)}, 0.0)" in err


class TestReplicate:
    def test_text_report(self, capsys):
        assert cli(["replicate"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# reference dataset version 1.0.0")
        assert "# assumption:" in out
        assert (
            "checks: 14 total, 8 reproduced, 2 trend-only, 4 not-reproducible, "
            "0 regressions" in out
        )

    def test_quantifies_absolute_power_gap(self, capsys):
        assert cli(["replicate"]) == 0
        out = capsys.readouterr().out
        line = next(
            l for l in out.splitlines() if l.startswith("published_absolute_power")
        )
        assert "NOT-REPRODUCIBLE" in line
        assert "2.686e-06" in line
        assert "4.5" in line
        assert "1.68e+06" in line

    def test_quantifies_coordinate_gap(self, capsys):
        assert cli(["replicate"]) == 0
        out = capsys.readouterr().out
        line = next(
            l
            for l in out.splitlines()
            if l.startswith("published_estimated_coordinates")
        )
        assert "NOT-REPRODUCIBLE" in line
        assert "2.4864" in line

    def test_csv_format(self, tmp_path):
        target = tmp_path / "replication.csv"
        assert cli(["replicate", "--format", "csv", "--out", str(target)]) == 0
        header, rows = _read_csv(target)
        assert header[0] == "check"
        assert header[4] == "verdict"
        assert len(rows) == 14
        verdicts = {row[4] for row in rows}
        assert verdicts == {"REPRODUCED", "TREND-ONLY", "NOT-REPRODUCIBLE"}

    def test_repeated_transmit_power_exits_0(self, tmp_path, capsys):
        path = tmp_path / "scenario.cfg"
        path.write_text("sweep.transmit_powers = [8, 8]\n", encoding="utf-8")
        assert cli(["replicate", "--config", str(path)]) == 0
        assert "0 regressions" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert cli(["replicate", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "replication_report"
        assert len(payload["rows"]) == 14

    def test_regressions_exit_1_with_one_line_each(self, tmp_path, capsys):
        # The default walk reversed: corner first, center last.
        walk = default_config().pd_positions[::-1]
        points = ", ".join(f"({p.x!r}, {p.y!r}, {p.z!r})" for p in walk)
        path = tmp_path / "reversed.cfg"
        path.write_text(f"sweep.positions = [{points}]\n", encoding="utf-8")
        assert cli(["replicate", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out.endswith(
            "checks: 14 total, 4 reproduced, 1 trend-only, 9 not-reproducible, "
            "5 regressions\n"
        )
        graded = "graded NOT-REPRODUCIBLE, expected"
        assert captured.err.splitlines() == [
            f"error: ReplicationRegression: center_slant_distance {graded} REPRODUCED",
            f"error: ReplicationRegression: corner_slant_distance {graded} REPRODUCED",
            f"error: ReplicationRegression: center_elevation_angle {graded} REPRODUCED",
            f"error: ReplicationRegression: pipeline_error_monotonic {graded} REPRODUCED",
            f"error: ReplicationRegression: pipeline_error_spread {graded} TREND-ONLY",
        ]
        target = tmp_path / "reversed.csv"
        assert cli(["replicate", "--config", str(path), "--format", "csv",
                    "--out", str(target)]) == 1
        assert len(_read_csv(target)[1]) == 14


class TestConfigHandling:
    def test_config_file_applied(self, tmp_path, capsys):
        path = tmp_path / "scenario.cfg"
        path.write_text("sweep.transmit_powers = [8.0]\n", encoding="utf-8")
        assert cli(["power-sweep", "--config", str(path)]) == 0
        body = [
            line
            for line in capsys.readouterr().out.splitlines()
            if not line.startswith("#")
        ]
        assert len(body) == 11

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("foo.bar = 1\n", encoding="utf-8")
        assert cli(["position-sweep", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError:")
        assert "line 1" in err

    def test_invalid_value_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("pd.fov = 120\n", encoding="utf-8")
        assert cli(["position-sweep", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ValidationError:")

    @pytest.mark.parametrize(
        "text",
        ["room.width = 1e999", "led.transmit_power = 1e999", "sweep.distance_samples = 2.7"],
    )
    def test_non_finite_or_fractional_value_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text + "\n", encoding="utf-8")
        assert cli(["position-sweep", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ValidationError:")

    @pytest.mark.parametrize(
        "text, error",
        [
            pytest.param(
                "room.width = {[]: 1}", "ParseError: line 1: invalid value '{[]: 1}'",
                id="unhashable",
            ),
            pytest.param(
                'led.position = ("a", 1, 2)',
                "ValidationError: line 1: led.position must be a number, got 'a'",
                id="text-coordinate",
            ),
            pytest.param(
                "sweep.positions = [(1, 2, None)]",
                "ValidationError: line 1: sweep.positions must be a number, got None",
                id="none-coordinate",
            ),
            pytest.param(
                "room.width = 1" + "0" * 400,
                "ValidationError: line 1: room.width must be finite, got 1000",
                id="huge-int",
            ),
            pytest.param(
                'sweep.distance_samples = "7.0"',
                "ValidationError: line 1: sweep.distance_samples must be a number, got '7.0'",
                id="text-count",
            ),
            pytest.param(
                "# a comment\nroom.length = 5.0\nroom.width = 'a'",
                "ValidationError: line 3: room.width must be a number, got 'a'\n",
                id="text-number-on-line-3",
            ),
            # The first bad line is reported, whichever kind of error it is.
            pytest.param(
                "room.width = 'a'\nfoo = 1",
                "ValidationError: line 1: room.width must be a number",
                id="bad-value-before-unknown-key",
            ),
            pytest.param(
                "foo = 1\nroom.width = 'a'",
                "ParseError: line 1: unknown key",
                id="unknown-key-before-bad-value",
            ),
            pytest.param(
                "led.position = (2.5, 2.5, 1e200)",
                "ValidationError: led position (2.5, 2.5, 1e+200) is outside the room",
                id="led-above-ceiling",
            ),
            pytest.param(
                "led.position = (90.0, 2.5, 3.0)",
                "ValidationError: led position (90.0, 2.5, 3.0) is outside the room",
                id="led-off-floor",
            ),
            pytest.param(
                "room.height = 1e-200\nled.position = (2.5, 2.5, 1e-200)",
                "ValidationError: led height 1e-200 is below 1.49e-154 m",
                id="led-height-underflows",
            ),
            pytest.param(
                "room.width = -1",
                "ValidationError: RoomSpec.width must be > 0, got -1.0",
                id="negative-width",
            ),
        ],
    )
    def test_malformed_value_exits_2_naming_it(self, tmp_path, capsys, text, error):
        path = tmp_path / "bad.cfg"
        path.write_text(text + "\n", encoding="utf-8")
        assert cli(["position-sweep", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {error}")

    @pytest.mark.parametrize(
        "command, text, error",
        [
            pytest.param(
                "position-sweep",
                "room.height = 1e300\nled.position = (2.5, 2.5, 1e200)\n"
                "sweep.positions = [(0.0, 0.0, 0.0)]",
                "room height 1e+300 is above 7.74e+153 m",
                id="height",
            ),
            pytest.param(
                "power-sweep",
                "room.width = 1e200\nsweep.positions = [(1e200, 0.0, 0.0)]",
                "room width 1e+200 is above 7.74e+153 m",
                id="width",
            ),
            pytest.param(
                "angle-sweep",
                "sweep.distance_range = (1.0, 1e200)",
                "distance_range high end 1e+200 is above 7.74e+153 m",
                id="distance-range",
            ),
        ],
    )
    def test_sizes_whose_squares_overflow_exit_2(self, tmp_path, capsys, command, text, error):
        path = tmp_path / "huge.cfg"
        path.write_text(text + "\n", encoding="utf-8")
        assert cli([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: ValidationError: {error}, where")

    @pytest.mark.parametrize(
        "argv", [["estimate", "--power", "1e-9"], ["position-sweep"]], ids=["estimate", "sweep"]
    )
    def test_large_lambertian_order_exits_0(self, tmp_path, capsys, argv):
        # 3.0 ** 651 overflows a float; the inversion then runs in logarithms.
        path = tmp_path / "order.cfg"
        path.write_text("led.lambertian_order = 650\n", encoding="utf-8")
        assert cli(argv + ["--config", str(path)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "argv, text, k",
        [
            pytest.param(["angle-sweep"], "led.transmit_power = 1e300\npd.area = 1e100", "inf",
                         id="angle-sweep-inf"),
            pytest.param(["position-sweep"], "led.transmit_power = 1e300\npd.area = 1e100",
                         "inf", id="position-sweep-inf"),
            pytest.param(["replicate"], "led.transmit_power = 1e300\npd.area = 1e100", "inf",
                         id="replicate-inf"),
            pytest.param(["estimate", "--power", "1e-9"],
                         "pd.area = 1e-300\npd.filter_gain = 1e-300", "0.0", id="estimate-zero"),
        ],
    )
    def test_gain_constant_outside_the_float_range_exits_1_naming_k(
        self, tmp_path, capsys, argv, text, k
    ):
        # Each field is in range, so the config loads; K, their product, is not.
        path, out = tmp_path / "k.cfg", tmp_path / "out.txt"
        path.write_text(text + "\n", encoding="utf-8")
        assert cli(argv + ["--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, out.exists()) == ("", False)
        (line,) = captured.err.splitlines()
        assert line.startswith("error: DomainError: ")
        assert f"K = P_t (m+1) A h g(0) / (2 pi) is {k} for P_t " in line

    def test_gain_constant_past_an_overflowing_partial_product_exits_0(self, tmp_path, capsys):
        # P_t (m+1) overflows; K itself is about 3.6e209, and 3.9e208 W is below K / V^2.
        path = tmp_path / "k.cfg"
        path.write_text(
            "led.transmit_power = 1e300\nled.lambertian_order = 1e10\npd.area = 1e-100\n",
            encoding="utf-8",
        )
        assert cli(["estimate", "--power", "3.9e208", "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""

    def test_gain_constant_past_a_subnormal_partial_product_keeps_six_digits(self, tmp_path):
        # P_t (m+1) A is a subnormal about 2e-320; h = 1e300 brings K back to
        # about 7.2e-21. Each power is K c^(m+1) / d^2 with K taken exactly.
        text = "led.transmit_power = 1e-300\npd.area = 1e-20\npd.filter_gain = 1e300\n"
        path, out = tmp_path / "k.cfg", tmp_path / "rows.csv"
        path.write_text(text, encoding="utf-8")
        assert cli(["position-sweep", "--config", str(path), "--out", str(out)]) == 0
        config = load_config(path)
        led, pd = config.led, config.pd_template
        factors = (led.transmit_power, led.lambertian_order + 1.0, pd.area, pd.filter_gain, 2.25)
        k = math.prod(map(Fraction, factors)) / Fraction(math.tau)
        expected = []
        for position in config.pd_positions:
            slant, c = link_geometry(led.position, position)
            power = k * Fraction(c ** (led.lambertian_order + 1.0)) / Fraction(slant) ** 2
            expected.append(format_number(float(power)))
        header, rows = _read_csv(out)
        column = header.index("received_power")
        assert [row[column] for row in rows] == expected

    def test_config_path_with_equals_sign(self, tmp_path, capsys):
        # A path is read as a file even when it contains '='.
        path = tmp_path / "a=b" / "run.cfg"
        path.parent.mkdir()
        path.write_text("sweep.positions = [(1.0, 1.0, 0.0)]\n", encoding="utf-8")
        assert cli(["position-sweep", "--config", str(path)]) == 0
        body = [
            line
            for line in capsys.readouterr().out.splitlines()
            if not line.startswith("#")
        ]
        assert len(body) == 2

    def test_missing_config_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert cli(["position-sweep", "--config", str(missing)]) == 2
        assert "error: FileNotFoundError:" in capsys.readouterr().err

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "out.csv"
        assert cli(["position-sweep", "--out", str(target)]) == 1
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, text, error",
        [
            pytest.param(["position-sweep"], "pd.fov = 30",
                         "error: NonPositivePower: position 6: ", id="fov-30"),
            pytest.param(["angle-sweep", "--format", "json"],
                         "led.transmit_power = 1e300\npd.area = 1e100",
                         "error: DomainError: K = ", id="k-inf"),
        ],
    )
    def test_failing_run_leaves_an_existing_out_file_as_it_was(
        self, tmp_path, capsys, argv, text, error
    ):
        # emit streams to --out, so every command builds all its rows, and
        # meets every error, before the file is opened.
        path, out = tmp_path / "run.cfg", tmp_path / "out.txt"
        path.write_text(text + "\n", encoding="utf-8")
        out.write_bytes(b"kept\r\nas it was\n")
        assert cli(argv + ["--config", str(path), "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(error)
        assert out.read_bytes() == b"kept\r\nas it was\n"


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert cli([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert cli(["frobnicate"]) == 2
        capsys.readouterr()

    def test_bad_format_choice(self, capsys):
        assert cli(["position-sweep", "--format", "yaml"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--power", POWER_AT_3_5_M, "--format", "json"],
            ["estimate", "--power", POWER_AT_3_5_M, "--samples", "5"],
            ["position-sweep", "--samples", "5"],
            ["power-sweep", "--samples", "5"],
        ],
        ids=["estimate-format", "estimate-samples", "position-samples", "power-samples"],
    )
    def test_option_the_subcommand_does_not_read(self, capsys, argv):
        assert cli(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["position-sweep", "power-sweep", "angle-sweep", "estimate", "replicate"]
    )
    def test_help_lists_exactly_the_options_the_subcommand_reads(self, capsys, command):
        assert cli([command, "--help"]) == 0
        text = capsys.readouterr().out
        expected = {
            "--config": True,
            "--out": True,
            "--format": command != "estimate",
            "--samples": command in ("angle-sweep", "replicate"),
            "--power": command == "estimate",
            "--actual": command == "estimate",
        }
        assert {option: option in text for option in expected} == expected

    def test_version(self, capsys):
        assert cli(["--version"]) == 0
        assert capsys.readouterr().out.startswith("vlcpos ")


class TestCollectorPause:
    """cli() pauses the cyclic garbage collector and leaves it as it found it."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["estimate", "--power", POWER_AT_3_5_M], 0),
            (["estimate", "--power", "1.0"], 1),
            (["estimate", "--power", "nan"], 2),
            (["position-sweep", "--format", "yaml"], 2),
            (["estimate", "--help"], 0),
        ],
        ids=["ok", "runtime-error", "validation-error", "usage-error", "help"],
    )
    def test_the_collector_is_left_as_it_was_found(self, capsys, enabled, argv, code):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert cli(argv) == code
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()
        capsys.readouterr()

    def test_the_garbage_a_run_leaves_does_not_grow_with_its_rows(self, tmp_path):
        # Rows are acyclic, so what a paused run leaves for the collector is
        # the same set of objects at 2 positions as at 3000.
        found = []
        for count in (2, 3000, 2, 3000):
            points = ", ".join(f"({1.0 + i / count!r}, 1.0, 0.0)" for i in range(count))
            config = tmp_path / "sweep.cfg"
            config.write_text(f"sweep.positions = [{points}]\n", encoding="utf-8")
            gc.collect()
            argv = ["position-sweep", "--config", str(config), "--out", str(tmp_path / "rows")]
            assert cli(argv) == 0
            found.append(gc.collect())
        assert found[2:] == [found[2]] * 2


class TestStartup:
    @staticmethod
    def _modules_after(code):
        # A fresh interpreter that imports vlcpos from the tree under test.
        source = str(Path(vlcpos.cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
        listing = f"{code}; import sys; print(' '.join(sys.modules))"
        result = subprocess.run(
            [sys.executable, "-c", listing],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        return set(result.stdout.split())

    def test_import_loads_no_module_it_does_not_need(self):
        # dataclasses (with inspect, which it pulls in) and datetime cost about
        # 15 ms of start-up, hashlib 3 ms; only config_hash imports hashlib and
        # struct, which packs the values it digests.
        unwanted = {"dataclasses", "inspect", "hashlib", "struct", "datetime"}
        bare = self._modules_after("pass")
        loaded = self._modules_after("import vlcpos.cli")
        assert "vlcpos.cli" in loaded
        assert (loaded & unwanted) <= bare

    def test_generated_stamp_is_the_utc_iso_time(self):
        before = datetime.now(timezone.utc).isoformat(timespec="seconds")
        stamp = vlcpos.cli._metadata(default_config())["generated"]
        after = datetime.now(timezone.utc).isoformat(timespec="seconds")
        assert stamp in {before, after}
