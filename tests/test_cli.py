"""End-to-end tests for the command-line interface."""

import csv
import json

import pytest

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

    def test_power_too_small_to_invert(self, capsys):
        assert cli(["estimate", "--power", "5e-324"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DomainError: measured power 5e-324 ")

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

    def test_json_format(self, capsys):
        assert cli(["replicate", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "replication_report"
        assert len(payload["rows"]) == 14


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
                "ValidationError: led.position must be a number, got 'a'",
                id="text-coordinate",
            ),
            pytest.param(
                "sweep.positions = [(1, 2, None)]",
                "ValidationError: sweep.positions must be a number, got None",
                id="none-coordinate",
            ),
            pytest.param(
                "room.width = 1" + "0" * 400,
                "ValidationError: room.width must be finite, got 1000",
                id="huge-int",
            ),
            pytest.param(
                'sweep.distance_samples = "7.0"',
                "ValidationError: sweep.distance_samples must be a number, got '7.0'",
                id="text-count",
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
        "argv", [["estimate", "--power", "1e-9"], ["position-sweep"]], ids=["estimate", "sweep"]
    )
    def test_large_lambertian_order_exits_0(self, tmp_path, capsys, argv):
        # 3.0 ** 651 overflows a float; the inversion then runs in logarithms.
        path = tmp_path / "order.cfg"
        path.write_text("led.lambertian_order = 650\n", encoding="utf-8")
        assert cli(argv + ["--config", str(path)]) == 0
        assert capsys.readouterr().err == ""

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

    def test_version(self, capsys):
        assert cli(["--version"]) == 0
        assert capsys.readouterr().out.startswith("vlcpos ")
