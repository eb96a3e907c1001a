"""End-to-end tests for the command-line interface."""

import csv
import gc
import json
import math
import os
import random
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


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle) if not row[0].startswith("#")]
    return rows[0], rows[1:]


_floor = random.Random(7)
CROSS_CHECK_CONFIGS = {
    "default": "",
    "bright": "led.transmit_power = 1e13\nsweep.transmit_powers = [8, 1e12]\n",
    "brighter": "led.transmit_power = 1e14\n",
    "sweep": "sweep.positions = [%s]" % ", ".join(
        "(%r, %r, 0.0)" % (_floor.uniform(0, 5), _floor.uniform(0, 5)) for _ in range(2000)),
}


@pytest.mark.parametrize("config", CROSS_CHECK_CONFIGS)
@pytest.mark.parametrize("command", ["angle-sweep --samples 3000", "power-sweep", "position-sweep"])
def test_json_rows_are_the_csv_rows_spelled_as_repr(tmp_path, config, command):
    # The default angle sweep renders chunks in place and respelled. e+ texts send
    # chunks to the respelling: alone in brighter, beside whole texts in bright.
    (tmp_path / "run.cfg").write_text(CROSS_CHECK_CONFIGS[config])
    for fmt in ("csv", "json"):
        argv = [*command.split(), "--config", str(tmp_path / "run.cfg"), "--format", fmt]
        assert cli([*argv, "--out", str(tmp_path / fmt)]) == 0
    _, rows = _read_csv(tmp_path / "csv")
    assert len(rows) == 12000 or not command.startswith("angle-sweep")
    # Each JSON float, kept as its text, is repr(float()) of its CSV cell; index
    # is the one int column, an int in both formats.
    table = json.loads((tmp_path / "json").read_text(), parse_float=str)
    ints = [column == "index" for column in table["columns"]]
    assert table["rows"] == [[int(c) if i else repr(float(c)) for c, i in zip(row, ints)]
                             for row in rows]


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


class TestConfigHandling:
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


class TestUsage:
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


class TestCollectorPause:
    """cli() pauses the cyclic garbage collector and leaves it as it found it,
    frozen objects included: only main() freezes, at the process's exit."""

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
        frozen = gc.get_freeze_count()
        try:
            assert cli(argv) == code
            assert gc.isenabled() == enabled
            assert gc.get_freeze_count() == frozen
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


def _source_env():
    """The environment of a fresh interpreter that imports vlcpos from the
    tree under test."""

    source = str(Path(vlcpos.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_a_closed_stdout_pipe_exits_1_with_nothing_on_stderr():
    # The reader takes one line and closes its end. The sweep writes about
    # 300 kB, more than a pipe holds, so the CLI meets the closed pipe
    # mid-write; at exit, its flush of stdout must not raise again.
    argv = ["-X", "dev", "-W", "error", "-m", "vlcpos.cli", "angle-sweep", "--samples", "3000"]
    with subprocess.Popen(
        [sys.executable, *argv], env=_source_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        assert proc.stdout.readline().startswith(b"# config = ")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


def _without_generated(data: bytes) -> bytes:
    return b"".join(
        line for line in data.splitlines(keepends=True) if not line.startswith(b"# generated = ")
    )


def _observed(code: int, stdout: bytes, stderr: bytes, out: Path) -> tuple:
    written = out.read_bytes() if out.exists() else b""
    return code, stderr, _without_generated(stdout), _without_generated(written)


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (["position-sweep", "--out", "{out}"], 0, None),
        (["replicate"], 0, None),
        (["estimate", "--power", "1.0"], 1, "error: PowerTooHigh: "),
        (["position-sweep", "--format", "yaml"], 2,
         "vlcpos position-sweep: error: argument --format: "),
    ],
    ids=["position-sweep-out", "replicate-stdout", "runtime-error", "usage-error"],
)
def test_the_process_entry_does_what_cli_does_in_process(
    tmp_path, capsys, monkeypatch, argv, code, error
):
    # main() freezes the heap left at exit; the process must still return,
    # print and write exactly what cli() does in process, with no warning.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to the terminal
    process_out, in_process_out = tmp_path / "process", tmp_path / "in-process"
    process = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "vlcpos.cli",
         *(arg.format(out=process_out) for arg in argv)],
        env=_source_env(),
        capture_output=True,
        timeout=60,
    )
    returned = cli([arg.format(out=in_process_out) for arg in argv])
    captured = capsys.readouterr()
    observed = _observed(process.returncode, process.stdout, process.stderr, process_out)
    assert observed == _observed(
        returned, captured.out.encode(), captured.err.encode(), in_process_out
    )
    _, stderr, stdout, written = observed
    assert returned == code
    assert bool(stdout or written) == (code == 0)
    if error is None:
        assert stderr == b""
    else:
        errors = [line for line in stderr.decode().splitlines() if "error: " in line]
        assert len(errors) == 1 and errors[0].startswith(error)


class TestStartup:
    @staticmethod
    def _modules_after(code):
        listing = f"{code}; import sys; print(' '.join(sys.modules))"
        result = subprocess.run(
            [sys.executable, "-c", listing],
            env=_source_env(),
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
