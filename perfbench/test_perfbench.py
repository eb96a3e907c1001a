"""Tests of the benchmark itself, on its smoke sizes (a few seconds in all).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import run
from oracle import CheckFailed, Scenario, check_replicate_text, check_stream, check_table

RUN = [sys.executable, str(run.HERE / "run.py")]


def smoke(workload: str, trace: int, seed: int = 0) -> dict:
    proc = subprocess.run([*RUN, "--smoke", "--workload", workload, "--trace", str(trace),
                           "--seed", str(seed)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def names(section: str) -> list[str]:
    return [metric["name"] for metric in run.load_spec()[section]]


def test_layer_map_covers_exactly_the_declared_metrics():
    layer_map = json.loads((run.HERE / "layer_map.json").read_text(encoding="utf-8"))
    assert sorted(layer_map["moves"]) == sorted(names("per_layer"))
    end_to_end = set(names("end_to_end")) | {"failed"}
    workloads = set(run.WORKLOADS)
    for pairs in layer_map["moves"].values():
        for metric, workload in pairs:
            assert metric in end_to_end and workload in workloads
    assert [w["name"] for w in run.load_spec()["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = smoke(workload, trace=0)
    assert result["correct"] is True
    assert sorted(result["metrics"]) == sorted(names("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # The estimator's rejection of noisy readings above the on-axis maximum
    # is a known defect; it must show on rss_stream and nowhere else.
    assert (result["failed"] > 0) == (workload == "rss_stream")


def test_stream_counts_depend_on_the_seed_not_the_run_time():
    def counts(seconds):
        proc = subprocess.run([*RUN, "--smoke", "--workload", "rss_stream", "--seed", "3",
                               "--seconds", str(seconds)], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        return result["attempted"], result["failed"]

    assert counts(0) == counts(0.5) == (run.SMOKE["stream_readings"], counts(0)[1])


def test_traced_counts_repeat_and_follow_the_code_structure():
    counts = {}
    for workload in run.WORKLOADS:
        first, second = smoke(workload, trace=1), smoke(workload, trace=1)
        assert sorted(first["metrics"]) == sorted(names("per_layer"))
        counts[workload] = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
        again = {k: v["value"] for k, v in second["metrics"].items() if k.endswith(".calls")}
        assert counts[workload] == again
    n = run.SMOKE["sweep_points"]
    sweep = counts["sweep_large"]
    assert sweep["channel.received_power.calls"] == sweep["estimator.estimate_position.calls"] == n
    assert sweep["channel.concentrator_gain.calls"] == 3 * n
    stream = counts["rss_stream"]
    for name in ("geometry.link_geometry", "channel.received_power", "channel.received_power_at"):
        assert stream[f"{name}.calls"] == 0
    figure = counts["figure_json"]
    assert figure["estimator.estimate_position.calls"] == figure["estimator.invert_power_to_distance.calls"] == 0


@pytest.fixture
def small_sweep(tmp_path):
    sc = Scenario(positions=((2.5, 2.5), (1.2, 3.7), (0.3, 0.4), (4.9, 0.1), (2.0, 2.6)))
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(sc.config_text(), encoding="utf-8")
    out = tmp_path / "sweep.csv"
    subprocess.run([sys.executable, "-m", "vlcpos.cli", "position-sweep", "--config", str(cfg),
                    "--out", str(out)], check=True, env=run._child_env(), timeout=60)
    return sc, out


def test_checker_accepts_the_program_output(small_sweep):
    sc, out = small_sweep
    assert check_table(out, sc.position_rows(), "position-sweep") == len(sc.positions)


def test_checker_rejects_a_corrupted_error_digit(small_sweep):
    sc, out = small_sweep
    lines = out.read_text(encoding="utf-8").splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    column = lines[header].split(",").index("error_m")
    cells = lines[header + 3].split(",")
    # Change the first nonzero digit after the decimal point.
    digit = next(i for i, ch in enumerate(cells[column]) if ch in "123456789" and "." in cells[column][:i])
    cell = cells[column]
    cells[column] = cell[:digit] + str((int(cell[digit]) + 1) % 10) + cell[digit + 1:]
    lines[header + 3] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CheckFailed, match="error_m"):
        check_table(out, sc.position_rows(), "position-sweep")


def test_checker_reads_cells_by_column_name(small_sweep):
    sc, out = small_sweep
    lines = [line for line in out.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
    extra = [lines[0] + ",status"] + [line + ",ok" for line in lines[1:]]
    out.write_text("\n".join(extra) + "\n", encoding="utf-8")
    assert check_table(out, sc.position_rows(), "position-sweep") == len(sc.positions)


def test_stream_check_allows_rejections_only_above_the_on_axis_maximum():
    sc = Scenario(positions=run.default_walk())
    readings = [sc.max_power() * 1.01, sc.power(1.0, 1.0)]
    estimates = array("d", [float("nan"), float("nan"), *sc.invert(readings[1])[:2]])
    check_stream(sc, readings, estimates, bytes([1, 0]))
    with pytest.raises(CheckFailed, match="rejected below"):
        check_stream(sc, readings, estimates, bytes([1, 1]))
    estimates[2] += 1e-6
    with pytest.raises(CheckFailed, match="reading 1"):
        check_stream(sc, readings, estimates, bytes([1, 0]))


def test_replicate_check_needs_the_published_grading(tmp_path):
    report = tmp_path / "replicate.txt"
    report.write_text("checks: 14 total, 9 reproduced, 1 trend-only, 4 not-reproducible, 0 regressions\n")
    with pytest.raises(CheckFailed):
        check_replicate_text(report)


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run([sys.executable, str(Path(tmp_path, run.HERE.name, "run.py")),
                           "--workload", "cli_mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
