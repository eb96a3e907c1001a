"""Benchmark for vlcpos: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--workload NAME]

Run from anywhere; it measures the checkout this directory sits in, importing
the package from its src/ (PYTHONPATH=src, nothing installed). BENCHMARK.json
at the checkout root declares the workloads and the metric names, units and
bounds; perfbench/layer_map.json says which end-to-end metric each per-layer
metric should move, and on which workload.

A run generates its inputs from --seed, times set-up, measures for --seconds,
checks every output against the independent closed form in oracle.py, and
prints as its last stdout line one JSON object {correct, attempted, failed,
metrics}. The two lines before it carry provenance (Python, nproc, git rev,
seed, sizes, input digest; results with different digests do not compare)
and detail (sample counts, failed_frac, the interpreter and import floor).

--trace 0 reports the end-to-end metrics from untraced runs; --trace 1 reports
the per-layer metrics from a separate traced run (child.py). --smoke shrinks
every workload to 10-100 rows and, without --workload, runs all four in both
modes. All load comes from this one process, one operation at a time, pinned
to one CPU with its children.

End-to-end timings are scaled to a reference host speed by a calibration
measured on the same CPU around every timed operation (calibrate.py): on a
shared host the same code runs up to 2x slower from one minute to the next.
The raw wall-clock figures are in the detail line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from calibrate import REFERENCE_FLOOR_NS, pin_to_one_cpu
from child import LAYERS
from oracle import CheckFailed, Scenario, check_estimate_text, check_replicate_text
from oracle import check_stream, check_table, walk_point

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = HERE / "work"
PYTHON = sys.executable
CHILD_TIMEOUT_S = 150

# sweep_large is 2x10^4 positions rather than the 10^5 of the bulk-path
# target: at 10^5 one invocation takes ~11 s and 460 MB, so a 15 s run would
# hold one sample and 92 runs would not fit the time budget. Every layer
# scales linearly in the position count, so the shares stay the same.
FULL = {"sweep_points": 20_000, "figure_samples": 25_000, "stream_readings": 200_000,
        "setup_probes": 5}
SMOKE = {"sweep_points": 100, "figure_samples": 10, "stream_readings": 100,
         "setup_probes": 1}

clock = time.perf_counter_ns


class RunError(Exception):
    """The benchmark could not run (no src/, a child crashed); no result is printed."""


@dataclass
class Command:
    """One CLI invocation and the check of the file it writes."""

    argv: list[str]
    out: Path
    check: Callable[[], object]


@dataclass
class Workload:
    config: Path
    inputs: list[Path]
    sizes: dict
    commands: list[Command] = field(default_factory=list)
    rows: int = 0  # rows emitted by one pass over the commands
    scenario: Scenario | None = None
    readings: Path | None = None  # rss_stream only

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for path in self.inputs:
            h.update(path.read_bytes())
        for command in self.commands:
            # Work-directory paths differ between runs; the rest of argv is input.
            h.update("\0".join(a.replace(str(self.config.parent), "") for a in command.argv).encode())
        return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Workload inputs (all from --seed; the program sees only these files)
# ---------------------------------------------------------------------------


def default_walk(count: int = 10) -> tuple[tuple[float, float], ...]:
    """The published ten-position walk, with both endpoints pinned as the program pins them."""
    points = [walk_point(i / (count - 1)) for i in range(count)]
    points[-1] = (0.07, 0.07)
    return tuple(points)


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def make_sweep_large(seed: int, sizes: dict, work: Path) -> Workload:
    rng = random.Random(seed)
    n = sizes["sweep_points"]
    sc = Scenario(positions=tuple((rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)) for _ in range(n)))
    cfg = _write(work / "sweep.cfg", sc.config_text())
    out = work / "sweep.csv"
    command = Command(["position-sweep", "--config", str(cfg), "--out", str(out)], out,
                      lambda: check_table(out, sc.position_rows(), "position-sweep"))
    return Workload(cfg, [cfg], {"positions": n}, [command], rows=n)


def make_figure_json(seed: int, sizes: dict, work: Path) -> Workload:
    rng = random.Random(seed)
    samples = sizes["figure_samples"]
    span = (rng.uniform(2.5, 3.0), rng.uniform(4.5, 5.0))
    sc = Scenario(positions=default_walk(), distance_range=span)
    cfg = _write(work / "figure.cfg", sc.config_text())
    out = work / "figure.json"
    command = Command(
        ["angle-sweep", "--config", str(cfg), "--samples", str(samples), "--format", "json",
         "--out", str(out)],
        out, lambda: check_table(out, sc.angle_rows(samples), "angle-sweep json"))
    rows = samples * len(sc.elevations)
    return Workload(cfg, [cfg], {"samples": samples, "rows": rows}, [command], rows=rows)


def make_rss_stream(seed: int, sizes: dict, work: Path) -> Workload:
    rng = random.Random(seed)
    sc = Scenario(positions=default_walk())
    cfg = _write(work / "stream.cfg", sc.config_text())
    readings = array("d")
    for _ in range(sizes["stream_readings"]):
        x, y = walk_point(rng.random())
        # 1% Gaussian multiplicative noise; under the LED it pushes some
        # readings above the on-axis maximum, which the estimator rejects.
        readings.append(sc.power(x, y) * (1.0 + 0.01 * rng.gauss(0.0, 1.0)))
    path = work / "stream.readings"
    with open(path, "wb") as handle:
        readings.tofile(handle)
    return Workload(cfg, [cfg, path], {"readings": len(readings)},
                    scenario=sc, readings=path)


def make_cli_mix(seed: int, sizes: dict, work: Path) -> Workload:
    rng = random.Random(seed)
    sc = Scenario(positions=default_walk())
    cfg = _write(work / "mix.cfg", sc.config_text())
    actual = walk_point(rng.uniform(0.1, 1.0))
    power = sc.power(*actual)
    c = str(cfg)

    def out(name):
        return work / name

    commands = [
        Command(["position-sweep", "--config", c, "--out", str(out("position.csv"))], out("position.csv"),
                lambda: check_table(out("position.csv"), sc.position_rows(), "position-sweep")),
        Command(["power-sweep", "--config", c, "--out", str(out("power.csv"))], out("power.csv"),
                lambda: check_table(out("power.csv"), sc.power_rows(), "power-sweep")),
        Command(["angle-sweep", "--config", c, "--format", "json", "--out", str(out("angle.json"))],
                out("angle.json"),
                lambda: check_table(out("angle.json"), sc.angle_rows(sc.distance_samples), "angle-sweep")),
        Command(["estimate", "--config", c, "--power", repr(power), "--actual", repr(actual[0]),
                 repr(actual[1]), "--out", str(out("estimate.txt"))], out("estimate.txt"),
                lambda: check_estimate_text(out("estimate.txt"), sc, power, actual)),
        Command(["replicate", "--config", c, "--out", str(out("replicate.txt"))], out("replicate.txt"),
                lambda: check_replicate_text(out("replicate.txt"))),
    ]
    n = len(sc.positions)
    rows = n + n * len(sc.transmit_powers) + sc.distance_samples * len(sc.elevations) + 1 + 14
    return Workload(cfg, [cfg], {"commands": len(commands), "rows": rows}, commands, rows=rows)


WORKLOADS = {
    "sweep_large": make_sweep_large,
    "figure_json": make_figure_json,
    "rss_stream": make_rss_stream,
    "cli_mix": make_cli_mix,
}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # one less source of process-to-process variation
    return env


def _timeout(signum, frame):
    raise TimeoutError(f"child exceeded {CHILD_TIMEOUT_S} s")


def spawn(argv: list[str], work: Path, stdout: Path | None = None) -> tuple[int, int, int, int]:
    """Run one child to completion: (exit code, spawn ns, end ns, peak RSS in KiB).

    os.wait4 reaps the child and returns its own rusage, so ru_maxrss is this
    child's peak alone.
    """
    err_path = work / "child.stderr"
    with open(err_path, "wb") as err, open(stdout or os.devnull, "wb") as out:
        t0 = clock()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=_child_env(), cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _timeout)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        t1 = clock()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(f"child exited {proc.returncode}: {' '.join(argv)}\n")
        sys.stderr.write(err_path.read_text(encoding="utf-8", errors="replace")[-2000:])
    return proc.returncode, t0, t1, usage.ru_maxrss


def floor_ns(work: Path) -> int:
    """Time to spawn `python -c pass` and reap it: the calibration for CLI timings."""
    rc, t0, t1, _ = spawn([PYTHON, "-c", "pass"], work)
    if rc != 0:
        raise RunError("python -c pass failed")
    return t1 - t0


def normalized(elapsed_ns: int, floor_before: int, floor_after: int) -> float:
    """elapsed_ns at the reference host speed, from the floors measured around it."""
    return elapsed_ns * REFERENCE_FLOOR_NS / ((floor_before + floor_after) / 2)


def run_probes(wl: Workload, count: int, work: Path) -> dict[str, list[float]]:
    """Spawn count set-up probes; per probe: setup (s, normalized and raw),
    python start and import (ms, raw)."""
    samples = {"setup_s": [], "setup_raw_s": [], "python_start_ms": [], "import_ms": []}
    out = work / "probe.out"
    floor = floor_ns(work)
    for _ in range(count):
        rc, t_spawn, _, _ = spawn([PYTHON, str(HERE / "probe.py"), str(wl.config)], work, out)
        floor, floor_before = floor_ns(work), floor
        if rc != 0:
            raise RunError("set-up probe failed")
        ready, before, imported, loaded, location = out.read_text(encoding="utf-8").split(maxsplit=4)
        location = location.strip()
        if not Path(location).resolve().is_relative_to(ROOT / "src"):
            raise RunError(f"vlcpos imported from {location}, not from {ROOT / 'src'}")
        samples["setup_raw_s"].append((int(loaded) - t_spawn) / 1e9)
        samples["setup_s"].append(normalized(int(loaded) - t_spawn, floor_before, floor) / 1e9)
        samples["python_start_ms"].append((int(ready) - t_spawn) / 1e6)
        samples["import_ms"].append((int(imported) - int(before)) / 1e6)
    return samples


def output_digest(path: Path) -> str:
    """Digest of an output without its metadata lines (the timestamp varies)."""
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for line in handle:
            if not line.startswith(b"#") and b'"generated":' not in line:
                h.update(line)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Untraced measurement (--trace 0)
# ---------------------------------------------------------------------------


def measure_cli(wl: Workload, seconds: float, work: Path) -> dict:
    """Repeat passes over the workload's CLI invocations until seconds have passed.

    The first clean pass is checked in full against the oracle; every later
    pass must write the same bytes outside the metadata lines.
    """
    durations, scaled, peaks = [], [], []
    attempted = failed = 0
    reference = None
    floor = floor_ns(work)
    deadline = clock() + int(seconds * 1e9)
    while True:
        pass_failed = 0
        peak = 0
        t0 = clock()
        for command in wl.commands:
            rc, _, _, rss = spawn([PYTHON, "-m", "vlcpos.cli", *command.argv], work)
            attempted += 1
            pass_failed += rc != 0
            peak = max(peak, rss)
        elapsed = clock() - t0
        floor, floor_before = floor_ns(work), floor
        failed += pass_failed
        if not pass_failed:
            durations.append(elapsed)
            scaled.append(normalized(elapsed, floor_before, floor))
            peaks.append(peak)
            digests = [output_digest(command.out) for command in wl.commands]
            if reference is None:
                for command in wl.commands:
                    command.check()
                reference = digests
            elif digests != reference:
                raise CheckFailed("a repeat pass wrote different output than the checked first pass")
        if clock() >= deadline:
            break
    if reference is None:
        raise CheckFailed("no pass completed, so no output was checked")
    return {
        "attempted": attempted,
        "failed": failed,
        "op_ns": durations,
        "rows_per_s": wl.rows / (statistics.median(scaled) / 1e9),
        "rows_per_s_raw": wl.rows / (statistics.median(durations) / 1e9),
        "peak_rss_kib": statistics.median(peaks),
        "op": "CLI invocation" if len(wl.commands) == 1 else f"pass of {len(wl.commands)} invocations",
    }


def _read_answers(prefix: Path) -> tuple[array, bytes]:
    estimates = array("d")
    estimates.frombytes(Path(f"{prefix}.est").read_bytes())
    return estimates, Path(f"{prefix}.rej").read_bytes()


def _read_readings(wl: Workload) -> array:
    readings = array("d")
    readings.frombytes(wl.readings.read_bytes())
    return readings


def measure_stream(wl: Workload, seconds: float, work: Path) -> dict:
    prefix = work / "stream"
    summary_path = work / "stream.out"
    rc, _, _, rss = spawn([PYTHON, str(HERE / "child.py"), "stream", str(wl.config),
                           str(wl.readings), repr(seconds), str(prefix)], work, summary_path)
    if rc != 0:
        raise RunError("stream child failed")
    summary = json.loads(summary_path.read_text(encoding="utf-8").splitlines()[-1])
    if not summary["consistent"]:
        raise CheckFailed("a repeat pass over the readings gave different answers")
    readings = _read_readings(wl)
    estimates, rejected = _read_answers(prefix)
    check_stream(wl.scenario, readings, estimates, rejected)
    histogram = array("q")
    histogram.frombytes(Path(f"{prefix}.hist").read_bytes())
    # Each reading counts once: repeat passes re-run the same readings and must
    # give the same answers (checked above), so the counts depend on the seed
    # alone, not on how many passes fit in the run's time.
    return {
        "attempted": len(readings),
        "failed": summary["rejected_per_pass"],
        # Latency percentiles are over answered calls; rejections count in failed.
        "op_histogram": histogram,
        "rows_per_s": 1e9 / statistics.median(summary["chunk_ns_per_call"]),
        "rows_per_s_raw": 1e9 / (sum(histogram_values(histogram)) / sum(histogram)),
        "peak_rss_kib": rss,
        "op": "estimate_position call",
    }


def histogram_values(histogram: array):
    """Bin centres (ns) weighted by count, for the mean."""
    return (count * (i * 10 + 5.0) for i, count in enumerate(histogram) if count)


def histogram_quantile(histogram: array, q: float) -> float:
    """The q-quantile, in ns, of latencies binned by child.py (10 ns bins)."""
    rank = q * (sum(histogram) - 1)
    seen = 0
    for i, count in enumerate(histogram):
        seen += count
        if seen > rank:
            return i * 10 + 5.0
    raise ValueError("empty histogram")


def end_to_end(wl: Workload, seconds: float, sizes: dict, work: Path) -> tuple[dict, dict, int, int]:
    probes = run_probes(wl, sizes["setup_probes"], work)
    if wl.readings:
        m = measure_stream(wl, seconds, work)
        samples = sum(m["op_histogram"])
        p50, p99 = (histogram_quantile(m["op_histogram"], q) for q in (0.5, 0.99))
        op_ms = None
    else:
        m = measure_cli(wl, seconds, work)
        samples = len(m["op_ns"])
        p50 = statistics.median(m["op_ns"])
        p99 = statistics.quantiles(m["op_ns"], n=100, method="inclusive")[98] if samples > 1 else p50
        op_ms = [round(t / 1e6, 3) for t in m["op_ns"]]
    # Gated timings are at the reference host speed (calibrate.py); the raw
    # wall-clock figures are in the detail line.
    values = {
        "setup_s": statistics.median(probes["setup_s"]),
        "rows_per_s": m["rows_per_s"],
        "peak_rss_mb": m["peak_rss_kib"] / 1024,
    }
    # Per-operation percentiles are reported but not gated: on a shared host
    # the per-call latency is bimodal (neighbours' load), so its median jumps
    # between modes from run to run, and only rss_stream has the samples for
    # a p99 with ten beyond it.
    detail = {
        "setup_raw_s": statistics.median(probes["setup_raw_s"]), "rows_per_s_raw": m["rows_per_s_raw"],
        "op": m["op"], "op_samples": samples, "op_p50_ms": p50 / 1e6, "op_p99_ms": p99 / 1e6,
        "op_ms": op_ms, "setup_probes": len(probes["setup_raw_s"]),
        "failed_frac": m["failed"] / m["attempted"],
        "python_start_ms": statistics.median(probes["python_start_ms"]),
        "import_ms": statistics.median(probes["import_ms"]),
    }
    return values, detail, m["attempted"], m["failed"]


# ---------------------------------------------------------------------------
# Traced measurement (--trace 1)
# ---------------------------------------------------------------------------

COUNTED = ("geometry.link_geometry", "channel.received_power", "channel.received_power_at",
           "channel.concentrator_gain", "estimator.estimate_position",
           "estimator.invert_power_to_distance")
TIMED = ("scenario.run_position_sweep", "scenario.run_angle_sweep", "scenario.replication_report",
         "reporting.load_config", "reporting.config_hash")
TABLES = ("position_sweep_table", "power_sweep_table", "angle_sweep_table", "replication_table")


def span_values(meta: dict, spans_path: Path) -> dict:
    """Per-layer values from the span file: counts, inclusive and self times.

    Spans nest on one thread, so the time a span's children cover is the sum
    of their durations, and self time is duration minus that.
    """
    n = meta["spans"]
    columns = [array("q") for _ in range(4)]
    with open(spans_path, "rb") as handle:
        for column in columns:
            column.fromfile(handle, n)
    label, parent, start, end = columns
    names = meta["labels"]
    duration = array("q", (e - s for s, e in zip(start, end)))
    covered = array("q", bytes(8 * n))
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += duration[i]
    calls, total, self_ns = Counter(), Counter(), Counter()
    for i in range(n):
        name = names[label[i]]
        calls[name] += 1
        total[name] += duration[i]
        self_ns[name.split(".", 1)[0]] += duration[i] - covered[i]

    values = {}
    for name in COUNTED:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.ns_per_call"] = total[name] / calls[name] if calls[name] else 0.0
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = self_ns[layer] / 1e6
    for name in TIMED:
        values[f"{name}.ms"] = total[name] / 1e6
    values["reporting.table.ms"] = sum(total[f"reporting.{t}"] for t in TABLES) / 1e6
    for fmt in ("csv", "json"):
        name = f"reporting.emit.{fmt}"
        emitted = [(b, r) for i, b, r in meta["emitted"] if names[label[i]] == name]
        rows = sum(r for _, r in emitted)
        values[f"{name}.ms"] = total[name] / 1e6
        values[f"{name}.bytes"] = sum(b for b, _ in emitted)
        values[f"{name}.ns_per_row"] = total[name] / rows if rows else 0.0
    values["estimator.rejects"] = sum(
        1 for i in meta["raised"] if names[label[i]] == "estimator.estimate_position")
    values["trace.spans"] = n
    values["trace.overhead_frac"] = meta["traced_ns"] / statistics.median(meta["untraced_ns"]) - 1.0
    return values


def per_layer(wl: Workload, seconds: float, sizes: dict, work: Path) -> tuple[dict, dict, int, int]:
    probes = run_probes(wl, sizes["setup_probes"], work)
    prefix = work / "trace"
    spec = {"kind": "stream" if wl.readings else "cli", "seconds": seconds, "out": str(prefix),
            "config": str(wl.config), "readings": str(wl.readings),
            "commands": [command.argv for command in wl.commands]}
    spec_path = _write(work / "trace.json", json.dumps(spec))
    meta_path = work / "trace.out"
    rc, _, _, _ = spawn([PYTHON, str(HERE / "child.py"), "trace", str(spec_path)], work, meta_path)
    if rc != 0:
        raise RunError("trace child failed")
    meta = json.loads(meta_path.read_text(encoding="utf-8").splitlines()[-1])
    # The traced pass ran last, so its outputs are the ones on disk.
    if wl.readings:
        check_stream(wl.scenario, _read_readings(wl), *_read_answers(prefix))
    else:
        for command in wl.commands:
            command.check()
    spans_path = Path(f"{prefix}.spans")
    values = span_values(meta, spans_path)
    spans_path.unlink()
    values["cli.python_start_ms"] = statistics.median(probes["python_start_ms"])
    values["cli.import_ms"] = statistics.median(probes["import_ms"])
    detail = {"spans": meta["spans"], "untraced_passes": len(meta["untraced_ns"]),
              "failed_frac": meta["failed"] / meta["attempted"]}
    return values, detail, meta["attempted"], meta["failed"]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def git_rev(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read from .git without git; None outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_one(workload: str, seed: int, seconds: float, trace: int, sizes: dict) -> int:
    if not (ROOT / "src" / "vlcpos" / "cli.py").is_file():
        raise RunError(f"no vlcpos sources under {ROOT / 'src'}")
    spec = load_spec()
    cpu = pin_to_one_cpu()
    work = WORK_ROOT / f"{workload}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[workload](seed, sizes, work)
    provenance = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(), "pinned_cpu": cpu,
        "git_rev": git_rev(ROOT),
        "sizes": wl.sizes, "input_digest": wl.digest,
    }
    print("provenance " + json.dumps(provenance), flush=True)
    measure = per_layer if trace else end_to_end
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    try:
        values, detail, attempted, failed = measure(wl, seconds, sizes, work)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print("detail " + json.dumps(detail))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}),
          flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="10-100 rows per workload; without --workload, all four in both modes")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            seconds = 0.0 if args.seconds is None else args.seconds
            runs = ([(args.workload, args.trace)] if args.workload
                    else [(w, t) for w in WORKLOADS for t in (0, 1)])
            return max(run_one(w, args.seed, seconds, t, SMOKE) for w, t in runs)
        if args.workload is None:
            parser.error("--workload is required outside --smoke")
        seconds = load_spec()["run_seconds"] if args.seconds is None else args.seconds
        return run_one(args.workload, args.seed, seconds, args.trace, FULL)
    except (RunError, OSError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
