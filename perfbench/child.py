"""Work that runs inside a fresh interpreter with vlcpos importable.

    python child.py stream CONFIG READINGS SECONDS OUT_PREFIX
    python child.py trace SPEC_JSON

`stream` is the rss_stream closed loop: one caller, one estimate_position
call at a time, repeated over the readings until SECONDS have passed (at
least one pass). Every CHUNK calls it runs the calibration kernel and records
the chunk's normalized time per call (calibrate.py). A histogram of answered
calls' latencies (10 ns bins, fixed size so memory does not grow with the
pass count), the first pass's estimates and its rejection flags go to binary
files next to OUT_PREFIX; a summary goes to stdout as JSON.

`trace` runs one workload pass untraced (once to warm up, then repeated for
half the spec's seconds, for the overhead baseline) and then once with every public function
of every vlcpos layer wrapped in a span recorder. Spans are kept in memory as
(label, parent, start, end) arrays and written to OUT_PREFIX.spans at the
end; nothing in vlcpos changes.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from array import array
from importlib import import_module

from calibrate import REFERENCE_KERNEL_NS, kernel_ns

LAYERS = ("geometry", "channel", "estimator", "scenario", "reporting", "cli")

clock = time.perf_counter_ns
LATENCY_BIN_NS = 10
LATENCY_BINS = 100_000  # up to 1 ms; slower calls land in the last bin
CHUNK = 500  # readings between calibration kernels, a few ms of work


def stream_pass(estimate, readings, led, pd, azimuth, histogram, chunk_ns=None):
    """One pass of the closed loop; returns (estimates, rejected flags).

    With chunk_ns, the pass runs in chunks of CHUNK readings with a
    calibration kernel between chunks, and appends each chunk's normalized
    time per call (see calibrate.py) to chunk_ns.
    """
    estimates = array("d")
    rejected = bytearray(len(readings))
    step = len(readings) if chunk_ns is None else CHUNK
    before = None if chunk_ns is None else kernel_ns(1)
    for lo in range(0, len(readings), step):
        hi = min(lo + step, len(readings))
        t0 = clock()
        _stream_chunk(estimate, readings, lo, hi, led, pd, azimuth, histogram, estimates, rejected)
        elapsed = clock() - t0
        if chunk_ns is not None:
            after = kernel_ns(1)
            chunk_ns.append(elapsed * REFERENCE_KERNEL_NS / ((before + after) / 2) / (hi - lo))
            before = after
    return estimates, rejected


def _stream_chunk(estimate, readings, lo, hi, led, pd, azimuth, histogram, estimates, rejected):
    from vlcpos.errors import DomainError

    nan = math.nan
    last = LATENCY_BINS - 1
    for i in range(lo, hi):
        power = readings[i]
        t0 = clock()
        try:
            record = estimate(power, led, pd, azimuth)
        except DomainError:
            rejected[i] = 1
            estimates.append(nan)
            estimates.append(nan)
            continue
        elapsed = clock() - t0
        histogram[min(elapsed // LATENCY_BIN_NS, last)] += 1
        estimates.append(record.estimated.x)
        estimates.append(record.estimated.y)


def load_stream_inputs(config_path, readings_path):
    from vlcpos.reporting import load_config

    config = load_config(config_path)
    readings = array("d")
    with open(readings_path, "rb") as handle:
        readings.frombytes(handle.read())
    return config, readings


def write_answers(prefix, estimates, rejected):
    with open(prefix + ".est", "wb") as handle:
        estimates.tofile(handle)
    with open(prefix + ".rej", "wb") as handle:
        handle.write(rejected)


def run_stream(config_path, readings_path, seconds, prefix):
    import vlcpos.estimator

    config, readings = load_stream_inputs(config_path, readings_path)
    estimate = vlcpos.estimator.estimate_position
    histogram = array("q", bytes(8 * LATENCY_BINS))
    chunk_ns = []
    passes = 0
    first = None
    consistent = True
    deadline = clock() + int(seconds * 1e9)
    while True:
        result = stream_pass(
            estimate, readings, config.led, config.pd_template, config.azimuth, histogram,
            chunk_ns,
        )
        passes += 1
        if first is None:
            first = result
        elif result[0].tobytes() != first[0].tobytes() or result[1] != first[1]:
            # Compared as bytes: NaN marks a rejection and NaN != NaN.
            consistent = False
        if clock() >= deadline:
            break
    with open(prefix + ".hist", "wb") as handle:
        histogram.tofile(handle)
    write_answers(prefix, *first)
    print(json.dumps({"passes": passes, "consistent": consistent,
                      "rejected_per_pass": sum(first[1]), "chunk_ns_per_call": chunk_ns}))


class Tracer:
    """Span recorder installed over vlcpos's public functions."""

    def __init__(self):
        self.labels: list[str] = []
        self.label = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.raised: list[int] = []
        self.emitted: list[tuple[int, int, int]] = []  # (span, bytes, rows)
        self._stack = [-1]
        self._patched = []

    def _label_id(self, name):
        self.labels.append(name)
        return len(self.labels) - 1

    def _wrap(self, fn, name):
        label_id = self._label_id(name)
        labels, parents, starts, ends = self.label, self.parent, self.start, self.end
        stack, raised = self._stack, self.raised

        def traced(*args, **kwargs):
            index = len(labels)
            labels.append(label_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised.append(index)
                raise
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def _wrap_emit(self, fn):
        # emit is split by output format and also records bytes and rows.
        by_format = {fmt: self._wrap(fn, f"reporting.emit.{fmt}") for fmt in ("csv", "json")}
        other = self._wrap(fn, "reporting.emit.other")
        emitted, labels = self.emitted, self.label

        def traced(table, format, destination):
            index = len(labels)
            written = by_format.get(format, other)(table, format, destination)
            emitted.append((index, written, len(table.rows)))
            return written

        return traced

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = import_module(f"vlcpos.{layer}")
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = (
                        self._wrap_emit(fn) if name == "emit" and layer == "reporting"
                        else self._wrap(fn, f"{layer}.{name}")
                    )
        # Rebind every vlcpos module's own name for the function, so calls
        # made through `from .x import f` bindings are traced too.
        for module_name, module in list(sys.modules.items()):
            if module_name != "vlcpos" and not module_name.startswith("vlcpos."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self):
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path):
        with open(path, "wb") as handle:
            for column in (self.label, self.parent, self.start, self.end):
                column.tofile(handle)


def run_trace(spec_path):
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    import vlcpos.cli
    import vlcpos.estimator

    if spec["kind"] == "stream":
        config, readings = load_stream_inputs(spec["config"], spec["readings"])
        histogram = array("q", bytes(8 * LATENCY_BINS))

        def one_pass():
            # Looked up per pass so the traced pass calls the wrapper.
            estimates, rejected = stream_pass(
                vlcpos.estimator.estimate_position, readings, config.led,
                config.pd_template, config.azimuth, histogram,
            )
            return len(readings), sum(rejected), (estimates, rejected)
    else:
        def one_pass():
            failed = sum(vlcpos.cli.cli(argv) != 0 for argv in spec["commands"])
            return len(spec["commands"]), failed, None

    one_pass()  # warm-up: first-call costs stay out of the overhead baseline
    untraced = []
    deadline = clock() + int(spec["seconds"] / 2 * 1e9)
    while True:
        t0 = clock()
        one_pass()
        untraced.append(clock() - t0)
        if clock() >= deadline:
            break

    tracer = Tracer()
    tracer.install()
    t0 = clock()
    attempted, failed, answers = one_pass()
    traced = clock() - t0
    tracer.uninstall()
    tracer.write(spec["out"] + ".spans")
    if answers is not None:
        write_answers(spec["out"], *answers)
    print(json.dumps({
        "labels": tracer.labels, "spans": len(tracer.label), "raised": tracer.raised,
        "emitted": tracer.emitted, "untraced_ns": untraced, "traced_ns": traced,
        "attempted": attempted, "failed": failed,
    }))


if __name__ == "__main__":
    if sys.argv[1] == "stream":
        run_stream(sys.argv[2], sys.argv[3], float(sys.argv[4]), sys.argv[5])
    elif sys.argv[1] == "trace":
        run_trace(sys.argv[2])
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
