"""What the CLI contract reaches: the simple statements in src/'s function
bodies that no row of limits.py runs, held to a declared list.

A fresh interpreter (this file with --trace, PYTHONPATH=src) installs a
sys.settrace line recorder before vlcpos is imported, then runs every row of
limits.py through limits.check and cli() in process. Only simple statements
count: not the headers of if, for, while, try, with or def. A statement is
reached when any of its lines fires, so which line of a multi-line statement
an interpreter reports cannot change the result. Every statement that no row
reaches must be declared in UNREACHED, keyed by module, qualified function
name and a prefix of its text (whitespace collapsed) that names one statement
of that function, never by line number. Each entry has a class:

- library: a guard that only a library caller reaches; by names a tier-1
  test that calls it;
- subprocess: code that only a process entry runs; by is the CI packaging-step
  command that runs it;
- bench: kept because perfbench/run.py's COUNTED names it (ROADMAP item 1a).

test_reach.py fails on an unreached statement that is not declared, and on a
declared one that a row reaches, that no longer exists or whose text names
more than one statement. As a script, with
no options, it prints each unreached statement with its class, and the
totals; it uses only the standard library:

    python tests/reach.py
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "vlcpos"
LIBRARY, SUBPROCESS, BENCH = "library", "subprocess", "bench"


class Unreached(NamedTuple):
    """A declared unreached statement: module (a file of src/vlcpos), the
    qualified name of its function, a prefix of its text, its class and by."""

    module: str
    function: str
    text: str
    kind: str
    by: str


# The packaging-step commands of .github/workflows/ci.yml that run main():
# every row against the installed script, and a reader that closes the pipe.
ENTRY = "python tests/limits.py"
CLOSED_PIPE = "vlcpos angle-sweep --samples 3000"
COUNTED = "perfbench/run.py COUNTED"
# The test files that a library entry's test is in.
CHANNEL, ESTIMATOR = "tests/test_channel.py::", "tests/test_estimator.py::"
GEOMETRY, REPORTING = "tests/test_geometry.py::", "tests/test_reporting.py::"

UNREACHED = (
    # A link's cosine and distance come from link_geometry, which keeps both in
    # range, or from the angle sweep, whose span and elevations the config bounds.
    Unreached("channel", "concentrator_gain", 'raise DomainError(f"link cosine', LIBRARY,
              CHANNEL + "TestConcentratorGain::test_rejects_bad_inputs"),
    Unreached("channel", "power_columns", 'raise DomainError(f"distance must', LIBRARY,
              CHANNEL + "TestPowerColumns::"
              "test_a_column_of_one_cosine_names_its_first_bad_distance"),
    Unreached("channel", "power_columns", 'raise DomainError(f"link cosine', LIBRARY,
              CHANNEL + "TestPowerColumns::test_rejects_a_cosine_above_one_or_nan"),
    Unreached("channel", "power_columns", 'raise DomainError(f"distance {distance}', LIBRARY,
              CHANNEL + "TestPowerColumns::"
              "test_rejects_a_distance_whose_square_underflows_to_zero"),
    # ast.literal_eval rejects an int too long to print before a rule sees it.
    Unreached("geometry", "_check", 'shown = f"an int of', LIBRARY,
              "tests/test_records.py::TestEveryConstructionValidates::test_constructor"),
    # The config keeps the LED inside the room and every PD on its floor.
    Unreached("geometry", "link_geometry", "raise LedNotAbovePd(", LIBRARY,
              GEOMETRY + "TestLinkGeometry::test_led_must_be_above_pd"),
    Unreached("geometry", "link_geometry", "raise DomainError(", LIBRARY,
              GEOMETRY + "TestLinkGeometry::"
              "test_separation_past_the_float_range_names_both_heights"),
    # estimate takes the LED height as V, and the room bounds it.
    Unreached("estimator", "invert_power_to_distance", 'raise DomainError(f"vertical', LIBRARY,
              ESTIMATOR + "TestInvertPowerToDistance::"
              "test_rejects_non_positive_vertical_separation"),
    Unreached("estimator", "invert_power_to_distance", "distance = math.inf", LIBRARY,
              ESTIMATOR + "TestInvertPowerToDistance::"
              "test_distance_past_the_float_range_in_logarithms_fails"),
    Unreached("estimator", "invert_power_to_distance", 'raise DomainError(f"measured', LIBRARY,
              ESTIMATOR + "TestInvertPowerToDistance::"
              "test_distance_past_the_float_range_in_logarithms_fails"),
    # The config bounds the azimuth, and the room keeps the estimate finite.
    Unreached("estimator", "estimate_position", 'raise DomainError(f"azimuth', LIBRARY,
              ESTIMATOR + "TestAnchorEstimate::test_rejects_azimuth_out_of_range"),
    Unreached("estimator", "estimate_position", 'raise DomainError(f"fused offset', LIBRARY,
              ESTIMATOR + "TestAnchorEstimate::"
              "test_rejects_a_non_finite_estimate_naming_the_offset"),
    # src/ builds every table with 3 to 8 columns and rows of their width, and
    # argparse admits only csv and json.
    Unreached("reporting", "OutputTable.__new__", 'raise ValidationError("a table', LIBRARY,
              REPORTING + "TestOutputTable::test_rejects_a_one_column_table"),
    Unreached("reporting", "OutputTable.__new__", "i, row = next(", LIBRARY,
              REPORTING + "TestOutputTable::test_names_the_first_ragged_row"),
    Unreached("reporting", "OutputTable.__new__", 'raise ValidationError(f"row', LIBRARY,
              REPORTING + "TestOutputTable::test_names_the_first_ragged_row"),
    Unreached("reporting", "emit", "raise UnsupportedFormat(", LIBRARY,
              REPORTING + "TestEmit::test_rejects_unknown_format"),
    # main() is the process entry; the rows call cli().
    Unreached("cli", "main", "code = cli()", SUBPROCESS, ENTRY),
    Unreached("cli", "main", "gc.freeze()", SUBPROCESS, ENTRY),
    Unreached("cli", "main", "sys.exit(code)", SUBPROCESS, ENTRY),
    Unreached("cli", "_run", "os.dup2(", SUBPROCESS, CLOSED_PIPE),
    # No caller in src/ since the figure sweeps became columns.
    Unreached("channel", "received_power_at", "bound =", BENCH, COUNTED),
    Unreached("channel", "received_power_at", "raise DomainError(", BENCH, COUNTED),
    Unreached("channel", "received_power_at", "return power_columns(", BENCH, COUNTED),
)


class Statement(NamedTuple):
    """A simple statement of a function body, with the lines it spans."""

    module: str
    function: str
    text: str
    lines: range


def _text(source: str, node: ast.stmt) -> str:
    """The statement's source, its whitespace collapsed to single spaces and
    dropped after an opening bracket and before a closing one."""
    text = " ".join(ast.get_source_segment(source, node).split())
    return re.sub(r"(?<=[(\[{]) | (?=[)\]}])", "", text)


def statements(path: Path) -> list[Statement]:
    """The simple statements inside the function bodies of one source file."""

    source = path.read_text(encoding="utf-8")
    found: list[Statement] = []

    def walk(body: list[ast.stmt], scope: str, function: str | None) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(node.body, f"{scope}{node.name}.<locals>.", scope + node.name)
            elif isinstance(node, ast.ClassDef):  # its methods, not its body's own lines
                walk(node.body, f"{scope}{node.name}.", None)
            elif hasattr(node, "body") or hasattr(node, "cases"):  # a compound statement
                parts = [node] + getattr(node, "handlers", []) + getattr(node, "cases", [])
                for part in parts:
                    for field in ("body", "orelse", "finalbody"):
                        walk(getattr(part, field, []), scope, function)
            elif function is not None and not (
                    isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
                found.append(Statement(path.stem, function, _text(source, node),
                                       range(node.lineno, node.end_lineno + 1)))

    walk(ast.parse(source).body, "", None)
    return found


def _trace() -> None:
    """The child: run every row of limits.py under a recorder of the lines of
    src/vlcpos that fire, and print them as JSON {file: [line, ...]}. A row
    that fails raises, and the child exits 1."""

    package, lines = str(PACKAGE), {}

    def line(frame, event, arg):
        if event == "line":
            lines.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return line

    sys.settrace(lambda frame, event, arg:
                 line if frame.f_code.co_filename.startswith(package) else None)
    from vlcpos.cli import cli
    import limits

    def run(argv: list) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli(argv)
        return code, out.getvalue(), err.getvalue()

    for row in limits.ROWS:
        try:
            limits.check(row, run)
        except AssertionError as exc:
            raise AssertionError(f"row {row.name}: {exc}") from None
    sys.settrace(None)
    print(json.dumps({name: sorted(fired) for name, fired in lines.items()}))


def reach() -> tuple[list[Statement], list[Statement]]:
    """(every counted statement, the unreached ones), from a fresh interpreter
    that runs the rows under the line recorder."""

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, __file__, "--trace"], env=env,
                          capture_output=True, encoding="utf-8", timeout=300)
    if done.returncode != 0:
        raise RuntimeError(f"the traced run exited {done.returncode}: {done.stderr}")
    lines = json.loads(done.stdout.splitlines()[-1])
    counted = [s for path in sorted(PACKAGE.glob("*.py")) for s in statements(path)]
    fired = {(path, number) for path, numbers in lines.items() for number in numbers}
    unreached = [s for s in counted
                 if not any((str(PACKAGE / f"{s.module}.py"), n) in fired for n in s.lines)]
    return counted, unreached


def _names(entry: Unreached, statement: Statement) -> bool:
    return (statement.module == entry.module and statement.function == entry.function
            and statement.text.startswith(entry.text))


def problems(counted: list[Statement], unreached: list[Statement],
             declared: tuple[Unreached, ...] = UNREACHED) -> list[str]:
    """Each way the unreached statements differ from the declared ones."""

    found = []
    for entry in declared:
        hits = [s for s in counted if _names(entry, s)]
        name = f"{entry.kind} {entry.module}.{entry.function}: {entry.text}"
        if len(hits) != 1:
            found.append(f"declared {name} names {len(hits)} statements, not 1")
        elif hits[0] not in unreached:
            found.append(f"declared {name} is reached")
    found += [f"unreached and not declared: {s.module}.{s.function}: {s.text}"
              for s in unreached if not any(_names(entry, s) for entry in declared)]
    return found


def main() -> int:
    start = time.perf_counter()
    counted, unreached = reach()
    kinds = Counter()
    for s in unreached:
        entry = next((entry for entry in UNREACHED if _names(entry, s)), None)
        kinds[entry.kind if entry else "undeclared"] += 1
        print(f"{entry.kind if entry else 'undeclared':<11}{s.module}.{s.function}: {s.text}")
        if entry:
            print(f"{'':<11}by {entry.by}")
    errors = problems(counted, unreached)
    for error in errors:
        print(f"FAILED {error}", file=sys.stderr)
    print(f"{len(unreached)} of {len(counted)} statements unreached ("
          + ", ".join(f"{count} {kind}" for kind, count in kinds.items())
          + f"), {len(errors)} problems, {time.perf_counter() - start:.1f} s")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(_trace() if sys.argv[1:] == ["--trace"] else main())
