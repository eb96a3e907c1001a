"""Configuration ingestion and result emission.

Config files are plain text, one dotted key per line:

    # comment
    room.width = 5.0
    led.position = (2.5, 2.5, 3.0)
    sweep.transmit_powers = [8, 10, 12, 15]

Unknown keys are rejected; unspecified keys keep the default scenario values.
Emission produces CSV (comma delimiter, LF endings, leading '#' metadata
lines) or JSON (object with name, columns, rows, metadata). Numeric cells are
serialized at a fixed 6 significant digits so byte comparisons are stable;
metadata (config hash, tool version, timestamp) is excluded from determinism
guarantees.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, replace
from itertools import repeat, starmap
from operator import attrgetter
from pathlib import Path
from typing import IO, Any, Callable, Mapping, Sequence

from .channel import lambertian_order
from .errors import DomainError, ParseError, UnsupportedFormat, ValidationError
from .estimator import EstimateRecord, csa_angles
from .geometry import Point3
from .scenario import (
    ReplicationReport,
    ScenarioConfig,
    SweepResult,
    default_config,
)

__all__ = [
    "OutputTable",
    "load_config",
    "serialize_config",
    "config_hash",
    "emit",
    "format_number",
    "position_sweep_table",
    "power_sweep_table",
    "angle_sweep_table",
    "replication_table",
    "replication_text",
    "estimate_lines",
]

SIGNIFICANT_DIGITS = 6


@dataclass(frozen=True)
class OutputTable:
    """A named table with column headers, rows, and free-form metadata."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]
    metadata: Mapping[str, str]

    def __post_init__(self) -> None:
        for i, row in enumerate(self.rows, start=1):
            if len(row) != len(self.columns):
                raise ValidationError(
                    f"row {i} has {len(row)} cells for {len(self.columns)} columns"
                )


def format_number(value: float) -> str:
    """Fixed-significant-digit rendering used for every emitted numeric cell."""

    return format(value, f".{SIGNIFICANT_DIGITS}g")


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    text = format_number(value) if isinstance(value, float) else str(value)
    # Quoting as csv.writer's QUOTE_MINIMAL does with a "\n" line terminator.
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_numbers(column: Sequence[float]) -> list[str]:
    # Round through the fixed-digit text form so JSON and CSV agree, then
    # spell each float the way json.dumps does.
    rounded = list(map(float, map(format, column, repeat(f".{SIGNIFICANT_DIGITS}g"))))
    if all(map(math.isfinite, rounded)):
        return list(map(repr, rounded))
    return list(map(json.dumps, rounded))


def _json_cell(value: Any) -> str:
    return _json_numbers((value,))[0] if isinstance(value, float) else json.dumps(value)


def _render_rows(rows: Sequence[tuple[Any, ...]], fmt: str) -> list[str]:
    """Each row's text in one str.format pass; only mixed-type columns go cell by cell."""

    columns, cells = [], []
    for column in zip(*rows):
        kinds = set(map(type, column))
        if kinds == {float} and fmt == "csv":
            cells.append(f"{{:.{SIGNIFICANT_DIGITS}g}}")
        else:
            cells.append("{}")
            if kinds == {float}:
                column = _json_numbers(column)
            elif kinds != {int}:
                column = list(map(_csv_cell if fmt == "csv" else _json_cell, column))
        columns.append(column)
    if fmt == "csv":
        row_format = ",".join(cells)
    else:
        row_format = "    [\n      " + ",\n      ".join(cells) + "\n    ]"
    return list(starmap(row_format.format, zip(*columns)))


def emit(table: OutputTable, format: str, destination: str | Path | IO[str]) -> int:
    """Write the table to a path or text stream; returns bytes written.

    Raises:
        UnsupportedFormat: for formats other than "csv" and "json".
    """

    metadata = sorted(table.metadata.items())
    if format == "csv":
        lines = [",".join(map(_csv_cell, table.columns))]
        lines += _render_rows(table.rows, "csv")
        if len(table.columns) == 1:
            # csv.writer quotes a lone empty field so the row is not blank.
            lines = ['""' if line == "" else line for line in lines]
        comments = [f"# {key} = {value}\n" for key, value in metadata]
        text = "".join(comments) + "\n".join(lines) + "\n"
    elif format == "json":
        frame = {"name": table.name, "columns": list(table.columns), "rows": []}
        text = json.dumps({**frame, "metadata": dict(metadata)}, indent=2) + "\n"
        if table.rows:
            # JSON escapes quotes inside strings, so this is the rows key.
            rows = ",\n".join(_render_rows(table.rows, "json"))
            text = text.replace('"rows": []', f'"rows": [\n{rows}\n  ]', 1)
    else:
        raise UnsupportedFormat(f"unsupported output format: {format!r}")

    if hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text, encoding="utf-8")
    return len(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# Table builders
# ---------------------------------------------------------------------------


def position_sweep_table(
    result: SweepResult, metadata: Mapping[str, str]
) -> OutputTable:
    """The position-sweep schema: one row per PD position."""

    columns = {
        "index": range(1, len(result.est_x) + 1),
        "actual_x": result.actual_x,
        "actual_y": result.actual_y,
        "est_x": result.est_x,
        "est_y": result.est_y,
        "slant_d": result.slant_distance,
        "received_power": result.received_power,
        "error_m": result.positioning_error,
    }
    rows = tuple(zip(*columns.values()))
    return OutputTable("position_sweep", tuple(columns), rows, metadata)


def power_sweep_table(
    rows: tuple[tuple[float, float, float], ...], metadata: Mapping[str, str]
) -> OutputTable:
    columns = ("transmit_power", "distance", "received_power")
    return OutputTable("power_sweep", columns, tuple(rows), metadata)


def angle_sweep_table(
    rows: tuple[tuple[float, float, float], ...], metadata: Mapping[str, str]
) -> OutputTable:
    columns = ("elevation", "distance", "received_power")
    return OutputTable("angle_sweep", columns, tuple(rows), metadata)


def replication_table(
    report: ReplicationReport, metadata: Mapping[str, str]
) -> OutputTable:
    # Column name -> ReplicationCheck attribute.
    fields = {
        "check": "name",
        "reference": "reference",
        "computed": "computed",
        "abs_diff": "difference",
        "verdict": "verdict.value",
        "expected": "expected.value",
        "note": "note",
    }
    rows = tuple(map(attrgetter(*fields.values()), report.checks))
    return OutputTable("replication_report", tuple(fields), rows, metadata)


def replication_text(report: ReplicationReport) -> str:
    """The plain-text replication report: assumptions, one line per check, totals."""

    lines = [f"# reference dataset version {report.dataset_version}"]
    lines += [f"# assumption: {assumption}" for assumption in report.assumptions]
    for check in report.checks:
        diff = (
            ""
            if check.difference is None
            else f" (diff {format_number(check.difference)})"
        )
        lines.append(
            f"{check.name}: computed {format_number(check.computed)} vs reference "
            f"{format_number(check.reference)}{diff}: {check.verdict.value} "
            f"[{check.note}]"
        )
    counts = Counter(check.verdict.value for check in report.checks)
    lines.append(
        f"checks: {len(report.checks)} total, {counts['REPRODUCED']} reproduced, "
        f"{counts['TREND-ONLY']} trend-only, {counts['NOT-REPRODUCIBLE']} "
        f"not-reproducible, {len(report.regressions)} regressions"
    )
    return "\n".join(lines) + "\n"


def estimate_lines(record: EstimateRecord, clipped: bool | None = None) -> list[str]:
    """Human-readable key = value lines for a one-shot estimate."""

    complementary, supplementary = csa_angles(record.incidence)
    lines = [
        f"measured_power = {format_number(record.measured_power)}",
        f"inverted_distance = {format_number(record.inverted_distance)}",
        f"incidence_elevation = {format_number(record.incidence)}",
        f"complementary = {format_number(complementary)}",
        f"supplementary = {format_number(supplementary)}",
        f"fused_offset = {format_number(record.fused)}",
        "estimated = "
        f"({format_number(record.estimated.x)}, {format_number(record.estimated.y)}, 0)",
    ]
    if clipped is not None:
        lines.append(f"clipped_to_room = {str(clipped).lower()}")
    if record.positioning_error is not None:
        lines.append(f"positioning_error = {format_number(record.positioning_error)}")
    return lines


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _number(value: Any, key: str) -> float:
    if type(value) not in (int, float):  # a bool or a string is not a number here
        raise ValidationError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{key} must be finite, got {value!r}")
    return number


def _count(value: Any, key: str) -> int:
    number = _number(value, key)
    if not number.is_integer():
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    return int(number)


def _point(value: Any, key: str) -> Point3:
    if not (isinstance(value, (tuple, list)) and len(value) == 3):
        raise ValidationError(f"{key} must be a 3-tuple (x, y, z), got {value!r}")
    return Point3(*map(_number, value, repeat(key)))


def _points(value: Any, key: str) -> tuple[Point3, ...]:
    if not isinstance(value, (tuple, list)) or len(value) == 0:
        raise ValidationError(f"{key} must be a non-empty list of points, got {value!r}")
    return tuple(_point(p, key) for p in value)


def _floats(value: Any, key: str) -> tuple[float, ...]:
    if not isinstance(value, (tuple, list)) or len(value) == 0:
        raise ValidationError(f"{key} must be a non-empty list of numbers, got {value!r}")
    return tuple(_number(v, key) for v in value)


def _span(value: Any, key: str) -> tuple[float, ...]:
    span = _floats(value, key)
    if len(span) != 2:
        raise ValidationError(f"{key} must be (low, high), got {span!r}")
    return span


def _point_text(point: Point3) -> str:
    return f"({point.x!r}, {point.y!r}, {point.z!r})"


# The text serialize_config writes for what each parser returns (repr keeps
# floats exact).
_TEXT_FORMS: dict[Callable[[Any, str], Any], Callable[[Any], str]] = {
    _number: repr,
    _count: repr,
    _point: _point_text,
    _points: lambda points: "[" + ", ".join(map(_point_text, points)) + "]",
    _floats: lambda values: "[" + ", ".join(map(repr, values)) + "]",
    _span: lambda span: "(" + ", ".join(map(repr, span)) + ")",
}

# Every accepted dotted key, in serialization order: the ScenarioConfig field
# it sets ("record.field" inside the room, LED and detector records), its
# parser, and a short description used in errors.
_CONFIG_KEYS: dict[str, tuple[str, Callable[[Any, str], Any], str]] = {
    "room.width": ("room.width", _number, "room width in meters"),
    "room.length": ("room.length", _number, "room length in meters"),
    "room.height": ("room.height", _number, "room height in meters"),
    "led.position": ("led.position", _point, "LED position (x, y, z)"),
    "led.transmit_power": ("led.transmit_power", _number, "LED transmit power in watts"),
    "led.half_power_angle": ("led.half_power_angle", _number, "LED half-power angle, degrees"),
    "led.lambertian_order": ("led.lambertian_order", _number, "Lambertian order override"),
    "pd.area": ("pd_template.area", _number, "PD active area in square meters"),
    "pd.fov": ("pd_template.fov", _number, "PD field of view in degrees"),
    "pd.filter_gain": ("pd_template.filter_gain", _number, "PD optical filter gain"),
    "pd.refractive_index": ("pd_template.refractive_index", _number, "PD refractive index"),
    "sweep.positions": ("pd_positions", _points, "list of PD positions [(x, y, z), ...]"),
    "sweep.transmit_powers": ("transmit_powers", _floats, "transmit powers in watts"),
    "sweep.elevations": ("sweep_elevations", _floats, "angle-sweep elevations, degrees"),
    "sweep.azimuth": ("azimuth", _number, "anchoring azimuth in degrees"),
    "sweep.distance_samples": ("distance_samples", _count, "figure-sweep sample count"),
    "sweep.distance_range": ("distance_range", _span, "figure-sweep span (low, high)"),
}


# serialize_config's spelling of a point list with every number in JSON's
# grammar, spaces only. json.loads reads such text to the value
# ast.literal_eval gives (ints stay ints, both round floats correctly) without
# the syntax tree, which dominates loading a long sweep.positions. re compiles
# the pattern on first use. No possessive quantifiers: Python 3.10 lacks them.
_JSON_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"
_JSON_POINT = rf"\( *{_JSON_NUMBER} *, *{_JSON_NUMBER} *, *{_JSON_NUMBER} *\)"
_POINT_LIST = rf"\[ *{_JSON_POINT}(?: *, *{_JSON_POINT})* *\]"


def _literal(text: str) -> Any:
    """ast.literal_eval(text), read by json when text is a point list in JSON numbers."""

    if re.fullmatch(_POINT_LIST, text):
        try:
            return list(map(tuple, json.loads(text.replace("(", "[").replace(")", "]"))))
        except ValueError:  # an integer past the digit limit: ast reports it
            pass
    return ast.literal_eval(text)


def _parse_lines(text: str) -> dict[str, Any]:
    values: dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, _, value_text = line.partition("=")
        key, value_text = key.strip(), value_text.strip()
        if key not in _CONFIG_KEYS:
            raise ParseError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ParseError(f"duplicate key {key!r}", lineno)
        # Every error ast.literal_eval documents for malformed input.
        try:
            values[key] = _literal(value_text)
        except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError) as exc:
            raise ParseError(
                f"invalid value {value_text!r} for {key} ({_CONFIG_KEYS[key][2]}): {exc}",
                lineno,
            ) from exc
    return values


def load_config(source: str | Path) -> ScenarioConfig:
    """Build a ScenarioConfig from a file path or inline text.

    A string containing '=' or a newline is treated as inline config text;
    anything else is read as a path. Unspecified keys keep the default
    scenario values.

    Raises:
        ParseError: a file that is not UTF-8 text, malformed lines, unknown or
            duplicate keys.
        ValidationError: parsed values violating a scenario invariant.
    """

    if isinstance(source, str) and ("=" in source or "\n" in source or source.strip() == ""):
        text = source
    else:
        try:
            text = Path(source).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{source} is not UTF-8 text: {exc}") from None
    values = _parse_lines(text)

    # Field overrides per record of the default; "" holds ScenarioConfig's own
    # fields. The LED is rebuilt without an order unless led.lambertian_order
    # sets one, so the order follows the half-power angle.
    changes: dict[str, dict[str, Any]] = {
        "room": {}, "led": {"lambertian_order": None}, "pd_template": {}, "": {}
    }
    for key, value in values.items():
        field, parse, _ = _CONFIG_KEYS[key]
        record, _, name = field.rpartition(".")
        changes[record][name] = parse(value, key)
    base = default_config()
    fields = changes.pop("")
    try:
        for record, overrides in changes.items():
            fields[record] = replace(getattr(base, record), **overrides)
        return replace(base, **fields)
    except DomainError as exc:
        # Constructor-level domain violations become config validation errors
        # so the CLI maps them to the usage exit code.
        raise ValidationError(str(exc)) from exc


def serialize_config(config: ScenarioConfig) -> str:
    """Render a config as the text format load_config accepts.

    Floats are written with repr so loading the result reproduces the exact
    same values. The Lambertian order is written only when it overrides the
    half-power-angle formula, and the distance range only when it is set.
    """

    derived_order = lambertian_order(config.led.half_power_angle)
    lines = []
    for key, (field, parse, _) in _CONFIG_KEYS.items():
        value = attrgetter(field)(config)
        if value is None:
            continue
        if key == "led.lambertian_order" and value == derived_order:
            continue
        lines.append(f"{key} = {_TEXT_FORMS[parse](value)}")
    return "\n".join(lines) + "\n"


def config_hash(config: ScenarioConfig) -> str:
    """Short stable digest identifying a configuration."""

    digest = hashlib.sha256(serialize_config(config).encode("utf-8")).hexdigest()
    return digest[:12]
