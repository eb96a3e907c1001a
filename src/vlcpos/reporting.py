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
import json
import math
from collections import Counter
from contextlib import nullcontext
from itertools import chain, repeat
from operator import attrgetter
from pathlib import Path
from typing import IO, Any, Callable, Mapping, Sequence

from .channel import lambertian_order
from .errors import DomainError, ParseError, UnsupportedFormat, ValidationError
from .estimator import EstimateRecord
from .geometry import Point3, _check, _record
from .scenario import (
    ASSUMPTIONS, REFERENCE_DATASET_VERSION, ReplicationCheck, ScenarioConfig, default_config
)

__all__ = [
    "OutputTable",
    "load_config",
    "parse_config",
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
_NUMBER = f"%.{SIGNIFICANT_DIGITS}g"  # every emitted number's spelling, as a %-format
_CHUNK_ROWS = 2048  # emit holds one chunk's text at a time, not the table's


class OutputTable(_record("_Table", "name columns rows metadata")):
    """A named table with column headers, rows, and free-form metadata."""

    __slots__ = ()

    def __new__(cls, name: str, columns: tuple[str, ...], rows: tuple[tuple[Any, ...], ...],
                metadata: Mapping[str, str]) -> OutputTable:
        if not columns:
            raise ValidationError("a table needs at least one column")
        width = len(columns)
        if not set(map(len, rows)) <= {width}:
            # Only a ragged table pays for the pass that finds its first bad row.
            i, row = next((i, r) for i, r in enumerate(rows, 1) if len(r) != width)
            raise ValidationError(f"row {i} has {len(row)} cells for {width} columns")
        return tuple.__new__(cls, (name, columns, rows, metadata))


def format_number(value: float) -> str:
    """Fixed-significant-digit rendering used for every emitted numeric cell."""

    return _NUMBER % value


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
    # spell each float the way json.dumps does. A text with a point and no
    # exponent, or with a negative exponent above e-300, already is that
    # spelling: it reads back to a normal double whose shortest repr has the
    # same digits, in the notation repr also picks there. The other texts
    # (integral values, positive exponents, the subnormal range, nan and inf)
    # are read back once per distinct text. A two-digit exponent ends in
    # "-05".."-99", which sorts before "300" as a three-digit one below 300 does.
    joined = "\n".join(repeat(_NUMBER, len(column))) % tuple(column)
    texts = joined.split("\n") if column else []
    spelled = {
        text: json.dumps(float(text))
        for text in set(texts)
        if not (("." in text and "e" not in text) or ("e-" in text and text[-3:] < "300"))
    }
    return list(map(spelled.get, texts, texts)) if spelled else texts


def _json_cell(value: Any) -> str:
    return _json_numbers((value,))[0] if isinstance(value, float) else json.dumps(value)


def _whole(column: Sequence[float]) -> bool:
    # Whole values below 1e6 in magnitude: %.1f spells them as JSON does (60.0, -0.0).
    return column[0].is_integer() and all(v.is_integer() and -1e6 < v < 1e6 for v in set(column))


def _render_rows(rows: Sequence[tuple[Any, ...]], fmt: str, respell: bool = False) -> str:
    """The rows' text without a final newline, from one % call over a row template.

    A float column takes %.6g in place, or in JSON %.1f where _whole holds;
    every other cell takes %s, after _csv_cell or _json_cell unless its column
    holds ints. A %.6g text is JSON's spelling when _json_numbers keeps it, so
    a JSON text where a float cell has no point, or "e+" or "e-3" appears, is
    rendered again with respell: float columns then take _json_numbers.
    """

    cells, columns, dots = [], [], 0  # dots: the count the text has when every float cell has one
    for column in zip(*rows):
        kinds = set(map(type, column))
        if kinds == {float} and not respell:
            cells.append("%.1f" if fmt == "json" and _whole(column) else _NUMBER)
            dots += len(column)
        else:
            cells.append("%s")
            if kinds == {float}:
                column = _json_numbers(column)
            elif kinds != {int}:
                column = list(map(_csv_cell if fmt == "csv" else _json_cell, column))
                dots += "".join(column).count(".")
        columns.append(column)
    if fmt == "csv":
        if len(columns) == 1 and "" in columns[0]:
            # csv.writer quotes a lone empty field so the row is not blank.
            columns[0] = ['""' if cell == "" else cell for cell in columns[0]]
        template, separator = ",".join(cells), "\n"
    else:
        # Each row reads "    [\n      a,\n      b\n    ]"; rows are joined by ",\n".
        template, separator = "    [\n      " + ",\n      ".join(cells) + "\n    ]", ",\n"
    text = separator.join(repeat(template, len(rows))) % tuple(chain.from_iterable(zip(*columns)))
    if fmt == "json" and not respell:
        if text.count(".") != dots or "e+" in text or "e-3" in text:
            return _render_rows(rows, fmt, respell=True)
    return text


def emit(table: OutputTable, format: str, destination: str | Path | IO[str]) -> int:
    """Write the table to a path or text stream, _CHUNK_ROWS rows at a time;
    returns the UTF-8 bytes written. A path is written as chunks render, so a
    cell that cannot render leaves the chunks before it in the file; a caller's
    own errors leave the file alone when it builds every row before emit.

    Raises:
        UnsupportedFormat: for formats other than "csv" and "json", before the
            destination is opened.
    """

    rows, metadata = table.rows, sorted(table.metadata.items())
    # The text is head, each chunk after "\n" (the first) or joint, then tail.
    if format == "csv":
        # The header is one more row of text cells.
        head = "".join(f"# {key} = {value}\n" for key, value in metadata)
        head, joint, tail = head + _render_rows((table.columns,), "csv"), "\n", "\n"
    elif format == "json":
        frame = {"name": table.name, "columns": list(table.columns), "rows": []}
        text = json.dumps({**frame, "metadata": dict(metadata)}, indent=2)
        # JSON escapes quotes inside strings, so this is the rows key.
        head, _, tail = text.partition('"rows": []')
        head, joint, tail = head + '"rows": [', ",\n", ("\n  ]" if rows else "]") + tail + "\n"
    else:
        raise UnsupportedFormat(f"unsupported output format: {format!r}")

    chunks = (
        ("\n" if start == 0 else joint) + _render_rows(rows[start:start + _CHUNK_ROWS], format)
        for start in range(0, len(rows), _CHUNK_ROWS)
    )
    size = 0
    with (nullcontext(destination) if hasattr(destination, "write")
          else open(destination, "w", encoding="utf-8", newline="")) as stream:
        for piece in chain((head,), chunks, (tail,)):
            stream.write(piece)
            size += len(piece.encode("utf-8"))
    return size


# ---------------------------------------------------------------------------
# Table builders
# ---------------------------------------------------------------------------


def position_sweep_table(
    rows: tuple[tuple[Any, ...], ...], metadata: Mapping[str, str]
) -> OutputTable:
    columns = (
        "index", "actual_x", "actual_y", "est_x", "est_y", "slant_d", "received_power", "error_m"
    )
    return OutputTable("position_sweep", columns, tuple(rows), metadata)


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
    checks: Sequence[ReplicationCheck], metadata: Mapping[str, str]
) -> OutputTable:
    # The checks are the rows: ReplicationCheck's fields are in column order.
    columns = ("check", "reference", "computed", "abs_diff", "verdict", "expected", "note")
    return OutputTable("replication_report", columns, tuple(checks), metadata)


def replication_text(checks: Sequence[ReplicationCheck]) -> str:
    """The plain-text replication report: assumptions, one line per check, totals."""

    lines = [f"# reference dataset version {REFERENCE_DATASET_VERSION}"]
    lines += [f"# assumption: {assumption}" for assumption in ASSUMPTIONS]
    for check in checks:
        diff = (
            ""
            if check.difference is None
            else f" (diff {format_number(check.difference)})"
        )
        lines.append(
            f"{check.name}: computed {format_number(check.computed)} vs reference "
            f"{format_number(check.reference)}{diff}: {check.verdict} "
            f"[{check.note}]"
        )
    counts = Counter(check.verdict for check in checks)
    lines.append(
        f"checks: {len(checks)} total, {counts['REPRODUCED']} reproduced, "
        f"{counts['TREND-ONLY']} trend-only, {counts['NOT-REPRODUCIBLE']} "
        f"not-reproducible, {sum(check.regressed for check in checks)} regressions"
    )
    return "\n".join(lines) + "\n"


def estimate_lines(record: EstimateRecord, clipped: bool) -> list[str]:
    """Human-readable key = value lines for a one-shot estimate."""

    incidence = math.degrees(math.asin(record.cosine))  # the elevation theta
    lines = [
        f"measured_power = {format_number(record.measured_power)}",
        f"inverted_distance = {format_number(record.inverted_distance)}",
        f"incidence_elevation = {format_number(incidence)}",
        f"complementary = {format_number(90.0 - incidence)}",
        f"supplementary = {format_number(90.0 + incidence)}",
        f"fused_offset = {format_number(record.fused)}",
        "estimated = "
        f"({format_number(record.estimated.x)}, {format_number(record.estimated.y)}, 0)",
        f"clipped_to_room = {str(clipped).lower()}",
    ]
    if record.positioning_error is not None:
        lines.append(f"positioning_error = {format_number(record.positioning_error)}")
    return lines


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _count(value: Any, rule: Any, key: str) -> int:
    # A whole float is read as its int (7.0 as 7), which the integer rule takes.
    return _check(int(value) if type(value) is float and value.is_integer() else value, rule, key)


def _point(value: Any, rules: dict, key: str) -> Point3:
    if not (isinstance(value, (tuple, list)) and len(value) == 3):
        raise ValidationError(f"{key} must be a 3-tuple (x, y, z), got {value!r}")
    return tuple.__new__(Point3, map(_check, value, rules.values(), repeat(key)))


def _points(value: Any, rules: dict, key: str) -> tuple[Point3, ...]:
    if not isinstance(value, (tuple, list)) or len(value) == 0:
        raise ValidationError(f"{key} must be a non-empty list of points, got {value!r}")
    # 3-sequences of floats with a finite sum (so each is finite) keep Point3's
    # rule in bulk; anything else takes _point, whose messages name the value.
    if set(map(type, value)) <= {tuple, list} and set(map(len, value)) == {3}:
        coordinates = list(chain.from_iterable(value))
        if set(map(type, coordinates)) == {float} and math.isfinite(sum(coordinates)):
            return tuple(map(tuple.__new__, repeat(Point3), value))
    return tuple(_point(p, rules, key) for p in value)


# Every accepted dotted key, in config_hash's order: the ScenarioConfig field
# it sets ("record.field" inside the room, LED and detector records), its
# reader of the value's shape, which holds each number to the rule the record
# of the field declares (Point3's, in a field with no rule of its own, which
# holds points), and a short description used in errors.
_CONFIG_KEYS: dict[str, tuple[str, Callable[[Any, Any, str], Any], str]] = {
    "room.width": ("room.width", _check, "room width in meters"),
    "room.length": ("room.length", _check, "room length in meters"),
    "room.height": ("room.height", _check, "room height in meters"),
    "led.position": ("led.position", _point, "LED position (x, y, z)"),
    "led.transmit_power": ("led.transmit_power", _check, "LED transmit power in watts"),
    "led.half_power_angle": ("led.half_power_angle", _check, "LED half-power angle, degrees"),
    "led.lambertian_order": ("led.lambertian_order", _check, "Lambertian order override"),
    "pd.area": ("pd_template.area", _check, "PD active area in square meters"),
    "pd.fov": ("pd_template.fov", _check, "PD field of view in degrees"),
    "pd.filter_gain": ("pd_template.filter_gain", _check, "PD optical filter gain"),
    "pd.refractive_index": ("pd_template.refractive_index", _check, "PD refractive index"),
    "sweep.positions": ("pd_positions", _points, "list of PD positions [(x, y, z), ...]"),
    "sweep.transmit_powers": ("transmit_powers", _check, "transmit powers in watts"),
    "sweep.elevations": ("sweep_elevations", _check, "angle-sweep elevations, degrees"),
    "sweep.azimuth": ("azimuth", _check, "anchoring azimuth in degrees"),
    "sweep.distance_samples": ("distance_samples", _count, "figure-sweep sample count"),
    "sweep.distance_range": ("distance_range", _check, "figure-sweep span (low, high)"),
}


_NUMBER_CHARS = str.maketrans("", "", "0123456789+-.eE ")


def _point_list_skeleton(text: str) -> bool:
    """True when text without number characters and spaces reads [(,,),...,(,,)]."""

    skeleton = text.translate(_NUMBER_CHARS)
    return skeleton == "[" + "(,,)," * (skeleton.count("(") - 1) + "(,,)]"


def _literal(text: str) -> Any:
    """ast.literal_eval(text), read by json when text has a point list's skeleton.

    The skeleton fixes the brackets and the nesting. json rejects every number
    Python spells differently (1., .5, +1, 1_0, 01, - 1), which then goes to
    ast, and reads the rest to the value ast gives (ints stay ints, both round
    floats correctly) without the syntax tree, which dominates a long list.
    """

    if _point_list_skeleton(text):
        try:
            return list(map(tuple, json.loads(text.replace("(", "[").replace(")", "]"))))
        except ValueError:  # a token json rejects, or an integer past the digit limit
            pass
    return ast.literal_eval(text)


def load_config(path: str | Path) -> ScenarioConfig:
    """Read a config file and build its ScenarioConfig with parse_config.

    The file is UTF-8 text; a leading byte-order mark is dropped.

    Raises:
        OSError: the file cannot be read.
        ParseError: a file that is not UTF-8 text, or any error parse_config
            raises.
        ValidationError: as parse_config.
    """

    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_config(text)


def parse_config(text: str) -> ScenarioConfig:
    """Build a ScenarioConfig from config text.

    Unspecified keys keep the default scenario values. The first bad line
    raises, its message starting "line N: ".

    Raises:
        ParseError: malformed lines, unknown or duplicate keys, unreadable values.
        ValidationError: a value of the wrong shape or out of its field's rule
            ("line N: <key> must ..."), or values that break a rule joining
            fields, which names their keys and no line.
    """

    # Field overrides per record of the default; "" holds ScenarioConfig's own fields.
    changes: dict[str, dict[str, Any]] = {"room": {}, "led": {}, "pd_template": {}, "": {}}
    base = default_config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if "=" not in line:
                raise ParseError(f"expected 'key = value', got {raw.strip()!r}")
            key, _, value_text = line.partition("=")
            key, value_text = key.strip(), value_text.strip()
            if key not in _CONFIG_KEYS:
                raise ParseError(f"unknown key {key!r}")
            field, parse, description = _CONFIG_KEYS[key]
            record, _, name = field.rpartition(".")
            if name in changes[record]:
                raise ParseError(f"duplicate key {key!r}")
            # Every error ast.literal_eval documents for malformed input.
            try:
                value = _literal(value_text)
            except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError) as exc:
                raise ParseError(
                    f"invalid value {value_text!r} for {key} ({description}): {exc}"
                ) from exc
            rule = (getattr(base, record) if record else base)._rules.get(name, Point3._rules)
            changes[record][name] = parse(value, rule, key)
        except (ParseError, ValidationError, DomainError) as exc:
            kind = ParseError if isinstance(exc, ParseError) else ValidationError
            raise kind(f"line {lineno}: {exc}") from exc
    # Unless led.lambertian_order is set, the order follows the half-power angle.
    changes["led"].setdefault("lambertian_order", None)
    fields = changes.pop("")
    try:
        for record, overrides in changes.items():
            fields[record] = getattr(base, record)._replace(**overrides)
        return base._replace(**fields)
    except DomainError as exc:
        # Constructor-level domain violations become config validation errors
        # so the CLI maps them to the usage exit code.
        raise ValidationError(str(exc)) from exc


def config_hash(config: ScenarioConfig) -> str:
    """Short stable digest identifying a configuration by its values' bits.

    The first 12 hex digits of a sha256 over each key in _CONFIG_KEYS order,
    the Lambertian order only when it overrides the half-power-angle formula
    and the distance range only when it is set. Each key is followed by a
    newline, a count and the values: little-endian IEEE doubles, or for the
    sample count that many bytes of its two's complement. Two configs hash
    equal exactly when they hold the same ints and floats, 0.0 and -0.0 apart.
    """

    # Imported here, not at the top: estimate and the text replicate report never
    # hash a config, and so skip hashlib's OpenSSL load (about 3 ms, ROADMAP item 15).
    import hashlib, struct
    derived_order = lambertian_order(config.led.half_power_angle)
    digest = hashlib.sha256()
    for key, (field, parse, _) in _CONFIG_KEYS.items():
        value = attrgetter(field)(config)
        if value is None or (key == "led.lambertian_order" and value == derived_order):
            continue
        if key == "sweep.distance_samples":
            count = value.bit_length() // 8 + 1
            data = value.to_bytes(count, "little", signed=True)
        else:
            if isinstance(value, (int, float)):
                value = (value,)
            elif parse is _points:
                value = tuple(chain.from_iterable(value))
            count, data = len(value), struct.pack(f"<{len(value)}d", *value)
        digest.update(key.encode() + b"\n" + struct.pack("<Q", count) + data)
    return digest.hexdigest()[:12]
