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
import re
from collections import Counter
from contextlib import nullcontext
from itertools import chain, islice, repeat
from operator import attrgetter
from pathlib import Path
from typing import IO, Any, Iterator, Mapping, Sequence

from .channel import lambertian_order
from .errors import DomainError, ParseError, UnsupportedFormat, ValidationError
from .estimator import EstimateRecord
from .geometry import _check, _record
from .scenario import (
    ASSUMPTIONS, REFERENCE_DATASET_VERSION, FigureRows, ReplicationCheck, ScenarioConfig,
    default_config,
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


def _ragged(table: OutputTable) -> str:
    width, rows = len(table.columns), table.rows
    if width < 2:
        return "a table needs at least two columns"
    # A figure sweep's rows are (label, distance, power) by construction.
    if ({3} if isinstance(rows, FigureRows) else set(map(len, rows))) <= {width}:
        return ""
    # Only a ragged table pays for the pass that finds its first bad row.
    i, row = next((i, r) for i, r in enumerate(rows, 1) if len(r) != width)
    return f"row {i} has {len(row)} cells for {width} columns"


class OutputTable(_record("_Table", "name columns rows metadata", error=ValidationError,
                          joined=(((), _ragged),))):
    """A named table with column headers, rows, and free-form metadata."""

    __slots__ = ()


def format_number(value: float) -> str:
    """Fixed-significant-digit rendering used for every emitted numeric cell."""

    return _NUMBER % value


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
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


# A row is lead, its cells joined by sep, then close; rows are joined by rowsep.
_ROW = {"csv": ("", ",", "", "\n"), "json": ("    [\n      ", ",\n      ", "\n    ]", ",\n")}
_LOW_EXPONENT = re.compile(r"e-3\d\d")  # e-300 and below, which _json_numbers reads back


def _spelled(column: Sequence[float], fmt: str) -> str:
    """A float column's %.6g texts joined by "\n"; in JSON, _json_numbers' texts
    instead where a cell's text lacks a point, or the column's holds "e+" or an
    exponent of e-300 or below."""

    text = "\n".join(repeat(_NUMBER, len(column))) % tuple(column)
    if fmt == "json" and (text.count(".") != len(column) or "e+" in text
                          or _LOW_EXPONENT.search(text)):
        return "\n".join(_json_numbers(column))
    return text


def _render(columns: Sequence[Sequence[Any]], fmt: str) -> str:
    """A row table chunk's text without a final newline, from one % call over a row template.

    columns are the chunk's columns. A float column takes %.6g in place in CSV
    and _spelled's texts in JSON; every other cell takes %s, after _csv_cell or
    _json_cell unless its column holds ints.
    """

    spell, count = _csv_cell if fmt == "csv" else _json_cell, len(columns[0])
    cells, texts = [], []
    for column in columns:
        kinds = set(map(type, column))
        if kinds == {float} and fmt == "csv":
            cells.append(_NUMBER)
        else:
            cells.append("%s")
            if kinds == {float}:
                column = _spelled(column, fmt).split("\n")
            elif kinds != {int}:
                column = list(map(spell, column))
        texts.append(column)
    lead, sep, close, rowsep = _ROW[fmt]
    template = lead + sep.join(cells) + close
    return rowsep.join(repeat(template, count)) % tuple(chain.from_iterable(zip(*texts)))


def _chunks(rows: Sequence[tuple[Any, ...]] | FigureRows, fmt: str) -> Iterator[str]:
    """Each chunk's text: _CHUNK_ROWS rows at most, a figure chunk within one family.

    A figure chunk is one % pass over its powers, with the label's text and the
    chunk's distance texts (spelled once for every family) in its template. A
    JSON power in [1e-299, 0.999999) is JSON's spelling as %.6g writes it (a
    point, or an exponent from e-05 to e-299); any other takes _spelled's texts.
    """

    if not isinstance(rows, FigureRows):
        for start in range(0, len(rows), _CHUNK_ROWS):
            yield _render(list(zip(*rows[start:start + _CHUNK_ROWS])), fmt)
        return
    lead, sep, close, rowsep = _ROW[fmt]
    starts = range(0, len(rows.distances), _CHUNK_ROWS)
    held = [_spelled(rows.distances[s:s + _CHUNK_ROWS].tolist(), fmt) for s in starts]
    for label, _, powers in rows.families():
        head = lead + (_csv_cell if fmt == "csv" else _json_cell)(label) + sep
        for start, distances in zip(starts, held):
            cells, cell = powers[start:start + _CHUNK_ROWS], _NUMBER
            if fmt == "json" and not all(1e-299 <= p < 0.999999 for p in cells):
                cells, cell = _spelled(cells, fmt).split("\n"), "%s"
            tail = sep + cell + close
            yield (head + distances.replace("\n", tail + rowsep + head) + tail) % tuple(cells)
        del powers  # freed before the next family's powers are computed


def emit(table: OutputTable, format: str, destination: str | Path | IO[str]) -> int:
    """Write the table to a path or text stream, _CHUNK_ROWS rows at a time;
    returns the UTF-8 bytes written. A figure table is rendered one family at a
    time, each chunk within a family, its distance texts spelled once. The
    first chunk renders before the destination is opened or written, so a
    figure sweep that fails in its first family leaves a path as it was; a cell
    that cannot render in a later chunk leaves the chunks before it in the file.

    Raises:
        UnsupportedFormat: for formats other than "csv" and "json", before the
            destination is opened.
    """

    rows, metadata = table.rows, sorted(table.metadata.items())
    # The text is head, each chunk after "\n" (the first) or joint, then tail.
    if format == "csv":
        # The header is one more row of text cells.
        head = "".join(f"# {key} = {value}\n" for key, value in metadata)
        head, joint, tail = head + _render([(name,) for name in table.columns], "csv"), "\n", "\n"
    elif format == "json":
        frame = {"name": table.name, "columns": list(table.columns), "rows": []}
        text = json.dumps({**frame, "metadata": dict(metadata)}, indent=2)
        # JSON escapes quotes inside strings, so this is the rows key.
        head, _, tail = text.partition('"rows": []')
        head, joint, tail = head + '"rows": [', ",\n", ("\n  ]" if rows else "]") + tail + "\n"
    else:
        raise UnsupportedFormat(f"unsupported output format: {format!r}")

    chunks = _chunks(rows, format)
    first = list(islice(chunks, 1))
    size = 0
    with (nullcontext(destination) if hasattr(destination, "write")
          else open(destination, "w", encoding="utf-8", newline="")) as stream:
        for piece in chain((head,), ("\n" + text for text in first),
                           (joint + text for text in chunks), (tail,)):
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


def power_sweep_table(rows: FigureRows, metadata: Mapping[str, str]) -> OutputTable:
    columns = ("transmit_power", "distance", "received_power")
    return OutputTable("power_sweep", columns, rows, metadata)


def angle_sweep_table(rows: FigureRows, metadata: Mapping[str, str]) -> OutputTable:
    columns = ("elevation", "distance", "received_power")
    return OutputTable("angle_sweep", columns, rows, metadata)


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


# Every accepted dotted key, in config_hash's order: the ScenarioConfig field
# it sets ("record.field" inside the room, LED and detector records), whose
# record declares the rule its value keeps, and a short description used in
# errors.
_CONFIG_KEYS: dict[str, tuple[str, str]] = {
    "room.width": ("room.width", "room width in meters"),
    "room.length": ("room.length", "room length in meters"),
    "room.height": ("room.height", "room height in meters"),
    "led.position": ("led.position", "LED position (x, y, z)"),
    "led.transmit_power": ("led.transmit_power", "LED transmit power in watts"),
    "led.half_power_angle": ("led.half_power_angle", "LED half-power angle, degrees"),
    "led.lambertian_order": ("led.lambertian_order", "Lambertian order override"),
    "pd.area": ("pd_template.area", "PD active area in square meters"),
    "pd.fov": ("pd_template.fov", "PD field of view in degrees"),
    "pd.filter_gain": ("pd_template.filter_gain", "PD optical filter gain"),
    "pd.refractive_index": ("pd_template.refractive_index", "PD refractive index"),
    "sweep.positions": ("pd_positions", "list of PD positions [(x, y, z), ...]"),
    "sweep.transmit_powers": ("transmit_powers", "transmit powers in watts"),
    "sweep.elevations": ("sweep_elevations", "angle-sweep elevations, degrees"),
    "sweep.azimuth": ("azimuth", "anchoring azimuth in degrees"),
    "sweep.distance_samples": ("distance_samples", "figure-sweep sample count"),
    "sweep.distance_range": ("distance_range", "figure-sweep span (low, high)"),
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
            ("line N: <key> must ..."), or, once every line is read, values that
            break a rule joining fields ("lines N, M: ", the lines of its keys).
    """

    # Field overrides per record of the default; "" holds ScenarioConfig's own fields.
    changes: dict[str, dict[str, Any]] = {"room": {}, "led": {}, "pd_template": {}, "": {}}
    lines: dict[str, int] = {}  # the line that sets each key
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
            if key in lines:
                raise ParseError(f"duplicate key {key!r}")
            lines[key] = lineno
            field, description = _CONFIG_KEYS[key]
            record, _, name = field.rpartition(".")
            # Every error ast.literal_eval documents for malformed input.
            try:
                value = _literal(value_text)
            except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError) as exc:
                raise ParseError(
                    f"invalid value {value_text!r} for {key} ({description}): {exc}"
                ) from exc
            rule = (getattr(base, record) if record else base)._rules[name]
            if rule.integer and type(value) is float and value.is_integer():  # 7.0 as 7
                value = int(_check(value, rule._replace(integer=False), key))  # in bounds first
            changes[record][name] = _check(value, rule, key)
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
    except (DomainError, ValidationError) as exc:  # a joined rule's; the file sets a key of it
        numbers = ", ".join(map(str, sorted(lines[key] for key in exc.keys if key in lines)))
        raise ValidationError(f"line{'s' if ',' in numbers else ''} {numbers}: {exc}") from exc


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
    for key, (field, _) in _CONFIG_KEYS.items():
        value = attrgetter(field)(config)
        if value is None or (key == "led.lambertian_order" and value == derived_order):
            continue
        if key == "sweep.distance_samples":
            count = value.bit_length() // 8 + 1
            data = value.to_bytes(count, "little", signed=True)
        else:
            if isinstance(value, (int, float)):
                value = (value,)
            elif key == "sweep.positions":
                value = tuple(chain.from_iterable(value))
            count, data = len(value), struct.pack(f"<{len(value)}d", *value)
        digest.update(key.encode() + b"\n" + struct.pack("<Q", count) + data)
    return digest.hexdigest()[:12]
