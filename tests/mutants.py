"""A mutation table for src/vlcpos: each row is one small change to the source,
and the tier-1 tests or limits.py rows that must fail under it.

A row is Mutant(name, file, old, new, killed_by): old is a text that occurs
exactly once in src/vlcpos/<file>.py, new replaces it, and killed_by names
pytest node ids, a limits.py row as tests/test_limits.py::test_limit[<row>].
test_mutants.py checks only the table's form: each old occurs once, new
differs from it, and each killed_by node is collected.

As a script, with no options, it runs the table, one mutant at a time. First
every killed_by node runs on the unmutated tree, where each must pass. Then
each mutant is applied to a fresh copy of src/ in a temporary directory, and
its killed_by nodes run against that copy (PYTHONPATH=<copy>/src:tests); any
failure kills it. It prints each mutant killed or survived, the totals and the
run time, and exits 1 if one survives; it uses only the standard library:

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Mutant(NamedTuple):
    """One change to src/vlcpos/<file>.py, and the nodes that must fail under it."""

    name: str
    file: str
    old: str
    new: str
    killed_by: tuple[str, ...]


def row(name: str) -> str:
    """The tier-1 node of a limits.py row."""
    return f"tests/test_limits.py::test_limit[{name}]"


CH, ES, GE = "tests/test_channel.py::", "tests/test_estimator.py::", "tests/test_geometry.py::"
RE, SC, CL = "tests/test_reporting.py::", "tests/test_scenario.py::", "tests/test_cli.py::"
RC, PR = "tests/test_records.py::", "tests/test_properties.py::"
RF = "tests/test_reference.py::test_reference_value["
CHUNKS = PR + "test_emit_across_chunk_boundaries_matches_the_csv_and_json_modules"
HASH_PIN = RE + "TestConfigHash::test_default_config_hash_is_pinned"

MUTANTS = (
    # channel.py. The FOV is closed, c == cos(fov) inside, on each of its paths,
    # and cos(90 deg) is exactly 0.
    Mutant("fov-edge-column", "channel", "c**exponent if c >= cos_fov",
           "c**exponent if c > cos_fov",
           (CH + "TestFovEdge::test_edge_is_inside_and_the_next_float_is_outside[fov-60]",)),
    Mutant("fov-edge-row", "channel", "distance**2 if c >= cos_fov", "distance**2 if c > cos_fov",
           (CH + "TestPowerColumns::test_runs_of_one_cosine_match_the_one_row_views[1.0]",)),
    Mutant("fov-edge-gain", "channel", "and c < _fov_cosine", "and c <= _fov_cosine",
           (RF + "gain-in-a-90-degree-fov]",)),
    Mutant("fov-90-cosine", "channel", "0.0 if fov == 90.0 else math.cos", "math.cos",
           (RF + "gain-in-a-90-degree-fov]",)),
    Mutant("fov-cut-sample", "channel", "/ slant**2 if gain else 0.0", "/ slant**2",
           (RF + "beyond-the-fov]",)),
    Mutant("fov-cut-column", "channel", "kc = k * c**exponent if c >= cos_fov else 0.0",
           "kc = k * c**exponent", (RF + "beyond-the-fov]",)),
    # The closed form's terms: K's P_t (m+1), c^(m+1), 1/d^2, n^2 / sin^2(fov), 2 pi.
    Mutant("gain-constant-order", "channel", "led.transmit_power * (m + 1.0)",
           "led.transmit_power * (m + 2.0)", (RF + "center-link-power]",)),
    Mutant("power-not-linear", "channel", "radiated = led.transmit_power * (m + 1.0)",
           "radiated = math.sqrt(led.transmit_power) * (m + 1.0)",
           (RF + "power-sweep-linear-in-power]",)),
    Mutant("cosine-exponent-columns", "channel", "led.lambertian_order + 1.0, _fov_cosine",
           "led.lambertian_order, _fov_cosine", (RF + "angle-sweep-end-powers]",)),
    Mutant("cosine-exponent-sample", "channel", "c ** (led.lambertian_order + 1.0)",
           "c ** led.lambertian_order", (RF + "corner-link-power]",)),
    Mutant("inverse-square-column", "channel", "[kc / d**2 for", "[kc / d / d for",
           (CH + "TestPowerColumns::test_runs_of_one_cosine_match_the_one_row_views[1.0]",)),
    Mutant("column-distance-guard", "channel", "if low > 0.0 and low**2 > 0.0 and total == total:",
           "if total == total:",
           (CH + "TestPowerColumns::"
            "test_a_column_of_one_cosine_names_its_first_bad_distance[0.0]",)),
    Mutant("concentrator-index-squared", "channel",
           "return pd.refractive_index * pd.refractive_index /", "return pd.refractive_index /",
           (RF + "gain-in-a-60-degree-fov]",)),
    Mutant("gain-constant-log-tau", "channel", ")) - math.log(", ")) + math.log(",
           (CH + "TestPowerColumns::"
            "test_gain_constant_in_range_past_an_out_of_range_partial_product[overflowing]",)),
    Mutant("gain-constant-inf-passes", "channel", "if not 0.0 < k < math.inf:", "if not 0.0 < k:",
           (CH + "TestPowerColumns::test_gain_constant_outside_the_float_range_names_k[inf]",)),
    Mutant("link-angle-range", "channel", "if not 0.0 <= angle < math.inf:",
           "if not angle < math.inf:", (CH + "test_rejects[link-angle-below-0]",)),
    # The Lambertian order: its formula, its override, and the angle rule's bound.
    Mutant("order-log-two", "channel", "return -math.log(2.0) /", "return -math.log(3.0) /",
           (RF + "lambertian-orders]",)),
    Mutant("order-angle-folded", "channel", "math.log(math.cos(math.radians(angle)))",
           "math.log(math.cos(math.radians(angle % 45.0)))",
           (RF + "lambertian-orders]",)),
    Mutant("order-override-ignored", "channel",
           "led if lambertian_order is not None else tuple.__new__(", "tuple.__new__(",
           (RC + "TestLambertianOrder::test_replace_with_none_derives_it_again",)),
    Mutant("angle-rule-low-bound", "channel", "_Rule(6.0371e-07, 90.0",
           "_Rule(6.037091348628667e-07, 90.0",
           (RC + "TestEveryConstructionValidates::"
            "test_constructor[LedSpec.half_power_angle=90.0]",)),
    Mutant("angle-rule-bound-raised", "channel", "(6.0371e-07, 90.0", "(6.0372e-07, 90.0",
           (row("half-power-at-bound"),)),
    # The records' rules: a field rule made finite-only, a joined rule dropped.
    Mutant("led-power-rule-dropped", "channel", "transmit_power=_POSITIVE,",
           "transmit_power=_Rule(),", (row("led-power-zero"),)),
    Mutant("pd-area-rule-dropped", "channel", "refractive_index\", area=_POSITIVE,",
           "refractive_index\", area=_Rule(),", (row("area-zero"),)),
    Mutant("infinite-gain-rule-dropped", "channel",
           'joined=((("pd.fov", "pd.refractive_index"), _infinite_gain),)', "joined=()",
           (row("fov-infinite-gain"),)),
    # estimator.py. The inversion d = (K V^(m+1) / P)^(1/(m+3)), in both domains,
    # its clamp and its rejections.
    Mutant("inversion-lift", "estimator", "vertical_separation ** (m + 1.0)",
           "vertical_separation ** m",
           (RF + "position-5-pipeline]",)),
    Mutant("inversion-root", "estimator", "quotient ** (1.0 / (m + 3.0))",
           "quotient ** (1.0 / (m + 2.0))",
           (RF + "position-5-pipeline]",)),
    Mutant("inversion-log-root", "estimator", "- log_p) / (m + 3.0))", "- log_p) / (m + 2.0))",
           (SC + "TestPositionSweep::test_tall_room_inverts_row_1_to_the_led_height",)),
    Mutant("inversion-slack", "estimator", "_INVERSION_SLACK = 1e-9", "_INVERSION_SLACK = 0.0",
           (RF + "inverted-at-the-on-axis-maximum]",)),
    Mutant("inversion-clamp", "estimator",
           "return vertical_separation if distance < vertical_separation else distance",
           "return distance",
           (RF + "inverted-at-the-on-axis-maximum]",)),
    Mutant("power-too-high-unchecked", "estimator",
           "if distance < vertical_separation * (1.0 - _INVERSION_SLACK):", "if False:",
           (row("power-too-high"),)),
    Mutant("non-positive-power-unchecked", "estimator", "not measured_power > 0.0", "False",
           (row("zero-power"),)),
    # The fusion: the mean of the two projections, d_hor's overflow form, anchoring.
    Mutant("fused-mean-half", "estimator", "(cosine + d_hor / distance) / 2.0",
           "(cosine + d_hor / distance)", (RF + "fused-offset-at-41.123]",)),
    Mutant("horizontal-overflow", "estimator",
           "else distance * math.sqrt((1.0 - cosine) * (1.0 + cosine)))", "else distance)",
           (ES + "TestEstimatePosition::"
            "test_slant_whose_square_overflows_keeps_its_horizontal_part[tall-room]",)),
    Mutant("anchor-sign", "estimator", "x = led_x + fused", "x = led_x - fused",
           (RF + "anchor]",)),
    Mutant("azimuth-range", "estimator", "0.0 <= azimuth < 360.0", "0.0 <= azimuth <= 360.0",
           (ES + "test_rejects[azimuth-360]",)),
    # geometry.py. The link: its slant, its errors, its columns.
    Mutant("slant-horizontal-only", "geometry", "slant = math.dist(led_pos, pd_pos)",
           "slant = math.dist(led_pos[:2], pd_pos[:2])",
           (RF + "center-link]",)),
    Mutant("level-led-error", "geometry", "if not lz > z:", "if not lz >= z:",
           (GE + "TestLinkGeometryIsLinkColumnsRow::test_same_exception[level]",)),
    Mutant("led-not-above-type", "geometry", 'LedNotAbovePd(f"LED z=', 'DomainError(f"LED z=',
           (GE + "TestLinkGeometryIsLinkColumnsRow::test_same_exception[level]",)),
    Mutant("further-apart-type", "geometry", 'raise DomainError(f"LED z={lz} and',
           'raise LedNotAbovePd(f"LED z={lz} and',
           (GE + "TestLinkGeometryIsLinkColumnsRow::test_same_exception[past-the-float-range]",)),
    Mutant("link-columns-swapped", "geometry",
           "return [slant for slant, _ in rows], [c for _, c in rows]",
           "return [c for _, c in rows], [slant for slant, _ in rows]",
           (SC + "TestSweepColumnsMatchScalarPath::test_power_sweep_equals_received_power[1.0]",)),
    Mutant("floor-edge", "geometry", "return 0.0 <= point.x", "return 0.0 < point.x",
           (GE + "TestRoomSpec::test_contains_floor_point",)),
    # The field checks every record applies, and what a record stores.
    Mutant("bool-is-a-number", "geometry", "if isinstance(value, bool) or not isinstance",
           "if not isinstance",
           (RC + "TestEveryConstructionValidates::test_make[Point3.x=True]",)),
    Mutant("finite-check-dropped", "geometry", "if not abs(value) <= sys.float_info.max:",
           "if False:", (row("width-1e999"),)),
    Mutant("integer-rule-dropped", "geometry", "if rule.integer and not isinstance(value, int):",
           "if False:", (row("fractional-samples"),)),
    Mutant("span-reversed-accepted", "geometry",
           'if rule.shape == "span" and not entries[0] <= entries[1]:', "if False:",
           (row("distance-range-reversed"),)),
    Mutant("span-length-unchecked", "geometry", "len(value) == 2)", "True)",
           (row("distance-range-triple"),)),
    Mutant("point-arity-unchecked", "geometry", "len(value) == 3)", "True)",
           (row("point-arity"),)),
    Mutant("empty-list-accepted", "geometry",
           'len(value) == 0:\n            raise error(f"{name} must be a non-empty list of n',
           'len(value) < 0:\n            raise error(f"{name} must be a non-empty list of n',
           (row("no-transmit-powers"),)),
    Mutant("entries-reversed", "geometry", 'if rule.shape == "point" else entries',
           'if rule.shape == "point" else entries[::-1]',
           (RF + "power-sweep-first-rows]",)),
    Mutant("points-bulk-drops-first", "geometry", "repeat(Point3), value))",
           "repeat(Point3), value[1:]))",
           (PR + "test_long_point_list_loads_as_literal_eval_reads_it",)),
    Mutant("points-kept-as-list", "geometry", "return tuple(value)", "return list(value)",
           (RC + "TestRecordsHoldWhatTheirRulesReturn::"
            "test_positions_are_stored_as_a_hashable_tuple_of_points[point-list]",)),
    Mutant("point-x-rule-dropped", "geometry", "x=_FINITE, y=_FINITE, z", "y=_FINITE, z",
           (GE + "TestPoint3::test_non_finite_message_names_the_coordinate[x-nan]",)),
    Mutant("point-z-rule-dropped", "geometry", "y=_FINITE, z=_FINITE)", "y=_FINITE)",
           (GE + "TestPoint3::test_non_finite_message_names_the_coordinate[z-nan]",)),
    Mutant("room-side-rule-dropped", "geometry", "width=_ROOM_SIDE, length",
           "width=_Rule(), length", (row("negative-width"),)),
    Mutant("joined-rules-skipped", "geometry", "for keys, broken in joined:",
           "for keys, broken in joined[:0]:",
           (RE + "TestOutputTable::test_names_the_first_ragged_row",)),
    Mutant("record-values-reversed", "geometry", "fill(cls, *args, **kwargs))])",
           "fill(cls, *args, **kwargs))][::-1])", (GE + "TestPoint3::test_pickle_round_trip",)),
    # reporting.py. Emission: the digits, the CSV cells, the JSON spelling, the
    # metadata order, the byte count and the destination.
    Mutant("six-digits", "reporting", "SIGNIFICANT_DIGITS = 6", "SIGNIFICANT_DIGITS = 5",
           (RE + "TestFormatNumber::test_six_significant_digits",)),
    Mutant("csv-newline-quoting", "reporting", """ or "\\n" in text:""", ":",
           (PR + "test_emit_matches_the_csv_and_json_modules",)),
    Mutant("csv-none-cell", "reporting", 'if value is None:\n        return ""\n    text',
           'if value is None:\n        return "None"\n    text', (CHUNKS + "[1]",)),
    Mutant("json-point-count", "reporting", '"json" and (text.count(".") != len(column) or',
           '"json" and (False or', (CHUNKS + "[1]",)),
    Mutant("json-e-plus", "reporting", '!= len(column) or "e+" in text', "!= len(column)",
           (CL + "test_json_rows_are_the_csv_rows_spelled_as_repr[position-sweep-brighter]",)),
    Mutant("json-repr-spelling", "reporting", "text: json.dumps(float(text))",
           "text: repr(float(text))", (PR + "test_json_numbers_spell_the_rounded_float",)),
    Mutant("json-cell-str", "reporting", "else json.dumps(value)", "else str(value)",
           (CHUNKS + "[1]",)),
    Mutant("json-empty-rows", "reporting", '("\\n  ]" if rows else "]")', '"\\n  ]"',
           (CHUNKS + "[0]",)),
    Mutant("metadata-unsorted", "reporting", "sorted(table.metadata.items())",
           "list(table.metadata.items())", (PR + "test_emit_matches_the_csv_and_json_modules",)),
    Mutant("size-in-characters", "reporting", 'size += len(piece.encode("utf-8"))',
           "size += len(piece)", (CHUNKS + "[1]",)),
    Mutant("str-path-as-stream", "reporting", 'hasattr(destination, "write")',
           "not isinstance(destination, Path)", (row("golden-position-sweep"),)),
    Mutant("one-column-table", "reporting", "if width < 2:", "if width < 1:",
           (RE + "TestOutputTable::test_rejects_a_one_column_table",)),
    Mutant("asin-elevation", "reporting", "math.degrees(math.asin(record.cosine))",
           "math.degrees(math.acos(record.cosine))", (row("golden-estimate"),)),
    # The config text: its lines, keys, values, numbers and file.
    Mutant("line-numbers-from-0", "reporting", "enumerate(text.splitlines(), start=1)",
           "enumerate(text.splitlines(), start=0)", (row("no-equals"),)),
    Mutant("comment-kept", "reporting", 'raw.split("#", 1)[0].strip()', "raw.strip()",
           (RE + "TestLoadConfig::test_loads[comments-and-blank-lines]",)),
    Mutant("unknown-key-accepted", "reporting", "if key not in _CONFIG_KEYS:", "if False:",
           (row("unknown-key"),)),
    Mutant("duplicate-key", "reporting", "if key in lines:", "if False:", (row("duplicate-key"),)),
    Mutant("literal-errors-uncaught", "reporting", "except (ValueError, TypeError, SyntaxError,",
           "except (TypeError, SyntaxError,",
           (PR + "test_config_text_loads_or_is_rejected_at_the_boundary",)),
    Mutant("integral-float-count", "reporting", "if rule.integer and type(value) is float",
           "if False and type(value) is float",
           (RE + "TestLoadConfig::test_loads[integral-float-sample-count]",)),
    Mutant("point-list-as-lists", "reporting", "return list(map(tuple, json.loads(",
           "return list(map(list, json.loads(",
           (PR + "test_point_list_reader_matches_literal_eval",)),
    Mutant("utf8-error-uncaught", "reporting", "except UnicodeDecodeError as exc:",
           "except LookupError as exc:", (row("not-utf8"),)),
    Mutant("path-str-unwrapped", "reporting", "Path(path).read_text(", "path.read_text(",
           (RE + "TestLoadConfig::test_from_file[str]",)),
    # A joined rule's error names the sorted lines of its keys.
    Mutant("joined-rule-prefix", "reporting",
           "raise ValidationError(f\"line{'s' if ',' in numbers else ''} {numbers}: {exc}\")",
           "raise ValidationError(str(exc))",
           (PR + "test_a_broken_joined_rule_names_the_lines_of_its_keys",)),
    Mutant("joined-rule-lines-unsorted", "reporting", "map(str, sorted(lines[key] for",
           "map(str, (lines[key] for", (row("positions-outside-narrow-room"),)),
    # config_hash digests each key, its count and its values' bits.
    Mutant("hash-values-only", "reporting",
           'digest.update(key.encode() + b"\\n" + struct.pack("<Q", count) + data)',
           "digest.update(data)", (HASH_PIN,)),
    Mutant("hash-abs-values", "reporting", "d\", *value)", "d\", *map(abs, value))",
           (row("hash-signed"),)),
    Mutant("derived-order-hashed", "reporting",
           'if value is None or (key == "led.lambertian_order" and value == derived_order):',
           "if value is None:", (HASH_PIN,)),
    Mutant("hash-constant", "reporting", "return digest.hexdigest()[:12]",
           "return hashlib.sha256().hexdigest()[:12]", (HASH_PIN,)),
    # scenario.py. The default walk and detector, the sweeps, the reference data,
    # the report's grading and the config's rules.
    Mutant("walk-step", "scenario", "walk = [2.5 + i / 9 *", "walk = [2.5 + i / 10 *",
           (RF + "walk-points]",)),
    Mutant("walk-end-computed", "scenario", "for i in range(9)] + [0.07]", "for i in range(10)]",
           (HASH_PIN,)),
    Mutant("default-pd-area", "scenario", "pd = PdSpec(area=2.25e-6", "pd = PdSpec(area=2.5e-6",
           (HASH_PIN,)),
    Mutant("sweep-position-prefix", "scenario",
           'raise type(exc)(f"position {index}: {exc}") from exc', "raise", (row("fov-30"),)),
    Mutant("power-sweep-descending", "scenario", "config.pd_positions))))",
           "config.pd_positions)), reverse=True))",
           (RF + "power-sweep-first-rows]",)),
    Mutant("angle-sweep-step", "scenario", "/ (count - 1) for i", "/ count for i",
           (RF + "angle-sweep-end-powers]",)),
    Mutant("assumptions-dropped", "scenario", "ASSUMPTIONS = (", "ASSUMPTIONS = () and (",
           (row("replicate-stdout"),)),
    Mutant("reference-error-edited", "scenario", "REFERENCE_ERRORS = (\n    0.0013,",
           "REFERENCE_ERRORS = (\n    0.0113,",
           (RF + "replication-computed]",)),
    Mutant("grade-strict", "scenario", "if difference <= (0.0 if", "if difference < (0.0 if",
           (SC + "TestReplicationReport::test_all_checks_match_expectations",)),
    Mutant("led-height-floor", "scenario", "if source.z < _MIN_LED_HEIGHT:", "if False:",
           (row("led-height-below-bound"),)),
    Mutant("position-off-plane", "scenario", "if pos.z != 0.0:", "if False:",
           (row("position-off-floor"),)),
    Mutant("elevation-rule-open", "scenario", '_Rule(0.0, 90.0, "(]", shape="list")',
           '_Rule(0.0, 90.0, "[]", shape="list")', (row("elevation-zero"),)),
    Mutant("azimuth-rule-closed", "scenario", 'azimuth=_Rule(0.0, 360.0, "[)")',
           'azimuth=_Rule(0.0, 360.0, "[]")', (row("azimuth-360"),)),
    # cli.py. Exit codes, the clipped flag, the collector and the closed pipe.
    Mutant("config-error-exit-1", "cli",
           "OSError) as exc:\n        print(f\"error: {type(exc).__name__}: {exc}\", "
           "file=sys.stderr)\n        return 2",
           "OSError) as exc:\n        print(f\"error: {type(exc).__name__}: {exc}\", "
           "file=sys.stderr)\n        return 1", (row("fov-120"),)),
    Mutant("clipped-always-false", "cli",
           "clipped = not config.room.contains_floor_point(record.estimated)", "clipped = False",
           (row("estimate-clipped"),)),
    Mutant("gc-freeze-in-cli", "cli", "    finally:\n        if enabled:",
           "    finally:\n        gc.freeze()\n        if enabled:",
           (CL + "TestCollectorPause::test_the_collector_is_left_as_it_was_found[ok-enabled]",)),
    Mutant("stdout-flush", "cli", "sys.stdout.flush()  # so", "pass  # so",
           (CL + "test_a_stdout_pipe_closed_unread_exits_1_at_the_flush_with_nothing_on_stderr",)),
)


def problems(mutants: tuple[Mutant, ...] = MUTANTS, nodes: set[str] | None = None) -> list[str]:
    """Each way the table's form is broken: a name used twice, an old text that
    does not occur exactly once, a new text equal to it, no killed_by node, or
    (given the collected node ids) a killed_by node that is not collected."""

    found = [f"{name} names {count} mutants"
             for name, count in Counter(m.name for m in mutants).items() if count > 1]
    for m in mutants:
        path = SRC / "vlcpos" / f"{m.file}.py"
        count = path.read_text(encoding="utf-8").count(m.old) if path.exists() else 0
        if count != 1:
            found.append(f"{m.name}: old occurs {count} times in {m.file}.py, not once")
        if m.new == m.old:
            found.append(f"{m.name}: new is old")
        if not m.killed_by:
            found.append(f"{m.name}: no killed_by node")
        found += [f"{m.name}: {node} is not collected" for node in m.killed_by
                  if nodes is not None and node not in nodes]
    return found


def _pytest(nodes: list[str], src: Path) -> subprocess.CompletedProcess:
    """pytest on the nodes, importing vlcpos from src; no bytecode or cache is
    written, so no run reads another's."""

    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(src), str(ROOT / "tests"))),
           "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *nodes], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=900)


def main() -> int:
    start = time.perf_counter()
    errors = problems()
    if not errors:
        nodes = sorted({node for m in MUTANTS for node in m.killed_by})
        done = _pytest(nodes, SRC)
        if done.returncode != 0:
            errors.append(f"the unmutated tree fails its killed_by nodes:\n{done.stdout[-3000:]}")
    for error in errors:
        print(f"FAILED {error}", file=sys.stderr)
    if errors:
        return 1
    survived = []
    for m in MUTANTS:
        with tempfile.TemporaryDirectory() as work:
            copy = Path(work) / "src"
            shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            path = copy / "vlcpos" / f"{m.file}.py"
            path.write_text(path.read_text(encoding="utf-8").replace(m.old, m.new),
                            encoding="utf-8")
            done = _pytest(list(m.killed_by), copy)
        # 1: a node failed; 2 or 4: a module of theirs no longer imports, or a
        # node is no longer collected. The unmutated tree passed every node, so
        # each is the mutant's doing.
        if done.returncode not in (0, 1, 2, 4):
            print(f"FAILED {m.name}: pytest exited {done.returncode}:\n{done.stdout[-3000:]}",
                  file=sys.stderr)
            return 1
        if done.returncode == 0:
            survived.append(m.name)
        print(f"{'killed' if done.returncode else 'SURVIVED':<10}{m.file}: {m.name}")
    print(f"{len(MUTANTS) - len(survived)} of {len(MUTANTS)} mutants killed, {len(survived)} "
          f"survived, {time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
