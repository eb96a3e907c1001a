"""The CLI's observable contract, as one table: each row is a config and a
command line, with the exit code, stderr, output cells and output digest they
give. It holds the default config's output bytes and the behaviour at the limits.

Tier-1 runs every row in-process through cli() (test_limits.py). As a script,
with no options, it runs every row against the vlcpos script on PATH, under
PYTHONDEVMODE=1 PYTHONWARNINGS=error; it uses only the standard library and
imports nothing from vlcpos:

    python tests/limits.py
"""

from __future__ import annotations

import csv
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple


class Row(NamedTuple):
    """One case. argv is split on spaces; a --config or --out value in it
    names a file in a fresh directory, and config, unless None, is written
    there as UTF-8 (a lone surrogate escape as its byte) and passed as
    --config. err is a prefix of stderr (argparse's message line, after its
    usage block), or all of it where err ends in a newline; "" means stderr is
    empty, and {work} in err stands for the fresh directory. cells maps a CSV
    cell (row from 1, column), the key of a `key = value` or `# key = value`
    line, or the label of another `# label: text` line to its text, or to None
    where there is no such cell (see _cells). out_kept: an existing --out file
    stays as it was. digest, unless None, is digest() of the output. The output
    is the --out file, if there is one after the run, else stdout.
    """

    name: str
    config: str | None
    argv: str
    code: int
    err: str
    cells: dict = {}
    out_kept: bool = False
    digest: str | None = None


POWER_AT_3_5_M = "1.4496953791835698e-06"
TALL_ROOM = "room.height = 7e153\nled.position = (2.5, 2.5, 7e153)"
GRAZING_LED = "led.position = (2.5, 2.5, 1e-100)"
# Every value finite, though d^2 overflows for the 3.9e156 m slant.
TALL_ESTIMATE = {
    "measured_power": "4.94066e-324", "inverted_distance": "3.93486e+156",
    "incidence_elevation": "0.101928", "complementary": "89.8981", "supplementary": "90.1019",
    "fused_offset": "1.97092e+156", "estimated": "(-1.39365e+156, -1.39365e+156, 0)",
    "clipped_to_room": "true",
}
K_INF = "led.transmit_power = 1e300\npd.area = 1e100"
K_INF_IS = ("K = P_t (m+1) A h g(0) / (2 pi) is inf for P_t 1e+300, m 1.0000000000000002, "
            "A 1e+100, h 1.0, g(0) 2.25\n")
# Ints and floats of the same values identify one config; a -0.0 another.
BY_VALUE_HASH = "c541c3281021"
NO_FILE = "error: FileNotFoundError: [Errno 2] No such file or directory: '"
UNSEEN = "measured power must be > 0, got 0.0\n"
INVALID = "ValidationError: line 1: "
ROOM_SIDE = "must lie in (0, 7.741e+153], got "
DISTANCE = "must lie in [1.49167e-154, 7.741e+153], got "
HALF_POWER = "must lie in [6.0371e-07, 90), got "
SAMPLES = "must lie in [2, 1e+06], got "
ASSUMPTIONS = "\n".join((
    "vertical separation V in the horizontal-distance relation is read as the LED-PD height "
    "difference (3.0 m in the default room)",
    "figure-mode sweeps hold the angle factor fixed across the distance axis as the published "
    "families do; the position sweep couples the angles to the true geometry",
    "a single-LED intensity measurement cannot disambiguate direction, so estimates are "
    "anchored along the configured azimuth (225 degrees for the published half-diagonal)",
    "the position sweep runs at 15 W; positioning results are power-independent in this "
    "noiseless model",
    "position-8 estimated coordinates of the reference table use the symmetric reading, see "
    "reference_position8_symmetry"))
# digest() of the default config's outputs that more than one row reads.
POSITION_CSV = "940316055c1e0a1529644bb44d8e84135dda44dda8a4b1a86402570bbae1dc31"
POSITION_JSON = "2bbab1a357417d696688046322f846405ada7932a6a47e87f13ce56ab7bb7218"
REPLICATE_TEXT = "f9bb12b299df37672e4d3e6d004346befc47b8d9f02caa11fd2482d59e4687f9"
REPLICATE_JSON = "2bd0ab267e19b8fc10571497a63fe7a45ef56d566bd3917d9d2b4c4269d4641f"
ESTIMATE_3_5_M = "03ca6638280983da3488a28cce2bff008bc103e3f69ab145ebdef11c6c860eeb"
# The default walk, from under the LED to the corner, run corner first: five
# checks grade otherwise than expected, each on its own stderr line.
WALK = [2.5 + i / 9 * (0.07 - 2.5) for i in range(9)] + [0.07]
REVERSED_WALK = "sweep.positions = [%s]" % ", ".join(f"({c!r}, {c!r}, 0.0)" for c in WALK[::-1])
REGRESSIONS = "".join(
    f"error: ReplicationRegression: {check} graded NOT-REPRODUCIBLE, expected {expected}\n"
    for check, expected in (
        ("center_slant_distance", "REPRODUCED"), ("corner_slant_distance", "REPRODUCED"),
        ("center_elevation_angle", "REPRODUCED"), ("pipeline_error_monotonic", "REPRODUCED"),
        ("pipeline_error_spread", "TREND-ONLY")))

ROWS = (
    # The default config's output bytes, each command written with --out.
    *(Row(f"golden-{name}", None, f"{argv} --out out", 0, "", digest=sha)
      for name, argv, sha in (
          ("position-sweep", "position-sweep", POSITION_CSV),
          ("position-sweep-json", "position-sweep --format json", POSITION_JSON),
          ("power-sweep", "power-sweep",
           "1014071bdc9c04813a0576d863655214e5e446bb263bec450fdcb2cc0c1a9cfa"),
          ("power-sweep-json", "power-sweep --format json",
           "a9b04f79ad6b7ab36a1183941d636bf0c15576acd1ede2d0797aff7489b8aa47"),
          ("angle-sweep", "angle-sweep",
           "d4a60ee41479923567068ca9252e858902de05bf58c3eb1be170b54b08c2632a"),
          ("angle-sweep-json", "angle-sweep --format json",
           "85cc272c2714beccfe5353ae605d004cd3447dbd9b1a9a8a4191055c867b4e64"),
          # 10^4 rows: long enough for columns to repeat values (four elevations),
          # which is where the JSON number spelling reads a text back only once.
          ("angle-sweep-10k-json", "angle-sweep --samples 2500 --format json",
           "153aec7d837f09ea17f13a2a07e0fe1eea3da2ee0d905b7c2a55953cd996f784"),
          ("replicate", "replicate", REPLICATE_TEXT),
          ("replicate-csv", "replicate --format csv",
           "ed5abebdc598e39de981d6683846ccb7e0a9de7e951da8c48ac3f0f08189bb02"),
          ("replicate-json", "replicate --format json", REPLICATE_JSON),
          ("estimate", f"estimate --power {POWER_AT_3_5_M} --actual 1.42 1.42", ESTIMATE_3_5_M))),
    # The same bytes on stdout; a CSV output starts with its metadata.
    Row("position-sweep-stdout", None, "position-sweep", 0, "",
        {"config": "1a036cb8c79a", "version": "0.1.0"}, digest=POSITION_CSV),
    Row("position-sweep-json-stdout", None, "position-sweep --format json", 0, "",
        digest=POSITION_JSON),
    # The text report opens with the dataset version and the assumptions.
    Row("replicate-stdout", None, "replicate", 0, "",
        {"reference dataset version 1.0.0": "", "assumption": ASSUMPTIONS}, digest=REPLICATE_TEXT),
    Row("replicate-json-stdout", None, "replicate --format json", 0, "", digest=REPLICATE_JSON),
    Row("estimate-actual-stdout", None, f"estimate --power {POWER_AT_3_5_M} --actual 1.42 1.42",
        0, "", digest=ESTIMATE_3_5_M),
    # More command lines read from stdout.
    Row("estimate-3.5-m", None, f"estimate --power {POWER_AT_3_5_M}", 0, "",
        {"inverted_distance": "3.5", "clipped_to_room": "false", "positioning_error": None}),
    Row("estimate-clipped", None, "estimate --power 1e-8", 0, "", {"clipped_to_room": "true"}),
    # 20 rows, and a sample count changes the config hash.
    Row("angle-sweep-samples-5", None, "angle-sweep --samples 5", 0, "",
        {"config": "a38bd381538f"},
        digest="c7b34f8d14c55878266a3c0e4dc52fab4303ed29bbe5385051f57e5cd8340364"),
    Row("one-transmit-power", "sweep.transmit_powers = [8.0]", "power-sweep", 0, "",
        {(1, "transmit_power"): "8", (10, "transmit_power"): "8", (11, "transmit_power"): None}),
    # The digest of "vlcpos 0.1.0\n".
    Row("version", None, "--version", 0, "",
        digest="f49cce4bd82cd6603d003a58a1b3d687bec74470e223e575337f0f6b1c8fb24b"),
    # A regression exits 1 after the whole report, in either form.
    Row("replicate-regressions", REVERSED_WALK, "replicate", 1, REGRESSIONS,
        digest="4b684d83293abc98c4845e345bc90ba666c2d32f45988592956f3f8424bd1a26"),
    Row("replicate-regressions-csv", REVERSED_WALK, "replicate --format csv --out out.csv", 1,
        REGRESSIONS, digest="d5106b786a3805dfc2795723b3c5b33a9cf138b1732a58fa23f7b28e23ca3e5b"),

    # Usage: argparse's message line, exit 2.
    Row("no-subcommand", None, "", 2,
        "vlcpos: error: the following arguments are required: command\n"),
    Row("unknown-subcommand", None, "frobnicate", 2,
        "vlcpos: error: argument command: invalid choice: 'frobnicate'"),
    Row("bad-format", None, "position-sweep --format yaml", 2,
        "vlcpos position-sweep: error: argument --format: invalid choice: 'yaml'"),
    *(Row(name, None, f"{argv} {option}", 2, f"vlcpos: error: unrecognized arguments: {option}\n")
      for name, argv, option in (
          ("estimate-format", f"estimate --power {POWER_AT_3_5_M}", "--format json"),
          ("estimate-samples", f"estimate --power {POWER_AT_3_5_M}", "--samples 5"),
          ("position-samples", "position-sweep", "--samples 5"),
          ("power-samples", "power-sweep", "--samples 5"))),
    *(Row(f"help-{command}", None, f"{command} --help", 0, "")
      for command in ("position-sweep", "power-sweep", "angle-sweep", "estimate", "replicate")),
    *(Row(f"samples-{n}", None, f"angle-sweep --samples {n}", 2,
          f"error: ValidationError: --samples {SAMPLES}{n}\n")
      for n in ("1", "0", "-3", "1000001")),

    # estimate: the on-axis maximum (the power received 3 m under the LED),
    # the float floor and non-finite input.
    Row("on-axis-maximum", None, "estimate --power 2.685739664675734e-06", 0, "",
        {"inverted_distance": "3", "estimated": "(2.5, 2.5, 0)", "clipped_to_room": "false"}),
    # ROADMAP item 3: a reading just above the maximum is an error, not saturated.
    Row("above-on-axis-maximum", None, "estimate --power 2.6857396915331302e-06", 1,
        "error: PowerTooHigh: measured power 2.6857396915331302e-06 implies distance "
        "2.9999999925000003 below the vertical separation 3.0\n"),
    Row("power-too-high", None, "estimate --power 1.0", 1,
        "error: PowerTooHigh: measured power 1.0 implies distance "),
    Row("zero-power", None, "estimate --power 0.0", 1, "error: NonPositivePower: " + UNSEEN),
    # K V^(m+1) / P overflows, and the inversion runs in logarithms.
    Row("float-floor-power", None, "estimate --power 5e-324", 0, "",
        {"inverted_distance": "8.14594e+79", "clipped_to_room": "true"}),
    Row("tall-room-estimate", TALL_ROOM, "estimate --power 5e-324", 0, "",
        {**TALL_ESTIMATE, "positioning_error": None}),
    Row("tall-room-estimate-actual", TALL_ROOM, "estimate --power 5e-324 --actual 1 1", 0, "",
        {**TALL_ESTIMATE, "positioning_error": "1.97092e+156"}),
    *(Row(f"power-{text}", None, f"estimate --power={text}", 2,
          f"error: ValidationError: --power must be finite, got {float(text)}\n")
      for text in ("nan", "inf", "-inf")),
    *(Row(f"actual-{x}", None, f"estimate --power 1.4e-6 --actual {x} 0", 2,
          f"error: ValidationError: --actual ({float(x)}, 0.0) is not a point on the room floor\n")
      for x in ("1e308", "nan")),

    # The position sweep at the physical limits. pd.fov = 90 is the default
    # config, so its hash is the published one.
    Row("fov-90", "pd.fov = 90", "position-sweep", 0, "",
        {"config": "1a036cb8c79a", (10, "received_power"): "5.02358e-07"}),
    # ROADMAP item 3: a position outside the field of view aborts the sweep,
    # and the failing run leaves an existing --out file as it was.
    Row("fov-30", "pd.fov = 30", "position-sweep --out out.csv", 1,
        "error: NonPositivePower: position 6: " + UNSEEN, out_kept=True),
    Row("grazing-incidence", GRAZING_LED, "position-sweep", 0, "", {(10, "est_x"): "1.285"}),
    # ROADMAP item 3: c^(m+1) underflows to 0 and aborts the sweep.
    Row("cosine-power-underflow", GRAZING_LED + "\nled.lambertian_order = 7.5", "position-sweep",
        1, "error: NonPositivePower: position 2: " + UNSEEN),
    # ROADMAP item 3: every estimate lands far off the floor, with no flag.
    Row("tall-room-sweep", TALL_ROOM, "position-sweep", 0, "",
        {(1, "est_x"): "-2.35233e+147", (10, "est_x"): "-2.35233e+147"}),
    Row("led-height-at-bound", "room.height = 1.4916681462400413e-154\n"
        "led.position = (2.5, 2.5, 1.4916681462400413e-154)", "position-sweep", 0, "",
        {(1, "slant_d"): "1.49167e-154", (10, "est_x"): "1.285"}),
    Row("led-height-below-bound", "room.height = 1.4916681462400412e-154\n"
        "led.position = (2.5, 2.5, 1.4916681462400412e-154)", "position-sweep", 2,
        "error: ValidationError: led.position height 1.4916681462400412e-154 is below "
        "1.49167e-154 m, "),
    Row("room-side-at-bound", "room.width = 7.741001517595157e+153", "position-sweep", 0, "",
        {(10, "est_x"): "0.785669"}),
    Row("room-side-above-bound", "room.width = 7.741001517595158e+153", "position-sweep", 2,
        "error: " + INVALID + "room.width " + ROOM_SIDE + "7.741001517595158e+153\n"),
    Row("height-overflows", "room.height = 1e300\nled.position = (2.5, 2.5, 1e200)\n"
        "sweep.positions = [(0.0, 0.0, 0.0)]", "position-sweep", 2,
        "error: " + INVALID + "room.height " + ROOM_SIDE + "1e+300\n"),
    Row("width-overflows", "room.width = 1e200\nsweep.positions = [(1e200, 0.0, 0.0)]",
        "power-sweep", 2, "error: " + INVALID + "room.width " + ROOM_SIDE + "1e+200\n"),
    Row("distance-range-overflows", "sweep.distance_range = (1.0, 1e200)", "angle-sweep", 2,
        "error: " + INVALID + "sweep.distance_range " + DISTANCE + "1e+200\n"),
    # A distance whose square underflows to 0, which the channel divides by.
    Row("distance-range-underflows", "sweep.distance_range = (1e-200, 1.0)", "angle-sweep", 2,
        "error: " + INVALID + "sweep.distance_range " + DISTANCE + "1e-200\n"),
    # 3.0 ** 651 overflows a float; the inversion then runs in logarithms.
    Row("large-order-estimate", "led.lambertian_order = 650", "estimate --power 1e-9", 0, "",
        {"inverted_distance": "3.06352"}),
    Row("large-order-sweep", "led.lambertian_order = 650", "position-sweep", 0, ""),
    # The smallest half-power angle: its order, about 6.2e15, is finite, and every
    # reading but the on-axis one inverts to the vertical separation.
    Row("half-power-at-bound", "led.half_power_angle = 6.0371e-07", "estimate --power 1e-9", 0,
        "", {"inverted_distance": "3"}),

    # K = P_t (m+1) A h g(0) / (2 pi): each factor in range, the product not.
    # ROADMAP item 3: checked at the first channel call (exit 1), not at load.
    Row("k-inf-angle-sweep", K_INF, "angle-sweep --out out.txt", 1,
        "error: DomainError: " + K_INF_IS),
    *(Row(f"k-inf-{command}", K_INF, f"{command} --out out.txt", 1,
          "error: DomainError: position 1: " + K_INF_IS)
      for command in ("position-sweep", "replicate")),
    Row("k-inf-stdout", K_INF, "angle-sweep", 1, "error: DomainError: " + K_INF_IS),
    # A later transmit power puts K past the float range: the power sweep
    # computes every family before it writes a row.
    Row("k-inf-later-power", "sweep.transmit_powers = [8.0, 1e300]\npd.area = 1e100",
        "power-sweep --out out.txt", 1, "error: DomainError: " + K_INF_IS, out_kept=True),
    Row("k-inf-out-kept", K_INF, "angle-sweep --format json --out out.txt", 1,
        "error: DomainError: " + K_INF_IS, out_kept=True),
    Row("k-zero-estimate", "pd.area = 1e-300\npd.filter_gain = 1e-300",
        "estimate --power 1e-9 --out out.txt", 1,
        "error: DomainError: K = P_t (m+1) A h g(0) / (2 pi) is 0.0 for P_t 15.0, "
        "m 1.0000000000000002, A 1e-300, h 1e-300, g(0) 2.25\n"),
    # P_t (m+1) overflows; K itself is about 3.6e209, and 3.9e208 W is below K / V^2.
    Row("k-past-partial-overflow",
        "led.transmit_power = 1e300\nled.lambertian_order = 1e10\npd.area = 1e-100",
        "estimate --power 3.9e208", 0, "", {"inverted_distance": "3"}),

    # The config boundary names the first bad line and exits 2.
    *(Row(name, text, "position-sweep", 2, "error: " + error) for name, text, error in (
        ("unknown-key", "foo.bar = 1", "ParseError: line 1: unknown key"),
        ("unknown-key-line-2", "room.width = 5.0\nfoo = 1", "ParseError: line 2: unknown key"),
        ("text-width", "room.width = 'a'", INVALID),
        ("fov-120", "pd.fov = 120", INVALID + "pd.fov must lie in (0, 90], got 120.0\n"),
        ("width-1e999", "room.width = 1e999", INVALID + "room.width must be finite, got inf\n"),
        ("power-1e999", "led.transmit_power = 1e999",
         INVALID + "led.transmit_power must be finite, got inf\n"),
        ("fractional-samples", "sweep.distance_samples = 2.7",
         INVALID + "sweep.distance_samples must be an integer, got 2.7\n"),
        ("unhashable", "room.width = {[]: 1}", "ParseError: line 1: invalid value '{[]: 1}'"),
        ("text-coordinate", 'led.position = ("a", 1, 2)',
         INVALID + "led.position must be a number, got 'a'"),
        ("none-coordinate", "sweep.positions = [(1, 2, None)]",
         INVALID + "sweep.positions must be a number, got None"),
        ("huge-int", "room.width = 1" + "0" * 400, INVALID + "room.width must be finite, got 1000"),
        ("text-count", 'sweep.distance_samples = "7.0"',
         INVALID + "sweep.distance_samples must be a number, got '7.0'"),
        ("text-number-on-line-3", "# a comment\nroom.length = 5.0\nroom.width = 'a'",
         "ValidationError: line 3: room.width must be a number, got 'a'\n"),
        ("bad-value-before-unknown-key", "room.width = 'a'\nfoo = 1",
         INVALID + "room.width must be a number"),
        ("unknown-key-before-bad-value", "foo = 1\nroom.width = 'a'",
         "ParseError: line 1: unknown key"),
        ("led-above-ceiling", "led.position = (2.5, 2.5, 1e200)",
         "ValidationError: led.position (2.5, 2.5, 1e+200) is outside the room"),
        ("led-off-floor", "led.position = (90.0, 2.5, 3.0)",
         "ValidationError: led.position (90.0, 2.5, 3.0) is outside the room"),
        ("led-height-underflows", "room.height = 1e-200\nled.position = (2.5, 2.5, 1e-200)",
         "ValidationError: led.position height 1e-200 is below 1.49167e-154 m"),
        ("negative-width", "room.width = -1", INVALID + "room.width " + ROOM_SIDE + "-1.0\n"),
        ("zero-length", "room.length = 0", INVALID + "room.length " + ROOM_SIDE + "0.0\n"),
        ("bool-height", "room.height = True", INVALID + "room.height must be a number, got True\n"),
        ("led-power-zero", "led.transmit_power = 0",
         INVALID + "led.transmit_power must be > 0, got 0.0\n"),
        ("half-power-90", "led.half_power_angle = 90",
         INVALID + "led.half_power_angle " + HALF_POWER + "90.0\n"),
        # cos rounds to 1 below about 6.03709e-07 degrees, and the order is infinite.
        ("half-power-infinite-order", "led.half_power_angle = 1e-9",
         INVALID + "led.half_power_angle " + HALF_POWER + "1e-09\n"),
        ("order-negative", "led.lambertian_order = -1",
         INVALID + "led.lambertian_order must be > 0, got -1.0\n"),
        ("area-zero", "pd.area = 0", INVALID + "pd.area must be > 0, got 0.0\n"),
        ("filter-gain-zero", "pd.filter_gain = 0",
         INVALID + "pd.filter_gain must be > 0, got 0.0\n"),
        ("index-below-1", "pd.refractive_index = 0.5",
         INVALID + "pd.refractive_index must be >= 1, got 0.5\n"),
        ("fov-infinite-gain", "pd.fov = 1e-160",
         "ValidationError: pd.fov 1e-160 with pd.refractive_index 1.5 gives an infinite "
         "concentrator gain\n"),
        ("point-arity", "led.position = (1.0, 2.0)",
         INVALID + "led.position must be a 3-tuple (x, y, z), got (1.0, 2.0)\n"),
        ("no-positions", "sweep.positions = []",
         INVALID + "sweep.positions must be a non-empty list of points, got []\n"),
        ("position-off-floor", "sweep.positions = [(1.0, 1.0, 0.5)]",
         "ValidationError: sweep.positions point 1 must lie on the floor plane (z = 0), "
         "got z=0.5\n"),
        ("position-outside-room", "sweep.positions = [(1.0, 1.0, 0.0), (5.5, 1.0, 0.0)]",
         "ValidationError: sweep.positions point 2 at (5.5, 1.0) is outside the room floor\n"),
        ("no-transmit-powers", "sweep.transmit_powers = []",
         INVALID + "sweep.transmit_powers must be a non-empty list of numbers, got []\n"),
        ("transmit-power-zero", "sweep.transmit_powers = [0]",
         INVALID + "sweep.transmit_powers must be > 0, got 0.0\n"),
        ("elevation-zero", "sweep.elevations = [0]",
         INVALID + "sweep.elevations must lie in (0, 90], got 0.0\n"),
        ("azimuth-360", "sweep.azimuth = 360",
         INVALID + "sweep.azimuth must lie in [0, 360), got 360.0\n"),
        ("distance-range-triple", "sweep.distance_range = (1, 2, 3)",
         INVALID + "sweep.distance_range must be (low, high), got (1, 2, 3)\n"),
        ("distance-range-reversed", "sweep.distance_range = (3, 2)",
         INVALID + "sweep.distance_range must satisfy low <= high, got (3.0, 2.0)\n"),
        ("no-equals", "room.width = 5.0\nnot a key value pair",
         "ParseError: line 2: expected 'key = value', got 'not a key value pair'\n"),
        ("duplicate-key", "pd.area = 1e-6\npd.area = 2e-6",
         "ParseError: line 2: duplicate key 'pd.area'\n"),
        # A lone surrogate escape is written as its byte: 0xff is no UTF-8.
        ("not-utf8", "room.width = 5\udcff", "ParseError: {work}/run.cfg is not UTF-8 text: "
         "'utf-8' codec can't decode byte 0xff in position 14: invalid start byte\n"),
    )),
    Row("missing-config", None, "position-sweep --config nope.cfg", 2, NO_FILE),
    Row("unwritable-out", None, "position-sweep --out missing/out.csv", 1, NO_FILE),

    # Configs that run: repeated families, the hash by value, --config and --out.
    Row("repeated-transmit-power", "sweep.transmit_powers = [8, 8]", "replicate", 0, ""),
    Row("repeated-families", "sweep.elevations = [90, 60, 90]\nsweep.transmit_powers = [8, 8]",
        "replicate", 0, ""),
    *(Row(f"hash-{name}", f"room.width = {width}\nsweep.positions = [{point}]",
          "position-sweep --out rows.csv", 0, "", {"config": digest})
      for name, width, point, digest in (
          ("ints", "5", "(1, 1, 0)", BY_VALUE_HASH),
          ("floats", "5.0e0", "(1.0, 1.0, 0.0)", BY_VALUE_HASH),
          ("signed", "5.0e0", "(1.0, 1.0, -0.0)", "3cd02d5e3402"))),
    # A whole float count meets its bounds as a float before it is read as its int.
    Row("samples-1e300", "sweep.distance_samples = 1e300", "position-sweep", 2,
        "error: " + INVALID + f"sweep.distance_samples {SAMPLES}1e+300\n"),
    Row("config-and-out", "sweep.positions = [(1.0, 1.0, 0.0), (2.0, 2.0, 0.0)]",
        "position-sweep --out rows.csv", 0, "",
        {(1, "actual_x"): "1", (2, "actual_x"): "2", (3, "actual_x"): None}),
    # Python spellings json rejects take the ast path to the same values.
    Row("python-spelled-positions", "sweep.positions = [(1., 1., 0.), (2., 2., 0.)]",
        "position-sweep", 0, "",
        digest="61f5527436cf4e23049652af857c5e64ede43774cffb942bacdb46c2a50081e3"),
    # A configured span, the figure_json workload's path.
    Row("angle-sweep-distance-range", "sweep.distance_range = (2, 4)",
        "angle-sweep --samples 5", 0, "", {(1, "distance"): "2", (5, "distance"): "4"},
        digest="b3d36576a7fa0b4feada32be15fd6bc2e2aa47a92fb27fafec1c8f707973e2c0"),
)

_KEPT = b"kept\r\nas it was\n"


def digest(output: bytes) -> str:
    """The sha256 of an output outside its metadata: the lines that start
    with '#' and the JSON "generated" line. A JSON output's "config" line is
    not metadata, so the digest pins the config hash too."""

    sha = hashlib.sha256()
    for line in output.splitlines(keepends=True):
        if not line.startswith(b"#") and b'"generated":' not in line:
            sha.update(line)
    return sha.hexdigest()


def _cells(text: str) -> dict:
    """Each `key = value` line by key, with or without a `# ` prefix, each
    other `# label: text` line by label (a repeated label's texts joined by
    newlines; a line without ": " is all label, its text ""), and each cell of
    the CSV table by (row, column)."""

    cells, table = {}, []
    for line in text.splitlines():
        key, sep, value = line.removeprefix("# ").partition(" = ")
        if sep:
            cells[key] = value
        elif line.startswith("# "):
            label, _, note = line[2:].partition(": ")
            cells[label] = cells[label] + "\n" + note if label in cells else note
        elif not line.startswith("#"):
            table.append(line)
    header, *rows = csv.reader(table or [""])
    for number, row in enumerate(rows, 1):
        cells.update(((number, column), cell) for column, cell in zip(header, row))
    return cells


def check(row: Row, run: Callable[[list], tuple]) -> None:
    """Run ``row`` through ``run(argv) -> (exit code, stdout, stderr)``.

    Raises AssertionError naming each way the run differs from the row. A run
    that fails with an ``error:`` line other than ReplicationRegression must
    also keep the error contract: that one stderr line, nothing on stdout,
    and no new ``--out`` file.
    """

    with tempfile.TemporaryDirectory() as work:
        argv = row.argv.split()
        if row.config is not None:
            Path(work, "run.cfg").write_text(
                row.config + "\n", encoding="utf-8", errors="surrogateescape"
            )
            argv += ["--config", "run.cfg"]
        for i, arg in enumerate(argv[:-1]):
            if arg in ("--config", "--out"):
                argv[i + 1] = os.path.join(work, argv[i + 1])
        out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        if row.out_kept:
            out.write_bytes(_KEPT)
        code, stdout, stderr = run(argv)
        problems = []
        if code != row.code:
            problems.append(f"exit code {code}, expected {row.code}")
        lines = stderr.splitlines(keepends=True)
        message = lines[-1] if lines and lines[0].startswith("usage:") else stderr
        err = row.err.replace("{work}", work)
        whole = err.endswith("\n") or not err
        if not (message == err if whole else message.startswith(err)):
            problems.append(f"stderr {stderr!r}, expected {err!r}")
        if row.err.startswith("error:") and "ReplicationRegression" not in row.err:
            if len(lines) != 1:
                problems.append(f"{len(lines)} stderr lines, expected 1")
            if stdout:
                problems.append(f"stdout {stdout[:200]!r} from a failing run")
            if out is not None and out.exists() and not row.out_kept:
                problems.append("a failing run wrote --out")
        if row.out_kept and out.read_bytes() != _KEPT:
            problems.append("the existing --out file changed")
        output = out.read_bytes() if out and out.exists() else stdout.encode("utf-8")
        cells = _cells(output.decode("utf-8")) if row.cells else {}
        problems += [
            f"cell {key!r} is {cells.get(key)!r}, expected {value!r}"
            for key, value in row.cells.items()
            if cells.get(key) != value
        ]
        if row.digest and digest(output) != row.digest:
            problems.append(f"output digest {digest(output)}, expected {row.digest}")
    if problems:
        raise AssertionError("; ".join(problems))


def _installed(argv: list) -> tuple:
    env = {**os.environ, "PYTHONDEVMODE": "1", "PYTHONWARNINGS": "error"}
    done = subprocess.run(
        ["vlcpos", *argv], env=env, capture_output=True, encoding="utf-8", timeout=300
    )
    return done.returncode, done.stdout, done.stderr


def main() -> int:
    failed = 0
    for row in ROWS:
        try:
            check(row, _installed)
        except AssertionError as exc:
            failed += 1
            print(f"FAILED {row.name}: {exc}", file=sys.stderr)
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
