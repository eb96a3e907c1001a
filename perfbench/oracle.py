"""Independent output checker for the benchmark.

Re-derives every row the program emits from the closed-form model, written
here from the equations alone (no vlcpos import):

    P      = K V^(m+1) / d^(m+3),  K = Pt (m+1) A h g / (2 pi),  g = n^2 / sin^2(fov)
    d      = (K V^(m+1) / P)^(1/(m+3)),  clamped to d >= V
    fused  = (d_hor sin(theta) + d_hor cos(theta)) / 2,  sin(theta) = V / d
    est    = LED floor projection + fused (cos az, sin az)

Cells are looked up by column name, so columns added later do not break the
check. A numeric cell matches when it equals the oracle value up to the
program's 6-significant-digit rounding.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass

SIGNIFICANT_DIGITS = 6


class CheckFailed(Exception):
    """An emitted value disagrees with the oracle; the message names the cell."""


@dataclass(frozen=True)
class Scenario:
    """The model inputs the benchmark writes into a config file."""

    positions: tuple[tuple[float, float], ...]
    distance_range: tuple[float, float] | None = None
    room: tuple[float, float, float] = (5.0, 5.0, 3.0)
    led: tuple[float, float, float] = (2.5, 2.5, 3.0)
    transmit_power: float = 15.0
    half_power_angle: float = 60.0
    area: float = 2.25e-6
    fov: float = 90.0
    filter_gain: float = 1.0
    refractive_index: float = 1.5
    transmit_powers: tuple[float, ...] = (8.0, 10.0, 12.0, 15.0)
    elevations: tuple[float, ...] = (60.0, 70.0, 80.0, 90.0)
    azimuth: float = 225.0
    distance_samples: int = 50

    def config_text(self) -> str:
        def floats(values):
            return "[" + ", ".join(repr(v) for v in values) + "]"

        lines = [
            f"room.width = {self.room[0]!r}",
            f"room.length = {self.room[1]!r}",
            f"room.height = {self.room[2]!r}",
            f"led.position = ({self.led[0]!r}, {self.led[1]!r}, {self.led[2]!r})",
            f"led.transmit_power = {self.transmit_power!r}",
            f"led.half_power_angle = {self.half_power_angle!r}",
            f"pd.area = {self.area!r}",
            f"pd.fov = {self.fov!r}",
            f"pd.filter_gain = {self.filter_gain!r}",
            f"pd.refractive_index = {self.refractive_index!r}",
            "sweep.positions = ["
            + ", ".join(f"({x!r}, {y!r}, 0.0)" for x, y in self.positions)
            + "]",
            f"sweep.transmit_powers = {floats(self.transmit_powers)}",
            f"sweep.elevations = {floats(self.elevations)}",
            f"sweep.azimuth = {self.azimuth!r}",
            f"sweep.distance_samples = {self.distance_samples!r}",
        ]
        if self.distance_range is not None:
            lines.append(f"sweep.distance_range = {self.distance_range!r}")
        return "\n".join(lines) + "\n"

    # -- closed form -------------------------------------------------------

    @property
    def order(self) -> float:
        return -math.log(2.0) / math.log(math.cos(math.radians(self.half_power_angle)))

    def gain_constant(self, transmit_power: float | None = None) -> float:
        pt = self.transmit_power if transmit_power is None else transmit_power
        g = self.refractive_index**2 / math.sin(math.radians(self.fov)) ** 2
        return pt * (self.order + 1.0) * self.area * self.filter_gain * g / (2.0 * math.pi)

    def slant(self, x: float, y: float) -> float:
        lx, ly, v = self.led
        return math.sqrt((x - lx) ** 2 + (y - ly) ** 2 + v * v)

    def power(self, x: float, y: float, transmit_power: float | None = None) -> float:
        """Received power of a floor PD at (x, y) (inside the FOV)."""
        m, v = self.order, self.led[2]
        return self.gain_constant(transmit_power) * v ** (m + 1.0) / self.slant(x, y) ** (m + 3.0)

    def max_power(self) -> float:
        """On-axis maximum, directly under the LED."""
        return self.gain_constant() / self.led[2] ** 2

    def invert(self, power: float) -> tuple[float, float, float]:
        """(est_x, est_y, d) for one reading, with d clamped to d >= V."""
        m, v = self.order, self.led[2]
        d = max((self.gain_constant() * v ** (m + 1.0) / power) ** (1.0 / (m + 3.0)), v)
        d_hor = math.sqrt(max(d * d - v * v, 0.0))
        fused = d_hor * (v + d_hor) / (2.0 * d)
        az = math.radians(self.azimuth)
        return self.led[0] + fused * math.cos(az), self.led[1] + fused * math.sin(az), d

    def fixed_angle_power(self, elevation: float, distance: float) -> float:
        """Figure parameterization: both angles held at 90 - elevation."""
        normal = 90.0 - elevation
        if normal > self.fov:
            return 0.0
        m, c = self.order, math.cos(math.radians(normal))
        g = self.refractive_index**2 / math.sin(math.radians(self.fov)) ** 2
        return (
            self.transmit_power / distance**2 * (m + 1.0) / (2.0 * math.pi) * c**m
            * self.area * self.filter_gain * g * c
        )

    # -- expected tables ---------------------------------------------------

    def position_rows(self) -> list[dict[str, float]]:
        rows = []
        for index, (x, y) in enumerate(self.positions, start=1):
            p = self.power(x, y)
            ex, ey, _ = self.invert(p)
            rows.append({
                "index": index, "actual_x": x, "actual_y": y, "est_x": ex, "est_y": ey,
                "slant_d": self.slant(x, y), "received_power": p,
                "error_m": math.hypot(ex - x, ey - y),
            })
        return rows

    def power_rows(self) -> list[dict[str, float]]:
        lx, ly, _ = self.led
        ordered = sorted(self.positions, key=lambda p: (p[0] - lx) ** 2 + (p[1] - ly) ** 2)
        return [
            {"transmit_power": pt, "distance": self.slant(x, y),
             "received_power": self.power(x, y, pt)}
            for pt in self.transmit_powers for x, y in ordered
        ]

    def angle_rows(self, samples: int) -> list[dict[str, float]]:
        if self.distance_range is None:
            slants = [self.slant(x, y) for x, y in self.positions]
            low, high = min(slants), max(slants)
        else:
            low, high = self.distance_range
        distances = [low + i * (high - low) / (samples - 1) for i in range(samples)]
        return [
            {"elevation": e, "distance": d, "received_power": self.fixed_angle_power(e, d)}
            for e in self.elevations for d in distances
        ]


def walk_point(t: float) -> tuple[float, float]:
    """Point at fraction t of the 225-degree half-diagonal walk (2.5, 2.5) -> (0.07, 0.07)."""
    c = 2.5 + t * (0.07 - 2.5)
    return c, c


# ---------------------------------------------------------------------------
# Reading and comparing emitted tables
# ---------------------------------------------------------------------------


def read_table(path: str) -> tuple[list[str], list[list]]:
    """Columns and rows of an emitted CSV (metadata lines skipped) or JSON table."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        return payload["columns"], payload["rows"]
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _matches(cell, expected: float, floor: float) -> bool:
    value = float(cell)
    if value == expected:
        return True
    tol = floor
    if expected != 0.0:
        exponent = math.floor(math.log10(abs(expected)))
        # Half a unit in the last printed digit, plus room for the program's
        # own rounding landing on the other side of a boundary.
        tol = max(tol, 0.5 * 10.0 ** (exponent - SIGNIFICANT_DIGITS + 1) * (1 + 1e-6))
    return abs(value - expected) <= tol


def check_table(path: str, expected: list[dict[str, float]], what: str) -> int:
    """Compare an emitted table with the oracle rows; returns the row count."""
    columns, rows = read_table(path)
    if len(rows) != len(expected):
        raise CheckFailed(f"{what}: {len(rows)} rows emitted, oracle has {len(expected)}")
    if not expected:
        return 0
    names = list(expected[0])
    missing = [name for name in names if name not in columns]
    if missing:
        raise CheckFailed(f"{what}: columns {missing} missing from {columns}")
    where = {name: columns.index(name) for name in names}
    # Values within 1e-12 of the column's scale are float noise (e.g. the
    # error directly under the LED), not a printed digit.
    floors = {n: 1e-12 * max(abs(r[n]) for r in expected) for n in names}
    for number, (row, want) in enumerate(zip(rows, expected), start=1):
        for name in names:
            cell = row[where[name]]
            if not _matches(cell, want[name], floors[name]):
                raise CheckFailed(
                    f"{what}: row {number} column {name} is {cell}, oracle {want[name]!r}"
                )
    return len(rows)


def check_estimate_text(path: str, sc: Scenario, power: float, actual: tuple[float, float]) -> None:
    """Check the key = value output of `vlcpos estimate --power P --actual X Y`."""
    with open(path, encoding="utf-8") as handle:
        values = dict(
            line.split(" = ", 1) for line in handle.read().splitlines() if " = " in line
        )
    ex, ey, d = sc.invert(power)
    got = re.fullmatch(r"\(([^,]+), ([^,]+), 0\)", values.get("estimated", ""))
    if got is None:
        raise CheckFailed(f"estimate: no 'estimated = (x, y, 0)' line in {values}")
    expected = {
        "estimated.x": (got.group(1), ex),
        "estimated.y": (got.group(2), ey),
        "inverted_distance": (values.get("inverted_distance"), d),
        "positioning_error": (values.get("positioning_error"), math.hypot(ex - actual[0], ey - actual[1])),
    }
    for name, (cell, want) in expected.items():
        if cell is None or not _matches(cell, want, 1e-12):
            raise CheckFailed(f"estimate: {name} is {cell}, oracle {want!r}")


REPLICATION_SUMMARY = "checks: 14 total, 8 reproduced, 2 trend-only, 4 not-reproducible, 0 regressions"


def check_replicate_text(path: str) -> None:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[-1] != REPLICATION_SUMMARY:
        raise CheckFailed(f"replicate: summary {lines[-1:]} != {REPLICATION_SUMMARY!r}")


def check_stream(sc: Scenario, readings, estimates, rejected) -> None:
    """Streamed one-shot estimates must match to 1e-9 relative; a rejection
    is allowed only where the reading exceeds the on-axis maximum."""
    limit = sc.max_power()
    for i, power in enumerate(readings):
        if rejected[i]:
            if not power > limit:
                raise CheckFailed(f"stream: reading {i} ({power!r} W) rejected below the on-axis maximum {limit!r}")
            continue
        ex, ey, _ = sc.invert(power)
        for got, want in ((estimates[2 * i], ex), (estimates[2 * i + 1], ey)):
            if not abs(got - want) <= 1e-9 * max(abs(got), abs(want), 1.0):
                raise CheckFailed(f"stream: reading {i} estimate {got!r}, oracle {want!r}")
