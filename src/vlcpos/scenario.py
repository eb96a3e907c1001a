"""Experiment orchestration: position sweeps, figure-style sweeps, replication.

Three runners cover the published experiments: run_position_sweep walks the
PD over the configured floor positions with fully coupled geometry;
run_power_distance_sweep evaluates the coupled channel for each configured
transmit power; run_angle_sweep reproduces the figure parameterization that
holds the angle factor fixed while the distance varies (geometrically
impossible for one fixed LED, but that is how the published families are
drawn; both modes exist and are named).

replication_report compares computed values against the embedded reference
dataset and returns its checks, one row each, graded REPRODUCED, TREND-ONLY,
or NOT-REPRODUCIBLE. Every check carries the grade it is expected to earn; a
check regresses only when its actual grade differs from the expected one, so
documented defects of the reference data stay visible without failing the
run. The modeling assumptions the checks rest on are ASSUMPTIONS.
"""

from __future__ import annotations

import math
from array import array
from itertools import pairwise, starmap
from typing import Callable, Iterator, NamedTuple, Sequence

from .channel import LedSpec, PdSpec, power_columns, received_power
from .errors import DomainError, ValidationError
from .estimator import estimate_position
from .geometry import (
    _MAX_ROOM_SIZE, _MIN_LED_HEIGHT, Point3, RoomSpec, _record, _Rule, link_columns, link_geometry,
)

__all__ = [
    "ScenarioConfig",
    "ReplicationCheck",
    "FigureRows",
    "default_config",
    "run_position_sweep",
    "run_power_distance_sweep",
    "run_angle_sweep",
    "replication_report",
    "REFERENCE_DATASET_VERSION",
    "ASSUMPTIONS",
]

# ---------------------------------------------------------------------------
# Reference dataset (versioned, embedded so the replication report runs
# offline). Values are the published ten-position table, figure endpoints,
# and headline claims of the study being replicated.
# ---------------------------------------------------------------------------

REFERENCE_DATASET_VERSION = "1.0.0"

# The modeling assumptions every check rests on, printed with the report.
ASSUMPTIONS = (
    "vertical separation V in the horizontal-distance relation is read as "
    "the LED-PD height difference (3.0 m in the default room)",
    "figure-mode sweeps hold the angle factor fixed across the distance "
    "axis as the published families do; the position sweep couples the "
    "angles to the true geometry",
    "a single-LED intensity measurement cannot disambiguate direction, so "
    "estimates are anchored along the configured azimuth (225 degrees for "
    "the published half-diagonal)",
    "the position sweep runs at 15 W; positioning results are "
    "power-independent in this noiseless model",
    "position-8 estimated coordinates of the reference table use the "
    "symmetric reading, see reference_position8_symmetry",
)

# Actual PD coordinates (x = y on the half-diagonal), positions 1..10.
REFERENCE_ACTUAL_XY = (2.50, 2.23, 1.96, 1.69, 1.42, 1.15, 0.88, 0.61, 0.34, 0.07)

# Published estimated coordinates (x = y). Position 8 is printed asymmetric
# in the source, (0.5591, 0.5519), against its own stated X/Y symmetry; only
# the symmetric reading 0.5591 reproduces the published error 0.0719 (within
# 8.4e-5 versus 5.3e-3 as printed), so the symmetric value is used here and
# the as-printed pair is graded separately.
REFERENCE_ESTIMATED_XY = (
    2.5009,
    2.2336,
    1.9515,
    1.6724,
    1.3933,
    1.1149,
    0.8363,
    0.5591,
    0.2851,
    0.0136,
)
REFERENCE_POSITION8_AS_PUBLISHED = (0.5591, 0.5519)

# Published positioning-error column and its headline aggregates.
REFERENCE_ERRORS = (
    0.0013,
    0.0050,
    0.0118,
    0.0247,
    0.0376,
    0.0495,
    0.0616,
    0.0719,
    0.0776,
    0.0797,
)
REFERENCE_MEAN_ERROR = 0.042
REFERENCE_FIRST_EIGHT_MEAN = 0.032  # headline "3.2 cm in 80% of the positions"
REFERENCE_ERROR_SPREAD = 0.0784  # "increases by 7.84%" between positions 1 and 10

# Published link distances at the first and tenth positions.
REFERENCE_CENTER_DISTANCE = 3.0
REFERENCE_CORNER_DISTANCE = 4.56

# Published received-power families: per transmit power, the plotted values
# at the center (3 m) and corner (4.56 m) distances, in watts as printed.
REFERENCE_POWER_FAMILIES = {
    8.0: (2.34, 1.02),
    10.0: (2.92, 1.29),
    12.0: (3.51, 1.54),
    15.0: (4.5, 1.92),
}

# Per-axis displacement from the LED floor projection implied by the
# published corner estimate: 2.5 - 0.0136.
REFERENCE_IMPLIED_CORNER_DISPLACEMENT = 2.4864

# _TOL_TABLE is half a unit in the 3rd decimal, not the 4th the reference
# tables print: their error column lies up to 2.2e-4 (position 3) from the
# errors recomputed from their coordinates. _TOL_HEADLINE is half a unit in the
# 3rd decimal that the headline values print.
_TOL_TABLE = 5e-4
_TOL_HEADLINE = 5e-4
_TOL_DISTANCE = 5e-3


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _led_outside(config: ScenarioConfig) -> str:
    room, source = config.room, config.led.position
    if not (room.contains_floor_point(source) and 0.0 < source.z <= room.height):
        return f"led.position ({source.x}, {source.y}, {source.z}) is outside the room"
    if source.z < _MIN_LED_HEIGHT:
        return (f"led.position height {source.z} is below {_MIN_LED_HEIGHT:g} m, where "
                "the squared link distances underflow")
    return ""


def _position_outside(config: ScenarioConfig) -> str:
    on_floor = config.room.contains_floor_point
    for i, pos in enumerate(config.pd_positions, start=1):
        if pos.z != 0.0:
            return f"sweep.positions point {i} must lie on the floor plane (z = 0), got z={pos.z}"
        if not on_floor(pos):
            return f"sweep.positions point {i} at ({pos.x}, {pos.y}) is outside the room floor"
    return ""


class ScenarioConfig(_record(
        "_Scenario", "room led pd_template pd_positions transmit_powers sweep_elevations "
        "azimuth distance_samples distance_range", error=ValidationError,
        joined=((("led.position", "room.width", "room.length", "room.height"), _led_outside),
                (("sweep.positions", "room.width", "room.length"), _position_outside)),
        transmit_powers=LedSpec._rules["transmit_power"]._replace(shape="list"),
        sweep_elevations=_Rule(0.0, 90.0, "(]", shape="list"), azimuth=_Rule(0.0, 360.0, "[)"),
        pd_positions=_Rule(shape="points"), distance_samples=_Rule(2.0, 1e6, "[]", integer=True),
        distance_range=_Rule(_MIN_LED_HEIGHT, _MAX_ROOM_SIZE, "[]", shape="span"))):
    """Complete description of one experiment scenario.

    pd_template is the one detector the sweeps place at each of pd_positions,
    the floor points the position sweep visits. The joined rules keep the LED
    in the room, at least _MIN_LED_HEIGHT (about 1.5e-154 m) up, and each
    position on its floor. distance_range is the figure sweeps' span; None
    derives it from the positions. At most 10^6 distance_samples bound their
    rows and memory.
    """

    __slots__ = ()

    def __new__(cls, room: RoomSpec, led: LedSpec, pd_template: PdSpec,
                pd_positions: tuple[Point3, ...], transmit_powers: tuple[float, ...],
                sweep_elevations: tuple[float, ...], azimuth: float, distance_samples: int = 50,
                distance_range: tuple[float, float] | None = None) -> ScenarioConfig:
        # An unset span passes its rule as a stand-in, and is stored as None.
        config = super().__new__(cls, room, led, pd_template, pd_positions, transmit_powers,
                                 sweep_elevations, azimuth, distance_samples,
                                 (1.0, 1.0) if distance_range is None else distance_range)
        return config if distance_range is not None else tuple.__new__(cls, (*config[:8], None))


def default_config() -> ScenarioConfig:
    """The published configuration: 5x5x3 room, one ceiling LED, ten floor points.

    The LED transmit power defaults to 15 W, the family whose plotted peak
    anchors the absolute-power comparison; positioning results do not depend
    on it in this noiseless model.
    """

    room = RoomSpec(width=5.0, length=5.0, height=3.0)
    led = LedSpec(position=Point3(2.5, 2.5, 3.0), transmit_power=15.0, half_power_angle=60.0)
    # Ten points from under the LED to the corner end of the half-diagonal,
    # the last pinned so that 0.07 is exact.
    walk = [2.5 + i / 9 * (0.07 - 2.5) for i in range(9)] + [0.07]
    pd = PdSpec(area=2.25e-6, fov=90.0, filter_gain=1.0, refractive_index=1.5)
    return ScenarioConfig(
        room=room,
        led=led,
        pd_template=pd,
        pd_positions=tuple(Point3(c, c, 0.0) for c in walk),
        transmit_powers=(8.0, 10.0, 12.0, 15.0),
        sweep_elevations=(60.0, 70.0, 80.0, 90.0),
        azimuth=225.0,
    )


def run_position_sweep(
    config: ScenarioConfig,
) -> tuple[tuple[int, float, float, float, float, float, float, float], ...]:
    """(index, actual_x, actual_y, est_x, est_y, slant_d, received_power, error_m)
    for each configured position, index 1-based.

    Each position is one received_power and one estimate_position call, so a
    sweep row is exactly what the one-shot API reports for that position.

    Raises:
        DomainError subclasses from the underlying modules, annotated with the
        1-based position index.
    """

    led, pd, azimuth = config.led, config.pd_template, config.azimuth
    rows = []
    for index, position in enumerate(config.pd_positions, start=1):
        try:
            slant, _, power = received_power(led, pd, position)
            (est_x, est_y, _), _, _, _, _, error = estimate_position(
                power, led, pd, azimuth, position
            )
        except DomainError as exc:
            raise type(exc)(f"position {index}: {exc}") from exc
        x, y, _ = position
        rows.append((index, x, y, est_x, est_y, slant, power, error))
    return tuple(rows)


class FigureRows:
    """A figure sweep's rows (label, distance, power), held as its families: the
    labels, their shared distance column (an array of doubles) and family i's
    power column, family_powers(i), computed each time the family is reached."""

    def __init__(self, labels: Sequence[float], distances: array,
                 family_powers: Callable[[int], list[float]]) -> None:
        self.labels, self.distances, self._family_powers = labels, distances, family_powers

    def families(self) -> Iterator[tuple[float, array, list[float]]]:
        """(label, distances, powers) per family in order, each computed as it is reached."""
        for i, label in enumerate(self.labels):
            yield label, self.distances, self._family_powers(i)

    def __len__(self) -> int:
        return len(self.labels) * len(self.distances)


def run_power_distance_sweep(config: ScenarioConfig) -> FigureRows:
    """(transmit_power, distance, received_power) over powers x positions.

    One family per transmit power in configured order, over the positions'
    slant distances in ascending order; the geometry is fully coupled as in
    the position sweep. Its size is set by the configured positions, not by a
    sample count, so every family is computed here, and a transmit power that
    puts K past the float range raises before any row is written.
    """

    led = config.led
    # (slant, cosine) pairs by distance: floor points share V, so equal slants
    # carry equal cosines and give equal rows.
    slants, cosines = zip(*sorted(zip(*link_columns(led.position, config.pd_positions))))
    slants = array("d", slants)
    walks = [
        power_columns(led._replace(transmit_power=power), config.pd_template, slants, cosines)
        for power in config.transmit_powers
    ]
    return FigureRows(config.transmit_powers, slants, walks.__getitem__)


def run_angle_sweep(config: ScenarioConfig) -> FigureRows:
    """(elevation, distance, received_power) with the angle factor held fixed.

    This is the figure parameterization: each family keeps its labelled
    elevation across the whole distance axis, so only the inverse-square term
    varies within a family. Elevation e maps to the link cosine cos(90 - e),
    taken once per family. Without a configured distance_range the span runs
    from the nearest to the farthest configured position. Only the distance
    column is computed here; a family's powers are computed when it is reached.
    """

    if config.distance_range is None:
        slants, _ = link_columns(config.led.position, config.pd_positions)
        low, high = min(slants), max(slants)
    else:
        low, high = config.distance_range
    count = config.distance_samples
    distances = array("d", [low + i * (high - low) / (count - 1) for i in range(count)])
    elevations = config.sweep_elevations

    def family_powers(i: int) -> list[float]:
        cosines = [math.cos(math.radians(90.0 - elevations[i]))] * count
        return power_columns(config.led, config.pd_template, distances, cosines)

    return FigureRows(elevations, distances, family_powers)


# ---------------------------------------------------------------------------
# Replication report
# ---------------------------------------------------------------------------


class ReplicationCheck(NamedTuple):
    """One graded comparison between a computed and a reference value, its
    fields in the replication table's column order.

    difference is the absolute gap for value checks and None for checks whose
    computed column is already a violation count. verdict is the grade earned,
    "REPRODUCED", "TREND-ONLY" or "NOT-REPRODUCIBLE", and expected the grade
    the check is known to earn; verdict != expected marks a regression.
    """

    name: str
    reference: float
    computed: float
    difference: float | None
    verdict: str
    expected: str
    note: str

    @property
    def regressed(self) -> bool:
        return self.verdict != self.expected


def _grade(
    name: str,
    reference: float,
    computed: float,
    tol: float | None,
    trend_tol: float | None,
    expected: str,
    note: str,
) -> ReplicationCheck:
    """REPRODUCED within tol, else TREND-ONLY within trend_tol when given, else
    NOT-REPRODUCIBLE.

    A row with tol None is a count check: computed is a violation count, only
    zero reproduces, and the check carries no difference.
    """

    difference = abs(computed - reference)
    if difference <= (0.0 if tol is None else tol):
        verdict = "REPRODUCED"
    elif trend_tol is not None and difference <= trend_tol:
        verdict = "TREND-ONLY"
    else:
        verdict = "NOT-REPRODUCIBLE"
    if tol is None:
        difference = None
    return ReplicationCheck(name, reference, computed, difference, verdict, expected, note)


def replication_report(config: ScenarioConfig) -> tuple[ReplicationCheck, ...]:
    """Compare computed results against the embedded reference dataset.

    Designed for the default configuration; the reference values only
    describe that scenario.
    """

    # Rows end (slant_d, received_power, error_m).
    sweep = run_position_sweep(config)
    *_, center_slant, center_power, _ = sweep[0]
    *_, corner_slant, corner_power, _ = sweep[-1]
    errors = [error for *_, error in sweep]
    _, center_cosine = link_geometry(config.led.position, config.pd_positions[0])

    # Reference error column recomputed from the reference coordinate pairs.
    recomputed = [
        math.dist((a, a), (e, e)) for a, e in zip(REFERENCE_ACTUAL_XY, REFERENCE_ESTIMATED_XY)
    ]
    max_row_gap = max(
        abs(r - published) for r, published in zip(recomputed, REFERENCE_ERRORS)
    )
    reference_mean = sum(REFERENCE_ERRORS) / len(REFERENCE_ERRORS)
    first_eight_mean = sum(REFERENCE_ERRORS[:8]) / 8

    # Published row-8 estimate as printed, graded against the published error.
    a8 = REFERENCE_ACTUAL_XY[7]
    row8_as_published = math.dist((a8, a8), REFERENCE_POSITION8_AS_PUBLISHED)

    plotted_center, plotted_corner = REFERENCE_POWER_FAMILIES[15.0]

    # Estimated coordinates of the reference table vs the estimator pipeline.
    corner_offset = estimate_position(
        corner_power, config.led, config.pd_template, azimuth=config.azimuth
    ).fused
    (led_x, led_y, _), (x, y, _) = config.led.position, config.pd_positions[-1]
    attainable = math.dist((led_x, led_y), (x, y)) * math.sqrt(2.0) / 2.0

    # Trend checks over the implemented pipeline, as violation counts. Each
    # family is read as its runner gives it: grouping rows by value would join
    # the walks of a repeated power. The angle families run once per distinct
    # elevation, highest first, each compared with the one before: two are held.
    walks = [powers for _, _, powers in run_power_distance_sweep(config).families()]
    power_violations = sum(not b < a for walk in walks for a, b in pairwise(walk))
    descending = config._replace(sweep_elevations=sorted(set(config.sweep_elevations))[::-1])
    angle_violations, high = 0, []
    for _, _, low in run_angle_sweep(descending).families():
        angle_violations += sum(not a > b for a, b in zip(high, low))
        high = low
    error_violations = sum(b < a for a, b in pairwise(errors))

    reproduced, not_reproducible = "REPRODUCED", "NOT-REPRODUCIBLE"
    # (name, reference, computed, tol, trend_tol, expected, note); tol None
    # marks a count check.
    rows = (
        ("center_slant_distance", REFERENCE_CENTER_DISTANCE, center_slant,
         _TOL_DISTANCE, None, reproduced, "LED-PD distance at the first position"),
        ("corner_slant_distance", REFERENCE_CORNER_DISTANCE, corner_slant,
         _TOL_DISTANCE, None, reproduced, "LED-PD distance at the tenth position"),
        ("center_elevation_angle", 90.0, math.degrees(math.asin(center_cosine)), 1e-9, None,
         reproduced, "CSA angles equal 90 degrees directly under the LED"),
        ("reference_error_column", 0.0, max_row_gap, _TOL_TABLE, None, reproduced,
         "max per-row gap between errors recomputed from the reference "
         "coordinate pairs and the published column (4-decimal rounding)"),
        ("reference_mean_error", REFERENCE_MEAN_ERROR, reference_mean,
         _TOL_HEADLINE, None, reproduced,
         "mean of the published error column vs the published 0.042 m headline"),
        ("first_eight_mean_error", REFERENCE_FIRST_EIGHT_MEAN,
         first_eight_mean, _TOL_HEADLINE, 2e-3, "TREND-ONLY",
         "published headline 3.2 cm for 80% of positions; the column mean "
         "is 0.032925 m, which rounds to 3.3 cm, not 3.2"),
        ("reference_position8_symmetry", REFERENCE_ERRORS[7], row8_as_published,
         _TOL_TABLE, None, not_reproducible,
         "as printed the position-8 estimate (0.5591, 0.5519) breaks the "
         "stated X/Y symmetry and misses the published error by 5.3e-3; "
         "the symmetric reading 0.5591 reproduces it within 8.4e-5"),
        ("published_absolute_power", plotted_center, center_power,
         _TOL_HEADLINE, None, not_reproducible,
         "closed-form received power at 3 m, 90 degrees, 15 W is "
         f"{center_power:.4g} W against the plotted 4.5 W, a factor of "
         f"{plotted_center / center_power:.3g}; no scaling "
         "constant is published"),
        ("published_power_decay_ratio", plotted_center / plotted_corner,
         center_power / corner_power, 0.05, None, not_reproducible,
         "published curves decay by ~2.34x over the diagonal, matching pure "
         "inverse-square; the modelled decay is d^-(m+3), a 5.35x drop"),
        ("published_estimated_coordinates", REFERENCE_IMPLIED_CORNER_DISPLACEMENT,
         corner_offset, _TOL_TABLE, None, not_reproducible,
         "the published corner estimate implies a 2.4864 m per-axis "
         "displacement; the equations yield a fused offset of "
         f"{corner_offset:.4f} m and cannot exceed {attainable:.4f} m, so "
         "the published coordinate generation procedure is unknown"),
        ("power_monotonic_decrease", 0.0, float(power_violations), None, None, reproduced,
         "received power strictly decreases over positions 1 to 10 for "
         "every configured transmit power"),
        ("angle_family_ordering", 0.0, float(angle_violations), None, None, reproduced,
         "figure families ordered pointwise by elevation, 90 > 80 > 70 > 60"),
        ("pipeline_error_monotonic", 0.0, float(error_violations), None, None, reproduced,
         "positioning error is zero at the center and non-decreasing "
         "toward the corner, matching the published trend"),
        # Off the published value, the spread still shows the trend while the
        # errors grow monotonically.
        ("pipeline_error_spread", REFERENCE_ERROR_SPREAD, max(errors) - min(errors),
         _TOL_HEADLINE, math.inf if error_violations == 0 else None, "TREND-ONLY",
         "difference between the tenth and first position errors; the "
         "published 0.0784 m is not recoverable from the equations, the "
         "growth trend is"),
    )
    return tuple(starmap(_grade, rows))
