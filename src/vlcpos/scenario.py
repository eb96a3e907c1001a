"""Experiment orchestration: position sweeps, figure-style sweeps, replication.

Three runners cover the published experiments: run_position_sweep walks the
PD over the configured floor positions with fully coupled geometry;
run_power_distance_sweep evaluates the coupled channel for each configured
transmit power; run_angle_sweep reproduces the figure parameterization that
holds the angle factor fixed while the distance varies (geometrically
impossible for one fixed LED, but that is how the published families are
drawn; both modes exist and are named).

replication_report compares computed values against the embedded reference
dataset and grades each check REPRODUCED, TREND-ONLY, or NOT-REPRODUCIBLE.
Every check carries the grade it is expected to earn; a report regresses only
when a check's actual grade differs from the expected one, so documented
defects of the reference data stay visible without failing the run.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from itertools import repeat, starmap
from typing import Sequence

from .channel import LedSpec, PdSpec, power_columns, received_power
from .errors import DomainError, ValidationError
from .estimator import estimate_position
from .geometry import Point3, RoomSpec, euclidean_distance, link_columns, link_geometry

__all__ = [
    "ScenarioConfig",
    "SweepResult",
    "Verdict",
    "ReplicationCheck",
    "ReplicationReport",
    "default_config",
    "run_position_sweep",
    "run_power_distance_sweep",
    "run_angle_sweep",
    "replication_report",
    "REFERENCE_DATASET_VERSION",
]

# ---------------------------------------------------------------------------
# Reference dataset (versioned, embedded so the replication report runs
# offline). Values are the published ten-position table, figure endpoints,
# and headline claims of the study being replicated.
# ---------------------------------------------------------------------------

REFERENCE_DATASET_VERSION = "1.0.0"

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
REFERENCE_PLOTTED_PEAK_POWER = 4.5  # at 3 m, 90 degrees, 15 W

# Per-axis displacement from the LED floor projection implied by the
# published corner estimate: 2.5 - 0.0136.
REFERENCE_IMPLIED_CORNER_DISPLACEMENT = 2.4864

# Half a unit in the last printed digit of the reference tables (4 decimals)
# and of the headline values (3 decimals / coarse figure readouts).
_TOL_TABLE = 5e-4
_TOL_HEADLINE = 5e-4
_TOL_DISTANCE = 5e-3


# ---------------------------------------------------------------------------
# Configuration and sweep results
# ---------------------------------------------------------------------------


# The lowest LED whose squared height above the floor is a normal float.
# Below it the slant distance of a PD under the LED can round to 0, and the
# link geometry divides by it.
_MIN_LED_HEIGHT = math.sqrt(sys.float_info.min)


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one experiment scenario.

    pd_template is the one detector the sweeps place at each of pd_positions,
    the floor points the position sweep visits. The LED must lie inside the
    room, at least _MIN_LED_HEIGHT (about 1.5e-154 m) above the floor.
    distance_range is the span for the figure-style sweeps; None derives it
    from the configured positions.
    """

    room: RoomSpec
    led: LedSpec
    pd_template: PdSpec
    pd_positions: tuple[Point3, ...]
    transmit_powers: tuple[float, ...]
    sweep_elevations: tuple[float, ...]
    azimuth: float
    distance_samples: int = 50
    distance_range: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        led = self.led.position
        if not (self.room.contains_floor_point(led) and 0.0 < led.z <= self.room.height):
            raise ValidationError(
                f"led position ({led.x}, {led.y}, {led.z}) is outside the room"
            )
        if led.z < _MIN_LED_HEIGHT:
            raise ValidationError(
                f"led height {led.z} is below {_MIN_LED_HEIGHT:.3g} m, where the "
                "squared link distances underflow"
            )
        if len(self.pd_positions) == 0:
            raise ValidationError("pd_positions must not be empty")
        for i, pos in enumerate(self.pd_positions, start=1):
            if pos.z != 0.0:
                raise ValidationError(
                    f"pd position {i} must lie on the floor plane (z = 0), got z={pos.z}"
                )
            if not self.room.contains_floor_point(pos):
                raise ValidationError(
                    f"pd position {i} at ({pos.x}, {pos.y}) is outside the room floor"
                )
        if len(self.transmit_powers) == 0:
            raise ValidationError("transmit_powers must not be empty")
        for p in self.transmit_powers:
            if not p > 0.0:
                raise ValidationError(f"transmit power must be > 0, got {p}")
        if len(self.sweep_elevations) == 0:
            raise ValidationError("sweep_elevations must not be empty")
        for elevation in self.sweep_elevations:
            if not 0.0 < elevation <= 90.0:
                raise ValidationError(
                    f"sweep elevation must lie in (0, 90] degrees, got {elevation}"
                )
        if not 0.0 <= self.azimuth < 360.0:
            raise ValidationError(
                f"azimuth must lie in [0, 360) degrees, got {self.azimuth}"
            )
        if self.distance_samples < 2:
            raise ValidationError(
                f"distance_samples must be >= 2, got {self.distance_samples}"
            )
        if self.distance_range is not None:
            lo, hi = self.distance_range
            if not 0.0 < lo <= hi:
                raise ValidationError(
                    f"distance_range must satisfy 0 < low <= high, got ({lo}, {hi})"
                )


def default_config() -> ScenarioConfig:
    """The published configuration: 5x5x3 room, one ceiling LED, ten floor points.

    The LED transmit power defaults to 15 W, the family whose plotted peak
    anchors the absolute-power comparison; positioning results do not depend
    on it in this noiseless model.
    """

    room = RoomSpec(width=5.0, length=5.0, height=3.0)
    led = LedSpec(
        position=Point3(2.5, 2.5, 3.0),
        transmit_power=15.0,
        half_power_angle=60.0,
    )
    # Ten points from under the LED to the corner end of the half-diagonal,
    # the last pinned so that 0.07 is exact.
    walk = [2.5 + i / 9 * (0.07 - 2.5) for i in range(9)] + [0.07]
    pd = PdSpec(
        area=2.25e-6,
        fov=90.0,
        filter_gain=1.0,
        refractive_index=1.5,
    )
    return ScenarioConfig(
        room=room,
        led=led,
        pd_template=pd,
        pd_positions=tuple(Point3(c, c, 0.0) for c in walk),
        transmit_powers=(8.0, 10.0, 12.0, 15.0),
        sweep_elevations=(60.0, 70.0, 80.0, 90.0),
        azimuth=225.0,
    )


@dataclass(frozen=True)
class SweepResult:
    """Position-sweep columns, one entry per configured position."""

    actual_x: Sequence[float]
    actual_y: Sequence[float]
    est_x: Sequence[float]
    est_y: Sequence[float]
    slant_distance: Sequence[float]
    received_power: Sequence[float]
    positioning_error: Sequence[float]


def run_position_sweep(config: ScenarioConfig) -> SweepResult:
    """Walk the PD over the configured positions and estimate each one.

    Each position is one received_power and one estimate_position call, so a
    sweep row is exactly what the one-shot API reports for that position.

    Raises:
        DomainError subclasses from the underlying modules, annotated with the
        1-based position index.
    """

    led, pd, azimuth = config.led, config.pd_template, config.azimuth
    positions = config.pd_positions
    slants: list[float] = []
    powers: list[float] = []
    est_x: list[float] = []
    est_y: list[float] = []
    errors: list[float] = []
    for index, position in enumerate(positions, start=1):
        try:
            sample = received_power(led, pd, position)
            estimate = estimate_position(
                sample.received_power, led, pd, azimuth=azimuth, actual=position
            )
        except DomainError as exc:
            raise type(exc)(f"position {index}: {exc}") from exc
        slants.append(sample.slant_distance)
        powers.append(sample.received_power)
        est_x.append(estimate.estimated.x)
        est_y.append(estimate.estimated.y)
        errors.append(estimate.positioning_error)
    return SweepResult(
        actual_x=[p.x for p in positions],
        actual_y=[p.y for p in positions],
        est_x=est_x,
        est_y=est_y,
        slant_distance=slants,
        received_power=powers,
        positioning_error=errors,
    )


def run_power_distance_sweep(
    config: ScenarioConfig,
) -> tuple[tuple[float, float, float], ...]:
    """(transmit_power, distance, received_power) over powers x positions.

    Rows are grouped by transmit power in configured order, distance
    ascending within each group; the geometry is fully coupled as in the
    position sweep.
    """

    led = config.led
    by_distance = sorted(
        config.pd_positions,
        key=lambda pos: (pos.x - led.position.x) ** 2 + (pos.y - led.position.y) ** 2,
    )
    slants, _, elevations = link_columns(led.position, by_distance)
    normals = [90.0 - elevation for elevation in elevations]
    rows: list[tuple[float, float, float]] = []
    for power in config.transmit_powers:
        powers = power_columns(
            replace(led, transmit_power=power), config.pd_template, slants, normals, normals
        )
        rows.extend(zip(repeat(power), slants, powers))
    return tuple(rows)


def run_angle_sweep(
    config: ScenarioConfig,
) -> tuple[tuple[float, float, float], ...]:
    """(elevation, distance, received_power) with the angle factor held fixed.

    This is the figure parameterization: each family keeps its labelled
    elevation across the whole distance axis, so only the inverse-square term
    varies within a family. Elevation e maps to the from-normal angle 90 - e
    for both channel gains. Without a configured distance_range the span runs
    from the nearest to the farthest configured position.
    """

    if config.distance_range is None:
        slants = [euclidean_distance(config.led.position, p) for p in config.pd_positions]
        low, high = min(slants), max(slants)
    else:
        low, high = config.distance_range
    count = config.distance_samples
    distances = [low + i * (high - low) / (count - 1) for i in range(count)]
    rows: list[tuple[float, float, float]] = []
    for elevation in config.sweep_elevations:
        normals = [90.0 - elevation] * len(distances)
        powers = power_columns(config.led, config.pd_template, distances, normals, normals)
        rows.extend(zip(repeat(elevation), distances, powers))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Replication report
# ---------------------------------------------------------------------------


class Verdict(str, Enum):
    """Grade of one replication check."""

    REPRODUCED = "REPRODUCED"
    TREND_ONLY = "TREND-ONLY"
    NOT_REPRODUCIBLE = "NOT-REPRODUCIBLE"


@dataclass(frozen=True)
class ReplicationCheck:
    """One graded comparison between a computed and a reference value.

    difference is the absolute gap for value checks and None for checks whose
    computed column is already a violation count. expected is the grade the
    check is known to earn; verdict != expected marks a regression.
    """

    name: str
    reference: float
    computed: float
    difference: float | None
    verdict: Verdict
    expected: Verdict
    note: str

    @property
    def regressed(self) -> bool:
        return self.verdict != self.expected


@dataclass(frozen=True)
class ReplicationReport:
    """All checks plus the modeling assumptions they rest on."""

    dataset_version: str
    checks: tuple[ReplicationCheck, ...]
    assumptions: tuple[str, ...]

    @property
    def regressions(self) -> tuple[ReplicationCheck, ...]:
        return tuple(check for check in self.checks if check.regressed)

    @property
    def ok(self) -> bool:
        return len(self.regressions) == 0


def _grade(
    name: str,
    reference: float,
    computed: float,
    tol: float | None,
    trend_tol: float | None,
    expected: Verdict,
    note: str,
) -> ReplicationCheck:
    """REPRODUCED within tol, else TREND-ONLY within trend_tol when given, else
    NOT-REPRODUCIBLE.

    A row with tol None is a count check: computed is a violation count, only
    zero reproduces, and the check carries no difference.
    """

    difference = abs(computed - reference)
    if difference <= (0.0 if tol is None else tol):
        verdict = Verdict.REPRODUCED
    elif trend_tol is not None and difference <= trend_tol:
        verdict = Verdict.TREND_ONLY
    else:
        verdict = Verdict.NOT_REPRODUCIBLE
    if tol is None:
        difference = None
    return ReplicationCheck(name, reference, computed, difference, verdict, expected, note)


_ASSUMPTIONS = (
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


def replication_report(config: ScenarioConfig | None = None) -> ReplicationReport:
    """Compare computed results against the embedded reference dataset.

    Designed for the default configuration; the reference values only
    describe that scenario.
    """

    if config is None:
        config = default_config()
    sweep = run_position_sweep(config)
    _, _, center_elevation = link_geometry(config.led.position, config.pd_positions[0])
    _, corner_horizontal, _ = link_geometry(config.led.position, config.pd_positions[-1])

    # Reference error column recomputed from the reference coordinate pairs.
    recomputed = [
        euclidean_distance(Point3(a, a, 0.0), Point3(e, e, 0.0))
        for a, e in zip(REFERENCE_ACTUAL_XY, REFERENCE_ESTIMATED_XY)
    ]
    max_row_gap = max(
        abs(r - published) for r, published in zip(recomputed, REFERENCE_ERRORS)
    )
    reference_mean = sum(REFERENCE_ERRORS) / len(REFERENCE_ERRORS)
    first_eight_mean = sum(REFERENCE_ERRORS[:8]) / 8

    # Published row-8 estimate as printed, graded against the published error.
    a8 = REFERENCE_ACTUAL_XY[7]
    e8x, e8y = REFERENCE_POSITION8_AS_PUBLISHED
    row8_as_published = euclidean_distance(Point3(a8, a8, 0.0), Point3(e8x, e8y, 0.0))

    center_power = sweep.received_power[0]
    corner_power = sweep.received_power[-1]
    plotted_center, plotted_corner = REFERENCE_POWER_FAMILIES[15.0]

    # Estimated coordinates of the reference table vs the estimator pipeline.
    corner_fused = estimate_position(
        corner_power, config.led, config.pd_template, azimuth=config.azimuth
    ).fused
    attainable = corner_horizontal * math.sqrt(2.0) / 2.0

    # Trend checks over the implemented pipeline, as violation counts.
    power_rows = run_power_distance_sweep(config)
    power_violations = 0
    for power in config.transmit_powers:
        family = [p for tp, _, p in power_rows if tp == power]
        power_violations += sum(
            1 for a, b in zip(family, family[1:]) if not b < a
        )

    angle_rows = run_angle_sweep(config)
    ordered = sorted(set(config.sweep_elevations), reverse=True)
    families = {
        elevation: [p for e, _, p in angle_rows if e == elevation]
        for elevation in ordered
    }
    angle_violations = 0
    for higher, lower in zip(ordered, ordered[1:]):
        angle_violations += sum(
            1 for a, b in zip(families[higher], families[lower]) if not a > b
        )

    errors = sweep.positioning_error
    error_violations = sum(1 for a, b in zip(errors, errors[1:]) if b < a)

    reproduced, not_reproducible = Verdict.REPRODUCED, Verdict.NOT_REPRODUCIBLE
    # (name, reference, computed, tol, trend_tol, expected, note); tol None
    # marks a count check.
    rows = (
        ("center_slant_distance", REFERENCE_CENTER_DISTANCE, sweep.slant_distance[0],
         _TOL_DISTANCE, None, reproduced, "LED-PD distance at the first position"),
        ("corner_slant_distance", REFERENCE_CORNER_DISTANCE, sweep.slant_distance[-1],
         _TOL_DISTANCE, None, reproduced, "LED-PD distance at the tenth position"),
        ("center_elevation_angle", 90.0, center_elevation, 1e-9, None, reproduced,
         "CSA angles equal 90 degrees directly under the LED"),
        ("reference_error_column", 0.0, max_row_gap, _TOL_TABLE, None, reproduced,
         "max per-row gap between errors recomputed from the reference "
         "coordinate pairs and the published column (4-decimal rounding)"),
        ("reference_mean_error", REFERENCE_MEAN_ERROR, reference_mean,
         _TOL_HEADLINE, None, reproduced,
         "mean of the published error column vs the published 0.042 m headline"),
        ("first_eight_mean_error", REFERENCE_FIRST_EIGHT_MEAN,
         first_eight_mean, _TOL_HEADLINE, 2e-3, Verdict.TREND_ONLY,
         "published headline 3.2 cm for 80% of positions; the column mean "
         "is 0.032925 m, which rounds to 3.3 cm, not 3.2"),
        ("reference_position8_symmetry", REFERENCE_ERRORS[7], row8_as_published,
         _TOL_TABLE, None, not_reproducible,
         "as printed the position-8 estimate (0.5591, 0.5519) breaks the "
         "stated X/Y symmetry and misses the published error by 5.3e-3; "
         "the symmetric reading 0.5591 reproduces it within 8.4e-5"),
        ("published_absolute_power", REFERENCE_PLOTTED_PEAK_POWER, center_power,
         _TOL_HEADLINE, None, not_reproducible,
         "closed-form received power at 3 m, 90 degrees, 15 W is "
         f"{center_power:.4g} W against the plotted 4.5 W, a factor of "
         f"{REFERENCE_PLOTTED_PEAK_POWER / center_power:.3g}; no scaling "
         "constant is published"),
        ("published_power_decay_ratio", plotted_center / plotted_corner,
         center_power / corner_power, 0.05, None, not_reproducible,
         "published curves decay by ~2.34x over the diagonal, matching pure "
         "inverse-square; the modelled decay is d^-(m+3), a 5.35x drop"),
        ("published_estimated_coordinates", REFERENCE_IMPLIED_CORNER_DISPLACEMENT,
         corner_fused, _TOL_TABLE, None, not_reproducible,
         "the published corner estimate implies a 2.4864 m per-axis "
         "displacement; the equations yield a fused offset of "
         f"{corner_fused:.4f} m and cannot exceed {attainable:.4f} m, so "
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
         _TOL_HEADLINE, math.inf if error_violations == 0 else None, Verdict.TREND_ONLY,
         "difference between the tenth and first position errors; the "
         "published 0.0784 m is not recoverable from the equations, the "
         "growth trend is"),
    )
    return ReplicationReport(
        dataset_version=REFERENCE_DATASET_VERSION,
        checks=tuple(starmap(_grade, rows)),
        assumptions=_ASSUMPTIONS,
    )
