"""CSA-RSS positioning from a single LED and a single PD.

Pipeline: invert the measured power to the slant distance, derive the
elevation angle and horizontal distance, build the complementary and
supplementary angles (90 - theta and 90 + theta), project the horizontal
distance through each, average the two projections into the fused offset, and
anchor that offset at the LED's floor projection along a configured azimuth.

The angle fed to the CSA construction is the elevation angle (90 degrees when
the PD sits directly under the LED), not the from-normal angle used by the
channel gains; the conversion between the two is explicit.

The fused values are radial displacement magnitudes, not room coordinates: at
the center position they are zero. Anchoring turns them into coordinates, and
needs an azimuth because a single intensity measurement cannot disambiguate
direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import LedSpec, PdSpec, concentrator_gain
from .errors import DomainError, EmptyInput, NonPositivePower, PowerTooHigh
from .geometry import Point3, euclidean_distance

__all__ = [
    "CsaAngles",
    "OffsetEstimate",
    "EstimateRecord",
    "invert_power_to_distance",
    "csa_angles",
    "offset_estimate",
    "anchor_estimate",
    "positioning_error",
    "average_error",
    "estimate_position",
]

# Allowance for one rounding step when the inverted distance lands a hair
# under the vertical separation at the on-axis maximum.
_INVERSION_SLACK = 1e-9


@dataclass(frozen=True)
class CsaAngles:
    """Incidence elevation angle with its complementary and supplementary angles."""

    incidence: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.incidence <= 90.0:
            raise DomainError(
                f"incidence must lie in [0, 90] degrees, got {self.incidence}"
            )

    @property
    def complementary(self) -> float:
        return 90.0 - self.incidence

    @property
    def supplementary(self) -> float:
        return 90.0 + self.incidence


@dataclass(frozen=True)
class OffsetEstimate:
    """Projections of the horizontal distance through both angles, and their mean.

    The values are radial displacement magnitudes from the LED's floor
    projection; the construction is the same on every axis.
    """

    comp: float
    supp: float

    @property
    def fused(self) -> float:
        return (self.comp + self.supp) / 2.0


@dataclass(frozen=True)
class EstimateRecord:
    """One position estimate with every intermediate quantity recorded.

    actual and positioning_error are None for one-shot estimates where the
    true position is unknown.
    """

    actual: Point3 | None
    estimated: Point3
    offsets: OffsetEstimate
    angles: CsaAngles
    measured_power: float
    inverted_distance: float
    positioning_error: float | None


def invert_power_to_distance(
    measured_power: float, led: LedSpec, pd: PdSpec, vertical_separation: float
) -> float:
    """Invert the coplanar channel model to the slant distance.

    With cos(theta) = V/d the received power collapses to
    P = K * V^(m+1) / d^(m+3) with K = P_trans*(m+1)*A*h*g/(2*pi), so
    d = (K * V^(m+1) / P) ^ (1/(m+3)), the unique solution with d >= V.

    Raises:
        NonPositivePower: when measured_power <= 0.
        PowerTooHigh: when the implied distance falls below the vertical
            separation, i.e. the power exceeds the on-axis maximum.
        DomainError: when vertical_separation <= 0, or when the power is so
            small that the implied distance overflows.
    """

    if not measured_power > 0.0:
        raise NonPositivePower(f"measured power must be > 0, got {measured_power}")
    if not vertical_separation > 0.0:
        raise DomainError(
            f"vertical separation must be > 0, got {vertical_separation}"
        )
    m = led.lambertian_order
    gain = concentrator_gain(0.0, pd.refractive_index, pd.fov)
    k = led.transmit_power * (m + 1.0) * pd.area * pd.filter_gain * gain / (2.0 * math.pi)
    distance = (k * vertical_separation ** (m + 1.0) / measured_power) ** (1.0 / (m + 3.0))
    if not math.isfinite(distance):
        raise DomainError(
            f"measured power {measured_power} inverts to a non-finite distance {distance}"
        )
    if distance < vertical_separation * (1.0 - _INVERSION_SLACK):
        raise PowerTooHigh(
            f"measured power {measured_power} implies distance {distance} below "
            f"the vertical separation {vertical_separation}"
        )
    return max(distance, vertical_separation)


def csa_angles(incidence_elevation: float) -> CsaAngles:
    """Complementary (90 - theta) and supplementary (90 + theta) angles.

    Raises:
        DomainError: when the elevation is outside [0, 90] degrees.
    """

    return CsaAngles(incidence_elevation)


def offset_estimate(d_hor: float, angles: CsaAngles) -> OffsetEstimate:
    """Project the horizontal distance through both angles and fuse the results.

    comp projects through cos(complementary), supp through sin(supplementary),
    so the fused value equals d_hor * (sin(theta) + cos(theta)) / 2.

    Raises:
        DomainError: when d_hor < 0.
    """

    if d_hor < 0.0:
        raise DomainError(f"horizontal distance must be >= 0, got {d_hor}")
    return OffsetEstimate(
        comp=d_hor * math.cos(math.radians(angles.complementary)),
        supp=d_hor * math.sin(math.radians(angles.supplementary)),
    )


def anchor_estimate(
    offsets: OffsetEstimate, led_floor_projection: tuple[float, float], azimuth: float
) -> Point3:
    """Place the fused offset at the LED's floor projection along an azimuth.

    The per-axis displacements are fused*cos(azimuth) and fused*sin(azimuth),
    so the radial displacement magnitude equals the fused offset
    (cos^2 + sin^2 = 1) and no extra normalization factor is needed. For the
    225-degree diagonal each axis moves by fused/sqrt(2) toward the origin
    corner.

    Raises:
        DomainError: when the azimuth is outside [0, 360).
    """

    if not 0.0 <= azimuth < 360.0:
        raise DomainError(f"azimuth must lie in [0, 360) degrees, got {azimuth}")
    led_x, led_y = led_floor_projection
    fused = offsets.fused
    return Point3(
        led_x + fused * math.cos(math.radians(azimuth)),
        led_y + fused * math.sin(math.radians(azimuth)),
        0.0,
    )


def positioning_error(actual: Point3, estimated: Point3) -> float:
    """3-D Euclidean distance between the actual and estimated positions."""

    return euclidean_distance(actual, estimated)


def average_error(errors: list[float] | tuple[float, ...]) -> float:
    """Arithmetic mean of a non-empty error list.

    Raises:
        EmptyInput: when the list is empty.
    """

    if len(errors) == 0:
        raise EmptyInput("average_error needs at least one element")
    return sum(errors) / len(errors)


def estimate_position(
    measured_power: float,
    led: LedSpec,
    pd: PdSpec,
    azimuth: float,
    actual: Point3 | None = None,
    vertical_separation: float | None = None,
) -> EstimateRecord:
    """Run the full CSA-RSS pipeline for one power measurement.

    vertical_separation defaults to the LED height, i.e. a PD on the floor.
    When the actual position is supplied the positioning error is filled in.
    """

    if vertical_separation is None:
        vertical_separation = led.position.z
    distance = invert_power_to_distance(measured_power, led, pd, vertical_separation)
    elevation = math.degrees(math.asin(min(vertical_separation / distance, 1.0)))
    d_hor = math.sqrt(max(distance**2 - vertical_separation**2, 0.0))
    angles = csa_angles(elevation)
    offsets = offset_estimate(d_hor, angles)
    estimated = anchor_estimate(offsets, (led.position.x, led.position.y), azimuth)
    error = None if actual is None else positioning_error(actual, estimated)
    return EstimateRecord(
        actual=actual,
        estimated=estimated,
        offsets=offsets,
        angles=angles,
        measured_power=measured_power,
        inverted_distance=distance,
        positioning_error=error,
    )
