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
import sys
from typing import NamedTuple

from .channel import LedSpec, PdSpec, concentrator_gain
from .errors import DomainError, NonPositivePower, PowerTooHigh
from .geometry import Point3, euclidean_distance

__all__ = [
    "EstimateRecord",
    "invert_power_to_distance",
    "csa_angles",
    "offset_estimate",
    "anchor_estimate",
    "estimate_position",
]

# Allowance for one rounding step when the inverted distance lands a hair
# under the vertical separation at the on-axis maximum.
_INVERSION_SLACK = 1e-9


class EstimateRecord(NamedTuple):
    """One position estimate with every intermediate quantity recorded.

    incidence is the elevation angle fed to the CSA construction and fused the
    mean of its two projections. positioning_error is None for one-shot
    estimates where the true position is unknown.
    """

    estimated: Point3
    incidence: float
    fused: float
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
    Where V^(m+1) leaves the normal float range (a large order or a small
    separation), or K * V^(m+1) / P falls below it, the same formula is taken
    in logarithms, d = exp((ln K + (m+1) ln V - ln P) / (m+3)).

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
    try:
        lifted = vertical_separation ** (m + 1.0)
    except OverflowError:  # V ** (m + 1) past the float range
        lifted = math.inf
    quotient = k * lifted / measured_power
    if lifted < math.inf and min(lifted, quotient) >= sys.float_info.min:
        distance = quotient ** (1.0 / (m + 3.0))
    else:
        log_v, log_p = math.log(vertical_separation), math.log(measured_power)
        try:
            distance = math.exp((math.log(k) + (m + 1.0) * log_v - log_p) / (m + 3.0))
        except (OverflowError, ValueError):  # past the float range, or K == 0
            distance = math.inf
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


def csa_angles(incidence_elevation: float) -> tuple[float, float]:
    """Complementary (90 - theta) and supplementary (90 + theta) angles.

    Raises:
        DomainError: when the elevation is outside [0, 90] degrees.
    """

    if not 0.0 <= incidence_elevation <= 90.0:
        raise DomainError(
            f"incidence must lie in [0, 90] degrees, got {incidence_elevation}"
        )
    return 90.0 - incidence_elevation, 90.0 + incidence_elevation


def offset_estimate(d_hor: float, incidence_elevation: float) -> float:
    """Project the horizontal distance through both CSA angles and fuse the results.

    The complementary projection goes through cos(90 - theta), the
    supplementary one through sin(90 + theta), so the fused mean equals
    d_hor * (sin(theta) + cos(theta)) / 2. It is a radial displacement
    magnitude from the LED's floor projection.

    Raises:
        DomainError: when d_hor < 0 or the elevation is outside [0, 90] degrees.
    """

    if d_hor < 0.0:
        raise DomainError(f"horizontal distance must be >= 0, got {d_hor}")
    complementary, supplementary = csa_angles(incidence_elevation)
    comp = d_hor * math.cos(math.radians(complementary))
    supp = d_hor * math.sin(math.radians(supplementary))
    return (comp + supp) / 2.0


def anchor_estimate(
    fused: float, led_floor_projection: tuple[float, float], azimuth: float
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
    return Point3(
        led_x + fused * math.cos(math.radians(azimuth)),
        led_y + fused * math.sin(math.radians(azimuth)),
        0.0,
    )


def estimate_position(
    measured_power: float,
    led: LedSpec,
    pd: PdSpec,
    azimuth: float,
    actual: Point3 | None = None,
) -> EstimateRecord:
    """Run the full CSA-RSS pipeline for one power measurement.

    The PD lies on the floor, so the vertical separation is the LED height.
    When the actual position is supplied the positioning error is filled in.
    """

    vertical_separation = led.position.z
    distance = invert_power_to_distance(measured_power, led, pd, vertical_separation)
    elevation = math.degrees(math.asin(min(vertical_separation / distance, 1.0)))
    d_hor = math.sqrt(max(distance**2 - vertical_separation**2, 0.0))
    fused = offset_estimate(d_hor, elevation)
    estimated = anchor_estimate(fused, (led.position.x, led.position.y), azimuth)
    error = None if actual is None else euclidean_distance(actual, estimated)
    return EstimateRecord(
        estimated=estimated,
        incidence=elevation,
        fused=fused,
        measured_power=measured_power,
        inverted_distance=distance,
        positioning_error=error,
    )
