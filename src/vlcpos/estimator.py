"""CSA-RSS positioning from a single LED and a single PD.

Pipeline: invert the measured power to the slant distance d, take the
horizontal distance d_hor, project it through the complementary and
supplementary angles (90 - theta and 90 + theta), whose cosine and sine are
V/d and d_hor/d, average the two projections into the fused offset, and
anchor that offset at the LED's floor projection along a configured azimuth.

The angle fed to the CSA construction is the elevation angle (90 degrees when
the PD sits directly under the LED). Its sine is the channel's link cosine
V/d, so estimate_position fuses from V/d and d_hor/d, records that cosine and
takes no inverse trigonometric function.

The fused values are radial displacement magnitudes, not room coordinates: at
the center position they are zero. Anchoring turns them into coordinates, and
needs an azimuth because a single intensity measurement cannot disambiguate
direction.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .channel import _TINY, LedSpec, PdSpec, _gain_constant
from .errors import DomainError, NonPositivePower, PowerTooHigh
from .geometry import Point3

__all__ = [
    "EstimateRecord",
    "invert_power_to_distance",
    "estimate_position",
]

# Allowance for one rounding step when the inverted distance lands a hair
# under the vertical separation at the on-axis maximum.
_INVERSION_SLACK = 1e-9
_new = tuple.__new__  # a record from checked fields, past its __new__'s Python call


class EstimateRecord(NamedTuple):
    """One position estimate with every intermediate quantity recorded.

    cosine is the link cosine V/d at the inverted distance, the sine of the
    elevation angle fed to the CSA construction, and fused the mean of its two
    projections. positioning_error is None for one-shot estimates where the
    true position is unknown.
    """

    estimated: Point3
    cosine: float
    fused: float
    measured_power: float
    inverted_distance: float
    positioning_error: float | None


def invert_power_to_distance(
    measured_power: float, led: LedSpec, pd: PdSpec, vertical_separation: float
) -> float:
    """Invert the coplanar channel model to the slant distance.

    With the channel's P = K c^(m+1) / d^2 and c = V/d, the received power is
    P = K * V^(m+1) / d^(m+3), so d = (K * V^(m+1) / P) ^ (1/(m+3)), the
    unique solution with d >= V; K is the channel's own constant. Where
    V^(m+1) or K * V^(m+1) / P leaves the normal float range (a large order,
    a small separation, a tall room or a tiny power), the same formula is
    taken in logarithms, d = exp((ln K + (m+1) ln V - ln P) / (m+3)).

    Raises:
        NonPositivePower: when measured_power <= 0.
        PowerTooHigh: when the implied distance falls below the vertical
            separation, i.e. the power exceeds the on-axis maximum.
        DomainError: when vertical_separation <= 0, or when K or the implied
            distance leaves the float range.
    """

    if not measured_power > 0.0:
        raise NonPositivePower(f"measured power must be > 0, got {measured_power}")
    if not vertical_separation > 0.0:
        raise DomainError(
            f"vertical separation must be > 0, got {vertical_separation}"
        )
    m, k = led.lambertian_order, _gain_constant(led, pd)
    try:
        lifted = vertical_separation ** (m + 1.0)
    except OverflowError:  # V ** (m + 1) past the float range
        lifted = math.inf
    quotient = k * lifted / measured_power  # not finite when lifted is inf
    if lifted >= _TINY and _TINY <= quotient < math.inf:
        distance = quotient ** (1.0 / (m + 3.0))
    else:
        log_v, log_p = math.log(vertical_separation), math.log(measured_power)
        try:
            distance = math.exp((math.log(k) + (m + 1.0) * log_v - log_p) / (m + 3.0))
        except OverflowError:  # past the float range
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
    return vertical_separation if distance < vertical_separation else distance


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

    Raises:
        DomainError: when the azimuth is outside [0, 360) or the estimate is
            not finite, besides the errors of invert_power_to_distance.
    """

    led_x, led_y, vertical = led.position
    distance = invert_power_to_distance(measured_power, led, pd, vertical)
    # d >= V, so c = V/d <= 1; where d^2 overflows, d_hor = d sqrt((1 - c)(1 + c)).
    cosine, squared = vertical / distance, distance * distance
    d_hor = (math.sqrt(squared - vertical * vertical) if squared < math.inf
             else distance * math.sqrt((1.0 - cosine) * (1.0 + cosine)))
    # The mean of d_hor projected through cos(90 - theta) = c and sin(90 + theta) = d_hor/d.
    fused = d_hor * (cosine + d_hor / distance) / 2.0
    if not 0.0 <= azimuth < 360.0:
        raise DomainError(f"azimuth must lie in [0, 360) degrees, got {azimuth}")
    angle = math.radians(azimuth)
    x = led_x + fused * math.cos(angle)
    y = led_y + fused * math.sin(angle)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"fused offset {fused} anchors to a non-finite estimate ({x}, {y})")
    estimated = _new(Point3, (x, y, 0.0))
    error = None if actual is None else math.dist(actual, estimated)
    return _new(EstimateRecord, (estimated, cosine, fused, measured_power, distance, error))
