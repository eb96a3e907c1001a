"""Room coordinate frame and link geometry for a ceiling LED and a floor PD.

Conventions:
- The room origin is a floor corner, z points up, all lengths in meters.
- Angles are degrees at API boundaries and converted to radians only inside
  trigonometric evaluation.
- Two angle conventions coexist: elevation (angle between the LED-to-PD ray
  and the floor plane, 90 degrees directly under the LED) and normal (angle
  between the ray and the PD surface normal). They always sum to 90 degrees;
  the link geometry reports the elevation and callers take 90 - elevation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, LedNotAbovePd

__all__ = [
    "Point3",
    "RoomSpec",
    "euclidean_distance",
    "link_columns",
    "link_geometry",
]


@dataclass(frozen=True)
class Point3:
    """A 3-D coordinate in meters in the room frame."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"Point3.{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class RoomSpec:
    """Rectangular room dimensions in meters."""

    width: float
    length: float
    height: float

    def __post_init__(self) -> None:
        for name in ("width", "length", "height"):
            if not getattr(self, name) > 0:
                raise DomainError(f"RoomSpec.{name} must be > 0, got {getattr(self, name)}")

    def contains_floor_point(self, point: Point3) -> bool:
        """True when the point lies on the floor rectangle (z ignored)."""
        return 0.0 <= point.x <= self.width and 0.0 <= point.y <= self.length


def euclidean_distance(a: Point3, b: Point3) -> float:
    """3-D Euclidean distance between two points, in meters."""

    return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2)


def link_columns(
    led_pos: Point3, points: Sequence[Point3]
) -> tuple[list[float], list[float], list[float]]:
    """Slant distance, horizontal distance and elevation columns, one row per PD point.

    Raises:
        LedNotAbovePd: when the LED is not strictly above a PD point.
    """

    lx, ly, lz = led_pos.x, led_pos.y, led_pos.z
    sqrt, asin, degrees = math.sqrt, math.asin, math.degrees
    columns: tuple[list[float], list[float], list[float]] = ([], [], [])
    slants, horizontals, elevations = columns
    for point in points:
        x, y, z = point.x, point.y, point.z
        if not lz > z:
            raise LedNotAbovePd(f"LED z={lz} must be strictly above PD z={z}")
        vertical = lz - z
        slant = sqrt((lx - x) ** 2 + (ly - y) ** 2 + (lz - z) ** 2)
        # max() guards the radicand against rounding when the PD sits
        # directly under the LED and d == V up to one ulp.
        horizontal = sqrt(max(slant**2 - vertical**2, 0.0))
        elevation = degrees(asin(min(vertical / slant, 1.0)))
        slants.append(slant)
        horizontals.append(horizontal)
        elevations.append(elevation)
    return columns


def link_geometry(led_pos: Point3, pd_pos: Point3) -> tuple[float, float, float]:
    """(slant, horizontal, elevation) for an LED strictly above the PD plane.

    A one-point view of link_columns: with vertical separation V = led.z - pd.z,
    slant distance d, horizontal distance sqrt(d^2 - V^2) and elevation
    arcsin(V/d); the from-normal angle is 90 - elevation.

    Raises:
        LedNotAbovePd: when led_pos.z <= pd_pos.z.
    """

    (slant,), (horizontal,), (elevation,) = link_columns(led_pos, (pd_pos,))
    return slant, horizontal, elevation
