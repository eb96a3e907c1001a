"""Room coordinate frame and link geometry for a ceiling LED and a floor PD.

Conventions:
- The room origin is a floor corner, z points up, all lengths in meters.
- Angles are degrees at API boundaries and converted to radians only inside
  trigonometric evaluation.
- A link is its slant distance d and one angle quantity, its cosine c = V/d
  (vertical separation over slant distance): the cosine of the angle between
  the ray and the PD normal, 1 directly under the LED. link_columns gives
  both per PD point; the channel takes c as it is, and the elevation asin(c)
  is computed only where a report prints it.
- Every distance between two points is math.dist, which squares nothing: under
  the LED d is exactly V. What leaves the float range is the channel's d^2.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Any, Sequence

from .errors import DomainError, LedNotAbovePd

__all__ = [
    "Point3",
    "RoomSpec",
    "link_columns",
    "link_geometry",
]


def _record(name: str, fields: str) -> Any:
    """A named-tuple base for a record that validates in its own __new__.

    The record is a tuple of its fields, equal to any tuple of the same values.
    The base's _make, which _replace calls, goes through that __new__ (the
    namedtuple one skips it), so no copy of a record escapes its checks.
    """

    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class Point3(_record("_Coordinates", "x y z")):
    """A 3-D coordinate in meters in the room frame; each must be finite."""

    __slots__ = ()

    def __new__(cls, x: float, y: float, z: float) -> Point3:
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            for name, value in zip(cls._fields, (x, y, z)):
                if not math.isfinite(value):
                    raise DomainError(f"Point3.{name} must be finite, got {value}")
        return tuple.__new__(cls, (x, y, z))


class RoomSpec(_record("_Room", "width length height")):
    """Rectangular room dimensions in meters, each finite and > 0."""

    __slots__ = ()

    def __new__(cls, width: float, length: float, height: float) -> RoomSpec:
        for name, value in zip(cls._fields, (width, length, height)):
            if not value > 0:
                raise DomainError(f"RoomSpec.{name} must be > 0, got {value}")
            if value == math.inf:
                raise DomainError(f"RoomSpec.{name} must be finite, got {value}")
        return tuple.__new__(cls, (width, length, height))

    def contains_floor_point(self, point: Point3) -> bool:
        """True when the point lies on the floor rectangle (z ignored)."""
        return 0.0 <= point.x <= self.width and 0.0 <= point.y <= self.length


def link_columns(
    led_pos: Point3, points: Sequence[Point3]
) -> tuple[list[float], list[float]]:
    """Slant distance and link cosine columns: link_geometry's row per PD point.

    Raises:
        LedNotAbovePd: when the LED is not strictly above a PD point.
        DomainError: when their heights lie further apart than the float range.
    """

    rows = [link_geometry(led_pos, point) for point in points]
    return [slant for slant, _ in rows], [c for _, c in rows]


def link_geometry(led_pos: Point3, pd_pos: Point3) -> tuple[float, float]:
    """(slant, cosine) for an LED strictly above the PD plane.

    With vertical separation V = led.z - pd.z, slant distance d and link
    cosine min(V/d, 1); the elevation is asin of the cosine. For float
    heights V/d is at most 1 unclamped, exactly 1 on axis: the exact distance
    is at least V, a double, and math.dist is faithfully rounded on Python
    3.10+. The clamp serves int heights past 2**53, where V is exact but
    math.dist rounds each height to a double.

    Raises:
        LedNotAbovePd: when the LED is not strictly above the PD.
        DomainError: when their heights lie further apart than the float range.
    """

    lz, z = led_pos.z, pd_pos.z
    separation = lz - z
    if not 0.0 < separation < math.inf:  # lz > z gives lz - z > 0; only overflow gives inf
        if not lz > z:
            raise LedNotAbovePd(f"LED z={lz} must be strictly above PD z={z}")
        raise DomainError(f"LED z={lz} and PD z={z} are further apart than the float range")
    slant = math.dist(led_pos, pd_pos)
    c = separation / slant  # clamped by a comparison, a fraction of the cost of min()
    return slant, c if c <= 1.0 else 1.0
