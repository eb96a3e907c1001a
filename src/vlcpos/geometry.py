"""Room coordinate frame and link geometry for a ceiling LED and a floor PD.

Conventions:
- The room origin is a floor corner, z points up, all lengths in meters.
- Angles are degrees at API boundaries and converted to radians only inside
  trigonometric evaluation.
- Two angle conventions coexist and are both carried by LinkGeometry:
  elevation (angle between the LED-to-PD ray and the floor plane, 90 degrees
  directly under the LED) and normal (angle between the ray and the PD surface
  normal). They always sum to 90 degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, LedNotAbovePd, OutOfRoom

__all__ = [
    "Point3",
    "RoomSpec",
    "LinkGeometry",
    "euclidean_distance",
    "link_columns",
    "link_geometry",
    "diagonal_positions",
    "clip_to_floor",
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


@dataclass(frozen=True)
class LinkGeometry:
    """Derived quantities of one LED-to-PD link.

    slant_distance is the 3-D separation, vertical_separation the height
    difference, horizontal_distance the floor-plane separation. The two angles
    are the elevation and from-normal conventions described in the module
    docstring; the normal angle is derived from the elevation.
    """

    slant_distance: float
    vertical_separation: float
    horizontal_distance: float
    elevation_angle: float

    @property
    def normal_angle(self) -> float:
        return 90.0 - self.elevation_angle


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


def link_geometry(led_pos: Point3, pd_pos: Point3) -> LinkGeometry:
    """Derive the link geometry for an LED strictly above the PD plane.

    A one-point view of link_columns: vertical separation V = led.z - pd.z,
    slant distance d, horizontal distance sqrt(d^2 - V^2), elevation
    arcsin(V/d), normal 90 - elevation.

    Raises:
        LedNotAbovePd: when led_pos.z <= pd_pos.z.
    """

    (slant,), (horizontal,), (elevation,) = link_columns(led_pos, (pd_pos,))
    return LinkGeometry(
        slant_distance=slant,
        vertical_separation=led_pos.z - pd_pos.z,
        horizontal_distance=horizontal,
        elevation_angle=elevation,
    )


def diagonal_positions(
    room: RoomSpec, count: int, start: Point3, end: Point3
) -> tuple[Point3, ...]:
    """Linearly interpolate `count` floor points from start to end inclusive.

    Both endpoints must lie on the floor plane (z = 0) inside the room.

    Raises:
        DomainError: when count < 2.
        OutOfRoom: when an endpoint is off the floor plane or any generated
            point leaves the floor rectangle.
    """

    if count < 2:
        raise DomainError(f"count must be >= 2, got {count}")
    for label, point in (("start", start), ("end", end)):
        if point.z != 0.0:
            raise OutOfRoom(f"{label} must be on the floor plane (z = 0), got z={point.z}")
    points = []
    for i in range(count):
        # Pin the endpoints so start and end are reproduced bit-exactly.
        if i == count - 1:
            point = end
        elif i == 0:
            point = start
        else:
            t = i / (count - 1)
            point = Point3(
                start.x + t * (end.x - start.x),
                start.y + t * (end.y - start.y),
                0.0,
            )
        if not room.contains_floor_point(point):
            raise OutOfRoom(
                f"position {i + 1} at ({point.x}, {point.y}) leaves the floor rectangle"
            )
        points.append(point)
    return tuple(points)


def clip_to_floor(point: Point3, room: RoomSpec) -> tuple[Point3, bool]:
    """Clamp a point to the floor rectangle; the flag reports whether it moved."""

    clipped_x = min(max(point.x, 0.0), room.width)
    clipped_y = min(max(point.y, 0.0), room.length)
    clipped = clipped_x != point.x or clipped_y != point.y
    return Point3(clipped_x, clipped_y, point.z), clipped
