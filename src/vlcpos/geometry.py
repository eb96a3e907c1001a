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
import sys
from collections import namedtuple
from itertools import chain, repeat
from typing import Any, NamedTuple, Sequence

from .errors import DomainError, LedNotAbovePd

__all__ = [
    "Point3",
    "RoomSpec",
    "link_columns",
    "link_geometry",
]


class _Rule(NamedTuple):
    """A number field's rule: low < value < high, with <= at each bound that
    ends shows closed ("[" or "]"); an integer rule takes an int. The "list"
    shape holds each entry of a non-empty list to the rule, "span" each end of
    a (low, high) pair with low <= high, "point" each coordinate of an (x, y, z)
    and "points" each point of a non-empty list. A point rule is unbounded:
    its coordinates need only be finite, as a Point3's."""

    low: float = -math.inf
    high: float = math.inf
    ends: str = "()"
    integer: bool = False
    shape: str = ""


_FINITE, _POSITIVE = _Rule(), _Rule(0.0)
# The shortest and longest lengths whose squared link distances stay normal
# and finite: the channel divides by d^2, the sum of three such squares.
_MIN_LED_HEIGHT = math.sqrt(sys.float_info.min)
_MAX_ROOM_SIZE = math.sqrt(sys.float_info.max / 3.0)
_ROOM_SIDE = _Rule(0.0, _MAX_ROOM_SIZE, "(]")


def _check(value: Any, rule: _Rule, name: str, error: type = DomainError) -> Any:
    """value as a float (an int, for an integer rule; a tuple of them, a
    Point3 or a tuple of Point3s, for a shaped rule) when it keeps the rule,
    else error("<name> must ..., got <value>"). A bool or a str is no number,
    and an int past the float range is not finite."""

    if rule.shape == "points":
        if not isinstance(value, (tuple, list)) or len(value) == 0:
            raise error(f"{name} must be a non-empty list of points, got {value!r}")
        kinds = set(map(type, value))
        if kinds == {Point3}:  # each was checked when it was built
            return tuple(value)
        # 3-sequences of floats with a finite sum (so each is finite) keep the
        # rule in bulk; anything else goes point by point, naming the value.
        if kinds <= {tuple, list} and set(map(len, value)) == {3}:
            coordinates = list(chain.from_iterable(value))
            if set(map(type, coordinates)) == {float} and math.isfinite(sum(coordinates)):
                return tuple(map(tuple.__new__, repeat(Point3), value))
        point = rule._replace(shape="point")
        return tuple(_check(entry, point, name, error) for entry in value)
    if rule.shape:  # its entries, each held to the rule without its shape
        if rule.shape == "point" and not (isinstance(value, (tuple, list)) and len(value) == 3):
            raise error(f"{name} must be a 3-tuple (x, y, z), got {value!r}")
        if rule.shape == "span" and not (isinstance(value, (tuple, list)) and len(value) == 2):
            raise error(f"{name} must be (low, high), got {value!r}")
        if not isinstance(value, (tuple, list)) or len(value) == 0:
            raise error(f"{name} must be a non-empty list of numbers, got {value!r}")
        entries = tuple(_check(entry, rule._replace(shape=""), name, error) for entry in value)
        if rule.shape == "span" and not entries[0] <= entries[1]:
            raise error(f"{name} must satisfy low <= high, got ({entries[0]}, {entries[1]})")
        return tuple.__new__(Point3, entries) if rule.shape == "point" else entries
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        try:
            shown = repr(value)
        except ValueError:  # an int past sys.get_int_max_str_digits()
            shown = f"an int of {value.bit_length()} bits"
        raise error(f"{name} must be finite, got {shown}")
    if rule.integer and not isinstance(value, int):
        raise error(f"{name} must be an integer, got {value!r}")
    number = value if rule.integer else float(value)  # an int stays exact past 2**53
    low, high, (left, right) = rule[:3]
    if not ((low <= number if left == "[" else low < number)
            and (number <= high if right == "]" else number < high)):
        bounds = (f"be {'>=' if left == '[' else '>'} {low:g}" if high == math.inf
                  else f"lie in {left}{low:g}, {high:g}{right}")
        raise error(f"{name} must {bounds}, got {number}")
    return number


def _record(name: str, fields: str, **rules: _Rule) -> Any:
    """A named-tuple base for a record whose __new__ checks each field named in
    rules by its rule, as "<record>.<field>", and stores the value the check
    returns; a record with more rules overrides it.

    The record is a tuple of its fields, equal to any tuple of the same values.
    The base's _make, which _replace calls, goes through that __new__ (the
    namedtuple one skips it), so no copy of a record escapes its checks.
    """

    base = namedtuple(name, fields)
    fill = base.__new__  # the namedtuple's own, which binds the arguments to fields

    def __new__(cls, *args: Any, **kwargs: Any) -> Any:
        record = fill(cls, *args, **kwargs)
        return tuple.__new__(cls, [
            _check(value, rules[field], f"{cls.__name__}.{field}") if field in rules else value
            for field, value in zip(cls._fields, record)])

    base.__new__ = staticmethod(__new__)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    base._rules = rules
    return base


class Point3(_record("_Coordinates", "x y z", x=_FINITE, y=_FINITE, z=_FINITE)):
    """A 3-D coordinate in meters in the room frame; each a finite float."""

    __slots__ = ()


class RoomSpec(_record("_Room", "width length height",
                       width=_ROOM_SIDE, length=_ROOM_SIDE, height=_ROOM_SIDE)):
    """Rectangular room dimensions in meters, each in (0, _MAX_ROOM_SIZE] (about 7.7e153 m)."""

    __slots__ = ()

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
    cosine V/d; the elevation is asin of the cosine. A Point3 holds floats,
    so V/d is at most 1, exactly 1 on axis: the exact distance is at least V,
    a double, and math.dist is faithfully rounded on Python 3.10+.

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
    return slant, separation / slant
