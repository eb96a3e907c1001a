"""Tests for point, room, and link geometry primitives."""

import math
import pickle
import random
import re

import pytest

from vlcpos import (
    ChannelSample,
    DomainError,
    EstimateRecord,
    LedNotAbovePd,
    OutputTable,
    Point3,
    ReplicationCheck,
    RoomSpec,
    default_config,
    estimate_position,
    link_columns,
    link_geometry,
    received_power,
)

# Reference layout: 5 x 5 x 3 m room, emitter centered on the ceiling.
LED = Point3(2.5, 2.5, 3.0)
ROOM = RoomSpec(5.0, 5.0, 3.0)

# Independently derived corner-link values (50-digit arithmetic, rounded
# to nearest double).
CORNER = Point3(0.07, 0.07, 0.0)
CORNER_SLANT = 4.561775969948546
CORNER_HORIZONTAL = 3.436538956566621
CORNER_ELEVATION = 41.12002732390731
CORNER_NORMAL = 48.87997267609269

# Ten-point diagonal from the room center to (0.07, 0.07), equal steps.
DIAGONAL_XY = (2.50, 2.23, 1.96, 1.69, 1.42, 1.15, 0.88, 0.61, 0.34, 0.07)
DIAGONAL_SLANTS = (
    3.0,
    3.02420237418067,
    3.0956744014834636,
    3.211261434389919,
    3.366422433385329,
    3.5559808773389094,
    3.774758270406199,
    4.0179845694079015,
    4.281495065978706,
    4.561775969948546,
)

def _close(a, b, tol=1e-12):
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


class TestPoint3:
    def test_fields(self):
        p = Point3(1.0, 2.0, 3.0)
        assert (p.x, p.y, p.z) == (1.0, 2.0, 3.0)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            Point3(math.nan, 0.0, 0.0)
        with pytest.raises(DomainError):
            Point3(0.0, math.inf, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["x", "y", "z"])
    def test_non_finite_message_names_the_coordinate(self, name, value):
        coordinates = {"x": 1.0, "y": 2.0, "z": 3.0, name: value}
        with pytest.raises(DomainError, match=rf"^Point3\.{name} must be finite, got {value}$"):
            Point3(**coordinates)

    def test_unpacks(self):
        x, y, z = Point3(1.0, 2.0, 3.0)
        assert (x, y, z) == (1.0, 2.0, 3.0)

    def test_equal_and_hashed_as_its_coordinates(self):
        p = Point3(1.0, 2.0, 3.0)
        assert p == Point3(*p) == (1.0, 2.0, 3.0)
        assert hash(p) == hash(Point3(*p)) == hash((1.0, 2.0, 3.0))

    def test_pickle_round_trip(self):
        p = Point3(1.0, -0.0, 3.0)
        restored = pickle.loads(pickle.dumps(p))
        assert type(restored) is Point3
        assert repr(restored) == repr(p)

    def test_make_and_replace_reject_non_finite(self):
        p = Point3(1.0, 2.0, 3.0)
        with pytest.raises(DomainError, match=r"^Point3\.x must be finite, got nan$"):
            p._replace(x=math.nan)
        with pytest.raises(DomainError, match=r"^Point3\.x must be finite, got inf$"):
            Point3._make([math.inf, 0.0, 0.0])

    @pytest.mark.parametrize(
        "record",
        [
            Point3(1.0, 2.0, 3.0),
            ChannelSample(3.0, 2.25, 1.27e-06),
            EstimateRecord(Point3(2.5, 2.5, 0.0), 1.0, 0.0, 1.27e-06, 3.0, None),
            ReplicationCheck("check", 3.0, 3.0, 0.0, "REPRODUCED", "REPRODUCED", "note"),
            ROOM,
            default_config().led,
            default_config().pd_template,
            default_config(),
            OutputTable("demo", ("a", "b"), ((1, 2),), {}),
        ],
        ids=lambda record: type(record).__name__,
    )
    def test_frozen(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 5.0)


class TestRoomSpec:
    def test_rejects_non_positive_dimensions(self):
        for bad in ((0.0, 5.0, 3.0), (5.0, -1.0, 3.0), (5.0, 5.0, 0.0)):
            with pytest.raises(DomainError):
                RoomSpec(*bad)

    def test_contains_floor_point(self):
        assert ROOM.contains_floor_point(Point3(0.0, 0.0, 0.0))
        assert ROOM.contains_floor_point(Point3(5.0, 5.0, 0.0))
        assert not ROOM.contains_floor_point(Point3(5.01, 2.0, 0.0))
        assert not ROOM.contains_floor_point(Point3(2.0, -0.01, 0.0))


class TestEuclideanDistance:
    """The Euclidean distance between two points: link_geometry's slant and
    estimate_position's positioning error, both math.dist."""

    def test_center_link_is_vertical(self):
        assert link_geometry(LED, Point3(2.5, 2.5, 0.0))[0] == 3.0

    def test_corner_link(self):
        assert _close(link_geometry(LED, CORNER)[0], CORNER_SLANT)

    def test_symmetry_and_identity(self):
        rng = random.Random(7)
        config = default_config()
        led, pd = config.led, config.pd_template
        for _ in range(50):
            low, high = sorted((rng.uniform(0, 3), rng.uniform(0, 3)))
            a = Point3(rng.uniform(0, 5), rng.uniform(0, 5), high)
            b = Point3(rng.uniform(0, 5), rng.uniform(0, 5), low)
            # The slant is math.dist of the two points, in either order, bit for bit.
            assert link_geometry(a, b)[0] == math.dist(a, b) == math.dist(b, a)
            floor = b._replace(z=0.0)
            power = received_power(led, pd, floor).received_power
            record = estimate_position(power, led, pd, config.azimuth, actual=floor)
            estimated = record.estimated
            assert record.positioning_error == math.dist(floor, estimated)
            assert record.positioning_error == math.dist(estimated, floor)
            again = estimate_position(power, led, pd, config.azimuth, actual=estimated)
            assert again.positioning_error == 0.0

    @pytest.mark.parametrize(
        "led, pd, expected, cosine",
        [
            # (1e200) ** 2 raises OverflowError.
            pytest.param(Point3(0.0, 0.0, 1e200), Point3(0.0, 0.0, 0.0), 1e200, 1.0,
                         id="square"),
            # Each square is finite, their sum is not.
            pytest.param(Point3(1e154, 1e154, 1e154), Point3(0.0, 0.0, 0.0),
                         math.sqrt(3.0) * 1e154, 1.0 / math.sqrt(3.0), id="sum"),
            # The difference itself overflows.
            pytest.param(Point3(-1e308, 0.0, 1.0), Point3(1e308, 0.0, 0.0), math.inf, 0.0,
                         id="difference"),
        ],
    )
    def test_finite_points_past_the_range_of_the_squares(self, led, pd, expected, cosine):
        slant, c = link_geometry(led, pd)
        assert _close(slant, expected)
        assert _close(c, cosine)


class TestLinkGeometry:
    def test_center_link(self):
        assert link_geometry(LED, Point3(2.5, 2.5, 0.0)) == (3.0, 1.0)

    def test_corner_link(self):
        slant, c = link_geometry(LED, CORNER)
        assert _close(slant, CORNER_SLANT)
        assert _close(slant * math.sqrt(1.0 - c * c), CORNER_HORIZONTAL)
        assert c == 3.0 / slant
        elevation = math.degrees(math.asin(c))
        assert _close(elevation, CORNER_ELEVATION)
        assert _close(90.0 - elevation, CORNER_NORMAL)

    def test_angles_are_complementary(self):
        # The elevation asin(c) plus the angle from the PD normal, taken from
        # the coordinates directly, makes a right angle.
        rng = random.Random(11)
        for _ in range(200):
            pd = Point3(rng.uniform(0, 5), rng.uniform(0, 5), 0.0)
            _, c = link_geometry(LED, pd)
            elevation = math.degrees(math.asin(c))
            from_normal = math.degrees(math.atan2(math.hypot(pd.x - 2.5, pd.y - 2.5), 3.0))
            assert _close(elevation + from_normal, 90.0, 1e-9)
            assert 0.0 < c <= 1.0

    def test_pythagorean_closure(self):
        rng = random.Random(13)
        for _ in range(200):
            pd = Point3(rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 2.5))
            slant, c = link_geometry(LED, pd)
            horizontal = math.hypot(LED.x - pd.x, LED.y - pd.y)
            assert _close(slant, math.hypot(LED.z - pd.z, horizontal), 1e-9)
            assert _close(c * slant, LED.z - pd.z, 1e-9)

    def test_led_must_be_above_pd(self):
        with pytest.raises(LedNotAbovePd):
            link_geometry(Point3(2.5, 2.5, 0.0), Point3(2.5, 2.5, 0.0))
        with pytest.raises(LedNotAbovePd):
            link_geometry(Point3(2.5, 2.5, 1.0), Point3(2.5, 2.5, 2.0))

    def test_separation_past_the_float_range_names_both_heights(self):
        # lz - z and the slant both overflow; their quotient would be a NaN cosine.
        message = "LED z=1e+308 and PD z=-1e+308 are further apart than the float range"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as info:
            link_geometry(Point3(0.0, 0.0, 1e308), Point3(0.0, 0.0, -1e308))
        assert not isinstance(info.value, LedNotAbovePd)


class TestDiagonalPositions:
    """The default scenario's walk along the half-diagonal."""

    def test_matches_reference_grid(self):
        pts = default_config().pd_positions
        assert len(pts) == 10
        for pt, xy in zip(pts, DIAGONAL_XY):
            assert _close(pt.x, xy)
            assert _close(pt.y, xy)
            assert pt.z == 0.0

    def test_slants_along_grid(self):
        for pt, expected in zip(default_config().pd_positions, DIAGONAL_SLANTS):
            assert _close(link_geometry(LED, pt)[0], expected)

    def test_step_is_uniform(self):
        pts = default_config().pd_positions
        for a, b in zip(pts, pts[1:]):
            assert _close(a.x - b.x, 0.27)
            assert _close(a.y - b.y, 0.27)

    def test_endpoints_exact(self):
        pts = default_config().pd_positions
        assert pts[0] == Point3(2.5, 2.5, 0.0)
        assert pts[-1] == CORNER


class TestLinkGeometryIsLinkColumnsRow:
    """link_geometry gives link_columns' row for its one point: the same bits
    (float.hex tells -0.0 and each last bit apart), or the same exception type
    and message."""

    @pytest.mark.parametrize(
        "led, pd",
        [
            pytest.param(LED, Point3(2.5, 2.5, 0.0), id="on-axis"),
            pytest.param(LED, CORNER, id="corner"),
            pytest.param(Point3(2.5, 2.5, 1e-100), Point3(2.23, 2.23, 0.0), id="grazing"),
            pytest.param(Point3(0.0, 0.0, 1e200), Point3(0.0, 0.0, 0.0), id="square"),
            pytest.param(Point3(-1e308, 0.0, 1.0), Point3(1e308, 0.0, 0.0), id="difference"),
        ],
    )
    def test_same_bits(self, led, pd):
        (slant,), (c,) = link_columns(led, (pd,))
        assert tuple(map(float.hex, link_geometry(led, pd))) == (slant.hex(), c.hex())

    @pytest.mark.parametrize(
        "led, pd, error",
        [
            pytest.param(Point3(2.5, 2.5, 0.0), Point3(2.5, 2.5, 0.0), LedNotAbovePd,
                         id="level"),
            pytest.param(Point3(2.5, 2.5, 1.0), Point3(2.5, 2.5, 2.0), LedNotAbovePd,
                         id="below"),
            pytest.param(Point3(0.0, 0.0, 1e308), Point3(0.0, 0.0, -1e308), DomainError,
                         id="past-the-float-range"),
        ],
    )
    def test_same_exception(self, led, pd, error):
        with pytest.raises(DomainError) as row:
            link_columns(led, (pd,))
        with pytest.raises(DomainError) as scalar:
            link_geometry(led, pd)
        assert type(scalar.value) is type(row.value) is error
        assert str(scalar.value) == str(row.value)

    def test_int_heights_past_2_53_are_stored_as_doubles_and_the_cosine_is_one(self):
        # As ints V = 2**53 would be exact while math.dist took 2**53 + 1 as the
        # double 2**53 and returned 2**53 - 1, so V/d would exceed 1. A Point3
        # holds the doubles, so V is 2**53 - 1 too.
        led, pd = Point3(0, 0, 2**53 + 1), Point3(0, 0, 1)
        assert led.z == 2.0**53 and type(led.z) is float
        assert link_geometry(led, pd) == (2.0**53 - 1.0, 1.0)
        assert link_columns(led, (pd,)) == ([2.0**53 - 1.0], [1.0])
