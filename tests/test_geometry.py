"""Tests for point, room, and link geometry primitives.

The default walk's points and slants and the centre and corner links are cases
of test_reference.py's table; this file holds the rest.
"""

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
    default_config,
    estimate_position,
    link_columns,
    link_geometry,
    received_power,
)

from reference import close

LED = (2.5, 2.5, 3.0)


class TestPoint3:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["x", "y", "z"])
    def test_non_finite_message_names_the_coordinate(self, name, value):
        coordinates = {"x": 1.0, "y": 2.0, "z": 3.0, name: value}
        with pytest.raises(DomainError, match=rf"^Point3\.{name} must be finite, got {value}$"):
            Point3(**coordinates)

    def test_pickle_round_trip(self):
        p = Point3(1.0, -0.0, 3.0)
        restored = pickle.loads(pickle.dumps(p))
        assert type(restored) is Point3
        assert repr(restored) == repr(p)

    # Each record type, built from the default config.
    FROZEN = {
        "Point3": lambda c: Point3(1.0, 2.0, 3.0),
        "ChannelSample": lambda c: ChannelSample(3.0, 2.25, 1.27e-06),
        "EstimateRecord": lambda c: EstimateRecord(Point3(2.5, 2.5, 0.0), 1.0, 0.0, 1.27e-06,
                                                   3.0, None),
        "ReplicationCheck": lambda c: ReplicationCheck("check", 3.0, 3.0, 0.0, "REPRODUCED",
                                                       "REPRODUCED", "note"),
        "RoomSpec": lambda c: c.room,
        "LedSpec": lambda c: c.led,
        "PdSpec": lambda c: c.pd_template,
        "ScenarioConfig": lambda c: c,
        "OutputTable": lambda c: OutputTable("demo", ("a", "b"), ((1, 2),), {}),
    }

    @pytest.mark.parametrize("record", FROZEN)
    def test_frozen(self, record):
        record = self.FROZEN[record](default_config())
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 5.0)


class TestRoomSpec:
    def test_contains_floor_point(self):
        room = default_config().room
        assert room.contains_floor_point(Point3(0.0, 0.0, 0.0))
        assert room.contains_floor_point(Point3(5.0, 5.0, 0.0))
        assert not room.contains_floor_point(Point3(5.01, 2.0, 0.0))
        assert not room.contains_floor_point(Point3(2.0, -0.01, 0.0))


class TestDistancesAreMathDist:
    """The Euclidean distance between two points: link_geometry's slant and
    estimate_position's positioning error, both math.dist."""

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
            pytest.param((0.0, 0.0, 1e200), (0.0, 0.0, 0.0), 1e200, 1.0, id="square"),
            # Each square is finite, their sum is not.
            pytest.param((1e154, 1e154, 1e154), (0.0, 0.0, 0.0), math.sqrt(3.0) * 1e154,
                         1.0 / math.sqrt(3.0), id="sum"),
            # The difference itself overflows.
            pytest.param((-1e308, 0.0, 1.0), (1e308, 0.0, 0.0), math.inf, 0.0,
                         id="difference"),
        ],
    )
    def test_finite_points_past_the_range_of_the_squares(self, led, pd, expected, cosine):
        slant, c = link_geometry(Point3(*led), Point3(*pd))
        assert close(slant, expected)
        assert close(c, cosine)


class TestLinkGeometryIsLinkColumnsRow:
    """link_geometry gives link_columns' row for its one point: the same bits
    (float.hex tells -0.0 and each last bit apart), or the same exception type
    and message."""

    @pytest.mark.parametrize(
        "led, pd",
        [
            pytest.param(LED, (2.5, 2.5, 0.0), id="on-axis"),
            pytest.param(LED, (0.07, 0.07, 0.0), id="corner"),
            pytest.param((2.5, 2.5, 1e-100), (2.23, 2.23, 0.0), id="grazing"),
            pytest.param((0.0, 0.0, 1e200), (0.0, 0.0, 0.0), id="square"),
            pytest.param((-1e308, 0.0, 1.0), (1e308, 0.0, 0.0), id="difference"),
        ],
    )
    def test_same_bits(self, led, pd):
        led, pd = Point3(*led), Point3(*pd)
        (slant,), (c,) = link_columns(led, (pd,))
        assert tuple(map(float.hex, link_geometry(led, pd))) == (slant.hex(), c.hex())

    @pytest.mark.parametrize(
        "led, pd, error, message",
        [
            pytest.param((2.5, 2.5, 0.0), (2.5, 2.5, 0.0), LedNotAbovePd,
                         "LED z=0.0 must be strictly above PD z=0.0", id="level"),
            pytest.param((2.5, 2.5, 1.0), (2.5, 2.5, 2.0), LedNotAbovePd,
                         "LED z=1.0 must be strictly above PD z=2.0", id="below"),
            # lz - z and the slant both overflow; their quotient would be a NaN
            # cosine. This is no LedNotAbovePd.
            pytest.param((0.0, 0.0, 1e308), (0.0, 0.0, -1e308), DomainError,
                         "LED z=1e+308 and PD z=-1e+308 are further apart than the float range",
                         id="past-the-float-range"),
        ],
    )
    def test_same_exception(self, led, pd, error, message):
        led, pd = Point3(*led), Point3(*pd)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as row:
            link_columns(led, (pd,))
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as scalar:
            link_geometry(led, pd)
        assert type(scalar.value) is type(row.value) is error

    def test_int_heights_past_2_53_are_stored_as_doubles_and_the_cosine_is_one(self):
        # As ints V = 2**53 would be exact while math.dist took 2**53 + 1 as the
        # double 2**53 and returned 2**53 - 1, so V/d would exceed 1. A Point3
        # holds the doubles, so V is 2**53 - 1 too.
        led, pd = Point3(0, 0, 2**53 + 1), Point3(0, 0, 1)
        assert led.z == 2.0**53 and type(led.z) is float
        assert link_geometry(led, pd) == (2.0**53 - 1.0, 1.0)
        assert link_columns(led, (pd,)) == ([2.0**53 - 1.0], [1.0])
