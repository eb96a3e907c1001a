"""Tests for point, room, and link geometry primitives."""

import math
import random

import pytest

from vlcpos import (
    DomainError,
    LedNotAbovePd,
    Point3,
    RoomSpec,
    default_config,
    euclidean_distance,
    link_geometry,
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

    def test_frozen(self):
        p = Point3(1.0, 2.0, 3.0)
        with pytest.raises(AttributeError):
            p.x = 5.0


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
    def test_center_link_is_vertical(self):
        assert euclidean_distance(LED, Point3(2.5, 2.5, 0.0)) == 3.0

    def test_corner_link(self):
        assert _close(euclidean_distance(LED, CORNER), CORNER_SLANT)

    def test_symmetry_and_identity(self):
        rng = random.Random(7)
        for _ in range(50):
            a = Point3(rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 3))
            b = Point3(rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 3))
            assert euclidean_distance(a, b) == euclidean_distance(b, a)
            assert euclidean_distance(a, a) == 0.0


class TestLinkGeometry:
    def test_center_link(self):
        assert link_geometry(LED, Point3(2.5, 2.5, 0.0)) == (3.0, 0.0, 90.0)

    def test_corner_link(self):
        slant, horizontal, elevation = link_geometry(LED, CORNER)
        assert _close(slant, CORNER_SLANT)
        assert _close(horizontal, CORNER_HORIZONTAL)
        assert _close(elevation, CORNER_ELEVATION)
        assert _close(90.0 - elevation, CORNER_NORMAL)

    def test_angles_are_complementary(self):
        # The elevation plus the angle from the PD normal, taken from the
        # coordinates directly, makes a right angle.
        rng = random.Random(11)
        for _ in range(200):
            pd = Point3(rng.uniform(0, 5), rng.uniform(0, 5), 0.0)
            _, _, elevation = link_geometry(LED, pd)
            from_normal = math.degrees(math.atan2(math.hypot(pd.x - 2.5, pd.y - 2.5), 3.0))
            assert _close(elevation + from_normal, 90.0, 1e-9)
            assert 0.0 <= elevation <= 90.0

    def test_pythagorean_closure(self):
        rng = random.Random(13)
        for _ in range(200):
            pd = Point3(rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 2.5))
            slant, horizontal, _ = link_geometry(LED, pd)
            assert _close(slant, math.hypot(LED.z - pd.z, horizontal), 1e-9)

    def test_led_must_be_above_pd(self):
        with pytest.raises(LedNotAbovePd):
            link_geometry(Point3(2.5, 2.5, 0.0), Point3(2.5, 2.5, 0.0))
        with pytest.raises(LedNotAbovePd):
            link_geometry(Point3(2.5, 2.5, 1.0), Point3(2.5, 2.5, 2.0))


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
            assert _close(euclidean_distance(LED, pt), expected)

    def test_step_is_uniform(self):
        pts = default_config().pd_positions
        for a, b in zip(pts, pts[1:]):
            assert _close(a.x - b.x, 0.27)
            assert _close(a.y - b.y, 0.27)

    def test_endpoints_exact(self):
        pts = default_config().pd_positions
        assert pts[0] == Point3(2.5, 2.5, 0.0)
        assert pts[-1] == CORNER
