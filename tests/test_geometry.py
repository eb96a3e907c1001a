"""Tests for point, room, and link geometry primitives."""

import math
import random

import pytest

from vlcpos import (
    DomainError,
    LedNotAbovePd,
    OutOfRoom,
    Point3,
    RoomSpec,
    clip_to_floor,
    diagonal_positions,
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
        g = link_geometry(LED, Point3(2.5, 2.5, 0.0))
        assert g.slant_distance == 3.0
        assert g.vertical_separation == 3.0
        assert g.horizontal_distance == 0.0
        assert g.elevation_angle == 90.0
        assert g.normal_angle == 0.0

    def test_corner_link(self):
        g = link_geometry(LED, CORNER)
        assert _close(g.slant_distance, CORNER_SLANT)
        assert _close(g.horizontal_distance, CORNER_HORIZONTAL)
        assert _close(g.elevation_angle, CORNER_ELEVATION)
        assert _close(g.normal_angle, CORNER_NORMAL)

    def test_angles_are_complementary(self):
        rng = random.Random(11)
        for _ in range(200):
            pd = Point3(rng.uniform(0, 5), rng.uniform(0, 5), 0.0)
            g = link_geometry(LED, pd)
            assert _close(g.elevation_angle + g.normal_angle, 90.0, 1e-9)
            assert 0.0 <= g.elevation_angle <= 90.0
            assert 0.0 <= g.normal_angle <= 90.0

    def test_pythagorean_closure(self):
        rng = random.Random(13)
        for _ in range(200):
            pd = Point3(rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 2.5))
            g = link_geometry(LED, pd)
            recomputed = math.hypot(g.vertical_separation, g.horizontal_distance)
            assert _close(g.slant_distance, recomputed, 1e-9)

    def test_led_must_be_above_pd(self):
        with pytest.raises(LedNotAbovePd):
            link_geometry(Point3(2.5, 2.5, 0.0), Point3(2.5, 2.5, 0.0))
        with pytest.raises(LedNotAbovePd):
            link_geometry(Point3(2.5, 2.5, 1.0), Point3(2.5, 2.5, 2.0))


class TestDiagonalPositions:
    def test_matches_reference_grid(self):
        pts = diagonal_positions(ROOM, 10, Point3(2.5, 2.5, 0.0), CORNER)
        assert len(pts) == 10
        for pt, xy in zip(pts, DIAGONAL_XY):
            assert _close(pt.x, xy)
            assert _close(pt.y, xy)
            assert pt.z == 0.0

    def test_slants_along_grid(self):
        pts = diagonal_positions(ROOM, 10, Point3(2.5, 2.5, 0.0), CORNER)
        for pt, expected in zip(pts, DIAGONAL_SLANTS):
            assert _close(euclidean_distance(LED, pt), expected)

    def test_step_is_uniform(self):
        pts = diagonal_positions(ROOM, 10, Point3(2.5, 2.5, 0.0), CORNER)
        for a, b in zip(pts, pts[1:]):
            assert _close(a.x - b.x, 0.27)
            assert _close(a.y - b.y, 0.27)

    def test_endpoints_exact(self):
        pts = diagonal_positions(ROOM, 2, Point3(2.5, 2.5, 0.0), CORNER)
        assert pts[0] == Point3(2.5, 2.5, 0.0)
        assert pts[-1] == CORNER

    def test_rejects_short_counts(self):
        with pytest.raises(DomainError):
            diagonal_positions(ROOM, 1, Point3(2.5, 2.5, 0.0), CORNER)

    def test_rejects_points_off_floor(self):
        with pytest.raises(OutOfRoom):
            diagonal_positions(ROOM, 3, Point3(2.5, 2.5, 0.5), CORNER)

    def test_rejects_points_outside_room(self):
        with pytest.raises(OutOfRoom):
            diagonal_positions(ROOM, 3, Point3(2.5, 2.5, 0.0), Point3(6.0, 6.0, 0.0))


class TestClipToFloor:
    def test_inside_unchanged(self):
        p = Point3(1.0, 4.0, 0.0)
        clipped, was_clipped = clip_to_floor(p, ROOM)
        assert clipped == p
        assert was_clipped is False

    def test_outside_clamped(self):
        clipped, was_clipped = clip_to_floor(Point3(-0.5, 5.5, 0.0), ROOM)
        assert clipped == Point3(0.0, 5.0, 0.0)
        assert was_clipped is True
