"""Tests for the Lambertian line-of-sight optical channel."""

import math
import random

import pytest

from vlcpos import (
    ChannelSample,
    DomainError,
    LedSpec,
    PdSpec,
    Point3,
    concentrator_gain,
    effective_area,
    lambertian_order,
    link_geometry,
    radiant_intensity,
    received_power,
    received_power_at,
)

# Reference link budget: 15 W emitter centered on the ceiling of a
# 5 x 5 x 3 m room, 60 deg half-power angle (first-order Lambertian),
# 2.25 mm^2 detector with unity filter gain, n = 1.5, 90 deg field of view.
LED = LedSpec(
    position=Point3(2.5, 2.5, 3.0),
    transmit_power=15.0,
    half_power_angle=60.0,
)
PD = PdSpec(
    position=Point3(2.5, 2.5, 0.0),
    area=2.25e-6,
    fov=90.0,
    filter_gain=1.0,
    refractive_index=1.5,
)

# Independently derived doubles (50-digit arithmetic, rounded to nearest).
ORDER_BY_HALF_ANGLE = {
    30.0: 4.818841679306418,
    45.0: 2.0,
    60.0: 1.0,
    70.0: 0.6460587703487338,
}
CENTER_POWER = 2.685739664675734e-06
CORNER_POWER = 5.023577648361831e-07
CORNER_EFFECTIVE_AREA = 3.329295454237597e-06
CORNER_INTENSITY = 0.2093328705403617
DIAGONAL_POWERS = (
    2.685739664675734e-06,
    2.600791469355401e-06,
    2.3687969119075403e-06,
    2.0457204062701983e-06,
    1.6938481850301814e-06,
    1.360539843556051e-06,
    1.071500432677483e-06,
    8.346720556058764e-07,
    6.473917199346377e-07,
    5.023577648361831e-07,
)
DIAGONAL_XY = (2.50, 2.23, 1.96, 1.69, 1.42, 1.15, 0.88, 0.61, 0.34, 0.07)


def _close(a, b, tol=1e-12):
    return math.isclose(a, b, rel_tol=tol, abs_tol=1e-300)


class TestLambertianOrder:
    def test_reference_values(self):
        for angle, m in ORDER_BY_HALF_ANGLE.items():
            assert _close(lambertian_order(angle), m)

    def test_table_override_angle(self):
        assert _close(lambertian_order(54.08), 1.299687764887075)

    def test_half_power_property(self):
        for angle in (15.0, 30.0, 45.0, 60.0, 70.0, 80.0):
            m = lambertian_order(angle)
            assert abs(math.cos(math.radians(angle)) ** m - 0.5) < 1e-9

    def test_strictly_decreasing_in_half_angle(self):
        angles = [5.0 + 0.5 * k for k in range(160)]
        orders = [lambertian_order(a) for a in angles]
        assert all(a > b for a, b in zip(orders, orders[1:]))

    def test_rejects_out_of_range(self):
        for bad in (0.0, 90.0, -5.0, 95.0):
            with pytest.raises(DomainError):
                lambertian_order(bad)


class TestRadiantIntensity:
    def test_on_axis_first_order(self):
        assert _close(radiant_intensity(0.0, 1.0), 1.0 / math.pi)

    def test_reference_values(self):
        assert _close(radiant_intensity(60.0, 1.0), 0.15915494309189535)
        assert _close(radiant_intensity(45.0, 3.0), 0.22507907903927651)
        assert _close(radiant_intensity(48.87997267609269, 1.0), CORNER_INTENSITY)

    def test_vanishes_at_grazing(self):
        # cos(radians(90)) is ~6e-17 in floats, so the intensity is a
        # residue rather than an exact zero.
        assert 0.0 <= radiant_intensity(90.0, 1.0) < 1e-15
        assert 0.0 <= radiant_intensity(90.0, 3.0) < 1e-15

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            radiant_intensity(-1.0, 1.0)
        with pytest.raises(DomainError):
            radiant_intensity(91.0, 1.0)
        with pytest.raises(DomainError):
            radiant_intensity(30.0, 0.0)


class TestConcentratorGain:
    def test_full_hemisphere_fov(self):
        # sin(90 deg) = 1, so the gain is n^2 everywhere inside.
        assert concentrator_gain(0.0, 1.5, 90.0) == 2.25
        assert concentrator_gain(89.9, 1.5, 90.0) == 2.25

    def test_narrow_fov(self):
        assert _close(concentrator_gain(30.0, 1.5, 60.0), 3.0)
        assert concentrator_gain(60.5, 1.5, 60.0) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            concentrator_gain(-1.0, 1.5, 90.0)
        with pytest.raises(DomainError):
            concentrator_gain(0.0, 1.5, 0.0)
        with pytest.raises(DomainError):
            concentrator_gain(0.0, 0.5, 90.0)


class TestEffectiveArea:
    def test_normal_incidence(self):
        assert _close(effective_area(0.0, PD), 2.25e-6 * 1.0 * 2.25)

    def test_corner_incidence(self):
        assert _close(effective_area(48.87997267609269, PD), CORNER_EFFECTIVE_AREA)

    def test_reference_value_at_30_degrees(self):
        assert _close(effective_area(30.0, PD), 4.384253606658721e-06)

    def test_zero_beyond_fov(self):
        narrow = PdSpec(
            position=Point3(2.5, 2.5, 0.0),
            area=2.25e-6,
            fov=45.0,
            filter_gain=1.0,
            refractive_index=1.5,
        )
        assert effective_area(50.0, narrow) == 0.0

    def test_non_increasing_within_fov(self):
        values = [effective_area(0.1 * k, PD) for k in range(900)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestLedSpec:
    def test_order_defaults_from_half_power_angle(self):
        assert _close(LED.lambertian_order, 1.0)

    def test_order_override(self):
        led = LedSpec(
            position=Point3(2.5, 2.5, 3.0),
            transmit_power=15.0,
            half_power_angle=60.0,
            lambertian_order=1.3,
        )
        assert led.lambertian_order == 1.3

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            LedSpec(Point3(0, 0, 3), transmit_power=0.0, half_power_angle=60.0)
        with pytest.raises(DomainError):
            LedSpec(Point3(0, 0, 3), transmit_power=15.0, half_power_angle=90.0)
        with pytest.raises(DomainError):
            LedSpec(
                Point3(0, 0, 3),
                transmit_power=15.0,
                half_power_angle=60.0,
                lambertian_order=-1.0,
            )


class TestPdSpec:
    def test_rejects_bad_parameters(self):
        good = dict(
            position=Point3(0, 0, 0),
            area=2.25e-6,
            fov=90.0,
            filter_gain=1.0,
            refractive_index=1.5,
        )
        for key, bad in (
            ("area", 0.0),
            ("fov", 0.0),
            ("fov", 120.0),
            ("filter_gain", 0.0),
            ("refractive_index", 0.5),
            # Each gives an infinite concentrator gain n^2 / sin^2(fov).
            ("fov", 5e-324),
            ("fov", 1e-155),
            ("refractive_index", 1e200),
        ):
            with pytest.raises(DomainError):
                PdSpec(**{**good, key: bad})


class TestReceivedPower:
    def test_center_link(self):
        sample = received_power(LED, PD)
        assert isinstance(sample, ChannelSample)
        assert _close(sample.received_power, CENTER_POWER)
        assert sample.geometry.slant_distance == 3.0
        assert _close(sample.radiant_intensity, 1.0 / math.pi)
        assert sample.concentrator_gain == 2.25

    def test_corner_link(self):
        pd = PdSpec(
            position=Point3(0.07, 0.07, 0.0),
            area=2.25e-6,
            fov=90.0,
            filter_gain=1.0,
            refractive_index=1.5,
        )
        sample = received_power(LED, pd)
        assert _close(sample.received_power, CORNER_POWER)
        assert _close(sample.effective_area, CORNER_EFFECTIVE_AREA)
        assert _close(sample.radiant_intensity, CORNER_INTENSITY)

    def test_diagonal_grid(self):
        for xy, expected in zip(DIAGONAL_XY, DIAGONAL_POWERS):
            pd = PdSpec(
                position=Point3(xy, xy, 0.0),
                area=2.25e-6,
                fov=90.0,
                filter_gain=1.0,
                refractive_index=1.5,
            )
            assert _close(received_power(LED, pd).received_power, expected)

    def test_zero_beyond_fov(self):
        # Corner incidence is 48.88 deg from the detector normal.
        pd = PdSpec(
            position=Point3(0.07, 0.07, 0.0),
            area=2.25e-6,
            fov=45.0,
            filter_gain=1.0,
            refractive_index=1.5,
        )
        sample = received_power(LED, pd)
        assert sample.received_power == 0.0
        assert sample.concentrator_gain == 0.0
        assert sample.effective_area == 0.0

    def test_scales_linearly_with_transmit_power(self):
        led8 = LedSpec(Point3(2.5, 2.5, 3.0), transmit_power=8.0, half_power_angle=60.0)
        p8 = received_power(led8, PD).received_power
        p15 = received_power(LED, PD).received_power
        assert _close(p15 / p8, 15.0 / 8.0)

    def test_matches_decay_law_on_grid(self):
        # P = K V^(m+1) / d^(m+3) with K folding emitter and detector constants.
        m = LED.lambertian_order
        k = (
            LED.transmit_power
            * (m + 1.0)
            * PD.area
            * PD.filter_gain
            * concentrator_gain(0.0, PD.refractive_index, PD.fov)
            / (2.0 * math.pi)
        )
        for xy, expected in zip(DIAGONAL_XY, DIAGONAL_POWERS):
            d = link_geometry(LED.position, Point3(xy, xy, 0.0)).slant_distance
            assert _close(k * 3.0 ** (m + 1.0) / d ** (m + 3.0), expected, 1e-9)


class TestReceivedPowerAt:
    def test_inverse_square_at_fixed_angles(self):
        p1 = received_power_at(LED, PD, 2.0, 30.0, 30.0)
        p2 = received_power_at(LED, PD, 4.0, 30.0, 30.0)
        assert _close(p1 / p2, 4.0)

    def test_elevation_family_values_at_center_distance(self):
        # Incidence fixed at the emission angle, both measured from normals.
        expected = {
            60.0: 2.0143047485068003e-06,
            70.0: 2.3715678052324037e-06,
            80.0: 2.6047547044617702e-06,
            90.0: 2.685739664675734e-06,
        }
        for elevation, power in expected.items():
            angle = 90.0 - elevation
            assert _close(received_power_at(LED, PD, 3.0, angle, angle), power)

    def test_zero_beyond_fov(self):
        narrow = PdSpec(
            position=Point3(2.5, 2.5, 0.0),
            area=2.25e-6,
            fov=60.0,
            filter_gain=1.0,
            refractive_index=1.5,
        )
        assert received_power_at(LED, narrow, 3.0, 10.0, 75.0) == 0.0

    def test_rejects_non_positive_distance(self):
        with pytest.raises(DomainError):
            received_power_at(LED, PD, 0.0, 0.0, 0.0)


class TestRandomizedConsistency:
    def test_power_positive_inside_fov(self):
        rng = random.Random(41)
        for _ in range(100):
            pd = PdSpec(
                position=Point3(rng.uniform(0, 5), rng.uniform(0, 5), 0.0),
                area=2.25e-6,
                fov=90.0,
                filter_gain=1.0,
                refractive_index=1.5,
            )
            sample = received_power(LED, pd)
            assert sample.received_power > 0.0
            assert sample.received_power <= CENTER_POWER * (1.0 + 1e-12)
