"""Tests for the Lambertian line-of-sight optical channel."""

import math
import random
import re
from fractions import Fraction

import pytest

from vlcpos import (
    ChannelSample,
    DomainError,
    LedSpec,
    PdSpec,
    Point3,
    concentrator_gain,
    lambertian_order,
    link_columns,
    link_geometry,
    power_columns,
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


# A detector with A * h * g = 1: unit area and filter gain, n = 1 and a
# 90-degree FOV. At 1 m from a 1 W emitter it reads the emitter pattern
# (m+1)/2pi cos^m times the cos of the incidence angle.
UNIT_PD = PdSpec(area=1.0, fov=90.0, filter_gain=1.0, refractive_index=1.0)


def _intensity(angle, m):
    """(m+1)/2pi cos^m(angle), read off the one channel path."""
    led = LedSpec(LED.position, transmit_power=1.0, half_power_angle=60.0, lambertian_order=m)
    return received_power_at(led, UNIT_PD, 1.0, angle) / math.cos(math.radians(angle))


def _effective_area(angle, pd):
    """A * h * g(angle) * cos(angle), read off the one channel path at 1 m
    from a 1 W first-order emitter, whose pattern is cos(angle) / pi."""
    led = LedSpec(LED.position, transmit_power=1.0, half_power_angle=60.0, lambertian_order=1.0)
    return received_power_at(led, pd, 1.0, angle) / (math.cos(math.radians(angle)) / math.pi)


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
        # Below about 6.03709e-07 degrees cos rounds to 1 and the order is infinite.
        for bad in (0.0, 90.0, -5.0, 95.0, 1e-9):
            with pytest.raises(DomainError):
                lambertian_order(bad)

    def test_finite_at_the_low_bound(self):
        assert math.cos(math.radians(6.0371e-07)) < 1.0
        assert math.isfinite(lambertian_order(6.0371e-07))

    @pytest.mark.parametrize("order", [None, 2.0])
    def test_rejects_the_angle_below_the_bound_by_its_field(self, order):
        below = math.nextafter(6.0371e-07, 0.0)
        with pytest.raises(DomainError, match=r"^LedSpec\.half_power_angle must lie in "
                           rf"\[6\.0371e-07, 90\), got {below}$"):
            LedSpec(LED.position, 1.0, below, lambertian_order=order)


class TestEmitterPattern:
    """(m+1)/2pi cos^m, the radiant intensity, read off received_power_at."""

    def test_on_axis_first_order(self):
        assert _close(_intensity(0.0, 1.0), 1.0 / math.pi)

    def test_reference_values(self):
        assert _close(_intensity(60.0, 1.0), 0.15915494309189535)
        assert _close(_intensity(45.0, 3.0), 0.22507907903927651)
        assert _close(_intensity(48.87997267609269, 1.0), CORNER_INTENSITY)

    def test_vanishes_at_grazing(self):
        # cos(radians(90)) is ~6e-17 in floats, so the intensity is a
        # residue rather than an exact zero.
        assert 0.0 <= _intensity(90.0, 1.0) < 1e-15
        assert 0.0 <= _intensity(90.0, 3.0) < 1e-15

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError, match=r"^link angle must be >= 0 degrees, got -1.0$"):
            received_power_at(LED, PD, 3.0, -1.0)
        with pytest.raises(DomainError, match=r"^link angle must be >= 0 degrees, got nan$"):
            received_power_at(LED, PD, 3.0, math.nan)
        with pytest.raises(DomainError, match=r"^link angle must be finite, got inf$"):
            received_power_at(LED, PD, 3.0, math.inf)
        with pytest.raises(DomainError):
            LedSpec(LED.position, transmit_power=1.0, half_power_angle=60.0, lambertian_order=0.0)
        # Beyond every FOV (at most 90 degrees) the power is 0, not an error.
        assert received_power_at(LED, PD, 3.0, 91.0) == 0.0


def _cos(angle):
    return math.cos(math.radians(angle))


class TestConcentratorGain:
    """The gain takes the link cosine and the PD: inside the FOV iff
    c >= cos(fov). PdSpec's rules bound the FOV and the index."""

    PD_60 = PD._replace(fov=60.0)

    def test_full_hemisphere_fov(self):
        # sin(90 deg) = 1, so the gain is n^2 everywhere inside.
        assert concentrator_gain(1.0, PD) == 2.25
        assert concentrator_gain(_cos(89.9), PD) == 2.25

    def test_narrow_fov(self):
        assert _close(concentrator_gain(_cos(30.0), self.PD_60), 3.0)
        assert concentrator_gain(_cos(60.5), self.PD_60) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError, match=r"^link cosine must be <= 1, got 1.5$"):
            concentrator_gain(1.5, PD)
        with pytest.raises(DomainError, match=r"^link cosine must be <= 1, got nan$"):
            concentrator_gain(math.nan, PD)

    def test_grazing_link_is_inside_a_90_degree_fov(self):
        # cos(90 deg) is taken as exactly 0, not the 6.1e-17 of
        # cos(radians(90)), so a link at c = 1e-100 is seen.
        assert concentrator_gain(1e-100, PD) == 2.25
        assert concentrator_gain(0.0, PD) == 2.25
        assert concentrator_gain(-1e-100, PD) == 0.0


class TestDetectorResponse:
    """A h g(angle) cos(angle), the effective area, read off received_power_at."""

    def test_normal_incidence(self):
        assert _close(_effective_area(0.0, PD), 2.25e-6 * 1.0 * 2.25)

    def test_corner_incidence(self):
        assert _close(_effective_area(48.87997267609269, PD), CORNER_EFFECTIVE_AREA)

    def test_reference_value_at_30_degrees(self):
        assert _close(_effective_area(30.0, PD), 4.384253606658721e-06)

    def test_zero_beyond_fov(self):
        narrow = PdSpec(
            area=2.25e-6,
            fov=45.0,
            filter_gain=1.0,
            refractive_index=1.5,
        )
        assert received_power_at(LED, narrow, 3.0, 50.0) == 0.0

    def test_non_increasing_within_fov(self):
        values = [_effective_area(0.1 * k, PD) for k in range(900)]
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
        sample = received_power(LED, PD, Point3(2.5, 2.5, 0.0))
        assert isinstance(sample, ChannelSample)
        assert _close(sample.received_power, CENTER_POWER)
        assert sample.slant_distance == 3.0
        assert sample.concentrator_gain == 2.25
        # On axis the pattern is 1/pi and the effective area A * h * g.
        assert _close(sample.received_power, 15.0 / 9.0 / math.pi * 2.25e-6 * 2.25)

    def test_corner_link(self):
        sample = received_power(LED, PD, Point3(0.07, 0.07, 0.0))
        assert _close(sample.received_power, CORNER_POWER)
        assert sample.concentrator_gain == 2.25
        expected = (
            LED.transmit_power / sample.slant_distance**2 * CORNER_INTENSITY * CORNER_EFFECTIVE_AREA
        )
        assert _close(sample.received_power, expected)

    def test_diagonal_grid(self):
        for xy, expected in zip(DIAGONAL_XY, DIAGONAL_POWERS):
            power = received_power(LED, PD, Point3(xy, xy, 0.0)).received_power
            assert _close(power, expected)

    def test_zero_beyond_fov(self):
        # Corner incidence is 48.88 deg from the detector normal.
        pd = PdSpec(
            area=2.25e-6,
            fov=45.0,
            filter_gain=1.0,
            refractive_index=1.5,
        )
        sample = received_power(LED, pd, Point3(0.07, 0.07, 0.0))
        # The zero gain marks a FOV cut, not a power that underflowed.
        assert sample.received_power == 0.0
        assert sample.concentrator_gain == 0.0

    def test_scales_linearly_with_transmit_power(self):
        led8 = LedSpec(Point3(2.5, 2.5, 3.0), transmit_power=8.0, half_power_angle=60.0)
        center = Point3(2.5, 2.5, 0.0)
        p8 = received_power(led8, PD, center).received_power
        p15 = received_power(LED, PD, center).received_power
        assert _close(p15 / p8, 15.0 / 8.0)

    def test_matches_decay_law_on_grid(self):
        # P = K V^(m+1) / d^(m+3) with K folding emitter and detector constants.
        m = LED.lambertian_order
        k = (
            LED.transmit_power
            * (m + 1.0)
            * PD.area
            * PD.filter_gain
            * concentrator_gain(0.0, PD)
            / (2.0 * math.pi)
        )
        for xy, expected in zip(DIAGONAL_XY, DIAGONAL_POWERS):
            d, _ = link_geometry(LED.position, Point3(xy, xy, 0.0))
            assert _close(k * 3.0 ** (m + 1.0) / d ** (m + 3.0), expected, 1e-9)


class TestReceivedPowerAt:
    def test_inverse_square_at_fixed_angles(self):
        p1 = received_power_at(LED, PD, 2.0, 30.0)
        p2 = received_power_at(LED, PD, 4.0, 30.0)
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
            assert _close(received_power_at(LED, PD, 3.0, angle), power)

    def test_zero_beyond_fov(self):
        narrow = PdSpec(
            area=2.25e-6,
            fov=60.0,
            filter_gain=1.0,
            refractive_index=1.5,
        )
        assert received_power_at(LED, narrow, 3.0, 75.0) == 0.0

    def test_rejects_non_positive_distance(self):
        with pytest.raises(DomainError):
            received_power_at(LED, PD, 0.0, 0.0)


class TestPowerColumns:
    @pytest.mark.parametrize("order", [1.0, 1.7])
    def test_runs_of_one_cosine_match_the_one_row_views(self, order):
        # A column of mixed cosines goes row by row: runs broken by rows
        # beyond a 60-degree FOV, then a new cosine and one at the FOV's edge.
        led, pd = LED._replace(lambertian_order=order), PD._replace(fov=60.0)
        inside, beyond, other, edge = (math.cos(math.radians(a)) for a in (30.0, 75.0, 10.0, 60.0))
        cosines = [inside] * 3 + [beyond, inside, beyond, beyond, inside] + [other] * 3 + [edge]
        distances = [2.0 + i / 7 for i in range(len(cosines))]
        column = power_columns(led, pd, distances, cosines)
        rows = [power_columns(led, pd, (d,), (c,))[0] for d, c in zip(distances, cosines)]
        assert column == rows
        assert [power == 0.0 for power in column] == [c is beyond for c in cosines]
        with pytest.raises(DomainError, match=r"^distance must be > 0, got 0.0$"):
            power_columns(led, pd, (3.0, 0.0), (inside, inside))
        # A column of one cosine is computed whole, with the bits of the same
        # rows computed one by one in a column that ends in another cosine.
        for c in (inside, beyond):
            whole = power_columns(led, pd, distances, [c] * len(distances))
            by_rows = power_columns(led, pd, [*distances, 3.0], [c] * len(distances) + [other])
            assert whole == by_rows[:-1]
            assert (set(whole) == {0.0}) is (c is beyond)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, -math.inf])
    def test_a_column_of_one_cosine_names_its_first_bad_distance(self, bad):
        # The whole-column checks catch a bad distance after the first row,
        # and the rows then name it.
        with pytest.raises(DomainError, match=rf"^distance must be > 0, got {bad}$"):
            power_columns(LED, PD, (3.0, 4.0, bad, 5.0), (1.0,) * 4)

    def test_rejects_a_distance_whose_square_underflows_to_zero(self):
        # The row divides by d^2; 1e-200 squared is 0.0, while the smallest
        # config distance, about 1.49e-154, squares to a normal double.
        with pytest.raises(DomainError, match=r"^distance 1e-200 squares to 0$"):
            power_columns(LED, PD, (3.0, 1e-200), (1.0, 1.0))
        assert power_columns(LED, PD, (1.4916681462400413e-154,), (1.0,))[0] < math.inf

    @pytest.mark.parametrize("cosine", [1.5, math.nan], ids=["above-one", "nan"])
    def test_rejects_a_cosine_above_one_or_nan(self, cosine):
        with pytest.raises(DomainError, match=rf"^link cosine must be <= 1, got {cosine}$"):
            power_columns(LED, PD, (3.0,), (cosine,))

    @pytest.mark.parametrize(
        "led, pd, k",
        [
            # Each factor is in range; their product overflows.
            pytest.param(LED._replace(transmit_power=1e300), PD._replace(area=1e100), "inf",
                         id="inf"),
            # Each factor is in range; their product underflows.
            pytest.param(LED, PD._replace(area=1e-300, filter_gain=1e-300), "0.0", id="zero"),
        ],
    )
    def test_gain_constant_outside_the_float_range_names_k(self, led, pd, k):
        message = (f"K = P_t (m+1) A h g(0) / (2 pi) is {k} for P_t {led.transmit_power}, "
                   f"m {led.lambertian_order}, A {pd.area}, h {pd.filter_gain}, g(0) 2.25")
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            power_columns(led, pd, (3.0,), (1.0,))
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            received_power(led, pd, Point3(2.5, 2.5, 0.0))

    def test_gain_constant_in_range_past_an_overflowing_partial_product(self):
        # P_t (m+1) overflows before A = 1e-100 brings K back to about 3.6e209.
        led = LED._replace(transmit_power=1e300, lambertian_order=1e10)
        pd = PD._replace(area=1e-100)
        factors = (led.transmit_power, 1e10 + 1.0, pd.area, pd.filter_gain, 2.25)
        exact = float(math.prod(map(Fraction, factors)) / Fraction(math.tau))
        (power,) = power_columns(led, pd, (1.0,), (1.0,))
        assert power == pytest.approx(exact, rel=1e-12)

    def test_gain_constant_in_range_past_a_subnormal_partial_product(self):
        # P_t (m+1) A is about 2e-320, a subnormal with few bits left, before
        # h = 1e300 brings K back to about 7.2e-21.
        led = LED._replace(transmit_power=1e-300)
        pd = PD._replace(area=1e-20, filter_gain=1e300)
        factors = (led.transmit_power, led.lambertian_order + 1.0, pd.area, pd.filter_gain, 2.25)
        exact = float(math.prod(map(Fraction, factors)) / Fraction(math.tau))
        (power,) = power_columns(led, pd, (1.0,), (1.0,))
        # approx's default absolute tolerance of 1e-12 would hide the whole of K.
        assert power == pytest.approx(exact, rel=1e-12, abs=0.0)


class TestFovEdge:
    """The FOV is closed: angle == fov is inside, the next float above is
    outside (at these FOVs; the rule is c >= cos(fov), so elsewhere an angle a
    few ulps above the FOV can share its cosine and read inside)."""

    @pytest.mark.parametrize(
        "fov, gain, power",
        [
            # cos(60 deg) = 1/2 in both factors; sin^2(60 deg) = 3/4.
            (60.0, 3.0, 15.0 / 9.0 / math.pi * 0.5 * 2.25e-6 * 3.0 * 0.5),
            # cos(radians(90)) is a ~6e-17 residue, so the edge reads ~1e-38 W, not 0.
            (
                90.0,
                2.25,
                15.0 / 9.0 / math.pi * math.cos(math.radians(90.0)) ** 2 * 2.25e-6 * 2.25,
            ),
        ],
        ids=("fov-60", "fov-90"),
    )
    def test_edge_is_inside_and_the_next_float_is_outside(self, fov, gain, power):
        pd = PdSpec(area=2.25e-6, fov=fov, filter_gain=1.0, refractive_index=1.5)
        beyond = math.nextafter(fov, math.inf)
        assert _close(received_power_at(LED, pd, 3.0, fov), power)
        assert received_power_at(LED, pd, 3.0, beyond) == 0.0
        assert _close(concentrator_gain(_cos(fov), pd), gain)
        assert concentrator_gain(_cos(beyond), pd) == 0.0


class TestGrazingLink:
    """An LED 1e-100 m above the floor: every off-axis link grazes the PD at
    c = V/d near 2.6e-100, and the channel keeps that cosine exactly."""

    LOW_LED = LedSpec(Point3(2.5, 2.5, 1e-100), transmit_power=15.0, half_power_angle=60.0)

    def test_power_is_the_closed_form_at_the_link_cosine(self):
        position = Point3(2.23, 2.23, 0.0)
        sample = received_power(self.LOW_LED, PD, position)
        d = math.hypot(2.5 - 2.23, 2.5 - 2.23, 1e-100)
        c = 1e-100 / d
        # K = P_t (m+1) A h n^2 / (2 pi) with m = 1, n = 1.5 and sin(90 deg) = 1.
        k = 15.0 * 2.0 * 2.25e-6 * 1.0 * 2.25 / (2.0 * math.pi)
        assert math.isclose(sample.received_power, k * c**2 / d**2, rel_tol=1e-12)
        assert math.isclose(sample.received_power, 1.137e-203, rel_tol=1e-3)
        assert sample.concentrator_gain == 2.25


def _floor_point_at_cosine(led_z, target):
    """A floor point whose link cosine under an LED at (0, 0, led_z) is exactly
    target: the closed-form x, stepped one float at a time either way."""
    led = Point3(0.0, 0.0, led_z)
    below = above = led_z * math.sqrt(1.0 / (target * target) - 1.0)
    for _ in range(1000):
        for x in (below, above):
            if link_geometry(led, Point3(x, 0.0, 0.0))[1] == target:
                return Point3(x, 0.0, 0.0)
        below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
    raise AssertionError(f"no floor point at link cosine {target!r}")


def _columns_row(led, pd, position):
    """received_power's fields from the column functions: link_columns' and
    power_columns' one row, and the gain at its cosine."""
    (slant,), (c,) = link_columns(led.position, (position,))
    (power,) = power_columns(led, pd, (slant,), (c,))
    return slant, concentrator_gain(c, pd), power


class TestReceivedPowerIsTheColumnsRow:
    """received_power gives the column functions' one row: the same bits
    (float.hex), or the same exception type and message."""

    LOW_LED = TestGrazingLink.LOW_LED

    @pytest.mark.parametrize(
        "led, pd, position, power, gain",
        [
            # c = min(V/d, 1) is 1 under the LED: P = K / V^2 at the on-axis gain.
            pytest.param(LED, PD, Point3(2.5, 2.5, 0.0), CENTER_POWER, 2.25, id="on-axis"),
            # The corner link is 41 degrees above the floor, 49 from the PD normal.
            pytest.param(LED, PD._replace(fov=30.0), Point3(0.07, 0.07, 0.0), 0.0, 0.0,
                         id="beyond-fov-30"),
            pytest.param(LOW_LED, PD, Point3(2.23, 2.23, 0.0), 1.137e-203, 2.25,
                         id="grazing"),
            # c near 2.6e-100 to the power 8.5 underflows; the link is in the FOV.
            pytest.param(LOW_LED._replace(lambertian_order=7.5), PD, Point3(2.23, 2.23, 0.0),
                         0.0, 2.25, id="cosine-power-underflow"),
        ],
    )
    def test_received_power_is_the_row(self, led, pd, position, power, gain):
        sample = received_power(led, pd, position)
        row = _columns_row(led, pd, position)
        assert tuple(map(float.hex, sample)) == tuple(map(float.hex, row))
        assert math.isclose(sample.received_power, power, rel_tol=1e-3)
        assert sample.concentrator_gain == gain

    # received_power takes its FOV decision from concentrator_gain, and
    # power_columns takes its own; at the edge c == cos(fov) both read inside.
    AXIS_LED = LED._replace(position=Point3(0.0, 0.0, 3.0))
    COS_60 = math.cos(math.radians(60.0))

    @pytest.mark.parametrize(
        "led, pd, position, inside",
        [
            pytest.param(AXIS_LED, PD._replace(fov=60.0), _floor_point_at_cosine(3.0, COS_60),
                         True, id="at-cos-fov"),
            pytest.param(AXIS_LED, PD._replace(fov=60.0),
                         _floor_point_at_cosine(3.0, math.nextafter(COS_60, 0.0)), False,
                         id="next-double-below-cos-fov"),
            # V/d = 5e-324 / 4 rounds to 0.0, which is cos(90 deg) as the channel takes it.
            pytest.param(LED._replace(position=Point3(0.0, 0.0, 5e-324)), PD,
                         Point3(4.0, 0.0, 0.0), True, id="fov-90-grazing"),
            pytest.param(LED, PD._replace(fov=1e-6), Point3(2.5, 2.5, 0.0), True,
                         id="on-axis-fov-1e-6"),
        ],
    )
    def test_fov_edge_is_decided_as_the_row(self, led, pd, position, inside):
        sample = received_power(led, pd, position)
        row = _columns_row(led, pd, position)
        assert tuple(map(float.hex, sample)) == tuple(map(float.hex, row))
        if inside:
            assert sample.concentrator_gain > 0.0
        else:
            assert sample.concentrator_gain == sample.received_power == 0.0

    def test_k_past_the_float_range_raises_as_the_row(self):
        led, pd = LED._replace(transmit_power=1e300), PD._replace(area=1e100)
        with pytest.raises(DomainError) as row:
            _columns_row(led, pd, Point3(2.5, 2.5, 0.0))
        with pytest.raises(DomainError) as scalar:
            received_power(led, pd, Point3(2.5, 2.5, 0.0))
        assert type(scalar.value) is type(row.value) is DomainError
        assert str(scalar.value) == str(row.value)
        assert str(scalar.value).startswith("K = P_t (m+1) A h g(0) / (2 pi) is inf")


class TestRandomizedConsistency:
    def test_power_positive_inside_fov(self):
        rng = random.Random(41)
        for _ in range(100):
            position = Point3(rng.uniform(0, 5), rng.uniform(0, 5), 0.0)
            sample = received_power(LED, PD, position)
            assert sample.received_power > 0.0
            assert sample.received_power <= CENTER_POWER * (1.0 + 1e-12)
