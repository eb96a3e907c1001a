"""Tests for the complementary/supplementary-angle position estimator."""

import math
import random
import sys
from decimal import Decimal, localcontext

import pytest
from scipy.optimize import brentq

from vlcpos import (
    DomainError,
    LedSpec,
    NonPositivePower,
    PdSpec,
    Point3,
    PowerTooHigh,
    default_config,
    estimate_lines,
    estimate_position,
    invert_power_to_distance,
    received_power,
    replication_report,
)

from csa_oracle import csa_angles, offset_estimate

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
CENTER_POWER = 2.685739664675734e-06
POWER_AT_3_5_M = 1.4496953791835698e-06
POSITION5_POWER = 1.6938481850301814e-06
POSITION5_ESTIMATE = 1.7737782028390627
POSITION5_ERROR = 0.5003179325269824
PUBLISHED_ERRORS = (
    0.0013, 0.0050, 0.0118, 0.0247, 0.0376,
    0.0495, 0.0616, 0.0719, 0.0776, 0.0797,
)


def _close(a, b, tol=1e-12):
    return math.isclose(a, b, rel_tol=tol, abs_tol=1e-300)


def _forward_power(distance, led, pd, vertical):
    """Closed-form decay law, written out independently of the channel code."""
    m = led.lambertian_order
    gain = pd.refractive_index**2 / math.sin(math.radians(pd.fov)) ** 2
    k = led.transmit_power * (m + 1.0) * pd.area * pd.filter_gain * gain / (2.0 * math.pi)
    return k * vertical ** (m + 1.0) / distance ** (m + 3.0)


class TestInvertPowerToDistance:
    def test_reference_round_trip(self):
        d = invert_power_to_distance(POWER_AT_3_5_M, LED, PD, 3.0)
        assert _close(d, 3.5, 1e-9)

    def test_on_axis_maximum_maps_to_vertical(self):
        d = invert_power_to_distance(CENTER_POWER, LED, PD, 3.0)
        assert d >= 3.0
        assert _close(d, 3.0)

    def test_clamps_rounding_noise_to_vertical(self):
        # A hair above the on-axis maximum is rounding noise, not an error.
        d = invert_power_to_distance(CENTER_POWER * (1.0 + 1e-12), LED, PD, 3.0)
        assert d == 3.0

    def test_round_trip_against_forward_model(self):
        rng = random.Random(17)
        for _ in range(200):
            vertical = rng.uniform(1.5, 4.0)
            d_true = rng.uniform(vertical, 3.0 * vertical)
            p = _forward_power(d_true, LED, PD, vertical)
            d = invert_power_to_distance(p, LED, PD, vertical)
            assert _close(d, d_true, 1e-9)

    def test_matches_root_finder(self):
        # Cross-check the closed-form inversion against a numeric root of
        # the forward law, including a non-integer Lambertian order.
        led = LedSpec(
            position=Point3(2.5, 2.5, 3.0),
            transmit_power=15.0,
            half_power_angle=60.0,
            lambertian_order=1.3,
        )
        for d_true in (3.0, 3.7, 4.561775969948546, 6.5):
            p = _forward_power(d_true, led, PD, 3.0)
            d = invert_power_to_distance(p, led, PD, 3.0)
            root = brentq(
                lambda x: _forward_power(x, led, PD, 3.0) - p, 2.9, 20.0, xtol=1e-13
            )
            assert _close(d, root, 1e-9)
            assert _close(d, d_true, 1e-9)

    def test_rejects_non_positive_power(self):
        with pytest.raises(NonPositivePower):
            invert_power_to_distance(0.0, LED, PD, 3.0)
        with pytest.raises(NonPositivePower):
            invert_power_to_distance(-1e-6, LED, PD, 3.0)

    def test_rejects_power_above_on_axis_maximum(self):
        with pytest.raises(PowerTooHigh):
            invert_power_to_distance(2.0 * CENTER_POWER, LED, PD, 3.0)

    def test_rejects_non_positive_vertical_separation(self):
        with pytest.raises(DomainError):
            invert_power_to_distance(POWER_AT_3_5_M, LED, PD, 0.0)

    @pytest.mark.parametrize(
        "height, order, point, distance",
        [
            # V ** (m + 1) = 0.5 ** 1101 underflows to 0.
            pytest.param(0.5, 1100.0, (2.5, 2.5), 0.5, id="underflow-on-axis"),
            pytest.param(0.5, 1100.0, (2.23, 2.23), 0.6291263784010332, id="underflow"),
            # V ** (m + 1) = 3.0 ** 651 overflows.
            pytest.param(3.0, 650.0, (2.23, 2.23), 3.02420237418067, id="overflow"),
            # V ** (m + 1) is in range, but K * V^(m+1) / P = V^4 underflows.
            pytest.param(1e-100, 1.0, (2.5, 2.5), 1e-100, id="quotient-underflow"),
        ],
    )
    def test_out_of_range_powers_of_v_invert_in_logarithms(
        self, height, order, point, distance
    ):
        led = LedSpec(
            position=Point3(2.5, 2.5, height),
            transmit_power=15.0,
            half_power_angle=60.0,
            lambertian_order=order,
        )
        power = received_power(led, PD, Point3(*point, 0.0)).received_power
        assert _close(invert_power_to_distance(power, led, PD, height), distance, 1e-9)

    @pytest.mark.parametrize(
        "power, height",
        [
            # K * V^2 / P overflows: the smallest subnormal reading at 3 m.
            pytest.param(5e-324, 3.0, id="tiny-power"),
            # V^2 is near the float maximum and the on-axis reading subnormal.
            pytest.param(None, 7e153, id="tall-room"),
        ],
    )
    def test_overflowing_quotient_inverts_in_logarithms(self, power, height):
        led = LedSpec(Point3(2.5, 2.5, height), transmit_power=15.0, half_power_angle=60.0)
        if power is None:
            power = received_power(led, PD, Point3(2.5, 2.5, 0.0)).received_power
        # d^4 = K V^2 / P for a first-order LED, in exact decimal arithmetic.
        with localcontext() as context:
            context.prec = 40
            k = Decimal(15.0 * 2.0 * 2.25e-6 * 1.0 * 2.25) / (2 * Decimal(math.pi))
            expected = float((k * Decimal(height) ** 2 / Decimal(power)).sqrt().sqrt())
        assert math.isclose(invert_power_to_distance(power, led, PD, height), expected,
                            rel_tol=1e-12)

    def test_gain_constant_past_the_float_range_still_fails(self):
        # K = P_t (m+1) A h g / (2 pi) overflows to inf, and the channel's K
        # names itself before the inversion runs.
        led = LedSpec(LED.position, transmit_power=1e308, half_power_angle=60.0)
        pd = PdSpec(area=1e308, fov=90.0, filter_gain=1.0, refractive_index=1.5)
        with pytest.raises(DomainError, match=r"^K = P_t \(m\+1\) A h g\(0\) / \(2 pi\) is inf"):
            invert_power_to_distance(1e-6, led, pd, 3.0)

    def test_distance_past_the_float_range_in_logarithms_fails(self):
        # V^(m+1) overflows, so the inversion takes logarithms, and there
        # (ln K + (m+1) ln V - ln P) / (m+3) is about 720, past exp's range.
        led = LedSpec(Point3(0.0, 0.0, 1e308), 1e300, 60.0, lambertian_order=1e-3)
        pd = PdSpec(1e7, 90.0, 1.0, 1.5)
        with pytest.raises(DomainError, match=r"^measured power 5e-324 inverts to a non-finite "
                                              r"distance inf$"):
            invert_power_to_distance(5e-324, led, pd, 1e308)


def _lines(record):
    """estimate_lines as a key -> text mapping."""
    return dict(line.split(" = ") for line in estimate_lines(record, clipped=False))


def _reading_at(d_hor, elevation):
    """An LED seen from the floor origin at the elevation, d_hor away, and the PD's reading."""
    vertical = d_hor * math.tan(math.radians(elevation))
    led = LedSpec(Point3(d_hor, 0.0, vertical), transmit_power=15.0, half_power_angle=60.0)
    return led, received_power(led, PD, Point3(0.0, 0.0, 0.0)).received_power


# Readings from a hair above the on-axis maximum down to the smallest subnormal.
READINGS = (CENTER_POWER * (1.0 + 1e-12), CENTER_POWER, POWER_AT_3_5_M, 1e-8, 1e-100, 5e-324)
FLOAT_MAX = sys.float_info.max


class TestCsaAngles:
    """The angle pair estimate_lines prints, and the literal oracle's.

    theta = 0 is an infinite distance, out of estimate_position's reach, so the
    grid that starts there is checked on the oracle alone.
    """

    def test_under_emitter(self):
        assert csa_angles(90.0) == (0.0, 180.0)
        sample = received_power(LED, PD, Point3(2.5, 2.5, 0.0))
        lines = _lines(estimate_position(sample.received_power, LED, PD, 225.0))
        assert (lines["complementary"], lines["supplementary"]) == ("0", "180")

    def test_reference_incidence(self):
        complementary, supplementary = csa_angles(41.123)
        assert abs(complementary - 48.877) < 1e-12
        assert abs(supplementary - 131.123) < 1e-12
        led, power = _reading_at(3.4365, 41.123)
        lines = _lines(estimate_position(power, led, PD, 225.0))
        assert abs(float(lines["complementary"]) - 48.877) < 1e-12
        assert abs(float(lines["supplementary"]) - 131.123) < 1e-12

    def test_pair_sums_to_straight_angle_exactly(self):
        for k in range(1801):
            complementary, supplementary = csa_angles(k * 0.05)
            assert complementary + supplementary == 180.0

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            csa_angles(-0.1)
        with pytest.raises(DomainError):
            csa_angles(90.1)
        # The estimator cannot leave the range: its cosine V/d lies in (0, 1].
        for power in READINGS:
            lines = _lines(estimate_position(power, LED, PD, 225.0))
            assert 0.0 <= float(lines["complementary"]) <= 90.0
            assert 90.0 <= float(lines["supplementary"]) <= 180.0


class TestOffsetEstimate:
    """The fused offset of estimate_position, held to the literal oracle."""

    def test_reference_offsets(self):
        assert _close(offset_estimate(3.4365, 41.123), 2.4244114653242295)
        led, power = _reading_at(3.4365, 41.123)
        assert _close(estimate_position(power, led, PD, 225.0).fused, 2.4244114653242295)

    def test_fused_closed_form(self):
        for d_hor in (0.5, 1.0, 3.4365):
            for k in range(0, 901, 9):
                theta = k * 0.1
                fused = offset_estimate(d_hor, theta)
                rad = math.radians(theta)
                expected = d_hor * (math.sin(rad) + math.cos(rad)) / 2.0
                assert abs(fused - expected) < 1e-12

    def test_zero_horizontal_distance(self):
        sample = received_power(LED, PD, Point3(2.5, 2.5, 0.0))
        assert estimate_position(sample.received_power, LED, PD, 225.0).fused == 0.0

    def test_rejects_negative_distance(self):
        with pytest.raises(DomainError):
            offset_estimate(-0.1, 45.0)
        # d_hor is a square root, so the estimator's offset is never negative.
        for power in READINGS:
            assert estimate_position(power, LED, PD, 225.0).fused >= 0.0

    def test_rejects_elevation_out_of_range(self):
        with pytest.raises(DomainError):
            offset_estimate(1.0, 90.1)
        # A reading above the on-axis maximum is rejected, not taken past 90 degrees.
        with pytest.raises(PowerTooHigh):
            estimate_position(CENTER_POWER * 1.01, LED, PD, 225.0)
        assert estimate_position(CENTER_POWER * (1.0 + 1e-12), LED, PD, 225.0).cosine == 1.0


class TestAnchorEstimate:
    """estimate_position places the fused offset at the LED's floor projection."""

    def test_zero_offset_lands_under_emitter(self):
        sample = received_power(LED, PD, Point3(2.5, 2.5, 0.0))
        p = estimate_position(sample.received_power, LED, PD, 225.0).estimated
        assert (p.x, p.y, p.z) == (2.5, 2.5, 0.0)

    def test_reference_anchor(self):
        record = estimate_position(POWER_AT_3_5_M, LED, PD, 225.0)
        toward_origin, fused = record.estimated, record.fused
        assert _close(toward_origin.x, 2.5 + fused * math.cos(math.radians(225.0)))
        assert abs(toward_origin.x - toward_origin.y) < 1e-12
        away = estimate_position(POWER_AT_3_5_M, LED, PD, 45.0).estimated
        assert _close(away.x, 2.5 + fused * math.cos(math.radians(45.0)))

    @pytest.mark.parametrize(
        "led_xy, height, power, azimuth, offset",
        [
            # d lands near the largest float, and d_hor * (V/d + d_hor/d) overflows.
            pytest.param((2.5, 2.5), 1e308, 1e-312, 225.0, "inf", id="inf"),
            # A finite offset moves an LED at the float extremes past them.
            pytest.param((-FLOAT_MAX, 0.0), 1e300, 1e-300, 180.0, r"\d\.\d+e\+300", id="-inf"),
            pytest.param((FLOAT_MAX, 0.0), 1e300, 1e-300, 0.0, r"\d\.\d+e\+300", id="max-x"),
        ],
    )
    def test_rejects_a_non_finite_estimate_naming_the_offset(
        self, led_xy, height, power, azimuth, offset
    ):
        led = LedSpec(Point3(*led_xy, height), transmit_power=1e300, half_power_angle=60.0)
        pd = PD._replace(area=1e5)
        with pytest.raises(DomainError, match=rf"^fused offset {offset} anchors to a non-finite"):
            estimate_position(power, led, pd, azimuth)

    def test_finite_estimate_is_a_floor_point(self):
        record = estimate_position(POWER_AT_3_5_M, LED, PD, 10.0)
        p, fused = record.estimated, record.fused
        assert type(p) is Point3
        assert p.z == 0.0
        angle = math.radians(10.0)
        assert p == Point3(2.5 + fused * math.cos(angle), 2.5 + fused * math.sin(angle), 0.0)

    def test_rejects_azimuth_out_of_range(self):
        with pytest.raises(DomainError, match=r"^azimuth must lie in \[0, 360\) degrees"):
            estimate_position(POWER_AT_3_5_M, LED, PD, 360.0)
        with pytest.raises(DomainError, match=r"^azimuth must lie in \[0, 360\) degrees"):
            estimate_position(POWER_AT_3_5_M, LED, PD, -1.0)


class TestPositioningError:
    def test_matches_published_rows_closely(self):
        actual = (2.50, 2.23, 1.96, 1.69, 1.42, 1.15, 0.88, 0.61, 0.34, 0.07)
        estimated = (
            2.5009, 2.2336, 1.9515, 1.6724, 1.3933,
            1.1149, 0.8363, 0.5591, 0.2851, 0.0136,
        )
        for a, e, published in zip(actual, estimated, PUBLISHED_ERRORS):
            err = math.dist((a, a), (e, e))
            assert abs(err - published) < 5e-4

    def test_zero_for_identical_points(self):
        estimated = estimate_position(POWER_AT_3_5_M, LED, PD, 225.0).estimated
        record = estimate_position(POWER_AT_3_5_M, LED, PD, 225.0, actual=estimated)
        assert record.positioning_error == 0.0


class TestPublishedMeanErrors:
    """The mean errors of the published column, as the replication report takes them."""

    def test_published_column_mean(self):
        computed = {check.name: check.computed for check in replication_report(default_config())}
        assert _close(computed["reference_mean_error"], 0.04207)

    def test_published_first_eight_mean(self):
        computed = {check.name: check.computed for check in replication_report(default_config())}
        assert _close(computed["first_eight_mean_error"], 0.032925)


class TestEstimatePosition:
    def test_reference_position_pipeline(self):
        record = estimate_position(
            POSITION5_POWER, LED, PD, 225.0, actual=Point3(1.42, 1.42, 0.0)
        )
        assert _close(record.inverted_distance, 3.366422433385329, 1e-9)
        assert _close(record.estimated.x, POSITION5_ESTIMATE, 1e-9)
        assert abs(record.estimated.x - record.estimated.y) < 1e-12
        assert record.estimated.z == 0.0
        assert _close(record.positioning_error, POSITION5_ERROR, 1e-9)

    def test_pipeline_matches_independent_recompute(self):
        record = estimate_position(POWER_AT_3_5_M, LED, PD, 225.0)
        d = record.inverted_distance
        theta = math.asin(3.0 / d)
        fused = math.sqrt(d * d - 9.0) * (math.sin(theta) + math.cos(theta)) / 2.0
        expected_x = 2.5 + fused * math.cos(math.radians(225.0))
        assert _close(record.estimated.x, expected_x, 1e-9)
        assert record.positioning_error is None

    def test_under_emitter_is_error_free(self):
        sample = received_power(LED, PD, Point3(2.5, 2.5, 0.0))
        record = estimate_position(
            sample.received_power, LED, PD, 225.0, actual=Point3(2.5, 2.5, 0.0)
        )
        assert record.positioning_error == 0.0
        assert record.estimated == Point3(2.5, 2.5, 0.0)

    def test_vertical_separation_is_the_led_height(self):
        record = estimate_position(POWER_AT_3_5_M, LED, PD, 225.0)
        assert _close(record.inverted_distance, 3.5, 1e-9)

    def test_propagates_inversion_failures(self):
        with pytest.raises(PowerTooHigh):
            estimate_position(1.0, LED, PD, 225.0)
        with pytest.raises(NonPositivePower):
            estimate_position(0.0, LED, PD, 225.0)

    @pytest.mark.parametrize(
        "height, power, transmit_power, area",
        [
            pytest.param(7e153, 5e-324, 15.0, 2.25e-6, id="tall-room"),
            pytest.param(5e307, 1e-312, 1e300, 1e5, id="near-float-max"),
        ],
    )
    def test_slant_whose_square_overflows_keeps_its_horizontal_part(
        self, height, power, transmit_power, area
    ):
        # d * d overflows (and V * V too near the float maximum), so d_hor is
        # taken as d sqrt((1 - c)(1 + c)) with c = V/d; here it is checked in
        # exact decimal arithmetic.
        led = LedSpec(Point3(2.5, 2.5, height), transmit_power, half_power_angle=60.0)
        pd = PD._replace(area=area)
        record = estimate_position(power, led, pd, 225.0, actual=Point3(1.0, 1.0, 0.0))
        assert record.inverted_distance * record.inverted_distance == math.inf
        with localcontext() as context:
            context.prec = 40
            d, v = Decimal(record.inverted_distance), Decimal(height)
            d_hor = (d * d - v * v).sqrt()
            fused = float(d_hor * (v / d + d_hor / d) / 2)
        assert math.isclose(record.fused, fused, rel_tol=1e-12)
        assert math.isfinite(record.estimated.x) and math.isfinite(record.positioning_error)
