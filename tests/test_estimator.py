"""Tests for the complementary/supplementary-angle position estimator.

The inversion, the CSA angles, the fused offset and the pipeline on the
default walk are cases of test_reference.py's table; this file holds the
rejections, the cross-checks against the forward law and the float-range
edges.
"""

import math
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
    estimate_position,
    invert_power_to_distance,
    received_power,
)

from csa_oracle import csa_angles, offset_estimate
from reference import CENTER_POWER, DIAGONAL_SLANTS, POWER_AT_3_5_M, close


def _forward_power(distance, led, pd, vertical):
    """Closed-form decay law, written out independently of the channel code."""
    m = led.lambertian_order
    gain = pd.refractive_index**2 / math.sin(math.radians(pd.fov)) ** 2
    k = led.transmit_power * (m + 1.0) * pd.area * pd.filter_gain * gain / (2.0 * math.pi)
    return k * vertical ** (m + 1.0) / distance ** (m + 3.0)


def _too_high(power, distance):
    return f"measured power {power} implies distance {distance} below the vertical separation 3.0"


# (a call on the default LED and PD, the error it raises, its message)
REJECTED = {
    "power-0": (lambda led, pd: invert_power_to_distance(0.0, led, pd, 3.0), NonPositivePower,
                "measured power must be > 0, got 0.0"),
    "power-negative": (lambda led, pd: invert_power_to_distance(-1e-6, led, pd, 3.0),
                       NonPositivePower, "measured power must be > 0, got -1e-06"),
    "power-twice-the-on-axis-maximum": (
        lambda led, pd: invert_power_to_distance(2.0 * CENTER_POWER, led, pd, 3.0), PowerTooHigh,
        _too_high("5.371479329351468e-06", "2.5226892457611436")),
    "vertical-separation-0": (
        lambda led, pd: invert_power_to_distance(POWER_AT_3_5_M, led, pd, 0.0), DomainError,
        "vertical separation must be > 0, got 0.0"),
    # K = P_t (m+1) A h g / (2 pi) overflows to inf, and the channel's K names
    # itself before the inversion runs.
    "gain-constant-inf": (
        lambda led, pd: invert_power_to_distance(1e-6, led._replace(transmit_power=1e308),
                                                 pd._replace(area=1e308), 3.0), DomainError,
        "K = P_t (m+1) A h g(0) / (2 pi) is inf for P_t 1e+308, m 1.0000000000000002, "
        "A 1e+308, h 1.0, g(0) 2.25"),
    # V^(m+1) overflows, so the inversion takes logarithms, and there
    # (ln K + (m+1) ln V - ln P) / (m+3) is about 720, past exp's range.
    "distance-past-the-float-range": (
        lambda led, pd: invert_power_to_distance(
            5e-324, LedSpec(Point3(0.0, 0.0, 1e308), 1e300, 60.0, lambertian_order=1e-3),
            PdSpec(1e7, 90.0, 1.0, 1.5), 1e308), DomainError,
        "measured power 5e-324 inverts to a non-finite distance inf"),
    # The estimator passes the inversion's failures on.
    "estimate-power-1.01-times-the-maximum": (
        lambda led, pd: estimate_position(CENTER_POWER * 1.01, led, pd, 225.0), PowerTooHigh,
        _too_high("2.712597061322491e-06", "2.992546526269876")),
    "estimate-power-1-w": (lambda led, pd: estimate_position(1.0, led, pd, 225.0), PowerTooHigh,
                           _too_high("1.0", "0.12144712352704393")),
    "estimate-power-0": (lambda led, pd: estimate_position(0.0, led, pd, 225.0),
                         NonPositivePower, "measured power must be > 0, got 0.0"),
    "azimuth-360": (lambda led, pd: estimate_position(POWER_AT_3_5_M, led, pd, 360.0),
                    DomainError, "azimuth must lie in [0, 360) degrees, got 360.0"),
    "azimuth-negative": (lambda led, pd: estimate_position(POWER_AT_3_5_M, led, pd, -1.0),
                         DomainError, "azimuth must lie in [0, 360) degrees, got -1.0"),
    # The literal oracle's own range.
    "oracle-incidence-below-0": (lambda led, pd: csa_angles(-0.1), DomainError,
                                 "incidence must lie in [0, 90] degrees, got -0.1"),
    "oracle-incidence-above-90": (lambda led, pd: csa_angles(90.1), DomainError,
                                  "incidence must lie in [0, 90] degrees, got 90.1"),
    "oracle-offset-incidence-above-90": (lambda led, pd: offset_estimate(1.0, 90.1), DomainError,
                                         "incidence must lie in [0, 90] degrees, got 90.1"),
    "oracle-negative-distance": (lambda led, pd: offset_estimate(-0.1, 45.0), DomainError,
                                 "horizontal distance must be >= 0, got -0.1"),
}


@pytest.mark.parametrize("case", REJECTED)
def test_rejects(case):
    call, error, message = REJECTED[case]
    config = default_config()
    with pytest.raises(error) as raised:
        call(config.led, config.pd_template)
    assert (type(raised.value), str(raised.value)) == (error, message)


class TestInvertPowerToDistance:
    def test_matches_root_finder(self):
        # Cross-check the closed-form inversion against a numeric root of
        # the forward law, including a non-integer Lambertian order.
        config = default_config()
        led, pd = config.led._replace(lambertian_order=1.3), config.pd_template
        for d_true in (3.0, 3.7, DIAGONAL_SLANTS[-1], 6.5):
            p = _forward_power(d_true, led, pd, 3.0)
            d = invert_power_to_distance(p, led, pd, 3.0)
            root = brentq(
                lambda x: _forward_power(x, led, pd, 3.0) - p, 2.9, 20.0, xtol=1e-13
            )
            assert close(d, root, 1e-9)
            assert close(d, d_true, 1e-9)

    @pytest.mark.parametrize(
        "height, order, point, distance",
        [
            # V ** (m + 1) = 0.5 ** 1101 underflows to 0.
            pytest.param(0.5, 1100.0, (2.5, 2.5), 0.5, id="underflow-on-axis"),
            pytest.param(0.5, 1100.0, (2.23, 2.23), 0.6291263784010332, id="underflow"),
            # V ** (m + 1) = 3.0 ** 651 overflows.
            pytest.param(3.0, 650.0, (2.23, 2.23), DIAGONAL_SLANTS[1], id="overflow"),
            # V ** (m + 1) is in range, but K * V^(m+1) / P = V^4 underflows.
            pytest.param(1e-100, 1.0, (2.5, 2.5), 1e-100, id="quotient-underflow"),
        ],
    )
    def test_out_of_range_powers_of_v_invert_in_logarithms(
        self, height, order, point, distance
    ):
        config = default_config()
        led = config.led._replace(position=Point3(2.5, 2.5, height), lambertian_order=order)
        power = received_power(led, config.pd_template, Point3(*point, 0.0)).received_power
        d = invert_power_to_distance(power, led, config.pd_template, height)
        assert close(d, distance, 1e-9)

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
        config = default_config()
        led, pd = config.led._replace(position=Point3(2.5, 2.5, height)), config.pd_template
        if power is None:
            power = received_power(led, pd, Point3(2.5, 2.5, 0.0)).received_power
        # d^4 = K V^2 / P for a first-order LED, in exact decimal arithmetic.
        with localcontext() as context:
            context.prec = 40
            k = Decimal(15.0 * 2.0 * 2.25e-6 * 1.0 * 2.25) / (2 * Decimal(math.pi))
            expected = float((k * Decimal(height) ** 2 / Decimal(power)).sqrt().sqrt())
        assert math.isclose(invert_power_to_distance(power, led, pd, height), expected,
                            rel_tol=1e-12)


FLOAT_MAX = sys.float_info.max


class TestAnchorEstimate:
    """estimate_position places the fused offset at the LED's floor projection."""

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
        pd = default_config().pd_template._replace(area=1e5)
        with pytest.raises(DomainError, match=rf"^fused offset {offset} anchors to a non-finite"):
            estimate_position(power, led, pd, azimuth)


class TestEstimatePosition:
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
        config = default_config()
        led = config.led._replace(position=Point3(2.5, 2.5, height), transmit_power=transmit_power)
        pd = config.pd_template._replace(area=area)
        record = estimate_position(power, led, pd, 225.0, actual=Point3(1.0, 1.0, 0.0))
        assert record.inverted_distance * record.inverted_distance == math.inf
        with localcontext() as context:
            context.prec = 40
            d, v = Decimal(record.inverted_distance), Decimal(height)
            d_hor = (d * d - v * v).sqrt()
            fused = float(d_hor * (v / d + d_hor / d) / 2)
        assert math.isclose(record.fused, fused, rel_tol=1e-12)
        assert math.isfinite(record.estimated.x) and math.isfinite(record.positioning_error)
