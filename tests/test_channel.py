"""Tests for the Lambertian line-of-sight optical channel.

The default scenario's values (the order, the pattern, the gain and the powers
along the walk) are cases of test_reference.py's table; this file holds the
channel's rejections, its column path and its edges.
"""

import math
import re
from fractions import Fraction

import pytest

from vlcpos import (
    DomainError,
    LedSpec,
    Point3,
    concentrator_gain,
    default_config,
    lambertian_order,
    link_columns,
    link_geometry,
    power_columns,
    received_power,
    received_power_at,
)

from reference import CENTER_POWER, close


def _cos(angle):
    return math.cos(math.radians(angle))


BELOW_THE_BOUND = math.nextafter(6.0371e-07, 0.0)

# (a call on the default LED and PD, the message of the DomainError it raises)
REJECTED = {
    # Below about 6.03709e-07 degrees cos rounds to 1 and the order is infinite.
    **{f"order-at-{angle}": (lambda led, pd, angle=angle: lambertian_order(angle),
                             f"half_power_angle must lie in [6.0371e-07, 90), got {angle}")
       for angle in (0.0, 90.0, -5.0, 95.0, 1e-09)},
    # The angle's rule holds whether or not an order is given.
    **{f"angle-below-the-bound-order-{order}": (
        lambda led, pd, order=order: LedSpec(led.position, 1.0, BELOW_THE_BOUND, order),
        f"LedSpec.half_power_angle must lie in [6.0371e-07, 90), got {BELOW_THE_BOUND}")
       for order in (None, 2.0)},
    "link-angle-below-0": (lambda led, pd: received_power_at(led, pd, 3.0, -1.0),
                           "link angle must be >= 0 degrees, got -1.0"),
    "link-angle-nan": (lambda led, pd: received_power_at(led, pd, 3.0, math.nan),
                       "link angle must be >= 0 degrees, got nan"),
    "link-angle-inf": (lambda led, pd: received_power_at(led, pd, 3.0, math.inf),
                       "link angle must be finite, got inf"),
    "link-distance-0": (lambda led, pd: received_power_at(led, pd, 0.0, 0.0),
                        "distance must be > 0, got 0.0"),
    "gain-cosine-above-1": (lambda led, pd: concentrator_gain(1.5, pd),
                            "link cosine must be <= 1, got 1.5"),
    "gain-cosine-nan": (lambda led, pd: concentrator_gain(math.nan, pd),
                        "link cosine must be <= 1, got nan"),
    "column-cosine-above-1": (lambda led, pd: power_columns(led, pd, (3.0,), (1.5,)),
                              "link cosine must be <= 1, got 1.5"),
    "column-cosine-nan": (lambda led, pd: power_columns(led, pd, (3.0,), (math.nan,)),
                          "link cosine must be <= 1, got nan"),
    # The row divides by d^2, and 1e-200 squared is 0.0.
    "column-distance-squares-to-0": (
        lambda led, pd: power_columns(led, pd, (3.0, 1e-200), (1.0, 1.0)),
        "distance 1e-200 squares to 0"),
}


@pytest.mark.parametrize("case", REJECTED)
def test_rejects(case):
    call, message = REJECTED[case]
    config = default_config()
    with pytest.raises(DomainError) as raised:
        call(config.led, config.pd_template)
    assert (type(raised.value), str(raised.value)) == (DomainError, message)


def _effective_areas(led, pd):
    """A h g(angle) cos(angle) from 0 to 89.9 degrees: the power 1 m from a 1 W
    first-order LED over its pattern cos(angle) / pi."""
    unit = led._replace(transmit_power=1.0, lambertian_order=1.0)
    return [received_power_at(unit, pd, 1.0, 0.1 * k) / (_cos(0.1 * k) / math.pi)
            for k in range(900)]


# (values from the default LED and PD, whether each must be below the last)
MONOTONE = {
    "order-falls-with-the-half-angle": (
        lambda led, pd: [lambertian_order(5.0 + 0.5 * k) for k in range(160)], True),
    "effective-area-never-rises-with-incidence": (_effective_areas, False),
}


@pytest.mark.parametrize("case", MONOTONE)
def test_monotone(case):
    values, strict = MONOTONE[case]
    config = default_config()
    values = values(config.led, config.pd_template)
    assert all(a > b if strict else a >= b for a, b in zip(values, values[1:]))


class TestPowerColumns:
    @pytest.mark.parametrize("order", [1.0, 1.7])
    def test_runs_of_one_cosine_match_the_one_row_views(self, order):
        # A column of mixed cosines goes row by row: runs broken by rows
        # beyond a 60-degree FOV, then a new cosine and one at the FOV's edge.
        config = default_config()
        led = config.led._replace(lambertian_order=order)
        pd = config.pd_template._replace(fov=60.0)
        inside, beyond, other, edge = (_cos(a) for a in (30.0, 75.0, 10.0, 60.0))
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
        config = default_config()
        with pytest.raises(DomainError, match=rf"^distance must be > 0, got {bad}$"):
            power_columns(config.led, config.pd_template, (3.0, 4.0, bad, 5.0), (1.0,) * 4)

    @pytest.mark.parametrize(
        "led, pd, k",
        [
            # Each factor is in range; their product overflows.
            pytest.param({"transmit_power": 1e300}, {"area": 1e100}, "inf", id="inf"),
            # Each factor is in range; their product underflows.
            pytest.param({}, {"area": 1e-300, "filter_gain": 1e-300}, "0.0", id="zero"),
        ],
    )
    def test_gain_constant_outside_the_float_range_names_k(self, led, pd, k):
        # The scalar path and the column path raise the one message.
        config = default_config()
        led, pd = config.led._replace(**led), config.pd_template._replace(**pd)
        message = (f"K = P_t (m+1) A h g(0) / (2 pi) is {k} for P_t {led.transmit_power}, "
                   f"m {led.lambertian_order}, A {pd.area}, h {pd.filter_gain}, g(0) 2.25")
        for call in (lambda: power_columns(led, pd, (3.0,), (1.0,)),
                     lambda: received_power(led, pd, Point3(2.5, 2.5, 0.0)),
                     lambda: _columns_row(led, pd, Point3(2.5, 2.5, 0.0))):
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as raised:
                call()
            assert type(raised.value) is DomainError

    @pytest.mark.parametrize(
        "led, pd",
        [
            # P_t (m+1) overflows before A = 1e-100 brings K back to about 3.6e209.
            pytest.param({"transmit_power": 1e300, "lambertian_order": 1e10}, {"area": 1e-100},
                         id="overflowing"),
            # P_t (m+1) A is about 2e-320, a subnormal with few bits left, before
            # h = 1e300 brings K back to about 7.2e-21.
            pytest.param({"transmit_power": 1e-300}, {"area": 1e-20, "filter_gain": 1e300},
                         id="subnormal"),
        ],
    )
    def test_gain_constant_in_range_past_an_out_of_range_partial_product(self, led, pd):
        config = default_config()
        led, pd = config.led._replace(**led), config.pd_template._replace(**pd)
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
            (90.0, 2.25, 15.0 / 9.0 / math.pi * _cos(90.0) ** 2 * 2.25e-6 * 2.25),
        ],
        ids=("fov-60", "fov-90"),
    )
    def test_edge_is_inside_and_the_next_float_is_outside(self, fov, gain, power):
        config = default_config()
        led, pd = config.led, config.pd_template._replace(fov=fov)
        beyond = math.nextafter(fov, math.inf)
        assert close(received_power_at(led, pd, 3.0, fov), power)
        assert received_power_at(led, pd, 3.0, beyond) == 0.0
        assert close(concentrator_gain(_cos(fov), pd), gain)
        assert concentrator_gain(_cos(beyond), pd) == 0.0


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


GRAZING = (2.5, 2.5, 1e-100)
AXIS = (0.0, 0.0, 3.0)
COS_60 = _cos(60.0)


class TestReceivedPowerIsTheColumnsRow:
    """received_power gives the column functions' one row: the same bits
    (float.hex). Each case replaces fields of the default LED and PD, and
    names its floor point or the link cosine it has under an LED on the z
    axis; a gain of None is one inside the FOV."""

    @pytest.mark.parametrize(
        "led, pd, position, power, gain",
        [
            # c = min(V/d, 1) is 1 under the LED: P = K / V^2 at the on-axis gain.
            pytest.param({}, {}, (2.5, 2.5), CENTER_POWER, 2.25, id="on-axis"),
            # The corner link is 41 degrees above the floor, 49 from the PD normal.
            pytest.param({}, {"fov": 30.0}, (0.07, 0.07), 0.0, 0.0, id="beyond-fov-30"),
            # An LED 1e-100 m above the floor: the link grazes the PD at c = V/d
            # near 2.6e-100, and the channel keeps that cosine exactly.
            pytest.param({"position": GRAZING}, {}, (2.23, 2.23), 1.137e-203, 2.25,
                         id="grazing"),
            # c near 2.6e-100 to the power 8.5 underflows; the link is in the FOV.
            pytest.param({"position": GRAZING, "lambertian_order": 7.5}, {}, (2.23, 2.23), 0.0,
                         2.25, id="cosine-power-underflow"),
            # received_power takes its FOV decision from concentrator_gain, and
            # power_columns takes its own; at the edge c == cos(fov) both read inside.
            pytest.param({"position": AXIS}, {"fov": 60.0}, COS_60, None, None, id="at-cos-fov"),
            pytest.param({"position": AXIS}, {"fov": 60.0}, math.nextafter(COS_60, 0.0), 0.0,
                         0.0, id="next-double-below-cos-fov"),
            # V/d = 5e-324 / 4 rounds to 0.0, which is cos(90 deg) as the channel takes it.
            pytest.param({"position": (0.0, 0.0, 5e-324)}, {}, (4.0, 0.0), None, 2.25,
                         id="fov-90-grazing"),
            pytest.param({}, {"fov": 1e-6}, (2.5, 2.5), None, None, id="on-axis-fov-1e-6"),
        ],
    )
    def test_received_power_is_the_row(self, led, pd, position, power, gain):
        config = default_config()
        led, pd = config.led._replace(**led), config.pd_template._replace(**pd)
        if isinstance(position, float):  # a link cosine
            position = _floor_point_at_cosine(led.position.z, position)
        else:
            position = Point3(*position, 0.0)
        sample = received_power(led, pd, position)
        row = _columns_row(led, pd, position)
        assert tuple(map(float.hex, sample)) == tuple(map(float.hex, row))
        assert power is None or math.isclose(sample.received_power, power, rel_tol=1e-3)
        assert sample.concentrator_gain == gain if gain is not None else (
            sample.concentrator_gain > 0.0)
