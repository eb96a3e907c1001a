"""Property tests for the identities the per-row records hold by construction.

The records no longer re-check these on every row, so each test drives one
producer over its input domain instead. Hypothesis runs derandomized: every
run draws the same examples.
"""

import math

from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from vlcpos import (
    DomainError,
    LedSpec,
    PdSpec,
    Point3,
    estimate_position,
    link_geometry,
    received_power,
)

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)

COORDINATE = st.floats(-1e4, 1e4)
ORDER = st.floats(0.1, 20.0, exclude_min=True)
FOV = st.floats(0.0, 90.0, exclude_min=True)


@st.composite
def links(draw):
    """An LED and a PD within 10 km of the origin, the LED at least 1 um higher.

    The floor is physical, not numerical: below about 1e-154 m the squared
    separations underflow, so d can fall under V or to 0 (a division by zero).
    """

    pd = Point3(draw(COORDINATE), draw(COORDINATE), draw(COORDINATE))
    led = Point3(draw(COORDINATE), draw(COORDINATE), pd.z + draw(st.floats(1e-6, 1e4)))
    return led, pd


@st.composite
def transceivers(draw, led_position, pd_position):
    """Any LedSpec and PdSpec at the given positions, with a Lambertian order in (0.1, 20]."""

    led = LedSpec(
        position=led_position,
        transmit_power=draw(st.floats(1e-3, 1e3)),
        half_power_angle=60.0,
        lambertian_order=draw(ORDER),
    )
    try:
        pd = PdSpec(
            position=pd_position,
            area=draw(st.floats(1e-8, 1e-2)),
            fov=draw(FOV),
            filter_gain=draw(st.floats(1e-3, 10.0)),
            refractive_index=draw(st.floats(1.0, 3.0)),
        )
    except DomainError:
        # A FOV too narrow for a finite concentrator gain; PdSpec rejects it,
        # which tests/test_channel.py covers.
        reject()
    return led, pd


@PROPERTY
@given(links())
def test_link_geometry_closes(link):
    led, pd = link
    g = link_geometry(led, pd)
    d, v, h = g.slant_distance, g.vertical_separation, g.horizontal_distance
    assert d >= v >= 0.0
    assert abs(h**2 + v**2 - d**2) <= 1e-9 * max(d**2, 1.0)
    assert abs(g.elevation_angle + g.normal_angle - 90.0) <= 1e-9
    assert 0.0 <= g.elevation_angle <= 90.0
    assert 0.0 <= g.normal_angle <= 90.0


@PROPERTY
@given(st.data(), links())
def test_received_power_factors_are_non_negative(data, link):
    led, pd = data.draw(transceivers(*link))
    sample = received_power(led, pd)
    assert sample.radiant_intensity >= 0.0
    assert sample.concentrator_gain >= 0.0
    assert sample.effective_area >= 0.0
    assert sample.received_power >= 0.0


@st.composite
def rooms(draw):
    """An LED on the ceiling and a PD on the floor of a room up to 100 x 100 x 20 m."""

    width, length = draw(st.floats(0.5, 100.0)), draw(st.floats(0.5, 100.0))
    height = draw(st.floats(0.5, 20.0))
    led = Point3(draw(st.floats(0.0, width)), draw(st.floats(0.0, length)), height)
    pd = Point3(draw(st.floats(0.0, width)), draw(st.floats(0.0, length)), 0.0)
    return led, pd


@PROPERTY
@given(st.data(), rooms(), st.floats(0.0, 360.0, exclude_max=True))
def test_estimate_lies_on_the_floor(data, room, azimuth):
    led, pd = data.draw(transceivers(*room))
    sample = received_power(led, pd)
    # A PD outside the FOV reads 0 W, which the estimator rejects as input.
    assume(sample.received_power > 0.0)
    record = estimate_position(sample.received_power, led, pd, azimuth, actual=pd.position)
    assert record.estimated.z == 0.0
    assert record.positioning_error >= 0.0
    # The inversion recovers the slant distance the reading was made at.
    assert math.isclose(record.inverted_distance, sample.geometry.slant_distance, rel_tol=1e-9)
