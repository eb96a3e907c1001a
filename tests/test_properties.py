"""Property tests for the identities the per-row records hold by construction,
and for the config text boundary and its point-list reader.

The records no longer re-check these on every row, so each test drives one
producer over its input domain instead. Hypothesis runs derandomized: every
run draws the same examples.
"""

import ast
import math
import random
import re
from dataclasses import replace

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from vlcpos import (
    DomainError,
    LedSpec,
    ParseError,
    PdSpec,
    Point3,
    RoomSpec,
    ScenarioConfig,
    ValidationError,
    default_config,
    estimate_position,
    link_geometry,
    load_config,
    received_power,
    serialize_config,
)
from vlcpos import reporting
from vlcpos.reporting import _CONFIG_KEYS, _POINT_LIST, _literal
from vlcpos.scenario import _MIN_LED_HEIGHT

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
def transceivers(draw, led_position):
    """Any LedSpec at the given position and any PdSpec, with a Lambertian order in (0.1, 20]."""

    led = LedSpec(
        position=led_position,
        transmit_power=draw(st.floats(1e-3, 1e3)),
        half_power_angle=60.0,
        lambertian_order=draw(ORDER),
    )
    try:
        pd = PdSpec(
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
    d, h, elevation = link_geometry(led, pd)
    v = led.z - pd.z
    assert d >= v >= 0.0
    assert abs(h**2 + v**2 - d**2) <= 1e-9 * max(d**2, 1.0)
    assert 0.0 <= elevation <= 90.0


@PROPERTY
@given(st.data(), links())
def test_received_power_factors_are_non_negative(data, link):
    led_position, pd_position = link
    led, pd = data.draw(transceivers(led_position))
    sample = received_power(led, pd, pd_position)
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
    led_position, pd_position = room
    led, pd = data.draw(transceivers(led_position))
    sample = received_power(led, pd, pd_position)
    # A PD outside the FOV reads 0 W, which the estimator rejects as input.
    assume(sample.received_power > 0.0)
    record = estimate_position(sample.received_power, led, pd, azimuth, actual=pd_position)
    assert record.estimated.z == 0.0
    assert record.positioning_error >= 0.0
    # The inversion recovers the slant distance the reading was made at.
    assert math.isclose(record.inverted_distance, sample.slant_distance, rel_tol=1e-9)


@st.composite
def configs(draw):
    """Any valid ScenarioConfig: the LED inside the room (and not so low that its
    squared height underflows), the positions on its floor."""

    width, length = draw(st.floats(0.5, 100.0)), draw(st.floats(0.5, 100.0))
    height = draw(st.floats(0.5, 20.0))
    floor_point = st.builds(
        Point3, st.floats(0.0, width), st.floats(0.0, length), st.just(0.0)
    )
    led = LedSpec(
        position=Point3(
            draw(st.floats(0.0, width)), draw(st.floats(0.0, length)),
            draw(st.floats(_MIN_LED_HEIGHT, height)),
        ),
        transmit_power=draw(st.floats(1e-3, 1e3)),
        half_power_angle=draw(st.floats(1.0, 89.0)),
        lambertian_order=draw(st.none() | ORDER),
    )
    pd = PdSpec(
        area=draw(st.floats(1e-8, 1e-2)),
        fov=draw(st.floats(1e-3, 90.0)),
        filter_gain=draw(st.floats(1e-3, 10.0)),
        refractive_index=draw(st.floats(1.0, 3.0)),
    )
    low = draw(st.floats(1e-3, 50.0))
    return ScenarioConfig(
        room=RoomSpec(width, length, height),
        led=led,
        pd_template=pd,
        pd_positions=tuple(draw(st.lists(floor_point, min_size=1, max_size=5))),
        transmit_powers=tuple(draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4))),
        sweep_elevations=tuple(
            draw(st.lists(st.floats(0.0, 90.0, exclude_min=True), min_size=1, max_size=4))
        ),
        azimuth=draw(st.floats(0.0, 360.0, exclude_max=True)),
        distance_samples=draw(st.integers(2, 10**6)),
        distance_range=draw(st.none() | st.just((low, low + draw(st.floats(0.0, 50.0))))),
    )


@PROPERTY
@given(configs())
def test_serialized_config_loads_back_equal(config):
    assert load_config(serialize_config(config)) == config


# Python literal text, well-formed or not: numbers of any size, strings, None,
# and lists, tuples, sets and dicts nested from them (including unhashable
# set members and dict keys, which ast.literal_eval rejects with TypeError).
SCALAR_TEXT = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(10**500), 10**500),
    st.floats(), st.complex_numbers(), st.text(max_size=4),
).map(repr)
LITERAL_TEXT = st.recursive(
    SCALAR_TEXT,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(lambda items: "[" + ", ".join(items) + "]"),
        st.lists(inner, max_size=4).map(lambda items: "(" + ", ".join(items) + ")"),
        st.lists(inner, min_size=1, max_size=3).map(lambda items: "{" + ", ".join(items) + "}"),
        st.lists(st.tuples(inner, inner), max_size=2).map(
            lambda pairs: "{" + ", ".join(f"{k}: {v}" for k, v in pairs) + "}"
        ),
    ),
    max_leaves=10,
)


@PROPERTY
@given(st.lists(st.tuples(st.sampled_from(list(_CONFIG_KEYS)), LITERAL_TEXT | st.text())))
def test_config_text_loads_or_is_rejected_at_the_boundary(lines):
    text = "".join(f"{key} = {value}\n" for key, value in lines)
    try:
        config = load_config(text)
    except (ParseError, ValidationError):
        return
    assert isinstance(config, ScenarioConfig)


# Numbers as repr spells them, all in JSON's grammar: signed zeros, exponents
# such as 1e-05 and 1e+16, and integers of more than 400 digits.
POINT_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(),
    st.integers(-(10**500), 10**500),
    st.sampled_from([0, -0.0, 1e-05, 1e16, 5e-324]),
)


@st.composite
def point_list_texts(draw):
    """A non-empty list of 3-number tuples, with or without spaces around commas."""

    comma = st.sampled_from([",", ", ", " , "])
    points = draw(st.lists(st.tuples(POINT_NUMBER, POINT_NUMBER, POINT_NUMBER), min_size=1))
    spelled = [
        "(" + "".join(repr(n) + draw(comma) for n in point[:2]) + repr(point[2]) + ")"
        for point in points
    ]
    return "[" + "".join(p + draw(comma) for p in spelled[:-1]) + spelled[-1] + "]"


@PROPERTY
@given(point_list_texts())
def test_point_list_reader_matches_literal_eval(text):
    assert re.fullmatch(_POINT_LIST, text)  # the text takes the JSON path
    value, expected = _literal(text), ast.literal_eval(text)
    assert value == expected
    # repr tells a list from a tuple, an int from a float, and -0.0 from 0.0.
    assert repr(value) == repr(expected)


def _outcome(read, text):
    """What read(text) gives: its value, or the kind and message of its error.

    ast.literal_eval names a malformed node by its repr, whose address differs
    from one call to the next, so addresses are dropped from messages.
    """

    try:
        return repr(read(text))
    except (ValueError, TypeError, SyntaxError, ParseError, ValidationError) as exc:
        return type(exc), re.sub(r" at 0x[0-9a-f]+", "", str(exc))


@pytest.mark.parametrize(
    "value",
    [
        "[(1., 2, 3)]",
        "[(.5, 2, 3)]",
        "[(+1, 2, 3)]",
        "[(1_0, 2, 3)]",
        "[(01, 2, 3)]",
        "[(1, 2, 3),]",
        "[(1, 2, 3])",
        "[(1), (2, 3, 4)]",
        "[(NaN, 1, 2)]",
        "[(1e400, 0, 0)]",
        "[(1" + "0" * 4999 + ", 0, 0)]",
    ],
)
def test_near_miss_point_lists_load_as_literal_eval_reads_them(monkeypatch, value):
    text = f"sweep.positions = {value}\n"
    assert _outcome(_literal, value) == _outcome(ast.literal_eval, value)
    loaded = _outcome(load_config, text)
    monkeypatch.setattr(reporting, "_literal", ast.literal_eval)
    assert loaded == _outcome(load_config, text)


def test_long_point_list_loads_as_literal_eval_reads_it(monkeypatch):
    rng = random.Random(601)
    positions = tuple(
        Point3(rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0), 0.0) for _ in range(20_000)
    )
    config = replace(default_config(), pd_positions=positions)
    text = serialize_config(config)
    loaded = load_config(text)
    monkeypatch.setattr(reporting, "_literal", ast.literal_eval)
    assert loaded == load_config(text) == config
