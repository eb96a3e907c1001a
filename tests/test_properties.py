"""Property tests for the identities the per-row records hold by construction,
for the config text boundary and its point-list reader, and for emission.

The records no longer re-check these on every row, so each test drives one
producer over its input domain instead. Hypothesis runs derandomized: every
run draws the same examples.
"""

import ast
import io
import json
import math
import random
import re
import sys
from collections import Counter
from functools import cache
from operator import attrgetter

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
    concentrator_gain,
    config_hash,
    default_config,
    estimate_position,
    link_geometry,
    parse_config,
    received_power,
    run_angle_sweep,
    run_position_sweep,
    run_power_distance_sweep,
)
from vlcpos import reporting
from vlcpos.geometry import _MIN_LED_HEIGHT, _check
from vlcpos.reporting import _CONFIG_KEYS, _literal, _point_list_skeleton

from config_text import serialize_config
from csa_oracle import offset_estimate
from emitted import csv_reference, json_reference
from figure_rows import rows_of

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)

COORDINATE = st.floats(-1e4, 1e4)
ORDER = st.floats(0.1, 20.0, exclude_min=True)
# The narrowest FOV whose concentrator gain n^2 / sin^2(fov) is finite at n = 1:
# PdSpec's joined rule rejects every narrower one with every index.
FOV = st.floats(math.degrees(math.asin(1.0 / math.sqrt(sys.float_info.max))), 90.0)


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
    # From a FOV of 1e-150 degrees up, n^2 / sin^2(fov) and K stay finite.
    pd = PdSpec(area=draw(st.floats(1e-8, 1e-2)), fov=draw(st.floats(1e-150, 90.0)),
                filter_gain=draw(st.floats(1e-3, 10.0)),
                refractive_index=draw(st.floats(1.0, 3.0)))
    return led, pd


@PROPERTY
@given(links())
def test_link_geometry_closes(link):
    led, pd = link
    d, c = link_geometry(led, pd)
    h = math.hypot(led.x - pd.x, led.y - pd.y)
    v = led.z - pd.z
    assert d >= v >= 0.0
    assert abs(h**2 + v**2 - d**2) <= 1e-9 * max(d**2, 1.0)
    assert 0.0 < c <= 1.0
    # c is the cosine of the angle from the PD normal, the sine of the elevation.
    assert math.isclose(c * d, v, rel_tol=1e-9)


@PROPERTY
@given(
    st.floats(5e-324, 1e300),  # V, every binade from the subnormals up
    st.floats(0.0, 1e-8),
    st.floats(0.0, 1e-8),
    st.sampled_from((0.0, -1.0, 3.0, 1e4)),
)
def test_near_vertical_link_cosine_is_at_most_one(height, dx, dy, floor):
    """link_geometry's cosine stays <= 1 for horizontal offsets up to 1e-8 V,
    and is exactly 1 on axis."""
    pd = Point3(floor, 2.0 * floor, floor)
    led = Point3(pd.x + dx * height, pd.y + dy * height, pd.z + height)
    assume(led.z > pd.z)
    d, c = link_geometry(led, pd)
    assert c <= 1.0
    if led.x == pd.x and led.y == pd.y:
        assert (d, c) == (led.z - pd.z, 1.0)


@PROPERTY
@given(st.data(), links())
def test_received_power_matches_the_textbook_product(data, link):
    # P = P_t (m+1) / (2 pi d^2) cos^m(phi) A h g cos(theta) with phi = theta,
    # both cosines equal to V/d, and g = n^2 / sin^2(FOV) inside the closed
    # FOV (cos(theta) >= cos(FOV), with cos(90 deg) = 0), 0 beyond it.
    led_position, pd_position = link
    led, pd = data.draw(transceivers(led_position))
    sample = received_power(led, pd, pd_position)
    d, _ = link_geometry(led_position, pd_position)
    cos_angle = min((led_position.z - pd_position.z) / d, 1.0)
    m, n = led.lambertian_order, pd.refractive_index
    inside = pd.fov == 90.0 or cos_angle >= math.cos(math.radians(pd.fov))
    gain = n**2 / math.sin(math.radians(pd.fov)) ** 2 if inside else 0.0
    expected = (
        led.transmit_power * (m + 1.0) / (2.0 * math.pi * d**2) * cos_angle**m
        * pd.area * pd.filter_gain * gain * cos_angle
    )
    assert sample.slant_distance == d
    assert math.isclose(sample.concentrator_gain, gain, rel_tol=1e-12, abs_tol=0.0)
    assert math.isclose(sample.received_power, expected, rel_tol=1e-12, abs_tol=0.0)


@st.composite
def pd_specs(draw):
    """Any PdSpec that constructs, each field drawn over its whole rule, the FOV
    and the index where the finite-gain rule holds."""

    number, fov = st.floats(0.0, exclude_min=True, allow_infinity=False), draw(FOV)
    # n^2 / sin^2(fov) is finite for an index n below sqrt(float max) sin(fov).
    finite = math.sqrt(sys.float_info.max) * math.sin(math.radians(fov))
    try:
        return PdSpec(area=draw(number), fov=fov, filter_gain=draw(number),
                      refractive_index=draw(st.floats(1.0, max(1.0, finite))))
    except DomainError:  # n^2 / sin^2(fov) rounded past the float range at the bound
        reject()


@PROPERTY
@given(pd_specs(), st.floats(-1.0, 1.0))
def test_concentrator_gain_of_any_pd_is_the_closed_form_and_0_beyond_the_fov(pd, c):
    # The FOV is closed, with cos(90 deg) = 0, and on axis every FOV sees the LED.
    on_axis = concentrator_gain(1.0, pd)
    n, cos_fov = pd.refractive_index, 0.0 if pd.fov == 90.0 else math.cos(math.radians(pd.fov))
    assert 0.0 < on_axis < math.inf
    assert on_axis.hex() == (n * n / math.sin(math.radians(pd.fov)) ** 2).hex()
    assert concentrator_gain(c, pd) == (on_axis if c >= cos_fov else 0.0)
    assert concentrator_gain(math.nextafter(cos_fov, -math.inf), pd) == 0.0


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
    # A FOV that sees the PD: beyond it the PD reads 0 W, which the estimator rejects.
    h = math.hypot(led_position.x - pd_position.x, led_position.y - pd_position.y)
    edge = max(math.degrees(math.atan2(h, led_position.z)), 1e-150)
    pd = pd._replace(fov=data.draw(st.floats(edge, 90.0)))
    sample = received_power(led, pd, pd_position)
    assume(sample.received_power > 0.0)
    record = estimate_position(sample.received_power, led, pd, azimuth, actual=pd_position)
    assert record.estimated.z == 0.0
    assert record.positioning_error >= 0.0
    # The inversion recovers the slant distance the reading was made at.
    assert math.isclose(record.inverted_distance, sample.slant_distance, rel_tol=1e-9)


@st.composite
def offsets(draw):
    """LED height V, and a PD's horizontal offset h >= V/10 in direction phi.

    Closer to the LED, d_hor = sqrt(d^2 - V^2) amplifies the rounding of the
    inverted d by (d/h)^2, so the estimate leaves 1e-12 of the closed form.
    """

    v = draw(st.floats(0.5, 20.0))
    return v, v * draw(st.floats(0.1, 100.0)), draw(st.floats(0.0, 2.0 * math.pi))


@PROPERTY
@given(st.data(), offsets(), st.floats(0.0, 360.0, exclude_max=True))
def test_estimate_matches_the_closed_form_of_the_fusion(data, offset, azimuth):
    # With cos(90 - theta) = V/d and sin(90 + theta) = h/d the fused offset is
    # f = h (V + h) / (2 d); the estimate lies f from the LED's floor
    # projection along the azimuth, the PD h from it along phi.
    v, h, phi = offset
    led, pd = data.draw(transceivers(Point3(0.0, 0.0, v)))
    # A FOV that sees the PD, so few draws read 0 W.
    pd = pd._replace(fov=data.draw(st.floats(math.degrees(math.atan2(h, v)), 90.0)))
    actual = Point3(h * math.cos(phi), h * math.sin(phi), 0.0)
    power = received_power(led, pd, actual).received_power
    assume(power > 0.0)
    record = estimate_position(power, led, pd, azimuth, actual=actual)
    f = h * (v + h) / (2.0 * math.hypot(v, h))
    error = math.sqrt(h * h + f * f - 2.0 * h * f * math.cos(phi - math.radians(azimuth)))
    assert math.isclose(record.positioning_error, error, rel_tol=1e-12)
    # The same fusion through the literal CSA angles, in degrees.
    distance = record.inverted_distance
    d_hor = math.sqrt(distance * distance - v * v)
    trig = offset_estimate(d_hor, math.degrees(math.asin(record.cosine)))
    assert math.isclose(record.fused, trig, rel_tol=1e-12)


@st.composite
def visible_sweeps(draw):
    """A room with a FOV-90 PD template and up to 20 floor points at least V/10
    from the LED's floor projection; the azimuth is 225 degrees or random."""

    width, length = draw(st.floats(0.5, 100.0)), draw(st.floats(0.5, 100.0))
    v = draw(st.floats(0.5, 20.0))
    led_position = Point3(draw(st.floats(0.0, width)), draw(st.floats(0.0, length)), v)
    led, pd = draw(transceivers(led_position))
    floor_point = st.builds(Point3, st.floats(0.0, width), st.floats(0.0, length), st.just(0.0))
    points = [
        point for point in draw(st.lists(floor_point, min_size=1, max_size=20))
        if math.hypot(point.x - led_position.x, point.y - led_position.y) >= v / 10.0
    ]
    assume(points)
    return ScenarioConfig(
        room=RoomSpec(width, length, v),
        led=led,
        pd_template=pd._replace(fov=90.0),
        pd_positions=tuple(points),
        transmit_powers=(1.0,),
        sweep_elevations=(90.0,),
        azimuth=draw(st.just(225.0) | st.floats(0.0, 360.0, exclude_max=True)),
    )


@PROPERTY
@given(visible_sweeps())
def test_position_sweep_error_matches_the_closed_form(config):
    # A PD h from the LED's floor projection in direction phi is estimated
    # f = h (V + h) / (2 d) out along the azimuth alpha, so
    # error^2 = h^2 + f^2 - 2 h f cos(phi - alpha).
    led = config.led.position
    alpha = math.radians(config.azimuth)
    for row, point in zip(run_position_sweep(config), config.pd_positions, strict=True):
        dx, dy = point.x - led.x, point.y - led.y
        h = math.hypot(dx, dy)
        d = math.hypot(h, led.z)
        f = h * (led.z + h) / (2.0 * d)
        cos_gap = (dx * math.cos(alpha) + dy * math.sin(alpha)) / h
        error = math.sqrt(h * h + f * f - 2.0 * h * f * cos_gap)
        assert math.isclose(row[7], error, rel_tol=1e-12)


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
    assert parse_config(serialize_config(config)) == config


@st.composite
def config_pairs(draw):
    """Two configs: one draw and itself reloaded from its text, one draw with one
    key's value taken from a second, or two draws."""

    first = draw(configs())
    how = draw(st.sampled_from(["reloaded", "one key", "two draws"]))
    if how == "reloaded":
        return first, parse_config(serialize_config(first))
    second = draw(configs())
    if how == "one key":
        field = draw(st.sampled_from([field for field, _ in _CONFIG_KEYS.values()]))
        record, _, name = field.rpartition(".")
        value = attrgetter(field)(second)
        try:
            if record:
                value = getattr(first, record)._replace(**{name: value})
            return first, first._replace(**{record or name: value})
        except (DomainError, ValidationError):  # the value does not fit the first config
            reject()
    return first, second


# Half PROPERTY's examples: each draws up to two configs, and the suite has a
# time budget.
@settings(PROPERTY, max_examples=150)
@given(config_pairs())
def test_configs_hash_equal_exactly_when_their_texts_are_equal(pair):
    first, second = pair
    same_text = serialize_config(first) == serialize_config(second)
    assert (config_hash(first) == config_hash(second)) == same_text


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


@cache
def _own_value(key):
    """Values that key's field rule accepts, as the Python literals of its shape,
    built at the key's first draw."""

    field = _CONFIG_KEYS[key][0]
    record, _, name = field.rpartition(".")
    base = default_config()
    rule = (getattr(base, record) if record else base)._rules[name]
    low, high = (None if math.isinf(bound) else bound for bound in rule[:2])
    number = (st.integers(int(low), int(high)) if rule.integer else
              st.floats(low, high, exclude_min=rule.ends[0] == "(" and low is not None,
                        exclude_max=rule.ends[1] == ")" and high is not None,
                        allow_infinity=False))
    point = st.tuples(number, number, number)
    return {"": number, "list": st.lists(number, min_size=1, max_size=4), "point": point,
            "points": st.lists(point, min_size=1, max_size=4),
            "span": st.tuples(number, number).map(lambda span: tuple(sorted(span)))}[rule.shape]


# Lists of config keys, repeats allowed or not; any literal or text.
KEY_LISTS = {unique: st.lists(st.sampled_from(list(_CONFIG_KEYS)), unique=unique)
             for unique in (False, True)}
ANY_TEXT = LITERAL_TEXT | st.text()


@st.composite
def config_lines(draw):
    """Lines of config keys, each key once in three texts of four and repeats
    allowed in the fourth, nine in ten lines with a value of the key's own kind,
    so that many texts reach the records' joined rules; the rest any literal or
    text."""

    keys = draw(KEY_LISTS[draw(st.integers(0, 3)) > 0])
    return [(key, repr(draw(_own_value(key))) if draw(st.integers(0, 9)) < 9
             else draw(ANY_TEXT)) for key in keys]


@PROPERTY
@given(config_lines())
def _config_text_loads_or_is_rejected_at_the_boundary(outcomes, lines):
    text = "".join(f"{key} = {value}\n" for key, value in lines)
    try:
        config = parse_config(text)
    except (ParseError, ValidationError) as exc:
        # Every error names the lines it comes from, each a line of the text.
        named = re.match(r"(line \d+|lines \d+(, \d+)+): ", str(exc))
        assert named and all(
            1 <= int(n) <= len(text.splitlines()) for n in re.findall(r"\d+", named[1])), exc
        # A joined rule's error carries the keys it joins.
        outcomes["joined rule" if hasattr(exc.__cause__, "keys") else "line"] += 1
        return
    assert isinstance(config, ScenarioConfig)
    outcomes["loaded"] += 1


def test_config_text_loads_or_is_rejected_at_the_boundary():
    # Enough texts reach a record constructor: they load, or break a joined rule.
    outcomes = Counter()
    _config_text_loads_or_is_rejected_at_the_boundary(outcomes)
    assert outcomes["loaded"] + outcomes["joined rule"] >= 100, outcomes


def _outside(low, high):
    """Finite floats below low or above high."""

    return st.floats(-1e300, low, exclude_max=True) | st.floats(high, 1e300, exclude_min=True)


@st.composite
def joined_rule_breaks(draw, rule):
    """A valid config's text, its lines in any order, with one key's value
    swapped for one that the key's field rule accepts and exactly one joined
    rule, the named one, does not; and the keys that rule joins, the one its
    error names first."""

    config = draw(configs())
    values = dict(line.split(" = ", 1) for line in serialize_config(config).splitlines())
    room, point = config.room, "({!r}, {!r}, {!r})".format
    if rule == "led":  # outside the room, or below _MIN_LED_HEIGHT
        x, y, z = config.led.position
        values["led.position"] = draw(st.one_of(
            _outside(0.0, room.width).map(lambda v: point(v, y, z)),
            _outside(0.0, room.length).map(lambda v: point(x, v, z)),
            _outside(_MIN_LED_HEIGHT, room.height).map(lambda v: point(x, y, v))))
        keys = ("led.position", "room.width", "room.length", "room.height")
    elif rule == "positions":  # one point off the floor rectangle or its plane
        off = draw(st.one_of(
            _outside(0.0, room.width).map(lambda v: point(v, 0.0, 0.0)),
            _outside(0.0, room.length).map(lambda v: point(0.0, v, 0.0)),
            st.floats(-1e300, 1e300).filter(bool).map(lambda v: point(0.0, 0.0, v))))
        points = [point(*p) for p in config.pd_positions]
        points.insert(draw(st.integers(0, len(points))), off)
        values["sweep.positions"] = "[" + ", ".join(points) + "]"
        keys = ("sweep.positions", "room.width", "room.length")
    else:  # n^2 / sin^2(fov) overflows: a FOV of 1e-160 degrees or less, or n past 1.35e154
        values.update(draw(st.one_of(
            st.floats(5e-324, 1e-160).map(lambda v: {"pd.fov": repr(v)}),
            st.floats(1.35e154, 1e300).map(lambda v: {"pd.refractive_index": repr(v)}))))
        keys = ("pd.fov", "pd.refractive_index")
    order = draw(st.permutations(list(values)))
    return "".join(f"{key} = {values[key]}\n" for key in order), order, keys


# Half PROPERTY's examples, as a third for each of the three rules: the suite
# has a time budget. Drawn from one strategy, Hypothesis favours the first rule
# and broke the last only 34 times in 150.
@settings(PROPERTY, max_examples=50)
@given(st.data())
def _a_broken_joined_rule_names_the_lines_of_its_keys(rule, broken, data):
    text, order, keys = data.draw(joined_rule_breaks(rule))
    with pytest.raises(ValidationError) as raised:
        parse_config(text)
    numbers = ", ".join(str(order.index(key) + 1) for key in sorted(keys, key=order.index))
    assert str(raised.value).startswith(f"lines {numbers}: {keys[0]}"), (raised.value, keys)
    broken[keys[0]] += 1


def test_a_broken_joined_rule_names_the_lines_of_its_keys():
    broken = Counter()
    for rule in ("led", "positions", "gain"):
        _a_broken_joined_rule_names_the_lines_of_its_keys(rule, broken)
    assert len(broken) == 3 and min(broken.values()) >= 40, broken


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
    assert _point_list_skeleton(text)  # the text takes the JSON path
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
        "[(1, 2, 3], (4, 5, 6))",
        "[(1,\t2, 3)]",
        "[(1, 2, 3) (4, 5, 6)]",
        "[(1, 2, 3)(4, 5, 6)]",
        # A number on the other side of a parenthesis from its point.
        "[1(2, 3, 4)]",
        "[(1, 2, 3)4]",
        "[(1, 2,)3]",
        "[1(, 2, 3)]",
        "[(1, 2, 3), (4, 5,)6]",
        "[(1, 2, 3)4, (5, 6, 7)]",
        "[(1, 2, 3), 4(5, 6, 7)]",
    ],
)
def test_near_miss_point_lists_load_as_literal_eval_reads_them(monkeypatch, value):
    text = f"sweep.positions = {value}\n"
    assert _outcome(_literal, value) == _outcome(ast.literal_eval, value)
    loaded = _outcome(parse_config, text)
    monkeypatch.setattr(reporting, "_literal", ast.literal_eval)
    assert loaded == _outcome(parse_config, text)


def test_long_point_list_loads_as_literal_eval_reads_it(monkeypatch):
    rng = random.Random(601)
    positions = tuple(
        Point3(rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0), 0.0) for _ in range(20_000)
    )
    config = default_config()._replace(pd_positions=positions)
    text = serialize_config(config)
    loaded = parse_config(text)
    monkeypatch.setattr(reporting, "_literal", ast.literal_eval)
    assert loaded == parse_config(text) == config


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
# Points the bulk checks accept (a list of float 3-sequences, or of Point3s
# alone), and entries that send a list to the per-point loop, one family per
# reason: a non-finite float, an int or bool (some past the float range), a
# wrong length, a non-number, a non-sequence. A Point3 among plain tuples is a
# tuple subclass, which the loop accepts too.
FLOAT_POINT = st.tuples(FINITE, FINITE, FINITE) | st.lists(FINITE, min_size=3, max_size=3)
POINT3 = st.builds(Point3, FINITE, FINITE, FINITE)
ODD_COORDINATE = st.one_of(
    st.floats(),
    st.integers(),
    st.booleans(),
    st.sampled_from([10**400, -(10**401), "1.0", None]),
)
ODD_ENTRY = st.one_of(
    st.tuples(FINITE, NON_FINITE, FINITE),
    st.lists(NON_FINITE, min_size=3, max_size=3),
    st.tuples(st.integers() | st.booleans(), FINITE, FINITE),
    st.tuples(FINITE, FINITE, st.sampled_from([10**400, -(10**401)])),
    st.lists(FINITE, max_size=5).filter(lambda entry: len(entry) != 3),
    st.tuples(ODD_COORDINATE, ODD_COORDINATE, ODD_COORDINATE),
    POINT3,
    ODD_COORDINATE,
)


@PROPERTY
@given(
    st.lists(FLOAT_POINT, min_size=1) | st.lists(POINT3, min_size=1),
    st.lists(st.tuples(st.integers(0), ODD_ENTRY), max_size=3),
)
def test_bulk_point_check_matches_the_per_point_loop(points, odd_entries):
    value = list(points)
    for index, entry in odd_entries:
        value.insert(index % (len(value) + 1), entry)
    key, rule = "sweep.positions", ScenarioConfig._rules["pd_positions"]
    point = rule._replace(shape="point")
    bulk = _outcome(lambda v: _check(v, rule, key, ValidationError), value)
    assert bulk == _outcome(
        lambda v: tuple(_check(p, point, key, ValidationError) for p in v), value
    )


# Emission. Texts at the edges of the spelling rule: around 1e-4 and 1e6,
# where the rounded text changes notation, 1e16, where repr does, e-300, the
# smallest normal and subnormal doubles, and -0.0. A single-digit mantissa
# (2e-06) rounds to a text with an exponent and no point. A whole value's
# text has no point below 1e6 in magnitude (60, -0) and an exponent from 1e6
# up, so JSON spells each through _json_numbers (60.0, -0.0, 1000000.0).
EDGE_NUMBERS = st.sampled_from(
    [9.999995e-05, 0.0001, 999999.5, 1e16, 1e-300, 9.999995e-301, 1e-299,
     2.2250738585072014e-308, 5e-324, -0.0, 2e-06]
)
SINGLE_DIGIT = st.builds(lambda m, e: float(f"{m}e{e}"), st.integers(1, 9), st.integers(-323, 308))
WHOLE_FLOATS = st.integers(-2 * 10**6, 2 * 10**6).map(float) | st.just(-0.0)
JSON_FLOATS = (
    st.floats() | st.integers(10**5, 10**17).map(float) | EDGE_NUMBERS | SINGLE_DIGIT
    | WHOLE_FLOATS
)


@PROPERTY
@given(st.lists(JSON_FLOATS, min_size=1))
def test_json_numbers_spell_the_rounded_float(column):
    rounded = [float(reporting.format_number(value)) for value in column]
    # json.dumps writes nan and inf as NaN and Infinity.
    spell = repr if all(map(math.isfinite, rounded)) else json.dumps
    assert reporting._json_numbers(column) == list(map(spell, rounded))


@st.composite
def tables(draw):
    """A table of 2-4 columns and up to 6 rows, with non-ASCII text throughout.

    A column holds floats (any, or whole values only), ints, None or text,
    numbers of both types, or a mix of all four, so both the per-column and
    the cell-by-cell renderings run: the cell kinds the tables of src/ hold.
    """

    numbers = st.one_of(JSON_FLOATS, st.integers())
    mixed = st.one_of(numbers, st.none(), st.text())
    kinds = [JSON_FLOATS, WHOLE_FLOATS, st.integers(), st.none(), st.text(), numbers, mixed]
    width = draw(st.integers(2, 4))
    cells = [draw(st.sampled_from(kinds)) for _ in range(width)]
    columns = tuple(draw(st.lists(st.text(), min_size=width, max_size=width)))
    rows = tuple(draw(st.lists(st.tuples(*cells), max_size=6)))
    metadata = draw(st.dictionaries(st.text(), st.text(), max_size=3))
    return reporting.OutputTable("t\u00e5ble", columns, rows, metadata)


@PROPERTY
@given(tables())
def test_emit_matches_the_csv_and_json_modules(tmp_path_factory, table):
    # emit returns the UTF-8 size of what it wrote; the benchmark's tracer
    # reports that count as reporting.emit.<format>.bytes.
    target = tmp_path_factory.getbasetemp() / "emitted"
    for fmt, expected in (("csv", csv_reference(table)), ("json", json_reference(table))):
        buffer = io.StringIO()
        assert reporting.emit(table, fmt, buffer) == len(expected.encode("utf-8"))
        assert buffer.getvalue() == expected
        assert reporting.emit(table, fmt, target) == target.stat().st_size
        assert target.read_bytes().decode("utf-8") == expected


# Chunk boundaries: tables around one and two chunks of rows. The float
# column's texts that JSON spells otherwise (0, -0, an integral value, a
# positive exponent that repr spells without one, a subnormal, nan) sit in
# the first chunk only, so a later chunk keeps its floats' %.6g texts. In the
# "middle" table they sit in the second chunk, which falls back between two
# chunks that keep them, beside a whole-valued column that every chunk spells
# through _json_numbers.
CHUNK = reporting._CHUNK_ROWS
RESPELLED_FLOATS = (0.0, -0.0, 60.0, 1234567.0, 5e-324, math.nan)


def _middle_table(count):
    rows = tuple(
        (
            RESPELLED_FLOATS[i - CHUNK] if 0 <= i - CHUNK < len(RESPELLED_FLOATS) else i + 0.5,
            float(i // 100 - 10),
        )
        for i in range(count)
    )
    return reporting.OutputTable("middle", ("float", "whole"), rows, {"k": "v"})


def _chunk_tables(count):
    rows = tuple(
        (
            RESPELLED_FLOATS[i] if i < len(RESPELLED_FLOATS) else i + 0.5,
            i,
            None if i % 2 else f'r\u00f6w, "{i}"',
        )
        for i in range(count)
    )
    empty = tuple((None if i % 3 == 0 else "" if i % 3 == 1 else "\u00e9", "" if i % 2 else None)
                  for i in range(count))
    metadata = {"k": "v"}
    return (
        reporting.OutputTable("chunks", ("float", "int", "text"), rows, metadata),
        reporting.OutputTable("empty", ("", ""), empty, metadata),
        _middle_table(count),
    )


@pytest.mark.parametrize("count", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_emit_across_chunk_boundaries_matches_the_csv_and_json_modules(tmp_path, count):
    target = tmp_path / "emitted"
    for table in _chunk_tables(count):
        for fmt, expected in (("csv", csv_reference(table)), ("json", json_reference(table))):
            buffer = io.StringIO()
            assert reporting.emit(table, fmt, buffer) == len(expected.encode("utf-8"))
            assert buffer.getvalue() == expected
            assert reporting.emit(table, fmt, target) == len(expected.encode("utf-8"))
            assert target.read_bytes() == expected.encode("utf-8")


def _spy_json_numbers(monkeypatch):
    """The first value of each column that _json_numbers spells, in call order."""

    numbers, calls = reporting._json_numbers, []

    def spy(column):
        calls.append(column[0])
        return numbers(column)

    monkeypatch.setattr(reporting, "_json_numbers", spy)
    return calls


def test_only_a_chunk_with_a_respelled_text_falls_back(monkeypatch):
    # The float column falls back to _json_numbers in the middle chunk only.
    # The whole column's texts (-10 up to 51) have no point, so every chunk
    # spells it there.
    calls = _spy_json_numbers(monkeypatch)
    table = _middle_table(3 * CHUNK)
    reporting.emit(table, "json", io.StringIO())
    whole = [row[1] for row in table.rows[::CHUNK]]  # each chunk's first whole value
    assert calls == [whole[0], 0.0, whole[1], whole[2]]


def test_a_chunk_with_two_digit_exponents_from_e_30_renders_once(monkeypatch):
    # %.6g spells the first chunk's texts (1.25e-30 up to 1.375e-30, each with a
    # point) as JSON does; only the second chunk's e-300 falls back.
    calls = _spy_json_numbers(monkeypatch)
    rows = tuple(((1.25 + i / 8 / CHUNK) * 1e-30 if i < CHUNK else 2.5e-300, i)
                 for i in range(CHUNK + 1))
    table = reporting.OutputTable("small", ("float", "int"), rows, {})
    buffer = io.StringIO()
    reporting.emit(table, "json", buffer)
    assert calls == [2.5e-300]
    assert buffer.getvalue() == json_reference(table)


def _figure_config(case, samples):
    """samples distance samples and as many floor points, along the y = 0 edge
    (beyond a 5-degree FOV), in the default room."""

    base = default_config()
    edge = tuple(Point3(5.0 * i / (samples - 1), 0.0, 0.0) for i in range(samples))
    config = base._replace(pd_positions=edge, distance_samples=samples)
    if case == "respelled":
        # JSON spells 1e-05 and 1e+06 otherwise than %.6g does.
        return config._replace(sweep_elevations=(1e-05, 90.0), transmit_powers=(1e6, 8.0))
    if case == "beyond-fov":
        return config._replace(pd_template=base.pd_template._replace(fov=5.0),
                               sweep_elevations=(60.0, 70.0, 80.0))
    if case == "range-edges":
        # Powers from 1 W up (both sweeps) and below 1e-299 W (the power sweep's
        # second family), which %.6g does not spell as JSON does, and whole
        # distances (the angle sweep's).
        return config._replace(led=base.led._replace(transmit_power=1e7),
                               transmit_powers=(1e8, 1e-300), distance_range=(3.0, 3.0))
    return config


@pytest.mark.parametrize("samples", [2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
@pytest.mark.parametrize("case", ["default", "respelled", "beyond-fov", "range-edges"])
def test_figure_tables_emit_the_bytes_of_their_rows_as_a_row_table(case, samples):
    # A figure table renders family by family, each chunk within one family
    # and its label spelled once; a row table of the same rows renders in
    # chunks that straddle the families.
    config = _figure_config(case, samples)
    for build, run, labels in (
        (reporting.angle_sweep_table, run_angle_sweep, config.sweep_elevations),
        (reporting.power_sweep_table, run_power_distance_sweep, config.transmit_powers),
    ):
        table = build(run(config), {"k": "v"})
        assert len(table.rows) == len(labels) * samples
        powers = [power for _, _, power in rows_of(table.rows)]
        if case == "beyond-fov":
            assert set(powers) == {0.0}
        if case == "range-edges":
            assert max(powers) >= 1.0 and (min(powers) < 1e-299) == (labels[-1] == 1e-300)
        plain = table._replace(rows=tuple(rows_of(table.rows)))
        for fmt, expected in (("csv", csv_reference(plain)), ("json", json_reference(plain))):
            buffer = io.StringIO()
            assert reporting.emit(table, fmt, buffer) == len(expected.encode("utf-8"))
            assert buffer.getvalue() == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_figure_table_spells_each_distance_chunk_once_for_all_its_families(monkeypatch, fmt):
    # The default figure's powers lie in [1e-299, 0.999999), so they take %.6g
    # in place: _spelled only ever sees the distances.
    spelled, calls = reporting._spelled, []

    def spy(column, fmt):
        calls.append(list(column))
        return spelled(column, fmt)

    monkeypatch.setattr(reporting, "_spelled", spy)
    figure = run_angle_sweep(_figure_config("default", 2 * CHUNK + 1))
    reporting.emit(reporting.angle_sweep_table(figure, {}), fmt, io.StringIO())
    distances = figure.distances.tolist()
    assert len(figure.labels) == 4
    assert calls == [distances[:CHUNK], distances[CHUNK:2 * CHUNK], distances[2 * CHUNK:]]
