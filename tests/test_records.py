"""Tests for the validated named-tuple records: every way of building one checks it.

The tables name records and fields; each test builds its record from the
default config, so no test module builds a record at import.
"""

import math
import re

import pytest

from vlcpos import (
    DomainError,
    LedSpec,
    OutputTable,
    PdSpec,
    Point3,
    RoomSpec,
    ScenarioConfig,
    ValidationError,
    default_config,
    lambertian_order,
)
from vlcpos.geometry import _MIN_LED_HEIGHT, _check


def _record(name):
    """A valid record of the named type: the default config's, or a small one."""
    config = default_config()
    return {"Point3": Point3(1.0, 2.0, 3.0), "RoomSpec": config.room, "LedSpec": config.led,
            "PdSpec": config.pd_template, "ScenarioConfig": config,
            "OutputTable": OutputTable("demo", ("a", "b"), ((1, 2.5),), {"k": "v"})}[name]


def _tag(bad):
    """A value's text for a node id: its repr, or its type when that is long."""
    try:
        text = repr(bad)
    except ValueError:  # an int too long to print
        text = ""
    return text.replace(" ", "") if 0 < len(text) <= 24 else type(bad).__name__


# (a record, a field, a value that field rejects, the exact message); a
# message that starts with "must" is the field's own, after "<record>.<field> ".
INVALID_FIELDS = [
    pytest.param(record, field, bad, f"{record}.{field} {text}" if text[:5] == "must " else text,
                 id=f"{record}.{field}={_tag(bad)}")
    for record, field, bad, text in (
        ("Point3", "x", math.nan, "must be finite, got nan"),
        ("Point3", "x", math.inf, "must be finite, got inf"),
        ("Point3", "y", math.nan, "must be finite, got nan"),
        ("RoomSpec", "width", 0.0, "must lie in (0, 7.741e+153], got 0.0"),
        ("RoomSpec", "length", -1.0, "must lie in (0, 7.741e+153], got -1.0"),
        ("RoomSpec", "height", 0.0, "must lie in (0, 7.741e+153], got 0.0"),
        # A side past the bound would overflow the channel's squared distances.
        ("RoomSpec", "width", 1e200, "must lie in (0, 7.741e+153], got 1e+200"),
        ("LedSpec", "transmit_power", 0.0, "must be > 0, got 0.0"),
        ("LedSpec", "transmit_power", -1.0, "must be > 0, got -1.0"),
        ("LedSpec", "half_power_angle", 90.0, "must lie in [6.0371e-07, 90), got 90.0"),
        # The record's rule checks the angle before the order formula reads it.
        ("LedSpec", "half_power_angle", "60", "must be a number, got '60'"),
        ("LedSpec", "lambertian_order", 0.0, "must be > 0, got 0.0"),
        ("LedSpec", "lambertian_order", -1.0, "must be > 0, got -1.0"),
        ("PdSpec", "area", 0.0, "must be > 0, got 0.0"),
        ("PdSpec", "filter_gain", 0.0, "must be > 0, got 0.0"),
        ("PdSpec", "fov", 0.0, "must lie in (0, 90], got 0.0"),
        ("PdSpec", "fov", 120.0, "must lie in (0, 90], got 120.0"),
        ("PdSpec", "refractive_index", 0.5, "must be >= 1, got 0.5"),
        # Each gives an infinite concentrator gain n^2 / sin^2(fov).
        *(("PdSpec", field, bad, f"pd.fov {fov} with pd.refractive_index {n} gives an infinite "
           "concentrator gain") for field, bad, fov, n in (
               ("fov", 5e-324, "5e-324", "1.5"), ("fov", 1e-155, "1e-155", "1.5"),
               ("refractive_index", 1e200, "90.0", "1e+200"))),
        ("ScenarioConfig", "azimuth", 360.0, "must lie in [0, 360), got 360.0"),
        ("ScenarioConfig", "transmit_powers", (), "must be a non-empty list of numbers, got ()"),
        ("ScenarioConfig", "sweep_elevations", (), "must be a non-empty list of numbers, got ()"),
        ("ScenarioConfig", "transmit_powers", (8.0, 0.0), "must be > 0, got 0.0"),
        # Otherwise it loads, and power-sweep fails in LedSpec or float().
        ("ScenarioConfig", "transmit_powers", (8.0, math.inf), "must be finite, got inf"),
        ("ScenarioConfig", "transmit_powers", (8.0, 10**400), "must be finite, got 1" + "0" * 400),
        ("ScenarioConfig", "sweep_elevations", (0.0,), "must lie in (0, 90], got 0.0"),
        ("ScenarioConfig", "distance_samples", 1, "must lie in [2, 1e+06], got 1"),
        # Otherwise run_angle_sweep raises a TypeError deep inside the sweep.
        ("ScenarioConfig", "distance_samples", 2.5, "must be an integer, got 2.5"),
        ("ScenarioConfig", "distance_samples", 3.0, "must be an integer, got 3.0"),
        ("ScenarioConfig", "distance_samples", "3", "must be a number, got '3'"),
        ("ScenarioConfig", "distance_range", (4.0, 3.0),
         "must satisfy low <= high, got (4.0, 3.0)"),
        *(("ScenarioConfig", "distance_range", bad, f"must be (low, high), got {bad!r}")
          for bad in ((3.0,), (1.0, 2.0, 3.0), 3.0)),
        # Otherwise a str or None raises a bare TypeError and a bool loads as 1.
        *(("ScenarioConfig", field, bad, f"must be a number, got {text}")
          for field, bad, text in (
              ("azimuth", "0", "'0'"), ("azimuth", True, "True"),
              ("transmit_powers", ("8",), "'8'"), ("transmit_powers", (8.0, True), "True"),
              ("sweep_elevations", (None,), "None"), ("sweep_elevations", (90.0, True), "True"),
              ("distance_range", ("1", "2"), "'1'"), ("distance_range", (1.0, None), "None"))),
        # The walk's points lie on the room's floor.
        ("ScenarioConfig", "pd_positions", ((2.5, 2.5, 0.0), (1.0, 1.0, 0.5)),
         "sweep.positions point 2 must lie on the floor plane (z = 0), got z=0.5"),
        ("ScenarioConfig", "pd_positions", ((5.5, 1.0, 0.0),),
         "sweep.positions point 1 at (5.5, 1.0) is outside the room floor"),
        # A point is a shape of its record's rule: three finite numbers.
        *(("LedSpec", "position", bad, f"must be a 3-tuple (x, y, z), got {bad!r}")
          for bad in (None, "abc", (1, 2))),
        ("ScenarioConfig", "pd_positions", (None,), "must be a 3-tuple (x, y, z), got None"),
        ("ScenarioConfig", "pd_positions", (), "must be a non-empty list of points, got ()"),
        # An int too long to print is named by its size.
        ("Point3", "y", 10**5000, "must be finite, got an int of 16610 bits"),
        ("ScenarioConfig", "azimuth", -(10**5000), "must be finite, got an int of 16610 bits"),
        ("OutputTable", "columns", (), "a table needs at least two columns"),
        ("OutputTable", "rows", ((1,),), "row 1 has 1 cells for 2 columns"),
        # A bool is no number, a str no number, and an int past the float range
        # not finite.
        *((record, field, bad, f"must be {rule}, got {text}")
          for record, field in (("Point3", "x"), ("RoomSpec", "width"),
                                ("LedSpec", "transmit_power"), ("PdSpec", "area"))
          for bad, rule, text in ((True, "a number", "True"), ("1", "a number", "'1'"),
                                  (10**400, "finite", "1" + "0" * 400))),
    )
]


def _with(record, field, value):
    """The record's field values with one replaced, as a plain tuple."""
    return tuple(value if name == field else v for name, v in zip(record._fields, record))


def _raises(record, message):
    """The error a record of that type raises, with exactly that message."""
    error = ValidationError if record in ("ScenarioConfig", "OutputTable") else DomainError
    return pytest.raises(error, match=f"^{re.escape(message)}$")


@pytest.mark.parametrize("record, field, bad, message", INVALID_FIELDS)
class TestEveryConstructionValidates:
    def test_constructor(self, record, field, bad, message):
        built = _record(record)
        values = _with(built, field, bad)
        with _raises(record, message):
            type(built)(*values)
        with _raises(record, message):
            type(built)(**dict(zip(built._fields, values)))

    def test_make(self, record, field, bad, message):
        built = _record(record)
        with _raises(record, message):
            type(built)._make(_with(built, field, bad))

    def test_replace(self, record, field, bad, message):
        with _raises(record, message):
            _record(record)._replace(**{field: bad})


@pytest.mark.parametrize(
    "record", ["Point3", "RoomSpec", "LedSpec", "PdSpec", "ScenarioConfig", "OutputTable"])
class TestTupleSemantics:
    def test_copies_keep_type_and_values(self, record):
        record = _record(record)
        for copy in (record._replace(), type(record)._make(record), type(record)(*record)):
            assert type(copy) is type(record)
            assert copy == record

    def test_equal_and_hashed_as_the_tuple_of_its_fields(self, record):
        # The room, LED and PD records inside a config are hashed the same way.
        record = _record(record)
        fields = tuple(getattr(record, name) for name in record._fields)
        assert record == tuple(record) == fields
        if record._fields[-1] != "metadata":  # a table's metadata is a dict
            assert hash(record) == hash(fields)

    def test_takes_no_attribute_beyond_its_fields(self, record):
        with pytest.raises(AttributeError):
            _record(record).extra = 1.0


class TestRecordsHoldWhatTheirRulesReturn:
    def test_int_coordinates_are_stored_as_floats(self):
        point = Point3(1, 2, 3)
        assert point == (1.0, 2.0, 3.0) and set(map(type, point)) == {float}
        led = LedSpec((2, 2, 3), 15, 60)
        assert type(led.position) is Point3 and set(map(type, led[:3])) == {Point3, float}

    @pytest.mark.parametrize("positions", [[(1.0, 1.0, 0.0)], ((1, 1, 0),), "point-list"],
                             ids=["float-list", "int-triples", "point-list"])
    def test_positions_are_stored_as_a_hashable_tuple_of_points(self, positions):
        if positions == "point-list":
            positions = [Point3(1, 1, 0)]
        config = default_config()._replace(pd_positions=positions, transmit_powers=[8, 10])
        assert type(config.pd_positions) is tuple and type(config.transmit_powers) is tuple
        assert [type(point) for point in config.pd_positions] == [Point3]
        assert config.pd_positions == (Point3(1.0, 1.0, 0.0),)
        assert hash(config) == hash(tuple(config))


def test_a_config_defaults_its_sample_count_and_distance_range():
    config = ScenarioConfig(*default_config()[:7])
    assert (config.distance_samples, config.distance_range) == (50, None)


class TestLambertianOrder:
    def test_replace_with_none_derives_it_again(self):
        led = LedSpec(Point3(0.0, 0.0, 3.0), 15.0, 60.0, lambertian_order=7.5)
        assert led._replace(half_power_angle=30.0).lambertian_order == 7.5
        rederived = led._replace(half_power_angle=30.0, lambertian_order=None)
        assert rederived.lambertian_order == lambertian_order(30.0)
        assert led._replace(lambertian_order=None).lambertian_order == lambertian_order(60.0)


NON_FINITE_FIELDS = [
    pytest.param(record, field, id=f"{record}.{field}")
    for record, fields in (
        ("LedSpec", ("transmit_power", "lambertian_order")),
        # fov's own range, (0, 90], already excludes every non-finite value.
        ("PdSpec", ("area", "filter_gain", "refractive_index")),
        ("RoomSpec", ("width", "length", "height")),
    )
    for field in fields
]


@pytest.mark.parametrize("record, field", NON_FINITE_FIELDS)
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_non_finite_field_is_rejected_naming_the_field_and_the_value(record, field, value):
    # An infinite power, area or gain would give inf W, an infinite order
    # nan W off axis, and an infinite room side would hold every floor point.
    # nan and -inf fail the range check, whose message names both too.
    rule = "be finite" if value == math.inf else ".*"
    record = _record(record)
    for build in (lambda: record._replace(**{field: value}),
                  lambda: type(record)(**{**record._asdict(), field: value})):
        with pytest.raises(DomainError, match=rf"^{record.__class__.__name__}\.{field} must "
                                              rf"{rule}, got {value}$"):
            build()


RULES = [
    pytest.param(rule, id=f"{record.__name__}.{field}")
    for record in (Point3, RoomSpec, LedSpec, PdSpec, ScenarioConfig)
    for field, rule in record._rules.items()
]


@pytest.mark.parametrize("rule", RULES)
def test_each_printed_bound_reads_back_inside_its_rule(rule):
    # A message prints a bound by %g. A closed bound's printed value must keep
    # the rule, and an open bound's must be the bound itself, so that no value
    # the rule rejects appears to meet the bound the message shows.
    rule = rule._replace(shape="")
    for bound, closed in ((rule.low, rule.ends[0] == "["), (rule.high, rule.ends[1] == "]")):
        if math.isfinite(bound):
            shown = float(f"{bound:g}")
            if closed:
                _check(int(shown) if rule.integer else shown, rule, "bound")
            else:
                assert shown == bound


def test_the_printed_led_height_floor_is_above_every_height_it_rejects():
    # The joined rule prints its floor by %g; a height one float below the
    # floor must read as below the floor the message shows.
    below = math.nextafter(_MIN_LED_HEIGHT, 0.0)
    config = default_config()
    with pytest.raises(ValidationError, match=r"^led\.position height ") as caught:
        config._replace(room=config.room._replace(height=below),
                        led=config.led._replace(position=Point3(2.5, 2.5, below)))
    shown = float(re.search(r" is below (\S+) m, ", str(caught.value))[1])
    assert below < _MIN_LED_HEIGHT <= shown
