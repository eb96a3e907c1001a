"""Tests for the validated named-tuple records: every way of building one checks it."""

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

CONFIG = default_config()
TABLE = OutputTable("demo", ("a", "b"), ((1, 2.5),), {"k": "v"})

# (a valid record, a field, a value that field rejects, the error, its message);
# a bool, str or int value's id ends in its type.
INVALID_FIELDS = [
    pytest.param(*case, id=f"{type(case[0]).__name__}.{case[1]}"
                 + (f"-{type(case[2]).__name__}" if type(case[2]) in (bool, str, int) else ""))
    for case in (
        (Point3(1.0, 2.0, 3.0), "y", math.nan, DomainError, r"^Point3\.y must be finite, got nan$"),
        (CONFIG.room, "height", 0.0, DomainError,
         r"^RoomSpec\.height must lie in \(0, 7\.741e\+153\], got 0\.0$"),
        # A side past the bound would overflow the channel's squared distances.
        (CONFIG.room, "width", 1e200, DomainError,
         r"^RoomSpec\.width must lie in \(0, 7\.741e\+153\], got 1e\+200$"),
        (CONFIG.led, "transmit_power", -1.0, DomainError,
         r"^LedSpec\.transmit_power must be > 0, got -1\.0$"),
        (CONFIG.led, "half_power_angle", 90.0, DomainError,
         r"^LedSpec\.half_power_angle must lie in \[6\.0371e-07, 90\), got 90\.0$"),
        # The record's rule checks the angle before the order formula reads it.
        (CONFIG.led, "half_power_angle", "60", DomainError,
         r"^LedSpec\.half_power_angle must be a number, got '60'$"),
        (CONFIG.led, "lambertian_order", 0.0, DomainError,
         r"^LedSpec\.lambertian_order must be > 0, got 0\.0$"),
        (CONFIG.pd_template, "fov", 120.0, DomainError,
         r"^PdSpec\.fov must lie in \(0, 90\], got 120\.0$"),
        (CONFIG.pd_template, "refractive_index", 0.5, DomainError,
         r"^PdSpec\.refractive_index must be >= 1, got 0\.5$"),
        (CONFIG, "azimuth", 360.0, ValidationError,
         r"^azimuth must lie in \[0, 360\), got 360\.0$"),
        (CONFIG, "transmit_powers", (), ValidationError,
         r"^transmit_powers must be a non-empty list of numbers, got \(\)$"),
        # A point is a shape of its record's rule: three finite numbers.
        *((CONFIG.led, "position", bad, DomainError,
           rf"^LedSpec\.position must be a 3-tuple \(x, y, z\), got {text}$")
          for bad, text in ((None, "None"), ("abc", "'abc'"), ((1, 2), r"\(1, 2\)"))),
        (CONFIG, "pd_positions", (None,), ValidationError,
         r"^pd_positions must be a 3-tuple \(x, y, z\), got None$"),
        (CONFIG, "pd_positions", (), ValidationError,
         r"^pd_positions must be a non-empty list of points, got \(\)$"),
        # An int too long to print is named by its size.
        (Point3(1.0, 2.0, 3.0), "y", 10**5000, DomainError,
         r"^Point3\.y must be finite, got an int of 16610 bits$"),
        (CONFIG, "azimuth", -(10**5000), ValidationError,
         r"^azimuth must be finite, got an int of 16610 bits$"),
        (TABLE, "columns", (), ValidationError, r"^a table needs at least two columns$"),
        (TABLE, "rows", ((1,),), ValidationError, r"^row 1 has 1 cells for 2 columns$"),
        # A bool is no number, a str no number, and an int past the float range
        # not finite.
        *((record, field, bad, DomainError,
           rf"^{type(record).__name__}\.{field} must be {rule}, got {text}$")
          for record, field in ((Point3(1.0, 2.0, 3.0), "x"), (CONFIG.room, "width"),
                                (CONFIG.led, "transmit_power"), (CONFIG.pd_template, "area"))
          for bad, rule, text in ((True, "a number", "True"), ("1", "a number", "'1'"),
                                  (10**400, "finite", "1" + "0" * 400))),
    )
]


def _with(record, field, value):
    """The record's field values with one replaced, as a plain tuple."""
    return tuple(value if name == field else v for name, v in zip(record._fields, record))


@pytest.mark.parametrize("record, field, bad, error, message", INVALID_FIELDS)
class TestEveryConstructionValidates:
    def test_constructor(self, record, field, bad, error, message):
        values = _with(record, field, bad)
        with pytest.raises(error, match=message):
            type(record)(*values)
        with pytest.raises(error, match=message):
            type(record)(**dict(zip(record._fields, values)))

    def test_make(self, record, field, bad, error, message):
        with pytest.raises(error, match=message):
            type(record)._make(_with(record, field, bad))

    def test_replace(self, record, field, bad, error, message):
        with pytest.raises(error, match=message):
            record._replace(**{field: bad})


RECORDS = [Point3(1.0, 2.0, 3.0), CONFIG.room, CONFIG.led, CONFIG.pd_template, CONFIG, TABLE]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
class TestTupleSemantics:
    def test_copies_keep_type_and_values(self, record):
        for copy in (record._replace(), type(record)._make(record), type(record)(*record)):
            assert type(copy) is type(record)
            assert copy == record

    def test_equal_to_the_tuple_of_its_fields(self, record):
        assert record == tuple(record)

    def test_takes_no_attribute_beyond_its_fields(self, record):
        with pytest.raises(AttributeError):
            record.extra = 1.0


class TestRecordsHoldWhatTheirRulesReturn:
    def test_int_coordinates_are_stored_as_floats(self):
        point = Point3(1, 2, 3)
        assert point == (1.0, 2.0, 3.0) and set(map(type, point)) == {float}
        led = LedSpec((2, 2, 3), 15, 60)
        assert type(led.position) is Point3 and set(map(type, led[:3])) == {Point3, float}

    @pytest.mark.parametrize("positions", [[(1.0, 1.0, 0.0)], ((1, 1, 0),), [Point3(1, 1, 0)]],
                             ids=["float-list", "int-triples", "point-list"])
    def test_positions_are_stored_as_a_hashable_tuple_of_points(self, positions):
        config = CONFIG._replace(pd_positions=positions, transmit_powers=[8, 10])
        assert type(config.pd_positions) is tuple and type(config.transmit_powers) is tuple
        assert [type(point) for point in config.pd_positions] == [Point3]
        assert config.pd_positions == (Point3(1.0, 1.0, 0.0),)
        assert hash(config) == hash(tuple(config))


class TestScenarioConfig:
    def test_defaults(self):
        config = ScenarioConfig(*CONFIG[:7])
        assert (config.distance_samples, config.distance_range) == (50, None)

    def test_hashed_as_the_tuple_of_its_fields(self):
        # The room, LED and PD records inside are hashed the same way.
        assert hash(CONFIG) == hash(tuple(CONFIG))


class TestLambertianOrder:
    def test_derived_when_none(self):
        led = LedSpec(Point3(0.0, 0.0, 3.0), 15.0, 30.0)
        assert led.lambertian_order == lambertian_order(30.0)

    def test_replace_with_none_derives_it_again(self):
        led = LedSpec(Point3(0.0, 0.0, 3.0), 15.0, 60.0, lambertian_order=7.5)
        assert led._replace(half_power_angle=30.0).lambertian_order == 7.5
        rederived = led._replace(half_power_angle=30.0, lambertian_order=None)
        assert rederived.lambertian_order == lambertian_order(30.0)
        assert led._replace(lambertian_order=None).lambertian_order == lambertian_order(60.0)


NON_FINITE_FIELDS = [
    pytest.param(record, field, id=f"{type(record).__name__}.{field}")
    for record, fields in (
        (CONFIG.led, ("transmit_power", "lambertian_order")),
        # fov's own range, (0, 90], already excludes every non-finite value.
        (CONFIG.pd_template, ("area", "filter_gain", "refractive_index")),
        (CONFIG.room, ("width", "length", "height")),
    )
    for field in fields
]


@pytest.mark.parametrize("record, field", NON_FINITE_FIELDS)
class TestNonFiniteFields:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejected_naming_the_field_and_the_value(self, record, field, value):
        # nan and -inf fail the range check, whose message names both too.
        with pytest.raises(DomainError, match=rf"\b{field} must .*, got {value}$"):
            record._replace(**{field: value})

    def test_positive_infinity_is_not_finite(self, record, field):
        # An infinite power, area or gain would give inf W, an infinite order
        # nan W off axis, and an infinite room side would hold every floor point.
        name = type(record).__name__
        with pytest.raises(DomainError, match=rf"^{name}\.{field} must be finite, got inf$"):
            type(record)(**{**record._asdict(), field: math.inf})


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
    with pytest.raises(ValidationError, match=r"^led\.position height ") as caught:
        CONFIG._replace(room=CONFIG.room._replace(height=below),
                        led=CONFIG.led._replace(position=Point3(2.5, 2.5, below)))
    shown = float(re.search(r" is below (\S+) m, ", str(caught.value))[1])
    assert below < _MIN_LED_HEIGHT <= shown
