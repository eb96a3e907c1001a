"""Tests for sweep orchestration and the replication report.

The default config, the sweeps' rows on the default walk and the report's
computed values are cases of test_reference.py's table, and the config's field
and joined rules are rows of test_records.py's; this file holds the rest.
"""

import math
import random

import pytest

import vlcpos.scenario
from vlcpos import (
    NonPositivePower,
    Point3,
    ValidationError,
    concentrator_gain,
    default_config,
    estimate_position,
    link_geometry,
    power_columns,
    received_power,
    replication_report,
    replication_text,
    run_angle_sweep,
    run_position_sweep,
    run_power_distance_sweep,
)
from vlcpos.scenario import ASSUMPTIONS, REFERENCE_DATASET_VERSION

from figure_rows import rows_of
from reference import PIPELINE_ERRORS, close

EXPECTED_VERDICTS = {
    "center_slant_distance": "REPRODUCED",
    "corner_slant_distance": "REPRODUCED",
    "center_elevation_angle": "REPRODUCED",
    "reference_error_column": "REPRODUCED",
    "reference_mean_error": "REPRODUCED",
    "first_eight_mean_error": "TREND-ONLY",
    "reference_position8_symmetry": "NOT-REPRODUCIBLE",
    "published_absolute_power": "NOT-REPRODUCIBLE",
    "published_power_decay_ratio": "NOT-REPRODUCIBLE",
    "published_estimated_coordinates": "NOT-REPRODUCIBLE",
    "power_monotonic_decrease": "REPRODUCED",
    "angle_family_ordering": "REPRODUCED",
    "pipeline_error_monotonic": "REPRODUCED",
    "pipeline_error_spread": "TREND-ONLY",
}

# (a call on the default config, the error it raises, its message)
REJECTED = {
    # An LED on the floor is outside the room, so the config rejects it
    # before a sweep could fail at position 1.
    "led-on-the-floor": (lambda c: c._replace(led=c.led._replace(position=(2.5, 2.5, 0.0))),
                         ValidationError, "led.position (2.5, 2.5, 0.0) is outside the room"),
    # A row past the FOV reads 0 W, and the sweep names its position.
    "position-outside-a-30-degree-fov": (
        lambda c: run_position_sweep(c._replace(pd_template=c.pd_template._replace(fov=30.0))),
        NonPositivePower, "position 6: measured power must be > 0, got 0.0"),
}


@pytest.mark.parametrize("case", REJECTED)
def test_rejects(case):
    call, error, message = REJECTED[case]
    with pytest.raises(error) as raised:
        call(default_config())
    assert (type(raised.value), str(raised.value)) == (error, message)


def test_ints_load_as_numbers():
    fields = {"azimuth": 225, "transmit_powers": (8, 15), "sweep_elevations": (90,),
              "distance_range": (1, 2)}
    config = default_config()._replace(**fields)
    assert {name: getattr(config, name) for name in fields} == fields


class TestPositionSweep:
    def test_grazing_row_matches_the_closed_form(self):
        # The LED 1e-100 m above the floor: position 2 sits h = 0.27 sqrt(2)
        # from its floor projection along the 225-degree azimuth, so the
        # estimate lies f = h (V + h) / (2 d) out and the error is h - f.
        config = default_config()
        led = config.led._replace(position=Point3(2.5, 2.5, 1e-100))
        row = run_position_sweep(config._replace(led=led))[1]
        h, v = math.hypot(0.27, 0.27), 1e-100
        d = math.hypot(h, v)
        f = h * (v + h) / (2.0 * d)
        assert math.isclose(row[7], h - f, rel_tol=1e-12)
        assert math.isclose(row[6], 1.137e-203, rel_tol=1e-3)

    def test_tall_room_inverts_row_1_to_the_led_height(self):
        # The on-axis reading K / V^2 is subnormal (about 37 significant
        # bits); K V^2 / P overflows and the inversion runs in logarithms.
        height = 7e153
        config = default_config()
        config = config._replace(
            room=config.room._replace(height=height),
            led=config.led._replace(position=Point3(2.5, 2.5, height)),
        )
        _, _, _, est_x, est_y, slant, power, error = run_position_sweep(config)[0]
        assert slant == height
        record = estimate_position(power, config.led, config.pd_template, config.azimuth)
        assert math.isclose(record.inverted_distance, height, rel_tol=1e-12)
        # The reading's rounding leaves d - V near 4.4e-13 V, which puts the
        # estimate within a microradian of the LED's axis.
        assert error < 1e-6 * height
        assert math.isclose(est_x, est_y)


class TestSweepColumnsMatchScalarPath:
    """Sweep columns against the one-shot API and the unhoisted formulas.

    Equality is exact: each sweep row is one received_power and one
    estimate_position call, received_power evaluates K c^(m+1) / d^2 left to
    right as power_columns does, and the unhoisted formulas keep that
    evaluation order.
    """

    @pytest.mark.parametrize("order", [1.0, 7.5])
    @pytest.mark.parametrize("azimuth", [225.0, 10.0])
    def test_columns_equal_scalar_results(self, order, azimuth):
        rng = random.Random(29)
        positions = tuple(
            Point3(rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0), 0.0) for _ in range(200)
        )
        base = default_config()
        led = base.led._replace(lambertian_order=order)
        config = base._replace(led=led, pd_positions=positions, azimuth=azimuth)
        rows = run_position_sweep(config)
        assert len(rows) == len(positions)
        pd = config.pd_template
        for row, position in zip(rows, positions):
            _, actual_x, actual_y, est_x, est_y, row_slant, row_power, error = row
            assert (actual_x, actual_y) == (position.x, position.y)
            slant, c = link_geometry(led.position, position)
            sample = received_power(led, pd, position)
            record = estimate_position(
                sample.received_power, led, pd, azimuth, actual=position
            )
            assert row_slant == slant
            assert row_power == sample.received_power
            assert est_x == record.estimated.x
            assert est_y == record.estimated.y
            assert error == record.positioning_error

            # P = K c^(m+1) / d^2 at the link cosine c = V/d.
            cos_link = min(led.position.z / slant, 1.0)
            assert c == cos_link
            power = self._gain_constant(led, pd) * cos_link ** (order + 1.0) / slant**2
            assert row_power == power
            unhoisted = self._unhoisted_estimate(power, led, pd, azimuth, position)
            assert (est_x, est_y, error) == unhoisted

    @staticmethod
    def _gain_constant(led, pd):
        m = led.lambertian_order
        gain = concentrator_gain(1.0, pd)
        return led.transmit_power * (m + 1.0) * pd.area * pd.filter_gain * gain / (2.0 * math.pi)

    @classmethod
    def _unhoisted_estimate(cls, power, led, pd, azimuth, actual):
        m = led.lambertian_order
        vertical = led.position.z
        k = cls._gain_constant(led, pd)
        distance = max((k * vertical ** (m + 1.0) / power) ** (1.0 / (m + 3.0)), vertical)
        d_hor = math.sqrt(distance * distance - vertical * vertical)
        # cos(90 - theta) = V/d and sin(90 + theta) = d_hor/d on the coupled path.
        fused = d_hor * (vertical / distance + d_hor / distance) / 2.0
        angle = math.radians(azimuth)
        x = led.position.x + fused * math.cos(angle)
        y = led.position.y + fused * math.sin(angle)
        return x, y, math.dist(actual, Point3(x, y, 0.0))

    @pytest.mark.parametrize("order", [1.0, 7.5])
    def test_power_sweep_equals_received_power(self, order):
        rng = random.Random(31)
        positions = tuple(
            Point3(rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0), 0.0) for _ in range(50)
        )
        base = default_config()
        config = base._replace(
            led=base.led._replace(lambertian_order=order), pd_positions=positions
        )
        rows = rows_of(run_power_distance_sweep(config))
        assert len(rows) == len(positions) * len(config.transmit_powers)
        for transmit in config.transmit_powers:
            led = config.led._replace(transmit_power=transmit)
            samples = [
                received_power(led, config.pd_template, position)
                for position in positions
            ]
            expected = {s.slant_distance: s.received_power for s in samples}
            assert {row[1]: row[2] for row in rows if row[0] == transmit} == expected


class TestAngleSweep:
    def test_the_first_family_computes_only_its_own_powers(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return power_columns(*args)

        monkeypatch.setattr(vlcpos.scenario, "power_columns", spy)
        rows = run_angle_sweep(default_config())
        assert calls == []
        label, distances, powers = next(rows.families())
        assert len(calls) == 1
        assert label == 60.0 and len(distances) == len(powers) == 50


class TestReplicationReport:
    def test_all_checks_match_expectations(self):
        checks = replication_report(default_config())
        header = [f"# reference dataset version {REFERENCE_DATASET_VERSION}"]
        header += [f"# assumption: {assumption}" for assumption in ASSUMPTIONS]
        assert replication_text(checks).splitlines()[: len(header)] == header
        names = [check.name for check in checks]
        assert names == list(EXPECTED_VERDICTS)
        for check in checks:
            assert check.verdict == EXPECTED_VERDICTS[check.name], check.name
            assert check.expected == check.verdict, check.name
            assert not check.regressed, check.name
        assert [check for check in checks if check.regressed] == []

    def test_reversed_positions_fail_the_trend_checks(self):
        # The sweep walks from the corner to the center, so the geometry and
        # error-trend checks fail: the count check reports its violations
        # without a difference, and the spread is no longer a trend.
        config = default_config()
        checks = replication_report(config._replace(pd_positions=config.pd_positions[::-1]))
        regressed = ["center_slant_distance", "corner_slant_distance", "center_elevation_angle",
                     "pipeline_error_monotonic", "pipeline_error_spread"]
        failed = dict.fromkeys(regressed, "NOT-REPRODUCIBLE")
        assert {check.name: check.verdict for check in checks} == {**EXPECTED_VERDICTS, **failed}
        by_name = {check.name: check for check in checks}
        monotonic = by_name["pipeline_error_monotonic"]
        assert (monotonic.reference, monotonic.computed) == (0.0, 9.0)
        assert monotonic.difference is None
        spread = by_name["pipeline_error_spread"]
        assert close(spread.computed, PIPELINE_ERRORS[-1])
        assert close(spread.difference, 0.9337085356718664)
        assert [check.name for check in checks if check.regressed] == regressed

    @pytest.mark.parametrize(
        "field, labels, name",
        [
            # Two walks at the same power are two families; joining them would
            # count the corner-to-center seam as a violation.
            ("transmit_powers", (8.0, 8.0), "power_monotonic_decrease"),
            # A repeated elevation writes an identical block; comparing that
            # block with itself would count every point as a violation.
            ("sweep_elevations", (90.0, 60.0, 90.0), "angle_family_ordering"),
        ],
        ids=["repeated-transmit-power-grades-each-walk-alone",
             "repeated-elevation-grades-as-one-family"],
    )
    def test_a_repeated_label(self, field, labels, name):
        checks = replication_report(default_config()._replace(**{field: labels}))
        check = next(c for c in checks if c.name == name)
        assert (check.verdict, check.computed) == ("REPRODUCED", 0.0)
        assert len(checks) == 14
        assert not any(c.regressed for c in checks)
