"""Tests for sweep orchestration and the replication report."""

import math
import random
import re

import pytest

import vlcpos.scenario
from vlcpos import (
    LedSpec,
    NonPositivePower,
    Point3,
    ScenarioConfig,
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
from vlcpos.scenario import (
    ASSUMPTIONS,
    REFERENCE_ACTUAL_XY,
    REFERENCE_DATASET_VERSION,
    REFERENCE_ERRORS,
    REFERENCE_MEAN_ERROR,
)

from figure_rows import rows_of

# Independently derived doubles (50-digit arithmetic, rounded to nearest).
DIAGONAL_SLANTS = (
    3.0,
    3.02420237418067,
    3.0956744014834636,
    3.211261434389919,
    3.366422433385329,
    3.5559808773389094,
    3.774758270406199,
    4.0179845694079015,
    4.281495065978706,
    4.561775969948546,
)
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
PIPELINE_ERRORS = (
    0.0,
    0.1683412046348823,
    0.29944272065528266,
    0.40612457794635437,
    0.5003179325269824,
    0.5913290108959607,
    0.6853764108900872,
    0.7859983853053326,
    0.8947894416043378,
    1.0121085356718664,
)
CENTER_POWER_BY_TRANSMIT = {
    8.0: 1.432394487827058e-06,
    10.0: 1.7904931097838226e-06,
    12.0: 2.148591731740587e-06,
    15.0: 2.685739664675734e-06,
}
CORNER_POWER_BY_ELEVATION = {
    60.0: 8.71163717890667e-07,
    70.0: 1.0256758953517877e-06,
    80.0: 1.1265265567259624e-06,
    90.0: 1.1615516238542228e-06,
}
CENTER_POWER_BY_ELEVATION = {
    60.0: 2.0143047485068003e-06,
    70.0: 2.3715678052324037e-06,
    80.0: 2.6047547044617702e-06,
    90.0: 2.685739664675734e-06,
}

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


def _close(a, b, tol=1e-12):
    return math.isclose(a, b, rel_tol=tol, abs_tol=1e-300)


class TestDefaultConfig:
    def test_room_and_emitter(self):
        config = default_config()
        assert (config.room.width, config.room.length, config.room.height) == (5.0, 5.0, 3.0)
        assert config.led.position == Point3(2.5, 2.5, 3.0)
        assert config.led.transmit_power == 15.0
        assert config.led.half_power_angle == 60.0
        assert _close(config.led.lambertian_order, 1.0)

    def test_detector(self):
        pd = default_config().pd_template
        assert pd.area == 2.25e-6
        assert pd.fov == 90.0
        assert pd.filter_gain == 1.0
        assert pd.refractive_index == 1.5

    def test_sweep_axes(self):
        config = default_config()
        assert config.transmit_powers == (8.0, 10.0, 12.0, 15.0)
        assert config.sweep_elevations == (60.0, 70.0, 80.0, 90.0)
        assert config.azimuth == 225.0
        assert config.distance_samples == 50
        assert len(config.pd_positions) == 10
        for pt, xy in zip(config.pd_positions, REFERENCE_ACTUAL_XY):
            assert _close(pt.x, xy)
            assert _close(pt.y, xy)
            assert pt.z == 0.0


class TestScenarioConfigValidation:
    def test_rejects_position_off_floor(self):
        config = default_config()
        bad = config.pd_positions[:9] + (Point3(1.0, 1.0, 0.5),)
        with pytest.raises(ValidationError, match="floor"):
            config._replace(pd_positions=bad)

    def test_rejects_position_outside_room(self):
        config = default_config()
        bad = (Point3(5.5, 1.0, 0.0),)
        with pytest.raises(ValidationError):
            config._replace(pd_positions=bad)

    def test_rejects_empty_axes(self):
        config = default_config()
        with pytest.raises(ValidationError):
            config._replace(transmit_powers=())
        with pytest.raises(ValidationError):
            config._replace(sweep_elevations=())
        with pytest.raises(ValidationError):
            config._replace(pd_positions=())

    def test_rejects_bad_scalars(self):
        config = default_config()
        with pytest.raises(ValidationError):
            config._replace(azimuth=360.0)
        with pytest.raises(ValidationError):
            config._replace(distance_samples=1)
        with pytest.raises(ValidationError):
            config._replace(distance_range=(4.0, 3.0))
        with pytest.raises(ValidationError):
            config._replace(transmit_powers=(8.0, 0.0))

    @pytest.mark.parametrize("samples", [2.5, 3.0, "3"])
    def test_rejects_a_sample_count_that_is_not_an_int(self, samples):
        # Otherwise run_angle_sweep raises a TypeError deep inside the sweep.
        kind = "an integer" if isinstance(samples, float) else "a number"
        message = f"distance_samples must be {kind}, got {samples!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            default_config()._replace(distance_samples=samples)

    @pytest.mark.parametrize("span", [(3.0,), (1.0, 2.0, 3.0), 3.0])
    def test_rejects_a_distance_range_that_is_not_a_pair(self, span):
        message = f"distance_range must be (low, high), got {span!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            default_config()._replace(distance_range=span)

    @pytest.mark.parametrize(
        "field, value, bad",
        [("azimuth", "0", "'0'"), ("azimuth", True, "True"),
         ("transmit_powers", ("8",), "'8'"), ("transmit_powers", (8.0, True), "True"),
         ("sweep_elevations", (None,), "None"), ("sweep_elevations", (90.0, True), "True"),
         ("distance_range", ("1", "2"), "'1'"), ("distance_range", (1.0, None), "None")],
    )
    def test_rejects_a_value_that_is_not_a_number(self, field, value, bad):
        # Otherwise a str or None raises a bare TypeError and a bool loads as 1.
        message = f"{field} must be a number, got {bad}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            default_config()._replace(**{field: value})

    @pytest.mark.parametrize("power", [math.inf, 10**400])
    def test_rejects_a_transmit_power_past_the_float_range(self, power):
        # Otherwise it loads, and power-sweep fails in LedSpec or float().
        message = f"transmit_powers must be finite, got {power!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            default_config()._replace(transmit_powers=(8.0, power))

    def test_ints_load_as_numbers(self):
        fields = {"azimuth": 225, "transmit_powers": (8, 15), "sweep_elevations": (90,),
                  "distance_range": (1, 2)}
        config = default_config()._replace(**fields)
        assert {name: getattr(config, name) for name in fields} == fields


class TestPositionSweep:
    def test_rows_follow_reference_grid(self):
        config = default_config()
        rows = run_position_sweep(config)
        assert [row[0] for row in rows] == list(range(1, len(config.pd_positions) + 1))
        assert [row[1] for row in rows] == [p.x for p in config.pd_positions]
        assert [row[2] for row in rows] == [p.y for p in config.pd_positions]
        for row, slant, power, error in zip(
            rows, DIAGONAL_SLANTS, DIAGONAL_POWERS, PIPELINE_ERRORS, strict=True
        ):
            _, _, _, est_x, est_y, row_slant, row_power, row_error = row
            assert _close(row_slant, slant)
            assert _close(row_power, power)
            if error == 0.0:
                assert row_error == 0.0
            else:
                assert _close(row_error, error)
            assert abs(est_x - est_y) < 1e-12

    def test_failures_name_the_position(self):
        config = default_config()
        grounded = LedSpec(
            position=Point3(2.5, 2.5, 0.0),
            transmit_power=15.0,
            half_power_angle=60.0,
        )
        # An LED on the floor is outside the room, so the config rejects it
        # before a sweep could fail at position 1.
        with pytest.raises(ValidationError, match=r"led\.position \(2.5, 2.5, 0.0\)"):
            config._replace(led=grounded)


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

    def test_power_outside_the_fov_names_the_position(self):
        config = default_config()
        narrow = config._replace(pd_template=config.pd_template._replace(fov=30.0))
        with pytest.raises(NonPositivePower, match="^position 6:"):
            run_position_sweep(narrow)


class TestPowerDistanceSweep:
    def test_family_layout(self):
        rows = rows_of(run_power_distance_sweep(default_config()))
        assert len(rows) == 40
        powers = [row[0] for row in rows]
        assert powers == [8.0] * 10 + [10.0] * 10 + [12.0] * 10 + [15.0] * 10
        for start in range(0, 40, 10):
            family = rows[start : start + 10]
            distances = [row[1] for row in family]
            assert distances == sorted(distances)
            received = [row[2] for row in family]
            assert all(a > b for a, b in zip(received, received[1:]))

    def test_reference_values(self):
        rows = rows_of(run_power_distance_sweep(default_config()))
        for start, transmit in zip(range(0, 40, 10), (8.0, 10.0, 12.0, 15.0)):
            assert _close(rows[start][1], 3.0)
            assert _close(rows[start][2], CENTER_POWER_BY_TRANSMIT[transmit])
        fifteen = rows[30:]
        for row, expected in zip(fifteen, DIAGONAL_POWERS):
            assert _close(row[2], expected)

    def test_families_scale_linearly(self):
        rows = rows_of(run_power_distance_sweep(default_config()))
        eight = [row[2] for row in rows[:10]]
        fifteen = [row[2] for row in rows[30:]]
        for p8, p15 in zip(eight, fifteen):
            assert _close(p15 / p8, 15.0 / 8.0)


class TestAngleSweep:
    def test_family_layout(self):
        rows = rows_of(run_angle_sweep(default_config()))
        assert len(rows) == 200
        elevations = sorted({row[0] for row in rows})
        assert elevations == [60.0, 70.0, 80.0, 90.0]
        for elevation in elevations:
            family = [row for row in rows if row[0] == elevation]
            assert len(family) == 50
            assert _close(family[0][1], 3.0)
            assert _close(family[-1][1], 4.561775969948546)

    def test_reference_values(self):
        rows = rows_of(run_angle_sweep(default_config()))
        for elevation in (60.0, 70.0, 80.0, 90.0):
            family = [row for row in rows if row[0] == elevation]
            assert _close(family[0][2], CENTER_POWER_BY_ELEVATION[elevation])
            assert _close(family[-1][2], CORNER_POWER_BY_ELEVATION[elevation])

    def test_inverse_square_within_family(self):
        rows = rows_of(run_angle_sweep(default_config()))
        family = [row for row in rows if row[0] == 90.0]
        d0, p0 = family[0][1], family[0][2]
        for _, d, p in family[1:]:
            assert _close(p0 / p, (d / d0) ** 2, 1e-9)

    def test_respects_distance_range_and_samples(self):
        config = default_config()._replace(
            distance_range=(2.0, 4.0),
            distance_samples=5,
            sweep_elevations=(90.0,),
        )
        rows = rows_of(run_angle_sweep(config))
        assert [row[1] for row in rows] == [2.0, 2.5, 3.0, 3.5, 4.0]

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

    def test_rejects_out_of_range_elevation(self):
        with pytest.raises(ValidationError):
            default_config()._replace(sweep_elevations=(0.0,))


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
        reproduced, trend, failed = "REPRODUCED", "TREND-ONLY", "NOT-REPRODUCIBLE"
        verdicts = {
            "center_slant_distance": failed,
            "corner_slant_distance": failed,
            "center_elevation_angle": failed,
            "reference_error_column": reproduced,
            "reference_mean_error": reproduced,
            "first_eight_mean_error": trend,
            "reference_position8_symmetry": failed,
            "published_absolute_power": failed,
            "published_power_decay_ratio": failed,
            "published_estimated_coordinates": failed,
            "power_monotonic_decrease": reproduced,
            "angle_family_ordering": reproduced,
            "pipeline_error_monotonic": failed,
            "pipeline_error_spread": failed,
        }
        assert {check.name: check.verdict for check in checks} == verdicts
        by_name = {check.name: check for check in checks}
        monotonic = by_name["pipeline_error_monotonic"]
        assert (monotonic.reference, monotonic.computed) == (0.0, 9.0)
        assert monotonic.difference is None
        spread = by_name["pipeline_error_spread"]
        assert _close(spread.computed, 1.0121085356718664)
        assert _close(spread.difference, 0.9337085356718664)
        assert [check.name for check in checks if check.regressed] == [
            "center_slant_distance",
            "corner_slant_distance",
            "center_elevation_angle",
            "pipeline_error_monotonic",
            "pipeline_error_spread",
        ]

    def test_repeated_transmit_power_grades_each_walk_alone(self):
        # Two walks at the same power are two families; joining them would
        # count the corner-to-center seam as a violation.
        checks = replication_report(default_config()._replace(transmit_powers=(8.0, 8.0)))
        check = next(c for c in checks if c.name == "power_monotonic_decrease")
        assert (check.verdict, check.computed) == ("REPRODUCED", 0.0)
        assert not any(c.regressed for c in checks)

    def test_repeated_elevation_grades_as_one_family(self):
        # A repeated elevation writes an identical block; comparing that block
        # with itself would count every point as a violation.
        config = default_config()._replace(sweep_elevations=(90.0, 60.0, 90.0))
        checks = replication_report(config)
        check = next(c for c in checks if c.name == "angle_family_ordering")
        assert (check.verdict, check.computed) == ("REPRODUCED", 0.0)
        assert len(checks) == 14
        assert not any(c.regressed for c in checks)

    def test_quantified_gaps(self):
        by_name = {check.name: check for check in replication_report(default_config())}
        power = by_name["published_absolute_power"]
        assert _close(power.computed, DIAGONAL_POWERS[0])
        assert power.reference == 4.5
        mean = by_name["reference_mean_error"]
        assert _close(mean.computed, 0.04207)
        assert mean.reference == REFERENCE_MEAN_ERROR
        coords = by_name["published_estimated_coordinates"]
        assert _close(coords.computed, 2.4244304208947547)
        assert coords.reference == 2.4864

    def test_assumptions_are_stated(self):
        assert len(ASSUMPTIONS) >= 3
        assert all(isinstance(a, str) and a for a in ASSUMPTIONS)

    def test_reference_column_is_self_consistent(self):
        assert len(REFERENCE_ERRORS) == 10
        assert _close(sum(REFERENCE_ERRORS) / 10.0, 0.04207)
