"""Tests for sweep orchestration and the replication report."""

import math
import random
from dataclasses import replace

import pytest

from vlcpos import (
    LedSpec,
    NonPositivePower,
    Point3,
    ScenarioConfig,
    ValidationError,
    Verdict,
    anchor_estimate,
    concentrator_gain,
    default_config,
    effective_area,
    estimate_position,
    euclidean_distance,
    link_geometry,
    offset_estimate,
    radiant_intensity,
    received_power,
    replication_report,
    run_angle_sweep,
    run_position_sweep,
    run_power_distance_sweep,
)
from vlcpos.scenario import (
    REFERENCE_ACTUAL_XY,
    REFERENCE_DATASET_VERSION,
    REFERENCE_ERRORS,
    REFERENCE_MEAN_ERROR,
)

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
    "center_slant_distance": Verdict.REPRODUCED,
    "corner_slant_distance": Verdict.REPRODUCED,
    "center_elevation_angle": Verdict.REPRODUCED,
    "reference_error_column": Verdict.REPRODUCED,
    "reference_mean_error": Verdict.REPRODUCED,
    "first_eight_mean_error": Verdict.TREND_ONLY,
    "reference_position8_symmetry": Verdict.NOT_REPRODUCIBLE,
    "published_absolute_power": Verdict.NOT_REPRODUCIBLE,
    "published_power_decay_ratio": Verdict.NOT_REPRODUCIBLE,
    "published_estimated_coordinates": Verdict.NOT_REPRODUCIBLE,
    "power_monotonic_decrease": Verdict.REPRODUCED,
    "angle_family_ordering": Verdict.REPRODUCED,
    "pipeline_error_monotonic": Verdict.REPRODUCED,
    "pipeline_error_spread": Verdict.TREND_ONLY,
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
            replace(config, pd_positions=bad)

    def test_rejects_position_outside_room(self):
        config = default_config()
        bad = (Point3(5.5, 1.0, 0.0),)
        with pytest.raises(ValidationError):
            replace(config, pd_positions=bad)

    def test_rejects_empty_axes(self):
        config = default_config()
        with pytest.raises(ValidationError):
            replace(config, transmit_powers=())
        with pytest.raises(ValidationError):
            replace(config, sweep_elevations=())
        with pytest.raises(ValidationError):
            replace(config, pd_positions=())

    def test_rejects_bad_scalars(self):
        config = default_config()
        with pytest.raises(ValidationError):
            replace(config, azimuth=360.0)
        with pytest.raises(ValidationError):
            replace(config, distance_samples=1)
        with pytest.raises(ValidationError):
            replace(config, distance_range=(4.0, 3.0))
        with pytest.raises(ValidationError):
            replace(config, transmit_powers=(8.0, 0.0))


class TestPositionSweep:
    def test_rows_follow_reference_grid(self):
        config = default_config()
        result = run_position_sweep(config)
        assert result.actual_x == [p.x for p in config.pd_positions]
        assert result.actual_y == [p.y for p in config.pd_positions]
        for i, (slant, power, error) in enumerate(
            zip(DIAGONAL_SLANTS, DIAGONAL_POWERS, PIPELINE_ERRORS)
        ):
            assert _close(result.slant_distance[i], slant)
            assert _close(result.received_power[i], power)
            if error == 0.0:
                assert result.positioning_error[i] == 0.0
            else:
                assert _close(result.positioning_error[i], error)
            assert abs(result.est_x[i] - result.est_y[i]) < 1e-12

    def test_failures_name_the_position(self):
        config = default_config()
        grounded = LedSpec(
            position=Point3(2.5, 2.5, 0.0),
            transmit_power=15.0,
            half_power_angle=60.0,
        )
        # An LED on the floor is outside the room, so the config rejects it
        # before a sweep could fail at position 1.
        with pytest.raises(ValidationError, match=r"led position \(2.5, 2.5, 0.0\)"):
            replace(config, led=grounded)


class TestSweepColumnsMatchScalarPath:
    """Sweep columns against the one-shot API and the unhoisted formulas.

    Equality is exact: power_columns hoists only whole subexpressions and
    keeps the evaluation order of received_power.
    """

    @pytest.mark.parametrize("order", [1.0, 7.5])
    @pytest.mark.parametrize("azimuth", [225.0, 10.0])
    def test_columns_equal_scalar_results(self, order, azimuth):
        rng = random.Random(29)
        positions = tuple(
            Point3(rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0), 0.0) for _ in range(200)
        )
        base = default_config()
        led = replace(base.led, lambertian_order=order)
        config = replace(base, led=led, pd_positions=positions, azimuth=azimuth)
        result = run_position_sweep(config)
        pd = config.pd_template
        for i, position in enumerate(positions):
            slant, _, elevation = link_geometry(led.position, position)
            sample = received_power(led, pd, position)
            record = estimate_position(
                sample.received_power, led, pd, azimuth, actual=position
            )
            assert result.slant_distance[i] == slant
            assert result.received_power[i] == sample.received_power
            assert result.est_x[i] == record.estimated.x
            assert result.est_y[i] == record.estimated.y
            assert result.positioning_error[i] == record.positioning_error

            angle = 90.0 - elevation
            power = (
                led.transmit_power
                / slant**2
                * radiant_intensity(angle, order)
                * effective_area(angle, pd)
            )
            assert result.received_power[i] == power
            unhoisted = self._unhoisted_estimate(power, led, pd, azimuth, position)
            assert (result.est_x[i], result.est_y[i], result.positioning_error[i]) == unhoisted

    @staticmethod
    def _unhoisted_estimate(power, led, pd, azimuth, actual):
        m = led.lambertian_order
        vertical = led.position.z
        gain = concentrator_gain(0.0, pd.refractive_index, pd.fov)
        k = led.transmit_power * (m + 1.0) * pd.area * pd.filter_gain * gain / (2.0 * math.pi)
        distance = max((k * vertical ** (m + 1.0) / power) ** (1.0 / (m + 3.0)), vertical)
        elevation = math.degrees(math.asin(min(vertical / distance, 1.0)))
        d_hor = math.sqrt(max(distance**2 - vertical**2, 0.0))
        fused = offset_estimate(d_hor, elevation)
        estimated = anchor_estimate(fused, (led.position.x, led.position.y), azimuth)
        return estimated.x, estimated.y, euclidean_distance(actual, estimated)

    @pytest.mark.parametrize("order", [1.0, 7.5])
    def test_power_sweep_equals_received_power(self, order):
        rng = random.Random(31)
        positions = tuple(
            Point3(rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0), 0.0) for _ in range(50)
        )
        base = default_config()
        config = replace(
            base, led=replace(base.led, lambertian_order=order), pd_positions=positions
        )
        rows = run_power_distance_sweep(config)
        assert len(rows) == len(positions) * len(config.transmit_powers)
        for transmit in config.transmit_powers:
            led = replace(config.led, transmit_power=transmit)
            samples = [
                received_power(led, config.pd_template, position)
                for position in positions
            ]
            expected = {s.slant_distance: s.received_power for s in samples}
            assert {row[1]: row[2] for row in rows if row[0] == transmit} == expected

    def test_power_outside_the_fov_names_the_position(self):
        config = default_config()
        narrow = replace(config, pd_template=replace(config.pd_template, fov=30.0))
        with pytest.raises(NonPositivePower, match="^position 6:"):
            run_position_sweep(narrow)


class TestPowerDistanceSweep:
    def test_family_layout(self):
        rows = run_power_distance_sweep(default_config())
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
        rows = run_power_distance_sweep(default_config())
        for start, transmit in zip(range(0, 40, 10), (8.0, 10.0, 12.0, 15.0)):
            assert _close(rows[start][1], 3.0)
            assert _close(rows[start][2], CENTER_POWER_BY_TRANSMIT[transmit])
        fifteen = rows[30:]
        for row, expected in zip(fifteen, DIAGONAL_POWERS):
            assert _close(row[2], expected)

    def test_families_scale_linearly(self):
        rows = run_power_distance_sweep(default_config())
        eight = [row[2] for row in rows[:10]]
        fifteen = [row[2] for row in rows[30:]]
        for p8, p15 in zip(eight, fifteen):
            assert _close(p15 / p8, 15.0 / 8.0)


class TestAngleSweep:
    def test_family_layout(self):
        rows = run_angle_sweep(default_config())
        assert len(rows) == 200
        elevations = sorted({row[0] for row in rows})
        assert elevations == [60.0, 70.0, 80.0, 90.0]
        for elevation in elevations:
            family = [row for row in rows if row[0] == elevation]
            assert len(family) == 50
            assert _close(family[0][1], 3.0)
            assert _close(family[-1][1], 4.561775969948546)

    def test_reference_values(self):
        rows = run_angle_sweep(default_config())
        for elevation in (60.0, 70.0, 80.0, 90.0):
            family = [row for row in rows if row[0] == elevation]
            assert _close(family[0][2], CENTER_POWER_BY_ELEVATION[elevation])
            assert _close(family[-1][2], CORNER_POWER_BY_ELEVATION[elevation])

    def test_inverse_square_within_family(self):
        rows = run_angle_sweep(default_config())
        family = [row for row in rows if row[0] == 90.0]
        d0, p0 = family[0][1], family[0][2]
        for _, d, p in family[1:]:
            assert _close(p0 / p, (d / d0) ** 2, 1e-9)

    def test_respects_distance_range_and_samples(self):
        config = replace(
            default_config(),
            distance_range=(2.0, 4.0),
            distance_samples=5,
            sweep_elevations=(90.0,),
        )
        rows = run_angle_sweep(config)
        assert [row[1] for row in rows] == [2.0, 2.5, 3.0, 3.5, 4.0]

    def test_rejects_out_of_range_elevation(self):
        with pytest.raises(ValidationError):
            replace(default_config(), sweep_elevations=(0.0,))


class TestReplicationReport:
    def test_all_checks_match_expectations(self):
        report = replication_report()
        assert report.dataset_version == REFERENCE_DATASET_VERSION
        names = [check.name for check in report.checks]
        assert names == list(EXPECTED_VERDICTS)
        for check in report.checks:
            assert check.verdict == EXPECTED_VERDICTS[check.name], check.name
            assert check.expected == check.verdict, check.name
            assert not check.regressed, check.name
        assert report.regressions == ()
        assert report.ok

    def test_reversed_positions_fail_the_trend_checks(self):
        # The sweep walks from the corner to the center, so the geometry and
        # error-trend checks fail: the count check reports its violations
        # without a difference, and the spread is no longer a trend.
        config = default_config()
        report = replication_report(replace(config, pd_positions=config.pd_positions[::-1]))
        reproduced, trend, failed = (
            Verdict.REPRODUCED, Verdict.TREND_ONLY, Verdict.NOT_REPRODUCIBLE
        )
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
        assert {check.name: check.verdict for check in report.checks} == verdicts
        by_name = {check.name: check for check in report.checks}
        monotonic = by_name["pipeline_error_monotonic"]
        assert (monotonic.reference, monotonic.computed) == (0.0, 9.0)
        assert monotonic.difference is None
        spread = by_name["pipeline_error_spread"]
        assert _close(spread.computed, 1.0121085356718664)
        assert _close(spread.difference, 0.9337085356718664)
        assert [check.name for check in report.regressions] == [
            "center_slant_distance",
            "corner_slant_distance",
            "center_elevation_angle",
            "pipeline_error_monotonic",
            "pipeline_error_spread",
        ]
        assert not report.ok

    def test_quantified_gaps(self):
        report = replication_report()
        by_name = {check.name: check for check in report.checks}
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
        report = replication_report()
        assert len(report.assumptions) >= 3
        assert all(isinstance(a, str) and a for a in report.assumptions)

    def test_reference_column_is_self_consistent(self):
        assert len(REFERENCE_ERRORS) == 10
        assert _close(sum(REFERENCE_ERRORS) / 10.0, 0.04207)
