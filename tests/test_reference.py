"""Every value of reference.py, read off the package: one table, one node per case.

A case is (what the package gives for the default config, the value it must
equal, a relative tolerance). A tolerance of None asks for ==; otherwise the
two are numbers or sequences of numbers, compared element by element with
reference.close. An expected value that depends on what the package computed
is a function of the config too.
"""

import math
import random

import pytest

from vlcpos import (
    ChannelSample,
    LedSpec,
    Point3,
    concentrator_gain,
    default_config,
    estimate_lines,
    estimate_position,
    invert_power_to_distance,
    lambertian_order,
    link_geometry,
    power_columns,
    received_power,
    received_power_at,
    replication_report,
    run_angle_sweep,
    run_position_sweep,
    run_power_distance_sweep,
)
from vlcpos.scenario import ASSUMPTIONS, REFERENCE_ERRORS, REFERENCE_MEAN_ERROR

import reference as ref
from csa_oracle import csa_angles, offset_estimate
from figure_rows import rows_of


def _cos(angle):
    return math.cos(math.radians(angle))


def _sample(c, xy, led=None, **pd):
    """received_power at the floor point (xy, xy), the PD's fields replaced."""
    return received_power(led or c.led, c.pd_template._replace(**pd), Point3(xy, xy, 0.0))


def _at(c, distance, angle, **pd):
    return received_power_at(c.led, c.pd_template._replace(**pd), distance, angle)


def _gain(c, angle, **pd):
    return concentrator_gain(_cos(angle), c.pd_template._replace(**pd))


def _intensity(c, angle, m):
    """(m+1)/2pi cos^m(angle) at 1 m from a 1 W LED, seen by a PD with A h g = 1."""
    led = c.led._replace(transmit_power=1.0, lambertian_order=m)
    pd = c.pd_template._replace(area=1.0, refractive_index=1.0)
    return received_power_at(led, pd, 1.0, angle) / _cos(angle)


def _effective_area(c, angle):
    """A h g(angle) cos(angle) at 1 m from a 1 W first-order LED (pattern cos / pi)."""
    led = c.led._replace(transmit_power=1.0, lambertian_order=1.0)
    return received_power_at(led, c.pd_template, 1.0, angle) / (_cos(angle) / math.pi)


def _corner(c):
    """The corner link's slant, horizontal distance, elevation and angle from the normal."""
    slant, cosine = link_geometry(c.led.position, Point3(0.07, 0.07, 0.0))
    elevation = math.degrees(math.asin(cosine))
    return [slant, slant * math.sqrt(1.0 - cosine * cosine), elevation, 90.0 - elevation]


def _grazing_closed_form():
    """K c^2 / d^2 at position 2 under an LED 1e-100 m above the floor."""
    d = math.hypot(0.27, 0.27, 1e-100)
    return 15.0 * 2.0 * 2.25e-6 * 1.0 * 2.25 / (2.0 * math.pi) * (1e-100 / d) ** 2 / d**2


def _room_powers(c):
    """The powers at 100 seeded floor points that are not in (0, the centre's]."""
    rng = random.Random(41)
    points = [Point3(rng.uniform(0, 5), rng.uniform(0, 5), 0.0) for _ in range(100)]
    powers = [received_power(c.led, c.pd_template, point).received_power for point in points]
    return [p for p in powers if not 0.0 < p <= ref.CENTER_POWER * (1.0 + 1e-12)]


def _rows(c, *columns):
    """The position sweep's columns, one after another."""
    rows = run_position_sweep(c)
    return [row[column] for column in columns for row in rows]


def _families(figure):
    """A figure's families as label -> (distances, powers)."""
    return {label: (list(d), list(p)) for label, d, p in figure.families()}


def _power_layout(c):
    """The power sweep's labels, then per family whether its distances rise and
    its powers fall."""
    figure = run_power_distance_sweep(c)
    return [row[0] for row in rows_of(figure)] + [
        (d == sorted(d), all(a > b for a, b in zip(p, p[1:])))
        for d, p in _families(figure).values()]


def _replicated(c, names, field="computed"):
    checks = {check.name: check for check in replication_report(c)}
    return [getattr(checks[name], field) for name in names]


def _estimate(c, power, azimuth=225.0, **kwargs):
    return estimate_position(power, c.led, c.pd_template, azimuth, **kwargs)


def _angles(record):
    """The complementary and supplementary angles estimate_lines prints."""
    lines = dict(line.split(" = ") for line in estimate_lines(record, clipped=False))
    return lines["complementary"], lines["supplementary"]


def _reading_at(c, d_hor, elevation):
    """The estimate from the floor origin of an LED d_hor away at the elevation."""
    led = c.led._replace(position=Point3(d_hor, 0.0, d_hor * math.tan(math.radians(elevation))))
    power = received_power(led, c.pd_template, Point3(0.0, 0.0, 0.0)).received_power
    return estimate_position(power, led, c.pd_template, 225.0)


def _in_range(c):
    """Per reading: the printed complementary angle in [0, 90], the supplementary
    in [90, 180], and the fused offset >= 0."""
    records = [_estimate(c, power) for power in READINGS]
    return [(0.0 <= float(a) <= 90.0, 90.0 <= float(b) <= 180.0, r.fused >= 0.0)
            for r, (a, b) in zip(records, map(_angles, records))]


def _under_the_emitter(c):
    record = _estimate(c, _sample(c, 2.5).received_power, actual=Point3(2.5, 2.5, 0.0))
    return record.fused, record.estimated, record.positioning_error


def _anchored(c):
    """The estimates at 225 and 45 degrees of the 3.5 m reading, and what the
    fused offset along each azimuth from (2.5, 2.5) gives."""
    toward, away = (_estimate(c, ref.POWER_AT_3_5_M, a) for a in (225.0, 45.0))
    return [toward.estimated.x, toward.estimated.y, away.estimated.x], [
        2.5 + toward.fused * _cos(225.0), toward.estimated.x, 2.5 + toward.fused * _cos(45.0)]


def _at_10_degrees(c):
    """The 3.5 m reading's estimate at azimuth 10, and the fused offset along it."""
    record = _estimate(c, ref.POWER_AT_3_5_M, 10.0)
    f = record.fused
    return (type(record.estimated), record.estimated), (
        Point3, (2.5 + f * _cos(10.0), 2.5 + f * math.sin(math.radians(10.0)), 0.0))


# Readings from a hair above the on-axis maximum down to the smallest subnormal.
READINGS = (ref.CENTER_POWER * (1.0 + 1e-12), ref.CENTER_POWER, ref.POWER_AT_3_5_M, 1e-8,
            1e-100, 5e-324)
WALK = (8.0, 10.0, 12.0, 15.0)
ELEVATIONS = list(ref.CENTER_POWER_BY_ELEVATION)

CASES = {
    # The Lambertian order and the emitter's pattern.
    "lambertian-orders": (lambda c: [lambertian_order(a) for a in ref.ORDER_BY_HALF_ANGLE],
                          list(ref.ORDER_BY_HALF_ANGLE.values()), 1e-12),
    "lambertian-order-54.08": (lambda c: lambertian_order(54.08), 1.299687764887075, 1e-12),
    "default-led-order": (lambda c: c.led.lambertian_order, 1.0, 1e-12),
    "half-power-at-the-half-power-angle": (
        lambda c: [_cos(a) ** lambertian_order(a) for a in (15.0, 30.0, 45.0, 60.0, 70.0, 80.0)],
        [0.5] * 6, 1e-9),
    # Finite at the angle's bound; an override is kept.
    "led-order": (lambda c: (_cos(6.0371e-07) < 1.0, math.isfinite(lambertian_order(6.0371e-07)),
                             LedSpec(*c.led[:3], 1.3).lambertian_order), (True, True, 1.3), None),
    "emitter-pattern": (lambda c: [_intensity(c, a, m) for a, m in (
        (0.0, 1.0), (60.0, 1.0), (45.0, 3.0), (ref.CORNER_NORMAL, 1.0))],
        [1.0 / math.pi, 0.15915494309189535, 0.22507907903927651, ref.CORNER_INTENSITY], 1e-12),
    # cos(radians(90)) is ~6e-17, so the pattern at grazing is a residue, not 0.
    "emitter-pattern-at-grazing": (lambda c: [0.0 <= _intensity(c, 90.0, m) < 1e-15
                                              for m in (1.0, 3.0)], [True, True], None),
    # The detector: its gain n^2 / sin^2(fov) inside the closed FOV, with
    # cos(90 deg) taken as exactly 0, and its effective area.
    "gain-in-a-90-degree-fov": (lambda c: [concentrator_gain(x, c.pd_template) for x in (
        1.0, _cos(89.9), 1e-100, 0.0, -1e-100)] + [_gain(c, 60.5, fov=60.0)],
        [2.25, 2.25, 2.25, 2.25, 0.0, 0.0], None),
    "gain-in-a-60-degree-fov": (lambda c: _gain(c, 30.0, fov=60.0), 3.0, 1e-12),
    "effective-area": (lambda c: [_effective_area(c, a) for a in (0.0, ref.CORNER_NORMAL, 30.0)],
                       [2.25e-6 * 1.0 * 2.25, ref.CORNER_EFFECTIVE_AREA, 4.384253606658721e-06],
                       1e-12),
    # received_power on the walk, at its ends and past the FOV; link_geometry at the ends.
    "center-link": (lambda c: (type(_sample(c, 2.5)), _sample(c, 2.5)[:2], link_geometry(
        c.led.position, Point3(2.5, 2.5, 0.0))), (ChannelSample, (3.0, 2.25), (3.0, 1.0)), None),
    "center-link-power": (lambda c: [_sample(c, 2.5).received_power] * 2,
                          [ref.CENTER_POWER, 15.0 / 9.0 / math.pi * 2.25e-6 * 2.25], 1e-12),
    "corner-link-power": (lambda c: [_sample(c, 0.07).received_power] * 2, [
        ref.DIAGONAL_POWERS[-1], 15.0 / ref.DIAGONAL_SLANTS[-1] ** 2 * ref.CORNER_INTENSITY
        * ref.CORNER_EFFECTIVE_AREA], 1e-12),
    "corner-link-geometry": (_corner, [ref.DIAGONAL_SLANTS[-1], ref.CORNER_HORIZONTAL,
                                       ref.CORNER_ELEVATION, ref.CORNER_NORMAL], 1e-12),
    "corner-link-cosine": (lambda c: link_geometry(c.led.position, Point3(0.07, 0.07, 0.0))[1],
                           lambda c: 3.0 / _corner(c)[0], None),
    "walk-powers": (lambda c: [_sample(c, xy).received_power for xy in ref.DIAGONAL_XY],
                    ref.DIAGONAL_POWERS, 1e-12),
    "walk-gains": (lambda c: {_sample(c, xy).concentrator_gain for xy in ref.DIAGONAL_XY},
                   {2.25}, None),
    # Past the FOV (the corner is 48.88 degrees off the normal) the gain is 0,
    # which marks a FOV cut, not a power that underflowed.
    "beyond-the-fov": (lambda c: [*_sample(c, 0.07, fov=45.0)[1:], _at(c, 3.0, 50.0, fov=45.0),
                                  _at(c, 3.0, 75.0, fov=60.0), _at(c, 3.0, 91.0)], [0.0] * 5,
                       None),
    "power-linear-in-transmit-power": (lambda c: _sample(c, 2.5).received_power / _sample(
        c, 2.5, c.led._replace(transmit_power=8.0)).received_power, 15.0 / 8.0, 1e-12),
    "powers-in-the-room": (_room_powers, [], None),
    "grazing-link": (lambda c: _sample(c, 2.23, c.led._replace(
        position=Point3(2.5, 2.5, 1e-100))).received_power, _grazing_closed_form(), 1e-12),
    # received_power_at: inverse square, and the elevation family at 3 m.
    "power-at-inverse-square": (lambda c: _at(c, 2.0, 30.0) / _at(c, 4.0, 30.0), 4.0, 1e-12),
    "power-at-by-elevation": (lambda c: [_at(c, 3.0, 90.0 - e) for e in ELEVATIONS],
                              list(ref.CENTER_POWER_BY_ELEVATION.values()), 1e-12),
    # The smallest config distance, about 1.49e-154, squares to a normal double.
    "smallest-distance-finite": (lambda c: power_columns(
        c.led, c.pd_template, (1.4916681462400413e-154,), (1.0,))[0] < math.inf, True, None),
    # The default config: its records, its axes and its walk.
    "default-config": (lambda c: (c.room, c.led[:3], c.pd_template, c.transmit_powers,
                                  c.sweep_elevations, c.azimuth, c.distance_samples,
                                  c.distance_range, c.pd_positions[0], c.pd_positions[-1]),
                       ((5.0, 5.0, 3.0), ((2.5, 2.5, 3.0), 15.0, 60.0), (2.25e-6, 90.0, 1.0, 1.5),
                        WALK, tuple(ELEVATIONS), 225.0, 50, None, (2.5, 2.5, 0.0),
                        (0.07, 0.07, 0.0)), None),
    "walk-points": (lambda c: [v for point in c.pd_positions for v in point],
                    [v for xy in ref.DIAGONAL_XY for v in (xy, xy, 0.0)], 1e-12),
    "walk-steps": (lambda c: [a[i] - b[i] for a, b in zip(c.pd_positions, c.pd_positions[1:])
                              for i in (0, 1)], [0.27] * 18, 1e-12),
    # The position sweep's rows: the walk's slants, powers and errors, the
    # estimates on the diagonal.
    "position-sweep-points": (lambda c: [row[:3] for row in run_position_sweep(c)],
                              lambda c: [(i, p.x, p.y) for i, p in enumerate(c.pd_positions, 1)],
                              None),
    "position-sweep-rows": (lambda c: _rows(c, 5, 6, 7), ref.DIAGONAL_SLANTS
                            + ref.DIAGONAL_POWERS + ref.PIPELINE_ERRORS, 1e-12),
    "position-sweep-estimates-on-the-diagonal": (lambda c: [
        abs(x - y) < 1e-12 for x, y in zip(_rows(c, 3), _rows(c, 4))], [True] * 10, None),
    # The power sweep: one walk per transmit power, in order.
    "power-sweep-layout": (_power_layout, [p for p in WALK for _ in range(10)]
                           + [(True, True)] * 4, None),
    "power-sweep-first-rows": (lambda c: [v for d, p in _families(
        run_power_distance_sweep(c)).values() for v in (d[0], p[0])],
        [v for p in WALK for v in (3.0, ref.CENTER_POWER_BY_TRANSMIT[p])], 1e-12),
    "power-sweep-15-w-walk": (lambda c: _families(run_power_distance_sweep(c))[15.0][1],
                              ref.DIAGONAL_POWERS, 1e-12),
    "power-sweep-linear-in-power": (lambda c: (lambda f: [a / b for a, b in zip(
        f[15.0][1], f[8.0][1])])(_families(run_power_distance_sweep(c))), [15.0 / 8.0] * 10,
        1e-12),
    # The angle sweep: 50 distances from the centre's slant to the corner's.
    "angle-sweep-layout": (lambda c: [v for label, (d, _) in _families(run_angle_sweep(c)).items()
                                      for v in (label, len(d), d[0], d[-1])],
                           [v for e in ELEVATIONS for v in (e, 50, 3.0, ref.DIAGONAL_SLANTS[-1])],
                           1e-12),
    "angle-sweep-end-powers": (lambda c: [v for _, p in _families(run_angle_sweep(c)).values()
                                          for v in (p[0], p[-1])],
                               [v for e in ELEVATIONS for v in (ref.CENTER_POWER_BY_ELEVATION[e],
                                                                ref.CORNER_POWER_BY_ELEVATION[e])],
                               1e-12),
    "angle-sweep-inverse-square": (lambda c: (lambda d, p: [
        p[0] / q / (e / d[0]) ** 2 for e, q in zip(d[1:], p[1:])])(
        *_families(run_angle_sweep(c))[90.0]), [1.0] * 49, 1e-9),
    "angle-sweep-range-and-samples": (lambda c: [row[1] for row in rows_of(run_angle_sweep(
        c._replace(distance_range=(2.0, 4.0), distance_samples=5, sweep_elevations=(90.0,))))],
        [2.0, 2.5, 3.0, 3.5, 4.0], None),
    # The replication report's computed values, and its published references.
    "replication-computed": (lambda c: _replicated(c, (
        "published_absolute_power", "reference_mean_error", "first_eight_mean_error",
        "published_estimated_coordinates")), [ref.CENTER_POWER, ref.PUBLISHED_COLUMN_MEAN,
                                              ref.PUBLISHED_FIRST_EIGHT_MEAN, 2.4244304208947547],
        1e-12),
    "published-column": (lambda c: [len(REFERENCE_ERRORS), sum(REFERENCE_ERRORS) / 10.0],
                         [10, ref.PUBLISHED_COLUMN_MEAN], 1e-12),
    "replication-references": (lambda c: (_replicated(c, (
        "published_absolute_power", "reference_mean_error", "published_estimated_coordinates"),
        "reference"), len(ASSUMPTIONS) >= 3, all(isinstance(a, str) and a for a in ASSUMPTIONS)),
        ([4.5, REFERENCE_MEAN_ERROR, 2.4864], True, True), None),
    # The inversion, its clamp to V (a hair above the on-axis maximum is
    # rounding noise, not an error), and the pipeline through position 5.
    "inverted-3.5-m": (lambda c: [
        invert_power_to_distance(ref.POWER_AT_3_5_M, c.led, c.pd_template, 3.0),
        _estimate(c, ref.POWER_AT_3_5_M).inverted_distance], [3.5] * 2, 1e-9),
    "inverted-at-the-on-axis-maximum": (lambda c: [invert_power_to_distance(
        p, c.led, c.pd_template, 3.0) for p in READINGS[:2]] + [_estimate(c, READINGS[0]).cosine],
        [3.0, 3.0, 1.0], None),
    "position-5-pipeline": (lambda c: (lambda r: [r.inverted_distance, r.estimated.x,
                                                  r.positioning_error])(
        _estimate(c, ref.DIAGONAL_POWERS[4], actual=Point3(1.42, 1.42, 0.0))),
        [ref.DIAGONAL_SLANTS[4], ref.POSITION5_ESTIMATE, ref.PIPELINE_ERRORS[4]], 1e-9),
    "position-5-on-the-floor-diagonal": (lambda c: (lambda p: (abs(p.x - p.y) < 1e-12, p.z))(
        _estimate(c, ref.DIAGONAL_POWERS[4]).estimated), (True, 0.0), None),
    # The CSA angles, the fused offset and its anchoring.
    "csa-under-the-emitter": (lambda c: (csa_angles(90.0), _angles(
        _estimate(c, _sample(c, 2.5).received_power))), ((0.0, 180.0), ("0", "180")), None),
    "csa-at-41.123": (lambda c: [*csa_angles(41.123), *map(float, _angles(
        _reading_at(c, 3.4365, 41.123)))], [48.877, 131.123] * 2, 5e-15),
    # The estimator cannot leave the oracle's range: V/d lies in (0, 1], and
    # d_hor is a square root.
    "csa-in-range": (_in_range, [(True, True, True)] * 6, None),
    "fused-offset-at-41.123": (lambda c: [offset_estimate(3.4365, 41.123),
                                          _reading_at(c, 3.4365, 41.123).fused],
                               [2.4244114653242295] * 2, 1e-12),
    "estimate-under-the-emitter": (_under_the_emitter, (0.0, (2.5, 2.5, 0.0), 0.0), None),
    "anchor": (lambda c: _anchored(c)[0], lambda c: _anchored(c)[1], 1e-12),
    "estimate-at-10-degrees": (lambda c: _at_10_degrees(c)[0], lambda c: _at_10_degrees(c)[1],
                               None),
}


@pytest.mark.parametrize("case", CASES)
def test_reference_value(case):
    compute, expected, tol = CASES[case]
    config = default_config()
    got = compute(config)
    if callable(expected):
        expected = expected(config)
    if tol is None:
        assert got == expected
    else:
        got, expected = ([v] if isinstance(v, (int, float)) else list(v) for v in (got, expected))
        assert len(got) == len(expected)
        assert all(ref.close(g, e, tol) for g, e in zip(got, expected)), (got, expected)
