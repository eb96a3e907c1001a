"""The default scenario's reference values, each written once.

The scenario is a 5 x 5 x 3 m room, a 15 W first-order LED (60-degree
half-power angle) centred on its ceiling, and a 2.25 mm^2 detector with unity
filter gain, n = 1.5 and a 90-degree FOV, walked along the half-diagonal from
the floor's centre to (0.07, 0.07). Each double was derived independently of
vlcpos in 50-digit arithmetic and rounded to nearest; the tests hold the
package to them. Standard library only: nothing here imports vlcpos.
"""

import math

# The walk: x = y at each of its ten floor points, in m.
DIAGONAL_XY = (2.50, 2.23, 1.96, 1.69, 1.42, 1.15, 0.88, 0.61, 0.34, 0.07)
# The slant distance from the LED to each point, in m.
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
# The power the detector reads at each point, in W.
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
# The pipeline's positioning error at each point, in m.
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
CENTER_POWER = DIAGONAL_POWERS[0]
# Position 5's estimated x (= y), in m.
POSITION5_ESTIMATE = 1.7737782028390627

# The power 3 m under the LED by transmit power (W), and at the centre's and
# the corner's slant distance by the elevation of the link (degrees), with
# the incidence fixed at the emission angle.
CENTER_POWER_BY_TRANSMIT = {
    8.0: 1.432394487827058e-06,
    10.0: 1.7904931097838226e-06,
    12.0: 2.148591731740587e-06,
    15.0: 2.685739664675734e-06,
}
CENTER_POWER_BY_ELEVATION = {
    60.0: 2.0143047485068003e-06,
    70.0: 2.3715678052324037e-06,
    80.0: 2.6047547044617702e-06,
    90.0: 2.685739664675734e-06,
}
CORNER_POWER_BY_ELEVATION = {
    60.0: 8.71163717890667e-07,
    70.0: 1.0256758953517877e-06,
    80.0: 1.1265265567259624e-06,
    90.0: 1.1615516238542228e-06,
}

# The corner link, from the LED to (0.07, 0.07, 0): its horizontal distance
# (m), its angle above the floor and from the PD normal (degrees), and there
# the emitter's pattern (m+1)/2pi cos^m and the detector's A h g cos.
CORNER_HORIZONTAL = 3.436538956566621
CORNER_ELEVATION = 41.12002732390731
CORNER_NORMAL = 48.87997267609269
CORNER_INTENSITY = 0.2093328705403617
CORNER_EFFECTIVE_AREA = 3.329295454237597e-06

# The Lambertian order -ln 2 / ln cos(angle) by half-power angle (degrees).
ORDER_BY_HALF_ANGLE = {
    30.0: 4.818841679306418,
    45.0: 2.0,
    60.0: 1.0,
    70.0: 0.6460587703487338,
}

# The reading 3.5 m from the LED, 3 m below it, in W.
POWER_AT_3_5_M = 1.4496953791835698e-06

# The means of the published error column: all ten rows and the first eight.
PUBLISHED_COLUMN_MEAN = 0.04207
PUBLISHED_FIRST_EIGHT_MEAN = 0.032925


def close(a, b, tol=1e-12):
    """a within tol of b, relative; an exact 0 meets only a value below 1e-300."""
    return math.isclose(a, b, rel_tol=tol, abs_tol=1e-300)
