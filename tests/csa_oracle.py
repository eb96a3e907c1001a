"""The paper's literal CSA construction, kept as a reference implementation.

vlcpos.estimate_position fuses from the link cosine V/d and d_hor/d and takes
no angle. This module writes the same step as the paper states it: the
complementary and supplementary angles of the elevation theta in degrees,
then cos(90 - theta) and sin(90 + theta) in radians, and the mean of the two
projections of the horizontal distance. The tests hold the estimator to it,
beside the closed form and the scipy root-finder.
"""

import math

from vlcpos import DomainError


def csa_angles(incidence_elevation):
    """Complementary (90 - theta) and supplementary (90 + theta) angles.

    Raises:
        DomainError: when the elevation is outside [0, 90] degrees.
    """

    if not 0.0 <= incidence_elevation <= 90.0:
        raise DomainError(
            f"incidence must lie in [0, 90] degrees, got {incidence_elevation}"
        )
    return 90.0 - incidence_elevation, 90.0 + incidence_elevation


def offset_estimate(d_hor, incidence_elevation):
    """Project the horizontal distance through both CSA angles and fuse the results.

    The complementary projection goes through cos(90 - theta), the
    supplementary one through sin(90 + theta), so the fused mean equals
    d_hor * (sin(theta) + cos(theta)) / 2.

    Raises:
        DomainError: when d_hor < 0 or the elevation is outside [0, 90] degrees.
    """

    if d_hor < 0.0:
        raise DomainError(f"horizontal distance must be >= 0, got {d_hor}")
    complementary, supplementary = map(math.radians, csa_angles(incidence_elevation))
    return d_hor * (math.cos(complementary) + math.sin(supplementary)) / 2.0
