"""Lambertian line-of-sight optical channel.

Received power for a downward-facing LED and an upward-facing PD:

  P_received = P_trans * (m+1) * A / (2*pi*d^2) * cos^m(phi) * h * g(theta) * cos(theta)

with irradiance angle phi at the LED, incidence angle theta from the PD
normal, optical filter gain h, and concentrator gain g = n^2 / sin^2(FOV)
inside the field of view (0 beyond it). For the coplanar ceiling/floor
geometry here the LED normal points down and the PD normal up, so both
cosines equal the link cosine c = V/d, and P = K c^(m+1) / d^2 with
K = P_trans*(m+1)*A*h*g/(2*pi), the constant the estimator's inversion shares.
A link is inside the FOV iff c >= cos(FOV). concentrator_gain(c, pd) decides
that for one link, and received_power takes its decision from the gain;
power_columns decides it once per column of one cosine, else once per row,
with cos(FOV) computed once per call. received_power_at is a one-row view of
power_columns.
LedSpec's angle rule, [6.0371e-07, 90) degrees, keeps the order formula finite.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Sequence

from .errors import DomainError
from .geometry import _POSITIVE, Point3, _check, _record, _Rule, link_geometry

__all__ = [
    "LedSpec",
    "PdSpec",
    "ChannelSample",
    "lambertian_order",
    "concentrator_gain",
    "power_columns",
    "received_power",
    "received_power_at",
]


def lambertian_order(half_power_angle: float) -> float:
    """Lambertian order m = -ln(2) / ln(cos(half_power_angle)).

    Strictly decreasing in the angle; m = 1 at 60 degrees. Finite over the
    angle rule: below about 6.03709e-07 degrees the cosine rounds to 1.

    Raises:
        DomainError: when the angle is outside [6.0371e-07, 90) degrees.
    """

    return _order(_check(half_power_angle, LedSpec._rules["half_power_angle"], "half_power_angle"))


def _order(angle: float) -> float:
    """lambertian_order of an angle that keeps LedSpec's rule, unchecked."""
    return -math.log(2.0) / math.log(math.cos(math.radians(angle)))


def _fov_cosine(fov: float) -> float:
    """cos(fov), exactly 0.0 at 90 degrees: cos(radians(90)) = 6.1e-17 would cut
    every grazing link."""
    return 0.0 if fov == 90.0 else math.cos(math.radians(fov))


def concentrator_gain(c: float, pd: PdSpec) -> float:
    """The PD's optical concentrator gain n^2 / sin^2(fov) for a link of cosine
    c inside its FOV (c >= cos(fov)), else 0. PdSpec's rules bound n and the
    FOV and keep the gain finite.

    Raises:
        DomainError: when c is above 1 or NaN.
    """

    if not c <= 1.0:
        raise DomainError(f"link cosine must be <= 1, got {c}")
    # On axis (c = 1, where K takes the gain) every FOV sees the LED.
    if c < 1.0 and c < _fov_cosine(pd.fov):
        return 0.0
    return pd.refractive_index * pd.refractive_index / math.sin(math.radians(pd.fov)) ** 2


class LedSpec(_record("_Led", "position transmit_power half_power_angle lambertian_order",
                      position=_Rule(shape="point"), transmit_power=_POSITIVE,
                      half_power_angle=_Rule(6.0371e-07, 90.0, "[)"), lambertian_order=_POSITIVE)):
    """Transmitter: position, optical power, half-power angle, Lambertian order.

    lambertian_order None derives the order from the half-power-angle formula;
    passing an explicit value overrides it (some published configurations pair
    an order with an inconsistent half-power angle, and the override reproduces
    them). _replace(lambertian_order=None) derives the order again.
    """

    __slots__ = ()

    def __new__(cls, position: Point3, transmit_power: float, half_power_angle: float,
                lambertian_order: float | None = None) -> LedSpec:
        led = super().__new__(cls, position, transmit_power, half_power_angle,
                              1.0 if lambertian_order is None else lambertian_order)
        return led if lambertian_order is not None else tuple.__new__(
            cls, (*led[:3], _order(led.half_power_angle)))  # the angle the rule has checked


class PdSpec(_record("_Pd", "area fov filter_gain refractive_index", area=_POSITIVE,
                     fov=_Rule(0.0, 90.0, "(]"), filter_gain=_POSITIVE,
                     refractive_index=_Rule(1.0, ends="[)"))):
    """Receiver: area, field of view, filter gain, refractive index; placed per call."""

    __slots__ = ()

    def __new__(
        cls, area: float, fov: float, filter_gain: float, refractive_index: float
    ) -> PdSpec:
        pd = super().__new__(cls, area, fov, filter_gain, refractive_index)
        # n^2 / sin^2(fov) overflows for a fov below about 1e-152 degrees.
        sin_squared, n = math.sin(math.radians(fov)) ** 2, pd.refractive_index
        if not (sin_squared > 0.0 and math.isfinite(n * n / sin_squared)):
            raise DomainError(
                f"pd.fov {fov} with pd.refractive_index {n} gives an infinite concentrator gain"
            )
        return pd


_TINY = sys.float_info.min  # the smallest normal double


def _gain_constant(led: LedSpec, pd: PdSpec) -> float:
    """K = P_t (m+1) A h g(0) / (2 pi), so that P = K c^(m+1) / d^2."""
    gain, m = concentrator_gain(1.0, pd), led.lambertian_order
    radiated = led.transmit_power * (m + 1.0)
    collected = radiated * pd.area
    filtered = collected * pd.filter_gain
    k = filtered * gain / math.tau
    # Each factor is in range; a partial product need not be, and one that left
    # the normal range lost bits (g(0) >= 1 cannot take filtered below it), so
    # K is then taken from the logarithms; else it keeps the product's bits.
    if not (radiated >= _TINY and collected >= _TINY and filtered >= _TINY and k < math.inf):
        factors = (led.transmit_power, m + 1.0, pd.area, pd.filter_gain, gain)
        try:
            k = math.exp(math.fsum(map(math.log, factors)) - math.log(math.tau))
        except OverflowError:  # K itself is past the float range
            k = math.inf
    if not 0.0 < k < math.inf:
        raise DomainError(f"K = P_t (m+1) A h g(0) / (2 pi) is {k} for P_t {led.transmit_power}"
                          f", m {m}, A {pd.area}, h {pd.filter_gain}, g(0) {gain}")
    return k


class ChannelSample(NamedTuple):
    """One channel evaluation: slant distance, concentrator gain at the link
    cosine, and received power."""

    slant_distance: float
    concentrator_gain: float
    received_power: float


def power_columns(
    led: LedSpec,
    pd: PdSpec,
    distances: Sequence[float],
    cosines: Sequence[float],
) -> list[float]:
    """Received power K c^(m+1) / d^2 for each row's distance d and link
    cosine c, 0 beyond the FOV (c < cos(fov)).

    One cosine serves as both the irradiance and the incidence factor. K and
    cos(fov) are computed once. A column of one cosine in (0, 1] (an angle-sweep
    family) is checked whole and takes K c^(m+1) once; any other column, or one
    that fails the checks, goes row by row, which names the first bad row. Both
    keep the bits of K * c**(m+1) / d**2, which evaluates left to right.

    Raises:
        DomainError: when K is 0 or infinite, a distance is not > 0 or its
            square underflows to 0, or a cosine is above 1 or NaN.
    """

    k, exponent, cos_fov = _gain_constant(led, pd), led.lambertian_order + 1.0, _fov_cosine(pd.fov)
    c = cosines[0] if cosines else 0.0
    # Equal cosines in (0, 1] share their bits. The smallest distance squaring to a
    # normal double covers every row, and the sum of positive distances is NaN only
    # when one of them is.
    if 0.0 < c <= 1.0 and cosines.count(c) == len(cosines) == len(distances):
        low, total = min(distances), sum(distances)
        if low > 0.0 and low**2 > 0.0 and total == total:
            kc = k * c**exponent if c >= cos_fov else 0.0
            return [kc / d**2 for d in distances]
    powers: list[float] = []
    try:  # free until it catches: only a positive distance's square underflows to 0
        for distance, c in zip(distances, cosines):
            if not distance > 0.0:
                raise DomainError(f"distance must be > 0, got {distance}")
            if not c <= 1.0:
                raise DomainError(f"link cosine must be <= 1, got {c}")
            powers.append(k * c**exponent / distance**2 if c >= cos_fov else 0.0)
    except ZeroDivisionError:
        raise DomainError(f"distance {distance} squares to 0") from None
    return powers


def received_power_at(led: LedSpec, pd: PdSpec, distance: float, angle: float) -> float:
    """Received power at a distance and a from-normal link angle in degrees,
    given explicitly: a one-row view of power_columns at cos(angle). A
    negative, infinite or NaN angle raises DomainError."""

    if not 0.0 <= angle < math.inf:
        bound = "finite" if angle == math.inf else ">= 0 degrees"
        raise DomainError(f"link angle must be {bound}, got {angle}")
    return power_columns(led, pd, (distance,), (math.cos(math.radians(angle)),))[0]


def received_power(led: LedSpec, pd: PdSpec, position: Point3) -> ChannelSample:
    """Evaluate the channel for the LED and the detector placed at position.

    power_columns' row for link_geometry's slant and link cosine V/d. The
    sample's concentrator_gain is the gain at that cosine, 0 exactly when the
    PD sees the LED from beyond its FOV; it tells such a FOV cut apart from a
    power that underflowed to 0.

    Raises:
        LedNotAbovePd: when the LED is not strictly above the PD plane.
        DomainError: when their heights lie further apart than the float
            range, or K is 0 or infinite.
    """

    slant, c = link_geometry(led.position, position)
    k = _gain_constant(led, pd)
    gain = concentrator_gain(c, pd)
    power = k * c ** (led.lambertian_order + 1.0) / slant**2 if gain else 0.0
    return tuple.__new__(ChannelSample, (slant, gain, power))
