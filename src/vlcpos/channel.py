"""Lambertian line-of-sight optical channel.

Received power for a downward-facing LED and an upward-facing PD:

  P_received = P_trans * (m+1) * A / (2*pi*d^2) * cos^m(phi) * h * g(theta) * cos(theta)

with irradiance angle phi at the LED, incidence angle theta from the PD
normal, optical filter gain h, and concentrator gain g = n^2 / sin^2(FOV)
inside the field of view (0 beyond it). For the coplanar ceiling/floor
geometry here the LED normal points down and the PD normal up, so both
cosines equal the link cosine c = V/d, and P = K c^(m+1) / d^2 with
K = P_trans*(m+1)*A*h*g/(2*pi), the constant the estimator's inversion shares.
A link is inside the FOV iff c >= cos(FOV). concentrator_gain decides that
for one link, and received_power takes its decision from the gain;
power_columns decides it once per run of one cosine object, with cos(FOV)
computed once per call. received_power_at is a one-row view of power_columns.
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

    Strictly decreasing in the angle; m = 1 at 60 degrees.

    Raises:
        DomainError: when the angle is outside (0, 90) degrees.
    """

    return _order(_check(half_power_angle, LedSpec._rules["half_power_angle"], "half_power_angle"))


def _order(angle: float) -> float:
    """lambertian_order of an angle that keeps LedSpec's rule, unchecked."""
    log_cos = math.log(math.cos(math.radians(angle)))
    if log_cos == 0.0:  # cos rounds to 1 below about 6e-7 degrees
        raise DomainError(f"half-power angle {angle} gives an infinite order")
    return -math.log(2.0) / log_cos


def _fov_cosine(fov: float) -> float:
    """cos(fov), exactly 0.0 at 90 degrees: cos(radians(90)) = 6.1e-17 would cut
    every grazing link."""
    return 0.0 if fov == 90.0 else math.cos(math.radians(fov))


def concentrator_gain(c: float, n: float, fov: float) -> float:
    """Optical concentrator gain n^2 / sin^2(fov) for a link of cosine c inside
    the FOV (c >= cos(fov)), else 0.

    Raises:
        DomainError: when fov is not in (0, inf), n < 1, or c is above 1 or NaN.
    """

    if not 0.0 < fov < math.inf:
        raise DomainError(f"field of view must be finite and > 0 degrees, got {fov}")
    if not n >= 1.0:
        raise DomainError(f"refractive index must be >= 1, got {n}")
    if not c <= 1.0:
        raise DomainError(f"link cosine must be <= 1, got {c}")
    # On axis (c = 1, where K takes the gain) every FOV sees the LED.
    if c < 1.0 and c < _fov_cosine(fov):
        return 0.0
    return n * n / math.sin(math.radians(fov)) ** 2


class LedSpec(_record("_Led", "position transmit_power half_power_angle lambertian_order",
                      transmit_power=_POSITIVE, half_power_angle=_Rule(0.0, 90.0),
                      lambertian_order=_POSITIVE)):
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
        derived = _order(half_power_angle)  # an infinite order fails even under an override
        return led if lambertian_order is not None else tuple.__new__(cls, (*led[:3], derived))


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
        sin_squared, n = math.sin(math.radians(fov)) ** 2, float(refractive_index)
        if not (sin_squared > 0.0 and math.isfinite(n * n / sin_squared)):
            raise DomainError(
                f"pd.fov {fov} with pd.refractive_index {n} gives an infinite concentrator gain"
            )
        return pd


_TINY = sys.float_info.min  # the smallest normal double


def _gain_constant(led: LedSpec, pd: PdSpec) -> float:
    """K = P_t (m+1) A h g(0) / (2 pi), so that P = K c^(m+1) / d^2."""
    gain, m = concentrator_gain(1.0, pd.refractive_index, pd.fov), led.lambertian_order
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
    cos(fov) are computed once, and K c^(m+1) once per run of rows holding one
    cosine object (an angle-sweep family). A row keeps the per-row form's bits,
    since K * c**(m+1) / d**2 evaluates left to right. Each row checks its inputs.

    Raises:
        DomainError: when K is 0 or infinite, a distance is not > 0 or a cosine
            is above 1 or NaN.
    """

    k, exponent, cos_fov = _gain_constant(led, pd), led.lambertian_order + 1.0, _fov_cosine(pd.fov)
    powers: list[float] = []
    last, kc = object(), None  # the run's cosine, and its K c^(m+1) (None beyond the FOV)
    for distance, c in zip(distances, cosines):
        if not distance > 0.0:
            raise DomainError(f"distance must be > 0, got {distance}")
        if c is not last:
            if not c <= 1.0:
                raise DomainError(f"link cosine must be <= 1, got {c}")
            last, kc = c, k * c**exponent if c >= cos_fov else None
        powers.append(0.0 if kc is None else kc / distance**2)
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
    gain = concentrator_gain(c, pd.refractive_index, pd.fov)
    power = k * c ** (led.lambertian_order + 1.0) / slant**2 if gain else 0.0
    return tuple.__new__(ChannelSample, (slant, gain, power))
