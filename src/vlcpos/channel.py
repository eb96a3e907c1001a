"""Lambertian line-of-sight optical channel.

Received power for a downward-facing LED and an upward-facing PD:

  P_received = P_trans * (m+1) * A / (2*pi*d^2) * cos^m(phi) * h * g(theta) * cos(theta)

with irradiance angle phi at the LED, incidence angle theta from the PD
normal, optical filter gain h, and concentrator gain g = n^2 / sin^2(FOV)
inside the field of view (0 beyond it). For the coplanar ceiling/floor
geometry here the LED normal points down and the PD normal up, so phi equals
theta and both equal the from-normal angle of the link. power_columns is the
one place that evaluates this product; the scalar functions are one-row views.

The gain equations use the from-normal convention throughout: cos(0) = 1 is
the on-axis maximum directly under the LED. Elevation-labelled sweeps are
translated to this convention by the scenario layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import DomainError
from .geometry import Point3, link_geometry

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

    if not 0.0 < half_power_angle < 90.0:
        raise DomainError(
            f"half-power angle must lie in (0, 90) degrees, got {half_power_angle}"
        )
    log_cos = math.log(math.cos(math.radians(half_power_angle)))
    if log_cos == 0.0:  # cos rounds to 1 below about 6e-7 degrees
        raise DomainError(f"half-power angle {half_power_angle} gives an infinite order")
    return -math.log(2.0) / log_cos


def concentrator_gain(normal_angle: float, n: float, fov: float) -> float:
    """Optical concentrator gain n^2 / sin^2(fov) inside the FOV, else 0.

    Raises:
        DomainError: when fov <= 0, n < 1, or the angle is negative.
    """

    if not fov > 0.0:
        raise DomainError(f"field of view must be > 0 degrees, got {fov}")
    if not n >= 1.0:
        raise DomainError(f"refractive index must be >= 1, got {n}")
    if normal_angle < 0.0:
        raise DomainError(f"incidence angle must be >= 0 degrees, got {normal_angle}")
    if normal_angle > fov:
        return 0.0
    return n * n / math.sin(math.radians(fov)) ** 2


@dataclass(frozen=True)
class LedSpec:
    """Transmitter: position, optical power, half-power angle, Lambertian order.

    lambertian_order defaults to the half-power-angle formula; passing an
    explicit value overrides it (some published configurations pair an order
    with an inconsistent half-power angle, and the override reproduces them).
    """

    position: Point3
    transmit_power: float
    half_power_angle: float
    lambertian_order: float | None = None

    def __post_init__(self) -> None:
        if not self.transmit_power > 0.0:
            raise DomainError(f"transmit_power must be > 0, got {self.transmit_power}")
        # The formula checks the angle even when an explicit order overrides it.
        derived = lambertian_order(self.half_power_angle)
        if self.lambertian_order is None:
            # Frozen dataclass: the derived default is filled in here.
            object.__setattr__(self, "lambertian_order", derived)
        elif not self.lambertian_order > 0.0:
            raise DomainError(f"lambertian_order must be > 0, got {self.lambertian_order}")


@dataclass(frozen=True)
class PdSpec:
    """Receiver: area, field of view, filter gain, refractive index; placed per call."""

    area: float
    fov: float
    filter_gain: float
    refractive_index: float

    def __post_init__(self) -> None:
        if not self.area > 0.0:
            raise DomainError(f"area must be > 0, got {self.area}")
        if not 0.0 < self.fov <= 90.0:
            raise DomainError(f"fov must lie in (0, 90] degrees, got {self.fov}")
        if not self.filter_gain > 0.0:
            raise DomainError(f"filter_gain must be > 0, got {self.filter_gain}")
        if not self.refractive_index >= 1.0:
            raise DomainError(
                f"refractive_index must be >= 1, got {self.refractive_index}"
            )
        # n^2 / sin^2(fov) overflows for a fov below about 1e-152 degrees.
        sin_squared, n = math.sin(math.radians(self.fov)) ** 2, self.refractive_index
        if not (sin_squared > 0.0 and math.isfinite(n * n / sin_squared)):
            raise DomainError(
                f"fov {self.fov} with refractive_index {n} gives an infinite concentrator gain"
            )


class ChannelSample(NamedTuple):
    """One channel evaluation: slant distance, concentrator gain at the link
    angle, and received power."""

    slant_distance: float
    concentrator_gain: float
    received_power: float


def power_columns(
    led: LedSpec,
    pd: PdSpec,
    distances: Sequence[float],
    angles: Sequence[float],
) -> list[float]:
    """Received power P_t / d^2 * f(angle) * A_eff(angle) for each row, 0 beyond the FOV.

    Each angle is the link's from-normal angle, which is both the irradiance
    angle at the LED and the incidence angle at the PD, so one cosine serves
    both factors. (m+1)/2pi and A*h*g are computed once; each row checks its
    inputs.

    Raises:
        DomainError: when a distance is not > 0 or an angle is negative or NaN.
    """

    m = led.lambertian_order
    if not m > 0.0:
        raise DomainError(f"Lambertian order must be > 0, got {m}")
    fov = pd.fov
    intensity_scale = (m + 1.0) / (2.0 * math.pi)
    area_gain = pd.area * pd.filter_gain * concentrator_gain(0.0, pd.refractive_index, fov)
    transmit = led.transmit_power
    cos, radians = math.cos, math.radians
    powers: list[float] = []
    for distance, angle in zip(distances, angles):
        if not distance > 0.0:
            raise DomainError(f"distance must be > 0, got {distance}")
        if angle > fov:
            powers.append(0.0)
            continue
        if not angle >= 0.0:
            raise DomainError(f"link angle must be >= 0 degrees, got {angle}")
        c = cos(radians(angle))
        powers.append(transmit / distance**2 * (intensity_scale * c**m) * (area_gain * c))
    return powers


def received_power_at(led: LedSpec, pd: PdSpec, distance: float, angle: float) -> float:
    """Received power with the distance and the from-normal link angle given explicitly.

    A one-row view of power_columns; received_power takes both from the
    geometry instead.
    """

    return power_columns(led, pd, (distance,), (angle,))[0]


def received_power(led: LedSpec, pd: PdSpec, position: Point3) -> ChannelSample:
    """Evaluate the channel for the LED and the detector placed at position.

    A one-row view of power_columns at the link's from-normal angle. The
    sample's concentrator_gain is the gain at that angle, 0 exactly when the
    PD sees the LED from beyond its FOV; it tells such a FOV cut apart from a
    power that underflowed to 0.

    Raises:
        LedNotAbovePd: when the LED is not strictly above the PD plane.
    """

    slant, _, elevation = link_geometry(led.position, position)
    angle = 90.0 - elevation
    (power,) = power_columns(led, pd, (slant,), (angle,))
    gain = concentrator_gain(angle, pd.refractive_index, pd.fov)
    return ChannelSample(slant, gain, power)
