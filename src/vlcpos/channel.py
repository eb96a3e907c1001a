"""Lambertian line-of-sight optical channel.

Received power for a downward-facing LED and an upward-facing PD:

  P_received = P_trans * (m+1) * A / (2*pi*d^2) * cos^m(phi) * h * g(theta) * cos(theta)

with irradiance angle phi at the LED, incidence angle theta from the PD
normal, optical filter gain h, and concentrator gain g = n^2 / sin^2(FOV)
inside the field of view (0 beyond it). For the coplanar ceiling/floor
geometry here the LED normal points down and the PD normal up, so phi equals
theta and both equal the from-normal angle of the link.

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
    "radiant_intensity",
    "concentrator_gain",
    "effective_area",
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


def radiant_intensity(irradiance_angle: float, m: float) -> float:
    """LED radiation pattern ((m+1)/2pi) * cos^m(angle), per steradian.

    Raises:
        DomainError: when the angle is outside [0, 90] degrees or m <= 0.
    """

    if not 0.0 <= irradiance_angle <= 90.0:
        raise DomainError(
            f"irradiance angle must lie in [0, 90] degrees, got {irradiance_angle}"
        )
    if not m > 0.0:
        raise DomainError(f"Lambertian order must be > 0, got {m}")
    return (m + 1.0) / (2.0 * math.pi) * math.cos(math.radians(irradiance_angle)) ** m


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
    """One channel evaluation with every intermediate factor recorded."""

    slant_distance: float
    radiant_intensity: float
    concentrator_gain: float
    effective_area: float
    received_power: float


def effective_area(normal_angle: float, pd: PdSpec) -> float:
    """Effective collection area A * h * g(angle) * cos(angle), 0 beyond the FOV.

    Raises:
        DomainError: when the angle is negative.
    """

    if normal_angle < 0.0:
        raise DomainError(f"incidence angle must be >= 0 degrees, got {normal_angle}")
    if normal_angle > pd.fov:
        return 0.0
    gain = concentrator_gain(normal_angle, pd.refractive_index, pd.fov)
    return pd.area * pd.filter_gain * gain * math.cos(math.radians(normal_angle))


def power_columns(
    led: LedSpec,
    pd: PdSpec,
    distances: Sequence[float],
    irradiance_angles: Sequence[float],
    normal_angles: Sequence[float],
) -> list[float]:
    """Received power P_t / d^2 * f(phi) * A_eff(theta) for each row, 0 beyond the FOV.

    (m+1)/2pi and A*h*g are computed once; each row checks its inputs.

    Raises:
        DomainError: when a distance is not > 0 or an angle is out of range.
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
    for distance, irradiance, normal in zip(distances, irradiance_angles, normal_angles):
        if not distance > 0.0:
            raise DomainError(f"distance must be > 0, got {distance}")
        if normal > fov:
            powers.append(0.0)
            continue
        if not 0.0 <= irradiance <= 90.0 or normal < 0.0:
            raise DomainError(
                f"angles must lie in [0, 90] degrees, got {irradiance} and {normal}"
            )
        pattern = intensity_scale * cos(radians(irradiance)) ** m
        area = area_gain * cos(radians(normal))
        powers.append(transmit / distance**2 * pattern * area)
    return powers


def received_power_at(
    led: LedSpec,
    pd: PdSpec,
    distance: float,
    irradiance_angle: float,
    normal_angle: float,
) -> float:
    """Received power with both angles and the distance given explicitly.

    A one-row view of power_columns; received_power couples the angles to the
    geometry instead.
    """

    return power_columns(led, pd, (distance,), (irradiance_angle,), (normal_angle,))[0]


def received_power(led: LedSpec, pd: PdSpec, position: Point3) -> ChannelSample:
    """Evaluate the channel for the LED and the detector placed at position.

    The irradiance and incidence angles both equal the link's from-normal
    angle because the LED faces straight down and the PD straight up.

    Raises:
        LedNotAbovePd: when the LED is not strictly above the PD plane.
    """

    slant, _, elevation = link_geometry(led.position, position)
    angle = 90.0 - elevation
    pattern = radiant_intensity(angle, led.lambertian_order)
    # Both gain factors are already 0 beyond the FOV, which zeroes the power.
    gain = concentrator_gain(angle, pd.refractive_index, pd.fov)
    area = effective_area(angle, pd)
    # Same product, in the same order, as power_columns.
    power = led.transmit_power / slant**2 * pattern * area
    return ChannelSample(
        slant_distance=slant,
        radiant_intensity=pattern,
        concentrator_gain=gain,
        effective_area=area,
        received_power=power,
    )
