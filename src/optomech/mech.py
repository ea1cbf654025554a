"""Mechanical models: single and nested base-excited damped harmonic oscillators.

The single-stage power transmissibility used everywhere is the second-order
low-pass form

    T(w) = w0^4 / ((w0^2 - w^2)^2 + g^2 w^2),      g = w0 / Q  (rad/s)

which is exactly 1 at DC and falls off at 40 dB per decade well above
resonance, independent of Q.  Isolation is reported as -10*log10(T), i.e.
T is treated as a power ratio.

All functions are pure and accept scalar or array frequencies.
"""

from dataclasses import dataclass

import numpy as np

from .constants import BOLTZMANN

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class MechMode:
    """One mechanical resonance.

    f0 : resonance frequency in Hz
    q : quality factor (dimensionless)
    m_eff : effective mass in kg
    temp : bath temperature in K
    """

    f0: float
    q: float
    m_eff: float
    temp: float = 300.0

    def __post_init__(self):
        if not self.f0 > 0:
            raise ValueError(f"f0 must be > 0, got {self.f0}")
        if not self.q > 0:
            raise ValueError(f"q must be > 0, got {self.q}")
        if not self.m_eff > 0:
            raise ValueError(f"m_eff must be > 0, got {self.m_eff}")
        if self.temp < 0:
            raise ValueError(f"temp must be >= 0, got {self.temp}")

    @property
    def omega0(self):
        """Angular resonance frequency, rad/s."""
        return TWO_PI * self.f0

    @property
    def gamma(self):
        """Angular loss rate omega0/Q, rad/s."""
        return self.omega0 / self.q


@dataclass(frozen=True)
class NestedModel:
    """Two-stage isolation chain: mounting surface -> outer mass -> inner mirror."""

    outer: MechMode
    inner: MechMode

    def __post_init__(self):
        if not self.inner.f0 > self.outer.f0:
            raise ValueError(
                f"inner.f0 ({self.inner.f0}) must exceed outer.f0 ({self.outer.f0})"
            )


def transfer_power(omega, mode: MechMode):
    """Power transmissibility T(omega) of a base-excited resonator.

    T(0) = 1 exactly and T(omega0) = Q^2.  Depends only on f0 and Q.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0):
        raise ValueError("omega must be >= 0")
    w02 = mode.omega0 * mode.omega0
    g = mode.gamma
    den = (w02 - omega * omega) ** 2 + (g * omega) ** 2
    out = (w02 * w02) / den
    return out if out.ndim else float(out)


def isolation_db(omega, mode: MechMode):
    """Vibration isolation -10*log10(T) in dB; 0 dB at DC, negative at resonance."""
    omega = np.asarray(omega, dtype=float)
    out = -10.0 * np.log10(transfer_power(omega, mode))
    return out if out.ndim else float(out)


def chain_response(omega, model: NestedModel, mass_ratio: float):
    """Complex steady-state ratio x_inner/x_base of the two-stage chain.

    Each stage is damped against its own support (outer against the base,
    inner against the outer mass).  Only the mass ratio
    m_inner/m_outer enters the transfer; it must lie in (0, 1).
    """
    if not 0.0 < mass_ratio < 1.0:
        raise ValueError(f"mass_ratio must be in (0, 1), got {mass_ratio}")
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0):
        raise ValueError("omega must be >= 0")
    w1sq = model.outer.omega0 ** 2
    w2sq = model.inner.omega0 ** 2
    g1 = model.outer.gamma
    g2 = model.inner.gamma
    jw = 1j * omega
    a = w2sq + jw * g2            # inner spring + dashpot, per inner mass
    b = a - omega * omega
    d1 = w1sq + jw * g1 + mass_ratio * a - omega * omega
    h = (w1sq + jw * g1) * a / (d1 * b - mass_ratio * a * a)
    return h if h.ndim else complex(h)


def chain_transfer(omega, model: NestedModel, mass_ratio: float):
    """Power transmissibility |x_inner/x_base|^2 of the nested chain."""
    h = np.asarray(chain_response(omega, model, mass_ratio))
    out = np.abs(h) ** 2
    return out if out.ndim else float(out)


def thermal_rms(mode: MechMode) -> float:
    """Equipartition rms displacement sqrt(kB T / (m w0^2)) in meters."""
    return float(np.sqrt(BOLTZMANN * mode.temp / (mode.m_eff * mode.omega0 ** 2)))


def thermal_psd(f, mode: MechMode):
    """One-sided displacement PSD of thermal motion, m^2/Hz.

    S_x(f) = (4 kB T g / m) / ((w0^2 - w^2)^2 + g^2 w^2) with w = 2 pi f,
    normalised so that the integral over f in [0, inf) equals thermal_rms^2.
    """
    f = np.asarray(f, dtype=float)
    if np.any(f < 0):
        raise ValueError("f must be >= 0")
    w = TWO_PI * f
    w02 = mode.omega0 ** 2
    g = mode.gamma
    num = 4.0 * BOLTZMANN * mode.temp * g / mode.m_eff
    den = (w02 - w * w) ** 2 + (g * w) ** 2
    out = num / den
    return out if out.ndim else float(out)
