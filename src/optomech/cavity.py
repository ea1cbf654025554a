"""Fabry-Perot cavity relations, sideband-cooling limits and feasibility checks.

Conventions: linewidth is the FWHM of the transmitted-power fringe in Hz,
kappa = 2*pi*linewidth is the angular energy decay rate, and ringdown_tau
is the 1/e time of transmitted *power* after input shutoff, so that
ringdown_tau * kappa = 1 exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import BOLTZMANN, PLANCK, SPEED_OF_LIGHT


@dataclass(frozen=True)
class Cavity:
    """Fabry-Perot cavity: mirror spacing, operating wavelength, finesse."""

    length: float
    wavelength: float
    finesse: float

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError(f"length must be > 0, got {self.length}")
        if not self.wavelength > 0:
            raise ValueError(f"wavelength must be > 0, got {self.wavelength}")
        if not self.finesse > 1:
            raise ValueError(f"finesse must be > 1, got {self.finesse}")

    @property
    def fsr(self):
        """Free spectral range c/(2L), Hz."""
        return SPEED_OF_LIGHT / (2.0 * self.length)

    @property
    def hz_per_m(self):
        """Resonance shift per metre of mirror motion 2*fsr/wavelength, Hz/m."""
        return 2.0 * self.fsr / self.wavelength

    @property
    def linewidth_fwhm(self):
        """FWHM linewidth fsr/finesse, Hz."""
        return self.fsr / self.finesse

    @property
    def kappa(self):
        """Angular energy decay rate 2*pi*linewidth, rad/s."""
        return 2.0 * math.pi * self.linewidth_fwhm

    @property
    def decay_tau(self):
        """Intensity 1/e ringdown time F*L/(pi*c), s."""
        return self.finesse * self.length / (math.pi * SPEED_OF_LIGHT)


def linewidth(cav: Cavity) -> float:
    """Cavity linewidth (FWHM) c/(2*L*F) in Hz."""
    return cav.linewidth_fwhm


def ringdown_tau(cav: Cavity) -> float:
    """Transmitted-power 1/e decay time F*L/(pi*c) = 1/(2*pi*linewidth), s."""
    return cav.decay_tau


def sideband_ratio(f_m: float, cav: Cavity) -> float:
    """Mechanical frequency over cavity linewidth; > 1 means sideband resolved."""
    if not f_m > 0:
        raise ValueError(f"f_m must be > 0, got {f_m}")
    return f_m / cav.linewidth_fwhm


def min_phonons(f_m: float, cav: Cavity) -> float:
    """Minimum phonon occupation from cavity cooling at optimal detuning.

    n_min = 0.5*(sqrt(1 + (kappa/(2 w_m))^2) - 1), which reduces to
    (kappa/(4 w_m))^2 deep in the resolved-sideband regime and stays
    well-defined for unresolved modes.
    """
    if not f_m > 0:
        raise ValueError(f"f_m must be > 0, got {f_m}")
    x = cav.kappa / (2.0 * 2.0 * math.pi * f_m)
    return 0.5 * (math.sqrt(1.0 + x * x) - 1.0)


def ground_state_feasible(f_m: float, q: float, bath_temp: float):
    """Check f*Q against the thermal decoherence threshold kB*T/h.

    Returns (feasible, margin) where margin = f*Q / (kB*T/h).  The test is a
    strict inequality, so a product exactly at threshold reports False with
    margin 1.0.
    """
    if not (f_m > 0 and q > 0 and bath_temp > 0):
        raise ValueError("f_m, q and bath_temp must all be > 0")
    threshold = BOLTZMANN * bath_temp / PLANCK
    fq = f_m * q
    return fq > threshold, fq / threshold


def fringe_response(detuning, cav: Cavity):
    """Transmitted-power fraction of the Lorentzian fringe at a given detuning (Hz).

    L(d) = 1 / (1 + (2 d / linewidth)^2), the fringe of a perfectly
    mode-matched cavity: 1 on resonance.
    """
    detuning = np.asarray(detuning, dtype=float)
    u = 2.0 * detuning / cav.linewidth_fwhm
    out = 1.0 / (1.0 + u * u)
    return out if out.ndim else float(out)


def fringe_slope(detuning, cav: Cavity):
    """Derivative of fringe_response with respect to detuning, 1/Hz.

    |slope| is extremal at detuning = +/- linewidth/(2*sqrt(3)), the
    inflection points used for side-of-fringe locking.
    """
    detuning = np.asarray(detuning, dtype=float)
    lw = cav.linewidth_fwhm
    u = 2.0 * detuning / lw
    out = -(4.0 / lw) * u / (1.0 + u * u) ** 2
    return out if out.ndim else float(out)
