"""Side-of-fringe lock simulation and detuned-lock optical cooling arithmetic.

simulate_lock runs a discrete-time PID loop against the nonlinear
transmission fringe: thermal motion of the outer resonator shifts the
cavity detuning, the detector sees the fringe level, and the controller
moves an ideal zero-order-hold actuator that subtracts from the detuning.
Only the controller state (actuator, integrator, previous error,
saturation count) lives in the per-step Python loop, which reads the
motion as Python floats one chunk at a time and records the actuator
through a memoryview of a float array; the error signal and detuning are
then derived from the actuator record with numpy in the loop's own
operation order, so each element has the bits of the per-step value.  The
open-loop reference (all gains zero) holds the actuator constant, needs no
loop, and is evaluated only over the last 20% of the run that its rms
values read.  The cooling operations are
algebraic (linearised optomechanics), not dynamical.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cavity import Cavity, fringe_response
from .mech import MechMode, NestedModel
from .synth import TimeSeries, _chunks, synth_brownian


@dataclass(frozen=True)
class LockConfig:
    """PID gains in actuator meters per fringe-signal unit (and per s / s)."""

    kp: float = 0.0
    ki: float = 0.0
    kd: float = 0.0
    setpoint: float | None = None     # None: fringe level at detuning_bias
    actuator_range: float = 1e-9
    loop_rate: float = 5e6
    detuning_bias: float = 0.0

    def __post_init__(self):
        if not self.loop_rate > 0:
            raise ValueError("loop_rate must be > 0")
        if not self.actuator_range > 0:
            raise ValueError("actuator_range must be > 0")


@dataclass(frozen=True)
class CoolingConfig:
    """Linearised optomechanical cooling parameters (all angular rates)."""

    g0: float          # per-photon coupling rate, rad/s
    n_cav: float       # mean intracavity photon number
    detuning: float    # laser-cavity detuning, rad/s (negative = red)
    kappa: float       # cavity energy decay rate, rad/s

    def __post_init__(self):
        if self.n_cav < 0:
            raise ValueError("n_cav must be >= 0")
        if not self.kappa > 0:
            raise ValueError("kappa must be > 0")
        for name in ("g0", "n_cav", "detuning", "kappa"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass
class LockResult:
    error_signal: TimeSeries
    actuator: TimeSeries
    detuning: TimeSeries
    lock_acquired: bool
    saturation_fraction: float
    open_loop_error_rms: float
    closed_loop_error_rms: float
    open_loop_detuning_rms: float
    closed_loop_detuning_rms: float


def _tail_start(n, frac=0.2):
    """Index of the first sample of the last frac of an n-sample record."""
    return int(round(n * (1.0 - frac)))


def _tail_std(arr):
    return float(np.std(arr[_tail_start(arr.size):]))


def _fringe_error(x, us, bias, hz_per_m, lw, setpoint):
    """Error signal and detuning (Hz) for motion x under actuator us.

    Evaluated element-wise in the loop's scalar order, bias +
    hz_per_m*(x-u), then 2*delta/lw, then 1/(1+r*r) - setpoint, so every
    element has the bits the loop computed for that step.
    """
    dets = x - us
    dets *= hz_per_m
    dets += bias
    errs = dets * 2.0
    errs /= lw
    errs *= errs
    errs += 1.0
    np.divide(1.0, errs, out=errs)
    errs -= setpoint
    return errs, dets


def simulate_lock(model: NestedModel, cav: Cavity, cfg: LockConfig,
                  duration: float, seed: int,
                  start_locked: bool = True) -> LockResult:
    """Closed-loop side-of-fringe lock against outer-resonator thermal motion.

    The loop starts on lock (actuator pre-positioned to null the initial
    motion) unless start_locked=False; acquisition from an arbitrary fringe
    position is not modelled.  lock_acquired is True when the error-signal
    rms (about its mean) over the last 20% of the run is at most 10% of the
    open-loop value and the actuator saturated for no more than 1% of the
    samples.
    """
    outer = model.outer
    if cfg.loop_rate < 20.0 * outer.f0:
        raise ValueError("loop_rate must be >= 20*outer.f0")
    fs = cfg.loop_rate
    dt = 1.0 / fs
    motion = synth_brownian(outer, fs, duration, seed)
    n = motion.n

    hz_per_m = cav.hz_per_m
    lw = cav.linewidth_fwhm
    bias = cfg.detuning_bias
    setpoint = cfg.setpoint
    if setpoint is None:
        setpoint = float(fringe_response(bias, cav))

    u_init = float(motion.values[0]) if start_locked else 0.0
    rng_range = cfg.actuator_range
    kp, ki, kd = cfg.kp, cfg.ki, cfg.kd

    # The open-loop reference, over the tail its rms values read only (it
    # starts at step 2 or later).  With zero gains and finite errors every
    # controller term is +-0.0, so after step 0 the actuator is
    # u_init + 0.0 (which turns -0.0 into 0.0), then clipped.
    tail = _tail_start(n)
    open_us = np.full(n - tail, min(max(u_init + 0.0, -rng_range), rng_range))
    open_errs, open_dets = _fringe_error(motion.values[tail:], open_us, bias,
                                         hz_per_m, lw, setpoint)
    del open_us

    us = np.empty(n)
    buf = us.data    # a memoryview stores a float far faster than us[i] = u
    u = u_init
    integ = 0.0
    e_prev = 0.0
    n_sat = 0
    for start, stop in _chunks(n):   # a list of Python floats per chunk
        for i, xi in enumerate(motion.values[start:stop].tolist(), start):
            r = 2.0 * (bias + hz_per_m * (xi - u)) / lw
            e = 1.0 / (1.0 + r * r) - setpoint
            buf[i] = u
            integ += ki * e * dt
            u = u_init + kp * e + integ + kd * (e - e_prev) / dt
            e_prev = e
            if u > rng_range:
                u = rng_range
                n_sat += 1
            elif u < -rng_range:
                u = -rng_range
                n_sat += 1
    del buf
    errs, dets = _fringe_error(motion.values, us, bias, hz_per_m, lw,
                               setpoint)

    open_rms = float(np.std(open_errs))
    closed_rms = _tail_std(errs)
    sat_frac = n_sat / n
    acquired = closed_rms <= 0.1 * open_rms and sat_frac <= 0.01

    mk = lambda arr: TimeSeries(fs, 0.0, arr, calibration=1.0)
    return LockResult(
        error_signal=mk(errs), actuator=mk(us), detuning=mk(dets),
        lock_acquired=acquired, saturation_fraction=sat_frac,
        open_loop_error_rms=open_rms, closed_loop_error_rms=closed_rms,
        open_loop_detuning_rms=float(np.std(open_dets)),
        closed_loop_detuning_rms=_tail_std(dets),
    )


def optical_damping_rate(cfg: CoolingConfig, omega_m: float) -> float:
    """Optomechanical damping rate from a detuned drive, rad/s.

    G = g0^2 n_cav kappa [((k/2)^2+(D+w)^2)^-1 - ((k/2)^2+(D-w)^2)^-1];
    positive (cooling) for red detuning D < 0, zero at D = 0, and
    approaching 4 g0^2 n_cav / kappa at D = -w in the resolved limit.
    """
    if not omega_m > 0:
        raise ValueError("omega_m must be > 0")
    half_k_sq = (cfg.kappa / 2.0) ** 2
    plus = half_k_sq + (cfg.detuning + omega_m) ** 2
    minus = half_k_sq + (cfg.detuning - omega_m) ** 2
    return cfg.g0 ** 2 * cfg.n_cav * cfg.kappa * (1.0 / plus - 1.0 / minus)


def effective_temperature(mode: MechMode, gamma_opt: float) -> float:
    """Cold-damping mode temperature T * gamma_m / (gamma_m + gamma_opt)."""
    gamma_m = mode.gamma
    if gamma_opt <= -gamma_m:
        raise ValueError("gamma_opt <= -gamma_m: closed-loop system unstable")
    return mode.temp * gamma_m / (gamma_m + gamma_opt)
