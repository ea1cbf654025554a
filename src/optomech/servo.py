"""Side-of-fringe lock simulation and detuned-lock optical cooling arithmetic.

simulate_lock runs a discrete-time PID loop against the nonlinear
transmission fringe: thermal motion of the outer resonator shifts the
cavity detuning, the detector sees the fringe level, and the controller
moves an ideal zero-order-hold actuator that subtracts from the detuning.
Only the controller state (actuator, integrator, previous error,
saturation count) lives in the per-step Python loop.  The loop reads the
motion's blocks as synth_brownian makes them, copies each into the motion
array, steps through it as Python floats, _STEPS at a time, and stores
their actuator values in one slice assignment, so no record-sized
scratch comes with the motion.  The lock holds two records, the motion
and the actuator: the error signal and detuning are BlockSeries that
derive each chunk from those two with numpy, in the loop's own operation
order, whenever they are read, so each element has the bits of the
per-step value.  The rms values read only the last 20% of the run: the
open-loop reference (all gains zero) holds the actuator constant and needs
no loop, and both it and the closed loop are evaluated over that tail
alone.  The cooling operations are algebraic (linearised optomechanics),
not dynamical.
"""

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .cavity import Cavity, fringe_response
from .mech import MechMode, NestedModel
from .synth import (BlockSeries, TimeSeries, _all_finite, _chunks,
                    synth_brownian)


@dataclass(frozen=True)
class LockConfig:
    """PID gains in actuator meters per fringe-signal unit (and per s / s)."""

    kp: float
    ki: float
    kd: float
    actuator_range: float
    loop_rate: float
    detuning_bias: float

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
    error_signal: BlockSeries
    actuator: TimeSeries
    detuning: BlockSeries
    lock_acquired: bool
    saturation_fraction: float
    open_loop_error_rms: float
    closed_loop_error_rms: float
    open_loop_detuning_rms: float
    closed_loop_detuning_rms: float


_TAIL_FRAC = 0.2           # the settled tail that the rms values read
# loop steps per list of Python floats: a locked actuator makes a new float
# object each step, 32 bytes with its list slot, and so does the motion
_STEPS = 1 << 14


def _tail_start(n):
    """Index of the first sample of the last 20% of an n-sample record
    (_TAIL_FRAC)."""
    return int(round(n * (1.0 - _TAIL_FRAC)))


def _detuning(x, us, bias, hz_per_m):
    """Detuning (Hz) for motion x under actuator us (an array or a float),
    bias + hz_per_m*(x-u) in the loop's scalar order, so every element has
    the bits the loop computed for that step."""
    dets = x - us
    dets *= hz_per_m
    dets += bias
    return dets


def _fringe_error(dets, lw, setpoint):
    """Error signal at detunings dets, 2*delta/lw, then 1/(1+r*r) -
    setpoint, element-wise in the loop's scalar order, as a new array."""
    errs = dets * 2.0
    errs /= lw
    errs *= errs
    errs += 1.0
    np.divide(1.0, errs, out=errs)
    errs -= setpoint
    return errs


def _derived(fs, n, block):
    """A record that blocks() evaluates as block(start, stop), a _CHUNK at a
    time, and rejects as TimeSeries does if a block is not finite."""
    def blocks():
        for start, stop in _chunks(n):
            values = block(start, stop)
            if not _all_finite(values):
                raise ValueError("TimeSeries values must be finite")
            yield values

    return BlockSeries(fs, 0.0, n, float, blocks)


def simulate_lock(model: NestedModel, cav: Cavity, cfg: LockConfig,
                  duration: float, seed: int) -> LockResult:
    """Closed-loop side-of-fringe lock against outer-resonator thermal motion.

    The loop always starts on lock, with the actuator pre-positioned to
    null the initial motion; acquisition from an arbitrary fringe position
    is not modelled.  lock_acquired is True when the error-signal
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
    setpoint = float(fringe_response(bias, cav))   # the level at the bias

    rng_range = cfg.actuator_range
    neg_range = -rng_range
    kp, ki, kd = cfg.kp, cfg.ki, cfg.kd

    x = np.empty(n)
    us = np.empty(n)
    integ = 0.0
    e_prev = 0.0
    n_sat = 0
    start = 0
    with contextlib.closing(motion.blocks()) as blocks:
        for block in blocks:
            stop = start + block.size
            x[start:stop] = block
            if not start:
                u = u_init = float(x[0])
            for a in range(start, stop, _STEPS):   # two lists of Python floats
                b = min(a + _STEPS, stop)
                chunk = []
                put = chunk.append
                for xi in x[a:b].tolist():
                    r = 2.0 * (bias + hz_per_m * (xi - u)) / lw
                    e = 1.0 / (1.0 + r * r) - setpoint
                    put(u)
                    integ += ki * e * dt
                    u = u_init + kp * e + integ + kd * (e - e_prev) / dt
                    e_prev = e
                    if u > rng_range:
                        u = rng_range
                        n_sat += 1
                    elif u < neg_range:
                        u = neg_range
                        n_sat += 1
                us[a:b] = chunk
                del chunk
            start = stop

    # The open-loop reference, over the tail its rms values read only (it
    # starts at step 2 or later).  With zero gains and finite errors every
    # controller term is +-0.0, so after step 0 the actuator is
    # u_init + 0.0 (which turns -0.0 into 0.0), then clipped.
    tail = _tail_start(n)
    open_u = min(max(u_init + 0.0, neg_range), rng_range)
    dets = _detuning(x[tail:], open_u, bias, hz_per_m)
    open_rms = float(np.std(_fringe_error(dets, lw, setpoint)))
    open_det_rms = float(np.std(dets))
    del dets

    det = lambda a, b: _detuning(x[a:b], us[a:b], bias, hz_per_m)
    err = lambda a, b: _fringe_error(det(a, b), lw, setpoint)
    dets = det(tail, n)
    closed_rms = float(np.std(_fringe_error(dets, lw, setpoint)))
    sat_frac = n_sat / n
    acquired = closed_rms <= 0.1 * open_rms and sat_frac <= 0.01

    return LockResult(
        error_signal=_derived(fs, n, err),
        actuator=TimeSeries(fs, 0.0, us, calibration=1.0),
        detuning=_derived(fs, n, det),
        lock_acquired=acquired, saturation_fraction=sat_frac,
        open_loop_error_rms=open_rms, closed_loop_error_rms=closed_rms,
        open_loop_detuning_rms=open_det_rms,
        closed_loop_detuning_rms=float(np.std(dets)),
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
