"""Deterministic, seeded generation of synthetic measurement records.

Covers every bench experiment the analysis pipeline consumes: Brownian
motion of a mode (baseband or band-centered complex envelope), optical and
mechanical ringdowns, and driven transfer-function sweeps.  Every record
is in metres, or for the optical ringdown in units of the power at
shutoff, with calibration 1.  All generators are pure functions of
(inputs, seed): the same call returns a bit-identical record.

One lock-in mixer serves synthesis and analysis: _phasor builds
exp(-2j*pi*f*t) and _block_means averages a record times it over blocks,
many a run for the in-phase mechanical envelope, one a record for a tone.

No long record is held whole unless a command needs it.  The Brownian
records and the mechanical ringdown are BlockSeries that regenerate
themselves from the seed, a chunk at a time, on every read: both
Brownian records, the baseband one (the lock's motion) and the
band-centered envelope, by the exact recursion of the thermally driven
mode, through one chunked-cumsum kernel (_recursion_chunks), and the
ringdown in two work arrays (synth_mech_ringdown).  demodulate_envelope
cuts the blocks of any record into runs of whole demodulation blocks, so
the ringdown, its envelope and either written record
(io.write_timeseries) each take a few MB at any record length.
"""

import contextlib
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import cavity as _cavity
from . import mech as _mech
from .mech import TWO_PI, MechMode, NestedModel

# samples per chunk of a streamed record: a chunk and its temporaries stay
# a few MB at any record length
_CHUNK = 1 << 17


def _chunks(n: int):
    """(start, stop) of consecutive _CHUNK-sample slices covering n samples."""
    for start in range(0, n, _CHUNK):
        yield start, min(start + _CHUNK, n)


def _all_finite(values) -> bool:
    """Whether every value is finite, checked a chunk at a time: no
    record-sized mask beside the record."""
    return all(np.isfinite(values[start:stop]).all()
               for start, stop in _chunks(values.size))


def _check_record(rec, n):
    """The metadata of a TimeSeries or BlockSeries: finite, with a
    positive sample rate, and at least 2 samples."""
    for name in ("sample_rate", "t0", "calibration", "center_freq"):
        if not math.isfinite(getattr(rec, name)):
            raise ValueError(f"{name} must be finite, got {getattr(rec, name)}")
    if not rec.sample_rate > 0:
        raise ValueError(f"sample_rate must be > 0, got {rec.sample_rate}")
    if n < 2:
        raise ValueError("a TimeSeries needs at least 2 samples")


def _phasor(f: float, rec, start: int, stop: int, out=None):
    """The mixing phasor exp(-2j*pi*f*t) at the times of samples [start,
    stop) of rec, t = rec.t0 + np.arange(start, stop) / rec.sample_rate, as
    a new complex array or in the complex array out."""
    t = np.arange(start, stop, dtype=float)
    t /= rec.sample_rate
    t += rec.t0
    z = np.multiply(-1j * TWO_PI * f, t, out=out)
    return np.exp(z, out=z)


def _block_means(z, n_blk: int):
    """Complex means of a mixed record z, a record times its phasor, over
    consecutive n_blk-sample blocks."""
    return z.reshape(-1, n_blk).mean(axis=1)


@dataclass
class TimeSeries:
    """Uniformly sampled record.

    values are displacement in meters (or detector units with a calibration
    factor in m per unit).  center_freq > 0 marks a complex-envelope record
    z(t) whose physical signal is Re[z(t) * exp(2j*pi*center_freq*t)];
    baseband records are real with center_freq = 0.
    """

    sample_rate: float
    t0: float
    values: np.ndarray
    calibration: float = 1.0
    center_freq: float = 0.0
    warnings: tuple = ()

    def __post_init__(self):
        self.values = np.asarray(self.values)
        _check_record(self, self.values.size)
        if not _all_finite(self.values):
            raise ValueError("TimeSeries values must be finite")

    @property
    def n(self):
        return self.values.size

    @property
    def duration(self):
        return self.n / self.sample_rate

    @property
    def times(self):
        return self.t0 + np.arange(self.n) / self.sample_rate

    @property
    def is_complex(self):
        return np.iscomplexobj(self.values)

    def blocks(self):
        """The values as one block, the array itself (see BlockSeries)."""
        yield self.values


@dataclass
class BlockSeries:
    """A uniformly sampled record read in order, one block of samples at a
    time, so that it is never held whole (io.open_timeseries,
    synth_mech_ringdown, synth_brownian, simulate_lock's error signal and
    detuning).

    blocks() returns a generator of 1-D arrays of dtype that together hold
    the n samples, in order; each block is valid only until the next one is
    requested.  The other fields mean what they mean on TimeSeries, and
    welch_psd, demodulate_envelope and io.write_timeseries take either.
    """

    sample_rate: float
    t0: float
    n: int
    dtype: np.dtype
    blocks: Callable
    calibration: float = 1.0
    center_freq: float = 0.0
    warnings: tuple = ()

    def __post_init__(self):
        self.dtype = np.dtype(self.dtype)
        _check_record(self, self.n)

    @property
    def is_complex(self):
        return self.dtype.kind == "c"


@dataclass
class DriveRecord:
    """Base and response motion measured while driving at a single frequency.

    The drive frequency is finite and > 0, and the two records are real,
    with one sample rate and one length; any other record raises
    ValueError, whether it is synthesised or read from a file.
    """

    drive_freq: float
    base_motion: TimeSeries
    response_motion: TimeSeries

    def __post_init__(self):
        if not 0 < self.drive_freq < math.inf:
            raise ValueError(f"drive_freq must be finite and > 0, got "
                             f"{self.drive_freq}")
        if self.base_motion.sample_rate != self.response_motion.sample_rate:
            raise ValueError("base and response must share a sample rate")
        if self.base_motion.n != self.response_motion.n:
            raise ValueError("base and response must have equal length")
        if self.base_motion.is_complex or self.response_motion.is_complex:
            raise ValueError("drive records must be real-valued")


def synth_brownian(mode: MechMode, sample_rate: float, duration: float,
                   seed: int, noise_floor: float = 0.0,
                   center_freq: float | None = None) -> BlockSeries:
    """Stationary Gaussian record of the mode's thermal motion plus white
    noise of one-sided density noise_floor.

    The thermal part is the exact discretisation of the thermally driven
    mode (Gillespie, PRE 54, 2084 (1996); Norrelykke & Flyvbjerg, PRE 83,
    041103 (2011)): a linear recursion sampled at 1/sample_rate, with its
    first sample drawn from the stationary law, so it has mean square
    thermal_rms**2 at every record length, far shorter than the mode's
    1/gamma included.  Its spectrum is the mode's Lorentzian aliased into
    the sampled band.  The floor is independent white noise.

    Without center_freq the record is the real baseband displacement x
    (_baseband_blocks), sampled at sample_rate > 4*f0; its spectrum is
    thermal_psd(f) + noise_floor away from the band edge, and it holds any
    Q: a complex pole pair for Q > 1/2, two real poles for Q < 1/2, and
    the critically damped (Jordan) form at Q = 1/2.

    With center_freq set, the record is a complex envelope covering
    [center_freq - sample_rate/2, center_freq + sample_rate/2]
    (_envelope_blocks); use this for narrow lines where a baseband record
    would be enormous.  Its physical signal has mean square thermal_rms**2
    + noise_floor*sample_rate.  The mode must be underdamped, Q > 1/2, for
    the recursion's complex pole.

    Either record is a BlockSeries that every blocks() call regenerates
    from the seed a chunk at a time, through one recursion kernel
    (_recursion_chunks), so it is never held whole.
    """
    n = _check_brownian(mode, sample_rate, duration, noise_floor,
                        center_freq)
    warnings = ()
    if duration * mode.f0 / mode.q < 10.0:
        warnings = ("duration_too_short_to_resolve_linewidth",)
    if center_freq is None:
        return BlockSeries(sample_rate, 0.0, n, float,
                           _baseband_blocks(mode, sample_rate, n, seed,
                                            noise_floor),
                           warnings=warnings)
    return BlockSeries(sample_rate, 0.0, n, complex,
                       _envelope_blocks(mode, sample_rate, n, seed,
                                        noise_floor, center_freq),
                       center_freq=center_freq, warnings=warnings)


def _check_brownian(mode: MechMode, sample_rate: float, duration: float,
                    noise_floor: float, center_freq: float | None) -> int:
    """synth_brownian's checks of its arguments, made before anything is
    drawn, each raising ValueError; the record's sample count.  A baseband
    record takes any Q; an envelope needs Q > 1/2."""
    if noise_floor < 0:
        raise ValueError("noise_floor must be >= 0")
    n = int(round(duration * sample_rate))
    if n < 2:
        raise ValueError("duration too short for the sample rate")
    if center_freq is None:
        if sample_rate <= 4.0 * mode.f0:
            raise ValueError("baseband synthesis needs sample_rate > 4*f0; "
                             "use center_freq for a band-centered record")
    elif center_freq - sample_rate / 2.0 <= 0:
        raise ValueError("envelope band must lie at positive frequencies")
    elif not mode.q > 0.5:
        raise ValueError(f"envelope synthesis needs Q > 1/2, an underdamped "
                         f"mode with a complex pole; got Q = {mode.q:g}")
    return n


# the largest growth |mu|**-k within a run of a thermal recursion, as a
# power of e: it bounds the run's rounding error to about e**4 ulps of the
# record's rms
_RUN_GROWTH = 4.0


def _factor(var0: float, cov: float, var1: float) -> tuple:
    """(a, b, c), the lower Cholesky factor [[a, 0], [b, c]] of the 2x2
    covariance [[var0, cov], [cov, var1]]; all zero where var0 is."""
    a = math.sqrt(var0)
    b = cov / a if a > 0 else 0.0
    return a, b, math.sqrt(max(var1 - b * b, 0.0))


def _complex_factor(power: float, square: complex) -> tuple:
    """_factor of (Re y, Im y) for a complex normal y with E|y|**2 = power
    and E[y**2] = square."""
    return _factor(0.5 * (power + square.real), 0.5 * square.imag,
                   0.5 * (power - square.real))


def _run_rows(used, down, up, mu_run, d):
    """Turn the drives eta of the rows of used, in place, into the states
    y[k] = mu*y[k-1] + eta[k]: from d, mu times the state before a row,
    y[k] = mu**k * (d + cumsum(mu**-j * eta[j])[k]), with down = mu**-k and
    up = mu**k, one cumsum for all rows, and d carried from row to row as
    mu_run = mu**run times the state at a row's end.  The carried d."""
    used *= down
    np.cumsum(used, axis=1, out=used)
    states = []
    for end in used[:, -1].tolist():
        states.append(d)
        d = mu_run * (d + end)
    used += np.array(states)[:, None]
    used *= up
    return d


def _recursion_chunks(p_dts: list, first: tuple, step: tuple, n: int,
                      drive, coupling: float = 0.0):
    """The n states of a thermal recursion, in chunks of about _CHUNK
    samples, each chunk as pairs[:m], an (m, 2) float array valid until the
    next chunk.

    p_dts holds one complex pole times dt, mu = exp(p_dt): one complex
    lane y[k] = mu*y[k-1] + eta[k], with (Re y, Im y) in the two columns
    of pairs; or two real poles, two real lanes, one per column, the
    second also driven by coupling times the first lane's previous state.
    Each chunk draws one normal pair (xi0, xi1) per sample from the
    generator drive, in one array, and makes it the drive pair (a*xi0,
    c*xi1 + b*xi0), with (a, b, c) = first for sample 0, which is the
    first state (the state before it is 0), and step after.

    A chunk is cut into rows of `run` samples for _run_rows.
    |mu|**-(run-1) stays within e**_RUN_GROWTH for every pole, and a row of
    one sample needs no mu**-1 at any damping.  Chunked draws from one
    stream equal one whole draw, so the record is the same, up to
    rounding, at any chunk size.
    """
    decay = max(-p_dt.real for p_dt in p_dts)    # -log|mu|, per sample
    run = (_CHUNK if decay * _CHUNK <= _RUN_GROWTH
           else 1 + int(_RUN_GROWTH / decay))
    rows = max(1, min(_CHUNK, n) // run)
    k = np.arange(run)
    tables = [(np.exp(-p_dt * k), np.exp(p_dt * k),       # mu**-k, mu**k
               type(p_dt)(np.exp(p_dt * run))) for p_dt in p_dts]
    buf = np.empty((rows * run, 2))
    if len(p_dts) == 1:
        lanes = [buf.view(complex).reshape(rows, run)]
    else:
        lanes = [buf[:, 0].reshape(rows, run), buf[:, 1].reshape(rows, run)]
    states = [type(p_dt)(0) for p_dt in p_dts]   # mu * the state before a row
    last = 0.0                                   # the first lane's last state
    for start in range(0, n, buf.shape[0]):
        m = min(buf.shape[0], n - start)
        pairs = buf[:m]
        drive.standard_normal(out=pairs)
        if start == 0:
            _correlate(pairs[:1], *first)
            _correlate(pairs[1:], *step)
        else:
            _correlate(pairs, *step)
        buf[m:] = 0.0
        for i, (lane, (down, up, mu_run)) in enumerate(zip(lanes, tables)):
            if i and coupling:
                pairs[1:, 1] += coupling * pairs[:-1, 0]
                pairs[0, 1] += coupling * last
                last = float(pairs[-1, 0])
            states[i] = _run_rows(lane[:-(-m // run)], down, up, mu_run,
                                  states[i])
        yield pairs


def _correlate(pairs, a: float, b: float, c: float):
    """The normal pairs (xi0, xi1) of pairs made, in place, (a*xi0, c*xi1 +
    b*xi0)."""
    if b:
        cross = pairs[:, 0] * b
    pairs *= (a, c)
    if b:
        pairs[:, 1] += cross


def _baseband_recursion(mode: MechMode, sample_rate: float) -> tuple:
    """(p_dts, first, step, coupling, weights): _recursion_chunks' lanes
    for the displacement x of the thermally driven mode, sampled at dt =
    1/sample_rate, and the weights (w0, w1) that make x = w0*pairs[:, 0] +
    w1*pairs[:, 1].

    The state (x, v) obeys ds = M s dt + (0, sqrt(D)) dW, with M = [[0,
    1], [-omega0**2, -gamma]] and D = 2*gamma*omega0**2*thermal_rms**2, so
    its stationary law is Sigma = diag(rms**2, omega0**2*rms**2).  Sampled,
    s[n] = A s[n-1] + w[n], A = exp(M*dt), w ~ N(0, Sigma - A Sigma A^T).
    In M's eigenbasis, s = V y with V's first row (1, 1), each coordinate
    y_i is a first-order recursion with pole lambda_i and drive
    g_i*sqrt(D)*dW, g = V**-1 (0, 1), so E[eta_i eta_j] = g_i g_j D
    expm1((lambda_i + lambda_j) dt)/(lambda_i + lambda_j), free of the
    cancellation in Sigma - A Sigma A^T when dt << 1/gamma, and the first
    state has the same law with dt -> inf:

    - Q > 1/2: lambda = -gamma/2 + 1j*omega_d and its conjugate, y_2 =
      conj(y_1), so x = 2*Re y with one complex lane.  Its drive eta has
      the law of row 0 of V**-1 L (xi0, xi1), L the Cholesky factor of the
      noise covariance, drawn as (Re eta, Im eta) = (a*xi0, c*xi1 +
      b*xi0) from E|eta|**2 and E[eta**2].
    - Q < 1/2: two real poles, two real lanes, x = y_1 + y_2.
    - Q = 1/2: one double pole lambda = -omega0, and A is not
      diagonalisable.  u = v + omega0*x obeys du = lambda*u dt + sqrt(D)
      dW and dx = (lambda*x + u) dt, so u is the first lane and x the
      second, coupled to u by dt*exp(lambda*dt), with E[eta_x**k
      eta_u**(2-k)] = D*dt**(k+1) * J_k(2*lambda*dt), J_k(z) = integral of
      s**k * exp(z*s) over [0, 1] by its power series (|z| < pi, as
      sample_rate > 4*f0).
    """
    dt = 1.0 / sample_rate
    w0, half, rms = mode.omega0, 0.5 * mode.gamma, _mech.thermal_rms(mode)
    diffusion = 2.0 * mode.gamma * (w0 * rms) ** 2          # D
    if mode.q > 0.5:
        lam = complex(-half, w0 * math.sqrt(1.0 - (0.5 / mode.q) ** 2))
        power = 0.5 * (w0 * rms / lam.imag) ** 2            # E|y|**2
        square = power * mode.gamma / (2.0 * lam)           # E[y**2]
        return ([lam * dt], _complex_factor(power, square),
                _complex_factor(-power * math.expm1(-mode.gamma * dt),
                                -square * complex(np.expm1(2.0 * lam * dt))),
                0.0, (2.0, 0.0))
    if mode.q < 0.5:
        kappa = w0 * math.sqrt((0.5 / mode.q) ** 2 - 1.0)
        poles = (-w0 * w0 / (half + kappa), -half - kappa)  # slow, fast
        gg = diffusion / (2.0 * kappa) ** 2                 # g_1**2 = g_2**2
        pair = ((poles[0] + poles[0], gg), (poles[0] + poles[1], -gg),
                (poles[1] + poles[1], gg))
        return ([p * dt for p in poles],
                _factor(*(-g / s for s, g in pair)),
                _factor(*(g * math.expm1(s * dt) / s for s, g in pair)),
                0.0, (1.0, 1.0))
    z = -2.0 * w0 * dt
    j = [sum(z ** i / (math.factorial(i) * (i + k + 1)) for i in range(40))
         for k in range(3)]
    return ([-w0 * dt, -w0 * dt],
            _factor(2.0 * (w0 * rms) ** 2, w0 * rms * rms, rms * rms),
            _factor(diffusion * dt * j[0], diffusion * dt ** 2 * j[1],
                    diffusion * dt ** 3 * j[2]),
            dt * math.exp(-w0 * dt), (0.0, 1.0))


def _baseband_blocks(mode: MechMode, sample_rate: float, n: int, seed: int,
                     noise_floor: float) -> Callable:
    """The blocks() of synth_brownian's baseband record: x from
    _baseband_recursion's lanes, driven by the first of two streams
    spawned from the seed, plus white noise of variance
    noise_floor*sample_rate/2 from the second.  At temp 0 the stationary
    law is 0 and has no Cholesky factor: the drive is skipped, and the
    record is the floor alone."""
    p_dts, first, step, coupling, (w0, w1) = _baseband_recursion(
        mode, sample_rate)
    thermal = _mech.thermal_rms(mode) > 0
    rms_floor = math.sqrt(0.5 * noise_floor * sample_rate)

    def blocks():
        drive, floor = np.random.default_rng(seed).spawn(2)
        out = None
        if thermal:
            chunks = _recursion_chunks(p_dts, first, step, n, drive, coupling)
        else:
            chunks = (np.zeros((stop - start, 2)) for start, stop in _chunks(n))
        for pairs in chunks:
            m = pairs.shape[0]
            if out is None:     # the first chunk is the longest
                out, noise = np.empty(m), np.empty(m * (noise_floor > 0))
            x = np.multiply(pairs[:, 0], w0, out=out[:m])
            if w1:
                x += pairs[:, 1] * w1
            if noise_floor > 0:
                white = floor.standard_normal(out=noise[:m])
                white *= rms_floor
                x += white
            yield x

    return blocks


def _envelope_blocks(mode: MechMode, sample_rate: float, n: int, seed: int,
                     noise_floor: float, center_freq: float) -> Callable:
    """The blocks() of synth_brownian's band-centered record.

    The record is z[k] = mu*z[k-1] + eta[k] with mu = exp(p*dt) and pole
    p = -gamma/2 + 1j*(omega1 - 2*pi*center_freq), omega1 the damped
    frequency, plus independent complex white noise of one-sided density
    noise_floor.  z[0] is drawn from the stationary law, E|z|**2 =
    2*thermal_rms**2 (the physical signal Re[z*exp(2j*pi*center_freq*t)]
    has mean square thermal_rms**2), and eta[k] with E|eta|**2 =
    2*thermal_rms**2*(1 - |mu|**2), each quadrature independent: one
    complex lane of _recursion_chunks, driven by the first of two streams
    spawned from the seed; the floor comes from the second.
    """
    dt = 1.0 / sample_rate
    omega1 = mode.omega0 * math.sqrt(1.0 - (0.5 / mode.q) ** 2)
    p_dt = complex(-0.5 * mode.gamma, omega1 - TWO_PI * center_freq) * dt
    rms = _mech.thermal_rms(mode)                # of z's real part
    rms_eta = rms * math.sqrt(-math.expm1(2.0 * p_dt.real))
    rms_floor = math.sqrt(noise_floor * sample_rate)

    def blocks():
        drive, floor = np.random.default_rng(seed).spawn(2)
        noise = None
        for pairs in _recursion_chunks([p_dt], (rms, 0.0, rms),
                                       (rms_eta, 0.0, rms_eta), n, drive):
            z = pairs.view(complex)[:, 0]
            if noise_floor > 0:
                if noise is None:
                    noise = np.empty(pairs.shape)
                parts = noise[:z.size]
                floor.standard_normal(out=parts)
                parts *= rms_floor
                z += parts.view(complex)[:, 0]
            yield z

    return blocks


def synth_optical_ringdown(cav: _cavity.Cavity, sample_rate: float,
                           duration: float, snr: float,
                           seed: int) -> TimeSeries:
    """Transmitted power after shutoff at t=0, normalised to 1 at the
    shutoff: exp(-t/tau) plus white noise.

    The additive Gaussian noise has rms 1/snr; pass snr=inf for a clean
    exponential.
    """
    tau = cav.decay_tau
    if sample_rate < 20.0 / tau:
        raise ValueError("sample_rate must be >= 20/decay_tau")
    if duration < 5.0 * tau:
        raise ValueError("duration must be >= 5*decay_tau")
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    values = np.exp(-t / tau)
    if np.isfinite(snr):
        rng = np.random.default_rng(seed)
        values = values + (1.0 / snr) * rng.standard_normal(n)
    return TimeSeries(sample_rate, 0.0, values, calibration=1.0)


def synth_mech_ringdown(mode: MechMode, sample_rate: float, duration: float,
                        x0: float, seed: int,
                        snr: float = np.inf) -> BlockSeries:
    """Free decay x(t) = x0*exp(-t/tau_a)*cos(w0*t) with tau_a = 2*Q/w0,
    plus white noise of rms x0/snr: the raw record of a lock-in amplitude
    measurement (demodulate_envelope).

    The record is a BlockSeries that every blocks() call regenerates from
    the seed, a _CHUNK-sample block at a time in two work arrays, so it is
    never held whole.  Chunked standard_normal draws from one default_rng
    stream are bit-identical to one draw of the whole record, and each
    sample has the bits of the whole-array expressions in the comments.
    """
    if sample_rate < 8.0 * mode.f0:
        raise ValueError("sample_rate must be >= 8*f0 to resolve the carrier")
    n = int(round(duration * sample_rate))
    if n < 2:
        raise ValueError("duration too short for the sample rate")
    tau_a = 2.0 * mode.q / mode.omega0

    def blocks():
        rng = np.random.default_rng(seed)
        work = np.empty((2, min(n, _CHUNK)))
        for start, stop in _chunks(n):
            x, t = work[:, :stop - start]
            # x = x0 * np.exp(-t / tau_a) * np.cos(mode.omega0 * t) with
            # t = np.arange(n) / sample_rate, plus
            # (x0 / snr) * rng.standard_normal(n) if snr is finite
            np.divide(np.arange(start, stop), sample_rate, out=t)
            np.negative(t, out=x)
            x /= tau_a
            np.exp(x, out=x)
            x *= x0
            t *= mode.omega0
            x *= np.cos(t, out=t)
            if np.isfinite(snr):
                rng.standard_normal(out=t)
                t *= x0 / snr
                x += t
            yield x

    return BlockSeries(sample_rate, 0.0, n, float, blocks)


def demodulate_envelope(rec, f0: float,
                        cycles_per_block: int = 10) -> TimeSeries:
    """In-phase lock-in envelope of an oscillation at f0 in a real
    TimeSeries or BlockSeries.

    The record is mixed down at f0 and averaged over blocks of an integer
    number of carrier cycles; the output sample rate drops by the block
    length.  The envelope is twice the real part of the block means turned
    by the phase of their sum: it keeps the sign of the noise, free of the
    bias of 2*|mean|.  The record is read once, in order (rec.blocks()), in
    runs of whole blocks, about _CHUNK samples but at least one block: each
    run's phasor is built in one reused array, multiplied in place by the
    samples as the blocks hand them over, and reduced to its block means.
    Samples past the last whole block are never mixed.
    """
    if rec.is_complex:
        raise ValueError("envelope demodulation needs a real record")
    fs = rec.sample_rate
    n_blk = int(round(cycles_per_block * fs / f0))
    if n_blk < 2:
        raise ValueError("too few samples per demodulation block")
    n_out = rec.n // n_blk
    if n_out < 2:
        raise ValueError("record too short for envelope demodulation")
    n_use = n_out * n_blk
    z = np.empty(min(max(1, _CHUNK // n_blk) * n_blk, n_use), complex)
    env = np.empty(n_out, complex)
    start = fill = 0            # run[:fill]: samples start + [0, fill), mixed
    with contextlib.closing(rec.blocks()) as blocks:
        for block in blocks:
            block = block[:n_use - start - fill]
            while block.size:
                if not fill:
                    run = z[:min(z.size, n_use - start)]
                    _phasor(f0, rec, start, start + run.size, out=run)
                take = min(run.size - fill, block.size)
                part = run[fill:fill + take]
                np.multiply(block[:take], part, out=part)
                block = block[take:]
                fill += take
                if fill == run.size:
                    k = start // n_blk
                    env[k:k + fill // n_blk] = _block_means(run, n_blk)
                    start, fill = start + fill, 0
    env *= np.exp(-1j * np.angle(env.sum()))
    return TimeSeries(fs / n_blk, rec.t0 + 0.5 * n_blk / fs, 2.0 * env.real,
                      rec.calibration)


def _steady_state_response(freq_hz, model, mass_ratio):
    """Complex displacement ratio response/base at one drive frequency."""
    w = TWO_PI * freq_hz
    if isinstance(model, NestedModel):
        if mass_ratio is None:
            raise ValueError("mass_ratio is required for a NestedModel sweep")
        return _mech.chain_response(w, model, mass_ratio)
    mode = model
    w02 = mode.omega0 ** 2
    return w02 / (w02 - w * w + 1j * mode.gamma * w)


def synth_drive_sweep(model, freqs, amplitude: float, cycles_per_point: int = 200,
                      seed: int = 0, mass_ratio: float | None = None,
                      samples_per_cycle: int = 32,
                      base_noise_rms: float = 0.0,
                      response_noise_rms: float = 0.0,
                      piezo_corner_hz: float | None = None) -> list:
    """Swept-sine vibration transmission experiment.

    For each drive frequency the base motion is a pure sine and the response
    is the steady-state chain output plus measurement noise; records start
    after the transient, i.e. each one is pure steady state.  model is a
    NestedModel (needs mass_ratio) or a single MechMode.  piezo_corner_hz
    optionally rolls off the drive amplitude with a first-order low pass,
    which affects base and response alike.
    """
    freqs = list(freqs)
    if any(f <= 0 for f in freqs):
        raise ValueError("drive frequencies must be > 0")
    if sorted(freqs) != freqs:
        raise ValueError("drive frequencies must be sorted ascending")
    if cycles_per_point < 50:
        raise ValueError("cycles_per_point must be >= 50")
    rng = np.random.default_rng(seed)
    records = []
    for f in freqs:
        fs = samples_per_cycle * f
        n = samples_per_cycle * cycles_per_point
        t = np.arange(n) / fs
        drive_amp = amplitude
        if piezo_corner_hz is not None:
            drive_amp = amplitude / math.sqrt(1.0 + (f / piezo_corner_hz) ** 2)
        h = _steady_state_response(f, model, mass_ratio)
        phase = TWO_PI * f * t
        base = drive_amp * np.sin(phase)
        resp = drive_amp * np.abs(h) * np.sin(phase + np.angle(h))
        if base_noise_rms > 0:
            base = base + base_noise_rms * rng.standard_normal(n)
        if response_noise_rms > 0:
            resp = resp + response_noise_rms * rng.standard_normal(n)
        records.append(DriveRecord(
            drive_freq=f,
            base_motion=TimeSeries(fs, 0.0, base),
            response_motion=TimeSeries(fs, 0.0, resp),
        ))
    return records
