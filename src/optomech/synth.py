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

No long record is held whole unless a command needs it.  The
band-centered Brownian record and the mechanical ringdown are BlockSeries
that regenerate themselves from the seed, a chunk at a time, on every
read: the Brownian envelope by its exact recursion (_envelope_blocks),
the ringdown in two work arrays (synth_mech_ringdown).
demodulate_envelope cuts the blocks of any record into runs of whole
demodulation blocks, so the ringdown, its envelope and either written
record (io.write_timeseries) each take a few MB at any record length.
The baseband Brownian record (the lock's motion) is one irfft of a half
spectrum built in place, _CHUNK bins at a time, its normal draws in one
reused _CHUNK-sample buffer (_baseband_values): the spectrum and the
record, pocketfft's scratch aside.
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
    synth_mech_ringdown, synth_brownian's band-centered record,
    simulate_lock's error signal and detuning).

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
                   center_freq: float | None = None) -> TimeSeries | BlockSeries:
    """Stationary Gaussian record of the mode's thermal motion plus white
    noise of one-sided density noise_floor.

    Without center_freq the record is a real baseband TimeSeries whose
    spectrum is thermal_psd(f) + noise_floor: white Gaussian bins shaped by
    sqrt of the target PSD and inverse transformed (_baseband_values), so
    the target is hit exactly in expectation with no integrator bias even
    at Q ~ 1e5.

    With center_freq set, the record is a complex envelope covering
    [center_freq - sample_rate/2, center_freq + sample_rate/2]; use this
    for narrow lines where a baseband record would be enormous.  It is the
    exact discretisation of the thermally driven mode (Gillespie, PRE 54,
    2084 (1996)), a complex Ornstein-Uhlenbeck recursion with its first
    sample drawn from the stationary law, so its physical signal has mean
    square thermal_rms**2 + noise_floor*sample_rate at every record
    length.  Its spectrum is the Lorentzian of the line aliased into the
    band, plus noise_floor.  The mode must be underdamped, Q > 1/2, for
    the recursion's complex pole.  The record is a BlockSeries that every
    blocks() call regenerates from the seed a chunk at a time
    (_envelope_blocks), so it is never held whole.
    """
    n = _check_brownian(mode, sample_rate, duration, noise_floor,
                        center_freq)
    warnings = ()
    if duration * mode.f0 / mode.q < 10.0:
        warnings = ("duration_too_short_to_resolve_linewidth",)
    if center_freq is None:
        values = _baseband_values(mode, sample_rate, n, seed, noise_floor)
        return TimeSeries(sample_rate, 0.0, values, warnings=warnings)
    return BlockSeries(sample_rate, 0.0, n, complex,
                       _envelope_blocks(mode, sample_rate, n, seed,
                                        noise_floor, center_freq),
                       center_freq=center_freq, warnings=warnings)


def _check_brownian(mode: MechMode, sample_rate: float, duration: float,
                    noise_floor: float, center_freq: float | None) -> int:
    """synth_brownian's checks of its arguments, made before anything is
    drawn, each raising ValueError; the record's sample count."""
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


def _baseband_values(mode: MechMode, sample_rate: float, n: int, seed: int,
                     noise_floor: float) -> np.ndarray:
    """The n-sample irfft of a half spectrum of white Gaussian bins shaped
    by sqrt of the target PSD thermal_psd(f) + noise_floor.

    The half spectrum is built in place in one complex array, _CHUNK bins
    at a time: amp/2 goes into spec.imag, the a draws times it into
    spec.real, then the b draws multiply spec.imag.  Both passes draw into
    one reused _CHUNK-sample buffer, and a chunk's amp is freed before the
    next one is computed, so the heap that the chunks leave beneath the
    irfft stays small.  Chunked draws from one default_rng stream equal
    one whole draw, and each bin has the bits of (a + 1j*b) * (amp/2) over
    whole arrays, amp = sqrt(target * fs * n) at np.fft.rfftfreq(n, 1/fs);
    the DC and Nyquist bins are real, a * amp.
    """
    rng = np.random.default_rng(seed)
    m = n // 2 + 1
    spec = np.empty(m, dtype=np.complex128)
    df = 1.0 / (n * (1.0 / sample_rate))        # np.fft.rfftfreq's bin width
    for start, stop in _chunks(m):
        amp = _mech.thermal_psd(np.arange(start, stop) * df, mode)
        amp += noise_floor
        amp *= sample_rate
        amp *= n
        np.sqrt(amp, out=amp)
        if start == 0:
            amp_dc = amp[0]
        if stop == m:
            amp_nyquist = amp[-1]
        np.divide(amp, 2.0, out=spec.imag[start:stop])
        del amp                 # not live beside the next chunk's temporaries
    draws = np.empty(min(m, _CHUNK))
    for start, stop in _chunks(m):
        a = rng.standard_normal(out=draws[:stop - start])
        if start == 0:
            dc = a[0] * amp_dc
        if stop == m:
            nyquist = a[-1] * amp_nyquist
        np.multiply(a, spec.imag[start:stop], out=spec.real[start:stop])
    for start, stop in _chunks(m):
        spec.imag[start:stop] *= rng.standard_normal(out=draws[:stop - start])
    spec[0] = dc
    if n % 2 == 0:
        spec[-1] = nyquist
    return np.fft.irfft(spec, n)


# the largest growth |mu|**-k within a run of the envelope recursion, as a
# power of e: it bounds the run's rounding error to about e**4 ulps of the
# record's rms
_RUN_GROWTH = 4.0


def _envelope_blocks(mode: MechMode, sample_rate: float, n: int, seed: int,
                     noise_floor: float, center_freq: float) -> Callable:
    """The blocks() of synth_brownian's band-centered record.

    The record is z[k] = mu*z[k-1] + eta[k] with mu = exp(p*dt) and pole
    p = -gamma/2 + 1j*(omega1 - 2*pi*center_freq), omega1 the damped
    frequency, plus independent complex white noise of one-sided density
    noise_floor.  z[0] is drawn from the stationary law, E|z|**2 =
    2*thermal_rms**2 (the physical signal Re[z*exp(2j*pi*center_freq*t)]
    has mean square thermal_rms**2), and eta[k] with E|eta|**2 =
    2*thermal_rms**2*(1 - |mu|**2).

    A chunk of about _CHUNK samples is cut into rows of `run` samples.
    From the state c before a row, z[k] = mu**k * (mu*c + cumsum(mu**-j *
    eta[j])[k]) for k = 0 .. run-1: one cumsum for all rows, and the states
    carry from row to row in a loop over rows.  |mu|**-(run-1) stays
    within e**_RUN_GROWTH, and a row of one sample needs no mu**-1 at any
    damping.  The drive and the floor come from two streams spawned from
    the seed and drawn a chunk at a time, so the record is the same, up to
    rounding, at any chunk size.
    """
    dt = 1.0 / sample_rate
    omega1 = mode.omega0 * math.sqrt(1.0 - (0.5 / mode.q) ** 2)
    p_dt = complex(-0.5 * mode.gamma, omega1 - TWO_PI * center_freq) * dt
    decay = -p_dt.real                           # -log|mu|, per sample
    run = (_CHUNK if decay * _CHUNK <= _RUN_GROWTH
           else 1 + int(_RUN_GROWTH / decay))
    rows = max(1, min(_CHUNK, n) // run)
    k = np.arange(run)
    up = np.exp(p_dt * k)                        # mu**k
    down = np.exp(-p_dt * k)                     # mu**-k
    mu_run = complex(np.exp(p_dt * run))         # mu**run
    rms = _mech.thermal_rms(mode)                # of z's real part
    rms_eta = rms * math.sqrt(-math.expm1(-2.0 * decay))
    rms_floor = math.sqrt(noise_floor * sample_rate)

    def blocks():
        drive, floor = np.random.default_rng(seed).spawn(2)
        z, w = np.empty((2, rows, run), complex)
        flat, noise = z.reshape(-1), w.reshape(-1)
        d = 0j                                   # mu * the state before a row
        for start in range(0, n, flat.size):
            m = min(flat.size, n - start)
            used = z[:-(-m // run)]              # the rows the chunk fills
            parts = flat[:m].view(float)
            drive.standard_normal(out=parts)
            if start == 0:
                parts[:2] *= rms
                parts[2:] *= rms_eta
            else:
                parts *= rms_eta
            flat[m:] = 0.0
            used *= down
            np.cumsum(used, axis=1, out=used)
            states = []
            for end in used[:, -1].tolist():
                states.append(d)
                d = mu_run * (d + end)
            used += np.array(states)[:, None]
            used *= up
            if noise_floor > 0:
                parts = noise[:m].view(float)
                floor.standard_normal(out=parts)
                parts *= rms_floor
                flat[:m] += noise[:m]
            yield flat[:m]

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
