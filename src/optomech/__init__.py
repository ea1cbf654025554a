"""Simulation and estimation toolkit for nested-resonator cavity optomechanics.

Subpackages:
    mech      - base-excited oscillator models and thermal motion
    cavity    - Fabry-Perot relations, cooling limits, lock fringe
    synth     - seeded synthetic measurement records
    estimate  - Welch PSD, line-shape/exponential fits, transfer estimation
    servo     - side-of-fringe PID lock and cold-damping arithmetic
    config    - run configuration and its validation
    io        - record, table and result-document file formats
    cli       - command-line interface: simulate, analyze, design-check, report

Importing the package sets OPENBLAS_NUM_THREADS to 1 unless it is already
set, before numpy loads: nothing here calls BLAS, and a pool of idle BLAS
threads only costs start-up time.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import constants
from .cavity import (Cavity, fringe_response, fringe_slope,
                     ground_state_feasible, linewidth, min_phonons,
                     ringdown_tau, sideband_ratio)
from .config import Config, ConfigError, config_from_dict
from .estimate import (EstimationError, FitResult, Spectrum, TransferEstimate,
                       detect_onset, estimate_transfer, fit_exp_decay,
                       fit_lorentzian, welch_psd)
from .mech import (MechMode, NestedModel, chain_response, chain_transfer,
                   isolation_db, thermal_psd, thermal_rms, transfer_power)
from .servo import (CoolingConfig, LockConfig, LockResult, effective_temperature,
                    optical_damping_rate, simulate_lock)
from .synth import (BlockSeries, DriveRecord, TimeSeries, demodulate_envelope,
                    synth_brownian, synth_drive_sweep, synth_mech_ringdown,
                    synth_optical_ringdown)

__version__ = "0.1.0"
