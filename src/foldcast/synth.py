"""Synthetic traffic generator: a desk-scale stand-in for real sensor data.

Each node carries a daily sinusoid with its own phase and amplitude,
modulated by a day-of-week factor, plus Gaussian noise and occasional
upward pulses (short spikes are a normal feature of real flow data).
With ``noise`` = 0 the signal is an exact deterministic function of the
(time-of-day, day-of-week) phase: no noise, no pulses.
"""
from __future__ import annotations

import numpy as np

from .data import TrafficSeries, advance_phase, start_phase

# timestamp of row 0: Monday 2021-01-04 00:00 UTC, so row 0 has dow 0
START = 1609718400

DOW_FACTOR = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.8, 0.75])

PULSE_RATE = 0.04


def generate_series(n_nodes, days, frequency, noise, seed):
    if n_nodes < 1 or days < 1 or frequency < 1:
        raise ValueError("n_nodes, days, frequency must all be >= 1")
    if not 0 <= noise < np.inf:  # written so that NaN fails too
        raise ValueError(f"noise must be finite and >= 0, got {noise}")
    if seed < 0:  # SeedSequence takes no negative entropy
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    steps = days * frequency
    base = rng.uniform(80.0, 120.0, size=n_nodes)
    amp = rng.uniform(20.0, 50.0, size=n_nodes)
    phase = rng.uniform(0.0, 1.0, size=n_nodes)

    tod, dow = advance_phase(*start_phase(START, frequency), np.arange(steps), frequency)
    frac = tod / frequency
    values = base[None, :] + (
        amp[None, :]
        * np.sin(2.0 * np.pi * (frac[:, None] + phase[None, :]))
        * DOW_FACTOR[dow][:, None]
    )
    if noise > 0:
        values = values + rng.normal(0.0, noise, size=values.shape)
        pulses = rng.random(values.shape) < PULSE_RATE
        values = values + pulses * rng.uniform(30.0, 60.0, size=values.shape)
    return TrafficSeries(values, frequency=frequency, start=START)
