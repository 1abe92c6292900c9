"""Traffic-series loading, z-score normalization, windowing, and the
historical-average baseline.

A series is a (steps x nodes) float64 matrix with timing metadata: the
sampling frequency (samples per day, dividing a day evenly) and the epoch
timestamp of row 0. Two on-disk forms are supported: a text format with a
``N=.. FREQ=.. START=..`` header followed by comma-separated rows, and a
binary container with magic ``STSF1``.
"""
from __future__ import annotations

import itertools
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .fileio import atomic_open

SECONDS_PER_DAY = 86400
BINARY_MAGIC = b"STSF1"


@dataclass
class TrafficSeries:
    """Raw (steps x nodes) signal matrix plus timing metadata."""

    values: np.ndarray
    frequency: int
    start: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] == 0:
            raise DataError(f"series must be steps x nodes, nodes >= 1; got {self.values.shape}")
        if self.frequency <= 0:
            raise DataError(f"frequency must be positive, got {self.frequency}")
        if SECONDS_PER_DAY % self.frequency != 0:
            raise DataError(
                f"frequency {self.frequency} does not divide a day evenly"
            )
        if not np.all(np.isfinite(self.values)):
            raise DataError("series contains NaN/Inf values")

    @property
    def step_count(self):
        return self.values.shape[0]

    @property
    def node_count(self):
        return self.values.shape[1]

    def phases(self, rows):
        """(tod, dow) phases of series rows ``rows`` (an int or an array),
        tod in [0, frequency) and dow in [0, 7), advanced from row 0's."""
        tod, dow = start_phase(self.start, self.frequency)
        return advance_phase(tod, dow, rows, self.frequency)


def start_phase(start, frequency):
    """(tod, dow) phase of epoch second ``start`` at ``frequency`` samples
    per day; dow 0 = Monday (epoch day 0 was a Thursday)."""
    day, second = divmod(start, SECONDS_PER_DAY)
    return second * frequency // SECONDS_PER_DAY, (day + 3) % 7


def advance_phase(tod, dow, steps, frequency):
    """(tod, dow) phases ``steps`` rows after phase (tod, dow), elementwise
    over arrays: tod advances one per row and dow rolls when tod wraps.
    This is the one calendar rule; every phase in the package comes from it."""
    raw = tod + steps
    return raw % frequency, (dow + raw // frequency) % 7


@dataclass
class SampleWindow:
    """One training example: T input steps and T' target steps per node.

    ``input`` is (N x T) node-major, ``target`` is (N x T'); both are
    read-only views into the series they were cut from. ``anchor_t`` is
    the series row index of the last input step, and tod/dow phases are
    taken at that anchor.
    """

    input: np.ndarray
    target: np.ndarray
    anchor_t: int
    tod_index: int
    dow_index: int


@dataclass
class NormStats:
    mean: float
    std: float


def load_series(path):
    """Load a series from ``path``: binary if it starts with the binary
    magic, text otherwise."""
    try:
        with open(path, "rb") as fh:
            binary = fh.read(5) == BINARY_MAGIC
        return _load_binary(path) if binary else _load_text(path)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
    except OSError as exc:  # a directory, an unreadable file
        raise DataError(f"cannot read dataset: {exc}") from exc


def _load_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        fields = {}
        for part in header.split():
            if "=" not in part:
                raise DataError(f"{path}: malformed header field {part!r}")
            key, val = part.split("=", 1)
            if key in fields:
                raise DataError(f"{path}: header field {key!r} given twice in {header!r}")
            fields[key] = val
        try:
            n = int(fields["N"])
            freq = int(fields["FREQ"])
            start = int(fields["START"])
        except (KeyError, ValueError) as exc:
            raise DataError(f"{path}: bad header {header!r}") from exc
        lines = (line for line in fh if not line.isspace())
        first = next(lines, None)
        if first is None:  # checked here because loadtxt warns on empty input
            raise DataError(f"{path}: no data rows")
        values = reason = None
        try:
            values = np.loadtxt(
                itertools.chain([first], lines),
                dtype=np.float64, delimiter=",", comments=None, ndmin=2,
            )
        except ValueError as exc:
            reason = str(exc)
    if values is None or values.shape[1] != n:
        _check_text_rows(path, n)
        raise DataError(f"{path}: {reason}")
    return TrafficSeries(values, frequency=freq, start=start)


def _check_text_rows(path, n):
    """Re-read the data rows of text file ``path`` one cell at a time and
    raise DataError naming the first row or cell that is not ``n`` floats."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != n:
                raise DataError(
                    f"{path}: row {lineno} has {len(cells)} cells, expected {n}"
                )
            for col, cell in enumerate(cells):
                core = cell.strip()
                try:
                    # float() alone also reads "1_0" and non-ASCII digits,
                    # which loadtxt refuses
                    if not core.isascii() or "_" in core:
                        raise ValueError(core)
                    float(core)
                except ValueError as exc:
                    raise DataError(
                        f"{path}: non-numeric cell at row {lineno}, col {col}: {cell!r}"
                    ) from exc


def _load_binary(path):
    with open(path, "rb") as fh:
        magic = fh.read(5)
        if magic != BINARY_MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}")
        head = fh.read(32)
        if len(head) != 32:
            raise DataError(f"{path}: truncated binary header")
        steps, n, freq = struct.unpack("<QQQ", head[:24])
        (start,) = struct.unpack("<q", head[24:])
        # the header's sizes are checked against the bytes present before
        # any buffer is sized from them
        nbytes = steps * n * 8
        present = os.fstat(fh.fileno()).st_size - fh.tell()
        if present < nbytes:
            raise DataError(f"{path}: truncated payload")
        try:
            values = np.empty((steps, n), dtype="<f8")
        except ValueError as exc:  # an empty series with a dimension numpy cannot hold
            raise DataError(f"{path}: bad shape {steps} x {n}") from exc
        if present > nbytes:
            raise DataError(f"{path}: {present - nbytes} trailing bytes after the payload")
        if fh.readinto(values) != nbytes:
            raise DataError(f"{path}: truncated payload")
    return TrafficSeries(values, frequency=int(freq), start=int(start))


def save_series(series, path, format="text"):
    if format == "text":
        with atomic_open(path, encoding="utf-8") as fh:
            fh.write(f"N={series.node_count} FREQ={series.frequency} START={series.start}\n")
            for row in series.values:
                fh.write(",".join(repr(float(v)) for v in row))
                fh.write("\n")
    elif format == "binary":
        with atomic_open(path, "wb") as fh:
            fh.write(BINARY_MAGIC)
            fh.write(struct.pack("<QQQ", series.step_count, series.node_count, series.frequency))
            fh.write(struct.pack("<q", series.start))
            fh.write(series.values.astype("<f8").tobytes())
    else:
        raise DataError(f"unknown series format {format!r}")


def fit_normalizer(series, train_fraction):
    """Mean/std over the first floor(train_fraction * steps) rows, all
    nodes pooled."""
    if not 0 < train_fraction <= 1:
        raise ValueError(f"train_fraction must be in (0, 1], got {train_fraction}")
    rows = int(np.floor(train_fraction * series.step_count + 1e-9))
    if rows < 1:
        raise DataError("train fraction covers no rows")
    chunk = series.values[:rows]
    std = float(chunk.std())
    if std == 0.0:
        raise DataError("degenerate dataset: zero variance in the training slice")
    return NormStats(mean=float(chunk.mean()), std=std)


def apply_zscore(series, stats):
    return TrafficSeries(
        (series.values - stats.mean) / stats.std,
        frequency=series.frequency,
        start=series.start,
    )


def invert_zscore(values, stats):
    return np.asarray(values) * stats.std + stats.mean


def split_boundaries(steps, split):
    """Row indices (r1, r2) of the train/val and val/test boundaries."""
    s0, s1, s2 = split
    if abs(s0 + s1 + s2 - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {split}")
    r1 = int(np.floor(s0 * steps + 1e-9))
    r2 = int(np.floor((s0 + s1) * steps + 1e-9))
    return r1, r2


def make_windows(series, t_in, horizon, split=(0.6, 0.2, 0.2)):
    """Slide a (T + T') window over the series and split chronologically.

    A window with start row k belongs to train when it fits entirely below
    the train row boundary (so no train target crosses it), to val when it
    fits below the val/test boundary, and to test otherwise. Every window
    is assigned to exactly one split. Windows are read-only views of one
    node-major view of ``series.values``, so windowing copies no data.
    """
    if t_in < 1 or horizon < 1:
        raise ValueError("window lengths must be >= 1")
    steps = series.step_count
    total = steps - t_in - horizon + 1
    if total < 1:
        raise DataError(
            f"series too short: {steps} steps cannot fit T={t_in} + T'={horizon}"
        )
    r1, r2 = split_boundaries(steps, split)
    span = t_in + horizon
    node_major = series.values.T
    node_major.flags.writeable = False
    tods, dows = series.phases(np.arange(t_in - 1, t_in - 1 + total))
    out = ([], [], [])
    for k, tod, dow in zip(range(total), tods.tolist(), dows.tolist()):
        end = k + span
        window = SampleWindow(
            input=node_major[:, k : k + t_in],
            target=node_major[:, k + t_in : end],
            anchor_t=k + t_in - 1,
            tod_index=tod,
            dow_index=dow,
        )
        if end <= r1:
            out[0].append(window)
        elif end <= r2:
            out[1].append(window)
        else:
            out[2].append(window)
    return out


def stack_windows(windows):
    """Batch arrays of a window list: (inputs (B, N, T), targets (B, N, T'),
    tod (B,), dow (B,))."""
    return (
        np.stack([w.input for w in windows]),
        np.stack([w.target for w in windows]),
        np.array([w.tod_index for w in windows]),
        np.array([w.dow_index for w in windows]),
    )


class HAModel:
    """Per-node, per-(tod, dow)-phase training means with node-mean fallback."""

    def __init__(self, phase_mean, node_mean, frequency):
        self.phase_mean = phase_mean  # (freq, 7, N), NaN where unseen
        self.node_mean = node_mean  # (N,)
        self.frequency = frequency

    def predict(self, window):
        """N x T' forecast for the window's target rows."""
        steps = np.arange(1, window.target.shape[1] + 1)
        tod, dow = advance_phase(window.tod_index, window.dow_index, steps, self.frequency)
        cols = self.phase_mean[tod, dow].T
        return np.ascontiguousarray(np.where(np.isnan(cols), self.node_mean[:, None], cols))


def ha_fit(train_windows, t_in, frequency):
    """Accumulate phase means from the rows the training windows cover.

    Overlapping windows see the same row values, so each distinct row is
    counted once, in row order, whatever the order of ``train_windows``.
    """
    if not train_windows:
        raise DataError("HA baseline needs a non-empty training set")
    n, horizon = train_windows[0].target.shape
    starts = np.array([w.anchor_t for w in train_windows]) - (t_in - 1)  # first covered rows
    lo = starts.min()
    # a (row x N) table over the covered row range and which rows a window covers
    table = np.empty((starts.max() - lo + t_in + horizon, n))
    covered = np.zeros(len(table), dtype=bool)
    for w, k in zip(train_windows, (starts - lo).tolist()):
        table[k : k + t_in] = w.input.T
        table[k + t_in : k + t_in + horizon] = w.target.T
        covered[k : k + t_in + horizon] = True
    rows = np.flatnonzero(covered)
    values = table[rows]
    ref = train_windows[0]  # every row's phase, stepped from one window's anchor
    tod, dow = advance_phase(ref.tod_index, ref.dow_index, rows + lo - ref.anchor_t, frequency)
    sums = np.zeros((frequency, 7, n))
    counts = np.zeros((frequency, 7, 1))
    np.add.at(sums, (tod, dow), values)
    np.add.at(counts, (tod, dow), 1)
    with np.errstate(invalid="ignore"):
        phase_mean = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return HAModel(phase_mean, values.sum(axis=0) / len(rows), frequency)
