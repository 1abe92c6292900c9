"""Data pipeline: loading, normalization, windowing, and the HA baseline."""
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from foldcast.data import (
    BINARY_MAGIC,
    NormStats,
    TrafficSeries,
    apply_zscore,
    fit_normalizer,
    ha_fit,
    invert_zscore,
    load_series,
    make_windows,
    save_series,
    split_boundaries,
)
from foldcast.errors import DataError

MONDAY = 1609718400  # 2021-01-04 00:00 UTC


def series_from(values, frequency=24, start=MONDAY):
    return TrafficSeries(np.asarray(values, dtype=float), frequency=frequency, start=start)


class TestLoadSave:
    def test_text_round_trip(self, tmp_path):
        series = series_from([[1.5, 2.25], [3.0, 4.125]], frequency=24)
        path = tmp_path / "tiny.txt"
        save_series(series, path)
        back = load_series(path)
        assert back.values.shape == (2, 2)
        assert np.array_equal(back.values, series.values)
        assert back.frequency == 24 and back.start == MONDAY

    def test_binary_round_trip_large_shape(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((16992, 307))
        series = TrafficSeries(values, frequency=288, start=MONDAY)
        path = tmp_path / "big.bin"
        save_series(series, path, format="binary")
        back = load_series(path)  # auto-detects the magic
        assert back.values.shape == (16992, 307)
        assert back.frequency == 288
        assert np.array_equal(back.values, values)

    @pytest.mark.parametrize(
        "steps,nodes,match",
        [(2**40, 2**20, "truncated"), (0, 2**63, "bad shape"), (0, 2**62, "bad shape")],
        ids=["larger_than_file", "empty_too_wide", "empty_too_big"],
    )
    def test_unrepresentable_binary_header_rejected(self, tmp_path, steps, nodes, match):
        path = tmp_path / "huge.bin"
        path.write_bytes(BINARY_MAGIC + struct.pack("<QQQq", steps, nodes, 24, MONDAY) + bytes(16))
        with pytest.raises(DataError, match=match):
            load_series(path)

    def test_binary_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.bin"
        save_series(series_from([[1.0, 2.0], [3.0, 4.0]]), path, format="binary")
        path.write_bytes(path.read_bytes() + bytes(3))
        with pytest.raises(DataError, match="3 trailing bytes"):
            load_series(path)

    def test_non_utf8_text_rejected(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(f"N=1 FREQ=24 START={MONDAY}\n1.0\n".encode() + b"\xe9\xff\n")
        with pytest.raises(DataError, match="UTF-8"):
            load_series(path)

    def test_two_step_single_node(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text(f"N=1 FREQ=24 START={MONDAY}\n1.0\n2.0\n")
        series = load_series(path)
        assert series.values.shape == (2, 1)

    def test_non_numeric_cell_names_row_and_col(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(f"N=2 FREQ=24 START={MONDAY}\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(DataError, match="row 3.*col 1"):
            load_series(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text(f"N=2 FREQ=24 START={MONDAY}\n1.0,2.0\n3.0\n")
        with pytest.raises(DataError, match="row 3"):
            load_series(path)

    def test_bad_frequency_rejected(self, tmp_path):
        path = tmp_path / "freq.txt"
        path.write_text(f"N=1 FREQ=0 START={MONDAY}\n1.0\n")
        with pytest.raises(DataError):
            load_series(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text(f"N=1 FREQ=24 START={MONDAY}\nnan\n")
        with pytest.raises(DataError):
            load_series(path)


class TestTextLoader:
    """Edge cases of the text format that the loader must keep."""

    def write(self, tmp_path, n, body):
        path = tmp_path / "edge.txt"
        path.write_bytes(f"N={n} FREQ=24 START={MONDAY}\n".encode() + body.encode())
        return path

    def test_blank_and_whitespace_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, 2, "\n  \t\n1.0,2.0\n\n \n3.0,4.0\n\t\n\n")
        assert load_series(path).values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_crlf_and_padded_cells(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(f"N=2 FREQ=24 START={MONDAY}\r\n 1.5 ,2.0\r\n3.0,\t4.25 \r\n".encode())
        series = load_series(path)
        assert series.values.tolist() == [[1.5, 2.0], [3.0, 4.25]]
        assert series.start == MONDAY

    @pytest.mark.parametrize("cell", ["", "#2"], ids=["trailing_comma", "hash"])
    def test_bad_cell_names_row_and_col(self, tmp_path, cell):
        path = self.write(tmp_path, 2, f"1.0,2.0\n\n3.0,{cell}\n")
        with pytest.raises(DataError, match=rf"non-numeric cell at row 4, col 1: {cell!r}"):
            load_series(path)

    def test_every_row_too_wide(self, tmp_path):
        path = self.write(tmp_path, 2, "1.0,2.0,3.0\n4.0,5.0,6.0\n")
        with pytest.raises(DataError, match="row 2 has 3 cells, expected 2"):
            load_series(path)

    @pytest.mark.parametrize("body", ["", "\n \n"], ids=["header_only", "blank_lines"])
    def test_no_data_rows_warns_nothing(self, tmp_path, body):
        path = self.write(tmp_path, 2, body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="no data rows"):
                load_series(path)

    def test_digit_separator_rejected(self, tmp_path):
        # float() reads "1_0" as 10.0; a dataset cell must be a plain decimal
        path = self.write(tmp_path, 1, "1.0\n1_0\n")
        with pytest.raises(DataError, match="1_0"):
            load_series(path)

    @given(
        values=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    @example(values=np.array([[-0.0, 0.0, 5e-324, -2.2250738585072009e-308]]))
    @example(values=np.array([[np.finfo(float).max], [-np.finfo(float).max]]))
    @settings(max_examples=200, deadline=None)
    def test_text_round_trip_is_bitwise(self, tmp_path_factory, values):
        path = tmp_path_factory.getbasetemp() / "round_trip.txt"
        save_series(series_from(values), path)
        back = load_series(path).values
        assert back.shape == values.shape
        assert np.array_equal(back.view(np.uint64), values.view(np.uint64))

    def test_text_and_binary_loads_agree(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((40, 7)) * 10.0 ** rng.integers(-300, 300, (40, 7))
        values[0, :4] = [-0.0, 5e-324, np.finfo(float).max, -np.finfo(float).tiny]
        series = series_from(values)
        save_series(series, tmp_path / "s.txt")
        save_series(series, tmp_path / "s.bin", format="binary")
        text, binary = load_series(tmp_path / "s.txt"), load_series(tmp_path / "s.bin")
        assert np.array_equal(text.values.view(np.uint64), binary.values.view(np.uint64))
        assert np.array_equal(text.values.view(np.uint64), values.view(np.uint64))


class TestTiming:
    def test_tod_follows_start_offset(self):
        # start three steps past midnight: tod of row k is (3 + k) mod freq
        series = series_from(np.zeros((30, 1)), frequency=24, start=MONDAY + 3 * 3600)
        rows = np.array([0, 5, 21, 25])
        tod, _ = series.phases(rows)
        assert tod.tolist() == [(3 + k) % 24 for k in rows]

    def test_dow_rolls_at_midnight(self):
        series = series_from(np.zeros((60, 1)), frequency=24, start=MONDAY)
        _, dow = series.phases(np.array([0, 23, 24, 24 * 6]))
        assert dow.tolist() == [0, 0, 1, 6]  # Monday, Monday, Tuesday, Sunday

    @given(
        frequency=st.sampled_from([f for f in range(1, 86401) if 86400 % f == 0]),
        start=st.integers(-(2**63), 2**63 - 1),  # the binary header's start is signed
        rows=st.lists(st.integers(0, 10**7), min_size=1, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_phases_match_timestamp_oracle(self, frequency, start, rows):
        step = 86400 // frequency
        tod, dow = TrafficSeries(np.zeros((1, 1)), frequency, start).phases(np.array(rows))
        assert tod.tolist() == [((start + k * step) % 86400) // step for k in rows]
        assert dow.tolist() == [((start + k * step) // 86400 + 3) % 7 for k in rows]


class TestNormalizer:
    def test_constant_series_is_degenerate(self):
        with pytest.raises(DataError, match="variance"):
            fit_normalizer(series_from(np.full((10, 2), 5.0)), 1.0)

    def test_two_value_stats(self):
        series = series_from(np.array([[0.0], [10.0]] * 5))
        stats = fit_normalizer(series, 1.0)
        assert stats.mean == 5.0 and stats.std == 5.0

    def test_fraction_selects_leading_rows(self):
        values = np.arange(10.0)[:, None]
        series = series_from(values)
        stats = fit_normalizer(series, 0.6)
        assert stats.mean == np.mean(values[:6])
        assert stats.std == np.std(values[:6])

    def test_zscore_points(self):
        stats = NormStats(mean=5.0, std=5.0)
        series = series_from(np.array([[5.0], [10.0]]))
        normed = apply_zscore(series, stats)
        assert normed.values[0, 0] == 0.0
        assert normed.values[1, 0] == 1.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_identity(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((8, 3)) * rng.uniform(0.5, 100) + rng.uniform(-50, 50)
        series = series_from(values)
        stats = NormStats(mean=float(rng.uniform(-10, 10)), std=float(rng.uniform(0.1, 30)))
        back = invert_zscore(apply_zscore(series, stats).values, stats)
        assert np.max(np.abs(back - values)) < 1e-12


class TestWindows:
    def test_total_count(self):
        series = series_from(np.arange(20.0).reshape(10, 2))
        train, val, test = make_windows(series, 3, 2, (0.6, 0.2, 0.2))
        assert len(train) + len(val) + len(test) == 6

    def test_all_train_split(self):
        series = series_from(np.arange(20.0).reshape(10, 2))
        train, val, test = make_windows(series, 3, 2, (1.0, 0.0, 0.0))
        assert len(train) == 6 and not val and not test

    def test_window_contents_and_anchor(self):
        values = np.arange(10.0)[:, None]
        series = series_from(values)
        train, _, _ = make_windows(series, 3, 2, (1.0, 0.0, 0.0))
        w = train[2]  # start row 2
        assert np.array_equal(w.input, [[2.0, 3.0, 4.0]])
        assert np.array_equal(w.target, [[5.0, 6.0]])
        assert w.anchor_t == 4
        assert (w.tod_index, w.dow_index) == series.phases(4)

    def test_no_train_target_crosses_boundary(self):
        series = series_from(np.zeros((50, 2)), frequency=24)
        train, val, test = make_windows(series, 4, 3, (0.6, 0.2, 0.2))
        r1, r2 = split_boundaries(50, (0.6, 0.2, 0.2))
        for w in train:
            assert w.anchor_t + 3 < r1 + 1  # last target row index <= r1-1
        for w in val:
            assert w.anchor_t + 3 >= r1
            assert w.anchor_t + 3 < r2 + 1
        for w in test:
            assert w.anchor_t + 3 >= r2

    def test_windows_are_read_only_views_of_the_series(self):
        series = series_from(np.arange(24.0).reshape(8, 3))
        train, val, test = make_windows(series, 3, 2, (0.5, 0.25, 0.25))
        for w in train + val + test:
            assert np.shares_memory(w.input, series.values)
            assert np.shares_memory(w.target, series.values)
            with pytest.raises(ValueError):
                w.input[0, 0] = 1.0
            with pytest.raises(ValueError):
                w.target[0, 0] = 1.0
        assert series.values.flags.writeable

    def test_too_short_series(self):
        with pytest.raises(DataError, match="too short"):
            make_windows(series_from(np.zeros((4, 1))), 3, 2)

    @given(
        steps=st.integers(8, 60),
        t_in=st.integers(1, 6),
        horizon=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_counts_partition_total(self, steps, t_in, horizon):
        if steps < t_in + horizon:
            return
        series = series_from(np.random.default_rng(0).standard_normal((steps, 2)))
        train, val, test = make_windows(series, t_in, horizon)
        assert len(train) + len(val) + len(test) == steps - t_in - horizon + 1


def daily_sinusoid(days, freq, n_nodes=3, start=MONDAY):
    steps = days * freq
    t = np.arange(steps)
    base = 100.0 + 10.0 * np.arange(n_nodes)
    values = base[None, :] + 50.0 * np.sin(2 * np.pi * (t % freq) / freq)[:, None]
    return TrafficSeries(values, frequency=freq, start=start)


class TestHistoricalAverage:
    def test_constant_series_predicted_exactly(self):
        series = series_from(np.full((60, 2), 7.0), frequency=12)
        train, _, test = make_windows(series, 4, 2, (0.8, 0.0, 0.2))
        pred = ha_fit(train, 4, series.frequency).predict(test[0])
        assert np.max(np.abs(pred - test[0].target)) < 1e-12

    def test_daily_sinusoid_mape_under_one_percent(self):
        # 14 days guarantees every (tod, dow) phase appears in the train
        # rows, so phase means are exact and the oracle below must agree
        series = daily_sinusoid(days=14, freq=24)
        train, _, test = make_windows(series, 6, 4, (0.6, 0.2, 0.2))
        model = ha_fit(train, 6, series.frequency)
        query = test[-1]
        pred = model.predict(query)
        mape = np.mean(np.abs(pred - query.target) / np.abs(query.target)) * 100
        assert mape < 1.0

        # independent closed-form oracle: average raw rows per phase
        r1, _ = split_boundaries(series.step_count, (0.6, 0.2, 0.2))
        tod, dow = series.phases(np.arange(series.step_count))
        truth = np.zeros_like(pred)
        for j in range(4):
            k = query.anchor_t + 1 + j
            rows = (tod[:r1] == tod[k]) & (dow[:r1] == dow[k])
            truth[:, j] = series.values[:r1][rows].mean(axis=0)
        assert np.max(np.abs(pred - truth)) < 1e-9

    def test_unseen_phase_falls_back_to_node_mean(self):
        # two days of train data: the query's Wednesday phases never occur
        series = daily_sinusoid(days=4, freq=12)
        train, _, test = make_windows(series, 3, 2, (0.5, 0.0, 0.5))
        model = ha_fit(train, 3, series.frequency)
        query = test[-1]
        pred = model.predict(query)
        assert np.allclose(pred, np.tile(model.node_mean[:, None], (1, 2)))

    def test_empty_train_set_rejected(self):
        with pytest.raises(DataError):
            ha_fit([], 3, 24)
