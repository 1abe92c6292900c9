"""End-to-end command-line behavior and exit codes."""
import csv
import os
import struct
import sys

import numpy as np
import pytest

from foldcast.checkpoint import save_checkpoint
from foldcast.cli import _write, main
from foldcast.model import ModelParams

TINY = """\
dataset = {dataset}
t_in = 6
horizon = 3
embed_dim = 4
ffn_dim = 8
heads = 2
layers = 1
batch_size = 16
lr = 0.002
milestones = 50
patience = 20
mask_ratio = 0.2
subgraph_size = 4
seed = 1
max_epochs = 3
"""


@pytest.fixture()
def workspace(tmp_path):
    data = tmp_path / "data.txt"
    code = main(
        [
            "synth", "--nodes", "6", "--days", "6", "--freq", "24",
            "--noise", "1.5", "--seed", "11", "--path", str(data),
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY.format(dataset=data))
    return tmp_path, cfg, data


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSynth:
    def test_shape_and_header(self, tmp_path):
        path = tmp_path / "s.txt"
        code = main(
            ["synth", "--nodes", "20", "--days", "14", "--freq", "48",
             "--noise", "2.0", "--seed", "5", "--path", str(path), "--out", str(tmp_path)]
        )
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("N=20 FREQ=48 START=")
        assert len(lines) == 1 + 14 * 48

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            main(["synth", "--nodes", "4", "--days", "2", "--freq", "12",
                  "--noise", "1.0", "--seed", "9", "--path", str(path), "--out", str(tmp_path)])
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["synth", "--nodes", "4", "--days", "2", "--freq", "12",
              "--noise", "1.0", "--seed", "9", "--path", str(a), "--out", str(tmp_path)])
        main(["synth", "--nodes", "4", "--days", "2", "--freq", "12",
              "--noise", "1.0", "--seed", "10", "--path", str(b), "--out", str(tmp_path)])
        assert a.read_bytes() != b.read_bytes()

    def test_binary_format_round_trips(self, tmp_path):
        from foldcast.data import load_series

        txt, bin_ = tmp_path / "s.txt", tmp_path / "s.bin"
        for path, fmt in ((txt, "text"), (bin_, "binary")):
            main(["synth", "--nodes", "4", "--days", "2", "--freq", "12",
                  "--noise", "1.0", "--seed", "3", "--path", str(path),
                  "--format", fmt, "--out", str(tmp_path)])
        assert bin_.read_bytes()[:5] == b"STSF1"
        a, b = load_series(txt), load_series(bin_)
        assert np.array_equal(a.values, b.values)
        assert (a.frequency, a.start) == (b.frequency, b.start)

    @pytest.mark.parametrize(
        "flag,value",
        [("--nodes", "0"), ("--days", "0"), ("--freq", "0"), ("--freq", "7"),
         ("--noise", "-1"), ("--noise", "nan"), ("--noise", "inf")],
    )
    def test_bad_argument_exits_2_and_writes_nothing(self, tmp_path, flag, value):
        out = tmp_path / "x"
        assert main(["synth", flag, value, "--out", str(out)]) == 2
        assert not out.exists()

    def test_path_makes_its_own_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["synth", "--nodes", "2", "--days", "1", "--freq", "12",
                     "--path", os.path.join("nodir", "x.txt")])
        assert code == 0
        assert (tmp_path / "nodir" / "x.txt").is_file()
        assert os.listdir(tmp_path) == ["nodir"]  # no empty default --out beside it

    def test_noiseless_signal_is_phase_deterministic(self, tmp_path):
        from foldcast.data import ha_fit, load_series, make_windows

        path = tmp_path / "clean.txt"
        main(["synth", "--nodes", "3", "--days", "15", "--freq", "12",
              "--noise", "0", "--seed", "2", "--path", str(path), "--out", str(tmp_path)])
        series = load_series(path)
        # rows one week apart are identical: value is a pure phase function
        week = 7 * 12
        assert np.allclose(series.values[:week], series.values[week : 2 * week])
        # so the historical average nails it
        train_w, _, test_w = make_windows(series, 6, 3)
        pred = ha_fit(train_w, 6, series.frequency).predict(test_w[-1])
        assert np.max(np.abs(pred - test_w[-1].target)) < 1e-9


class TestTrain:
    def test_train_writes_artifacts(self, workspace):
        tmp_path, cfg, _ = workspace
        out = tmp_path / "run1"
        code = main(["train", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "checkpoint.bin").exists()
        assert (out / "train_log.csv").exists()
        assert (out / "config.resolved").exists()
        rows = read_csv(out / "train_log.csv")
        assert rows[0] == "epoch,lr,train_loss,val_rmse,val_mae,val_mape,epoch_seconds,tokens_processed".split(",")
        assert len(rows) == 1 + 3

    def test_missing_dataset_exits_2_and_names_path(self, workspace, capsys):
        tmp_path, cfg, data = workspace
        bad = tmp_path / "gone.cfg"
        bad.write_text(TINY.format(dataset=tmp_path / "nowhere.txt"))
        code = main(["train", "--config", str(bad), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "nowhere.txt" in capsys.readouterr().err

    def test_config_key_given_twice_exits_2(self, workspace, capsys):
        tmp_path, cfg, _ = workspace
        twice = tmp_path / "twice.cfg"
        twice.write_text(cfg.read_text() + "lr = 0.2\n")
        code = main(["train", "--config", str(twice), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "config key 'lr' given twice" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_nonpositive_model_size_exits_2(self, workspace, capsys):
        tmp_path, cfg, _ = workspace
        code = main(["train", "--config", str(cfg), "--set", "heads=0",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "heads" in capsys.readouterr().err

    def test_dataset_directory_exits_3(self, workspace, capsys):
        tmp_path, cfg, _ = workspace
        code = main(["train", "--config", str(cfg), "--set", f"dataset={tmp_path}",
                     "--out", str(tmp_path / "x")])
        assert code == 3
        assert "cannot read dataset" in capsys.readouterr().err

    def test_no_dataset_key_exits_2(self, tmp_path):
        code = main(["train", "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize(
        "setting",
        ["mask_strategy=node_level", "folding=SF", "mask_strategy=all_zero",
         "mask_strategy=partial_zero", "mask_strategy=random_value"],
        ids=lambda setting: setting.split("=")[1],
    )
    def test_same_seed_byte_identical_logs(self, workspace, setting):
        tmp_path, cfg, _ = workspace
        logs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["train", "--config", str(cfg), "--set", setting, "--seed", "7",
                         "--out", str(out)]) == 0
            logs.append((out / "train_log.csv").read_bytes())
        assert logs[0] == logs[1]

    def test_divergence_exit_code(self, workspace, capsys):
        tmp_path, cfg, _ = workspace
        out = tmp_path / "div"
        with np.errstate(all="ignore"):
            code = main(
                ["train", "--config", str(cfg), "--set", "lr=1e80", "--out", str(out)]
            )
        assert code == 4

    @pytest.mark.parametrize("setting", ["lr=-1", "huber_delta=nan", "split=0.6,nan,0.4"])
    def test_bad_optimiser_value_exits_2(self, workspace, capsys, setting):
        tmp_path, cfg, _ = workspace
        out = tmp_path / "x"
        code = main(["train", "--config", str(cfg), "--set", setting, "--out", str(out)])
        assert code == 2
        assert setting.split("=")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_empty_training_split_exits_3(self, workspace, capsys):
        tmp_path, cfg, _ = workspace
        # 7 of the 144 rows train: fewer than one 6 + 3 step window
        code = main(["train", "--config", str(cfg), "--set", "split=0.05,0.15,0.8",
                     "--out", str(tmp_path / "x")])
        assert code == 3
        assert "no training windows" in capsys.readouterr().err
        assert not (tmp_path / "x" / "config.resolved").exists()

    def test_series_without_nodes_exits_3(self, workspace, capsys):
        tmp_path, cfg, _ = workspace
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"STSF1" + struct.pack("<QQQq", 100, 0, 24, 1609718400))
        code = main(["train", "--config", str(cfg), "--set", f"dataset={empty}",
                     "--out", str(tmp_path / "x")])
        assert code == 3
        assert "nodes >= 1" in capsys.readouterr().err

    def test_snapshot_reproduces_run_byte_for_byte(self, workspace):
        tmp_path, cfg, _ = workspace
        first = tmp_path / "first"
        assert main(["train", "--config", str(cfg), "--out", str(first)]) == 0
        again = tmp_path / "again"
        assert main(
            ["train", "--config", str(first / "config.resolved"), "--out", str(again)]
        ) == 0
        assert (first / "train_log.csv").read_bytes() == (again / "train_log.csv").read_bytes()
        assert (first / "checkpoint.bin").read_bytes() == (again / "checkpoint.bin").read_bytes()


class TestAtomicWrites:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "train_log.csv"
        path.write_text("epoch\n1\n")
        with pytest.raises(TypeError):
            _write(str(path), None)
        assert path.read_text() == "epoch\n1\n"
        assert os.listdir(tmp_path) == ["train_log.csv"]

    def test_rerun_replaces_artifacts_and_leaves_no_temp_file(self, workspace):
        tmp_path, cfg, _ = workspace
        out = tmp_path / "run"
        for seed in ("1", "2"):
            assert main(["train", "--config", str(cfg), "--seed", seed, "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["checkpoint.bin", "config.resolved", "train_log.csv"]
        assert "seed = 2" in (out / "config.resolved").read_text()


class TestEval:
    def test_eval_matches_best_val_row(self, workspace):
        tmp_path, cfg, _ = workspace
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        code = main(
            ["eval", "--checkpoint", str(out / "checkpoint.bin"),
             "--config", str(cfg), "--split", "val", "--out", str(out)]
        )
        assert code == 0
        log_rows = read_csv(out / "train_log.csv")
        best = min(log_rows[1:], key=lambda r: float(r[4]))
        eval_rows = read_csv(out / "eval_val.csv")
        assert eval_rows[0] == ["horizon_step", "rmse", "mae", "mape"]
        overall = eval_rows[1]
        assert overall[0] == "all"
        assert overall[1] == best[3]  # rmse, repr-formatted identically
        assert overall[2] == best[4]
        assert overall[3] == best[5]
        # per-horizon rows follow
        assert len(eval_rows) == 2 + 3

    def test_no_config_source_exits_2(self, workspace, capsys):
        tmp_path, cfg, data = workspace
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        argv = ["eval", "--checkpoint", str(out / "checkpoint.bin"), "--dataset", str(data),
                "--out", str(out)]
        assert main(argv) == 0  # sized by the snapshot beside the checkpoint
        (out / "config.resolved").unlink()
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--config" in err and "config.resolved" in err

    def test_corrupt_checkpoint_exits_3(self, workspace):
        tmp_path, cfg, _ = workspace
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        ck = out / "checkpoint.bin"
        raw = bytearray(ck.read_bytes())
        raw[0] = 0x7F
        ck.write_bytes(bytes(raw))
        code = main(
            ["eval", "--checkpoint", str(ck), "--config", str(cfg), "--out", str(out)]
        )
        assert code == 3

    def test_non_utf8_parameter_name_exits_3(self, workspace):
        tmp_path, cfg, _ = workspace
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        ck = out / "checkpoint.bin"
        raw = bytearray(ck.read_bytes())
        raw[7] = 0xFF  # first byte of the first parameter name
        ck.write_bytes(bytes(raw))
        code = main(
            ["eval", "--checkpoint", str(ck), "--config", str(cfg), "--out", str(out)]
        )
        assert code == 3

    def test_absent_checkpoint_exits_3(self, workspace):
        tmp_path, cfg, _ = workspace
        code = main(
            ["eval", "--checkpoint", str(tmp_path / "none.bin"), "--config", str(cfg),
             "--out", str(tmp_path)]
        )
        assert code == 3


    def test_checkpoint_directory_exits_3(self, workspace, capsys):
        tmp_path, cfg, _ = workspace
        code = main(
            ["eval", "--checkpoint", str(tmp_path), "--config", str(cfg),
             "--out", str(tmp_path / "x")]
        )
        assert code == 3
        assert "cannot read checkpoint" in capsys.readouterr().err


class TestBench:
    def test_bench_csv_columns_and_tokens(self, workspace):
        tmp_path, cfg, _ = workspace
        out = tmp_path / "bench"
        code = main(
            ["bench", "--config", str(cfg), "--mask-ratios", "0,0.5",
             "--subgraph-sizes", "3", "--epochs", "2", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out / "bench.csv")
        assert rows[0] == "config_id,r,s,tokens,params,act_floats,epoch_seconds".split(",")
        assert len(rows) == 3
        # N=6: r=0 -> 6 tokens; r=0.5 -> 3 kept -> 3 tokens
        assert rows[1][3] == "6"
        assert rows[2][3] == "3"

    @pytest.mark.parametrize(
        "flag,value",
        [("--mask-ratios", "1.5"), ("--mask-ratios", "x"),
         ("--subgraph-sizes", "0"), ("--epochs", "0")],
    )
    def test_bad_grid_exits_2_before_training(self, workspace, monkeypatch, flag, value):
        def no_training(*args, **kwargs):
            raise AssertionError("bench trained before validating its grid")

        monkeypatch.setattr(sys.modules["foldcast.train"], "train", no_training)
        tmp_path, cfg, _ = workspace
        out = tmp_path / "bench"
        code = main(["bench", "--config", str(cfg), flag, value, "--out", str(out)])
        assert code == 2
        assert not (out / "bench.csv").exists()


class TestAblate:
    def test_mask_ratio_axis(self, workspace):
        tmp_path, cfg, _ = workspace
        out = tmp_path / "ab"
        code = main(
            ["ablate", "--config", str(cfg), "--axis", "mask_ratio",
             "--values", "0,0.2,0.5", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out / "ablate_mask_ratio.csv")
        assert len(rows) == 4
        assert rows[0][:2] == ["axis", "value"]
        secs = [float(r[6]) for r in rows[1:]]
        assert all(b <= a for a, b in zip(secs, secs[1:]))
        tokens = [int(r[5]) for r in rows[1:]]
        assert all(b <= a for a, b in zip(tokens, tokens[1:]))

    def test_folding_axis_two_rows(self, workspace):
        tmp_path, cfg, _ = workspace
        out = tmp_path / "fold"
        code = main(
            ["ablate", "--config", str(cfg), "--axis", "folding", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out / "ablate_folding.csv")
        assert [r[1] for r in rows[1:]] == ["TFG", "SF"]

    def test_zero_epochs_exits_2_before_training(self, workspace, monkeypatch, capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("ablate trained before validating max_epochs")

        monkeypatch.setattr(sys.modules["foldcast.cli"], "train", no_training)
        tmp_path, cfg, _ = workspace
        out = tmp_path / "ab"
        code = main(["ablate", "--config", str(cfg), "--set", "max_epochs=0",
                     "--axis", "folding", "--out", str(out)])
        assert code == 2
        assert "max_epochs" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_axis_value_exits_2(self, workspace):
        tmp_path, cfg, _ = workspace
        code = main(
            ["ablate", "--config", str(cfg), "--axis", "mask_ratio",
             "--values", "2.0", "--out", str(tmp_path / "x")]
        )
        assert code == 2


class TestDumpEmbeddings:
    def test_csv_written(self, workspace):
        tmp_path, cfg, _ = workspace
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        code = main(
            ["dump-embeddings", "--checkpoint", str(out / "checkpoint.bin"), "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out / "embeddings.csv")
        assert rows[0][:2] == ["table", "index"]
        tables = {r[0] for r in rows[1:]}
        assert tables == {"spatial", "tod", "dow"}
        # N=6 spatial rows + 24 tod rows + 7 dow rows
        assert len(rows) == 1 + 6 + 24 + 7

    @pytest.mark.parametrize("folding", ["TFG", "SF"])
    def test_needs_only_the_checkpoint(self, workspace, folding):
        tmp_path, cfg, data = workspace
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--set", f"folding={folding}",
                     "--out", str(run)]) == 0
        dumps = []
        for name in ("with_data", "data_moved"):
            if dumps:
                data.rename(tmp_path / "moved.txt")
            out = tmp_path / name
            assert main(["dump-embeddings", "--checkpoint", str(run / "checkpoint.bin"),
                         "--out", str(out)]) == 0
            dumps.append((out / "embeddings.csv").read_bytes())
        assert dumps[0] == dumps[1]
        tables = {line.split(",")[0] for line in dumps[0].decode().splitlines()[1:]}
        assert tables == ({"spatial", "tod", "dow"} if folding == "TFG" else {"tod", "dow"})

    def test_checkpoint_without_tables_exits_3(self, tmp_path, capsys):
        params = ModelParams()
        params.add("embed.wx", np.ones((3, 4)))
        params.add("embed.tod", np.ones((12, 4)))
        ck = tmp_path / "partial.bin"
        save_checkpoint(params, ck)
        code = main(["dump-embeddings", "--checkpoint", str(ck), "--out", str(tmp_path / "x")])
        assert code == 3
        assert "embed.dow" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, table",
        [("embed.s", np.ones(6)), ("embed.tod", np.ones((12, 3)))],
        ids=["spatial_1d", "tod_wider_than_wx"],
    )
    def test_malformed_table_exits_3_and_writes_nothing(self, tmp_path, capsys, name, table):
        tables = {"embed.wx": np.ones((3, 2)), "embed.s": np.ones((6, 2)),
                  "embed.tod": np.ones((12, 2)), "embed.dow": np.ones((7, 2)), name: table}
        params = ModelParams()
        for key, value in tables.items():
            params.add(key, value)
        ck = tmp_path / "malformed.bin"
        save_checkpoint(params, ck)
        out = tmp_path / "x"
        code = main(["dump-embeddings", "--checkpoint", str(ck), "--out", str(out)])
        assert code == 3
        assert name in capsys.readouterr().err
        assert not (out / "embeddings.csv").exists()


class TestBadFlags:
    @pytest.mark.parametrize("command", ["train", "eval", "bench", "ablate", "synth"])
    def test_negative_seed_exits_2_and_writes_nothing(self, workspace, capsys, command):
        tmp_path, cfg, _ = workspace
        out = tmp_path / "x"
        extra = {"ablate": ["--axis", "folding"], "eval": ["--checkpoint", str(cfg)]}.get(command, [])
        config = [] if command == "synth" else ["--config", str(cfg)]  # synth reads no config
        code = main([command, *config, "--seed", "-1", *extra, "--out", str(out)])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [["train", "--config", "{cfg}"], ["eval", "--checkpoint", "{cfg}", "--config", "{cfg}"],
         ["bench", "--subgraph-sizes", "3", "--config", "{cfg}"],
         ["ablate", "--axis", "folding", "--config", "{cfg}"],
         ["synth", "--nodes", "3", "--days", "2"], ["dump-embeddings", "--checkpoint", "{cfg}"]],
        ids=lambda command: command[0],
    )
    def test_out_file_exits_2_before_loading_data(self, workspace, monkeypatch, capsys, command):
        def no_loading(*args, **kwargs):
            raise AssertionError("loaded data before making --out")

        monkeypatch.setattr(sys.modules["foldcast.cli"], "load_series", no_loading)
        tmp_path, cfg, _ = workspace
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        argv = [arg.format(cfg=cfg) for arg in command]
        assert main(argv + ["--out", str(out)]) == 2
        assert "cannot create output directory" in capsys.readouterr().err
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize(
        "command, flag",
        [(["synth"], "--config"), (["synth"], "--set"),
         (["dump-embeddings", "--checkpoint", "{ck}"], "--config"),
         (["dump-embeddings", "--checkpoint", "{ck}"], "--set"),
         (["dump-embeddings", "--checkpoint", "{ck}"], "--seed")],
        ids=["synth-config", "synth-set", "dump-config", "dump-set", "dump-seed"],
    )
    def test_run_config_flag_is_not_taken(self, workspace, capsys, command, flag):
        # synth and dump-embeddings read no run config, so they take none of its flags
        tmp_path, cfg, _ = workspace
        out = tmp_path / "x"
        value = {"--config": str(cfg), "--set": "seed=3", "--seed": "3"}[flag]
        argv = [arg.format(ck=tmp_path / "ck.bin") for arg in command]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()
