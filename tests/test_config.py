"""Config file parsing, defaults, and override precedence."""
import pytest

from foldcast.config import parse_config_file, resolve, snapshot
from foldcast.errors import ConfigError
from foldcast.train import TrainConfig


class TestParsing:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# profile\n\nembed_dim = 8  # small\nlr = 0.001\nmilestones = 10,20\n"
        )
        values = parse_config_file(path)
        assert values == {"embed_dim": "8", "lr": "0.001", "milestones": "10,20"}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("embedding_size = 8\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("embed_dim 8\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config_file(tmp_path / "absent.cfg")


class TestResolve:
    def test_defaults_are_large_network_profile(self):
        run = resolve()
        cfg = run.train
        assert (cfg.embed_dim, cfg.ffn_dim, cfg.heads, cfg.layers) == (64, 1024, 4, 1)
        assert (cfg.mask_ratio, cfg.subgraph_size) == (0.2, 50)
        assert (cfg.lr, cfg.milestones, cfg.decay, cfg.patience) == (1e-4, (55,), 0.1, 10)
        assert (cfg.batch_size, cfg.huber_delta) == (16, 1.0)
        assert run.dataset is None

    def test_defaults_are_train_config_defaults(self):
        assert resolve().train == TrainConfig()

    @pytest.mark.parametrize(
        "key,raw",
        [("heads", "0"), ("heads", "-2"), ("embed_dim", "-4"), ("embed_dim", "0"),
         ("ffn_dim", "0"), ("layers", "-1")],
    )
    def test_model_sizes_checked(self, key, raw):
        with pytest.raises(ConfigError, match=key):
            resolve({}, {key: raw})

    @pytest.mark.parametrize("key", ["lr", "decay", "huber_delta"])
    @pytest.mark.parametrize("raw", ["0", "-1", "nan", "inf"])
    def test_optimiser_values_must_be_finite_and_positive(self, key, raw):
        with pytest.raises(ConfigError, match=key):
            resolve({}, {key: raw})

    def test_zero_layers_allowed(self):
        assert resolve({}, {"layers": "0"}).train.layers == 0

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("embed_dim = 8\nseed = 3\n")
        run = resolve(parse_config_file(path), {"seed": "9"})
        assert run.train.embed_dim == 8
        assert run.train.seed == 9

    def test_bad_value_reported(self):
        with pytest.raises(ConfigError, match="bad value for 'lr'"):
            resolve({}, {"lr": "fast"})

    def test_invalid_combination_rejected(self):
        with pytest.raises(ConfigError):
            resolve({}, {"mask_ratio": "1.5"})
        with pytest.raises(ConfigError):
            resolve({}, {"folding": "diagonal"})

    def test_split_fractions_checked(self):
        for raw in ("0.5,0.6,-0.1", "0,0.5,0.5", "0.6,0.2,0.1", "0.7,0.2,0.2"):
            with pytest.raises(ConfigError, match="split"):
                resolve({}, {"split": raw})
        assert resolve({}, {"split": "0.7,0.1,0.2"}).train.split == (0.7, 0.1, 0.2)
        assert resolve({}, {"split": "1,0,0"}).train.split == (1.0, 0.0, 0.0)

    def test_milestones_none(self):
        run = resolve({}, {"milestones": "none"})
        assert run.train.milestones == ()


class TestSnapshot:
    def test_round_trips_through_parser(self, tmp_path):
        run = resolve({}, {"embed_dim": "8", "lr": "0.0005", "dataset": "d.txt"})
        text = snapshot(run)
        path = tmp_path / "resolved.cfg"
        path.write_text(text)
        again = resolve(parse_config_file(path))
        assert again.train == run.train
        assert again.dataset == run.dataset

    def test_key_order_is_fixed(self):
        keys = [line.split(" = ")[0] for line in snapshot(resolve()).splitlines()]
        assert keys == [
            "dataset", "t_in", "horizon", "embed_dim", "ffn_dim", "heads", "layers",
            "batch_size", "lr", "milestones", "decay", "patience", "huber_delta",
            "mask_ratio", "subgraph_size", "mask_strategy", "folding", "seed",
            "max_epochs", "split",
        ]

    def test_snapshot_is_stable(self):
        run = resolve()
        assert snapshot(run) == snapshot(run)
