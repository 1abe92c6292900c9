"""foldcast: long-horizon traffic forecasting with temporal-folding tokens,
node-visibility training, and a from-scratch autograd transformer."""

from . import tensor
from .data import (
    NormStats,
    SampleWindow,
    TrafficSeries,
    apply_zscore,
    fit_normalizer,
    ha_fit,
    invert_zscore,
    load_series,
    make_windows,
    save_series,
)
from .errors import CheckpointError, ConfigError, DataError, DivergenceError
from .metrics import Metrics, compute_metrics
from .model import SF, TFG, ModelDims, build_params, encoder_forward, msa, predict
from .synth import generate_series
from .tensor import (
    AdamState,
    ShapeError,
    Tensor,
    adam_step,
    attention,
    concat_lastdim,
    gelu,
    huber_loss,
    layer_norm,
    linear,
    matmul,
    softmax_lastdim,
)
from .tokenize import EmbeddingTables, export_embeddings
from .train import Forecaster, TrainConfig, bench, evaluate, train
from .visibility import VisibilityPlan, apply_visibility, plan_visibility

__version__ = "0.1.0"
