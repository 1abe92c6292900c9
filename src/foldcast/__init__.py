"""foldcast: long-horizon traffic forecasting with temporal-folding tokens,
node-visibility training, and a from-scratch autograd transformer."""

__version__ = "0.1.0"
