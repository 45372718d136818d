"""Edge-aware feature aggregation network for polyp segmentation, built on a
minimal numpy autodiff engine, with evaluation metrics, a synthetic dataset
generator and a train/eval/predict/analyze CLI."""

from .backbone import Backbone, BackboneConfig
from .config import RunConfig
from .engine import Adam, Tensor, backward
from .model import EFANet, LossBreakdown, ModelConfig, ModelOutput, total_loss

__all__ = [
    "Adam",
    "Backbone",
    "BackboneConfig",
    "EFANet",
    "LossBreakdown",
    "ModelConfig",
    "ModelOutput",
    "RunConfig",
    "Tensor",
    "backward",
    "total_loss",
]

__version__ = "0.1.0"
