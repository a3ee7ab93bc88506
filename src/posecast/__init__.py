"""Hierarchical multi-scale recurrent pose forecasting in velocity space."""

from .arch import Model, ModelConfig, PhaseStateBank, build_model, new_bank
from .errors import (ConfigError, InputError, NumericError, ParseError,
                     PosecastError, ShapeError)
from .metrics import angle_mae, pck, zero_velocity_forecast
from .posedata import PoseSequence, Window, make_windows, synth_multiscale
from .train import TrainConfig, lr_at, train_loop

__all__ = [
    "Model", "ModelConfig", "PhaseStateBank", "build_model", "new_bank", "ConfigError",
    "InputError", "NumericError", "ParseError", "PosecastError", "ShapeError", "angle_mae",
    "pck", "zero_velocity_forecast", "PoseSequence", "Window", "make_windows",
    "synth_multiscale", "TrainConfig", "lr_at", "train_loop",
]

__version__ = "0.1.0"
