"""Hierarchical multi-scale recurrent pose forecasting in velocity space."""

from .arch import (Model, ModelConfig, PhaseStateBank, active_phase,
                   build_model, forecast, logical_sequence_count, model_step,
                   new_bank, observe)
from .errors import (ConfigError, InputError, NumericError, ParseError,
                     PosecastError, ShapeError)
from .metrics import angle_mae, pck, zero_velocity_forecast
from .posedata import (PoseSequence, VelocitySequence, Window, integrate,
                       make_windows, synth_multiscale, to_velocity)
from .train import TrainConfig, lr_at, train_loop

__all__ = [
    "Model", "ModelConfig", "PhaseStateBank", "active_phase", "build_model",
    "forecast", "logical_sequence_count", "model_step", "new_bank", "observe",
    "ConfigError", "InputError", "NumericError", "ParseError", "PosecastError",
    "ShapeError", "angle_mae", "pck", "zero_velocity_forecast", "PoseSequence",
    "VelocitySequence", "Window", "integrate", "make_windows",
    "synth_multiscale", "to_velocity", "TrainConfig", "lr_at", "train_loop",
]

__version__ = "0.1.0"
