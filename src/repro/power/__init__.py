"""Processor power/DVS model: delay law, energy law, transition overheads."""

from .presets import cmos_processor, ideal_processor, normalized_processor
from .processor import ProcessorModel
from .transition import TransitionModel

__all__ = [
    "ProcessorModel",
    "TransitionModel",
    "ideal_processor",
    "cmos_processor",
    "normalized_processor",
]
