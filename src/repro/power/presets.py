"""Ready-made processor models.

The paper does not name a specific processor; its motivational example assumes
the clock frequency is proportional to the supply voltage with a 5 V rail, and
its random-task-set experiments only depend on the frequency range and the
energy-vs-voltage convexity.  These presets cover the common cases, all on a
continuous voltage range:

* :func:`ideal_processor` — the paper's simplified model (linear law, 5 V).
* :func:`cmos_processor` — the full delay law with α = 2 and a 0.8 V threshold.
* :func:`normalized_processor` — ``fmax = 1`` and ``vmax = 1``; convenient when
  execution cycles are expressed directly as worst-case execution *times* at
  maximum speed.
"""

from __future__ import annotations

from .processor import ProcessorModel

__all__ = [
    "ideal_processor",
    "cmos_processor",
    "normalized_processor",
]


def ideal_processor(*, vmax: float = 5.0, vmin: float = 0.5, fmax: float = 1.0,
                    ceff: float = 1.0) -> ProcessorModel:
    """The paper's simplified model: frequency proportional to voltage."""
    return ProcessorModel(vmax=vmax, vmin=vmin, fmax=fmax, ceff=ceff,
                          law="linear", name="ideal")


def cmos_processor(*, vmax: float = 3.3, vmin: float = 1.0, fmax: float = 1.0,
                   vth: float = 0.8, alpha: float = 2.0, ceff: float = 1.0) -> ProcessorModel:
    """Full CMOS delay law (α = 2, Vth = 0.8 V by default)."""
    return ProcessorModel(vmax=vmax, vmin=vmin, fmax=fmax, vth=vth, alpha=alpha,
                          ceff=ceff, law="cmos", name="cmos")


def normalized_processor(*, vmin_fraction: float = 0.1, ceff: float = 1.0) -> ProcessorModel:
    """``fmax = 1`` and ``vmax = 1`` so cycles are worst-case execution times at full speed."""
    return ProcessorModel(vmax=1.0, vmin=vmin_fraction, fmax=1.0, ceff=ceff,
                          law="linear", name="normalized")

