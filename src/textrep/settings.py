"""The library's named settings: each default and valid range, in one place.

Everything here is plain Python, so the CLI can build its parser, and run
the stages that do no array math, without importing numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LOSSES = ("contrastive", "median")

BASELINE_METHODS = (
    "mean",
    "max",
    "min",
    "minmax_concat",
    "mean_top30",
    "max_top30",
    "minmax_top30",
    "idf_weighted_mean",
)

KAPPA_GRID = (10, 20, 40, 80, 160, 320)  # kappas that grid search tries
FOLDS = 5  # cross-validation folds of the kappa search
BINS = 100  # distance histogram bins
SPAN_LENGTH = 20  # words per pairs-wiki span, the default of both bounds


@dataclass
class TrainConfig:
    """Training settings: the home of each one's default and valid range."""

    loss: str = "median"
    kappa: float = 160.0
    lam: float = 0.001
    batch_size: int = 100
    eta_initial: float = 0.01
    eta_reduced: float = 0.001
    stop_delta: float = 0.0005
    seed: int = 42
    n_max: int = 20
    init_weight: float = 0.5
    max_epochs: int = 500

    def __post_init__(self):
        inf = math.inf
        for name, valid, rule in (
            ("loss", self.loss in LOSSES, f"one of {LOSSES}"),
            ("kappa", 0 < self.kappa < inf, "finite and > 0"),
            ("lam", 0 <= self.lam < inf, "finite and >= 0"),
            ("batch_size", self.batch_size >= 2 and self.batch_size % 2 == 0,
             "even and >= 2"),
            ("eta_reduced", 0 < self.eta_reduced < inf, "finite and > 0"),
            ("eta_initial", self.eta_reduced < self.eta_initial < inf,
             "finite and above eta_reduced"),
            ("stop_delta", 0 <= self.stop_delta < inf, "finite and >= 0"),
            ("n_max", self.n_max >= 1, ">= 1"),
            ("init_weight", abs(self.init_weight) < inf, "finite"),
            ("max_epochs", self.max_epochs >= 1, ">= 1"),
            ("seed", self.seed >= 0, ">= 0"),
        ):
            if not valid:
                raise ValueError(
                    f"{name} must be {rule}, got {getattr(self, name)!r}")
