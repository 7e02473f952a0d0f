"""Influence kernels and RBF window settings, in scalar math only.

``InfluenceKernel.at`` is the one definition of a kernel value, and
``RbfConfig`` holds the window settings of the RBF boost.  Neither needs
numpy, so ``cli.RunConfig`` checks every scoring setting for every command,
``index`` and ``gen-synth`` too, without importing the scoring modules.
``proxcore`` and ``rbfwin`` re-export these names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

from .querylang import check_width

__all__ = ["KERNEL_SHAPES", "InfluenceKernel", "RbfConfig"]

KERNEL_SHAPES = ("triangular", "rectangular", "gaussian", "hanning")


@dataclass(frozen=True)
class InfluenceKernel:
    """Symmetric influence function with bounded support (zero for |x| >= k).

    All shapes peak at 1 for offset 0 and decay monotonically with distance;
    the gaussian uses sigma = k/3 and is truncated to keep the support bounded.
    """

    shape: str = "triangular"
    k: int = 5

    def __post_init__(self):
        if self.shape not in KERNEL_SHAPES:
            raise ValueError(f"unknown kernel shape {self.shape!r}, expected one of {KERNEL_SHAPES}")
        check_width(self.k, "kernel width")

    def with_width(self, k: int) -> "InfluenceKernel":
        return InfluenceKernel(self.shape, k)

    def at(self, offset) -> float:
        """Kernel value at one offset.

        Scalar math is the single source of truth for kernel values: the
        semantic-neighborhood filter downstream compares values that can sit
        exactly on its band boundary, so every code path must produce
        bit-identical numbers.
        """
        d = abs(float(offset))
        k = float(self.k)
        if self.shape == "triangular":
            return max((k - d) / k, 0.0)
        if d >= k:
            return 0.0
        if self.shape == "rectangular":
            return 1.0
        if self.shape == "hanning":
            return 0.5 * (1.0 + math.cos(math.pi * d / k))
        sigma = k / 3.0
        return math.exp(-(d * d) / (2.0 * sigma * sigma))


@dataclass(frozen=True)
class RbfConfig:
    """Window size, base kernel and thresholding for the RBF boost."""

    kernel: InfluenceKernel
    kf: int = 5
    threshold_scale: float = 1.0
    clamp_output: bool = True

    def __post_init__(self):
        if self.kf < 1:
            raise ValueError(f"window size kf must be >= 1, got {self.kf}")
        if not (math.isfinite(self.threshold_scale) and self.threshold_scale >= 0.0):
            raise ValueError(f"threshold_scale must be finite and >= 0, got {self.threshold_scale}")

    def with_width(self, k: int) -> "RbfConfig":
        """This config with its kernel narrowed to width k, built once per (config, k)."""
        return _narrowed(self, k)


@lru_cache(maxsize=256)
def _narrowed(cfg: RbfConfig, k: int) -> RbfConfig:
    return replace(cfg, kernel=cfg.kernel.with_width(k))
