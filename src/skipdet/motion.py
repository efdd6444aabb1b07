"""Motion gate: stack a frame with its reference, run a 1x1 convolution to
get a per-pixel motion probability map, and decide whether the expensive
detector pass is needed.

The default gate weights are the analytic frame difference: +1/C on each
current channel, -1/C on each reference channel, zero bias, squashed by
abs then clamp to [0,1]. Identical frames therefore produce an exactly
zero map. Arbitrary 1x1 weights can be substituted through the policy.

The gate runs on every frame, so it works on raw float32 arrays: frames
and policies are validated once, when built, and the only per-frame check
is one finiteness test of the map, by its maximum after ``abs``.
``ppm.frame_from_image`` builds frames without the pixel range scan: bytes
divided by 255 lie in [0,1].

The reference changes only when inference runs, so the reference's half of
the products, ``w[C:] * reference`` (:func:`reference_half`), is kept by the
pipeline under its key (see the ``pipeline`` module). ``stack_frames`` pairs
the current frame with it without copying either, and ``motion_map``
checks the pair's shapes and adds ``w[:C] * current`` to the half: the
same products, added in the same order, as a 1x1 convolution of the
``[2C,H,W]`` stack of the two frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor

__all__ = ["Frame", "GatingPolicy", "decide", "motion_map", "reference_half", "stack_frames"]


@dataclass(frozen=True)
class Frame:
    """A video frame: time index plus [C,H,W] pixels in [0,1], C in {1,3}."""

    index: int
    pixels: Tensor

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"frame index must be non-negative, got {self.index}")
        if self.pixels.data.ndim != 3:
            raise ShapeError(f"frame pixels must be [C,H,W], got shape {self.pixels.shape}")
        if self.pixels.shape[0] not in (1, 3):
            raise ShapeError(f"frame channels must be 1 or 3, got {self.pixels.shape[0]}")
        lo, hi = float(self.pixels.data.min()), float(self.pixels.data.max())
        if lo < 0.0 or hi > 1.0:
            raise ValueError(f"frame pixels must lie in [0,1], got range [{lo}, {hi}]")

    @classmethod
    def _trusted(cls, index: int, pixels: Tensor) -> "Frame":
        """A Frame whose caller proved the checks above, without the range scan."""
        f = object.__new__(cls)
        object.__setattr__(f, "index", index)
        object.__setattr__(f, "pixels", pixels)
        return f


@dataclass(frozen=True)
class GatingPolicy:
    """Thresholds and 1x1-conv parameters that turn a map into a decision.

    ``pixel_threshold`` (p0) marks a pixel as moving; ``area_threshold``
    (tau) is the moving-pixel fraction above which inference runs;
    ``force_every`` N forces inference once N frames have passed since the
    last one (0 disables forcing, the default behavior). Both thresholds are
    stored as Python floats, so only their values count: p0 is compared
    against the float32 map in float32, tau against the fraction in float64.
    """

    kernel: Tensor
    bias: Tensor
    pixel_threshold: float = 0.1
    area_threshold: float = 0.002
    force_every: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.pixel_threshold <= 1.0 and 0.0 <= self.area_threshold <= 1.0):
            raise ValueError(
                f"thresholds must lie in [0,1], got p0={self.pixel_threshold}, "
                f"tau={self.area_threshold}")
        object.__setattr__(self, "pixel_threshold", float(self.pixel_threshold))
        object.__setattr__(self, "area_threshold", float(self.area_threshold))
        if self.force_every < 0:
            raise ValueError(f"force_every must be non-negative, got {self.force_every}")
        shape = self.kernel.shape
        if len(shape) != 4 or shape[0] != 1 or shape[2] != 1 or shape[3] != 1:
            raise ShapeError(f"gate kernel must be [1,2C,1,1], got shape {shape}")
        if shape[1] % 2:
            raise ShapeError(f"gate kernel needs an even channel count, got {shape[1]}")
        if self.bias.shape != (1,):
            raise ShapeError(f"gate bias must have shape (1,), got {self.bias.shape}")

    @classmethod
    def default(cls, channels: int, **settings) -> "GatingPolicy":
        """Analytic frame-difference weights for C-channel frames; the keyword
        arguments set the other fields, which keep their defaults otherwise."""
        if channels < 1:
            raise ValueError(f"channels must be positive, got {channels}")
        w = np.empty((1, 2 * channels, 1, 1), dtype=np.float32)
        w[0, :channels] = 1.0 / channels
        w[0, channels:] = -1.0 / channels
        return cls(kernel=Tensor(w), bias=Tensor.zeros((1,)), **settings)


def reference_half(reference: Frame, policy: GatingPolicy) -> np.ndarray:
    """The gate's products that depend only on the reference: ``w[C:]``
    times its C channels, a read-only [C,H,W] float32 array."""
    w = policy.kernel.data[0, :, 0, 0]
    c = w.shape[0] // 2
    pixels = reference.pixels.data
    if pixels.shape[0] != c:
        raise ShapeError(
            f"frame shape {pixels.shape} does not match gate kernel input "
            f"channels {2 * c}")
    half = w[c:, None, None] * pixels
    half.setflags(write=False)
    return half


def stack_frames(current: Frame, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair the current frame's pixels with the reference's half
    (:func:`reference_half`), current first; neither is copied, and
    :func:`motion_map` checks the shapes."""
    return current.pixels.data, half


def motion_map(stack: tuple[np.ndarray, np.ndarray], policy: GatingPolicy) -> np.ndarray:
    """1x1 convolution over the stack, squashed into [0,1] by abs and clamp;
    returns a [1,H,W] float32 array.

    ``stack`` is the pair :func:`stack_frames` returns: the current frame's
    [C,H,W] pixels and the reference's half. The per-pixel dot product pairs
    each current channel with its reference channel before accumulating. Under
    the default antisymmetric weights the paired products are exact IEEE
    negations, so identical frames yield a map of exact zeros rather than
    rounding residue. A non-finite raw map (a gate kernel large enough to
    overflow float32, or a pair holding NaN or an infinity) raises
    ``ValueError``.
    """
    w = policy.kernel.data[0, :, 0, 0]
    c = w.shape[0] // 2
    current, half = stack
    if half.shape != current.shape:
        raise ShapeError(
            f"frame shape mismatch: current {current.shape} vs reference {half.shape}")
    if current.ndim != 3 or current.shape[0] != c:
        raise ShapeError(
            f"stack halves {current.shape} do not match gate kernel input "
            f"channels {2 * c}")
    # The sums, abs and clamp write in place, so a streamed run's per-frame
    # heap stays under glibc's default trim point; one [2C,H,W] array for
    # all the products is faster but re-faulted the heap on about a third
    # of process layouts. Adding the channels into channel 0 one after
    # another is the order of ``sum(axis=0)``: the bits are the same.
    paired = w[:c, None, None] * current
    paired += half
    raw = paired[:1]
    for ch in range(1, c):
        raw += paired[ch]
    raw += policy.bias.data[0]
    np.abs(raw, out=raw)
    # NaN propagates through max and both infinities are +inf after abs,
    # so one reduction finds any non-finite value.
    if not math.isfinite(raw.max()):
        raise ValueError("motion map values must be finite")
    return np.minimum(raw, 1.0, out=raw)


def decide(m: np.ndarray, policy: GatingPolicy, frames_since_inference: int) -> bool:
    """True iff deep inference is needed for the current frame.

    Fires when the fraction of pixels of the map ``m`` above p0 exceeds tau,
    or when forcing is enabled and at least ``force_every`` frames have
    passed since the last inference.
    """
    if frames_since_inference < 0:
        raise ValueError(f"frames_since_inference must be non-negative, got {frames_since_inference}")
    fraction = float(np.count_nonzero(m > policy.pixel_threshold)) / m.size
    if fraction > policy.area_threshold:
        return True
    return policy.force_every > 0 and frames_since_inference >= policy.force_every
