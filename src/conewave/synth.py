"""Synthetic test sequences: an anisotropic 2D Gaussian travelling at
constant speed, with optional additive white noise.

Frames are produced by evaluating the analytic Gaussian at every pixel
center, so sub-pixel positions are exact by construction (no resampling).
With wrapping enabled the displacement to the pattern center is taken on
the periodic torus, matching the circular boundary model of the FFT
pipeline.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernels import _require_finite
from .stcwt import SequenceVolume


@dataclass
class GaussianSceneSpec:
    """Travelling-Gaussian scene description.

    v_r is the speed in pixels/frame along motion_angle; sigma_x, sigma_y
    are the widths along the pattern's principal axes, which are rotated by
    pattern_angle.  start defaults to the frame center.  When wrap is off
    the trajectory must keep the center at least 3*max(sigma) away from the
    volume edges on every frame.
    """

    nx: int = 64
    ny: int = 64
    nt: int = 16
    sigma_x: float = 1.0
    sigma_y: float = 8.0
    pattern_angle: float = 0.0
    v_r: float = 3.0
    motion_angle: float = 0.0
    start: tuple[float, float] | None = None
    amplitude: float = 1.0
    noise_sigma: float = 0.0
    seed: int = 0
    wrap: bool = True

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2 or self.nt < 2:
            raise ValueError("grid sizes must be at least 2")
        _require_finite(self, "sigma_x", "sigma_y", "pattern_angle", "v_r", "motion_angle",
                        "amplitude", "noise_sigma")
        if self.start is not None and not all(math.isfinite(v) for v in self.start):
            raise ValueError(f"start must be finite, got {self.start}")
        if self.sigma_x <= 0 or self.sigma_y <= 0:
            raise ValueError("Gaussian widths must be positive")
        if self.v_r < 0:
            raise ValueError("speed must be non-negative")
        if self.noise_sigma < 0:
            raise ValueError("noise level must be non-negative")


def generate(spec: GaussianSceneSpec) -> SequenceVolume:
    """Render the scene into an (nx, ny, nt) volume.

    Deterministic for a fixed seed.  Raises ValueError if the trajectory
    leaves the safe region while wrapping is disabled.
    """
    start = spec.start if spec.start is not None else (spec.nx / 2.0, spec.ny / 2.0)
    vx = spec.v_r * math.cos(spec.motion_angle)
    vy = spec.v_r * math.sin(spec.motion_angle)
    centers = [(start[0] + vx * t, start[1] + vy * t) for t in range(spec.nt)]

    if not spec.wrap:
        margin = 3.0 * max(spec.sigma_x, spec.sigma_y)
        for t, (cx, cy) in enumerate(centers):
            if not (margin <= cx <= spec.nx - margin and margin <= cy <= spec.ny - margin):
                raise ValueError(
                    f"trajectory leaves the volume at frame {t} "
                    f"(center ({cx:.2f}, {cy:.2f}), margin {margin:.2f}); enable wrap"
                )

    ix = np.arange(spec.nx, dtype=float)[:, None]
    iy = np.arange(spec.ny, dtype=float)[None, :]
    cp, sp = math.cos(spec.pattern_angle), math.sin(spec.pattern_angle)
    inv2sx = 0.5 / spec.sigma_x**2
    inv2sy = 0.5 / spec.sigma_y**2

    data = np.empty((spec.nx, spec.ny, spec.nt))
    for t, (cx, cy) in enumerate(centers):
        dx = ix - cx
        dy = iy - cy
        if spec.wrap:
            dx = (dx + spec.nx / 2.0) % spec.nx - spec.nx / 2.0
            dy = (dy + spec.ny / 2.0) % spec.ny - spec.ny / 2.0
        u = cp * dx + sp * dy
        v = -sp * dx + cp * dy
        data[:, :, t] = spec.amplitude * np.exp(-(u**2 * inv2sx + v**2 * inv2sy))

    seq = SequenceVolume(data)
    if spec.noise_sigma > 0:
        seq = add_noise(seq, spec.noise_sigma, spec.seed)
    return seq


def add_noise(seq: SequenceVolume, sigma: float, seed: int) -> SequenceVolume:
    """Add i.i.d. zero-mean Gaussian noise; sigma = 0 returns the input."""
    if sigma < 0:
        raise ValueError("noise level must be non-negative")
    if sigma == 0:
        return seq
    rng = np.random.default_rng(seed)
    noisy = seq.data + sigma * rng.standard_normal(seq.data.shape)
    return SequenceVolume(noisy, seq.pixel_pitch, seq.frame_pitch)
