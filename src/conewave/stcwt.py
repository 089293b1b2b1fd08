"""Discrete spatio-temporal transform engine.

The pipeline is the classical FFT filter bank: one unitary 3D FFT of the
input sequence, pointwise products with tuned kernels sampled on the DFT
frequency grid, and (when coefficient maps are needed) a unitary inverse
FFT that realizes all translations at once.  Unitary normalization makes
Parseval hold with constant 1, so total energies can be read directly off
the spectrum without any inverse transform; that shortcut is the engine's
main optimization and is oracle-checked in the tests.

Two sampling conventions, both documented here because they are easy to
get wrong:

* Orientation of the temporal axis.  The kernel's temporal frequency axis
  is oriented opposite to the forward DFT's, i.e. the sampled response is
  kernel(k, -omega).  Under the standard DFT a pattern translating with
  velocity v concentrates its spectrum on the plane omega = -k.v, and with
  this orientation a kernel tuned to (theta, c) has its passband exactly on
  the spectral plane of patterns moving with velocity +c (cos theta,
  sin theta).  "theta = 0, c = 3" therefore captures motion of 3
  pixels/frame along +x.

* Periodization.  The continuous kernel is folded onto the discrete grid
  by summing over all 2*pi aliases that carry non-negligible mass.  Fast
  speed tunings push the temporal center beyond the Nyquist frequency; a
  sequence sampled at frame rate aliases the same way, so folding the
  kernel keeps tuned filter and signal consistent (this is what makes
  high-speed captures work at coarse temporal scales).

Boundary model is periodic (circular) throughout; window the input if
leakage matters.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import (
    GcmParams,
    GroupElement,
    SPEED_EXPONENT_SPATIAL,
    SPEED_EXPONENT_TEMPORAL,
    _prefactor,
    centered_shift,
    tuned_spatial,
    tuned_temporal,
)

_fft_calls = 0


def fft_call_count() -> int:
    """Number of forward 3D FFTs computed since the last reset."""
    return _fft_calls


def reset_fft_count() -> None:
    global _fft_calls
    _fft_calls = 0


@dataclass
class SequenceVolume:
    """Real-valued (nx, ny, nt) image sequence.

    Data is promoted to float64 in memory regardless of the on-disk dtype.
    pixel_pitch and frame_pitch carry the nominal sample spacings (default
    1 pixel and 1 frame).
    """

    data: np.ndarray
    pixel_pitch: float = 1.0
    frame_pitch: float = 1.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise ValueError(f"expected a 3D volume, got shape {self.data.shape}")
        if min(self.data.shape) < 2:
            raise ValueError(f"all grid sizes must be >= 2, got {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("sequence contains non-finite samples")

    @property
    def nx(self) -> int:
        return self.data.shape[0]

    @property
    def ny(self) -> int:
        return self.data.shape[1]

    @property
    def nt(self) -> int:
        return self.data.shape[2]

    def energy(self) -> float:
        return float(np.sum(self.data**2))


@dataclass
class SpectrumVolume:
    """Complex 3D spectrum on the discrete (kx, ky, omega) grid.

    Samples are stored in natural FFT order; the kx/ky/omega accessors
    return the angular frequency 2*pi*i/N of every bin (i in
    [-N/2, N/2)), so each sample is logically indexed by its frequency.
    """

    data: np.ndarray
    pixel_pitch: float = 1.0
    frame_pitch: float = 1.0

    @property
    def nx(self) -> int:
        return self.data.shape[0]

    @property
    def ny(self) -> int:
        return self.data.shape[1]

    @property
    def nt(self) -> int:
        return self.data.shape[2]

    def kx(self) -> np.ndarray:
        return 2 * np.pi * np.fft.fftfreq(self.nx, d=self.pixel_pitch)

    def ky(self) -> np.ndarray:
        return 2 * np.pi * np.fft.fftfreq(self.ny, d=self.pixel_pitch)

    def omega(self) -> np.ndarray:
        return 2 * np.pi * np.fft.fftfreq(self.nt, d=self.frame_pitch)

    def energy(self) -> float:
        return float(np.sum(np.abs(self.data) ** 2))


@dataclass
class WaveletCoefficients:
    """Complex coefficient volume for a fixed tuning (theta, a_s, a_t, c)."""

    data: np.ndarray
    tuning: GroupElement = field(default_factory=GroupElement)

    @property
    def nt(self) -> int:
        return self.data.shape[2]


def forward_fft3(seq: SequenceVolume) -> SpectrumVolume:
    """Unitary 3D DFT of a sequence (Parseval holds with constant 1)."""
    global _fft_calls
    if not np.all(np.isfinite(seq.data)):
        raise ValueError("sequence contains non-finite samples")
    _fft_calls += 1
    return SpectrumVolume(
        np.fft.fftn(seq.data, norm="ortho"), seq.pixel_pitch, seq.frame_pitch
    )


def inverse_fft3(spec: SpectrumVolume) -> np.ndarray:
    """Unitary inverse of forward_fft3; returns the complex volume."""
    return np.fft.ifftn(spec.data, norm="ortho")


def _radial_cutoff(params: GcmParams) -> float:
    """Radius beyond which the mother spatial profile is below 1e-16 of its
    peak (on-axis bound; off-axis values are smaller)."""
    n = params.l + params.m
    peak = math.sqrt(n)

    def log_profile(r):
        return n * math.log(r) - 0.5 * params.sigma * (r - params.chi) ** 2

    top = log_profile(peak)
    r = peak
    step = max(0.25, 2.0 / math.sqrt(params.sigma))
    while log_profile(r) > top - 40.0 and r < peak + 400 * step:
        r += step
    return r


def _temporal_cutoff(params: GcmParams) -> float:
    return abs(params.omega0) + 9.0


def _alias_range(cutoff: float, period: float) -> range:
    jmax = int(math.floor((cutoff + period / 2) / period))
    return range(-jmax, jmax + 1)


def tuned_filter_factors(
    spec: SpectrumVolume,
    g: GroupElement,
    params: GcmParams,
    centered: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the tuned kernel on the DFT grid as separable factors.

    Returns (S, T) where S is the (nx, ny) spatial response including the
    group prefactor and T the (nt,) temporal response, both periodized over
    the frequency lattice and sampled with the engine's temporal
    orientation.  The full filter volume is S[:, :, None] * T.

    Translations must be zero; they are realized by the inverse FFT.
    """
    if g.bx != 0.0 or g.by != 0.0 or g.tau != 0.0:
        raise ValueError("translation parameters must be zero; the inverse FFT supplies them")

    kx, ky, w = spec.kx(), spec.ky(), spec.omega()
    k_period = 2 * np.pi / spec.pixel_pitch
    w_period = 2 * np.pi / spec.frame_pitch

    if centered:
        k0x, k0y, w0 = centered_shift(g, params)
    else:
        k0x = k0y = w0 = 0.0

    s_scale = g.a_s * g.c**SPEED_EXPONENT_SPATIAL
    k_cut = _radial_cutoff(params) / s_scale + math.hypot(k0x, k0y)
    t_cut = _temporal_cutoff(params) * g.c**SPEED_EXPONENT_TEMPORAL / g.a_t + abs(w0)

    S = np.zeros((spec.nx, spec.ny))
    for jx in _alias_range(k_cut, k_period):
        for jy in _alias_range(k_cut, k_period):
            S += tuned_spatial(
                g,
                params,
                (kx + jx * k_period + k0x)[:, None],
                (ky + jy * k_period + k0y)[None, :],
            )
    S *= _prefactor(g)

    T = np.zeros(spec.nt)
    for jt in _alias_range(t_cut, w_period):
        T += tuned_temporal(g, params, -(w + jt * w_period) + w0)
    return S, T


def spatial_nyquist_leakage(S: np.ndarray) -> float:
    """Largest spatial response magnitude on the Nyquist shell relative to
    the peak response (diagnostic for grid-resolution adequacy)."""
    peak = float(np.abs(S).max())
    if peak == 0.0:
        return 0.0
    shell = max(np.abs(S[S.shape[0] // 2, :]).max(), np.abs(S[:, S.shape[1] // 2]).max())
    return float(shell) / peak


def apply_spectral_filter(spec: SpectrumVolume, response: np.ndarray) -> np.ndarray:
    """Pointwise-multiply the spectrum by a conjugated frequency response
    and inverse transform over all translations."""
    return np.fft.ifftn(np.conj(response) * spec.data, norm="ortho")


def apply_tuned_filter(
    spec: SpectrumVolume,
    g: GroupElement,
    params: GcmParams,
    centered: bool = False,
) -> WaveletCoefficients:
    """Coefficient volume W(b, tau) for one tuning.

    The sampled response is real-valued (translations are excluded), so the
    conjugation required by the analysis inner product is a no-op.
    """
    S, T = tuned_filter_factors(spec, g, params, centered)
    return WaveletCoefficients(apply_spectral_filter(spec, S[:, :, None] * T), g)


def _frame_indices(frame_range, nt: int) -> np.ndarray:
    frames = np.asarray(sorted(set(int(i) for i in frame_range)), dtype=int)
    if frames.size == 0:
        raise ValueError("frame range must not be empty")
    if frames[0] < 0 or frames[-1] >= nt:
        raise ValueError(f"frame indices must lie in [0, {nt}), got {frames}")
    return frames


def energy_density(coeffs: WaveletCoefficients, frame_range) -> float:
    """Sum of squared coefficient moduli over all pixels of the selected
    frames (global density over the whole frame plane)."""
    frames = _frame_indices(frame_range, coeffs.nt)
    block = coeffs.data[:, :, frames]
    return float(np.sum(block.real**2 + block.imag**2))


def tuned_energy_detail(
    spec: SpectrumVolume,
    g: GroupElement,
    params: GcmParams,
    frame_range=None,
    method: str = "auto",
    centered: bool = False,
) -> tuple[float, float]:
    """(total coefficient energy, peak power gain) for one tuning.

    The peak power gain max|response|^2 bounds the energy any input of unit
    norm can produce; scans use it to tell genuine responses from FFT
    round-off dust.
    """
    frames = _frame_indices(range(spec.nt) if frame_range is None else frame_range, spec.nt)
    all_frames = frames.size == spec.nt
    if method == "auto":
        method = "parseval" if all_frames else "inverse"
    if method not in ("parseval", "inverse"):
        raise ValueError(f"unknown energy method {method!r}")
    if method == "parseval" and not all_frames:
        raise ValueError("the Parseval shortcut requires the full frame range")
    S, T = tuned_filter_factors(spec, g, params, centered)
    gain = float(np.max(S**2)) * float(np.max(T**2))
    if method == "parseval":
        power = spec.data.real**2 + spec.data.imag**2
        per_pixel = power.reshape(spec.nx * spec.ny, spec.nt) @ (T**2)
        return float(per_pixel @ (S**2).ravel()), gain
    coeffs = WaveletCoefficients(apply_spectral_filter(spec, S[:, :, None] * T), g)
    return energy_density(coeffs, frames), gain


def tuned_energy(
    spec: SpectrumVolume,
    g: GroupElement,
    params: GcmParams,
    frame_range=None,
    method: str = "auto",
    centered: bool = False,
) -> float:
    """Total coefficient energy for one tuning.

    method "parseval" reads the energy off the spectrum (valid when the
    frame range covers all frames), "inverse" goes through the coefficient
    volume, "auto" picks the shortcut whenever it applies.  Both paths
    agree to within round-off and are cross-checked in the tests.
    """
    return tuned_energy_detail(spec, g, params, frame_range, method, centered)[0]
