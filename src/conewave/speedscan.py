"""Speed, orientation and aperture sweeps over the tuned filter bank.

A scan computes the input spectrum once, then evaluates the total
coefficient energy for every speed tuning c_j on that shared spectrum.
The energy curve peaks when the tuning matches the true pattern speed; the
grid argmax can optionally be polished by a golden-section search on the
continuous c axis.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .kernels import ConeSpec, GcmParams, GroupElement, _require_finite
from .stcwt import (
    SequenceVolume,
    SpectrumVolume,
    forward_fft3,
    tuned_energy,
    tuned_energy_detail,
)

FLAT_RATIO_THRESHOLD = 1e-9  # max/min - 1 below this means "no detectable motion"

# Energies below peak-gain * input-energy * this factor are indistinguishable
# from FFT round-off (double precision eps^2 is 4.9e-32) and count as zero.
DUST_RELATIVE_FLOOR = 1e-26

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_maximize(f, lo: float, hi: float, tol: float = 1e-3):
    """Golden-section maximization on [lo, hi] for a unimodal f.

    Returns (x_best, f_best) over every point actually evaluated, so the
    result is never worse than the bracket endpoints.
    """
    if hi < lo:
        raise ValueError("empty bracket")
    if not tol > 0:  # also rejects NaN, which would end the search at once
        raise ValueError("tol must be positive")
    evals = {lo: f(lo), hi: f(hi)}
    a, b = lo, hi
    c = b - (b - a) * _INV_GOLDEN
    d = a + (b - a) * _INV_GOLDEN
    fc, fd = f(c), f(d)
    evals[c], evals[d] = fc, fd
    while abs(b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INV_GOLDEN
            fc = f(c)
            evals[c] = fc
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INV_GOLDEN
            fd = f(d)
            evals[d] = fd
    best = max(evals, key=lambda x: (evals[x], -x))
    return best, evals[best]


@dataclass
class ScanConfig:
    """Sweep configuration: speed grid, kernel shape and tuning scales."""

    c_min: float = 1.0
    c_max: float = 6.0
    c_step: float = 0.25
    theta: float = 0.0
    a_s: float = 3.0
    a_t: float = 3.0
    alpha: float = math.pi / 16
    l: int = 10
    m: int = 10
    sigma: float = 1.0
    omega0: float | None = None
    frame_range: tuple[int, ...] | None = None
    refine: str = "none"  # "none" or "golden-section"
    refine_tol: float = 1e-3

    def __post_init__(self):
        _require_finite(
            self, "c_min", "c_max", "c_step", "theta", "a_s", "a_t", "alpha", "refine_tol"
        )
        if not 0 < self.c_min < self.c_max:
            raise ValueError(f"need 0 < c_min < c_max, got [{self.c_min}, {self.c_max}]")
        if self.c_step <= 0:
            raise ValueError("c_step must be positive")
        if len(self.speed_grid()) < 3:
            raise ValueError("speed grid must contain at least 3 samples")
        if self.refine not in ("none", "golden-section"):
            raise ValueError(f"unknown refinement {self.refine!r}")
        if not self.refine_tol > 0:
            raise ValueError("refine_tol must be positive")

    def speed_grid(self) -> np.ndarray:
        n = int(math.floor((self.c_max - self.c_min) / self.c_step + 1e-9)) + 1
        return self.c_min + self.c_step * np.arange(n)

    def params(self) -> GcmParams:
        return GcmParams(
            l=self.l,
            m=self.m,
            sigma=self.sigma,
            omega0=self.omega0,
            cone=ConeSpec(alpha=self.alpha),
        )

    def tuning(self, c: float) -> GroupElement:
        return GroupElement(
            theta=self.theta,
            a_s=self.a_s,
            a_t=self.a_t,
            c=c,
        )


@dataclass
class EnergyCurve:
    """Sampled map c_j -> total energy with the located peak."""

    c_values: np.ndarray
    energies: np.ndarray
    v_m: float
    peak_energy: float
    no_motion: bool = False

    @property
    def samples(self) -> list[tuple[float, float]]:
        return [(float(c), float(e)) for c, e in zip(self.c_values, self.energies)]


def _scan_spectrum(spectrum: SpectrumVolume, config: ScanConfig) -> EnergyCurve:
    """Speed scan of one spectrum: the grid energies, the dust floor and
    no-motion test, and the optional golden-section refinement."""
    params = config.params()
    cs = config.speed_grid()
    energies, gains = np.array([
        tuned_energy_detail(spectrum, config.tuning(float(c)), params, config.frame_range)
        for c in cs
    ]).T

    peak_idx = int(np.argmax(energies))  # first index wins ties, smaller c
    v_m = float(cs[peak_idx])
    peak = float(energies[peak_idx])

    floor = gains * spectrum.energy() * DUST_RELATIVE_FLOOR
    effective = np.where(energies <= floor, 0.0, energies)
    emax, emin = float(effective.max()), float(effective.min())
    no_motion = emax <= 0.0 or (emin > 0.0 and emax / emin < 1.0 + FLAT_RATIO_THRESHOLD)

    if config.refine == "golden-section" and not no_motion:
        lo = max(config.c_min, v_m - config.c_step)
        hi = min(config.c_max, v_m + config.c_step)

        def objective(c):
            return tuned_energy(spectrum, config.tuning(c), params, frame_range=config.frame_range)

        x, fx = golden_section_maximize(objective, lo, hi, config.refine_tol)
        if fx >= peak:
            v_m, peak = float(x), float(fx)
    return EnergyCurve(cs, energies, v_m, peak, no_motion)


def scan_speeds(seq: SequenceVolume, config: ScanConfig) -> EnergyCurve:
    """Energy curve over the configured speed grid (one input FFT total)."""
    return _scan_spectrum(forward_fft3(seq), config)


def _sweep(seq: SequenceVolume, config: ScanConfig, field: str, values):
    """One full speed scan per value of one config field, on one shared spectrum."""
    spectrum = forward_fft3(seq)
    out = []
    for value in values:
        curve = _scan_spectrum(spectrum, replace(config, **{field: float(value)}))
        out.append((float(value), curve.v_m, curve.peak_energy))
    return out


def scan_orientations(seq: SequenceVolume, config: ScanConfig, theta_list):
    """One full speed scan per wavelet orientation.

    Returns [(theta, v_m, peak_energy), ...]; the input spectrum is
    computed once and shared across orientations.
    """
    return _sweep(seq, config, "theta", theta_list)


def aperture_sweep(seq: SequenceVolume, config: ScanConfig, alpha_list):
    """One full speed scan per cone aperture, at the configured orientation.

    Returns [(alpha, v_m, peak_energy), ...].
    """
    return _sweep(seq, config, "alpha", alpha_list)
