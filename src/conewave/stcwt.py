"""Discrete spatio-temporal transform engine.

The pipeline is the classical FFT filter bank: one unitary 3D FFT of the
input sequence, pointwise products with tuned kernels sampled on the DFT
frequency grid, and (when coefficient maps are needed) a unitary inverse
FFT that realizes all translations at once.  Unitary normalization makes
Parseval hold with constant 1, so total energies can be read directly off
the spectrum without any inverse transform; that shortcut is the engine's
main optimization and is oracle-checked in the tests.

The input is real, so its spectrum is Hermitian, X(k, omega) =
conj X(-k, -omega), and the forward transform is one rfftn, computed in
place in one array: the half spectrum of the bins omega = 0 .. nt // 2.
The scan works on that half alone.  Its power, and with it the total
energy, is formed in one pass over the stored bins, and every tuning
contracts only its rows at the spatial bins where the tuning's S is not
zero.  Each bin 1 <= omega <= (nt - 1) // 2 stands for itself and its
mirror image (-k, -omega), so the contraction also reads that image's
power, at row -k, and the energy counts the bin twice.  The omega = 0
plane, and for an even nt the Nyquist plane omega = nt // 2, are their own
mirror images and count once.  The full complex spectrum is mirrored from
the half only for the inverse-FFT path, which a scan over all frames never
takes.

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
  high-speed captures work at coarse temporal scales).  The spatial
  factor is exactly zero outside its rotated cone, so each spatial alias
  term is sampled only at the grid points inside the cone or within a
  rounding margin of its edges, found once per scan and orientation.
  Past the axial cutoff of _radial_cutoff every value inside the cone is
  below e^-40 of the mother's on-axis peak, so each tuning keeps only
  the points short of it, and all the alias terms of a tuning go through
  one kernel call per factor.

Boundary model is periodic (circular) throughout; window the input if
leakage matters.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .kernels import (
    GcmParams,
    GroupElement,
    SPEED_EXPONENT_SPATIAL,
    SPEED_EXPONENT_TEMPORAL,
    _prefactor,
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


class _Sampled:
    """Grid sizes of an (nx, ny, nt) volume, and the checks that it is 3-D
    with every size at least 2 and that its sample pitches are finite and
    positive."""

    def _check_grid(self):
        if len(self.shape) != 3:
            raise ValueError(f"expected a 3D volume, got shape {self.shape}")
        if min(self.shape) < 2:
            raise ValueError(f"all grid sizes must be >= 2, got {self.shape}")
        for name in ("pixel_pitch", "frame_pitch"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")

    @property
    def nx(self) -> int:
        return self.shape[0]

    @property
    def ny(self) -> int:
        return self.shape[1]

    @property
    def nt(self) -> int:
        return self.shape[2]


@dataclass
class SequenceVolume(_Sampled):
    """Real-valued (nx, ny, nt) image sequence.

    Data is promoted to float64 in memory regardless of the on-disk dtype.
    pixel_pitch and frame_pitch carry the nominal sample spacings (default
    1 pixel and 1 frame); both must be finite and positive.
    """

    data: np.ndarray
    pixel_pitch: float = 1.0
    frame_pitch: float = 1.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        self._check_grid()
        if not np.all(np.isfinite(self.data)):
            raise ValueError("sequence contains non-finite samples")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def energy(self) -> float:
        return float(np.sum(self.data**2))


@dataclass(frozen=True, eq=False, init=False)
class SpectrumVolume(_Sampled):
    """Complex 3D spectrum on the discrete (kx, ky, omega) grid.

    Samples are stored in natural FFT order; the kx/ky/omega accessors
    return the angular frequency 2*pi*i/N of every bin (i in
    [-N/2, N/2)), so each sample is logically indexed by its frequency.
    The shape and pitches are checked as for SequenceVolume.

    SpectrumVolume(data) stores any complex array as it is, every bin, and
    mirrors none.  The spectrum of a real sequence (forward_fft3) stores
    only its rfftn half, the bins omega = 0 .. nt // 2; its bins
    1 .. (nt - 1) // 2 are mirrored, each standing also for its image
    (-k, -omega).  The power and the energy read the stored bins and count
    the mirrored ones twice, and a tuning's contraction reads the rows of
    its spatial support and each mirrored image at row -k, the same way
    for both.  The full data of a real sequence is mirrored from the half
    only when data is read; a scan never reads it.  data is read-only
    either way, so the cached power cannot go stale.
    """

    pixel_pitch: float = 1.0
    frame_pitch: float = 1.0

    def __init__(self, data, pixel_pitch: float = 1.0, frame_pitch: float = 1.0):
        data = _read_only(np.asarray(data).view())
        self._set(data.shape, pixel_pitch, frame_pitch, _stored=data, data=data)

    @classmethod
    def _of_real(cls, half: np.ndarray, nt: int, pixel_pitch: float, frame_pitch: float):
        """The spectrum of a real (nx, ny, nt) sequence from its rfftn half."""
        spec = cls.__new__(cls)
        spec._set(half.shape[:2] + (nt,), pixel_pitch, frame_pitch, _stored=half)
        return spec

    def _set(self, shape, pixel_pitch, frame_pitch, **arrays):
        values = dict(shape=shape, pixel_pitch=pixel_pitch, frame_pitch=frame_pitch, **arrays)
        for name, value in values.items():
            object.__setattr__(self, name, value)
        self._check_grid()

    @property
    def _mirrored(self) -> int:
        """How many stored omega bins, 1 .. _mirrored, stand also for their
        mirror images: (nt - 1) // 2 for a real sequence, 0 otherwise."""
        return self.nt - self._stored.shape[2]

    @cached_property
    def _reflection(self) -> np.ndarray:
        """The flat spatial bin of -k for each flat bin k of the (nx, ny)
        grid: index i goes to -i mod n on both axes."""
        i, j = np.divmod(np.arange(self.nx * self.ny), self.ny)
        return (-i % self.nx) * self.ny + -j % self.ny

    @cached_property
    def data(self) -> np.ndarray:
        """The full complex spectrum; a real sequence's is mirrored from its
        half on first read, X(k, omega) = conj X(-k, -omega): its bins
        nt // 2 + 1 .. nt - 1 are the conjugates of bins _mirrored .. 1 at -k."""
        nh = self._stored.shape[2]
        full = np.empty(self.shape, dtype=self._stored.dtype)
        full[:, :, :nh] = self._stored
        rows = self._stored.reshape(self.nx * self.ny, nh)[self._reflection, self._mirrored:0:-1]
        full[:, :, nh:] = np.conjugate(rows).reshape(self.nx, self.ny, -1)
        return _read_only(full)

    @cached_property
    def _power_and_energy(self) -> tuple[np.ndarray, float]:
        """The power |X|^2 of the stored bins, C-ordered whatever their
        layout, and the total energy: every stored bin once and the mirrored
        ones again.  One pass forms both, a slab of rows of axis 0 at a
        time, so no temporary is larger than a slab."""
        stored = self._stored
        power = np.empty(stored.shape)
        rows = max(1, _SLAB_BINS // (self.ny * stored.shape[2]))
        energy = 0.0
        for i in range(0, self.nx, rows):
            part, slab = stored[i:i + rows], power[i:i + rows]
            np.square(part.real, out=slab)
            slab += np.square(part.imag)
            energy += float(slab.sum()) + float(slab[:, :, 1:1 + self._mirrored].sum())
        return power, energy

    @cached_property
    def power(self) -> np.ndarray:
        """|X|^2 of the stored bins, formed on first use and shared by every
        tuning read off this spectrum.  It is C-ordered whatever the layout
        of the spectrum (a volume read from STV is Fortran-ordered), so the
        Parseval path reshapes it to (nx * ny, bins) without a copy."""
        return self._power_and_energy[0]

    def kx(self) -> np.ndarray:
        return _angular_frequencies(self.nx, self.pixel_pitch)

    def ky(self) -> np.ndarray:
        return _angular_frequencies(self.ny, self.pixel_pitch)

    def omega(self) -> np.ndarray:
        return _angular_frequencies(self.nt, self.frame_pitch)

    def energy(self) -> float:
        """Sum of |X|^2 over all nt bins, formed with the power."""
        return self._power_and_energy[1]


# Stored bins per slab of the power: a slab and its temporary stay in cache.
_SLAB_BINS = 1 << 15


def _angular_frequencies(n: int, pitch: float) -> np.ndarray:
    """Angular frequency of every bin of an n-point DFT, in natural FFT order."""
    return 2 * np.pi * np.fft.fftfreq(n, d=pitch)


@dataclass
class WaveletCoefficients:
    """Complex coefficient volume for a fixed tuning (theta, a_s, a_t, c)."""

    data: np.ndarray
    tuning: GroupElement = field(default_factory=GroupElement)

    @property
    def nt(self) -> int:
        return self.data.shape[2]


def forward_fft3(seq: SequenceVolume) -> SpectrumVolume:
    """Unitary 3D DFT of a sequence (Parseval holds with constant 1).

    The input is real, so one rfftn computes the half spectrum omega = 0 ..
    nt // 2, in place in one C-ordered array: numpy transforms the time
    axis into it and then the two spatial axes where they lie, with the
    same bytes as a plain rfftn.  The spectrum mirrors the rest when it
    needs it."""
    global _fft_calls
    if not np.all(np.isfinite(seq.data)):
        raise ValueError("sequence contains non-finite samples")
    _fft_calls += 1
    half = np.empty((seq.nx, seq.ny, seq.nt // 2 + 1), dtype=complex)
    np.fft.rfftn(seq.data, norm="ortho", out=half)
    return SpectrumVolume._of_real(half, seq.nt, seq.pixel_pitch, seq.frame_pitch)


def inverse_fft3(spec: SpectrumVolume) -> np.ndarray:
    """Unitary inverse of forward_fft3; returns the complex volume."""
    return np.fft.ifftn(spec.data, norm="ortho")


def _radial_cutoff(params: GcmParams) -> float:
    """Axial cutoff of the mother spatial profile: past it, every value
    inside the cone is below e^-40 of the on-axis peak.

    At axial coordinate u inside the cone, dm^l dp^m <= C (u sin alpha)^n,
    with n = l + m and C = (2l/n)^l (2m/n)^m, which is 1 at l = m, while
    the on-axis value is (u sin alpha)^n exp(-sigma/2 (u - chi)^2).  So
    the cutoff is where that on-axis value falls e^-40 / C below its peak.
    It bounds the axial coordinate, not the radius: off the axis, the
    cone reaches |k| = u / cos(alpha)."""
    n = params.l + params.m
    peak = math.sqrt(n)
    log_c = params.l * math.log(2 * params.l / n) + params.m * math.log(2 * params.m / n)

    def log_profile(r):
        return n * math.log(r) - 0.5 * params.sigma * (r - params.chi) ** 2

    top = log_profile(peak)
    r = peak
    step = max(0.25, 2.0 / math.sqrt(params.sigma))
    while log_profile(r) > top - 40.0 - log_c and r < peak + 400 * step:
        r += step
    return r


def _temporal_cutoff(params: GcmParams) -> float:
    return abs(params.omega0) + 9.0


def _alias_range(cutoff: float, period: float) -> range:
    jmax = int(math.floor((cutoff + period / 2) / period))
    return range(-jmax, jmax + 1)


def _clip(polygon, a: float, b: float, c: float) -> list:
    """The part of a convex polygon [(u, v), ...] where a*u + b*v + c >= 0."""
    out = []
    pu, pv = polygon[-1]
    dp = a * pu + b * pv + c
    for qu, qv in polygon:
        dq = a * qu + b * qv + c
        if (dp >= 0.0) != (dq >= 0.0):
            s = dp / (dp - dq)
            out.append((pu + s * (qu - pu), pv + s * (qv - pv)))
        if dq >= 0.0:
            out.append((qu, qv))
        pu, pv, dp = qu, qv, dq
    return out


def _bins(lo: float, hi: float, n: int) -> np.ndarray:
    """Indices of the bins f in [lo, hi] of an n-point DFT (f in natural
    order, from -(n // 2) to (n - 1) // 2), widened by one bin each way."""
    first = max(math.ceil(lo) - 1, -(n // 2))
    last = min(math.floor(hi) + 1, (n - 1) // 2)
    return np.arange(first, last + 1) % n


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Sampling:
    """What the tunings of one kernel shape and orientation share on a grid,
    whatever their speed and scales, formed on first use: the frequencies,
    periods and cutoffs, and the cone points of each alias range."""

    def __init__(self, spec: SpectrumVolume, params: GcmParams, theta: float):
        self.params, self.theta = params, theta
        self.kx, self.ky, self.w = spec.kx(), spec.ky(), spec.omega()
        self.k_period, self.w_period = 2 * np.pi / spec.pixel_pitch, 2 * np.pi / spec.frame_pitch
        self.radial_cutoff, self.temporal_cutoff = _radial_cutoff(params), _temporal_cutoff(params)
        # The cone's inward edge normals, formed as the kernel forms its
        # inside test, and its axis: the dual edge vectors and the axis
        # turned by theta.
        ct, st = math.cos(theta), math.sin(theta)
        *self.normals, self.axis = ((ct * px - st * py, st * px + ct * py) for px, py in (
            params.cone.dual_plus, params.cone.dual_minus, params.cone.axis_unit))
        self._points, self._omegas = {}, {}

    def spatial_terms(self, g: GroupElement) -> range:
        """The spatial alias terms of tuning g, per axis."""
        return _alias_range(self.radial_cutoff / (g.a_s * g.c**SPEED_EXPONENT_SPATIAL),
                            self.k_period)

    def cone_points(self, terms: range):
        """(flat grid index, kx, ky, u) of the cone points of every alias
        term of terms x terms, concatenated term after term in summing
        order; u = k . axis is the axial coordinate."""
        if terms not in self._points:
            per_term = [self._cone_points(jx, jy) for jx in terms for jy in terms]
            self._points[terms] = tuple(np.concatenate(part) for part in zip(*per_term))
        return self._points[terms]

    def _cone_points(self, jx: int, jy: int):
        """The bins of alias term (jx, jy) inside the cone, where both
        normal . k >= 0, or within 1e-9 of |kx| + |ky| outside: a margin far
        wider than the rounding by which the kernel's own inside test can
        differ, so no bin the kernel puts inside is left out.  Only the
        bounding box of the cone clipped to the term's bins is tested."""
        (nx, ny), (ax, ay), (bx, by) = (self.kx.size, self.ky.size), *self.normals
        hx, hy = self.k_period / nx, self.k_period / ny
        # Bin (u, v) of the term sits at k = (u hx + jx k_period, v hy + jy k_period).
        u0, u1, v0, v1 = -(nx // 2) - 1, (nx - 1) // 2 + 1, -(ny // 2) - 1, (ny - 1) // 2 + 1
        box = [(u0, v0), (u1, v0), (u1, v1), (u0, v1)]
        for ex, ey in self.normals:
            box = box and _clip(box, ex * hx, ey * hy, (ex * jx + ey * jy) * self.k_period)
        if not box:
            return np.empty(0, dtype=int), np.empty(0), np.empty(0), np.empty(0)
        us, vs = [u for u, _ in box], [v for _, v in box]
        rows, cols = _bins(min(us), max(us), nx), _bins(min(vs), max(vs), ny)
        kx, ky = self.kx[rows] + jx * self.k_period, self.ky[cols] + jy * self.k_period
        x, y = kx[:, None], ky[None, :]
        margin = -1e-9 * (np.abs(x) + np.abs(y))
        i, j = np.nonzero((x * ax + y * ay >= margin) & (x * bx + y * by >= margin))
        kx, ky = kx[i], ky[j]
        return rows[i] * ny + cols[j], kx, ky, kx * self.axis[0] + ky * self.axis[1]

    def omegas(self, terms: range) -> np.ndarray:
        """-(omega + jt * period), a row per temporal alias term jt of terms."""
        if terms not in self._omegas:
            self._omegas[terms] = np.array([-(self.w + jt * self.w_period) for jt in terms])
        return self._omegas[terms]


def _sampling(spec: SpectrumVolume, params: GcmParams, theta: float) -> _Sampling:
    """The sampling of tunings (params, theta) on spec's grid; spec holds the latest."""
    held = vars(spec).get("_held_sampling")
    if held is None or held.theta != theta or held.params != params:
        held = _Sampling(spec, params, theta)
        object.__setattr__(spec, "_held_sampling", held)
    return held


def tuned_filter_factors(
    spec: SpectrumVolume, g: GroupElement, params: GcmParams
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the tuned kernel on the DFT grid as separable factors.

    Returns (S, T): the (nx, ny) spatial response with the group prefactor
    and the (nt,) temporal response, both periodized and sampled with the
    engine's temporal orientation, each in one kernel call on all its alias
    terms.  A spatial term is sampled only at its rotated cone's grid
    points short of the axial cutoff, and added there in the same order
    and with the same arithmetic as over the whole grid, where it is
    exactly zero outside the cone.  So a bin none of whose terms is cut
    gets the bytes of the whole grid, and each cut value is below e^-40 of
    the mother's on-axis peak, times the prefactor.
    Translations must be zero; the inverse FFT supplies them.
    """
    if g.bx != 0.0 or g.by != 0.0 or g.tau != 0.0:
        raise ValueError("translation parameters must be zero; the inverse FFT supplies them")

    geo = _sampling(spec, params, g.theta)
    t_cut = geo.temporal_cutoff * g.c**SPEED_EXPONENT_TEMPORAL / g.a_t

    # bincount adds each bin's values from 0 in the order they come: term after term.
    index, kx, ky, u = geo.cone_points(geo.spatial_terms(g))
    keep = u <= geo.radial_cutoff / (g.a_s * g.c**SPEED_EXPONENT_SPATIAL)
    S = np.bincount(index[keep], tuned_spatial(g, params, kx[keep], ky[keep]),
                    spec.nx * spec.ny) * _prefactor(g)
    T = np.add.reduce(tuned_temporal(g, params, geo.omegas(_alias_range(t_cut, geo.w_period))))
    return S.reshape(spec.nx, spec.ny), T


def apply_spectral_filter(spec: SpectrumVolume, response: np.ndarray) -> np.ndarray:
    """Pointwise-multiply the spectrum by a conjugated frequency response
    and inverse transform over all translations."""
    return np.fft.ifftn(np.conj(response) * spec.data, norm="ortho")


def apply_tuned_filter(
    spec: SpectrumVolume, g: GroupElement, params: GcmParams
) -> WaveletCoefficients:
    """Coefficient volume W(b, tau) for one tuning.

    The sampled response is real-valued (translations are excluded), so the
    conjugation required by the analysis inner product is a no-op.
    """
    S, T = tuned_filter_factors(spec, g, params)
    return WaveletCoefficients(apply_spectral_filter(spec, S[:, :, None] * T), g)


def _frame_index(i) -> int:
    """i as a frame index; a boolean or a fraction is refused, not truncated."""
    try:
        if not isinstance(i, (bool, np.bool_)) and i == int(i):
            return int(i)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"frame indices must be integers, got {i!r}")


def _frame_indices(frame_range, nt: float) -> np.ndarray:
    """The distinct frames of frame_range, sorted and checked to lie in [0, nt)."""
    frames = np.asarray(sorted({_frame_index(i) for i in frame_range}), dtype=int)
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


def _parseval_energy(spec: SpectrumVolume, S2: np.ndarray, T2: np.ndarray) -> float:
    """sum_k sum_omega P(k, omega) S2(k) T2(omega) over all nt bins, read
    off the rows of the stored power at the bins k where S2 is not zero:
    each stored bin h adds P(k, h) T2(h), and each mirrored bin adds its
    image P(k, -h) T2(-h) as well, read at row -k, P(k, -h) = P(-k, h)."""
    power = spec.power.reshape(spec.nx * spec.ny, -1)
    nh, S2 = power.shape[1], S2.ravel()
    bins = np.flatnonzero(S2 > 0.0)  # on the floats themselves, several times slower
    direct = power[bins] @ T2[:nh]
    # T2(-h) for h = 1 .. _mirrored is T2[nt - 1], T2[nt - 2], ...
    mirror = power[spec._reflection[bins], 1:1 + spec._mirrored] @ T2[:nh - 1:-1]
    return float((direct + mirror) @ S2[bins])


def tuned_energy_detail(
    spec: SpectrumVolume,
    g: GroupElement,
    params: GcmParams,
    frame_range=None,
    method: str = "auto",
) -> tuple[float, float]:
    """(total coefficient energy, peak power gain) for one tuning.

    The peak power gain max|response|^2 bounds the energy any input of unit
    norm can produce; scans use it to tell genuine responses from FFT
    round-off dust.  The Parseval path contracts the spectrum's cached
    power of its stored bins, where each mirrored bin stands also for its
    image, P(k, -omega) = P(-k, omega); no full-size power is formed.
    """
    frames = range(spec.nt) if frame_range is None else _frame_indices(frame_range, spec.nt)
    all_frames = len(frames) == spec.nt
    if method == "auto":
        method = "parseval" if all_frames else "inverse"
    if method not in ("parseval", "inverse"):
        raise ValueError(f"unknown energy method {method!r}")
    if method == "parseval" and not all_frames:
        raise ValueError("the Parseval shortcut requires the full frame range")
    S, T = tuned_filter_factors(spec, g, params)
    S2, T2 = S**2, T**2
    gain = float(S2.max()) * float(T2.max())
    if method == "parseval":
        return _parseval_energy(spec, S2, T2), gain
    coeffs = WaveletCoefficients(apply_spectral_filter(spec, S[:, :, None] * T), g)
    return energy_density(coeffs, frames), gain


def tuned_energy(
    spec: SpectrumVolume,
    g: GroupElement,
    params: GcmParams,
    frame_range=None,
    method: str = "auto",
) -> float:
    """Total coefficient energy for one tuning.

    method "parseval" reads the energy off the spectrum (valid when the
    frame range covers all frames), "inverse" goes through the coefficient
    volume, "auto" picks the shortcut whenever it applies.  Both paths
    agree to within round-off and are cross-checked in the tests.
    """
    return tuned_energy_detail(spec, g, params, frame_range, method)[0]
