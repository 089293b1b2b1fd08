"""Frequency-domain wavelet kernels for directional speed analysis.

All filters are evaluated in closed form on the (kx, ky, omega) frequency
domain.  The spatial family lives inside a strictly convex cone: the Cauchy
wavelet decays exponentially along the cone axis, the Gaussian-Conical (GC)
variant replaces that decay with a Gaussian so the radial peak sits at
sqrt(l + m) regardless of the aperture.  The spatio-temporal GCM kernel is
the separable product of the GC spatial factor with a temporal Morlet
envelope, and a six-parameter motion group (translation, rotation, spatial
and temporal scaling, speed tuning) acts on it.

Every evaluator is a pure function of its arguments and broadcasts over
numpy arrays, so parameter sweeps can share read-only kernel objects.
"""

import math
from dataclasses import dataclass, field

import numpy as np

# Exponents of the speed-tuning action: spatial frequencies scale as
# c**SPEED_EXPONENT_SPATIAL, the temporal frequency as
# c**(-SPEED_EXPONENT_TEMPORAL).  Their sum is 1, which makes the center
# slope omega/kx of a tuned kernel proportional to c.
SPEED_EXPONENT_TEMPORAL = 2.0 / 3.0
SPEED_EXPONENT_SPATIAL = 1.0 / 3.0


def _require_finite(obj, *names: str) -> None:
    """Reject NaN and infinite fields; order checks such as ``x <= 0`` let NaN through."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class ConeSpec:
    """Strictly convex frequency cone, symmetric about its axis.

    Parameters
    ----------
    alpha : float
        Half-aperture in radians, 0 < alpha < pi/2.
    theta_axis : float
        Orientation of the cone axis in radians (0 points along +kx).
        Storing the axis here makes rotation a parameter change rather
        than a grid resample, so rotation covariance is exact.
    """

    alpha: float
    theta_axis: float = 0.0

    def __post_init__(self):
        _require_finite(self, "theta_axis")
        if not 0.0 < self.alpha < math.pi / 2:
            raise ValueError(f"cone half-aperture must be in (0, pi/2), got {self.alpha}")

    @property
    def dual_alpha(self) -> float:
        """Half-aperture of the dual cone, pi/2 - alpha."""
        return math.pi / 2 - self.alpha

    def _unit(self, angle: float) -> tuple[float, float]:
        a = self.theta_axis + angle
        return (math.cos(a), math.sin(a))

    @property
    def edge_plus(self) -> tuple[float, float]:
        return self._unit(self.alpha)

    @property
    def edge_minus(self) -> tuple[float, float]:
        return self._unit(-self.alpha)

    @property
    def dual_plus(self) -> tuple[float, float]:
        return self._unit(self.dual_alpha)

    @property
    def dual_minus(self) -> tuple[float, float]:
        return self._unit(-self.dual_alpha)

    @property
    def axis_unit(self) -> tuple[float, float]:
        return self._unit(0.0)

    def _dual_projections(self, kx, ky):
        """(k . e_dual_plus, k . e_dual_minus, inside mask): an edge point is
        inside, a NaN projection (NaN input, or inf - inf) outside.  Callers
        hold an errstate that ignores invalid operations."""
        px, py = self.dual_plus
        mx, my = self.dual_minus
        dp = kx * px + ky * py
        dm = kx * mx + ky * my
        return dp, dm, (dp >= 0.0) & (dm >= 0.0)

    def contains(self, kx, ky):
        """Membership mask; points exactly on an edge count as inside."""
        with np.errstate(invalid="ignore"):
            return self._dual_projections(np.asarray(kx, dtype=float),
                                          np.asarray(ky, dtype=float))[2]


@dataclass(frozen=True)
class GcmParams:
    """Shape parameters of the Gaussian-Conical-Morlet kernel.

    l, m control the vanishing order on the cone edges, sigma the radial
    Gaussian scale, omega0 the temporal Morlet center frequency.  When
    omega0 is None it defaults to sqrt(l + m), the unique choice for which
    a kernel tuned to speed c has center slope omega/kx equal to c (at
    equal spatial and temporal scales), so energy-curve peaks land at the
    true speed in pixels/frame.
    """

    l: int = 10
    m: int = 10
    sigma: float = 1.0
    omega0: float | None = None
    cone: ConeSpec = field(default_factory=lambda: ConeSpec(alpha=math.pi / 16))

    def __post_init__(self):
        if self.l < 1 or self.m < 1 or self.l != int(self.l) or self.m != int(self.m):
            raise ValueError(f"edge exponents must be integers >= 1, got l={self.l}, m={self.m}")
        if self.omega0 is None:
            object.__setattr__(self, "omega0", math.sqrt(self.l + self.m))
        _require_finite(self, "sigma", "omega0")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    @property
    def chi(self) -> float:
        """Center correction of the radial Gaussian.

        chi = sqrt(l+m) * (sigma-1)/sigma keeps the on-axis radial peak at
        sqrt(l+m) for every sigma (it is 0 for sigma = 1).
        """
        return math.sqrt(self.l + self.m) * (self.sigma - 1.0) / self.sigma


@dataclass(frozen=True)
class MorletParams:
    """Anisotropic 2D Morlet: center wave-vector k0 and anisotropy epsilon >= 1.

    The anisotropy matrix is A = diag[1, epsilon**-0.5]; epsilon > 1
    squeezes the envelope along ky.
    """

    k0: tuple[float, float] = (6.0, 0.0)
    epsilon: float = 1.0

    def __post_init__(self):
        _require_finite(self, "epsilon")
        if not all(math.isfinite(v) for v in self.k0):
            raise ValueError(f"k0 components must be finite, got {self.k0}")
        if self.epsilon < 1.0:
            raise ValueError(f"epsilon must be >= 1, got {self.epsilon}")


@dataclass(frozen=True)
class GroupElement:
    """Motion-group parameters (b, tau, theta, a_s, a_t, c).

    The default constructor is the identity element.  Speed exponents are
    the module constants SPEED_EXPONENT_TEMPORAL and SPEED_EXPONENT_SPATIAL,
    not per-element fields.
    """

    bx: float = 0.0
    by: float = 0.0
    tau: float = 0.0
    theta: float = 0.0
    a_s: float = 1.0
    a_t: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        _require_finite(self, "bx", "by", "tau", "theta", "a_s", "a_t", "c")
        if self.a_s <= 0 or self.a_t <= 0 or self.c <= 0:
            raise ValueError(
                f"scales and speed tuning must be positive, got "
                f"a_s={self.a_s}, a_t={self.a_t}, c={self.c}"
            )


def eval_morlet_2d(kx, ky, params: MorletParams, with_correction: bool = False):
    """2D Morlet envelope sqrt(eps) * exp(-0.5 |A^-1 (k - k0)|^2).

    The subtracted correction term enforces a zero at the frequency origin
    (admissibility); it is negligible for practical k0 and off by default.
    """
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    k0x, k0y = params.k0
    eps = params.epsilon
    root = math.sqrt(eps)
    main = np.exp(-0.5 * ((kx - k0x) ** 2 + eps * (ky - k0y) ** 2))
    if not with_correction:
        return root * main
    at_center = math.exp(-0.5 * (k0x**2 + eps * k0y**2))
    lowpass = np.exp(-0.5 * (kx**2 + eps * ky**2))
    return root * (main - at_center * lowpass)


def eval_cauchy_2d(kx, ky, cone: ConeSpec, l: int, m: int, eta: tuple[float, float]):
    """Directional Cauchy kernel, strictly supported in the cone.

    Inside: (k . e_dual_plus)**l * (k . e_dual_minus)**m * exp(-k . eta).
    The decay vector eta must lie strictly inside the cone, otherwise the
    exponential fails to decay along one edge.
    """
    ex, ey = eta
    ep, em, _ = cone._dual_projections(ex, ey)
    margin = 1e-12 * math.hypot(ex, ey)
    if not (ep > margin and em > margin):  # NaN fails both
        raise ValueError(f"decay vector {eta} must lie strictly inside the cone")
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        dp, dm, inside = cone._dual_projections(kx, ky)
        val = dp**l * dm**m * np.exp(-(kx * ex + ky * ey))
        return np.where(inside, val, 0.0)


def _gc_formula(ux, uy, dp, dm, params: GcmParams):
    """dm**l * dp**m times the axial Gaussian, with no cone mask."""
    ax, ay = params.cone.axis_unit
    axial = ux * ax + uy * ay
    return dm**params.l * dp**params.m * np.exp(-0.5 * params.sigma * (axial - params.chi) ** 2)


def _gc_profile(ux, uy, params: GcmParams):
    """GC value at (already scaled/rotated) frequency coordinates (ux, uy).

    The profile is exactly 0 outside the cone, where k . e_dual_plus < 0 or
    k . e_dual_minus < 0 (or either is NaN); at the default aperture that is
    about 15/16 of the plane.  So the powers and the Gaussian are evaluated
    only at the points inside and scattered into zeros.  Every kept point
    gets the same operations in the same order as a full evaluation, so the
    result is bit-identical to np.where(inside, formula, 0.0) over all
    points.  One errstate block covers the projections and the formula:
    this is the hot path of frame bounds.
    """
    ux, uy = np.broadcast_arrays(ux, uy)
    with np.errstate(over="ignore", invalid="ignore"):
        dp, dm, inside = params.cone._dual_projections(ux, uy)
        val = _gc_formula(ux[inside], uy[inside], dp[inside], dm[inside], params)
    out = np.zeros(inside.shape, dtype=val.dtype)
    out[inside] = val
    return out


def eval_gc_2d(kx, ky, params: GcmParams):
    """Gaussian-Conical kernel.

    Inside the cone: (k . e_dual_minus)**l * (k . e_dual_plus)**m times a
    Gaussian in the axial component centered at chi(sigma); exactly 0
    outside.  On the axis the magnitude peaks at |k| = sqrt(l + m).
    """
    return _gc_profile(np.asarray(kx, dtype=float), np.asarray(ky, dtype=float), params)


def _temporal_envelope(omega, params: GcmParams, power=pow):
    """Temporal Morlet envelope exp(-0.5 (omega - omega0)**2), the one
    temporal factor of every GCM evaluator.

    numpy squares a scalar through pow and an array by multiplication, and
    the two can differ in the last bit; power=np.float_power gives an array
    the rounding of scalars evaluated one at a time.
    """
    return np.exp(-0.5 * power(omega - params.omega0, 2))


def eval_gcm(kx, ky, omega, params: GcmParams):
    """Separable spatio-temporal kernel: GC spatial factor times the
    temporal Morlet envelope exp(-0.5 (omega - omega0)**2)."""
    omega = np.asarray(omega, dtype=float)
    return eval_gc_2d(kx, ky, params) * _temporal_envelope(omega, params)


def _rotate_back(kx, ky, theta: float):
    """Apply the inverse rotation r^(-theta) to frequency coordinates."""
    ct, st = math.cos(theta), math.sin(theta)
    return ct * kx + st * ky, -st * kx + ct * ky


def tuned_spatial(g: GroupElement, params: GcmParams, kx, ky):
    """Spatial factor of the group-tuned kernel (no prefactor, no phase).

    Equals the mother GC profile evaluated at a_s * c**(1/3) * r^(-theta) k;
    the support cone is rotated by theta and the radial peak moves to
    sqrt(l + m) / (a_s * c**(1/3)).
    """
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    rx, ry = _rotate_back(kx, ky, g.theta)
    s = g.a_s * g.c**SPEED_EXPONENT_SPATIAL
    return _gc_profile(s * rx, s * ry, params)


def tuned_temporal(g: GroupElement, params: GcmParams, omega):
    """Temporal factor exp(-0.5 (a_t * c**(-2/3) * omega - omega0)**2)."""
    omega = np.asarray(omega, dtype=float)
    return _temporal_envelope(g.a_t * g.c ** (-SPEED_EXPONENT_TEMPORAL) * omega, params)


def _prefactor(g: GroupElement) -> float:
    return 1.0 / (g.a_s * math.sqrt(g.a_t))


def _tuned_magnitude(g: GroupElement, params: GcmParams, kx, ky, omega):
    """Prefactor times the tuned spatial and temporal factors."""
    return _prefactor(g) * tuned_spatial(g, params, kx, ky) * tuned_temporal(g, params, omega)


def _phase(g: GroupElement, kx, ky, omega):
    return np.exp(-1j * (np.asarray(kx, dtype=float) * g.bx
                         + np.asarray(ky, dtype=float) * g.by
                         + np.asarray(omega, dtype=float) * g.tau))


def apply_group(g: GroupElement, params: GcmParams, kx, ky, omega):
    """Kernel transformed by the full motion group.

    a_s**-1 * a_t**-0.5 * exp(-i(k.b + omega*tau)) times the spatial factor
    at a_s * c**(1/3) * r^(-theta) k and the temporal factor at
    a_t * c**(-2/3) * omega.  Zero wherever r^(-theta) k falls outside the
    cone.  Returns a complex array (real-valued when b and tau are zero).
    """
    return _phase(g, kx, ky, omega) * _tuned_magnitude(g, params, kx, ky, omega)


def central_wavevector(g: GroupElement, params: GcmParams) -> np.ndarray:
    """Spatial compensation vector for centering a tuned kernel.

    (1/a_s) * (1/a_t) * sqrt(l+m) / c**(1/3) along the rotated cone axis.
    Note the temporal scale a_t enters this spatial compensation; as a
    consequence the centered kernel peaks exactly at the origin only for
    a_t = 1.
    """
    mag = math.sqrt(params.l + params.m) / (
        g.c**SPEED_EXPONENT_SPATIAL * g.a_s * g.a_t
    )
    angle = g.theta + params.cone.theta_axis
    return np.array([mag * math.cos(angle), mag * math.sin(angle)])


def eval_centered_gcm(g: GroupElement, params: GcmParams, kx, ky, omega):
    """Low-pass version of the tuned kernel.

    The tuned kernel translated by its own central frequency: the value at
    (k, omega) equals the apply_group value at (k + k0, omega + w0), where
    k0 is central_wavevector and w0 = omega0 * c**(2/3) / a_t the tuned
    temporal center, so the magnitude peaks near the frequency origin and
    the support cone apex moves to -k0.  The translation phase, when b or
    tau is nonzero, is carried at the unshifted coordinates.
    """
    k0x, k0y = central_wavevector(g, params)
    w0 = params.omega0 * g.c**SPEED_EXPONENT_TEMPORAL / g.a_t
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    omega = np.asarray(omega, dtype=float)
    mag = _tuned_magnitude(g, params, kx + k0x, ky + k0y, omega + w0)
    return _phase(g, kx, ky, omega) * mag


def arp_morlet(params: MorletParams) -> float:
    """Angular resolving power of the 2D Morlet, 2 * acot(|k0| * sqrt(eps)).

    Valid in the |k0| >> 1 regime (not enforced); strictly decreasing in
    the product |k0| * sqrt(eps).
    """
    k0 = math.hypot(*params.k0)
    if k0 <= 0:
        raise ValueError("Morlet ARP requires a nonzero center wave-vector")
    return 2.0 * math.atan(1.0 / (k0 * math.sqrt(params.epsilon)))


def arp_conical(cone: ConeSpec) -> float:
    """Angular resolving power of a conical kernel: its opening angle 2*alpha.

    Independent of l, m and sigma."""
    return 2.0 * cone.alpha

