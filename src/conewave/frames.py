"""Frame-bound estimation for a discretized kernel family.

The continuous tuning parameters are discretized as a = a0**l, c = c0**n,
theta = q * theta0 with a0, c0 > 1 and theta0 = pi/q1.  The kernel energy
accumulated over that lattice,

    Lambda(k, w) = sum over (l, n, q) of
        |K(a0**l * c0**(n/3) * r^(-q*theta0) k, a0**l * c0**(-2n/3) * w)|^2,

is bounded between Lambda_minus and Lambda_plus on a fundamental search
domain, and together with the off-grid correction gamma (built from the
cross-correlation Gamma evaluated on the translation lattice) yields the
frame bounds

    A = (2*pi)**1.5 / (bx0 * by0 * tau0) * (Lambda_minus - gamma)
    B = (2*pi)**1.5 / (bx0 * by0 * tau0) * (Lambda_plus + gamma).

All sums are truncated and the extrema come from a grid search with local
polish, so every report is an estimate, not a certificate; tail diagnostics
quantify what the truncation dropped.  Gamma is a frequency-shift
correlation: both kernel copies are evaluated at lattice-scaled
frequencies, the second at coordinates displaced by a translation-lattice
point before the scaling.

Every lattice sum goes through _term_factors, which yields per (l, n) pair
the spatial magnitudes S of the q rotations, stacked on a leading axis, and
the temporal magnitude T they share.  The sum over q is therefore taken
before the product with T: Lambda = sum over (l, n) of (sum_q S**2) * T**2.
"""

import json
import math
from dataclasses import asdict, dataclass
from functools import cache
from itertools import product

import numpy as np

from .kernels import GcmParams, _require_finite, eval_gc_2d
from .speedscan import golden_section_maximize

ESTIMATE_LABEL = "estimate, not certificate"


@dataclass(frozen=True)
class Discretization:
    """Lattice spec for the discretized family and its estimator knobs.

    scale_range truncates the scale and speed indices to [-scale_range,
    scale_range]; q_indices defaults to one full rotation period.  The
    translation steps b_x0, b_y0, tau0 default to values small enough that
    the translation lattice clears the largest dilated kernel tile at the
    default truncation, keeping gamma negligible.
    """

    a0: float = 2.0
    c0: float = 2.0
    q1: int = 8
    scale_range: int = 4
    q_indices: tuple[int, ...] | None = None
    b_x0: float = 0.004
    b_y0: float = 0.004
    tau0: float = 0.001
    grid_size: int = 64
    gamma_range: int = 1
    gamma_stride: int = 4
    polish_tol: float = 1e-4

    def __post_init__(self):
        _require_finite(self, "a0", "c0", "b_x0", "b_y0", "tau0", "polish_tol")
        if self.a0 <= 1.0 or self.c0 <= 1.0:
            raise ValueError("a0 and c0 must exceed 1")
        if self.q1 < 1:
            raise ValueError("q1 must be a positive integer")
        if min(self.b_x0, self.b_y0, self.tau0) <= 0:
            raise ValueError("translation steps must be positive")
        if self.scale_range < 0 or self.gamma_range < 0:
            raise ValueError("truncation ranges must be non-negative")
        if self.grid_size < 1 or self.gamma_stride < 1:
            raise ValueError("grid_size and gamma_stride must be positive")
        if not self.polish_tol > 0:
            raise ValueError("polish_tol must be positive")
        if self.q_indices is None:
            object.__setattr__(self, "q_indices", tuple(range(2 * self.q1)))
        else:
            object.__setattr__(self, "q_indices", tuple(int(q) for q in self.q_indices))
        if not self.q_indices:
            raise ValueError("q_indices must not be empty")

    @property
    def theta0(self) -> float:
        return math.pi / self.q1

    def scale_indices(self) -> range:
        return range(-self.scale_range, self.scale_range + 1)


@dataclass
class FrameBoundReport:
    """Estimated frame bounds with truncation diagnostics."""

    lambda_minus: float
    lambda_plus: float
    gamma: float
    lower_bound: float
    upper_bound: float
    ratio: float
    valid_frame: bool
    lambda_tail: float
    gamma_tail: float
    grid_size: int
    label: str = ESTIMATE_LABEL

    def to_json(self) -> str:
        payload = asdict(self)
        payload["ratio"] = None if math.isinf(self.ratio) else self.ratio
        return json.dumps(payload, sort_keys=True, indent=2)


class _SeparableKernel:
    """Kernel whose magnitude factors into spatial(kx, ky) * temporal(w).

    The lattice sums exploit the factorization: the q rotations of a term
    share its temporal factor, so the spatial factor is evaluated on the
    (kx, ky) grid only and the temporal one once per (l, n) pair, and the
    sum over q is taken before the product with the temporal factor.
    """

    def __init__(self, spatial, temporal):
        self.spatial = spatial
        self.temporal = temporal

    def __call__(self, kx, ky, omega):
        return self.spatial(kx, ky) * self.temporal(omega)


def gcm_response(params: GcmParams) -> _SeparableKernel:
    """Kernel callable (kx, ky, omega) -> magnitude for a GCM family."""
    return _SeparableKernel(
        lambda kx, ky: eval_gc_2d(kx, ky, params),
        lambda omega: np.exp(-0.5 * (np.asarray(omega, dtype=float) - params.omega0) ** 2),
    )


def tight_frame_stub(disc: Discretization):
    """Indicator kernel whose squared magnitudes tile the lattice exactly.

    Its support is one fundamental cell of the scale/speed lattice in
    (log r, log w) crossed with one angular sector, so Lambda is exactly 1
    everywhere in the search domain and the family is a tight frame.  Used
    to verify that the estimator reports A = B when it should.
    """
    log_a0 = math.log(disc.a0)
    log_c0 = math.log(disc.c0)
    theta0 = disc.theta0

    def response(kx, ky, omega):
        kx = np.asarray(kx, dtype=float)
        ky = np.asarray(ky, dtype=float)
        omega = np.asarray(omega, dtype=float)
        r = np.hypot(kx, ky)
        ok = (r > 0) & (omega > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.log(np.where(ok, r, 1.0))
            y = np.log(np.where(ok, omega, 1.0))
            u = (x - y) / log_c0
            s = (2 * x + y) / (3 * log_a0)
            phi = np.mod(np.arctan2(ky, kx), 2 * math.pi)
        # Cell membership via a tolerance-snapped floor: evaluations of the
        # same point under different lattice shifts round independently, and
        # the snap keeps them from double- or zero-counting cell boundaries.
        inside = (
            ok
            & (np.floor(u + 1e-9) == 0)
            & (np.floor(s + 1e-9) == 0)
            & (np.floor(phi / theta0 + 1e-9) == 0)
        )
        return np.where(inside, 1.0, 0.0)

    return response


def _resolve_kernel(kernel):
    if isinstance(kernel, GcmParams):
        return gcm_response(kernel)
    if callable(kernel):
        return kernel
    raise TypeError(f"kernel must be GcmParams or a callable, got {type(kernel).__name__}")


def _term_factors(kernel, disc: Discretization, pairs, kx, ky, omega):
    """Yield (S, T) for each lattice pair (l, n) at the given frequencies.

    S stacks the spatial magnitudes of the q rotations on a leading axis; T
    is the temporal magnitude they share.  A kernel that does not factor
    yields its full magnitude as S and 1.0 as T.  kx, ky and omega broadcast
    against each other.
    """
    nd = max(np.ndim(kx), np.ndim(ky), np.ndim(omega))
    kx, ky, omega = (np.array(v, dtype=float, ndmin=nd) for v in (kx, ky, omega))
    ct = np.array([math.cos(q * disc.theta0) for q in disc.q_indices])
    st = np.array([math.sin(q * disc.theta0) for q in disc.q_indices])
    ux = np.multiply.outer(ct, kx) + np.multiply.outer(st, ky)
    uy = np.multiply.outer(-st, kx) + np.multiply.outer(ct, ky)
    for l, n in pairs:
        s_sp = disc.a0**l * disc.c0 ** (n / 3.0)
        s_t = disc.a0**l * disc.c0 ** (-2.0 * n / 3.0)
        # The rotated coordinates get no local name, so that they are freed
        # before the caller reduces the yielded factors (peak memory).
        if isinstance(kernel, _SeparableKernel):
            yield (np.abs(kernel.spatial(s_sp * ux, s_sp * uy)),
                   np.abs(kernel.temporal(s_t * omega)))
        else:
            yield np.abs(kernel(s_sp * ux, s_sp * uy, s_t * omega)), 1.0


def lambda_fn(kx, ky, omega, disc: Discretization, kernel, with_tail: bool = False):
    """Truncated lattice sum Lambda at the given frequencies (broadcasts).

    With with_tail=True also returns the largest squared term on the first
    dropped scale/speed shell, a diagnostic for the truncation error.
    """
    kernel = _resolve_kernel(kernel)
    factors = _term_factors(kernel, disc, product(disc.scale_indices(), repeat=2), kx, ky, omega)
    core = sum(np.sum(s**2, axis=0) * t**2 for s, t in factors)
    if not with_tail:
        return core
    edge = disc.scale_range + 1
    shell = [
        (l, n)
        for l, n in product(range(-edge, edge + 1), repeat=2)
        if max(abs(l), abs(n)) == edge
    ]
    factors = _term_factors(kernel, disc, shell, kx, ky, omega)
    tail = max(float(np.max(np.max(s**2, axis=0) * t**2)) for s, t in factors)
    return core, tail


def _box_extents(disc: Discretization):
    """Extents of the fundamental search box in (log r, phi, log w)."""
    return math.log(disc.a0), disc.theta0, math.log(disc.a0 * disc.c0 ** (2.0 / 3.0))


def _search_grid(disc: Discretization):
    """Cell centers of the fundamental search box in (log r, phi, log w)."""
    centers = (np.arange(disc.grid_size) + 0.5) / disc.grid_size
    return tuple(centers * extent for extent in _box_extents(disc))


def _box_coords(logr, phi, logw):
    r = np.exp(logr)[:, None, None]
    cphi = np.cos(phi)[None, :, None]
    sphi = np.sin(phi)[None, :, None]
    w = np.exp(logw)[None, None, :]
    return r * cphi, r * sphi, w


def _polish_extremum(disc, kernel, start, spans, maximize: bool):
    """Coordinate-wise golden search around a grid extremum, clamped to
    the search box."""
    his = _box_extents(disc)
    sign = 1.0 if maximize else -1.0

    def value(pt):
        lr, ph, lw = pt
        kx = math.exp(lr) * math.cos(ph)
        ky = math.exp(lr) * math.sin(ph)
        return float(lambda_fn(kx, ky, math.exp(lw), disc, kernel))

    point = list(start)
    best = value(point)
    for _ in range(2):
        for axis in range(3):
            lo = max(0.0, point[axis] - spans[axis])
            hi = min(his[axis] * (1 - 1e-12), point[axis] + spans[axis])

            def along(x, axis=axis):
                trial = list(point)
                trial[axis] = x
                return sign * value(trial)

            x, fx = golden_section_maximize(along, lo, hi, disc.polish_tol * spans[axis])
            if fx > sign * best:
                point[axis] = x
                best = sign * fx
    return best


def _gamma_correction(disc: Discretization, kernel, logr, phi, logw):
    """Off-grid correction: lattice sum of sqrt(Gamma(u) * Gamma(-u)).

    The inner supremum uses a strided subgrid of the search box, which
    under-estimates the correction; reports stay labeled as estimates.
    """
    stride = disc.gamma_stride
    kx, ky, w = _box_coords(logr[::stride], phi[::stride], logw[::stride])
    pairs = list(product(disc.scale_indices(), repeat=2))
    unshifted = list(_term_factors(kernel, disc, pairs, kx, ky, w))  # shared by every shift
    steps = (disc.b_x0, disc.b_y0, disc.tau0)

    @cache
    def gamma_at(m):
        """Gamma at translation-lattice point m: the box maximum of the lattice
        sum of |K(k)| * |K(k - b)|, with b = 2*pi*m / steps."""
        bx, by, tau = (2 * math.pi * i / step for i, step in zip(m, steps))
        shifted = _term_factors(kernel, disc, pairs, kx - bx, ky - by, w - tau)
        total = sum(np.sum(s0 * s1, axis=0) * (t0 * t1)
                    for (s0, t0), (s1, t1) in zip(unshifted, shifted))
        return float(np.max(total))

    def corr(m):
        return math.sqrt(gamma_at(m) * gamma_at(tuple(-i for i in m)))

    G = disc.gamma_range
    total = sum((corr(m) for m in product(range(-G, G + 1), repeat=3) if m != (0, 0, 0)), 0.0)
    tail = max(corr(m) for m in [(G + 1, 0, 0), (0, G + 1, 0), (0, 0, G + 1)])
    return total, tail


def estimate_bounds(disc: Discretization, kernel) -> FrameBoundReport:
    """Estimate frame bounds for the discretized family of `kernel`.

    kernel is a GcmParams or any callable (kx, ky, omega) -> magnitude.
    The report is flagged invalid (without raising) when the estimated
    lower bound is not positive.
    """
    kernel = _resolve_kernel(kernel)
    logr, phi, logw = _search_grid(disc)
    kx, ky, w = _box_coords(logr, phi, logw)

    core, lam_tail = lambda_fn(kx, ky, w, disc, kernel, with_tail=True)
    i_min = np.unravel_index(np.argmin(core), core.shape)
    i_max = np.unravel_index(np.argmax(core), core.shape)
    spans = [extent / disc.grid_size for extent in _box_extents(disc)]

    def start_at(idx):
        return [logr[idx[0]], phi[idx[1]], logw[idx[2]]]

    lam_minus = min(float(core[i_min]), _polish_extremum(disc, kernel, start_at(i_min), spans, False))
    lam_plus = max(float(core[i_max]), _polish_extremum(disc, kernel, start_at(i_max), spans, True))

    gamma, gamma_tail = _gamma_correction(disc, kernel, logr, phi, logw)

    prefactor = (2 * math.pi) ** 1.5 / (disc.b_x0 * disc.b_y0 * disc.tau0)
    lower = prefactor * (lam_minus - gamma)
    upper = prefactor * (lam_plus + gamma)
    valid = lower > 0.0
    ratio = upper / lower if valid else math.inf
    return FrameBoundReport(
        lambda_minus=lam_minus,
        lambda_plus=lam_plus,
        gamma=gamma,
        lower_bound=lower,
        upper_bound=upper,
        ratio=ratio,
        valid_frame=valid,
        lambda_tail=lam_tail,
        gamma_tail=gamma_tail,
        grid_size=disc.grid_size,
    )
