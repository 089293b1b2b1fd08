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

Every lattice sum, at a point, on the search grid or at shifted points,
goes through _term_factors.  It calls the kernel once per batch of (l, n)
pairs and yields per pair the spatial magnitudes S of the q rotations,
stacked on a leading axis, and the temporal magnitude T they share: for a
GcmParams kernel, the GC profile and the temporal envelope of the kernels
module.  Lambda = sum over (l, n), in pair order, of (sum_q S**2) * T**2.
"""

import json
import math
from dataclasses import asdict, dataclass
from functools import cache
from itertools import product

import numpy as np

from .kernels import GcmParams, _require_finite, _temporal_envelope, eval_gc_2d
from .speedscan import golden_section_maximize

ESTIMATE_LABEL = "estimate, not certificate"
_BATCH_POINTS = 2**18  # kernel points per batch of lattice pairs (at least one pair)
_POLISH_TOL = 1e-4  # golden-section tolerance of the polish, in grid cells


@dataclass(frozen=True)
class Discretization:
    """Lattice spec for the discretized family and its estimator knobs.

    scale_range truncates the scale and speed indices to [-scale_range,
    scale_range]; the rotations q run over one full period, 0 .. 2*q1 - 1.
    The translation steps b_x0, b_y0, tau0 default to values small enough that
    the translation lattice clears the largest dilated kernel tile at the
    default truncation, keeping gamma negligible.
    """

    a0: float = 2.0
    c0: float = 2.0
    q1: int = 8
    scale_range: int = 4
    b_x0: float = 0.004
    b_y0: float = 0.004
    tau0: float = 0.001
    grid_size: int = 64
    gamma_range: int = 1
    gamma_stride: int = 4

    def __post_init__(self):
        _require_finite(self, "a0", "c0", "b_x0", "b_y0", "tau0")
        for name in ("q1", "scale_range", "grid_size", "gamma_range", "gamma_stride"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
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


def _term_factors(kernel, disc: Discretization, pairs, kx, ky, omega):
    """Yield (S, T) for each lattice pair (l, n) at the given frequencies.

    S stacks the spatial magnitudes of the q rotations on a leading axis; T
    is the temporal magnitude they share.  A callable kernel does not factor:
    it yields its full magnitude as S and 1.0 as T.  kx, ky and omega
    broadcast against each other.  The kernel is called once per batch of
    pairs, stacked on a leading axis, of at most _BATCH_POINTS points.
    """
    separable = isinstance(kernel, GcmParams)
    if not separable and not callable(kernel):
        raise TypeError(f"kernel must be GcmParams or a callable, got {type(kernel).__name__}")
    nd = max(np.ndim(kx), np.ndim(ky), np.ndim(omega))
    kx, ky, omega = (np.array(v, dtype=float, ndmin=nd) for v in (kx, ky, omega))
    qs = range(2 * disc.q1)
    ct = np.array([math.cos(q * disc.theta0) for q in qs])
    st = np.array([math.sin(q * disc.theta0) for q in qs])
    ux = np.multiply.outer(ct, kx) + np.multiply.outer(st, ky)
    uy = np.multiply.outer(-st, kx) + np.multiply.outer(ct, ky)
    pairs = list(pairs)
    size = max(1, _BATCH_POINTS // (len(qs) * np.broadcast(kx, ky, omega).size))
    shape = (-1,) + (1,) * ux.ndim  # pair axis in front of the q axis
    for start in range(0, len(pairs), size):
        batch = pairs[start:start + size]
        # Python-float scales, as np.power may round them differently.
        s_sp = np.reshape([disc.a0**l * disc.c0 ** (n / 3.0) for l, n in batch], shape)
        s_t = np.reshape([disc.a0**l * disc.c0 ** (-2.0 * n / 3.0) for l, n in batch], shape)
        # The scaled coordinates get no local name, so that they are freed
        # before the caller reduces the yielded factors (peak memory).
        if separable:
            # T stays per pair: numpy squares a 0-d omega through pow, an
            # array by multiplication, and the two can differ in the last bit.
            yield from zip(np.abs(eval_gc_2d(s_sp * ux, s_sp * uy, kernel)),
                           [np.abs(_temporal_envelope(s * omega, kernel)) for s in s_t.flat])
        else:
            yield from zip(np.abs(kernel(s_sp * ux, s_sp * uy, s_t * omega)), [1.0] * len(batch))


def lambda_fn(kx, ky, omega, disc: Discretization, kernel, with_tail: bool = False):
    """Truncated lattice sum Lambda at the given frequencies (broadcasts).

    With with_tail=True also returns the largest squared term on the first
    dropped scale/speed shell, a diagnostic for the truncation error.
    """
    factors = _term_factors(kernel, disc, product(disc.scale_indices(), repeat=2), kx, ky, omega)
    core = sum(np.sum(s**2, axis=0) * t**2 for s, t in factors)
    if not with_tail:
        return core
    edge = disc.scale_range + 1
    shell = [(l, n) for l, n in product(range(-edge, edge + 1), repeat=2)
             if max(abs(l), abs(n)) == edge]
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
    r, w = np.exp(logr)[:, None, None], np.exp(logw)[None, None, :]
    return r * np.cos(phi)[None, :, None], r * np.sin(phi)[None, :, None], w


def _polish_extremum(disc, kernel, start, spans, maximize: bool):
    """Coordinate-wise golden search around a grid extremum, clamped to
    the search box."""
    his = _box_extents(disc)
    sign = 1.0 if maximize else -1.0

    def value(pt):
        lr, ph, lw = pt
        r = math.exp(lr)
        return float(lambda_fn(r * math.cos(ph), r * math.sin(ph), math.exp(lw), disc, kernel))

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

            x, fx = golden_section_maximize(along, lo, hi, _POLISH_TOL * spans[axis])
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
