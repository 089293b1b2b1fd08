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
goes through _lattice_batches.  It calls the kernel once per batch of
(l, n) pairs and yields the spatial magnitudes S of the q rotations, with
the pairs and the rotations on leading axes; the temporal magnitude T of a
pair is shared by its rotations.  For a GcmParams kernel these are the GC
profile and the temporal envelope of the kernels module.  Lambda = sum
over (l, n), in pair order, of (sum_q S**2) * T**2, added one pair at a
time, so batching does not change a bit.

The GC profile is exactly 0 outside the cone, and at the default aperture
each search-grid point lies in one of the 2*q1 rotated cones.  So on more
than one spatial point Lambda evaluates a GcmParams kernel only at the
rotations that may put a point in the cone (_live_rotations), and the
shell tail multiplies each pair's largest factors, not the factors.

Gamma skips the terms it proves to be +0.0 (_live_pairs): a pair whose
temporal product T0 * T1 is 0 everywhere, and every pair at once where no
rotated point lies in the cone both unshifted and shifted, or a pair
whose GC Gaussian underflows to 0 at every point that does.  The proofs
hold at every pair scale, with a rounding allowance, and need a finite
sum: where the GC powers could overflow (so a skipped 0 * inf would be
NaN), and for a callable kernel, every pair is evaluated.
"""

import json
import math
from dataclasses import asdict, dataclass
from functools import cache, lru_cache, reduce
from itertools import product

import numpy as np

from .kernels import GcmParams, _require_finite, _temporal_envelope, eval_gc_2d
from .speedscan import golden_section_maximize

ESTIMATE_LABEL = "estimate, not certificate"
_BATCH_POINTS = 2**18  # kernel points per batch of lattice pairs (at least one pair)
_POLISH_TOL = 1e-4  # golden-section tolerance of the polish, in grid cells
# B/A is the condition number of the frame operator; inverting it at a
# larger ratio loses more than 12 of the 16 digits of double precision.
ILL_CONDITIONED_RATIO = 1e12


@dataclass(frozen=True)
class Discretization:
    """Lattice spec for the discretized family and its estimator knobs.

    scale_range truncates the scale and speed indices to [-scale_range,
    scale_range]; the rotations q run over one full period, 0 .. 2*q1 - 1.
    The translation steps b_x0, b_y0, tau0 default to values small enough
    that gamma is exactly 0.  A temporal shift of 2*pi/tau0 = 6283 rad/frame
    moves every scaled frequency of the search box so far from omega0 that
    the shifted temporal envelope underflows to 0.  A spatial shift of
    2*pi/b_x0 = 1571 rad/px either moves a point into a rotated cone other
    than the one it started in, or so far along the cone axis that the GC
    Gaussian underflows to 0 at every pair scale.
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
    """Estimated frame bounds with truncation diagnostics.

    ill_conditioned tags a report whose bounds mean nothing numerically:
    lambda_minus is no larger than the truncation tail lambda_tail, so the
    sums cannot resolve it, or B/A exceeds ILL_CONDITIONED_RATIO (an
    invalid frame's ratio is infinite).  valid_frame still says only that
    the lower bound is positive.
    """

    lambda_minus: float
    lambda_plus: float
    gamma: float
    lower_bound: float
    upper_bound: float
    ratio: float
    valid_frame: bool
    ill_conditioned: bool
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

    def snapped_zero(v, divisor):
        """floor(v / divisor + 1e-9) == 0, computed in place in v."""
        v /= divisor
        v += 1e-9
        return np.floor(v, out=v) == 0

    def response(kx, ky, omega):
        shape = np.broadcast(kx, ky, omega).shape
        kx, ky, omega = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (kx, ky, omega))
        r = np.hypot(kx, ky)
        # Cell membership via a tolerance-snapped floor: evaluations of the
        # same point under different lattice shifts round independently, and
        # the snap keeps them from double- or zero-counting cell boundaries.
        # Spatial and temporal parts keep their own shapes, and the full-size
        # values share one buffer.  Logs of r or omega <= 0 are not finite,
        # and the r > 0 and omega > 0 tests reject those points.
        with np.errstate(divide="ignore", invalid="ignore"):
            x, y = np.log(r), np.log(omega)
            ok = (r > 0) & snapped_zero(np.mod(np.arctan2(ky, kx), 2 * math.pi), theta0)
            buf = np.subtract(x, y)
            inside = snapped_zero(buf, log_c0)
            inside &= ok
            inside &= omega > 0
            np.add(2 * x, y, out=buf)
            inside &= snapped_zero(buf, 3 * log_a0)
        return inside.astype(float).reshape(shape)

    return response


@lru_cache(maxsize=8)
def _lattice(disc: Discretization, shell: bool = False):
    """Spatial and temporal scales of the lattice pairs (l, n), in pair order:
    the truncated lattice, or with shell=True its first dropped shell."""
    if shell:
        edge = disc.scale_range + 1
        pairs = [(l, n) for l, n in product(range(-edge, edge + 1), repeat=2)
                 if max(abs(l), abs(n)) == edge]
    else:
        pairs = list(product(disc.scale_indices(), repeat=2))
    # Python-float scales, as np.power may round them differently.
    scales = (np.array([disc.a0**l * disc.c0 ** (n / 3.0) for l, n in pairs]),
              np.array([disc.a0**l * disc.c0 ** (-2.0 * n / 3.0) for l, n in pairs]))
    for s in scales:
        s.flags.writeable = False
    return scales


@lru_cache(maxsize=8)
def _turns(q1: int):
    """Cosines and sines of the 2*q1 lattice rotations q * pi / q1."""
    theta0 = math.pi / q1
    return (np.array([math.cos(q * theta0) for q in range(2 * q1)]),
            np.array([math.sin(q * theta0) for q in range(2 * q1)]))


def _rotated(disc: Discretization, kx, ky):
    """(kx, ky) under each lattice rotation, stacked on a leading q axis."""
    ct, st = _turns(disc.q1)
    return (np.multiply.outer(ct, kx) + np.multiply.outer(st, ky),
            np.multiply.outer(-st, kx) + np.multiply.outer(ct, ky))


def _rotation_chunks(kernel, sp, st, ux, uy, omega, q_size):
    """Yield (qs, S) for the rotations qs, q_size at a time: one kernel call
    per chunk."""
    for q in range(0, len(ux), q_size):
        qs = slice(q, q + q_size)
        # The scaled coordinates get no local name, so that they are freed
        # before the caller reduces S (peak memory).
        if isinstance(kernel, GcmParams):
            yield qs, np.abs(eval_gc_2d(sp * ux[qs], sp * uy[qs], kernel))
        else:
            yield qs, np.abs(kernel(sp * ux[qs], sp * uy[qs], st * omega))


def _lattice_batches(kernel, disc: Discretization, scales, kx, ky, omega, rotated=None):
    """Yield (rows, chunks) per batch of lattice pairs, in pair order.

    rows slices the pairs of scales = (spatial scales, temporal scales) that
    the batch holds; chunks yields (qs, S), the spatial magnitudes of those
    pairs under the rotations qs, shaped (pairs, rotations, *points).  The
    rotations are _rotated(disc, kx, ky) unless `rotated` gives others.  For
    a GcmParams kernel S is the GC profile, in one chunk.  A callable kernel
    does not factor: S is its full magnitude (T is 1), and the rotations of
    a pair are split into chunks of at most _BATCH_POINTS points.  A batch
    holds at most _BATCH_POINTS points, and at least one pair.
    """
    separable = isinstance(kernel, GcmParams)
    if not separable and not callable(kernel):
        raise TypeError(f"kernel must be GcmParams or a callable, got {type(kernel).__name__}")
    ux, uy = _rotated(disc, kx, ky) if rotated is None else rotated
    n_q = len(ux)
    points = np.broadcast(kx, ky, omega).size
    size = max(1, _BATCH_POINTS // (n_q * points))
    # A lone point keeps its rotations together: np.sum adds them pairwise
    # there, and one rotation after the other where a rotation has more points.
    q_size = n_q if separable or points == 1 else max(1, _BATCH_POINTS // points)
    s_sp, s_t = scales
    shape = (-1,) + (1,) * ux.ndim  # pair axis in front of the q axis
    for start in range(0, len(s_sp), size):
        rows = slice(start, start + size)
        yield rows, _rotation_chunks(kernel, s_sp[rows].reshape(shape), s_t[rows].reshape(shape),
                                     ux, uy, omega, q_size)


def _fold_q(chunks, per_q, fold=np.add):
    """per_q(qs, S) folded over the q axis by the ufunc fold, as fold.reduce
    folds a whole stack.  Chunks after the first are folded in one rotation
    at a time, which is the order of np.add.reduce over the q axis of a
    stack with more than one point."""
    folded = None
    for qs, S in chunks:
        part = per_q(qs, S)
        folded = (fold.reduce(part, axis=1) if folded is None
                  else reduce(fold, part.swapaxes(0, 1), folded))
    return folded


def _temporal(kernel, s_t, omega, squared: bool = False):
    """Temporal magnitudes |T| (or T**2) of the pairs with temporal scales
    s_t, stacked on a leading axis; 1 for a callable kernel.  A 0-d omega gets
    the rounding of the numpy scalars it stands for, which square through pow.
    """
    shape = (-1,) + (1,) * omega.ndim
    if not isinstance(kernel, GcmParams):
        return np.ones(len(s_t)).reshape(shape)
    power = np.float_power if omega.ndim == 0 else pow
    t = np.abs(_temporal_envelope(s_t.reshape(shape) * omega, kernel, power))
    return power(t, 2) if squared else t


def _live_rotations(kernel: GcmParams, disc: Discretization, s_sp, kx, ky):
    """(ux, uy) at the rotations that may put each point in the cone at a
    pair scale in s_sp, in ascending q, packed into as few rows as the
    busiest point needs and padded with NaN, where the GC profile is 0.
    Only rotations whose scaled coordinates stay finite are dropped."""
    ux, uy = _rotated(disc, kx, ky)
    live = (_maybe_in_cone(kernel.cone, ux, uy, 2.0**-1000 / s_sp.min())
            | ~(abs(ux) + abs(uy) < 2.0**1000 / s_sp.max()))
    order = np.argsort(~live, axis=0, kind="stable")[:max(1, live.sum(axis=0).max())]
    keep = np.take_along_axis(live, order, axis=0)
    return tuple(np.where(keep, np.take_along_axis(u, order, axis=0), np.nan) for u in (ux, uy))


def _square_folds(kernel, disc: Discretization, shell: bool, points, fold=np.add):
    """Yield per batch of pairs the fold over q of S**2, and T**2.

    On more than one spatial point the fold adds one rotation after the
    other, so a GcmParams kernel skips the rotations that add an exact +0.0
    and keeps its bytes.  A lone point's fold adds them pairwise.
    """
    scales = _lattice(disc, shell)
    rotated = None
    if isinstance(kernel, GcmParams) and np.broadcast(*points[:2]).size > 1:
        rotated = _live_rotations(kernel, disc, scales[0], *points[:2])
    for rows, chunks in _lattice_batches(kernel, disc, scales, *points, rotated):
        yield (_fold_q(chunks, lambda qs, S: S**2, fold),
               _temporal(kernel, scales[1][rows], points[2], squared=True))


def _running_sum(total, terms):
    """total + terms[0] + terms[1] + ..., one pair at a time in pair order."""
    terms[0] += total
    if terms.ndim == 1:  # one point: a sequential cumsum, no Python step per pair
        return np.cumsum(terms)[-1]
    for term in terms[1:]:  # np.cumsum along a leading axis is slow on wide rows
        terms[0] += term
    return terms[0]


def _unit_axes(a):
    """The axes of a, after the leading pair axis, of length 1."""
    return tuple(i for i in range(1, a.ndim) if a.shape[i] == 1)


def lambda_fn(kx, ky, omega, disc: Discretization, kernel, with_tail: bool = False):
    """Truncated lattice sum Lambda at the given frequencies (broadcasts).

    With with_tail=True also returns the largest squared term on the first
    dropped scale/speed shell, a diagnostic for the truncation error.
    """
    nd = max(np.ndim(kx), np.ndim(ky), np.ndim(omega))  # scalars stay 0-d
    points = tuple(np.array(v, dtype=float, ndmin=nd) for v in (kx, ky, omega))
    core = 0
    for folded, t2 in _square_folds(kernel, disc, False, points):
        core = _running_sum(core, folded * t2)
    if not with_tail:
        return core
    tail = []  # the largest term of each shell pair, in pair order
    for folded, t2 in _square_folds(kernel, disc, True, points, np.maximum):
        if np.isfinite(folded).all() and np.isfinite(t2).all():
            # Both factors are >= 0 and rounding is monotone, so the largest
            # product is the product of the largest factors along the axes
            # one of them broadcasts.  inf * 0 needs the full product's NaN.
            folded = folded.max(axis=_unit_axes(t2), keepdims=True)
            t2 = t2.max(axis=_unit_axes(folded), keepdims=True)
        tail += np.max((folded * t2).reshape(len(folded), -1), axis=1).tolist()
    return core, max(tail)


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


_SLACK = 1e-12  # relative rounding allowance of the cone prunes, 1e4 float64 epsilons


def _maybe_in_cone(cone, ux, uy, floor):
    """False only where (s * ux, s * uy) lies outside the cone at every pair
    scale s: a dual projection below minus the allowance keeps its sign
    through the scaling's rounding, and floor = 2**-1000 / (least s) keeps it
    clear of subnormals.  It needs s * ux and s * uy finite.  Lambda prunes
    rotations with it (_live_rotations), gamma pairs (_live_pairs)."""
    inside = True
    for ex, ey in (cone.dual_plus, cone.dual_minus):
        a, b = ux * ex, uy * ey
        inside = inside & (a + b >= -(_SLACK * (abs(a) + abs(b)) + floor))
    return inside


def _underflows(kernel: GcmParams, s_sp, ux, uy, where):
    """Pairs at whose scale s the GC profile is exactly 0 wherever `where`.

    Its Gaussian is exp(-0.5 * sigma * (axial - chi)**2), and s * low bounds
    the axial coordinate the kernel computes at the scaled points from
    below.  Rounding is monotone, so their exponents are at most the one
    formed from the bound; where np.exp gives 0 for that, it gives 0 for
    them (exp is non-decreasing), and a finite power product times 0 is 0.
    """
    ax, ay = kernel.cone.axis_unit
    a, b = ux * ax, uy * ay
    low = np.min((a + b - _SLACK * (abs(a) + abs(b)))[where])
    reach = s_sp * low - kernel.chi
    with np.errstate(over="ignore"):
        return (reach > 0) & (np.exp(-0.5 * kernel.sigma * reach**2) == 0)


def _live_pairs(kernel, s_sp, tt, rot0, rot1):
    """Pairs whose gamma term at one shift may differ from +0.0.

    The term is sum over q of S0 * S1, times tt = T0 * T1.  It is +0.0 when
    that sum is finite and either tt is 0 everywhere, or at each rotation
    and point one spatial factor is exactly 0: outside its cone, or inside
    it where the Gaussian underflows.  Every test is a proof for all pair
    scales, not a threshold, and a sum that could overflow (to inf, or NaN
    through inf * 0) keeps every pair.  So does a callable kernel.
    """
    n = len(tt)
    if not isinstance(kernel, GcmParams):
        return np.ones(n, dtype=bool)
    # |dp|, |dm| <= s * (|ux| + |uy|) bound each S by (s * radius)**(l + m).
    radii = [float(np.max(abs(ux) + abs(uy))) * s_sp.max() * (1 + _SLACK) for ux, uy in (rot0, rot1)]
    bits = math.log2(len(rot0[0])) + (kernel.l + kernel.m) * sum(
        math.log2(max(r, 1.0)) for r in radii)
    if not bits < 1000:  # also a NaN or infinite coordinate
        return np.ones(n, dtype=bool)
    floor = 2.0**-1000 / s_sp.min()
    overlap = _maybe_in_cone(kernel.cone, *rot0, floor) & _maybe_in_cone(kernel.cone, *rot1, floor)
    if not overlap.any():
        return np.zeros(n, dtype=bool)
    live = (tt != 0).reshape(n, -1).any(axis=1)
    for ux, uy in (rot0, rot1):
        live &= ~_underflows(kernel, s_sp, ux, uy, overlap)
    return live


def _gamma_correction(disc: Discretization, kernel, logr, phi, logw):
    """Off-grid correction: lattice sum of sqrt(Gamma(u) * Gamma(-u)).

    The inner supremum uses a strided subgrid of the search box, which
    under-estimates the correction; reports stay labeled as estimates.
    Only the pairs _live_pairs keeps are evaluated at a shift, and the
    unshifted factors only once some shift keeps a pair.
    """
    stride = disc.gamma_stride
    kx, ky, w = box = _box_coords(logr[::stride], phi[::stride], logw[::stride])
    s_sp, s_t = scales = _lattice(disc)
    t0 = _temporal(kernel, s_t, w)
    rot0 = _rotated(disc, kx, ky)
    steps = (disc.b_x0, disc.b_y0, disc.tau0)

    @cache
    def unshifted():
        """Spatial magnitudes of every pair on the box, (pairs, q, *points)."""
        stack = None
        for rows, chunks in _lattice_batches(kernel, disc, scales, *box):
            for qs, S in chunks:
                if stack is None:
                    stack = np.empty((len(s_sp), len(rot0[0])) + S.shape[2:])
                stack[rows, qs] = S
        return stack

    @cache
    def gamma_at(m):
        """Gamma at translation-lattice point m: the box maximum of the lattice
        sum of |K(k)| * |K(k - b)|, with b = 2*pi*m / steps."""
        bx, by, tau = (2 * math.pi * i / step for i, step in zip(m, steps))
        shifted = (kx - bx, ky - by, w - tau)
        tt = t0 * _temporal(kernel, s_t, shifted[2])
        live = np.flatnonzero(_live_pairs(kernel, s_sp, tt, rot0, _rotated(disc, kx - bx, ky - by)))
        if not len(live):
            return 0.0
        S0 = unshifted()
        total = 0
        for rows, chunks in _lattice_batches(kernel, disc, (s_sp[live], s_t[live]), *shifted):
            folded = _fold_q(chunks, lambda qs, S: S0[live[rows], qs] * S)
            total = _running_sum(total, folded * tt[live[rows]])
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
        ill_conditioned=lam_minus <= lam_tail or not ratio <= ILL_CONDITIONED_RATIO,
        lambda_tail=lam_tail,
        gamma_tail=gamma_tail,
        grid_size=disc.grid_size,
    )
