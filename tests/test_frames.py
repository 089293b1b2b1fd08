"""Frame-bound estimator: lattice sums, stub tight frame, report contract."""

import json
import math
from itertools import product

import numpy as np
import pytest

from conewave import frames
from conewave.frames import (
    Discretization,
    estimate_bounds,
    lambda_fn,
    tight_frame_stub,
)
from conewave.kernels import ConeSpec, GcmParams, _temporal_envelope, eval_gc_2d, eval_gcm


def small_disc(**overrides):
    base = dict(grid_size=12, scale_range=1, q1=8, gamma_stride=3)
    base.update(overrides)
    return Discretization(**base)


def test_discretization_validation():
    with pytest.raises(ValueError):
        Discretization(a0=1.0)
    with pytest.raises(ValueError):
        Discretization(c0=0.5)
    with pytest.raises(ValueError):
        Discretization(q1=0)
    with pytest.raises(ValueError):
        Discretization(b_x0=0.0)
    assert Discretization(q1=4).theta0 == pytest.approx(math.pi / 4)


def test_lambda_single_term_is_squared_kernel():
    # One scale and one speed: Lambda sums |K|^2 over the full q period.
    disc = Discretization(scale_range=0)
    params = GcmParams()
    kx, ky, w = 4.0, 0.2, 4.5
    want = 0.0
    for q in range(2 * disc.q1):
        c, s = math.cos(q * disc.theta0), math.sin(q * disc.theta0)
        want += float(eval_gcm(c * kx + s * ky, -s * kx + c * ky, w, params)) ** 2
    assert want > 0.0
    assert lambda_fn(kx, ky, w, disc, params) == pytest.approx(want, rel=1e-12)


def test_lambda_zero_at_spatial_origin():
    disc = small_disc()
    assert lambda_fn(0.0, 0.0, 2.0, disc, GcmParams()) == 0.0


def test_lambda_matches_naive_loop():
    # Oracle: plain Python triple loop over the lattice.
    disc = Discretization(scale_range=3, q1=8, grid_size=8)
    params = GcmParams(l=3, m=3)
    rng = np.random.default_rng(4)
    for _ in range(5):
        kx, ky, w = rng.uniform(0.3, 4.0), rng.uniform(-1.0, 1.0), rng.uniform(0.5, 6.0)
        naive = 0.0
        for l in range(-3, 4):
            for n in range(-3, 4):
                s_sp = 2.0**l * 2.0 ** (n / 3.0)
                s_t = 2.0**l * 2.0 ** (-2.0 * n / 3.0)
                for q in range(16):
                    ang = q * math.pi / 8
                    rx = s_sp * (math.cos(ang) * kx + math.sin(ang) * ky)
                    ry = s_sp * (-math.sin(ang) * kx + math.cos(ang) * ky)
                    naive += float(eval_gcm(rx, ry, s_t * w, params)) ** 2
        got = lambda_fn(kx, ky, w, disc, params)
        assert got == pytest.approx(naive, rel=1e-12, abs=1e-300)


def test_lambda_vector_and_scalar_paths_agree():
    disc = small_disc()
    params = GcmParams()
    kx = np.array([0.5, 2.0, 4.0])
    ky = np.array([0.0, 0.3, -0.2])
    w = np.array([1.0, 3.0, 6.0])
    vector = lambda_fn(kx, ky, w, disc, params)
    scalars = [float(lambda_fn(float(a), float(b), float(c), disc, params))
               for a, b, c in zip(kx, ky, w)]
    assert np.allclose(vector, scalars, rtol=1e-12)


def test_lambda_refinement_monotone_in_truncation():
    params = GcmParams()
    rng = np.random.default_rng(6)
    narrow = Discretization(scale_range=2)
    wide = Discretization(scale_range=4)
    for _ in range(5):
        kx, ky, w = rng.uniform(0.5, 3.0), rng.uniform(-0.5, 0.5), rng.uniform(0.5, 4.0)
        assert lambda_fn(kx, ky, w, wide, params) >= lambda_fn(kx, ky, w, narrow, params)


def test_lambda_tail_diagnostic():
    disc = small_disc()
    core, tail = lambda_fn(2.0, 0.1, 3.0, disc, GcmParams(), with_tail=True)
    assert core >= 0.0 and tail >= 0.0


def test_tight_frame_stub_gives_equal_bounds():
    disc = small_disc(grid_size=16, scale_range=2, gamma_stride=2)
    rep = estimate_bounds(disc, tight_frame_stub(disc))
    assert rep.valid_frame
    assert rep.lambda_minus == pytest.approx(1.0, abs=1e-12)
    assert rep.lambda_plus == pytest.approx(1.0, abs=1e-12)
    assert rep.gamma == 0.0
    assert abs(rep.upper_bound - rep.lower_bound) <= 1e-9 * rep.upper_bound
    assert rep.ratio == pytest.approx(1.0, abs=1e-9)


def test_bounds_ordering_and_prefactor():
    disc = small_disc()
    rep = estimate_bounds(disc, GcmParams())
    assert rep.lambda_minus <= rep.lambda_plus
    assert rep.gamma >= 0.0
    if rep.valid_frame:
        assert rep.lower_bound <= rep.upper_bound
    pref = (2 * math.pi) ** 1.5 / (disc.b_x0 * disc.b_y0 * disc.tau0)
    assert rep.upper_bound == pytest.approx(pref * (rep.lambda_plus + rep.gamma), rel=1e-12)


def test_gamma_shrinks_with_translation_steps():
    params = GcmParams()
    gammas = []
    for b0 in (2.0, 0.5, 0.05):
        rep = estimate_bounds(small_disc(b_x0=b0, b_y0=b0, tau0=b0), params)
        gammas.append(rep.gamma)
    assert gammas[0] > gammas[1] > 0.0 or (gammas[0] > gammas[1] == 0.0)
    assert gammas[2] == 0.0


def test_coarse_translation_lattice_invalidates_frame():
    rep = estimate_bounds(small_disc(b_x0=2.0, b_y0=2.0, tau0=2.0), GcmParams())
    assert not rep.valid_frame
    assert math.isinf(rep.ratio)


def test_orientation_refinement_does_not_increase_ratio():
    params = GcmParams()
    coarse = estimate_bounds(Discretization(grid_size=24, q1=8, gamma_stride=8), params)
    fine = estimate_bounds(Discretization(grid_size=24, q1=16, gamma_stride=8), params)
    assert fine.ratio <= coarse.ratio
    assert math.isfinite(fine.ratio)


def test_report_determinism():
    disc = small_disc()
    a = estimate_bounds(disc, GcmParams())
    b = estimate_bounds(disc, GcmParams())
    assert a.to_json() == b.to_json()


def test_report_json_round_trip():
    rep = estimate_bounds(small_disc(), GcmParams())
    payload = json.loads(rep.to_json())
    assert payload["grid_size"] == 12
    assert payload["label"] == "estimate, not certificate"
    assert payload["valid_frame"] == rep.valid_frame


@pytest.mark.parametrize("estimate", [
    lambda kernel: lambda_fn(1.0, 0.0, 1.0, small_disc(), kernel),
    lambda kernel: estimate_bounds(small_disc(), kernel),
], ids=["lambda_fn", "estimate_bounds"])
@pytest.mark.parametrize("junk", ["gcm", None, 1.0], ids=["str", "none", "float"])
def test_kernel_neither_gcm_nor_callable_is_a_type_error(estimate, junk):
    with pytest.raises(TypeError, match="GcmParams or a callable"):
        estimate(junk)


@pytest.mark.parametrize("field, value", [
    ("grid_size", 0), ("gamma_stride", 0), ("gamma_stride", -2),
])
def test_discretization_rejects_bad_sizes_and_tolerances(field, value):
    with pytest.raises(ValueError):
        Discretization(**{field: value})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["a0", "c0", "b_x0", "b_y0", "tau0"])
def test_discretization_rejects_non_finite_steps(field, bad):
    with pytest.raises(ValueError, match=field):
        Discretization(**{field: bad})


@pytest.mark.parametrize("field", ["q1", "scale_range", "grid_size", "gamma_range", "gamma_stride"])
@pytest.mark.parametrize("value", [2.5, 2.0, math.nan, "2"])
def test_discretization_rejects_non_integer_sizes(field, value):
    with pytest.raises(ValueError, match=field):
        Discretization(**{field: value})


def test_discretization_takes_numpy_integer_sizes():
    disc = Discretization(q1=np.int64(4), grid_size=np.int32(8))
    assert disc.theta0 == math.pi / 4
    assert disc == Discretization(q1=4, grid_size=8)


def test_gamma_matches_naive_loop():
    # Oracle: plain Python loops over the translation shifts (mx, my, p) and
    # the lattice terms (l, n, q), vectorized only over the strided box.
    disc = small_disc(b_x0=2.0, b_y0=2.0, tau0=2.0)
    params = GcmParams()
    centers = ((np.arange(12) + 0.5) / 12)[::3]
    r = np.exp(centers * math.log(2.0))[:, None, None]
    phi = (centers * math.pi / 8)[None, :, None]
    w = np.exp(centers * math.log(2.0 * 2.0 ** (2.0 / 3.0)))[None, None, :]
    kx, ky = r * np.cos(phi), r * np.sin(phi)

    memo = {}

    def big_gamma(mx, my, p):
        if (mx, my, p) in memo:
            return memo[mx, my, p]
        bx, by, tau = 2 * math.pi * mx / 2.0, 2 * math.pi * my / 2.0, 2 * math.pi * p / 2.0
        total = 0.0
        for l in (-1, 0, 1):
            for n in (-1, 0, 1):
                s_sp = 2.0**l * 2.0 ** (n / 3.0)
                s_t = 2.0**l * 2.0 ** (-2.0 * n / 3.0)
                for q in range(16):
                    c, s = math.cos(q * math.pi / 8), math.sin(q * math.pi / 8)
                    k1 = eval_gcm(s_sp * (c * kx + s * ky), s_sp * (-s * kx + c * ky),
                                  s_t * w, params)
                    k2 = eval_gcm(s_sp * (c * (kx - bx) + s * (ky - by)),
                                  s_sp * (-s * (kx - bx) + c * (ky - by)),
                                  s_t * (w - tau), params)
                    total = total + np.abs(k1) * np.abs(k2)
        memo[mx, my, p] = float(np.max(total))
        return memo[mx, my, p]

    def corr(mx, my, p):
        return math.sqrt(big_gamma(mx, my, p) * big_gamma(-mx, -my, -p))

    gamma = 0.0
    for mx in (-1, 0, 1):
        for my in (-1, 0, 1):
            for p in (-1, 0, 1):
                if (mx, my, p) != (0, 0, 0):
                    gamma += corr(mx, my, p)
    tail = max(corr(2, 0, 0), corr(0, 2, 0), corr(0, 0, 2))

    rep = estimate_bounds(disc, params)
    assert gamma > rep.lambda_minus  # large enough to decide the frame's validity
    assert rep.gamma == pytest.approx(gamma, rel=1e-12)
    assert rep.gamma_tail == pytest.approx(tail, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("steps", [{}, dict(b_x0=2.0, b_y0=2.0, tau0=2.0)])
def test_generic_callable_matches_separable_kernel(steps):
    disc = small_disc(**steps)
    params = GcmParams()
    separable = estimate_bounds(disc, params)
    generic = estimate_bounds(disc, lambda kx, ky, w: eval_gcm(kx, ky, w, params))
    for key, value in vars(separable).items():
        if isinstance(value, float):
            assert getattr(generic, key) == pytest.approx(value, rel=1e-12, abs=1e-300), key
        else:
            assert getattr(generic, key) == value, key


def _gcm_callable(kx, ky, w):
    return eval_gcm(kx, ky, w, GcmParams())


def _lattice_outputs(kernel):
    """Lambda with its tail at a point and on a grid, and a report whose
    gamma comes from shifted points, in a form compared byte for byte."""
    disc = small_disc(b_x0=2.0, b_y0=2.0, tau0=2.0)
    kx = np.linspace(0.2, 4.0, 5)[:, None, None]
    ky = np.linspace(-1.0, 1.0, 3)[None, :, None]
    w = np.linspace(0.5, 6.0, 4)[None, None, :]
    out = []
    for point in ((1.5, 0.25, 2.0), (kx, ky, w)):
        core, tail = lambda_fn(*point, disc, kernel, with_tail=True)
        out += [type(core), np.asarray(core).tobytes(), tail,
                np.asarray(lambda_fn(*point, disc, kernel)).tobytes()]
    rep = estimate_bounds(disc, kernel)
    assert rep.gamma > 0.0
    return out + [rep.to_json()]


@pytest.mark.parametrize("kernel", [GcmParams(), _gcm_callable], ids=["gcm", "callable"])
@pytest.mark.parametrize("budget", [1, 40, 3000])
def test_split_batches_give_the_same_bytes(kernel, budget, monkeypatch):
    # 16 rotations a pair: a point fits 2 pairs in a budget of 40, and the
    # strided gamma box (4**3 points) 2 pairs in 3000.
    whole = _lattice_outputs(kernel)
    monkeypatch.setattr(frames, "_BATCH_POINTS", budget)
    assert _lattice_outputs(kernel) == whole


def test_lambda_at_a_point_is_one_kernel_call(monkeypatch):
    calls = []

    def counted(kx, ky, params):
        calls.append(np.shape(kx))
        return eval_gc_2d(kx, ky, params)

    monkeypatch.setattr(frames, "eval_gc_2d", counted)
    lambda_fn(1.5, 0.25, 2.0, Discretization(), GcmParams())
    assert calls == [(81, 16)]


# ---------------------------------------------------------------------------
# The batched lattice sums against per-pair references.  The references add
# one pair at a time in pair order, as Python's sum does, and evaluate every
# pair at every shift, so they pin the bytes that the batched sums and the
# gamma prune must reproduce.


def _reference_factors(kernel, disc, pairs, kx, ky, omega):
    """(S, T) per lattice pair, one pair at a time."""
    nd = max(np.ndim(kx), np.ndim(ky), np.ndim(omega))
    kx, ky, omega = (np.array(v, dtype=float, ndmin=nd) for v in (kx, ky, omega))
    qs = range(2 * disc.q1)
    ct = np.array([math.cos(q * disc.theta0) for q in qs])
    st = np.array([math.sin(q * disc.theta0) for q in qs])
    ux = np.multiply.outer(ct, kx) + np.multiply.outer(st, ky)
    uy = np.multiply.outer(-st, kx) + np.multiply.outer(ct, ky)
    for l, n in pairs:
        s_sp = disc.a0**l * disc.c0 ** (n / 3.0)
        s_t = disc.a0**l * disc.c0 ** (-2.0 * n / 3.0)
        if isinstance(kernel, GcmParams):
            yield (np.abs(eval_gc_2d(s_sp * ux, s_sp * uy, kernel)),
                   np.abs(_temporal_envelope(s_t * omega, kernel)))
        else:
            yield np.abs(kernel(s_sp * ux, s_sp * uy, s_t * omega)), 1.0


def _reference_lambda(kx, ky, omega, disc, kernel):
    pairs = product(disc.scale_indices(), repeat=2)
    return sum(np.sum(s**2, axis=0) * t**2
               for s, t in _reference_factors(kernel, disc, pairs, kx, ky, omega))


def _reference_gamma(disc, kernel):
    logr, phi, logw = frames._search_grid(disc)
    stride = disc.gamma_stride
    kx, ky, w = frames._box_coords(logr[::stride], phi[::stride], logw[::stride])
    pairs = list(product(disc.scale_indices(), repeat=2))
    unshifted = list(_reference_factors(kernel, disc, pairs, kx, ky, w))
    steps = (disc.b_x0, disc.b_y0, disc.tau0)

    def gamma_at(m):
        bx, by, tau = (2 * math.pi * i / step for i, step in zip(m, steps))
        shifted = _reference_factors(kernel, disc, pairs, kx - bx, ky - by, w - tau)
        total = sum(np.sum(s0 * s1, axis=0) * (t0 * t1)
                    for (s0, t0), (s1, t1) in zip(unshifted, shifted))
        return float(np.max(total))

    def corr(m):
        return math.sqrt(gamma_at(m) * gamma_at(tuple(-i for i in m)))

    G = disc.gamma_range
    total = sum((corr(m) for m in product(range(-G, G + 1), repeat=3) if m != (0, 0, 0)), 0.0)
    tail = max(corr(m) for m in [(G + 1, 0, 0), (0, G + 1, 0), (0, 0, G + 1)])
    return total, tail


def _same_bytes(got, want):
    return type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _generic_kernel(kx, ky, w):
    # Positive everywhere, so that every rotation adds to the q sums, and it
    # does not factor into a spatial and a temporal part.
    return np.exp(-0.1 * ((kx - 2.0) ** 2 + ky**2) - 0.25 * (w - 2.0) ** 2) * (1.5 + np.tanh(ky * w))


_LAMBDA_KERNELS = [GcmParams(), GcmParams(l=3, m=4, sigma=1.5, cone=ConeSpec(alpha=math.pi / 4)),
                   _generic_kernel]


def _random_points(rng):
    """Single points, and grids of a few shapes, some broadcasting."""
    def draw(shape):
        return (rng.uniform(-4.0, 4.0, shape), rng.uniform(-4.0, 4.0, shape),
                rng.uniform(0.0, 6.0, shape))

    points = [tuple(float(v) for v in draw(())) for _ in range(24)]
    # At this point the default lattice sum changes in the last bit when its
    # temporal factors are squared by multiplication instead of through pow.
    points.append((-1.1015363961234472, -0.6604151023649614, 3.248459901780987))
    for shape in ((2,), (7,), (3, 1, 1), (2, 3, 4)):
        points.append(draw(shape))
    kx, ky, w = draw((5,))
    points.append((kx[:, None, None], ky[None, :, None], w[None, None, :4]))
    points.append((np.array(kx[0]), ky[:3], 2.0))  # a 0-d array with a 1-d one
    return points


@pytest.mark.parametrize("kernel", _LAMBDA_KERNELS, ids=["gcm", "gcm-wide", "callable"])
@pytest.mark.parametrize("budget", [None, 40, 1])
def test_lambda_matches_the_per_pair_sum_bit_for_bit(kernel, budget, monkeypatch):
    if budget is not None:  # batches of a few pairs, or of one pair and one rotation
        monkeypatch.setattr(frames, "_BATCH_POINTS", budget)
    rng = np.random.default_rng(21)
    for disc in (Discretization(), Discretization(q1=3, scale_range=2, a0=1.5, c0=3.0)):
        for kx, ky, w in _random_points(rng):
            got = lambda_fn(kx, ky, w, disc, kernel)
            assert _same_bytes(got, _reference_lambda(kx, ky, w, disc, kernel)), (disc, kx, ky, w)


def test_lambda_at_a_point_is_one_cumsum_over_its_pairs(monkeypatch):
    # The point value adds its 81 pair terms without a Python step per pair.
    sums = []
    real_cumsum = np.cumsum

    def counted(a, *args, **kwargs):
        sums.append(np.shape(a))
        return real_cumsum(a, *args, **kwargs)

    monkeypatch.setattr(frames.np, "cumsum", counted)
    got = lambda_fn(1.5, 0.25, 2.0, Discretization(), GcmParams())
    monkeypatch.undo()
    assert sums == [(81,)]
    assert _same_bytes(got, _reference_lambda(1.5, 0.25, 2.0, Discretization(), GcmParams()))


# ---------------------------------------------------------------------------
# Grids evaluated at their live rotations only, and the factored shell tail,
# against the per-pair sums over every rotation and the full shell products.


def _reference_tail(kx, ky, omega, disc, kernel):
    """The largest term on the first dropped shell, each pair's product of
    its q maximum of S**2 with T**2 formed in full."""
    edge = disc.scale_range + 1
    pairs = [(l, n) for l, n in product(range(-edge, edge + 1), repeat=2)
             if max(abs(l), abs(n)) == edge]
    return max(np.max(np.max(s**2, axis=0) * t**2).item()
               for s, t in _reference_factors(kernel, disc, pairs, kx, ky, omega))


def _gc_shapes(monkeypatch):
    """The shapes of the points of every frames.eval_gc_2d call from now on."""
    shapes = []

    def counted(kx, ky, params):
        shapes.append(np.shape(kx))
        return eval_gc_2d(kx, ky, params)

    monkeypatch.setattr(frames, "eval_gc_2d", counted)
    return shapes


def _assert_lambda_and_tail_match(kx, ky, w, disc, kernel):
    core, tail = lambda_fn(kx, ky, w, disc, kernel, with_tail=True)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _same_bytes(core, _reference_lambda(kx, ky, w, disc, kernel))
        assert _same_bytes(tail, _reference_tail(kx, ky, w, disc, kernel))
    return tail


_NARROW = math.pi / 16


@pytest.mark.parametrize("q1, cone, rows", [
    (8, ConeSpec(alpha=_NARROW), 1),
    (16, ConeSpec(alpha=_NARROW), 2),
    (32, ConeSpec(alpha=_NARROW), 4),
    (8, ConeSpec(alpha=math.pi / 4), 4),
    (8, ConeSpec(alpha=_NARROW, theta_axis=0.3), 1),
], ids=["q1-8", "q1-16", "q1-32", "wide", "turned-axis"])
def test_search_grid_at_live_rotations_keeps_the_bytes_of_every_rotation(q1, cone, rows, monkeypatch):
    # rows: the rotations each batch evaluates a point at, in place of 2 * q1.
    disc = Discretization(q1=q1, grid_size=24)
    kernel = GcmParams(cone=cone)
    shapes = _gc_shapes(monkeypatch)
    _assert_lambda_and_tail_match(*frames._box_coords(*frames._search_grid(disc)), disc, kernel)
    assert {shape[1] for shape in shapes} == {rows}


def _edge_points(disc, cone):
    """Points on the edges of every rotated cone and one ulp to either side
    in angle; at q = 0 also exactly on both edges and one ulp off in ky."""
    (px, py), (mx, my) = cone.dual_plus, cone.dual_minus
    kx, ky = [], []
    for scale in (0.5, 4.0):  # powers of 2 keep k . dual exactly 0
        for x, y in ((-my * scale, mx * scale), (py * scale, -px * scale)):
            kx += [x] * 3
            ky += [np.nextafter(y, -np.inf), y, np.nextafter(y, np.inf)]
    for q, side in product(range(2 * disc.q1), (1, -1)):
        phi = q * disc.theta0 + cone.theta_axis + side * cone.alpha
        for p in (np.nextafter(phi, -np.inf), phi, np.nextafter(phi, np.inf)):
            kx.append(3.0 * math.cos(p))
            ky.append(3.0 * math.sin(p))
    return np.array(kx), np.array(ky)


@pytest.mark.parametrize("q1", [8, 16])
@pytest.mark.parametrize("theta_axis", [0.0, 0.3])
def test_points_on_rotated_cone_edges_keep_their_bytes(q1, theta_axis):
    disc = Discretization(q1=q1)
    kernel = GcmParams(cone=ConeSpec(alpha=_NARROW, theta_axis=theta_axis))
    kx, ky = _edge_points(disc, kernel.cone)
    dp, dm, inside = kernel.cone._dual_projections(kx[:12], ky[:12])
    assert np.all((dp * dm)[1::3] == 0.0) and np.all(inside[1::3])
    w = np.array([0.5, 2.0, 4.5])
    _assert_lambda_and_tail_match(kx[:, None], ky[:, None], w, disc, kernel)
    _assert_lambda_and_tail_match(kx, ky, np.resize(w, kx.shape), disc, kernel)


@pytest.mark.parametrize("q1", [2, 8])
def test_non_finite_and_huge_points_keep_their_bytes(q1):
    values = [np.inf, -np.inf, np.nan, 1e300, -1e300, 0.0, 1.5, -2.5]
    kx, ky = (v.ravel() for v in np.meshgrid(values, values))
    # At q1 = 2 this point lies in no rotated cone, yet the larger pair
    # scales overflow a coordinate to inf, and there the kernel gives NaN.
    kx, ky = np.append(kx, 5.109606601580082e306), np.append(ky, -1.9323619512029059e307)
    w = np.array([np.nan, np.inf, 1e300, 0.0, 2.0])
    disc = Discretization(q1=q1)
    with np.errstate(over="ignore", invalid="ignore"):
        for kernel in (GcmParams(), GcmParams(cone=ConeSpec(alpha=_NARROW, theta_axis=0.3))):
            _assert_lambda_and_tail_match(kx[:, None], ky[:, None], w, disc, kernel)
            _assert_lambda_and_tail_match(kx, ky, 2.0, disc, kernel)
        assert math.isnan(lambda_fn(kx[-2:], ky[-2:], 2.0, disc, GcmParams())[-1])


def test_a_shell_pair_of_inf_times_zero_is_not_read_as_inf():
    # At l = m = 100 and alpha = pi/4, S**2 overflows to inf on the axis
    # near |k| = 14 / s, and T**2 is 0 at omega = 1e6 for every pair.  The
    # largest product of such a pair is NaN, which the max over the pairs
    # passes over, so the tail is another pair's finite term.  The largest
    # factors' product, inf * T**2(omega = 14), would read inf.
    kernel = GcmParams(l=100, m=100, cone=ConeSpec(alpha=math.pi / 4))
    disc = Discretization()
    r = np.geomspace(0.05, 200.0, 40)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        assert lambda_fn(r, 0.0 * r, np.array([1.0, 14.0]), disc, kernel, with_tail=True)[1] == math.inf
        tail = _assert_lambda_and_tail_match(r, 0.0 * r, np.array([1.0, 14.0, 1e6]), disc, kernel)
    assert 0.0 < tail < math.inf


def test_the_default_grid_evaluates_one_rotation_a_point(monkeypatch):
    disc = Discretization()
    shapes = _gc_shapes(monkeypatch)
    lambda_fn(*frames._box_coords(*frames._search_grid(disc)), disc, GcmParams(), with_tail=True)
    # 81 pairs and 40 shell pairs, each of one rotation of 64 x 64 points.
    assert shapes == [(1, 1, 64, 64, 1)] * 121


def _gamma_cases():
    wide = GcmParams(l=3, m=4, sigma=1.5, cone=ConeSpec(alpha=math.pi / 4))
    return {
        "defaults": (Discretization(), GcmParams()),
        # The digest's steps, where gamma is not negligible.
        "digest": (Discretization(q1=4, scale_range=1, grid_size=8, gamma_stride=2,
                                  b_x0=2.0, b_y0=2.0, tau0=2.0), wide),
        # Spatial shifts vanish, temporal ones do not.
        "spatial-vanishes": (small_disc(b_x0=0.004, b_y0=0.004, tau0=2.0), GcmParams()),
        # Temporal shifts vanish, spatial ones do not.
        "temporal-vanishes": (small_disc(b_x0=20.0, b_y0=20.0, tau0=0.001), GcmParams()),
        "mixed": (small_disc(b_x0=0.3, b_y0=0.5, tau0=0.4), GcmParams()),
        # Shifted GC powers overflow, so inf * 0 turns gamma into NaN: no prune.
        "overflow": (small_disc(b_x0=1e-25, b_y0=1e-25, tau0=2.0), GcmParams()),
    }


@pytest.mark.parametrize("case", list(_gamma_cases()))
def test_pruned_gamma_matches_the_unpruned_sum_bit_for_bit(case):
    disc, kernel = _gamma_cases()[case]
    with np.errstate(over="ignore", invalid="ignore"):
        got = frames._gamma_correction(disc, kernel, *frames._search_grid(disc))
        want = _reference_gamma(disc, kernel)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    if case in ("digest", "spatial-vanishes", "temporal-vanishes", "mixed"):
        assert got[0] > 0.0  # the kept shifts carry weight
    if case == "overflow":
        assert math.isnan(got[0])


def _gc_points_in_gamma(disc, kernel, monkeypatch):
    points = []

    def counted(kx, ky, params):
        out = eval_gc_2d(kx, ky, params)
        points.append(out.size)
        return out

    monkeypatch.setattr(frames, "eval_gc_2d", counted)
    frames._gamma_correction(disc, kernel, *frames._search_grid(disc))
    monkeypatch.undo()
    return sum(points)


def _full_gamma_points(disc):
    """Kernel points of an unpruned gamma: the unshifted box and 32 shifts."""
    box = (len(range(0, disc.grid_size, disc.gamma_stride))) ** 2
    pairs = (2 * disc.scale_range + 1) ** 2
    return (1 + 26 + 6) * pairs * 2 * disc.q1 * box


def test_default_gamma_evaluates_no_kernel(monkeypatch):
    # Every shift is proved zero, and the unshifted factors are never formed.
    assert _gc_points_in_gamma(Discretization(), GcmParams(), monkeypatch) == 0


@pytest.mark.parametrize("case", ["spatial-vanishes", "temporal-vanishes"])
def test_vanishing_shifts_are_pruned(case, monkeypatch):
    disc, kernel = _gamma_cases()[case]
    assert 0 < _gc_points_in_gamma(disc, kernel, monkeypatch) < _full_gamma_points(disc) // 2


def test_overflowing_shifts_take_the_full_path(monkeypatch):
    disc, kernel = _gamma_cases()["overflow"]
    with np.errstate(over="ignore", invalid="ignore"):
        assert _gc_points_in_gamma(disc, kernel, monkeypatch) == _full_gamma_points(disc)


def test_callable_gamma_takes_the_full_path():
    disc = small_disc()
    points = []

    def kernel(kx, ky, w):
        out = eval_gcm(kx, ky, w, GcmParams())
        points.append(out.size)
        return out

    frames._gamma_correction(disc, kernel, *frames._search_grid(disc))
    # A callable's points include the temporal axis of the box.
    assert sum(points) == _full_gamma_points(disc) * len(range(0, disc.grid_size, disc.gamma_stride))


# ---------------------------------------------------------------------------
# conditioning tag


def test_default_report_is_valid_but_ill_conditioned():
    rep = estimate_bounds(Discretization(), GcmParams())
    assert rep.valid_frame and rep.ill_conditioned
    assert rep.lambda_minus <= rep.lambda_tail
    assert rep.ratio > frames.ILL_CONDITIONED_RATIO
    assert json.loads(rep.to_json())["ill_conditioned"] is True


def test_small_well_conditioned_family_is_not_tagged():
    wide = GcmParams(l=2, m=2, cone=ConeSpec(alpha=math.pi / 4))
    disc = Discretization(q1=4, a0=math.sqrt(2), c0=math.sqrt(2), scale_range=3, grid_size=8)
    rep = estimate_bounds(disc, wide)
    assert rep.lambda_minus > rep.lambda_tail and rep.ratio < 2.0
    assert rep.valid_frame and not rep.ill_conditioned
    assert json.loads(rep.to_json())["ill_conditioned"] is False


def test_a_lower_bound_within_the_truncation_tail_is_ill_conditioned():
    # One scale and speed: the tail is about 0.29, larger than lambda_minus,
    # though B/A is only about 26.
    wide = GcmParams(l=2, m=2, cone=ConeSpec(alpha=math.pi / 4))
    disc = Discretization(q1=4, a0=math.sqrt(2), c0=math.sqrt(2), scale_range=0, grid_size=8)
    rep = estimate_bounds(disc, wide)
    assert rep.lambda_minus <= rep.lambda_tail and rep.ratio < 100.0
    assert rep.ill_conditioned


@pytest.mark.parametrize("floor, ill", [(1e-7, True), (1e-5, False)])
def test_a_huge_ratio_alone_is_ill_conditioned(floor, ill):
    # The stub's cell tiles the lattice once, so Lambda at a point is the
    # square of this factor at the point's image in the cell: 1 on half of
    # the cell's angular sector and floor on the other.  The tail is 0, so
    # B/A, about floor**-2, decides alone.
    disc = small_disc(grid_size=8, scale_range=2, gamma_stride=2)
    stub = tight_frame_stub(disc)

    def kernel(kx, ky, w):
        phi = np.mod(np.arctan2(ky, kx), 2 * math.pi)
        return stub(kx, ky, w) * np.where(phi < disc.theta0 / 2, 1.0, floor)

    rep = estimate_bounds(disc, kernel)
    assert rep.valid_frame and rep.lambda_tail == 0.0 < rep.lambda_minus
    assert rep.ratio == pytest.approx(floor**-2, rel=1e-9)
    assert rep.ill_conditioned is ill


def test_an_invalid_frame_is_ill_conditioned():
    rep = estimate_bounds(small_disc(b_x0=2.0, b_y0=2.0, tau0=2.0), GcmParams())
    assert not rep.valid_frame and rep.ill_conditioned
