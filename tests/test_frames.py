"""Frame-bound estimator: lattice sums, stub tight frame, report contract."""

import math

import numpy as np
import pytest

from conewave import frames
from conewave.frames import (
    Discretization,
    estimate_bounds,
    lambda_fn,
    tight_frame_stub,
)
from conewave.kernels import GcmParams, eval_gc_2d, eval_gcm


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
    import json

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
