"""Kernel evaluations against closed-form values and grid-search oracles."""

import math
import warnings

import numpy as np
import pytest

from conewave.kernels import (
    ConeSpec,
    GcmParams,
    GroupElement,
    MorletParams,
    SPEED_EXPONENT_SPATIAL,
    SPEED_EXPONENT_TEMPORAL,
    _gc_profile,
    apply_group,
    arp_conical,
    arp_morlet,
    central_wavevector,
    eval_cauchy_2d,
    eval_centered_gcm,
    eval_gc_2d,
    eval_gcm,
    eval_morlet_2d,
    tuned_spatial,
)


def default_params(**overrides):
    base = dict(l=10, m=10, sigma=1.0, cone=ConeSpec(alpha=math.pi / 16))
    base.update(overrides)
    return GcmParams(**base)


# ---------------------------------------------------------------------------
# parameter objects


def test_cone_requires_strict_convexity():
    with pytest.raises(ValueError):
        ConeSpec(alpha=math.pi / 2)
    with pytest.raises(ValueError):
        ConeSpec(alpha=0.0)
    with pytest.raises(ValueError):
        ConeSpec(alpha=-0.1)


@pytest.mark.parametrize("axis", [math.nan, math.inf, -math.inf])
def test_cone_requires_a_finite_axis(axis):
    # No point passes the inside test of a NaN axis, so the kernel would be
    # silently zero everywhere.
    with pytest.raises(ValueError, match="theta_axis must be finite"):
        ConeSpec(alpha=math.pi / 16, theta_axis=axis)


@pytest.mark.parametrize("alpha", [math.pi / 256, math.pi / 16, math.pi / 4, 1.5])
@pytest.mark.parametrize("axis", [0.0, 0.7, -math.pi / 3])
def test_dual_cone_orthogonality(alpha, axis):
    cone = ConeSpec(alpha=alpha, theta_axis=axis)
    em = np.array(cone.edge_minus)
    ep = np.array(cone.edge_plus)
    dp = np.array(cone.dual_plus)
    dm = np.array(cone.dual_minus)
    assert abs(em @ dp) < 1e-12
    assert abs(ep @ dm) < 1e-12


def test_gcm_params_validation_and_chi():
    with pytest.raises(ValueError):
        GcmParams(l=0, m=1)
    with pytest.raises(ValueError):
        GcmParams(l=1, m=1, sigma=0.0)
    p = default_params(sigma=1.0)
    assert p.chi == 0.0
    p2 = default_params(sigma=2.0)
    assert p2.chi == pytest.approx(math.sqrt(20) * 0.5)


def test_omega0_defaults_to_sqrt_l_plus_m():
    p = default_params()
    assert p.omega0 == math.sqrt(20)
    p = default_params(omega0=3.5)
    assert p.omega0 == 3.5


def test_group_element_identity_and_validation():
    g = GroupElement()
    assert (g.bx, g.by, g.tau, g.theta, g.a_s, g.a_t, g.c) == (0, 0, 0, 0, 1, 1, 1)
    for bad in [dict(a_s=0), dict(a_t=-1), dict(c=0.0)]:
        with pytest.raises(ValueError):
            GroupElement(**bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("cls, field", [
    (GcmParams, "sigma"), (GcmParams, "omega0"),
    *((GroupElement, f) for f in ("bx", "by", "tau", "theta", "a_s", "a_t", "c")),
])
def test_parameters_reject_non_finite_values(cls, field, bad):
    with pytest.raises(ValueError, match=field):
        cls(**{field: bad})


def test_speed_exponents():
    assert SPEED_EXPONENT_TEMPORAL == pytest.approx(2.0 / 3.0)
    assert SPEED_EXPONENT_SPATIAL == pytest.approx(1.0 / 3.0)
    assert SPEED_EXPONENT_TEMPORAL + SPEED_EXPONENT_SPATIAL == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# 2D Morlet


def test_morlet_center_value_is_one():
    p = MorletParams(k0=(6.0, 0.0), epsilon=1.0)
    assert eval_morlet_2d(6.0, 0.0, p) == pytest.approx(1.0, rel=1e-15)


def test_morlet_correction_cancels_at_origin():
    for p in [MorletParams((6.0, 0.0), 1.0), MorletParams((4.0, 2.0), 8.0)]:
        assert abs(eval_morlet_2d(0.0, 0.0, p, with_correction=True)) < 1e-12


def test_morlet_offset_value():
    p = MorletParams(k0=(6.0, 0.0), epsilon=1.0)
    assert eval_morlet_2d(7.0, 0.0, p) == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_morlet_requires_epsilon_at_least_one():
    with pytest.raises(ValueError):
        MorletParams((6.0, 0.0), 0.5)


# ---------------------------------------------------------------------------
# 2D Cauchy


def test_cauchy_2d_zero_on_edge_and_outside():
    cone = ConeSpec(alpha=0.4)
    r = 2.0
    on_edge = (r * math.cos(0.4), r * math.sin(0.4))
    outside = (r * math.cos(0.5), r * math.sin(0.5))
    assert eval_cauchy_2d(*on_edge, cone, 2, 2, (1.0, 0.0)) == 0.0
    assert eval_cauchy_2d(*outside, cone, 2, 2, (1.0, 0.0)) == 0.0


def test_cauchy_2d_closed_form_value():
    # alpha = pi/4 makes the dual aperture pi/4 as well; at k = (2, 0) each
    # dual projection is 2*cos(pi/4), so with l = m = 1 the product is 2.
    cone = ConeSpec(alpha=math.pi / 4)
    got = eval_cauchy_2d(2.0, 0.0, cone, 1, 1, (1.0, 0.0))
    assert got == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)


def test_cauchy_2d_rejects_decay_vector_outside_cone():
    cone = ConeSpec(alpha=0.3)
    with pytest.raises(ValueError):
        eval_cauchy_2d(1.0, 0.0, cone, 1, 1, (math.cos(0.4), math.sin(0.4)))
    with pytest.raises(ValueError):  # exactly on the edge is rejected too
        eval_cauchy_2d(1.0, 0.0, cone, 1, 1, (math.cos(0.3), math.sin(0.3)))


# ---------------------------------------------------------------------------
# Gaussian-Conical


def test_gc_zero_outside_cone_and_at_origin():
    p = default_params()
    angles = np.array([math.pi / 16 + 0.1, math.pi / 2, -math.pi / 3, math.pi])
    r = 3.0
    vals = eval_gc_2d(r * np.cos(angles), r * np.sin(angles), p)
    assert np.all(vals == 0.0)
    assert eval_gc_2d(0.0, 0.0, p) == 0.0


@pytest.mark.parametrize("sigma", [1.0, 2.0, 0.5])
def test_gc_axial_argmax_at_sqrt_l_plus_m(sigma):
    # Oracle: dense 1D maximization along the cone axis.  The center
    # correction chi(sigma) keeps the peak at sqrt(l+m) for every sigma.
    p = default_params(sigma=sigma)
    r = np.linspace(1e-6, 12.0, 240001)
    vals = eval_gc_2d(r, np.zeros_like(r), p)
    r_peak = r[np.argmax(vals)]
    assert abs(r_peak - math.sqrt(20)) <= (r[1] - r[0])


def test_gc_positive_inside_cone():
    p = default_params()
    assert eval_gc_2d(4.0, 0.1, p) > 0.0


# ---------------------------------------------------------------------------
# GCM


def test_gcm_zero_outside_cone_for_all_omega():
    p = default_params()
    k = 3.0 * np.array([math.cos(0.5), math.sin(0.5)])  # outside pi/16 cone
    for w in [-3.0, 0.0, p.omega0, 10.0]:
        assert eval_gcm(k[0], k[1], w, p) == 0.0


def test_gcm_at_center_frequency_equals_gc():
    p = default_params()
    kx, ky = 4.2, 0.3
    assert eval_gcm(kx, ky, p.omega0, p) == pytest.approx(
        float(eval_gc_2d(kx, ky, p)), rel=1e-15
    )


def test_gcm_temporal_ratio():
    p = default_params()
    kx, ky = 4.2, 0.2
    ratio = eval_gcm(kx, ky, p.omega0 + 2.0, p) / eval_gcm(kx, ky, p.omega0, p)
    assert ratio == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_gcm_separability_pointwise():
    p = default_params()
    rng = np.random.default_rng(7)
    kx = rng.uniform(-6, 6, 200)
    ky = rng.uniform(-6, 6, 200)
    w = rng.uniform(-8, 8, 200)
    combined = eval_gcm(kx, ky, w, p)
    split = eval_gc_2d(kx, ky, p) * np.exp(-0.5 * (w - p.omega0) ** 2)
    assert np.array_equal(combined, split)


def test_gcm_admissibility_zero_at_spatial_origin():
    p = default_params()
    w = np.linspace(-5, 5, 11)
    assert np.all(eval_gcm(0.0, 0.0, w, p) == 0.0)


# ---------------------------------------------------------------------------
# group action


def test_apply_group_identity_matches_mother():
    p = default_params()
    rng = np.random.default_rng(3)
    kx = rng.uniform(-6, 6, 100)
    ky = rng.uniform(-6, 6, 100)
    w = rng.uniform(-2, 10, 100)
    tuned = apply_group(GroupElement(), p, kx, ky, w)
    assert np.max(np.abs(tuned.imag)) == 0.0
    assert np.allclose(tuned.real, eval_gcm(kx, ky, w, p), rtol=1e-14, atol=0)


def test_rotation_covariance():
    p = default_params()
    rng = np.random.default_rng(11)
    for theta in rng.uniform(-math.pi, math.pi, 5):
        g = GroupElement(theta=theta)
        kx = rng.uniform(-6, 6, 100)
        ky = rng.uniform(-6, 6, 100)
        w = rng.uniform(-2, 10, 100)
        ct, st = math.cos(theta), math.sin(theta)
        rkx = ct * kx - st * ky  # r^theta k
        rky = st * kx + ct * ky
        rotated = apply_group(g, p, rkx, rky, w)
        mother = eval_gcm(kx, ky, w, p)
        assert np.allclose(rotated.real, mother, rtol=0, atol=1e-12 * (1 + np.abs(mother).max()))


def test_rotated_support_cone():
    p = default_params()
    theta1 = 0.9
    g = GroupElement(theta=theta1)
    angles = np.linspace(-math.pi, math.pi, 721)
    vals = np.abs(apply_group(g, p, 4.0 * np.cos(angles), 4.0 * np.sin(angles), p.omega0))
    inside = np.abs(((angles - theta1) + math.pi) % (2 * math.pi) - math.pi) <= math.pi / 16
    assert np.all(vals[~inside] == 0.0)
    assert vals[inside][1:-1].min() >= 0.0 and vals.max() > 0.0


def test_speed_tuning_moves_centers():
    # Oracle: numeric argmax of the c = 8 tuned kernel on fine 1D grids.
    # The temporal center moves to omega0 * 8**(2/3) = 4*omega0 and the
    # spatial center to sqrt(l+m) / 8**(1/3) = sqrt(l+m) / 2.
    p = default_params()
    g = GroupElement(c=8.0)
    r = np.linspace(1e-6, 8.0, 160001)
    axial = np.abs(apply_group(g, p, r, np.zeros_like(r), p.omega0 * 4.0))
    r_peak = r[np.argmax(axial)]
    assert abs(r_peak - math.sqrt(20) / 2.0) <= 2 * (r[1] - r[0])

    w = np.linspace(0.0, 40.0, 160001)
    kx_peak = math.sqrt(20) / 2.0
    temporal = np.abs(apply_group(g, p, np.full_like(w, kx_peak), np.zeros_like(w), w))
    w_peak = w[np.argmax(temporal)]
    assert abs(w_peak - 4.0 * p.omega0) <= 2 * (w[1] - w[0])


@pytest.mark.parametrize("c", [0.4, 1.0, 4.0])
def test_speed_tuning_center_slope(c):
    # Center slope omega/kx of the tuned kernel tracks (omega0/sqrt(l+m))*c.
    p = default_params()
    g = GroupElement(c=c)
    kx = np.linspace(1e-3, 10.0, 1200)
    w = np.linspace(0.0, 20.0, 2400)
    vals = np.abs(apply_group(g, p, kx[:, None], np.zeros((1, 1)), w[None, :]))
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    slope = w[j] / kx[i]
    expected = (p.omega0 / math.sqrt(20)) * c
    dk, dw = kx[1] - kx[0], w[1] - w[0]
    slope_tol = (dw + expected * dk) / kx[i] * 2
    assert abs(slope - expected) <= slope_tol


def test_scale_tuning_prefactor():
    p = default_params()
    g = GroupElement(a_s=2.0, a_t=4.0)
    kx, ky, w = 2.2, 0.05, p.omega0 / 4.0
    got = apply_group(g, p, kx, ky, w)
    expected = (1 / (2.0 * 2.0)) * eval_gcm(2 * kx, 2 * ky, 4 * w, p)
    assert got.real == pytest.approx(float(expected), rel=1e-13)


def test_translation_phase():
    p = default_params()
    g = GroupElement(bx=1.5, by=-0.5, tau=2.0)
    kx, ky, w = 4.0, 0.1, p.omega0
    got = apply_group(g, p, kx, ky, w)
    expected = np.exp(-1j * (kx * 1.5 + ky * -0.5 + w * 2.0)) * eval_gcm(kx, ky, w, p)
    assert got == pytest.approx(complex(expected), rel=1e-13)


# ---------------------------------------------------------------------------
# central frequency and the centered low-pass kernel


def test_central_wavevector_examples():
    p = default_params()
    k0 = central_wavevector(GroupElement(), p)
    assert k0[0] == math.sqrt(20) and k0[1] == 0.0

    k0 = central_wavevector(GroupElement(c=8.0), p)
    assert k0[0] == pytest.approx(math.sqrt(20) / 2.0, rel=1e-14)

    k0 = central_wavevector(GroupElement(theta=math.pi / 2), p)
    assert abs(k0[0]) < 1e-12 and k0[1] == pytest.approx(math.sqrt(20), rel=1e-14)


def test_central_wavevector_includes_both_scales():
    p = default_params()
    k0 = central_wavevector(GroupElement(a_s=2.0, a_t=3.0, c=1.0), p)
    assert k0[0] == pytest.approx(math.sqrt(20) / 6.0, rel=1e-14)


def test_centered_kernel_peaks_at_origin():
    # Oracle: numeric argmax over a fine 3D grid.  Exact centering holds
    # for a_t = 1 (the spatial compensation carries a 1/a_t factor).
    p = default_params()
    g = GroupElement(c=2.0, a_s=1.5, a_t=1.0)
    kx = np.linspace(-4, 4, 321)
    ky = np.linspace(-2, 2, 161)
    w = np.linspace(-10, 10, 161)
    vals = np.abs(
        eval_centered_gcm(g, p, kx[:, None, None], ky[None, :, None], w[None, None, :])
    )
    i, j, t = np.unravel_index(np.argmax(vals), vals.shape)
    assert abs(kx[i]) <= kx[1] - kx[0]
    assert abs(ky[j]) <= ky[1] - ky[0]
    assert abs(w[t]) <= w[1] - w[0]


def test_centered_kernel_is_pure_shift():
    p = default_params()
    g = GroupElement(c=3.0, a_s=2.0, a_t=2.0, theta=0.4)
    k0x, k0y = central_wavevector(g, p)
    w0 = p.omega0 * g.c**SPEED_EXPONENT_TEMPORAL / g.a_t
    rng = np.random.default_rng(5)
    vx = rng.uniform(-5, 5, 50)
    vy = rng.uniform(-5, 5, 50)
    vw = rng.uniform(-10, 10, 50)
    centered = eval_centered_gcm(g, p, vx, vy, vw)
    shifted = apply_group(g, p, vx + k0x, vy + k0y, vw + w0)
    assert np.allclose(centered, shifted, rtol=1e-13, atol=0)


def test_centered_support_apex_moves_to_minus_k0():
    # Oracle: brute-force membership of the shifted cone.
    p = default_params()
    g = GroupElement(theta=math.pi / 3)
    k0x, k0y = central_wavevector(g, p)
    cone = ConeSpec(alpha=p.cone.alpha, theta_axis=math.pi / 3)
    rng = np.random.default_rng(9)
    kx = rng.uniform(-8, 8, 4000)
    ky = rng.uniform(-8, 8, 4000)
    vals = np.abs(eval_centered_gcm(g, p, kx, ky, 0.0))
    member = cone.contains(kx + k0x, ky + k0y)
    assert np.all(vals[~member] == 0.0)
    assert np.any(vals[member] > 0.0)


# ---------------------------------------------------------------------------
# angular resolving power


def test_arp_values():
    assert arp_conical(ConeSpec(alpha=math.pi / 16)) == pytest.approx(math.pi / 8, rel=1e-15)
    assert arp_morlet(MorletParams((6.0, 0.0), 1.0)) == pytest.approx(
        2 * math.atan(1 / 6), rel=1e-12
    )


def test_arp_morlet_strictly_decreasing():
    products = [(6.0, 1.0), (6.0, 2.0), (12.0, 2.0), (22.0, 8.0)]
    arps = [arp_morlet(MorletParams((k0, 0.0), eps)) for k0, eps in products]
    assert all(a > b for a, b in zip(arps, arps[1:]))
    assert arp_morlet(MorletParams((1e6, 0.0), 1.0)) < 1e-5


def test_arp_conical_ignores_radial_shape():
    a = arp_conical(default_params(l=2, m=2, sigma=0.5).cone)
    b = arp_conical(default_params(l=10, m=10, sigma=4.0).cone)
    assert a == b


# ---------------------------------------------------------------------------
# support and edge regularity


def test_support_is_bitexact_zero_outside():
    p = default_params(l=3, m=5)
    rng = np.random.default_rng(2)
    n = 5000
    angles = rng.uniform(math.pi / 16 + 1e-6, 2 * math.pi - math.pi / 16 - 1e-6, n)
    r = rng.uniform(0.1, 10.0, n)
    kx, ky = r * np.cos(angles), r * np.sin(angles)
    assert np.all(eval_gc_2d(kx, ky, p) == 0.0)
    assert np.all(eval_gcm(kx, ky, 4.0, p) == 0.0)
    assert np.all(apply_group(GroupElement(), p, kx, ky, 4.0) == 0.0)


def test_edge_values_are_exactly_zero():
    # Edge points are constructed perpendicular to the dual vectors so the
    # vanishing projection cancels bit-exactly in floating point.
    p = default_params(l=3, m=5)
    cone = p.cone
    r = 2.0 ** np.arange(-1, 4)  # power-of-two radii scale without rounding
    mx, my = cone.dual_minus
    upper = eval_gc_2d(r * -my, r * mx, p)  # +alpha edge, k . dual_minus == 0
    px, py = cone.dual_plus
    lower = eval_gc_2d(r * py, r * -px, p)  # -alpha edge, k . dual_plus == 0
    assert np.all(upper == 0.0)
    assert np.all(lower == 0.0)
    r = np.linspace(0.5, 8.0, 50)
    # Points at the rounded edge angle are not exactly on the edge; they
    # stay at deep underflow level relative to the kernel peak.
    alpha = cone.alpha
    peak = float(eval_gc_2d(math.sqrt(8), 0.0, p))
    for edge in (alpha, -alpha):
        vals = eval_gc_2d(r * math.cos(edge), r * math.sin(edge), p)
        assert np.all(np.abs(vals) <= 1e-40 * max(peak, 1.0))


def _plain_gc(ux, uy, p):
    """The GC formula evaluated at every point and masked afterwards: the
    reference that the cone-only evaluation must match byte for byte."""
    px, py = p.cone.dual_plus
    mx, my = p.cone.dual_minus
    ax, ay = p.cone.axis_unit
    dp = ux * px + uy * py
    dm = ux * mx + uy * my
    axial = ux * ax + uy * ay
    with np.errstate(over="ignore", invalid="ignore"):
        val = dm**p.l * dp**p.m * np.exp(-0.5 * p.sigma * (axial - p.chi) ** 2)
    return np.where((dp >= 0.0) & (dm >= 0.0), val, 0.0)


def _assert_same_bytes(got, want):
    assert type(got) is type(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()  # signed zeros and NaN count


def _special_points(p):
    """Points on both cone edges, the apex with both zero signs, points
    just inside and outside, and NaN and infinite coordinates."""
    mx, my = p.cone.dual_minus
    px, py = p.cone.dual_plus
    ax, ay = p.cone.axis_unit
    r = 2.0 ** np.arange(-1, 4)
    inf, nan = math.inf, math.nan
    ux = np.concatenate([r * -my, r * py, [0.0, -0.0, 0.0, -0.0], 4.0 * ax + r * 1e-3 * -ay,
                         4.0 * ax - r * 1e-3 * -ay, [nan, 1.0, nan, inf, -inf, inf, 0.0, inf]])
    uy = np.concatenate([r * mx, r * -px, [0.0, -0.0, -0.0, 0.0], 4.0 * ay + r * 1e-3 * ax,
                         4.0 * ay - r * 1e-3 * ax, [0.0, nan, nan, 0.0, 0.0, inf, inf, 1e300]])
    return ux, uy


@pytest.mark.parametrize("alpha", [math.pi / 256, math.pi / 16, math.pi / 8])
@pytest.mark.parametrize(
    "l,m,sigma,axis", [(10, 10, 1.0, 0.0), (3, 7, 2.5, 0.3), (1, 2, 0.4, -2.0)]
)
def test_cone_only_profile_is_bit_identical_to_the_plain_formula(alpha, l, m, sigma, axis):
    p = default_params(l=l, m=m, sigma=sigma, cone=ConeSpec(alpha=alpha, theta_axis=axis))
    rng = np.random.default_rng(7)
    kx = np.linspace(-12.0, 12.0, 41)[:, None]
    ky = np.linspace(-12.0, 12.0, 37)[None, :]
    # The (q, g, g, 1) rotation stacks of frames._term_factors.
    theta = np.arange(4)[:, None, None, None] * math.pi / 4
    r = rng.uniform(0.1, 10.0, (1, 6, 1, 1)) * np.ones((1, 1, 5, 1))
    phi = rng.uniform(0.0, 0.5, (1, 1, 5, 1)) * np.ones((1, 6, 1, 1))
    stack = (np.cos(theta) * r * np.cos(phi) + np.sin(theta) * r * np.sin(phi),
             -np.sin(theta) * r * np.cos(phi) + np.cos(theta) * r * np.sin(phi))
    cases = [
        (kx, ky),
        stack,
        _special_points(p),
        (rng.normal(0.0, 6.0, 500), rng.normal(0.0, 6.0, 500)),
        (4.0, 0.1), (-4.0, 0.1), (0.0, -0.0), (math.nan, 1.0), (math.inf, 0.0),
        (np.array(4.0), np.array(0.1)), (np.array(-0.0), np.array(-0.0)),
        (np.float64(3.9), np.float64(-0.05)),
        (np.linspace(0.0, 6.0, 7), 0.0),
    ]
    with np.errstate(invalid="ignore"):  # inf - inf in the projections is NaN
        for ux, uy in cases:
            _assert_same_bytes(_gc_profile(ux, uy, p), _plain_gc(ux, uy, p))
            want = _plain_gc(np.asarray(ux, dtype=float), np.asarray(uy, dtype=float), p)
            _assert_same_bytes(eval_gc_2d(ux, uy, p), want)


@pytest.mark.parametrize("axis", [0.0, 0.3, -2.0])
def test_infinite_coordinates_warn_nothing(axis):
    # inf - inf in an edge projection is NaN, which reads as outside the
    # cone; computing it must not emit "invalid value encountered".
    p = default_params(cone=ConeSpec(alpha=math.pi / 16, theta_axis=axis))
    inf = math.inf
    kx = np.array([inf, -inf, inf, -inf, math.nan])
    ky = np.array([-inf, inf, inf, -inf, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gc = eval_gc_2d(kx, ky, p)
        cauchy = eval_cauchy_2d(kx, ky, p.cone, 3, 5, p.cone.axis_unit)
        inside = p.cone.contains(kx, ky)
    # None of these directions lies in the cone at these axes.
    assert not inside.any()
    assert np.all(gc == 0.0) and np.all(cauchy == 0.0)


def _directional_difference(p, edge_angle, order, h):
    # Finite difference across the cone edge along the inward normal at a
    # point sitting on the edge.
    base = 4.0 * np.array([math.cos(edge_angle), math.sin(edge_angle)])
    normal = np.array([-math.sin(edge_angle), math.cos(edge_angle)])
    if edge_angle > 0:
        normal = -normal
    coeffs = [(-1) ** (order - i) * math.comb(order, i) for i in range(order + 1)]
    pts = [base + i * h * normal for i in range(order + 1)]
    return sum(c * float(eval_gc_2d(pt[0], pt[1], p)) for c, pt in zip(coeffs, pts))


@pytest.mark.parametrize("edge_sign,vanish_order", [(1, 3), (-1, 5)])
def test_edge_regularity_scaling(edge_sign, vanish_order):
    # Near the +alpha edge the kernel behaves like distance**l and near the
    # -alpha edge like distance**m, so any finite difference of order below
    # that exponent scales as h**exponent (it vanishes at grid resolution).
    p = default_params(l=3, m=5)
    edge = edge_sign * p.cone.alpha
    for order in range(1, vanish_order):
        d1 = _directional_difference(p, edge, order, 1e-3)
        d2 = _directional_difference(p, edge, order, 5e-4)
        assert abs(d1) < 1e-6
        ratio = abs(d1) / abs(d2)
        assert ratio == pytest.approx(2.0**vanish_order, rel=0.15)


def test_tuned_spatial_matches_scaled_mother():
    p = default_params()
    g = GroupElement(a_s=3.0, c=2.0)
    s = 3.0 * 2.0**SPEED_EXPONENT_SPATIAL
    kx, ky = 0.9, 0.02
    assert float(tuned_spatial(g, p, kx, ky)) == pytest.approx(
        float(eval_gc_2d(s * kx, s * ky, p)), rel=1e-14
    )
