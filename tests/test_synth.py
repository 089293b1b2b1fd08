"""Scene generator: determinism, mass conservation, spectral signature."""

import math

import numpy as np
import pytest

from conewave.stcwt import forward_fft3
from conewave.synth import GaussianSceneSpec, add_noise, generate


def test_static_scene_has_identical_frames():
    seq = generate(GaussianSceneSpec(nx=32, ny=32, nt=8, v_r=0.0))
    for t in range(1, 8):
        assert np.array_equal(seq.data[:, :, t], seq.data[:, :, 0])


def test_isotropic_pattern_ignores_pattern_angle():
    a = generate(GaussianSceneSpec(nx=32, ny=32, nt=4, sigma_x=2.0, sigma_y=2.0,
                                   pattern_angle=0.0, v_r=1.0))
    b = generate(GaussianSceneSpec(nx=32, ny=32, nt=4, sigma_x=2.0, sigma_y=2.0,
                                   pattern_angle=0.9, v_r=1.0))
    assert np.allclose(a.data, b.data, atol=1e-12)


def test_out_of_bounds_trajectory_rejected_without_wrap():
    spec = GaussianSceneSpec(nx=32, ny=32, nt=16, sigma_x=1.0, sigma_y=1.0,
                             v_r=2.0, wrap=False)
    with pytest.raises(ValueError):
        generate(spec)


def test_in_bounds_trajectory_allowed_without_wrap():
    spec = GaussianSceneSpec(nx=48, ny=32, nt=8, sigma_x=1.5, sigma_y=1.5,
                             v_r=1.0, start=(12.0, 16.0), wrap=False)
    seq = generate(spec)
    assert seq.data.shape == (48, 32, 8)


def test_mass_conservation_in_bounds():
    # Frame sums of the sampled Gaussian stay constant when the tails are
    # far from the boundary (sigma >= 1.5 keeps alias mass below 1e-12).
    spec = GaussianSceneSpec(nx=48, ny=32, nt=8, sigma_x=1.5, sigma_y=2.0,
                             v_r=1.3, motion_angle=0.3, start=(12.0, 14.0), wrap=False)
    seq = generate(spec)
    sums = seq.data.sum(axis=(0, 1))
    assert np.max(np.abs(sums - sums[0])) < 1e-9 * sums[0]


def test_wrapped_scene_conserves_mass_exactly_by_periodicity():
    spec = GaussianSceneSpec(nx=32, ny=32, nt=8, sigma_x=1.5, sigma_y=1.5, v_r=5.0)
    seq = generate(spec)
    sums = seq.data.sum(axis=(0, 1))
    assert np.max(np.abs(sums - sums[0])) < 1e-9 * sums[0]


def test_subpixel_motion_centers():
    # Analytic evaluation: the argmax pixel follows the sub-pixel center.
    spec = GaussianSceneSpec(nx=32, ny=32, nt=4, sigma_x=2.0, sigma_y=2.0,
                             v_r=2.5, start=(8.0, 16.0), wrap=True)
    seq = generate(spec)
    for t in range(4):
        i, j = np.unravel_index(np.argmax(seq.data[:, :, t]), (32, 32))
        assert abs(i - (8.0 + 2.5 * t)) <= 0.5 + 1e-9
        assert j == 16


def test_spectrum_concentrates_on_motion_plane():
    # Oracle: per-kx centroid of |s_hat|^2 along omega, least-squares slope.
    # Under the forward DFT a pattern moving at +3 px/frame along x puts its
    # mass on the plane omega = -3 kx.
    seq = generate(GaussianSceneSpec(nx=64, ny=64, nt=16, sigma_x=1.0, sigma_y=8.0,
                                     v_r=3.0, motion_angle=0.0))
    spec = forward_fft3(seq)
    power = np.abs(spec.data) ** 2
    kx = spec.kx()
    w = spec.omega()
    slopes, weights = [], []
    for i in range(64):
        if kx[i] <= 0 or 3.0 * kx[i] > 0.8 * math.pi:
            continue  # stay clear of the temporal Nyquist fold
        slab = power[i].sum(axis=0)
        mass = slab.sum()
        if mass < 1e-8 * power.sum():
            continue
        centroid = float((slab * w).sum() / mass)
        slopes.append(centroid / kx[i])
        weights.append(mass)
    slope = float(np.average(slopes, weights=weights))
    assert slope == pytest.approx(-3.0, rel=0.05)


def test_spatial_signature_is_along_kx():
    seq = generate(GaussianSceneSpec(nx=64, ny=64, nt=16, sigma_x=1.0, sigma_y=8.0, v_r=3.0))
    power = np.abs(forward_fft3(seq).data) ** 2
    kx = forward_fft3(seq).kx()
    ky = kx
    total = power.sum()
    kx_spread = ((kx**2)[:, None, None] * power).sum() / total
    ky_spread = ((ky**2)[None, :, None] * power).sum() / total
    assert kx_spread > 10 * ky_spread


def test_add_noise_contract():
    seq = generate(GaussianSceneSpec(nx=64, ny=64, nt=16, v_r=0.0))
    assert add_noise(seq, 0.0, 1) is seq
    noisy1 = add_noise(seq, 0.2, 42)
    noisy2 = add_noise(seq, 0.2, 42)
    assert np.array_equal(noisy1.data, noisy2.data)
    assert not np.array_equal(noisy1.data, add_noise(seq, 0.2, 43).data)
    var = np.var(noisy1.data - seq.data)
    assert var == pytest.approx(0.04, rel=0.05)
    with pytest.raises(ValueError):
        add_noise(seq, -0.1, 0)


def test_generate_with_noise_is_deterministic():
    spec = GaussianSceneSpec(nx=16, ny=16, nt=4, noise_sigma=0.1, seed=7)
    assert np.array_equal(generate(spec).data, generate(spec).data)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["sigma_x", "sigma_y", "pattern_angle", "v_r", "motion_angle",
                                   "amplitude", "noise_sigma"])
def test_scene_spec_rejects_non_finite_values(field, bad):
    with pytest.raises(ValueError, match=field):
        GaussianSceneSpec(**{field: bad})


@pytest.mark.parametrize("start", [(math.nan, 0.0), (0.0, math.inf)])
def test_scene_spec_rejects_a_non_finite_start(start):
    with pytest.raises(ValueError, match="start"):
        GaussianSceneSpec(start=start)
