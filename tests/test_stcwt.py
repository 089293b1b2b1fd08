"""Transform engine against brute-force DFT and correlation oracles."""

import gc
import math
import threading
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from conewave import speedscan, stcwt
from conewave.kernels import (
    SPEED_EXPONENT_SPATIAL,
    SPEED_EXPONENT_TEMPORAL,
    ConeSpec,
    GcmParams,
    GroupElement,
    _prefactor,
    eval_gc_2d,
    tuned_spatial,
    tuned_temporal,
)
from conewave.speedscan import ScanConfig, scan_speeds
from conewave.stcwt import (
    SequenceVolume,
    SpectrumVolume,
    apply_spectral_filter,
    apply_tuned_filter,
    energy_density,
    fft_call_count,
    forward_fft3,
    inverse_fft3,
    reset_fft_count,
    tuned_energy,
    tuned_energy_detail,
    tuned_filter_factors,
)
from conewave.stvio import read_stv, write_stv
from conewave.synth import GaussianSceneSpec, generate


def random_sequence(shape, seed=0):
    rng = np.random.default_rng(seed)
    return SequenceVolume(rng.standard_normal(shape))


def wide_params():
    # Low edge orders and a wide cone keep the response well inside the
    # unit-scale Nyquist box, convenient for small-grid oracles.
    return GcmParams(l=2, m=2, sigma=1.0, cone=ConeSpec(alpha=math.pi / 3))


# ---------------------------------------------------------------------------
# volume types


def test_sequence_volume_validation():
    with pytest.raises(ValueError):
        SequenceVolume(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        SequenceVolume(np.zeros((1, 4, 4)))
    bad = np.zeros((4, 4, 4))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        SequenceVolume(bad)
    seq = SequenceVolume(np.zeros((4, 4, 4), dtype=np.float32))
    assert seq.data.dtype == np.float64


@pytest.mark.parametrize("name", ["pixel_pitch", "frame_pitch"])
@pytest.mark.parametrize("value", [-1.0, 0.0, math.inf, -math.inf, math.nan])
def test_sequence_volume_rejects_bad_pitch(name, value):
    with pytest.raises(ValueError, match=name):
        SequenceVolume(np.zeros((4, 4, 4)), **{name: value})


@pytest.mark.parametrize("name", ["pixel_pitch", "frame_pitch"])
@pytest.mark.parametrize("value", [-1.0, 0.0, math.inf, -math.inf, math.nan])
def test_spectrum_volume_rejects_bad_pitch(name, value):
    with pytest.raises(ValueError, match=name):
        SpectrumVolume(np.zeros((4, 4, 4), dtype=complex), **{name: value})


@pytest.mark.parametrize("volume, dtype", [(SequenceVolume, float), (SpectrumVolume, complex)])
@pytest.mark.parametrize("shape, match", [
    ((4, 4), "3D"), ((4, 4, 4, 4), "3D"), ((1, 4, 4), ">= 2"), ((4, 4, 1), ">= 2"),
])
def test_volumes_reject_a_shape_that_is_not_a_3d_grid(volume, dtype, shape, match):
    with pytest.raises(ValueError, match=match):
        volume(np.zeros(shape, dtype=dtype))


@pytest.mark.parametrize("name", ["pixel_pitch", "frame_pitch"])
@pytest.mark.parametrize("value", [-1.0, 0.0, math.inf, -math.inf, math.nan])
def test_forward_fft3_rejects_a_pitch_set_after_construction(name, value):
    seq = random_sequence((4, 4, 4))
    setattr(seq, name, value)
    with pytest.raises(ValueError, match=name):
        forward_fft3(seq)


def test_spectrum_frequency_grids():
    spec = forward_fft3(random_sequence((8, 6, 4)))
    for grid, n in [(spec.kx(), 8), (spec.ky(), 6), (spec.omega(), 4)]:
        expected = {2 * math.pi * i / n for i in range(-n // 2, n // 2)}
        assert {round(v, 12) for v in grid} == {round(v, 12) for v in expected}


# ---------------------------------------------------------------------------
# forward transform


def test_impulse_has_flat_spectrum():
    data = np.zeros((8, 8, 4))
    data[0, 0, 0] = 1.0
    spec = forward_fft3(SequenceVolume(data))
    assert np.allclose(np.abs(spec.data), 1.0 / math.sqrt(8 * 8 * 4), atol=1e-14)


def test_constant_sequence_is_pure_dc():
    spec = forward_fft3(SequenceVolume(np.full((8, 8, 4), 2.5)))
    assert abs(spec.data[0, 0, 0] - 2.5 * math.sqrt(8 * 8 * 4)) < 1e-12
    rest = spec.data.copy()
    rest[0, 0, 0] = 0.0
    assert np.max(np.abs(rest)) < 1e-12


def test_forward_matches_direct_dft_sum():
    # Oracle: O(N^2) triple-sum DFT.
    seq = random_sequence((8, 8, 4), seed=1)
    spec = forward_fft3(seq)
    nx, ny, nt = 8, 8, 4
    direct = np.zeros((nx, ny, nt), dtype=complex)
    for a in range(nx):
        for b in range(ny):
            for c in range(nt):
                acc = 0.0
                for x in range(nx):
                    for y in range(ny):
                        for t in range(nt):
                            acc += seq.data[x, y, t] * np.exp(
                                -2j * np.pi * (a * x / nx + b * y / ny + c * t / nt)
                            )
                direct[a, b, c] = acc / math.sqrt(nx * ny * nt)
    err = np.max(np.abs(spec.data - direct)) / np.max(np.abs(direct))
    assert err < 1e-10


def test_round_trip_and_hermitian_symmetry():
    seq = random_sequence((12, 10, 6), seed=2)
    spec = forward_fft3(seq)
    back = inverse_fft3(spec)
    assert np.max(np.abs(back - seq.data)) < 1e-12 * np.max(np.abs(seq.data))
    flipped = np.conj(
        np.roll(spec.data[::-1, ::-1, ::-1], shift=(1, 1, 1), axis=(0, 1, 2))
    )
    assert np.max(np.abs(flipped - spec.data)) < 1e-12


@pytest.mark.parametrize("shape", [(4, 4, 4), (16, 8, 8), (32, 32, 16)])
def test_parseval(shape):
    seq = random_sequence(shape, seed=hash(shape) % 1000)
    spec = forward_fft3(seq)
    assert spec.energy() == pytest.approx(seq.energy(), rel=1e-12)


def test_linearity():
    s1 = random_sequence((8, 8, 8), seed=3)
    s2 = random_sequence((8, 8, 8), seed=4)
    combo = SequenceVolume(2.0 * s1.data - 0.5 * s2.data)
    lhs = forward_fft3(combo).data
    rhs = 2.0 * forward_fft3(s1).data - 0.5 * forward_fft3(s2).data
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


def test_fft_counter():
    reset_fft_count()
    assert fft_call_count() == 0
    seq = random_sequence((4, 4, 4))
    forward_fft3(seq)
    forward_fft3(seq)
    assert fft_call_count() == 2
    reset_fft_count()
    assert fft_call_count() == 0


# ---------------------------------------------------------------------------
# tuned filtering


def test_filter_factors_reject_translations():
    spec = forward_fft3(random_sequence((8, 8, 8)))
    for g in [GroupElement(bx=1.0), GroupElement(by=-2.0), GroupElement(tau=0.5)]:
        with pytest.raises(ValueError):
            tuned_filter_factors(spec, g, wide_params())
        with pytest.raises(ValueError):
            apply_tuned_filter(spec, g, wide_params())


def test_identity_filter_recovers_input():
    seq = random_sequence((8, 8, 8), seed=5)
    spec = forward_fft3(seq)
    out = apply_spectral_filter(spec, np.ones((8, 8, 8)))
    assert np.max(np.abs(out - seq.data)) < 1e-12


def test_zero_spectrum_inside_support_gives_zero_output():
    seq = random_sequence((16, 16, 8), seed=6)
    spec = forward_fft3(seq)
    params = wide_params()
    g = GroupElement()
    S, T = tuned_filter_factors(spec, g, params)
    response = S[:, :, None] * T
    silenced = SpectrumVolume(np.where(response != 0.0, 0.0, spec.data))
    coeffs = apply_tuned_filter(silenced, g, params)
    assert np.max(np.abs(coeffs.data)) == 0.0


def test_coefficients_match_direct_space_correlation():
    # Oracle: circular correlation with the discrete wavelet obtained by
    # inverse FFT of the sampled response.
    seq = random_sequence((8, 8, 8), seed=7)
    spec = forward_fft3(seq)
    params = wide_params()
    g = GroupElement()
    S, T = tuned_filter_factors(spec, g, params)
    response = S[:, :, None] * T
    coeffs = apply_tuned_filter(spec, g, params)

    wavelet = np.fft.ifftn(response, norm="ortho")
    n = 8 * 8 * 8
    direct = np.zeros((8, 8, 8), dtype=complex)
    for bx in range(8):
        for by in range(8):
            for bt in range(8):
                shifted = np.roll(wavelet, shift=(bx, by, bt), axis=(0, 1, 2))
                direct[bx, by, bt] = np.sum(seq.data * np.conj(shifted)) / math.sqrt(n)
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(coeffs.data - direct)) < 1e-10 * scale


def test_translation_covariance():
    seq = random_sequence((16, 16, 8), seed=8)
    params = wide_params()
    g = GroupElement(c=1.5)
    base = apply_tuned_filter(forward_fft3(seq), g, params).data
    shifted_seq = SequenceVolume(np.roll(seq.data, shift=(3, 0, 2), axis=(0, 1, 2)))
    shifted = apply_tuned_filter(forward_fft3(shifted_seq), g, params).data
    expected = np.roll(base, shift=(3, 0, 2), axis=(0, 1, 2))
    assert np.max(np.abs(shifted - expected)) < 1e-10 * np.max(np.abs(base))


def test_periodization_folds_high_speed_kernels():
    # At a_t = 3 a tuning of c = 5 puts the temporal center beyond Nyquist;
    # the folded response must keep the mass the unfolded formula would
    # place outside the principal band.
    seq = random_sequence((16, 16, 16), seed=9)
    spec = forward_fft3(seq)
    params = GcmParams()
    g = GroupElement(a_s=3.0, a_t=3.0, c=5.0)
    center = params.omega0 * 5.0 ** (2.0 / 3.0) / 3.0
    assert center > math.pi  # the premise of the test
    _, T = tuned_filter_factors(spec, g, params)
    assert T.max() > 0.3


# ---------------------------------------------------------------------------
# energies


def test_energy_density_validation():
    seq = random_sequence((8, 8, 4))
    coeffs = apply_tuned_filter(forward_fft3(seq), GroupElement(), wide_params())
    with pytest.raises(ValueError):
        energy_density(coeffs, [])
    with pytest.raises(ValueError):
        energy_density(coeffs, [4])
    assert energy_density(coeffs, range(4)) > 0.0


def test_zero_coefficients_zero_energy():
    coeffs = apply_tuned_filter(
        forward_fft3(SequenceVolume(np.zeros((8, 8, 4)))), GroupElement(), wide_params()
    )
    assert energy_density(coeffs, range(4)) == 0.0


def test_single_frame_energy_matches_brute_sum():
    seq = random_sequence((8, 8, 4), seed=10)
    coeffs = apply_tuned_filter(forward_fft3(seq), GroupElement(), wide_params())
    frame = 2
    brute = sum(
        abs(coeffs.data[x, y, frame]) ** 2 for x in range(8) for y in range(8)
    )
    assert energy_density(coeffs, [frame]) == pytest.approx(brute, rel=1e-12)


def test_parseval_shortcut_matches_inverse_path():
    seq = random_sequence((16, 16, 8), seed=11)
    spec = forward_fft3(seq)
    params = wide_params()
    for c in [0.7, 1.0, 2.4]:
        g = GroupElement(c=c)
        fast = tuned_energy(spec, g, params, method="parseval")
        slow = tuned_energy(spec, g, params, method="inverse")
        assert fast == pytest.approx(slow, rel=1e-10)
        assert tuned_energy(spec, g, params) == fast  # auto picks the shortcut


def test_parseval_shortcut_requires_full_frame_range():
    spec = forward_fft3(random_sequence((8, 8, 4)))
    with pytest.raises(ValueError):
        tuned_energy(spec, GroupElement(), wide_params(), frame_range=[0, 1], method="parseval")
    partial = tuned_energy(spec, GroupElement(), wide_params(), frame_range=[0, 1])
    full = tuned_energy(spec, GroupElement(), wide_params())
    assert 0.0 < partial < full


def test_spectrum_caches_its_power_and_is_frozen():
    spec = forward_fft3(random_sequence((16, 12, 8), seed=21))
    stored = spec.data[:, :, :5]  # the rfftn half: omega = 0 .. 4
    expected = stored.real**2 + stored.imag**2
    assert spec.power.tobytes() == expected.tobytes()
    assert spec.power is spec.power
    with pytest.raises(FrozenInstanceError):
        spec.data = np.zeros_like(spec.data)
    with pytest.raises(ValueError, match="read-only"):
        spec.data[0, 0, 0] = 0.0


def test_shared_power_leaves_energy_and_gain_unchanged():
    seq = random_sequence((16, 12, 8), seed=21)
    shared = forward_fft3(seq)
    for params, g in [(wide_params(), GroupElement(c=0.7)),
                      (GcmParams(), GroupElement(theta=0.5, a_s=1.5, a_t=2.0, c=2.4))]:
        alone = tuned_energy_detail(forward_fft3(seq), g, params)
        assert tuned_energy_detail(shared, g, params) == alone
        assert tuned_energy(shared, g, params) == alone[0]
        assert "power" in vars(shared)  # formed by the first tuning, reused by the second


def test_only_the_parseval_path_reads_the_shared_power():
    spec = forward_fft3(random_sequence((16, 12, 8), seed=22))
    g, params = GroupElement(c=1.3), wide_params()
    expected = {repr(kw): tuned_energy_detail(spec, g, params, **kw)
                for kw in ({"method": "inverse"}, {"frame_range": [0, 2, 5]})}
    assert "power" not in vars(spec)  # neither path formed the power
    vars(spec)["power"] = np.zeros(spec._stored.shape)  # read by any path, it would give energy 0
    assert tuned_energy(spec, g, params, method="parseval") == 0.0
    for kw in ({"method": "inverse"}, {"frame_range": [0, 2, 5]}):
        assert tuned_energy_detail(spec, g, params, **kw) == expected[repr(kw)]


def test_benchmark_kernels_negligible_at_spatial_nyquist():
    spec = forward_fft3(random_sequence((64, 64, 16), seed=12))
    params = GcmParams()
    for c in [1.0, 3.0, 6.0]:
        S, _ = tuned_filter_factors(spec, GroupElement(a_s=3.0, a_t=3.0, c=c), params)
        # The Nyquist row and column of the 64x64 spatial grid.
        shell = max(np.abs(S[32, :]).max(), np.abs(S[:, 32]).max())
        assert shell < 1e-6 * np.abs(S).max()


# ---------------------------------------------------------------------------
# cone-cropped spatial factors


def alias_terms(spec, g, params, reach=1.0):
    """(kx, ky) of each spatial alias term of tuning g over the whole grid,
    in summing order, as a column and a row; reach widens the alias range
    by that factor."""
    kx, ky = spec.kx(), spec.ky()
    k_period = 2 * np.pi / spec.pixel_pitch
    k_cut = stcwt._radial_cutoff(params) / (g.a_s * g.c**SPEED_EXPONENT_SPATIAL)
    terms = stcwt._alias_range(k_cut * reach, k_period)
    for jx in terms:
        for jy in terms:
            yield (kx + jx * k_period)[:, None], (ky + jy * k_period)[None, :]


def full_grid_factors(spec, g, params, reach=1.0):
    """tuned_filter_factors as a double loop of alias terms over the whole
    grid, with no axial cutoff: the reference the cone-cropped terms are
    checked against.  reach widens the spatial alias range."""
    w = spec.omega()
    w_period = 2 * np.pi / spec.frame_pitch
    t_cut = stcwt._temporal_cutoff(params) * g.c**SPEED_EXPONENT_TEMPORAL / g.a_t
    S = np.zeros((spec.nx, spec.ny))
    for kx, ky in alias_terms(spec, g, params, reach):
        S += tuned_spatial(g, params, kx, ky)
    S *= _prefactor(g)
    T = np.zeros(spec.nt)
    for jt in stcwt._alias_range(t_cut, w_period):
        T += tuned_temporal(g, params, -(w + jt * w_period))
    return S, T


# A point whose axial coordinate lies within this relative distance of the
# cutoff counts as cut: the sampler forms it by other roundings.
AXIAL_ROUNDING = 1e-9
EPS = np.finfo(float).eps


def mother_peak(params):
    """The mother GC profile's on-axis peak, at |k| = sqrt(l + m)."""
    ax, ay = params.cone.axis_unit
    radius = math.sqrt(params.l + params.m)
    return float(eval_gc_2d(radius * ax, radius * ay, params))


def assert_factors_match_full_grid(spec, g, params):
    """The factors of tuned_filter_factors against full_grid_factors.

    T matches byte for byte, and so does S at every bin none of whose alias
    addends lies at or past the axial cutoff, along the cone axis turned by
    theta.  Each such cut addend is at most e^-40 of the mother's on-axis
    peak.  At the other bins S differs by at most the sum of the cut
    addends times the prefactor, plus rounding.  The addends are
    non-negative, so a sum of n of them rounds by at most n EPS of itself,
    and 4 n EPS |S| covers the rounding of both sums, of the cut sum and
    of the products with the prefactor."""
    S, T = tuned_filter_factors(spec, g, params)
    want_S, want_T = full_grid_factors(spec, g, params)
    assert T.tobytes() == want_T.tobytes(), (spec.shape, g, params)
    u_cut = (stcwt._radial_cutoff(params) / (g.a_s * g.c**SPEED_EXPONENT_SPATIAL)
             * (1 - AXIAL_ROUNDING))
    angle = g.theta + params.cone.theta_axis
    bound = math.exp(-40) * mother_peak(params)
    cut, terms = np.zeros(S.shape), 0
    for kx, ky in alias_terms(spec, g, params):
        past = np.broadcast_to(kx * math.cos(angle) + ky * math.sin(angle) >= u_cut, S.shape)
        values = tuned_spatial(g, params, *(np.broadcast_to(k, S.shape)[past] for k in (kx, ky)))
        assert np.all(values <= bound), (spec.shape, g, params, values.max() / bound)
        cut[past] += values
        terms += 1
    whole = cut == 0.0
    assert S[whole].tobytes() == want_S[whole].tobytes(), (spec.shape, g, params)
    allowance = cut * _prefactor(g) + 4 * terms * EPS * np.abs(want_S)
    assert np.all(np.abs(S - want_S) <= allowance), (spec.shape, g, params)


def test_cropped_factors_match_the_full_grid_on_random_tunings():
    rng = np.random.default_rng(15)
    for _ in range(300):
        shape = tuple(int(n) for n in rng.integers(2, 70, 3))
        alpha = float(rng.uniform(math.pi / 256, math.pi / 2 - 1e-3))
        params = GcmParams(l=int(rng.integers(1, 12)), m=int(rng.integers(1, 12)),
                           sigma=float(rng.uniform(0.3, 3.0)),
                           cone=ConeSpec(alpha=alpha, theta_axis=float(rng.uniform(-3, 3))))
        g = GroupElement(theta=float(rng.uniform(-4, 4)), a_s=float(rng.uniform(0.3, 4)),
                         a_t=float(rng.uniform(0.5, 3)), c=float(rng.uniform(0.5, 6)))
        spec = SpectrumVolume(np.zeros(shape, dtype=complex), float(rng.uniform(0.3, 3.0)))
        assert_factors_match_full_grid(spec, g, params)


@pytest.mark.parametrize("theta_axis", [0.0, 0.3])
@pytest.mark.parametrize("alpha", [math.pi / 256, math.pi / 16, math.pi / 4, 1.5])
def test_cropped_factors_match_the_full_grid_at_degenerate_angles(alpha, theta_axis):
    # Cone axes on the grid axes and diagonals, and cone edges parallel to
    # a grid axis, where bins lie on the edge up to rounding.
    axes = [k * math.pi / 4 - theta_axis for k in range(-4, 5)]
    edges = [k * math.pi / 2 - theta_axis + side * alpha for k in range(-2, 3) for side in (-1, 1)]
    for i, theta in enumerate(axes + edges):
        shape = ((2, 3, 2), (17, 64, 5), (53, 71, 4), (64, 64, 3))[i % 4]
        params = GcmParams(l=1 + i % 2, m=2 + i % 3, sigma=0.7,
                           cone=ConeSpec(alpha=alpha, theta_axis=theta_axis))
        for a_s, c in ((0.5, 1.0), (3.0, 6.0)):
            g = GroupElement(theta=theta, a_s=a_s, a_t=2.0, c=c)
            for pitch in (0.5, 1.7):
                spec = SpectrumVolume(np.zeros(shape, dtype=complex), pitch)
                assert_factors_match_full_grid(spec, g, params)


@pytest.mark.xfail(strict=True, reason=(
    "spatial_terms picks the alias terms by the radius R_c / s, but short of the axial "
    "cutoff R_c / s the cone reaches |k| = R_c / (s cos alpha), 14 times further at "
    "alpha = 1.5; at 64x64 the terms left out carry 3-70% of max S over the default "
    "speeds, 14% and 63% at the two here"))
def test_wide_cones_sum_every_alias_term_short_of_the_axial_cutoff():
    spec = SpectrumVolume(np.zeros((64, 64, 16), dtype=complex))
    params = GcmParams(cone=ConeSpec(alpha=1.5))
    for c in (1.0, 3.5):
        g = GroupElement(theta=0.3, a_s=3.0, a_t=3.0, c=c)
        S, _ = tuned_filter_factors(spec, g, params)
        want, _ = full_grid_factors(spec, g, params, reach=1 / math.cos(params.cone.alpha))
        assert np.abs(S - want).max() <= 1e-12 * np.abs(want).max()


def test_stv_input_gets_a_c_ordered_power(tmp_path):
    path = tmp_path / "scene.stv"
    write_stv(path, random_sequence((13, 10, 6), seed=23), dtype="float64")
    seq = read_stv(path)
    assert seq.data.flags.f_contiguous and not seq.data.flags.c_contiguous
    spec = forward_fft3(seq)
    assert spec.power.shape == (13, 10, 4) and spec.power.flags.c_contiguous
    assert np.shares_memory(spec.power, spec.power.reshape(spec.nx * spec.ny, 4))


def test_scan_reads_the_same_energies_off_c_and_fortran_ordered_input():
    data = generate(GaussianSceneSpec(nx=40, ny=36, nt=12, sigma_x=1.0, sigma_y=6.0,
                                      v_r=2.5, motion_angle=0.4, pattern_angle=0.4)).data
    curves = [scan_speeds(SequenceVolume(layout(data)), ScanConfig(theta=0.4))
              for layout in (np.ascontiguousarray, np.asfortranarray)]
    assert curves[0].energies.tobytes() == curves[1].energies.tobytes()
    assert curves[0].v_m == curves[1].v_m


# ---------------------------------------------------------------------------
# half spectrum of a real sequence


@pytest.mark.parametrize("refine", ["none", "golden-section"])
def test_a_scan_never_forms_the_full_spectrum(monkeypatch, refine):
    spectra = []

    def capture(seq):
        spectra.append(forward_fft3(seq))
        return spectra[-1]

    monkeypatch.setattr(speedscan, "forward_fft3", capture)
    scan_speeds(random_sequence((12, 10, 7), seed=24), ScanConfig(refine=refine))
    (spec,) = spectra
    assert spec._stored.shape == (12, 10, 4)
    assert "power" in vars(spec) and "data" not in vars(spec)
    assert spec.power.shape == (12, 10, 4)  # the power of the half alone


# What a scan may allocate beyond the half spectrum and its power: the
# slabs that form the power, the gathered rows of the small supports
# (about 0.13 MB here), the grid's reflection, the cone points and the
# filter factors.
SCAN_MARGIN_BYTES = 1 << 20


def test_a_scan_peaks_at_the_half_spectrum_and_its_power():
    # A full-size power, or a transform that allocates per axis, would
    # raise the peak by at least one more half spectrum (2.5 MB here).
    seq = random_sequence((96, 96, 32), seed=26)
    half = 96 * 96 * 17 * np.dtype(complex).itemsize
    power = half // 2
    gc.collect()
    tracemalloc.start()
    try:
        scan_speeds(seq, ScanConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < half + power + SCAN_MARGIN_BYTES


@pytest.mark.parametrize("nt", [2, 3, 8, 9])
def test_forward_fft3_keeps_only_the_rfftn_half(nt):
    seq = random_sequence((6, 5, nt), seed=25)
    spec = forward_fft3(seq)
    assert spec._stored.tobytes() == np.fft.rfftn(seq.data, norm="ortho").tobytes()
    assert (spec.nx, spec.ny, spec.nt) == (6, 5, nt)
    # The kept bins are the half's own values, not mirrored ones.
    assert spec.data[:, :, :nt // 2 + 1].tobytes() == spec._stored.tobytes()


# ---------------------------------------------------------------------------
# the forward passes and the power pass, on two threads for large volumes,
# with the same bytes


def serial_power_and_energy(half, nt):
    """The power of an rfftn half and its energy, summed slab after slab
    in one loop as a single thread forms them."""
    nx, ny, nh = half.shape
    power = np.square(half.real) + np.square(half.imag)
    rows = max(1, stcwt._SLAB_BINS // (ny * nh))
    energy = 0.0
    for i in range(0, nx, rows):
        slab = power[i:i + rows]
        energy += float(slab.sum()) + float(slab[:, :, 1:1 + nt - nh].sum())
    return power, energy


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape, pitches", [
    ((71, 53, 13), (1.0, 1.0)),  # below the gate: one thread
    ((128, 128, 64), (1.0, 1.0)),
    ((131, 127, 65), (0.5, 2.0)),
    ((2, 1024, 512), (1.0, 1.0)),
])
def test_forward_passes_keep_the_bytes_of_numpy_and_the_serial_power(shape, pitches, order):
    rng = np.random.default_rng(31)
    data = np.asarray(rng.standard_normal(shape), order=order)
    spec = forward_fft3(SequenceVolume(data, *pitches))
    assert (spec.pixel_pitch, spec.frame_pitch) == pitches
    half = np.fft.rfftn(data, norm="ortho")
    assert spec._stored.tobytes() == half.tobytes()
    power, energy = serial_power_and_energy(half, shape[2])
    assert spec.power.tobytes() == power.tobytes()
    assert spec.energy() == energy


@pytest.mark.parametrize("frame_range", [None, range(8, 24)])
def test_large_scans_read_the_energies_of_the_serial_path(monkeypatch, frame_range):
    seq = generate(GaussianSceneSpec(nx=128, ny=128, nt=64, sigma_x=1.0, sigma_y=6.0,
                                     v_r=2.5, motion_angle=0.0, pattern_angle=0.0))
    config = ScanConfig(c_step=1.0, frame_range=frame_range)
    split = scan_speeds(seq, config)
    monkeypatch.setattr(stcwt, "_SPLIT_SAMPLES", math.inf)
    serial = scan_speeds(seq, config)
    assert split.energies.tobytes() == serial.energies.tobytes()
    assert split.v_m == serial.v_m


def test_a_small_volume_starts_no_thread(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(stcwt.threading, "Thread", refuse)
    before = threading.active_count()
    seq = random_sequence((64, 64, 16), seed=32)
    forward_fft3(seq).energy()
    scan_speeds(seq, ScanConfig(frame_range=range(4)))
    assert threading.active_count() == before


@pytest.mark.parametrize("x", [0, -1])  # in the caller's half and in the thread's
def test_a_non_finite_sample_in_either_half_is_refused_and_not_counted(x):
    seq = random_sequence((128, 128, 64), seed=33)
    seq.data[x, 70, 9] = np.nan
    before = threading.active_count()
    reset_fft_count()
    with pytest.raises(ValueError, match="non-finite"):
        forward_fft3(seq)
    assert fft_call_count() == 0
    assert threading.active_count() == before
