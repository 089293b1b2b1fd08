"""Speed scans on travelling-Gaussian benchmarks."""

import math

import numpy as np
import pytest

from conewave.speedscan import (
    EnergyCurve,
    ScanConfig,
    aperture_sweep,
    golden_section_maximize,
    scan_orientations,
    scan_speeds,
)
from conewave.kernels import GcmParams, GroupElement
from conewave.stcwt import SequenceVolume, forward_fft3, tuned_energy
from conewave.synth import GaussianSceneSpec, generate


def benchmark_scene(v_r=3.0, **overrides):
    base = dict(nx=64, ny=64, nt=16, sigma_x=1.0, sigma_y=8.0, v_r=v_r)
    base.update(overrides)
    return generate(GaussianSceneSpec(**base))


# ---------------------------------------------------------------------------
# configuration and helpers


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "field", ["c_min", "c_max", "c_step", "theta", "a_s", "a_t", "alpha", "refine_tol"]
)
def test_scan_config_rejects_non_finite_values(field, bad):
    with pytest.raises(ValueError, match=field):
        ScanConfig(**{field: bad})


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(c_min=0.0)
    with pytest.raises(ValueError):
        ScanConfig(c_min=3.0, c_max=1.0)
    with pytest.raises(ValueError):
        ScanConfig(c_step=-0.5)
    with pytest.raises(ValueError):
        ScanConfig(c_min=1.0, c_max=6.0, c_step=5.0)  # fewer than 3 samples
    with pytest.raises(ValueError):
        ScanConfig(refine="newton")


def test_speed_grid_includes_endpoints():
    grid = ScanConfig().speed_grid()
    assert len(grid) == 21
    assert grid[0] == 1.0 and grid[-1] == 6.0


def test_golden_section_maximize_parabola():
    x, fx = golden_section_maximize(lambda x: -((x - 2.3) ** 2), 1.0, 5.0, tol=1e-6)
    assert x == pytest.approx(2.3, abs=1e-4)
    assert fx <= 0.0


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_golden_section_rejects_non_positive_tol(tol):
    # A tolerance that |b - a| can never drop below would loop forever; NaN
    # would end the search after four evaluations.
    def never(x):
        raise AssertionError("evaluated before the tolerance was checked")

    with pytest.raises(ValueError):
        golden_section_maximize(never, 1.0, 2.0, tol)
    with pytest.raises(ValueError):
        ScanConfig(refine="golden-section", refine_tol=tol)


def test_golden_section_never_below_endpoints():
    # Monotone function: the best point must be the better endpoint.
    x, fx = golden_section_maximize(lambda x: x, 0.0, 1.0, tol=1e-3)
    assert x == 1.0 and fx == 1.0


# ---------------------------------------------------------------------------
# speed capture


def test_benchmark_speed_capture():
    curve = scan_speeds(benchmark_scene(3.0), ScanConfig())
    assert not curve.no_motion
    assert curve.v_m == pytest.approx(3.0, abs=0.25)
    assert curve.peak_energy > 0


def test_benchmark_speed_capture_refined():
    curve = scan_speeds(benchmark_scene(3.0), ScanConfig(refine="golden-section"))
    assert curve.v_m == pytest.approx(3.0, abs=0.05)


def test_refinement_consistency():
    grid = scan_speeds(benchmark_scene(3.5), ScanConfig())
    refined = scan_speeds(benchmark_scene(3.5), ScanConfig(refine="golden-section"))
    assert abs(refined.v_m - grid.v_m) <= ScanConfig().c_step
    assert refined.peak_energy >= grid.peak_energy


def test_constant_sequence_flags_no_motion():
    # A constant sequence has only a DC bin, which every conical kernel
    # nulls; residual energies are FFT round-off dust below the noise
    # floor, so the curve is flagged as carrying no detectable motion.
    seq = SequenceVolume(np.full((32, 32, 8), 3.0))
    curve = scan_speeds(seq, ScanConfig())
    assert curve.no_motion


def test_zero_sequence_flags_no_motion():
    curve = scan_speeds(SequenceVolume(np.zeros((16, 16, 8))), ScanConfig())
    assert curve.no_motion
    assert np.all(curve.energies == 0.0)


def test_static_gaussian_rides_the_stroboscopic_fold():
    # A static pattern is NOT reported as flat with the default benchmark
    # parameters: tunings near c_max fold across the temporal Nyquist and
    # respond to the omega = 0 plane, so the curve rises toward c_max.
    # This is the honest behavior of the periodized filter bank.
    curve = scan_speeds(benchmark_scene(0.0), ScanConfig())
    assert not curve.no_motion
    assert curve.v_m == curve.c_values[-1]
    assert curve.energies[-1] > 1e6 * curve.energies[0]


def test_perpendicular_orientation_loses_energy():
    scene = benchmark_scene(3.0)
    aligned = scan_speeds(scene, ScanConfig(theta=0.0))
    perpendicular = scan_speeds(scene, ScanConfig(theta=math.pi / 2))
    assert aligned.peak_energy > 10.0 * perpendicular.peak_energy


def test_argmax_scale_invariance():
    scene = benchmark_scene(3.0)
    curve = scan_speeds(scene, ScanConfig())
    scaled = scan_speeds(SequenceVolume(7.0 * scene.data), ScanConfig())
    assert scaled.v_m == curve.v_m
    assert np.allclose(scaled.energies, 49.0 * curve.energies, rtol=1e-12)


@pytest.mark.parametrize("frames", [(0, 1, 2, 3, 4, 5, 6, 99), (-1, 0, 1, 2, 3, 4, 5, 6)])
def test_out_of_range_frames_are_rejected_not_read_as_all(frames):
    # As many indices as frames, but not the frames: no silent full-range scan.
    scene = benchmark_scene(3.0, nt=8)
    with pytest.raises(ValueError):
        tuned_energy(forward_fft3(scene), GroupElement(c=3.0), GcmParams(), frame_range=frames)
    with pytest.raises(ValueError):
        scan_speeds(scene, ScanConfig(frame_range=frames))


def test_frame_range_subset_scan():
    scene = benchmark_scene(3.0)
    full = scan_speeds(scene, ScanConfig())
    subset = scan_speeds(scene, ScanConfig(frame_range=tuple(range(4, 12))))
    assert subset.v_m == pytest.approx(3.0, abs=0.5)
    assert np.all(subset.energies <= full.energies + 1e-30)


def test_energy_curve_samples_property():
    curve = EnergyCurve(np.array([1.0, 2.0]), np.array([0.5, 1.5]), 2.0, 1.5)
    assert curve.samples == [(1.0, 0.5), (2.0, 1.5)]


# ---------------------------------------------------------------------------
# orientation scans


def test_orientation_scan_captures_at_zero():
    rows = scan_orientations(
        benchmark_scene(3.0), ScanConfig(), [-math.pi / 4, 0.0, math.pi / 4]
    )
    thetas = [r[0] for r in rows]
    assert thetas == [-math.pi / 4, 0.0, math.pi / 4]
    by_theta = {r[0]: r for r in rows}
    assert by_theta[0.0][1] == pytest.approx(3.0, abs=0.25)
    assert by_theta[0.0][2] == max(r[2] for r in rows)


def test_orientation_rows_match_single_scans():
    scene = benchmark_scene(3.0, motion_angle=0.4)
    thetas = [0.0, 0.4, -math.pi / 8]
    for theta, v_m, peak in scan_orientations(scene, ScanConfig(), thetas):
        curve = scan_speeds(scene, ScanConfig(theta=theta))
        assert (v_m, peak) == (curve.v_m, curve.peak_energy)


def test_monotone_selectivity():
    thetas = [k * math.pi / 16 for k in range(-3, 4)]
    rows = scan_orientations(benchmark_scene(3.0), ScanConfig(), thetas)
    peak_at_zero = next(r[2] for r in rows if r[0] == 0.0)
    for theta, _, peak in rows:
        if theta != 0.0:
            assert peak_at_zero >= peak


def test_mirror_symmetry_maps_theta_to_minus_theta():
    scene = benchmark_scene(3.0, motion_angle=math.pi / 6, pattern_angle=math.pi / 6)
    mirrored = SequenceVolume(np.flip(scene.data, axis=1).copy())
    thetas = [-math.pi / 3, -math.pi / 6, 0.0, math.pi / 6, math.pi / 3]
    rows = scan_orientations(scene, ScanConfig(), thetas)
    mirror_rows = scan_orientations(mirrored, ScanConfig(), [-t for t in thetas])
    for (t, _, e), (mt, _, me) in zip(rows, mirror_rows):
        assert mt == -t
        assert me == pytest.approx(e, rel=1e-8)


# ---------------------------------------------------------------------------
# aperture sweeps


def test_aperture_sweep_captures_at_every_aperture():
    rows = aperture_sweep(
        benchmark_scene(4.0),
        ScanConfig(),
        [math.pi / 8, math.pi / 16, math.pi / 64, math.pi / 256],
    )
    for alpha, v_m, peak in rows:
        assert v_m == pytest.approx(4.0, abs=0.25), f"alpha={alpha}"
        assert peak > 0


def test_narrow_aperture_misalignment_kills_energy():
    scene = benchmark_scene(4.0)
    aligned = aperture_sweep(scene, ScanConfig(theta=0.0), [math.pi / 256])
    misaligned = aperture_sweep(scene, ScanConfig(theta=math.pi / 8), [math.pi / 256])
    assert aligned[0][2] > 10.0 * misaligned[0][2]


def test_single_aperture_sweep_matches_scan_speeds():
    scene = benchmark_scene(3.0)
    rows = aperture_sweep(scene, ScanConfig(), [math.pi / 16])
    curve = scan_speeds(scene, ScanConfig())
    assert rows[0][1] == curve.v_m
    assert rows[0][2] == curve.peak_energy
