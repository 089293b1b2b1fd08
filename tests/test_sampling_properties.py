"""Property tests of the cone-point sampler: every tuning samples its spatial
factor only at the grid points of its rotated cone short of the axial
cutoff, with the geometry a scan shares across its tunings, and must give
the bytes of a sampling over the whole grid wherever it cuts no alias
addend, and differ by at most the cut addends elsewhere, on odd and
non-square grids, non-unit pitches, any aperture and cone edges on the
grid axes and diagonals."""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from test_stcwt import assert_factors_match_full_grid

from conewave import speedscan
from conewave.kernels import ConeSpec, GcmParams, GroupElement
from conewave.speedscan import ScanConfig, scan_orientations, scan_speeds
from conewave.stcwt import (
    SequenceVolume,
    SpectrumVolume,
    forward_fft3,
    tuned_energy_detail,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)
# derandomize seeds a test from a digest of its body.  This is the seed the
# byte test's body gave before the axial cutoff restated its check, so that
# it keeps the draws it had.
BYTES_TEST_SEED = int("339979776621929087993084205952631886560308966070695397113653142653411"
                      "28814136257827674166861410819096311287755554040")
ALPHA_MIN, ALPHA_MAX = math.pi / 256, math.pi / 2 - 1e-3
pitches = st.floats(0.3, 3.0)
# Multiples of pi/8 can put both cone edges on grid axes or diagonals.
alphas = st.one_of(st.sampled_from([ALPHA_MIN, math.pi / 16, math.pi / 8, math.pi / 4,
                                    3 * math.pi / 8, ALPHA_MAX]),
                   st.floats(ALPHA_MIN, ALPHA_MAX))


@st.composite
def grids(draw):
    """(nx, ny, nt), odd or even and mostly non-square; a square grid puts
    bins on both diagonals."""
    nx = draw(st.integers(2, 40))
    return nx, draw(st.one_of(st.just(nx), st.integers(2, 40))), draw(st.integers(2, 9))


@st.composite
def orientations(draw, alpha, theta_axis):
    """A tuning angle: anywhere, or with the cone axis or one of its edges on
    a multiple of pi/8, so on a grid axis or diagonal, where bins lie on the
    edge up to rounding."""
    k = draw(st.integers(-16, 16)) * math.pi / 8 - theta_axis
    return draw(st.one_of(st.floats(-4.0, 4.0), st.just(k), st.just(k + alpha),
                          st.just(k - alpha)))


@st.composite
def kernels(draw, theta_axis=None):
    """(params, tuning) over every edge order, width and scale."""
    alpha = draw(alphas)
    if theta_axis is None:
        theta_axis = draw(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)))
    params = GcmParams(l=draw(st.integers(1, 11)), m=draw(st.integers(1, 11)),
                       sigma=draw(st.floats(0.3, 3.0)),
                       cone=ConeSpec(alpha=alpha, theta_axis=theta_axis))
    g = GroupElement(theta=draw(orientations(alpha, theta_axis)),
                     a_s=draw(st.floats(0.3, 4.0)), a_t=draw(st.floats(0.5, 3.0)),
                     c=draw(st.floats(0.5, 6.0)))
    return params, g


@SETTINGS
@given(grids(), pitches, pitches, kernels())
# Both edges on grid axes, where rounding puts a row of bins with nonzero
# values just inside the kernel's cone and just outside an exact edge test.
@example((53, 71, 4), 0.5, 1.0,
         (GcmParams(l=1, m=2, sigma=0.7, cone=ConeSpec(alpha=math.pi / 4)),
          GroupElement(theta=math.pi + math.pi / 4, a_s=3.0, a_t=2.0, c=6.0)))
# 41 x 41 alias terms on 6 bins, 80-84 non-zero values on each, none of
# them cut on 3 bins: the bytes of those hold only if each bin adds its
# values in the full grid's term order.
@example((2, 3, 4), 3.0, 1.0, (GcmParams(), GroupElement(a_s=0.3)))
@seed(BYTES_TEST_SEED)
def test_cone_points_give_the_bytes_of_the_full_grid(shape, pixel_pitch, frame_pitch, kernel):
    params, g = kernel
    assert_factors_match_full_grid(
        SpectrumVolume(np.zeros(shape, dtype=complex), pixel_pitch, frame_pitch), g, params)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(grids(), pitches, st.integers(0, 2**32 - 1), kernels(theta_axis=0.0),
       st.sampled_from(["none", "golden-section"]))
def test_scan_energies_and_gains_equal_lone_tunings(shape, pitch, seed, kernel, refine):
    # Every tuning of a scan, refinement included, reads the geometry the
    # scan's spectrum holds, and a sweep's next angle replaces it; a lone
    # tuning on a fresh spectrum forms its own.
    params, g = kernel
    seq = SequenceVolume(np.random.default_rng(seed).standard_normal(shape), pitch, 1.0)
    config = ScanConfig(c_min=1.0, c_max=3.0, c_step=0.5, theta=g.theta, a_s=g.a_s,
                        a_t=g.a_t, alpha=params.cone.alpha, l=params.l, m=params.m,
                        sigma=params.sigma, refine=refine)
    calls = []

    def recorded(fn):
        def call(spec, g, params, frame_range=None):
            out = fn(spec, g, params, frame_range=frame_range)
            calls.append((g, out))
            return out
        return call

    with mock.patch.object(speedscan, "tuned_energy_detail",
                           recorded(speedscan.tuned_energy_detail)), \
            mock.patch.object(speedscan, "tuned_energy", recorded(speedscan.tuned_energy)):
        curve = scan_speeds(seq, config)
        n = len(calls)
        scan_orientations(seq, config, [g.theta + 1.0, g.theta])
    grid = len(curve.c_values)
    assert curve.energies.tolist() == [energy for _, (energy, _) in calls[:grid]]
    assert grid < n or refine == "none" or curve.no_motion
    for tuning, out in calls:
        alone = tuned_energy_detail(forward_fft3(seq), tuning, config.params())
        assert out == (alone if isinstance(out, tuple) else alone[0])  # refinement: energy only
