"""Property tests of the half-spectrum engine: the spectrum of a real
sequence holds only its rfftn half and mirrors the rest, and a tuning's
energy read off the half equals the contraction of the full power, on odd
and even sizes, non-unit pitches and C- or Fortran-ordered input."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conewave.kernels import ConeSpec, GcmParams, GroupElement
from conewave.speedscan import ScanConfig, scan_orientations, scan_speeds
from conewave.stcwt import (
    SequenceVolume,
    SpectrumVolume,
    fft_call_count,
    forward_fft3,
    tuned_energy_detail,
    tuned_filter_factors,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)
pitches = st.floats(0.3, 3.0)


@st.composite
def sequences(draw):
    """A real sequence of odd or even, often non-square sizes (nt from 2),
    at random pitches, stored C- or Fortran-ordered."""
    shape = (draw(st.integers(2, 13)), draw(st.integers(2, 13)),
             draw(st.one_of(st.sampled_from([2, 3]), st.integers(2, 12))))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(shape)
    layout = draw(st.sampled_from([np.ascontiguousarray, np.asfortranarray]))
    return SequenceVolume(layout(data), draw(pitches), draw(pitches))


def reference(seq):
    return np.fft.fftn(seq.data, norm="ortho")


@SETTINGS
@given(sequences())
def test_power_is_the_squared_modulus_of_the_full_fft(seq):
    # The power holds the stored bins, omega = 0 .. nt // 2: bit for bit
    # |rfftn|^2, and the full |fftn|^2 there up to round-off.
    nh = seq.nt // 2 + 1
    want = np.abs(reference(seq)[:, :, :nh]) ** 2
    half = np.fft.rfftn(seq.data, norm="ortho")
    power = forward_fft3(seq).power
    assert power.shape == (seq.nx, seq.ny, nh) and power.flags.c_contiguous
    assert power.tobytes() == (half.real**2 + half.imag**2).tobytes()
    assert np.max(np.abs(power - want)) <= 1e-14 * np.max(want)


@SETTINGS
@given(sequences())
def test_lazy_data_is_the_full_fft_and_read_only(seq):
    spec = forward_fft3(seq)
    assert "data" not in vars(spec)
    want = reference(seq)
    assert spec.data.shape == want.shape
    assert np.max(np.abs(spec.data - want)) <= 1e-14 * np.max(np.abs(want))
    assert spec.data is spec.data  # formed once
    assert not spec.data.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        spec.data[0, 0, 0] = 0.0


@SETTINGS
@given(sequences())
def test_power_and_data_agree_bit_for_bit(seq):
    # The power is of the stored bins, and data keeps those bins' own values.
    spec = forward_fft3(seq)
    stored = spec.data[:, :, :seq.nt // 2 + 1]
    assert spec.power.tobytes() == (stored.real**2 + stored.imag**2).tobytes()


@SETTINGS
@given(sequences())
def test_energy_counts_the_zero_and_nyquist_planes_once(seq):
    assert forward_fft3(seq).energy() == pytest.approx(seq.energy(), rel=1e-12)


@SETTINGS
@given(sequences())
def test_c_and_fortran_ordered_input_give_the_same_power(seq):
    c_order, f_order = (forward_fft3(SequenceVolume(layout(seq.data), seq.pixel_pitch,
                                                    seq.frame_pitch)).power
                        for layout in (np.ascontiguousarray, np.asfortranarray))
    assert c_order.tobytes() == f_order.tobytes()


@SETTINGS
@given(sequences(), st.floats(-math.pi, math.pi), st.floats(0.5, 2.5), st.floats(0.5, 2.0))
def test_parseval_energy_equals_the_inverse_path(seq, theta, c, a_s):
    params = GcmParams(l=2, m=2, sigma=1.0, cone=ConeSpec(alpha=math.pi / 3))
    g = GroupElement(theta=theta, a_s=a_s, a_t=1.0, c=c)
    spec = forward_fft3(seq)
    fast, gain = tuned_energy_detail(spec, g, params, method="parseval")
    slow, _ = tuned_energy_detail(spec, g, params, method="inverse")
    # Round-off is relative to the largest energy the tuning can reach.
    assert abs(fast - slow) <= 1e-12 * max(slow, gain * spec.energy())


@st.composite
def spectra(draw):
    """(spectrum, its full-size power): the half spectrum of a real sequence,
    or a hand-built complex spectrum, Hermitian or not, that stores every bin."""
    if draw(st.booleans()):
        seq = draw(sequences())
        return forward_fft3(seq), np.abs(reference(seq)) ** 2
    shape = (draw(st.integers(2, 9)), draw(st.integers(2, 9)), draw(st.integers(2, 9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SpectrumVolume(data, draw(pitches), draw(pitches)), np.abs(data) ** 2


@SETTINGS
@given(spectra(), st.floats(-math.pi, math.pi), st.floats(0.5, 2.5), st.floats(0.5, 2.0))
def test_half_spectrum_energy_equals_the_full_power_contraction(spectrum, theta, c, a_s):
    spec, full_power = spectrum
    params = GcmParams(l=2, m=2, sigma=1.0, cone=ConeSpec(alpha=math.pi / 3))
    g = GroupElement(theta=theta, a_s=a_s, a_t=1.0, c=c)
    energy, gain = tuned_energy_detail(spec, g, params, method="parseval")
    # The oracle contracts the full |fftn|^2 over all nt bins, with no mirror.
    S, T = tuned_filter_factors(spec, g, params)
    nx, ny, nt = full_power.shape
    want = float((full_power.reshape(nx * ny, nt) @ T**2) @ (S**2).ravel())
    assert abs(energy - want) <= 1e-14 * max(want, gain * float(full_power.sum()))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(sequences())
def test_one_forward_transform_per_scan_or_sweep(seq):
    before = fft_call_count()
    scan_speeds(seq, ScanConfig(c_step=1.0))
    assert fft_call_count() == before + 1
    scan_orientations(seq, ScanConfig(c_step=1.0), [0.0, 0.5, 1.0])
    assert fft_call_count() == before + 2


@SETTINGS
@given(st.integers(2, 9), st.integers(2, 9), st.integers(2, 9), st.integers(0, 2**32 - 1),
       pitches, pitches)
def test_a_hand_built_spectrum_keeps_its_data_and_squared_modulus(nx, ny, nt, seed,
                                                                  pixel_pitch, frame_pitch):
    # Any complex array, Hermitian or not, is held as it is.
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((nx, ny, nt)) + 1j * rng.standard_normal((nx, ny, nt))
    spec = SpectrumVolume(data, pixel_pitch, frame_pitch)
    assert spec.data.tobytes() == data.tobytes()
    assert spec.power.tobytes() == (data.real**2 + data.imag**2).tobytes()
    assert spec.energy() == float(np.sum(spec.power))
    assert (spec.nx, spec.ny, spec.nt) == (nx, ny, nt)
