"""Speed-tuned directional conical wavelets for motion analysis.

The toolkit builds highly orientation-selective spatio-temporal filters
(conical spatial support times a temporal Morlet envelope), applies them to
image sequences through an FFT filter bank, and locates pattern speed and
orientation as the argmax of tuned-filter energy curves.
"""

from .frames import Discretization, FrameBoundReport, estimate_bounds, lambda_fn
from .kernels import (
    ConeSpec,
    GcmParams,
    GroupElement,
    MorletParams,
    apply_group,
    arp_conical,
    arp_morlet,
    central_wavevector,
    eval_cauchy_2d,
    eval_centered_gcm,
    eval_gc_2d,
    eval_gcm,
    eval_morlet_2d,
)
from .speedscan import EnergyCurve, ScanConfig, aperture_sweep, scan_orientations, scan_speeds
from .stcwt import (
    SequenceVolume,
    SpectrumVolume,
    apply_tuned_filter,
    energy_density,
    forward_fft3,
    inverse_fft3,
    tuned_energy,
)
from .stvio import read_stv, write_stv
from .synth import GaussianSceneSpec, add_noise, generate

__version__ = "0.1.0"

__all__ = [
    "ConeSpec",
    "Discretization",
    "EnergyCurve",
    "FrameBoundReport",
    "GaussianSceneSpec",
    "GcmParams",
    "GroupElement",
    "MorletParams",
    "ScanConfig",
    "SequenceVolume",
    "SpectrumVolume",
    "add_noise",
    "aperture_sweep",
    "apply_group",
    "apply_tuned_filter",
    "arp_conical",
    "arp_morlet",
    "central_wavevector",
    "energy_density",
    "estimate_bounds",
    "eval_cauchy_2d",
    "eval_centered_gcm",
    "eval_gc_2d",
    "eval_gcm",
    "eval_morlet_2d",
    "forward_fft3",
    "generate",
    "inverse_fft3",
    "lambda_fn",
    "read_stv",
    "scan_orientations",
    "scan_speeds",
    "tuned_energy",
    "write_stv",
]
