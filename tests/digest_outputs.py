"""Print two SHA-256 digests over fixed, seeded conewave outputs: one over
their bytes, and one over the decisions taken from them.

A change that must keep every output bit-identical runs this script on the
parent commit and on the change, and compares the first digests; a change
that may move energies in their last bits compares the second ones:

    python tests/digest_outputs.py

It imports conewave from the src/ directory next to this tests/ directory,
so a copy of the script placed in another checkout digests that checkout.
The digest covers the bytes of every file the CLI writes, its exit codes
and stdout for `synth`, `scan`, `scan --refine`, `orient-scan`,
`aperture-sweep`, `kernel` (gc2d, gcm, centered-gcm, cauchy2d with a
rotated cone and an off-axis decay vector, morlet2d with the correction),
`compare-aperture`, `frame-bounds --q1 8` and `--q1 16` and the stub
tight frame, and `synth`, `scan` and `kernel` (gcm, morlet2d) with every
flag at its default, plus the energies, v_m, peak and no-motion flag of
library `scan_speeds` calls at 256x256x64, over a partial frame range and on
C- and Fortran-ordered copies of one scene, the rows of library
`scan_orientations` and `aperture_sweep` with golden-section refinement on
a 37x29x11 scene at pixel pitch 0.7, the spatial and temporal
factors of `tuned_filter_factors` over awkward tunings, the
library frame-bound reports and lambda sums for a GCM and for a generic
callable kernel, and the kernel evaluators on a point set holding signed
zeros, infinities, NaN, 1e300 and python floats.

The decision digest covers, of the same runs, every exit code; each scan's
v_m, no-motion flag, grid peak index and unbracketed verdict; the v_m of
every orient-scan and aperture-sweep row, library sweep row included, and
orient-scan's best angle by the peak_energy column; and every frame-bound report with its
conditioning verdict.  The verdicts are derived from the outputs (a grid
peak on an end of a curve with motion; lambda_minus within lambda_tail or
B/A above 1e12), so the digest reads the same on a version that does not
report them; where a version does report one, the script checks that it
agrees and fails otherwise.

The digest of each part goes to stderr, so that a mismatch can be traced
to its part.  Pytest does not collect this file.  It runs in well under a
minute.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from conewave import cli  # noqa: E402
from conewave.frames import Discretization, estimate_bounds, lambda_fn  # noqa: E402
from conewave.kernels import (  # noqa: E402
    ConeSpec,
    GcmParams,
    GroupElement,
    apply_group,
    eval_cauchy_2d,
    eval_centered_gcm,
    eval_gc_2d,
    eval_gcm,
    tuned_temporal,
)
from conewave.speedscan import (  # noqa: E402
    EnergyCurve,
    ScanConfig,
    aperture_sweep,
    scan_orientations,
    scan_speeds,
)
from conewave.stcwt import SequenceVolume, SpectrumVolume, tuned_filter_factors  # noqa: E402
from conewave.stvio import read_csv, write_stv  # noqa: E402
from conewave.synth import GaussianSceneSpec, generate  # noqa: E402

SHAPES = ("64x64x16", "53x71x13", "48x90x20")
ANGLES = ("0", "pi/6", "-pi/3")
KERNELS = (
    ("gc2d", "--grid", "128x128x1"),
    ("gc2d", "--grid", "96x80x1", "--alpha", "pi/256", "--l", "3", "--m", "7",
     "--sigma", "2.5", "--theta-axis", "0.3", "--kmax", "20"),
    ("gc2d", "--grid", "64x64x1", "--alpha", "pi/8", "--l", "1", "--m", "2",
     "--sigma", "0.4", "--kmax", "3"),
    ("gcm", "--grid", "48x40x9", "--theta", "0.7", "--a-s", "2", "--a-t", "1.5", "--c", "3",
     "--bx", "0.5", "--tau", "0.25"),
    ("centered-gcm", "--grid", "40x48x7", "--theta", "-1.1", "--c", "2", "--alpha", "pi/12"),
    ("cauchy2d", "--grid", "40x36x3", "--alpha", "pi/6", "--theta-axis", "0.4",
     "--l", "2", "--m", "3", "--eta", "1.0,0.3", "--kmax", "5"),
    ("morlet2d", "--grid", "32x30x2", "--k0", "3,1", "--epsilon", "2", "--correction"),
)


class Digest:
    def __init__(self, label=""):
        self.total = hashlib.sha256()
        self.label = label

    def add(self, name, *chunks):
        part = hashlib.sha256()
        for chunk in chunks:
            part.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
        self.total.update(name.encode() + b"\0" + part.digest())
        print(f"{part.hexdigest()}  {self.label}{name}", file=sys.stderr)


DECISIONS = Digest("decisions: ")
ILL_CONDITIONED_RATIO = 1e12


def unbracketed(energies, no_motion, reported=None):
    """Grid peak index and the unbracketed verdict of a curve, checked
    against the verdict the program reports, if it reports one."""
    peak = int(np.argmax(energies))
    verdict = not no_motion and peak in (0, len(energies) - 1)
    if reported is not None and reported != verdict:
        raise AssertionError(f"unbracketed reported {reported}, derived {verdict}")
    return peak, verdict


def report_decisions(text):
    """A frame-bound report without its conditioning field, and the
    conditioning verdict derived from it (checked against the field)."""
    report = json.loads(text)
    reported = report.pop("ill_conditioned", None)
    ratio = report["ratio"]
    verdict = (report["lambda_minus"] <= report["lambda_tail"]
               or ratio is None or not ratio <= ILL_CONDITIONED_RATIO)
    if reported is not None and reported != verdict:
        raise AssertionError(f"ill_conditioned reported {reported}, derived {verdict}")
    return json.dumps(report, sort_keys=True), verdict


def cli_decisions(command, code, outputs):
    if command in ("scan", "orient-scan", "aperture-sweep") and os.path.exists(outputs[0]):
        _, rows, meta = read_csv(outputs[0])
        if command == "scan":
            no_motion = meta.get("no_detectable_motion") == "1"
            reported = (meta.get("unbracketed") == "1"
                        if hasattr(EnergyCurve, "unbracketed") else None)
            return (code, meta["v_m"], no_motion,
                    unbracketed([float(r[1]) for r in rows], no_motion, reported))
        v_ms = [r[1] for r in rows]
        if command == "aperture-sweep":
            return code, v_ms
        return code, v_ms, max(rows, key=lambda r: float(r[2]))[0]
    if command == "frame-bounds" and os.path.exists(outputs[0]):
        return code, report_decisions(Path(outputs[0]).read_text())
    return (code,)


def run_cli(digest, name, argv, outputs):
    """Run one CLI command and digest its exit code, stdout and output
    files, and its decisions."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    files = [Path(path).read_bytes() if os.path.exists(path) else b"<missing>"
             for path in outputs]
    digest.add(name, code, out.getvalue(), *files)
    DECISIONS.add(name, cli_decisions(argv[0], code, outputs))


def default_outputs(digest):
    """Commands with every flag at its default, so that a CLI default that
    drifts away from its dataclass changes the digest."""
    run_cli(digest, "synth defaults", ["synth", "--out", "d.stv"], ["d.stv"])
    run_cli(digest, "scan defaults", ["scan", "--in", "d.stv", "--out", "d.csv"], ["d.csv"])
    for kind in ("gcm", "morlet2d"):
        run_cli(digest, f"kernel --type {kind} defaults", ["kernel", "--type", kind, "--out", "k"],
                ["k_real.stv", "k_imag.stv", "k.json"])


def cli_outputs(digest):
    for shape in SHAPES:
        for i, angle in enumerate(ANGLES):
            scene = f"{shape}_{i}.stv"
            run_cli(digest, f"synth {shape} {angle}",
                    ["synth", "--size", shape, "--speed", "3", f"--motion-angle={angle}",
                     f"--pattern-angle={angle}", "--noise", "0.05", "--seed", str(i),
                     "--out", scene], [scene])
            scan = ["--in", scene, f"--theta={angle}"]
            run_cli(digest, f"scan {scene}", ["scan", *scan, "--out", "s.csv"], ["s.csv"])
            run_cli(digest, f"scan --refine {scene}",
                    ["scan", *scan, "--refine", "--out", "r.csv"], ["r.csv"])
            run_cli(digest, f"aperture-sweep {scene}",
                    ["aperture-sweep", *scan, "--out", "a.csv"], ["a.csv"])
        # 33 orientations, on the last scene of each shape only, for run time.
        run_cli(digest, f"orient-scan {scene}",
                ["orient-scan", "--in", scene, "--out", "o.csv"], ["o.csv"])
    write_stv("c.stv", np.full((32, 32, 8), 2.0), dtype="float64")  # exits 4, no motion
    run_cli(digest, "scan constant", ["scan", "--in", "c.stv", "--out", "c.csv"], ["c.csv"])
    for i, flags in enumerate(KERNELS):
        base = f"k{i}"
        run_cli(digest, f"kernel {' '.join(flags)}",
                ["kernel", "--type", *flags, "--out", base],
                [f"{base}_real.stv", f"{base}_imag.stv", f"{base}.json"])
    run_cli(digest, "compare-aperture", ["compare-aperture", "--out", "cmp.csv"], ["cmp.csv"])
    for q1 in ("8", "16"):
        run_cli(digest, f"frame-bounds --q1 {q1}",
                ["frame-bounds", "--q1", q1, "--out", "fb.json"], ["fb.json"])
    run_cli(digest, "frame-bounds --stub-tight-frame",
            ["frame-bounds", "--stub-tight-frame", "--grid-size", "16", "--scale-range", "2",
             "--out", "fb.json"], ["fb.json"])


def _value_bytes(value):
    """Type, dtype, shape and bytes: scalars and 0-d arrays stay apart."""
    arr = np.asarray(value)
    return type(value).__name__, arr.dtype.str, arr.shape, arr.tobytes()


def frame_outputs(digest):
    """Frame-bound reports and lambda sums with translation steps 2.0, where
    the off-grid correction gamma is not negligible."""
    disc = Discretization(q1=4, scale_range=1, grid_size=8, gamma_stride=2,
                          b_x0=2.0, b_y0=2.0, tau0=2.0)
    params = GcmParams(l=3, m=4, sigma=1.5, cone=ConeSpec(alpha=math.pi / 4))

    def generic(kx, ky, w):
        return eval_gc_2d(kx, ky, params) * np.exp(-0.25 * (w - 2.0) ** 2) * (1.0 + 0.1 * ky)

    kx = np.linspace(-3.0, 5.0, 9)[:, None, None]
    ky = np.linspace(-2.0, 2.0, 7)[None, :, None]
    w = np.linspace(0.25, 6.0, 5)[None, None, :]
    for name, kernel in (("gcm", params), ("generic", generic)):
        core, tail = lambda_fn(kx, ky, w, disc, kernel, with_tail=True)
        digest.add(f"lambda_fn {name}", _value_bytes(core), tail,
                   _value_bytes(lambda_fn(1.5, 0.25, 2.0, disc, kernel)))
        report = estimate_bounds(disc, kernel).to_json()
        digest.add(f"estimate_bounds {name}", report)
        DECISIONS.add(f"estimate_bounds {name}", report_decisions(report))


def kernel_outputs(digest):
    """Every GCM evaluator on edge-case coordinates, as arrays and as
    python floats."""
    special = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 3.5, 0.25)
    kx = np.array([x for x in special for _ in special])
    ky = np.array([y for _ in special for y in special])
    omega = np.resize(np.array(special), kx.size)
    params = GcmParams(l=3, m=5, sigma=2.0, cone=ConeSpec(alpha=math.pi / 5, theta_axis=0.2))
    g = GroupElement(bx=0.5, by=-0.25, tau=0.75, theta=0.3, a_s=1.5, a_t=0.75, c=2.0)
    points = ((kx, ky, omega), (3.5, 0.25, 4.0), (-0.0, 0.0, math.inf), (1e300, 0.0, -0.0))
    for i, (px, py, pw) in enumerate(points):
        digest.add(f"kernels at points {i}",
                   _value_bytes(eval_gcm(px, py, pw, params)),
                   _value_bytes(apply_group(g, params, px, py, pw)),
                   _value_bytes(eval_centered_gcm(g, params, px, py, pw)),
                   _value_bytes(tuned_temporal(g, params, pw)),
                   _value_bytes(eval_cauchy_2d(px, py, params.cone, 2, 3, (1.0, 0.3))),
                   _value_bytes(params.cone.contains(px, py)))


def add_curve_decisions(name, curve):
    DECISIONS.add(name, curve.v_m, curve.no_motion,
                  unbracketed(curve.energies, curve.no_motion,
                              getattr(curve, "unbracketed", None)))


def library_outputs(digest):
    scenes = (
        ("scan_speeds 256x256x64", GaussianSceneSpec(nx=256, ny=256, nt=64, v_r=2.5,
                                                     motion_angle=0.2, pattern_angle=0.2,
                                                     noise_sigma=0.05, seed=3), None),
        ("scan_speeds frame_range", GaussianSceneSpec(nx=48, ny=40, nt=12, v_r=3.0,
                                                      noise_sigma=0.05, seed=4),
         (1, 2, 3, 5, 8)),
    )
    for name, spec, frame_range in scenes:
        curve = scan_speeds(generate(spec), ScanConfig(frame_range=frame_range))
        digest.add(name, curve.c_values.tobytes(), curve.energies.tobytes(),
                   curve.v_m, curve.peak_energy, curve.no_motion)
        add_curve_decisions(name, curve)
    data = generate(GaussianSceneSpec(nx=53, ny=71, nt=13, v_r=4.0, motion_angle=-1.1,
                                      pattern_angle=-1.1, noise_sigma=0.05, seed=5)).data
    for layout in (np.ascontiguousarray, np.asfortranarray):
        curve = scan_speeds(SequenceVolume(layout(data)),
                            ScanConfig(theta=-1.1, refine="golden-section"))
        digest.add(f"scan_speeds {layout.__name__}", curve.energies.tobytes(), curve.v_m,
                   curve.peak_energy, curve.no_motion)
        add_curve_decisions(f"scan_speeds {layout.__name__}", curve)


def sweep_outputs(digest):
    """Refined orientation and aperture sweeps on an odd, non-square scene at
    a non-unit pixel pitch: every scan of a sweep samples its own cone on the
    shared spectrum and refines on the same sampling."""
    data = generate(GaussianSceneSpec(nx=37, ny=29, nt=11, v_r=2.0, motion_angle=0.5,
                                      pattern_angle=0.5, noise_sigma=0.05, seed=6)).data
    scene = SequenceVolume(data, pixel_pitch=0.7)
    config = ScanConfig(theta=0.5, refine="golden-section")
    thetas = [k * math.pi / 8 for k in range(-4, 5)] + [0.5]
    alphas = [1.5, math.pi / 4, math.pi / 16, math.pi / 64, math.pi / 256]
    orientations = scan_orientations(scene, config, thetas)
    apertures = aperture_sweep(scene, config, alphas)
    for name, rows in (("scan_orientations", orientations), ("aperture_sweep", apertures)):
        digest.add(f"{name} golden-section 37x29x11 pitch 0.7", rows)
    DECISIONS.add("library sweeps golden-section", [v_m for _, v_m, _ in orientations],
                  max(orientations, key=lambda row: row[2])[0],
                  [v_m for _, v_m, _ in apertures])


def factor_outputs(digest):
    """Spatial and temporal factors on tiny, odd and non-square grids at
    non-unit pitches, with a rotated cone axis, apertures from pi/256 to
    1.5, and the tuning angle, the cone axis or a cone edge on the grid
    axes and diagonals."""
    params = [GcmParams(l=l, m=m, sigma=1.5, cone=ConeSpec(alpha=alpha, theta_axis=0.3))
              for alpha in (math.pi / 256, math.pi / 16, 1.5) for l, m in ((3, 4), (10, 10))]
    for nx, ny in ((2, 3), (17, 64), (53, 71)):
        for pitch in (0.5, 1.7):
            spec = SpectrumVolume(np.zeros((nx, ny, 5), dtype=complex), pitch, 1.0)
            chunks = []
            for p in params:
                alpha = p.cone.alpha
                for theta in (k * math.pi / 4 + shift for k in range(-4, 4)
                              for shift in (0.0, -0.3, alpha - 0.3, -alpha - 0.3)):
                    for a_s, c in ((0.5, 1.0), (3.0, 5.0)):
                        g = GroupElement(theta=theta, a_s=a_s, a_t=2.0, c=c)
                        chunks.extend(f.tobytes() for f in tuned_filter_factors(spec, g, p))
            digest.add(f"tuned_filter_factors {nx}x{ny} pitch {pitch}", *chunks)


def main():
    digest = Digest()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # the CLI prints its output paths; keep them relative
        try:
            cli_outputs(digest)
            default_outputs(digest)
        finally:
            os.chdir(cwd)
    library_outputs(digest)
    sweep_outputs(digest)
    factor_outputs(digest)
    frame_outputs(digest)
    with np.errstate(all="ignore"):  # inf - inf and overflow are part of the point set
        kernel_outputs(digest)
    print(digest.total.hexdigest())
    print(f"{DECISIONS.total.hexdigest()}  decisions")


if __name__ == "__main__":
    main()
