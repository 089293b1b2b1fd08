"""Print one SHA-256 over fixed, seeded conewave outputs.

A change that must keep every output bit-identical runs this script on the
parent commit and on the change, and compares the two digests:

    python tests/digest_outputs.py

It imports conewave from the src/ directory next to this tests/ directory,
so a copy of the script placed in another checkout digests that checkout.
The digest covers the bytes of every file the CLI writes, its exit codes
and stdout for `synth`, `scan`, `scan --refine`, `orient-scan`,
`aperture-sweep`, `kernel` (gc2d, gcm, centered-gcm), `compare-aperture`
and `frame-bounds --q1 8` and `--q1 16`, plus the energies, v_m, peak and
no-motion flag of library `scan_speeds` calls at 256x256x64 and over a
partial frame range.  The digest of each part goes to stderr, so that a
mismatch can be traced to its part.  Pytest does not collect this file.
It runs in well under a minute.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from conewave import cli  # noqa: E402
from conewave.speedscan import ScanConfig, scan_speeds  # noqa: E402
from conewave.stvio import write_stv  # noqa: E402
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
)


class Digest:
    def __init__(self):
        self.total = hashlib.sha256()

    def add(self, name, *chunks):
        part = hashlib.sha256()
        for chunk in chunks:
            part.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
        self.total.update(name.encode() + b"\0" + part.digest())
        print(f"{part.hexdigest()}  {name}", file=sys.stderr)


def run_cli(digest, name, argv, outputs):
    """Run one CLI command and digest its exit code, stdout and output files."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    files = [Path(path).read_bytes() if os.path.exists(path) else b"<missing>"
             for path in outputs]
    digest.add(name, code, out.getvalue(), *files)


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


def main():
    digest = Digest()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # the CLI prints its output paths; keep them relative
        try:
            cli_outputs(digest)
        finally:
            os.chdir(cwd)
    library_outputs(digest)
    print(digest.total.hexdigest())


if __name__ == "__main__":
    main()
