"""The benchmark's workloads: seeded inputs, one operation, and its output check.

Every workload drives conewave through an entry point a user has: the
in-process command line ``conewave.cli.main(argv)`` with stdout captured,
or the library call ``scan_speeds``.  Inputs come from the seed alone; the
program only sees the generated scenes.  Library names are looked up as
module attributes at call time, so the traced run's wrappers are used.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Speed grid of ScanConfig() and of the CLI scan flags; the checks use it.
C_MIN, C_MAX, C_STEP = 1.0, 6.0, 0.25
SPEED_TOL = 2 * C_STEP

# orient-scan's default orientation grid: -pi/2 .. pi/2 in steps of pi/32.
THETA_STEP = math.pi / 32
THETA_GRID = -math.pi / 2 + THETA_STEP * np.arange(33)
# Motion this fast or faster can make orient-scan peak one grid step off:
# over 29 angles x 5 speeds it did so at 5.50 to 5.68 px/frame on 5 angles
# spread over the grid, and never below 5.5.
FAST_SPEED = 5.0

# aperture-sweep's default apertures.  Those narrower than pi/16 are too
# narrow for a 64x64 grid at angles off the axes and diagonals: in the pass
# band a pi/64 cone holds 6 to 10 DFT bins there and a pi/256 cone 1 to 3,
# against 12 to 17 along them, and the speed curve can then peak below the
# true speed, towards the slow end of the grid.
APERTURES = "pi/8,pi/16,pi/64,pi/256"
RESOLVED_APERTURE = math.pi / 16

# Relative tolerance on the numeric frame-bounds report fields against the
# reference recorded at the commit that introduced the benchmark.  Loose
# enough for a change of summation order, tight enough to catch any change
# of what is computed.
FRAME_BOUNDS_RTOL = 1e-6
FRAME_BOUNDS_REFERENCE = Path(__file__).resolve().parent / "reference" / "frame_bounds_q1_8.json"


@dataclass
class Outcome:
    """Result of checking one operation's output.

    ok is False for an op that raised, exited with an unexpected code or
    gave a wrong answer.  known_defect marks a wrong answer of a kind the
    program is known to give, which the benchmark shows rather than hides:
    see check_speed and check_orientation.
    Such ops count in the report's failed_ratio, not in the run's `failed`.
    """

    ok: bool
    known_defect: bool = False
    speed_errors: list = field(default_factory=list)
    detail: str = ""
    op: int = -1


@dataclass
class Scene:
    """One generated input and its ground truth."""

    v: float
    theta: float
    shape: tuple
    snr_db: float | None
    path: str | None = None
    volume: object = None


def _stratified(rng, n, lo, hi):
    """n uniform draws on [lo, hi), one from each of n equal strata, shuffled.

    Each block of scenes then covers the whole range, so the mix of sizes
    and speeds, and with it the op time, barely moves from seed to seed.
    """
    return lo + (hi - lo) * rng.permutation((np.arange(n) + rng.random(n)) / n)


def _shapes(rng, areas, lo, hi):
    """(nx, ny) in [lo, hi] with nx * ny close to each area and a random aspect.

    Filter sampling, most of a small scan, scales with nx * ny, so fixing
    the spread of areas rather than of each side keeps the op time steady
    across seeds while every scene still gets its own, often odd and
    non-square, shape.
    """
    nx = np.empty(len(areas), dtype=int)
    ny = np.empty(len(areas), dtype=int)
    for k, area in enumerate(areas):
        nx[k] = round(rng.uniform(max(lo, area / hi), min(hi, area / lo)))
        ny[k] = min(hi, max(lo, round(area / nx[k])))
    return nx, ny


def _render(scene, rng, cw):
    """Travelling Gaussian moving at (v, theta) from a random sub-pixel start,
    with white noise at the scene's SNR (relative to the clean mean power)."""
    nx, ny, nt = scene.shape
    spec = cw.synth.GaussianSceneSpec(
        nx=nx, ny=ny, nt=nt, sigma_x=1.0, sigma_y=8.0,
        pattern_angle=scene.theta, v_r=scene.v, motion_angle=scene.theta,
        start=(float(rng.uniform(0, nx)), float(rng.uniform(0, ny))),
    )
    seq = cw.synth.generate(spec)
    if scene.snr_db is not None:
        power = float(np.mean(seq.data**2))
        sigma = math.sqrt(power / 10 ** (scene.snr_db / 10))
        seq = cw.synth.add_noise(seq, sigma, int(rng.integers(2**31)))
    return seq


def _call_cli(cw, argv):
    """Run the CLI in process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cw.cli.main(argv)
        except SystemExit as exc:  # argparse rejects flags by exiting
            code = exc.code
    return code, out.getvalue()


def _read_csv(path):
    """(data rows as floats, footer key -> value) of a conewave CSV."""
    rows, footer = [], {}
    lines = Path(path).read_text().splitlines()
    for line in lines[1:]:
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            footer[key.strip()] = value.strip()
        elif line:
            rows.append([float(x) for x in line.split(",")])
    return rows, footer


def _is_peaked(curve, v_m):
    """Whether the (c, energy) curve is finite, not flat, and peaks within
    one grid step of v_m (refinement moves the peak by at most one step)."""
    if not curve:
        return False
    cs, energies = [row[0] for row in curve], [row[1] for row in curve]
    top = max(energies)
    if not all(math.isfinite(e) for e in energies) or top <= 0 or top <= min(energies):
        return False
    return abs(cs[energies.index(top)] - v_m) <= C_STEP + 1e-9


def _strict_peak_near(curve, v):
    """Whether the (c, energy) curve has a strict local maximum within SPEED_TOL of v."""
    energies = [-math.inf] + [row[1] for row in curve] + [-math.inf]
    return any(abs(row[0] - v) <= SPEED_TOL and energies[j] < row[1] > energies[j + 2]
               for j, row in enumerate(curve))


def check_speed(v_m, scene, curve=()):
    """Outcome of one measured speed against the scene's true speed.

    A wrong v_m is a known defect (ROADMAP.md, item 4) only when the energy
    curve (c, energy) is a real one that peaks at v_m, and either the true
    speed lies outside the scanned grid [C_MIN, C_MAX], which the scan then
    clips or folds, or the curve also has a strict local maximum at the
    true speed, below the alias fold of a fast pattern.  Any other wrong
    v_m, and one from a flat, zero or non-finite curve, is a failure.
    """
    err = abs(v_m - scene.v)
    in_grid = C_MIN <= scene.v <= C_MAX
    ok = err <= SPEED_TOL
    folded = not in_grid or _strict_peak_near(curve, scene.v)
    return Outcome(
        ok=ok,
        known_defect=not ok and folded and _is_peaked(curve, v_m),
        speed_errors=[err] if in_grid else [],
        detail="" if ok else f"v_m={v_m!r} for true v={scene.v!r}",
    )


def check_orientation(best_theta, apertures, scene):
    """orient-scan's best angle must be the grid angle nearest the true one,
    and every aperture's v_m must be within SPEED_TOL of the true speed.

    apertures holds (alpha, v_m) rows.  Two wrong answers are known defects
    of the program, and only when nothing else is wrong: a best angle one
    grid step off for motion at FAST_SPEED or faster, and a v_m below the
    true speed from an aperture narrower than RESOLVED_APERTURE at an angle
    off the axes and diagonals, where the grid undersamples that cone.
    """
    k = int(np.argmin(np.abs(THETA_GRID - scene.theta)))
    nearest = float(THETA_GRID[k])
    steps_off = abs(round((best_theta - nearest) / THETA_STEP))
    wrong = [(alpha, v_m) for alpha, v_m in apertures if not check_speed(v_m, scene).ok]
    oblique = abs(math.remainder(scene.theta, math.pi / 4)) > 1e-9
    ok = steps_off == 0 and not wrong
    known = (steps_off == 0 or steps_off == 1 and scene.v >= FAST_SPEED) and all(
        oblique and alpha < RESOLVED_APERTURE and v_m < scene.v for alpha, v_m in wrong)
    detail = "" if ok else (
        f"best theta {best_theta!r} (nearest grid {nearest!r} to {scene.theta!r}), "
        f"(alpha, v_m) {apertures} for v={scene.v!r}"
    )
    return Outcome(ok=ok, known_defect=not ok and known,
                   speed_errors=[abs(v_m - scene.v) for _, v_m in apertures], detail=detail)


def check_frame_bounds(report, reference, rtol=FRAME_BOUNDS_RTOL):
    """Every reference field must be present; numbers within rtol, the rest equal."""
    bad = []
    for key, want in reference.items():
        got = report.get(key)
        if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
            if abs(got - want) > rtol * max(abs(got), abs(want)):
                bad.append(f"{key}={got!r} (reference {want!r})")
        elif got != want or type(got) is not type(want):
            bad.append(f"{key}={got!r} (reference {want!r})")
    return Outcome(ok=not bad, detail="; ".join(bad))


class Workload:
    """A seeded input set plus one operation and its output check.

    warmup_ops ops run untimed first.  The exact counts of a traced run are
    taken over its first count_ops ops, which are the same on every run
    with the same seed.  A timed phase runs a whole number of rounds of
    round_ops ops, each round an even mix of the inputs' op costs.
    """

    name = ""
    why = ""
    warmup_ops = 1
    count_ops = 1
    round_ops = 1

    def setup(self, cw, seed, workdir):
        raise NotImplementedError

    def op(self, cw, state, i):
        raise NotImplementedError

    def check(self, state, i, result):
        raise NotImplementedError


class ScanSmallCli(Workload):
    name = "scan-small-cli"
    why = ("conewave scan --refine on small scenes of varied odd and non-square shapes: "
           "golden refinement, per-call CLI and STV overhead, filter sampling on small grids")
    block = 24  # scenes per stratified block; a multiple of the 3 SNR levels
    blocks = 3
    # Stratum of frame length and of speed that goes with area stratum k.
    PAIRING = np.random.default_rng(0).permutation(block)
    SPEED_PAIRING = np.random.default_rng(1).permutation(block)
    count_ops = round_ops = block

    def setup(self, cw, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        scenes = []
        for b in range(self.blocks):
            n = self.block
            # Frame area, length and speed are stratified together, at fixed
            # points of the strata that rotate from block to block, so that
            # every block holds the same mix of them.  An op's cost grows
            # with the frame and with slowness, so the mix of op times is
            # then the same on every seed and in every block; the aspect of
            # each frame, the angle, the start, the noise and the order of
            # the scenes follow the seed.
            u = ((b + np.arange(n)) % self.blocks + 0.5) / self.blocks
            order = rng.permutation(n)
            area = 48 * 48 + (96 * 96 - 48 * 48) * (np.arange(n) + u)[order] / n
            nt = 12 + np.floor(13 * (self.PAIRING + u)[order] / n).astype(int)
            v = 0.5 + 6.5 * (self.SPEED_PAIRING + u)[order] / n
            nx, ny = _shapes(rng, area, 48, 96)
            theta = _stratified(rng, n, -math.pi, math.pi)
            snr = rng.permutation(np.resize(np.array([np.nan, 20.0, 10.0]), n))
            for k in range(n):
                scenes.append(Scene(
                    v=float(v[k]), theta=float(theta[k]),
                    shape=(int(nx[k]), int(ny[k]), int(nt[k])),
                    snr_db=None if np.isnan(snr[k]) else float(snr[k]),
                ))
        for k, scene in enumerate(scenes):
            scene.path = str(workdir / f"scene{k:03d}.stv")
            cw.stvio.write_stv(scene.path, _render(scene, rng, cw))
        return {"scenes": scenes, "csv": str(workdir / "scan.csv")}

    def op(self, cw, state, i):
        scene = state["scenes"][i % len(state["scenes"])]
        Path(state["csv"]).unlink(missing_ok=True)  # a missing output must not read as the last
        return _call_cli(cw, ["scan", "--in", scene.path, "--refine",
                              f"--theta={scene.theta!r}", "--out", state["csv"]])

    def check(self, state, i, result):
        scene = state["scenes"][i % len(state["scenes"])]
        code, _ = result
        rows, footer = [], {}
        if code == 0 and Path(state["csv"]).is_file():
            rows, footer = _read_csv(state["csv"])
        if "v_m" not in footer:
            return Outcome(ok=False, detail=f"exit code {code}, no v_m written")
        return check_speed(float(footer["v_m"]), scene, rows)


class ScanLarge(Workload):
    name = "scan-large"
    why = ("scan_speeds(ScanConfig()) on 256x256x64 scenes: the FFT and the per-tuning "
           "power spectrum and contraction weigh most, and memory is largest")
    scenes = 2

    def setup(self, cw, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        speeds = _stratified(rng, self.scenes, 1.5, 5.5)
        scenes = []
        for k in range(self.scenes):
            # ScanConfig() scans along theta = 0, so the scenes move along +x.
            scene = Scene(v=float(speeds[k]), theta=0.0, shape=(256, 256, 64), snr_db=20.0)
            scene.volume = _render(scene, rng, cw)
            scenes.append(scene)
        return {"scenes": scenes}

    def op(self, cw, state, i):
        scene = state["scenes"][i % len(state["scenes"])]
        return cw.speedscan.scan_speeds(scene.volume, cw.speedscan.ScanConfig())

    def check(self, state, i, result):
        if result.no_motion:
            return Outcome(ok=False, detail=f"no motion reported, v_m={result.v_m!r}")
        return check_speed(float(result.v_m), state["scenes"][i % len(state["scenes"])],
                           list(zip(result.c_values, result.energies)))


class SweepOrient(Workload):
    name = "sweep-orient"
    why = ("orient-scan over 33 angles then aperture-sweep over 4 apertures on 64x64x16: "
           "777 tunings share one FFT, so filter sampling dominates")
    scenes = 4

    def setup(self, cw, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        speeds = _stratified(rng, self.scenes, 1.5, 5.5)
        # Motion angles on the orient-scan grid, clear of its ends, so that
        # the nearest grid angle is never a tie.
        steps = rng.choice(np.arange(2, 31), self.scenes, replace=False)
        scenes = []
        for k in range(self.scenes):
            scene = Scene(v=float(speeds[k]), theta=float(THETA_GRID[steps[k]]),
                          shape=(64, 64, 16), snr_db=None,
                          path=str(workdir / f"scene{k}.stv"))
            cw.stvio.write_stv(scene.path, _render(scene, rng, cw))
            scenes.append(scene)
        return {"scenes": scenes, "orient": str(workdir / "orient.csv"),
                "aperture": str(workdir / "aperture.csv")}

    def op(self, cw, state, i):
        scene = state["scenes"][i % len(state["scenes"])]
        for path in (state["orient"], state["aperture"]):
            Path(path).unlink(missing_ok=True)
        first = _call_cli(cw, ["orient-scan", "--in", scene.path, "--out", state["orient"]])
        second = _call_cli(cw, ["aperture-sweep", "--in", scene.path,
                                f"--theta={scene.theta!r}", "--alpha-list=" + APERTURES,
                                "--out", state["aperture"]])
        return first[0], second[0]

    def check(self, state, i, result):
        scene = state["scenes"][i % len(state["scenes"])]
        if result != (0, 0) or not all(Path(state[k]).is_file() for k in ("orient", "aperture")):
            return Outcome(ok=False, detail=f"exit codes {result} or an output is missing")
        orient, _ = _read_csv(state["orient"])
        apertures, _ = _read_csv(state["aperture"])
        if len(orient) != len(THETA_GRID) or len(apertures) != APERTURES.count(",") + 1:
            return Outcome(ok=False, detail=f"{len(orient)} angles, {len(apertures)} apertures")
        best = max(orient, key=lambda row: row[2])
        return check_orientation(best[0], [(row[0], row[1]) for row in apertures], scene)


class FrameBounds(Workload):
    name = "frame-bounds"
    why = ("the default frame-bounds --q1 8, the only user of frames: many small rotated "
           "GC kernel calls, mostly outside the cone; scan-only work should not move it")
    warmup_ops = 0  # every op repeats the same ~6 s of work
    count_ops = 2  # two traced ops, so one slow moment of the machine weighs half

    def setup(self, cw, seed, workdir):
        return {"reference": json.loads(FRAME_BOUNDS_REFERENCE.read_text())}

    def op(self, cw, state, i):
        return _call_cli(cw, ["frame-bounds", "--q1", "8"])

    def check(self, state, i, result):
        code, text = result
        if code != 0:
            return Outcome(ok=False, detail=f"exit code {code}")
        try:
            report = json.loads(text)
        except ValueError:
            return Outcome(ok=False, detail="report is not JSON")
        return check_frame_bounds(report, state["reference"])


WORKLOADS = {w.name: w for w in (ScanSmallCli(), ScanLarge(), SweepOrient(), FrameBounds())}
