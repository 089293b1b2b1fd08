"""Command-line surface: flags, file outputs, exit codes."""

import argparse
import importlib.util
import json
import math
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from conewave.cli import _from_args, _gcm_params, build_parser, main, parse_angle
from conewave.frames import Discretization
from conewave.kernels import ConeSpec, GcmParams, GroupElement, MorletParams
from conewave.speedscan import ScanConfig
from conewave.stvio import read_csv, read_sidecar, read_stv, read_stv_array, write_stv
from conewave.synth import GaussianSceneSpec

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def run(*argv):
    return main(list(argv))


def moved_fields(instance, default):
    """Names of the fields in which instance differs from default."""
    return {f.name for f in fields(instance)
            if getattr(instance, f.name) != getattr(default, f.name)}


# ---------------------------------------------------------------------------
# flag parsing


def test_parse_angle_forms():
    assert parse_angle("0.5") == 0.5
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("pi/16") == pytest.approx(math.pi / 16)
    assert parse_angle("-pi/2") == pytest.approx(-math.pi / 2)
    assert parse_angle("3pi/4") == pytest.approx(3 * math.pi / 4)
    with pytest.raises(Exception):
        parse_angle("tau/2")


@pytest.mark.parametrize("command", ["scan", "orient-scan", "aperture-sweep"])
def test_scan_flag_defaults_are_the_config_defaults(command):
    args = build_parser().parse_args([command, "--in", "x", "--out", "y"])
    assert _from_args(ScanConfig, args) == ScanConfig()


def test_every_scan_flag_sets_its_config_field():
    args = build_parser().parse_args([
        "scan", "--in", "x", "--out", "y", "--c-min", "0.5", "--c-max", "4",
        "--c-step", "0.5", "--theta", "pi/4", "--a-s", "2", "--a-t", "1.5", "--refine",
        "--refine-tol", "0.01", "--l", "4", "--m", "6", "--sigma", "2", "--omega0", "3.5",
        "--alpha", "pi/8",
    ])
    config = _from_args(ScanConfig, args)
    assert config == ScanConfig(
        c_min=0.5, c_max=4.0, c_step=0.5, theta=math.pi / 4, a_s=2.0, a_t=1.5,
        refine="golden-section", refine_tol=0.01, l=4, m=6, sigma=2.0, omega0=3.5,
        alpha=math.pi / 8,
    )
    # Every field but frame_range has a flag, and the run above moved each one.
    assert moved_fields(config, ScanConfig()) == {f.name for f in fields(ScanConfig)} - {
        "frame_range"}


def test_kernel_and_frame_bound_flag_defaults_are_the_dataclass_defaults():
    parser = build_parser()
    args = parser.parse_args(["kernel", "--type", "gcm", "--out", "y"])
    assert _from_args(GroupElement, args) == GroupElement()
    assert _from_args(MorletParams, args) == MorletParams()
    assert _gcm_params(args) == GcmParams()
    args = parser.parse_args(["frame-bounds"])
    assert _from_args(Discretization, args) == Discretization()
    assert _gcm_params(args) == GcmParams()
    args = parser.parse_args(["compare-aperture", "--out", "y"])
    assert _from_args(GcmParams, args, cone=GcmParams().cone) == GcmParams()


def test_every_kernel_flag_sets_its_dataclass_field():
    args = build_parser().parse_args([
        "kernel", "--type", "gcm", "--out", "y", "--bx", "0.5", "--by", "-1", "--tau", "2",
        "--theta", "pi/4", "--a-s", "2", "--a-t", "1.5", "--c", "3", "--l", "4", "--m", "6",
        "--sigma", "2", "--omega0", "3.5", "--alpha", "pi/8", "--theta-axis", "0.3",
        "--k0", "3,1", "--epsilon", "2",
    ])
    g = _from_args(GroupElement, args)
    assert g == GroupElement(bx=0.5, by=-1.0, tau=2.0, theta=math.pi / 4, a_s=2.0, a_t=1.5,
                             c=3.0)
    assert moved_fields(g, GroupElement()) == {f.name for f in fields(GroupElement)}
    params = _gcm_params(args)
    assert params == GcmParams(l=4, m=6, sigma=2.0, omega0=3.5,
                               cone=ConeSpec(math.pi / 8, 0.3))
    assert moved_fields(params, GcmParams()) == {f.name for f in fields(GcmParams)}
    morlet = _from_args(MorletParams, args)
    assert moved_fields(morlet, MorletParams()) == {"k0", "epsilon"}


def test_omega0_follows_the_edge_orders_when_not_given():
    args = build_parser().parse_args(["kernel", "--type", "gcm", "--l", "4", "--out", "y"])
    assert _gcm_params(args).omega0 == math.sqrt(4 + 10)


def test_every_frame_bounds_flag_sets_its_dataclass_field():
    args = build_parser().parse_args([
        "frame-bounds", "--a0", "3", "--c0", "1.5", "--q1", "4", "--bx0", "0.5",
        "--by0", "0.25", "--tau0", "0.125", "--scale-range", "2", "--grid-size", "16",
        "--gamma-range", "2", "--gamma-stride", "3", "--l", "4", "--m", "6", "--sigma", "2",
        "--omega0", "3.5", "--alpha", "pi/8",
    ])
    disc = _from_args(Discretization, args)
    assert disc == Discretization(a0=3.0, c0=1.5, q1=4, b_x0=0.5, b_y0=0.25, tau0=0.125,
                                  scale_range=2, grid_size=16, gamma_range=2, gamma_stride=3)
    # Every field has a flag, and the run above moved each one.
    assert moved_fields(disc, Discretization()) == {f.name for f in fields(Discretization)}
    assert moved_fields(_gcm_params(args), GcmParams()) == {f.name for f in fields(GcmParams)}


def test_synth_flag_defaults_are_the_scene_defaults(tmp_path):
    out = tmp_path / "v.stv"
    assert run("synth", "--out", str(out)) == 0
    assert read_sidecar(out)["scene"] == asdict(GaussianSceneSpec())


def test_every_synth_flag_sets_its_scene_field(tmp_path):
    out = tmp_path / "v.stv"
    assert run("synth", "--size", "32x24x6", "--speed", "1.5", "--motion-angle", "0.25",
               "--sigma-x", "2", "--sigma-y", "3", "--pattern-angle", "0.5", "--noise", "0.1",
               "--seed", "7", "--amplitude", "2", "--start", "12,12", "--no-wrap",
               "--out", str(out)) == 0
    expected = GaussianSceneSpec(nx=32, ny=24, nt=6, v_r=1.5, motion_angle=0.25, sigma_x=2.0,
                                 sigma_y=3.0, pattern_angle=0.5, noise_sigma=0.1, seed=7,
                                 amplitude=2.0, start=(12.0, 12.0), wrap=False)
    scene = read_sidecar(out)["scene"]
    assert scene == json.loads(json.dumps(asdict(expected)))
    assert moved_fields(expected, GaussianSceneSpec()) == {
        f.name for f in fields(GaussianSceneSpec)}


OPTIONS = {
    "synth": "--amplitude --dtype --motion-angle --no-wrap --noise --out --pattern-angle "
             "--seed --sigma-x --sigma-y --size --speed --start",
    "scan": "--a-s --a-t --alpha --c-max --c-min --c-step --in --l --m --omega0 --out "
            "--refine --refine-tol --sigma --theta",
    "orient-scan": "--a-s --a-t --alpha --c-max --c-min --c-step --in --l --m --omega0 --out "
                   "--refine --refine-tol --sigma --theta --theta-max --theta-min --theta-step",
    "aperture-sweep": "--a-s --a-t --alpha --alpha-list --c-max --c-min --c-step --in --l --m "
                      "--omega0 --out --refine --refine-tol --sigma --theta",
    "kernel": "--a-s --a-t --alpha --bx --by --c --correction --epsilon --eta --grid --k0 "
              "--kmax --l --m --omega0 --out --sigma --tau --theta --theta-axis --type --wmax",
    "frame-bounds": "--a0 --alpha --bx0 --by0 --c0 --gamma-range --gamma-stride --grid-size "
                    "--l --m --omega0 --out --q1 --scale-range --sigma --stub-tight-frame "
                    "--tau0",
    "compare-aperture": "--gcm-alpha --grid-n --kmax --l --m --morlet-eps --morlet-k0 --out "
                        "--sigma",
}


def test_every_subcommand_keeps_its_option_strings():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(OPTIONS)
    for name, parser in sub.choices.items():
        options = {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
        assert options == set(OPTIONS[name].split()), name


def test_unknown_kernel_type_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        run("kernel", "--type", "wavelet", "--out", str(tmp_path / "k"))
    assert err.value.code == 2


def test_bad_size_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        run("synth", "--size", "64x64", "--out", str(tmp_path / "v.stv"))
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_expected_bytes(tmp_path):
    out = tmp_path / "seq.stv"
    assert run("synth", "--size", "64x64x16", "--speed", "3", "--out", str(out)) == 0
    assert out.stat().st_size == 20 + 4 * 64 * 64 * 16


def test_synth_zero_speed_sidecar_and_frames(tmp_path):
    out = tmp_path / "static.stv"
    assert run("synth", "--size", "32x32x8", "--speed", "0", "--out", str(out)) == 0
    side = read_sidecar(out)
    assert side["scene"]["v_r"] == 0.0
    seq = read_stv(out)
    for t in range(1, 8):
        assert np.array_equal(seq.data[:, :, t], seq.data[:, :, 0])


def test_synth_full_benchmark_scene(tmp_path):
    out = tmp_path / "bench.stv"
    assert run(
        "synth", "--size", "128x128x32", "--speed", "3",
        "--sigma-y", "8", "--sigma-x", "1", "--out", str(out),
    ) == 0
    assert out.stat().st_size == 20 + 4 * 128 * 128 * 32


def test_synth_missing_dir_exits_3(tmp_path):
    assert run("synth", "--out", str(tmp_path / "nope" / "v.stv")) == 3


@pytest.mark.parametrize("flag", ["--noise", "--speed", "--sigma-x", "--amplitude"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_non_finite_flag_exits_2_and_writes_nothing(tmp_path, flag, value):
    out = tmp_path / "v.stv"
    assert run("synth", "--size", "8x8x4", f"{flag}={value}", "--out", str(out)) == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# scan


@pytest.fixture(scope="module")
def benchmark_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenes") / "v3.stv"
    assert run("synth", "--size", "64x64x16", "--speed", "3", "--out", str(path)) == 0
    return path


def test_scan_benchmark_footer(benchmark_file, tmp_path):
    out = tmp_path / "curve.csv"
    assert run("scan", "--in", str(benchmark_file), "--out", str(out)) == 0
    header, rows, meta = read_csv(out)
    assert header == ["c", "energy"]
    assert len(rows) == 21
    assert abs(float(meta["v_m"]) - 3.0) <= 0.25
    assert "unbracketed" not in meta


@pytest.mark.parametrize("speed", ["0.5", "7.5"])
def test_scan_of_an_out_of_grid_speed_writes_the_unbracketed_footer(tmp_path, speed):
    scene, out = tmp_path / "fast.stv", tmp_path / "fast.csv"
    assert run("synth", "--size", "64x64x16", "--speed", speed, "--out", str(scene)) == 0
    # The exit code stays 0; only the footer tells.
    assert run("scan", "--in", str(scene), "--refine", "--out", str(out)) == 0
    _, _, meta = read_csv(out)
    assert meta["unbracketed"] == "1"
    assert "no_detectable_motion" not in meta


def test_scan_is_byte_deterministic(benchmark_file, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    run("scan", "--in", str(benchmark_file), "--out", str(out1))
    run("scan", "--in", str(benchmark_file), "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_scan_rejects_degenerate_grid(benchmark_file, tmp_path):
    code = run(
        "scan", "--in", str(benchmark_file), "--c-step", "10",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2


def test_scan_non_positive_refine_tol_exits_2(benchmark_file, tmp_path):
    code = run(
        "scan", "--in", str(benchmark_file), "--refine", "--refine-tol", "0",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2


@pytest.mark.parametrize("command, flag", [
    ("scan", "--sigma=nan"), ("scan", "--a-t=inf"), ("scan", "--theta=nan"),
    ("scan", "--c-max=inf"), ("scan", "--omega0=nan"), ("scan", "--refine-tol=inf"),
    ("orient-scan", "--theta-min=-inf"), ("orient-scan", "--theta-max=inf"),
    ("orient-scan", "--theta-step=nan"),
])
def test_scan_non_finite_flag_exits_2(benchmark_file, tmp_path, command, flag):
    out = tmp_path / "x.csv"
    assert run(command, "--in", str(benchmark_file), flag, "--out", str(out)) == 2
    assert not out.exists()


def test_scan_missing_input_exits_3(tmp_path):
    assert run("scan", "--in", str(tmp_path / "missing.stv"),
               "--out", str(tmp_path / "x.csv")) == 3


def test_scan_constant_volume_exits_4(tmp_path):
    vol = tmp_path / "flat.stv"
    write_stv(vol, np.full((32, 32, 8), 2.0), dtype="float64")
    out = tmp_path / "flat.csv"
    assert run("scan", "--in", str(vol), "--out", str(out)) == 4
    _, _, meta = read_csv(out)
    assert meta["no_detectable_motion"] == "1"
    assert "unbracketed" not in meta


# ---------------------------------------------------------------------------
# orientation and aperture sweeps


def test_orient_scan(benchmark_file, tmp_path):
    out = tmp_path / "orient.csv"
    assert run(
        "orient-scan", "--in", str(benchmark_file),
        "--theta-min=-pi/4", "--theta-max", "pi/4", "--theta-step", "pi/8",
        "--out", str(out),
    ) == 0
    header, rows, _ = read_csv(out)
    assert header == ["theta", "v_m", "peak_energy"]
    assert len(rows) == 5
    best = max(rows, key=lambda r: float(r[2]))
    assert abs(float(best[0])) < 1e-12
    assert abs(float(best[1]) - 3.0) <= 0.25


def test_aperture_sweep_single_entry_matches_scan(benchmark_file, tmp_path):
    sweep_out = tmp_path / "sweep.csv"
    scan_out = tmp_path / "scan.csv"
    assert run("aperture-sweep", "--in", str(benchmark_file),
               "--alpha-list", "pi/16", "--out", str(sweep_out)) == 0
    assert run("scan", "--in", str(benchmark_file), "--out", str(scan_out)) == 0
    _, sweep_rows, _ = read_csv(sweep_out)
    _, _, scan_meta = read_csv(scan_out)
    assert len(sweep_rows) == 1
    assert float(sweep_rows[0][1]) == float(scan_meta["v_m"])


def test_aperture_sweep_empty_list_exits_2(benchmark_file, tmp_path):
    assert run("aperture-sweep", "--in", str(benchmark_file),
               "--alpha-list", "", "--out", str(tmp_path / "x.csv")) == 2


# ---------------------------------------------------------------------------
# kernel dumps


def test_kernel_dump_shark(tmp_path):
    base = tmp_path / "shark"
    assert run(
        "kernel", "--type", "gc2d", "--alpha", "pi/18", "--l", "4", "--m", "4",
        "--grid", "96x96x1", "--kmax", "6", "--out", str(base),
    ) == 0
    real = read_stv_array(f"{base}_real.stv")
    imag = read_stv_array(f"{base}_imag.stv")
    assert real.shape == (96, 96, 1)
    assert np.max(np.abs(imag)) == 0.0
    meta = json.loads((tmp_path / "shark.json").read_text())
    assert meta["type"] == "gc2d"
    kx = np.linspace(-6, 6, 96)
    angle = np.arctan2(kx[None, :], kx[:, None])  # arctan2(ky, kx) on the grid
    outside = (np.abs(angle) > math.pi / 18 + 1e-12) | (kx[:, None] < 0)
    assert np.all(real[:, :, 0][outside] == 0.0)
    assert np.max(real) > 0.0


def test_kernel_dump_out_of_cone_exact_zero(tmp_path):
    base = tmp_path / "gcm"
    assert run(
        "kernel", "--type", "gcm", "--grid", "48x48x9", "--kmax", "6", "--wmax", "8",
        "--c", "4", "--out", str(base),
    ) == 0
    real = read_stv_array(f"{base}_real.stv")
    kx = np.linspace(-6, 6, 48)
    ky = np.linspace(-6, 6, 48)
    angle = np.arctan2(ky[None, :], kx[:, None])
    outside = (np.abs(angle) > math.pi / 16 + 0.05)
    assert np.all(real[outside, :] == 0.0)
    assert np.max(np.abs(real)) > 0.0


def test_kernel_dump_speed_family(tmp_path):
    peaks = {}
    for c in ("0.4", "1", "4"):
        base = tmp_path / f"fam{c}"
        assert run(
            "kernel", "--type", "gcm", "--grid", "64x16x64", "--kmax", "8",
            "--wmax", "16", "--c", c, "--out", str(base),
        ) == 0
        real = read_stv_array(f"{base}_real.stv")
        i, j, t = np.unravel_index(np.argmax(np.abs(real)), real.shape)
        kx = np.linspace(-8, 8, 64)[i]
        w = np.linspace(-16, 16, 64)[t]
        peaks[float(c)] = (kx, w)
    # spatial center shrinks and temporal center grows with c
    assert peaks[0.4][0] > peaks[1.0][0] > peaks[4.0][0] > 0
    assert peaks[0.4][1] < peaks[1.0][1] < peaks[4.0][1]


def test_kernel_dump_centered(tmp_path):
    base = tmp_path / "cent"
    assert run(
        "kernel", "--type", "centered-gcm", "--grid", "48x48x17",
        "--kmax", "6", "--wmax", "10", "--c", "2", "--out", str(base),
    ) == 0
    real = read_stv_array(f"{base}_real.stv")
    i, j, t = np.unravel_index(np.argmax(np.abs(real)), real.shape)
    assert abs(np.linspace(-6, 6, 48)[i]) <= 6 / 23.5
    assert abs(np.linspace(-6, 6, 48)[j]) <= 6 / 23.5
    assert abs(np.linspace(-10, 10, 17)[t]) <= 10 / 8


def test_kernel_dump_morlet_and_cauchy(tmp_path):
    base = tmp_path / "mor"
    assert run("kernel", "--type", "morlet2d", "--k0", "6,0", "--epsilon", "2",
               "--grid", "48x48x1", "--kmax", "10", "--out", str(base)) == 0
    real = read_stv_array(f"{base}_real.stv")
    i, j, _ = np.unravel_index(np.argmax(real), real.shape)
    assert abs(np.linspace(-10, 10, 48)[i] - 6.0) < 0.5

    base = tmp_path / "cau"
    assert run("kernel", "--type", "cauchy2d", "--alpha", "pi/4", "--l", "1", "--m", "1",
               "--eta", "1,0", "--grid", "48x48x1", "--kmax", "6", "--out", str(base)) == 0
    real = read_stv_array(f"{base}_real.stv")
    assert np.max(real) > 0.0


@pytest.mark.parametrize("flag", ["--kmax", "--wmax"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-2"])
def test_kernel_bad_grid_extent_exits_2_and_writes_nothing(tmp_path, flag, value):
    code = run("kernel", "--type", "gc2d", "--grid", "8x8x3", f"{flag}={value}",
               "--out", str(tmp_path / "k"))
    assert code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [
    ("--type", "morlet2d", "--epsilon", "nan"),
    ("--type", "morlet2d", "--epsilon", "inf"),
    ("--type", "morlet2d", "--k0", "nan,0"),
    ("--type", "cauchy2d", "--eta", "nan,0"),
    ("--type", "gc2d", "--theta-axis", "nan"),
    ("--type", "gcm", "--theta-axis", "inf"),
])
def test_kernel_non_finite_parameter_exits_2_and_writes_nothing(tmp_path, flags):
    code = run("kernel", *flags, "--grid", "4x4x1", "--out", str(tmp_path / "k"))
    assert code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["gc2d", "morlet2d", "cauchy2d"])
def test_kernel_ignores_group_flags_it_does_not_apply(tmp_path, kind):
    # Only gcm and centered-gcm apply the motion group: a speed of 0 elsewhere
    # is not read, and the outputs are those of the default speed.
    outputs = []
    for c in ("0", "1"):
        base = tmp_path / f"c{c}"
        assert run("kernel", "--type", kind, "--c", c, "--grid", "4x4x1", "--out", str(base)) == 0
        outputs.append([Path(f"{base}{suffix}").read_bytes()
                        for suffix in ("_real.stv", "_imag.stv", ".json")])
    assert outputs[0] == outputs[1]


def test_morlet_kernel_ignores_gcm_flags_it_does_not_read(tmp_path):
    # morlet2d reads no GCM flag: an edge order of 0, which no GCM kernel
    # takes, does not reject it, and its volumes are those of the defaults.
    assert run("kernel", "--type", "morlet2d", "--l", "0", "--grid", "4x4x1",
               "--out", str(tmp_path / "k")) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k.json", "k_imag.stv", "k_real.stv"]
    assert json.loads((tmp_path / "k.json").read_text())["params"] is None
    assert run("kernel", "--type", "morlet2d", "--grid", "4x4x1",
               "--out", str(tmp_path / "d")) == 0
    for suffix in ("_real.stv", "_imag.stv"):
        assert (tmp_path / f"k{suffix}").read_bytes() == (tmp_path / f"d{suffix}").read_bytes()
    assert json.loads((tmp_path / "d.json").read_text())["params"]["omega0"] == math.sqrt(20)


@pytest.mark.parametrize("kind", ["gcm", "centered-gcm"])
def test_kernel_rejects_a_group_it_applies(tmp_path, kind):
    code = run("kernel", "--type", kind, "--c", "0", "--grid", "4x4x1", "--out", str(tmp_path / "k"))
    assert code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["gc2d", "gcm"])
@pytest.mark.parametrize("grid", ["0x4x1", "4x0x3", "4x4x0", "4x4x-2"])
def test_kernel_grid_size_below_1_exits_2_and_writes_nothing(tmp_path, capsys, kind, grid):
    code = run("kernel", "--type", kind, "--grid", grid, "--out", str(tmp_path / "k"))
    assert code == 2
    assert "--grid" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# frame bounds


def test_frame_bounds_stub_tight_frame(tmp_path):
    out = tmp_path / "stub.json"
    code = run(
        "frame-bounds", "--stub-tight-frame", "--grid-size", "16",
        "--scale-range", "2", "--gamma-stride", "2", "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["valid_frame"] is True
    assert report["lower_bound"] == pytest.approx(report["upper_bound"], rel=1e-9)
    assert report["label"] == "estimate, not certificate"


def test_default_frame_bounds_passes_the_benchmark_check(capsys):
    # The benchmark's own output check on its frame-bounds op, so that a
    # change of the frames numbers fails here before the benchmark sees it.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert run("frame-bounds", "--q1", "8") == 0
    report = json.loads(capsys.readouterr().out)
    reference = json.loads(workloads.FRAME_BOUNDS_REFERENCE.read_text())
    outcome = workloads.check_frame_bounds(report, reference)
    assert outcome.ok, outcome.detail


def test_frame_bounds_refinement_direction(tmp_path):
    ratios = {}
    for q1 in (8, 16):
        out = tmp_path / f"fb{q1}.json"
        code = run(
            "frame-bounds", "--q1", str(q1), "--grid-size", "12",
            "--scale-range", "1", "--gamma-stride", "3", "--out", str(out),
        )
        assert code == 0
        ratios[q1] = json.loads(out.read_text())["ratio"]
    assert ratios[16] <= ratios[8]


def test_frame_bounds_invalid_exits_5(tmp_path):
    code = run(
        "frame-bounds", "--bx0", "2.0", "--by0", "2.0", "--tau0", "2.0",
        "--grid-size", "8", "--scale-range", "1", "--gamma-stride", "2",
    )
    assert code == 5


@pytest.mark.parametrize("flag", ["--grid-size", "--gamma-stride"])
def test_frame_bounds_zero_size_exits_2(flag, tmp_path):
    out = tmp_path / "bounds.json"
    assert run("frame-bounds", flag, "0", "--out", str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--a0", "--c0", "--bx0", "--by0", "--tau0"])
def test_frame_bounds_non_finite_step_exits_2(flag, tmp_path):
    out = tmp_path / "bounds.json"
    code = run("frame-bounds", flag, "nan", "--grid-size", "4", "--scale-range", "0",
               "--out", str(out))
    assert code == 2
    assert not out.exists()


def test_frame_bounds_malformed_flags_exit_2():
    with pytest.raises(SystemExit) as err:
        run("frame-bounds", "--q1", "eight")
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# aperture comparison


def test_compare_aperture_table(tmp_path):
    out = tmp_path / "compare.csv"
    assert run("compare-aperture", "--out", str(out)) == 0
    header, rows, _ = read_csv(out)
    assert header == ["family", "k0", "epsilon", "alpha", "arp", "radial_center"]
    morlet = [r for r in rows if r[0] == "morlet"]
    gcm = [r for r in rows if r[0] == "gcm"]
    arps = [float(r[4]) for r in morlet]
    assert arps == sorted(arps, reverse=True)  # strictly decreasing down the list
    assert all(a > b for a, b in zip(arps, arps[1:]))
    cell = 2 * 32.0 / 512
    for row, k0 in zip(morlet, (6.0, 12.0, 22.0)):
        assert abs(float(row[5]) - k0) <= cell
    centers = {float(r[5]) for r in gcm}
    assert len(centers) == 1  # radial center does not move with aperture
    assert abs(centers.pop() - math.sqrt(20)) <= cell


def test_compare_aperture_morlet_only(tmp_path):
    out = tmp_path / "morlet_only.csv"
    assert run("compare-aperture", "--gcm-alpha", "", "--out", str(out)) == 0
    _, rows, _ = read_csv(out)
    assert all(r[0] == "morlet" for r in rows)


def test_compare_aperture_list_mismatch_exits_2(tmp_path):
    assert run("compare-aperture", "--morlet-k0", "6,12", "--morlet-eps", "1",
               "--out", str(tmp_path / "x.csv")) == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-2"])
def test_compare_aperture_bad_kmax_exits_2_and_writes_nothing(tmp_path, value):
    code = run("compare-aperture", "--grid-n", "9", f"--kmax={value}",
               "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["0", "-3"])
def test_compare_aperture_grid_n_below_1_exits_2_and_writes_nothing(tmp_path, capsys, value):
    code = run("compare-aperture", f"--grid-n={value}", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "--grid-n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [("--morlet-eps", "nan,2,8"), ("--morlet-k0", "inf,12,22")])
def test_compare_aperture_non_finite_morlet_exits_2_and_writes_nothing(tmp_path, flags):
    code = run("compare-aperture", *flags, "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert list(tmp_path.iterdir()) == []
