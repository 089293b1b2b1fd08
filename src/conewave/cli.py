"""Command-line surface: scene synthesis, scans, kernel dumps, frame bounds.

Exit codes: 0 success, 2 invalid flags or configuration, 3 I/O failure,
4 no detectable motion in a scan, 5 invalid frame (non-positive lower
bound).  Every command is deterministic given its flags.
"""

import argparse
import json
import math
import re
import sys
from dataclasses import MISSING, asdict, fields

import numpy as np

from . import frames, speedscan, stvio, synth
from .kernels import (
    ConeSpec,
    GcmParams,
    GroupElement,
    MorletParams,
    apply_group,
    arp_conical,
    arp_morlet,
    eval_cauchy_2d,
    eval_centered_gcm,
    eval_gc_2d,
    eval_morlet_2d,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NO_MOTION = 4
EXIT_INVALID_FRAME = 5

_PI_LITERAL = re.compile(
    r"^(?P<sign>[+-]?)(?P<mult>\d+(?:\.\d+)?)?\s*pi(?:\s*/\s*(?P<den>\d+(?:\.\d+)?))?$"
)


def parse_angle(text: str) -> float:
    """Angle as a decimal or a pi literal such as 'pi/16', '-pi/2', '3pi/4'."""
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        pass
    match = _PI_LITERAL.match(text)
    if not match:
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}")
    value = math.pi * float(match.group("mult") or 1.0)
    if match.group("den"):
        value /= float(match.group("den"))
    return -value if match.group("sign") == "-" else value


def parse_size(text: str) -> tuple[int, int, int]:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"size must look like 64x64x16, got {text!r}")
    try:
        nx, ny, nt = (int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return nx, ny, nt


def parse_angle_list(text: str) -> list[float]:
    text = text.strip()
    if not text:
        return []
    return [parse_angle(part) for part in text.split(",")]


def parse_float_list(text: str) -> list[float]:
    text = text.strip()
    if not text:
        return []
    return [float(part) for part in text.split(",")]


def parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated values, got {text!r}")
    return float(parts[0]), float(parts[1])


def _defaults(*classes) -> dict:
    """Every field default of classes, by field name; a field whose default
    is a dataclass (the cone of GcmParams) contributes that one's fields.
    Field defaults, not instance values: GcmParams() resolves omega0."""
    values = {}
    for cls in classes:
        for f in fields(cls):
            if f.default_factory is not MISSING:
                values.update(asdict(f.default_factory()))
            elif f.default is not MISSING:
                values[f.name] = f.default
    return values


def _from_args(cls, args, **values):
    """cls from every parsed flag named like one of its fields; values win."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)
                  if hasattr(args, f.name)} | values)


def _add_kernel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--l", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--omega0", type=float)
    p.add_argument("--alpha", type=parse_angle)


def _add_scan_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--c-min", type=float)
    p.add_argument("--c-max", type=float)
    p.add_argument("--c-step", type=float)
    p.add_argument("--theta", type=parse_angle)
    p.add_argument("--a-s", type=float)
    p.add_argument("--a-t", type=float)
    p.add_argument("--refine", action="store_const", const="golden-section")
    p.add_argument("--refine-tol", type=float)
    _add_kernel_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(**_defaults(speedscan.ScanConfig))


def cmd_synth(args) -> int:
    size = dict(zip(("nx", "ny", "nt"), args.size or ()))
    spec = _from_args(synth.GaussianSceneSpec, args, **size)
    seq = synth.generate(spec)
    sidecar = {"scene": asdict(spec), "format": "STV1", "dtype": args.dtype}
    stvio.write_stv(args.out, seq, dtype=args.dtype, sidecar=sidecar)
    print(
        f"wrote {args.out}: {spec.nx}x{spec.ny}x{spec.nt} {args.dtype}, "
        f"v_r={spec.v_r} at {spec.motion_angle} rad, noise={spec.noise_sigma}"
    )
    return EXIT_OK


def cmd_scan(args) -> int:
    seq = stvio.read_stv(args.infile)
    curve = speedscan.scan_speeds(seq, _from_args(speedscan.ScanConfig, args))
    footers = [f"# v_m={curve.v_m!r}"]
    if curve.no_motion:
        footers.append("# no_detectable_motion=1")
    if curve.unbracketed:
        footers.append("# unbracketed=1")
    stvio.write_csv(args.out, "c,energy", curve.samples, footers)
    print(f"wrote {args.out}: v_m={curve.v_m}, peak={curve.peak_energy!r}")
    return EXIT_NO_MOTION if curve.no_motion else EXIT_OK


def cmd_orient_scan(args) -> int:
    seq = stvio.read_stv(args.infile)
    if not (0 < args.theta_step < math.inf
            and -math.inf < args.theta_min <= args.theta_max < math.inf):
        raise ValueError("need finite theta-min <= theta-max and a finite positive theta-step")
    count = int(math.floor((args.theta_max - args.theta_min) / args.theta_step + 1e-9)) + 1
    thetas = [args.theta_min + i * args.theta_step for i in range(count)]
    rows = speedscan.scan_orientations(seq, _from_args(speedscan.ScanConfig, args), thetas)
    stvio.write_csv(args.out, "theta,v_m,peak_energy", rows)
    best = max(rows, key=lambda r: r[2])
    print(f"wrote {args.out}: best orientation {best[0]!r} with v_m={best[1]}")
    return EXIT_OK


def cmd_aperture_sweep(args) -> int:
    seq = stvio.read_stv(args.infile)
    if not args.alpha_list:
        raise ValueError("aperture list must not be empty")
    rows = speedscan.aperture_sweep(seq, _from_args(speedscan.ScanConfig, args),
                                   args.alpha_list)
    stvio.write_csv(args.out, "alpha,v_m,peak_energy", rows)
    print(f"wrote {args.out}: {len(rows)} apertures")
    return EXIT_OK


def _require_extents(**extents) -> None:
    """Reject a frequency-grid extent that is not finite and positive (NaN too)."""
    for name, value in extents.items():
        if not 0 < value < math.inf:
            raise ValueError(f"--{name} must be finite and positive, got {value}")


def _gcm_params(args) -> GcmParams:
    return _from_args(GcmParams, args, cone=_from_args(ConeSpec, args))


def _kernel_grid(args):
    _require_extents(kmax=args.kmax, wmax=args.wmax)
    if min(args.grid) < 1:
        raise ValueError(f"--grid sizes must be at least 1, got {'x'.join(map(str, args.grid))}")
    nx, ny, nt = args.grid
    kx = np.linspace(-args.kmax, args.kmax, nx)
    ky = np.linspace(-args.kmax, args.kmax, ny)
    w = np.linspace(-args.wmax, args.wmax, nt) if nt > 1 else np.array([0.0])
    return kx, ky, w


def cmd_kernel(args) -> int:
    kx, ky, w = _kernel_grid(args)
    KX = kx[:, None, None]
    KY = ky[None, :, None]
    W = w[None, None, :]
    # morlet2d reads no GCM flag, so a bad one rejects only the other types,
    # and its sidecar then records no GCM parameters.  Only the GCM types
    # apply the motion group; the sidecar records the identity for the others.
    try:
        params = _gcm_params(args)
    except ValueError:
        if args.type != "morlet2d":
            raise
        params = None
    g = _from_args(GroupElement, args) if args.type in ("gcm", "centered-gcm") else GroupElement()
    if args.type == "gcm":
        values = apply_group(g, params, KX, KY, W)
    elif args.type == "centered-gcm":
        values = eval_centered_gcm(g, params, KX, KY, W)
    elif args.type == "gc2d":
        values = eval_gc_2d(KX, KY, params)
    elif args.type == "morlet2d":
        morlet = _from_args(MorletParams, args)
        values = eval_morlet_2d(KX, KY, morlet, with_correction=args.correction)
    elif args.type == "cauchy2d":
        values = eval_cauchy_2d(KX, KY, params.cone, args.l, args.m, args.eta)
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(f"unknown kernel type {args.type!r}")

    shape = (len(kx), len(ky), len(w))
    values = np.broadcast_to(np.asarray(values, dtype=complex), shape)
    base = args.out
    stvio.write_stv(f"{base}_real.stv", np.ascontiguousarray(values.real), dtype="float64")
    stvio.write_stv(f"{base}_imag.stv", np.ascontiguousarray(values.imag), dtype="float64")
    meta = {
        "type": args.type,
        "grid": list(args.grid),
        "kmax": args.kmax,
        "wmax": args.wmax,
        "params": None if params is None else {
            "l": args.l, "m": args.m, "sigma": args.sigma, "omega0": params.omega0,
            "alpha": args.alpha, "theta_axis": args.theta_axis},
        "group": asdict(g),
    }
    with open(f"{base}.json", "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
    print(f"wrote {base}_real.stv, {base}_imag.stv, {base}.json")
    return EXIT_OK


def cmd_frame_bounds(args) -> int:
    disc = _from_args(frames.Discretization, args)
    if args.stub_tight_frame:
        kernel = frames.tight_frame_stub(disc)
    else:
        kernel = _gcm_params(args)
    report = frames.estimate_bounds(disc, kernel)
    text = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK if report.valid_frame else EXIT_INVALID_FRAME


def _radial_center(magnitude: np.ndarray, kx: np.ndarray, ky: np.ndarray) -> float:
    i, j = np.unravel_index(np.argmax(magnitude), magnitude.shape)
    return float(math.hypot(kx[i], ky[j]))


def cmd_compare_aperture(args) -> int:
    if len(args.morlet_k0) != len(args.morlet_eps):
        raise ValueError("morlet k0 and epsilon lists must have matching lengths")
    _require_extents(kmax=args.kmax)
    if args.grid_n < 1:
        raise ValueError(f"--grid-n must be at least 1, got {args.grid_n}")
    kx = np.linspace(-args.kmax, args.kmax, args.grid_n)
    ky = np.linspace(-args.kmax, args.kmax, args.grid_n)
    KX, KY = kx[:, None], ky[None, :]
    rows = []
    for k0, eps in zip(args.morlet_k0, args.morlet_eps):
        morlet = MorletParams(k0=(k0, 0.0), epsilon=eps)
        mag = np.abs(eval_morlet_2d(KX, KY, morlet))
        rows.append(("morlet", k0, eps, "", arp_morlet(morlet), _radial_center(mag, kx, ky)))
    for alpha in args.gcm_alpha:
        params = _from_args(GcmParams, args, cone=ConeSpec(alpha=alpha))
        mag = np.abs(eval_gc_2d(KX, KY, params))
        rows.append(("gcm", "", "", alpha, arp_conical(params.cone),
                     _radial_center(mag, kx, ky)))
    stvio.write_csv(args.out, "family,k0,epsilon,alpha,arp,radial_center", rows)
    print(f"wrote {args.out}: {len(rows)} filters")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conewave",
        description="Speed-tuned directional wavelet analysis of image sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a travelling-Gaussian sequence")
    p.add_argument("--size", type=parse_size)
    p.add_argument("--speed", dest="v_r", type=float)
    p.add_argument("--motion-angle", type=parse_angle)
    p.add_argument("--sigma-x", type=float)
    p.add_argument("--sigma-y", type=float)
    p.add_argument("--pattern-angle", type=parse_angle)
    p.add_argument("--noise", dest="noise_sigma", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--amplitude", type=float)
    p.add_argument("--start", type=parse_pair)
    p.add_argument("--no-wrap", dest="wrap", action="store_false")
    p.add_argument("--dtype", choices=["float32", "float64"], default="float32")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth, **_defaults(synth.GaussianSceneSpec))

    p = sub.add_parser("scan", help="energy curve over speed tunings")
    _add_scan_flags(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("orient-scan", help="speed scans across orientations")
    _add_scan_flags(p)
    p.add_argument("--theta-min", type=parse_angle, default=-math.pi / 2)
    p.add_argument("--theta-max", type=parse_angle, default=math.pi / 2)
    p.add_argument("--theta-step", type=parse_angle, default=math.pi / 32)
    p.set_defaults(func=cmd_orient_scan)

    p = sub.add_parser("aperture-sweep", help="speed scans across apertures")
    _add_scan_flags(p)
    p.add_argument("--alpha-list", type=parse_angle_list,
                   default=[math.pi / 8, math.pi / 16, math.pi / 64, math.pi / 256])
    p.set_defaults(func=cmd_aperture_sweep)

    p = sub.add_parser("kernel", help="dump a kernel sampled on a frequency grid")
    p.add_argument("--type", required=True,
                   choices=["gcm", "gc2d", "morlet2d", "cauchy2d", "centered-gcm"])
    p.add_argument("--grid", type=parse_size, default=(128, 128, 1))
    p.add_argument("--kmax", type=float, default=8.0)
    p.add_argument("--wmax", type=float, default=8.0)
    _add_kernel_flags(p)
    p.add_argument("--theta-axis", type=parse_angle)
    p.add_argument("--theta", type=parse_angle)
    p.add_argument("--a-s", type=float)
    p.add_argument("--a-t", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--bx", type=float)
    p.add_argument("--by", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--k0", type=parse_pair)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--correction", action="store_true")
    p.add_argument("--eta", type=parse_pair, default=(1.0, 0.0))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kernel, **_defaults(GcmParams, GroupElement, MorletParams))

    p = sub.add_parser("frame-bounds", help="estimate frame bounds for a family")
    p.add_argument("--a0", type=float)
    p.add_argument("--c0", type=float)
    p.add_argument("--q1", type=int)
    p.add_argument("--bx0", dest="b_x0", type=float)
    p.add_argument("--by0", dest="b_y0", type=float)
    p.add_argument("--tau0", type=float)
    p.add_argument("--scale-range", type=int)
    p.add_argument("--grid-size", type=int)
    p.add_argument("--gamma-range", type=int)
    p.add_argument("--gamma-stride", type=int)
    p.add_argument("--stub-tight-frame", action="store_true",
                   help="swap in the constructed tight-frame kernel (verification)")
    _add_kernel_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_frame_bounds, **_defaults(frames.Discretization, GcmParams))

    p = sub.add_parser("compare-aperture", help="radial stability across apertures")
    p.add_argument("--morlet-k0", type=parse_float_list, default=[6.0, 12.0, 22.0])
    p.add_argument("--morlet-eps", type=parse_float_list, default=[1.0, 2.0, 8.0])
    p.add_argument("--gcm-alpha", type=parse_angle_list,
                   default=[math.pi / 256, math.pi / 64, math.pi / 16])
    p.add_argument("--l", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--grid-n", type=int, default=513)
    p.add_argument("--kmax", type=float, default=32.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare_aperture, **_defaults(GcmParams))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
