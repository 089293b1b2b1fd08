"""Output checks: wrong speeds, angles and frame bounds count as failed."""

import json
import math
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def scene(v, theta=0.0):
    return wl.Scene(v=v, theta=theta, shape=(64, 64, 16), snr_db=None)


def test_speed_within_two_steps_passes_and_beyond_fails():
    assert wl.check_speed(3.4, scene(3.0)).ok
    wrong = wl.check_speed(3.6, scene(3.0))
    assert not wrong.ok and not wrong.known_defect
    assert wrong.speed_errors == [0.6000000000000001]


CS = [1.0 + 0.25 * j for j in range(21)]


def test_out_of_grid_speed_is_a_known_defect_only_with_a_real_peak():
    rising = [(c, c) for c in CS]  # the clipped peak of a speed above the grid
    out = wl.check_speed(6.0, scene(6.8), rising)
    assert not out.ok and out.known_defect and out.speed_errors == []
    assert wl.check_speed(6.0, scene(6.3), rising).ok
    for curve in ([(c, 0.0) for c in CS], [(c, 2.0) for c in CS], [(c, math.nan) for c in CS],
                  rising[:-1] + [(6.0, math.inf)], ()):
        out = wl.check_speed(6.0, scene(6.8), curve)
        assert not out.ok and not out.known_defect
    out = wl.check_speed(1.0, scene(6.8), rising)  # v_m away from the curve's peak
    assert not out.ok and not out.known_defect


def test_in_grid_wrong_speed_without_a_peak_at_the_true_speed_fails():
    falling = [(c, 7.0 - c) for c in CS]
    edge = wl.check_speed(1.0, scene(5.3), falling)  # peak on the grid's low end
    assert not edge.ok and not edge.known_defect and edge.speed_errors == [4.3]
    assert wl.check_speed(1.0, scene(1.4), falling).ok
    single = [(c, 1.0 / (1 + (c - 1.5) ** 2)) for c in CS]
    out = wl.check_speed(1.5, scene(5.6), single)
    assert not out.ok and not out.known_defect


def test_fold_over_a_strict_peak_at_the_true_speed_is_a_known_defect():
    folded = [(c, 1.0 / (1 + (c - 1.5) ** 2) + 0.7 / (1 + 9 * (c - 5.5) ** 2)) for c in CS]
    out = wl.check_speed(1.5, scene(5.6), folded)
    assert not out.ok and out.known_defect
    plateau = [(c, 1.0 if c <= 1.5 else 0.5) for c in CS]  # ties are no peak
    out = wl.check_speed(1.0, scene(5.6), plateau)
    assert not out.ok and not out.known_defect


def test_flat_or_zero_scan_counts_in_failed():
    zero = dict(v_m=1.0, c_values=CS, energies=[0.0] * len(CS))
    state = {"scenes": [scene(3.0), scene(7.0)]}
    outcomes = [wl.ScanLarge().check(state, i, types.SimpleNamespace(**zero, no_motion=flag))
                for i in (0, 1) for flag in (True, False)]
    assert run.summarize(outcomes)[:3] == (4, 4, 0)


def test_scan_output_of_an_earlier_op_is_not_graded(tmp_path):
    csv = tmp_path / "scan.csv"
    csv.write_text("c,energy\n3.0,1.0\n# v_m=3.0\n")
    cw = types.SimpleNamespace(cli=types.SimpleNamespace(main=lambda argv: 0))
    s = scene(3.0)
    s.path = str(tmp_path / "scene.stv")
    state = {"scenes": [s], "csv": str(csv)}
    out = wl.ScanSmallCli().check(state, 0, wl.ScanSmallCli().op(cw, state, 0))
    assert not out.ok and not out.known_defect


def test_wrong_best_angle_fails():
    theta = float(wl.THETA_GRID[10])
    rows = [(a, 3.0) for a in (math.pi / 8, math.pi / 16, math.pi / 64, math.pi / 256)]
    assert wl.check_orientation(theta, rows, scene(3.0, theta)).ok
    for best in (wl.THETA_GRID[11], wl.THETA_GRID[8]):
        out = wl.check_orientation(float(best), rows, scene(3.0, theta))
        assert not out.ok and not out.known_defect
    fast = [(a, 5.5) for a, _ in rows]  # fast motion: one step off is known, two are not
    assert wl.check_orientation(theta, fast, scene(5.5, theta)).ok
    for best, known in ((9, True), (11, True), (12, False)):
        out = wl.check_orientation(float(wl.THETA_GRID[best]), fast, scene(5.5, theta))
        assert not out.ok and out.known_defect == known


def test_wrong_aperture_speed_fails_and_is_known_only_for_the_undersampled_cone():
    oblique = float(wl.THETA_GRID[13])
    axis = float(wl.THETA_GRID[16])  # theta = 0
    too_slow = [(math.pi / 8, 3.0), (math.pi / 16, 3.0), (math.pi / 64, 1.0), (math.pi / 256, 1.25)]
    out = wl.check_orientation(oblique, too_slow, scene(3.0, oblique))
    assert not out.ok and out.known_defect
    out = wl.check_orientation(axis, too_slow, scene(3.0, axis))
    assert not out.ok and not out.known_defect
    out = wl.check_orientation(float(wl.THETA_GRID[14]), too_slow, scene(3.0, oblique))
    assert not out.ok and not out.known_defect  # wrong best angle too
    too_fast = [(math.pi / 8, 3.0), (math.pi / 16, 3.0), (math.pi / 64, 3.0), (math.pi / 256, 4.5)]
    out = wl.check_orientation(oblique, too_fast, scene(3.0, oblique))
    assert not out.ok and not out.known_defect
    wide_wrong = [(math.pi / 8, 3.0), (math.pi / 16, 1.0), (math.pi / 64, 3.0), (math.pi / 256, 3.0)]
    out = wl.check_orientation(oblique, wide_wrong, scene(3.0, oblique))
    assert not out.ok and not out.known_defect


def test_frame_bounds_reference():
    reference = json.loads(wl.FRAME_BOUNDS_REFERENCE.read_text())
    assert wl.check_frame_bounds(dict(reference, tag="extra"), reference).ok
    nudged = dict(reference, upper_bound=reference["upper_bound"] * (1 + 1e-9))
    assert wl.check_frame_bounds(nudged, reference).ok
    for key, value in (("upper_bound", reference["upper_bound"] * 1.001),
                       ("valid_frame", False), ("grid_size", 32)):
        assert not wl.check_frame_bounds(dict(reference, **{key: value}), reference).ok
    missing = {k: v for k, v in reference.items() if k != "ratio"}
    assert not wl.check_frame_bounds(missing, reference).ok


def test_loop_counts_raised_and_wrong_ops_as_failed():
    def call(i):
        if i == 1:
            raise RuntimeError("boom")
        return i

    def check(i, result):
        return wl.check_speed(3.0 if result == 0 else 5.0, scene(3.0))

    (lat,), outcomes, _ = run.timed_loop([call], check, seconds=0, min_steps=3)
    assert len(lat) == 3
    attempted, unexpected, known, errors = run.summarize(outcomes)
    assert (attempted, unexpected, known) == (3, 2, 0)
    assert [o.op for o in outcomes] == [0, 1, 2]
    assert "boom" in outcomes[1].detail
    (lat,), _, _ = run.timed_loop([call], check, seconds=0, min_steps=1, round_steps=4)
    assert len(lat) == 4


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail([0.1] * 19) == (None, None)
    name, _ = run.tail([float(i) for i in range(100)])
    assert name == "op_p90_s"
    name, value = run.tail([float(i) for i in range(1000)])
    assert name == "op_p99_s" and abs(value - 989.01) < 1e-9
