"""conewave benchmark: four seeded workloads, end-to-end and per-layer metrics.

One run measures one workload in one process, as a closed loop with a
single client (each op starts when the previous one has finished and its
output has been checked):

    python3 perfbench/run.py --workload scan-small-cli --seed 1 --seconds 24 --trace 0

--trace 0 reports the end-to-end metrics (setup_s, ops_per_s, op_p50_s,
op_p90_s, peak_rss_mb) measured with no tracing.  --trace 1 runs each op
untraced and then traced, and reports the per-layer metrics of tracer.py.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give every
figure with its unit and sample count, the wrong answers the checks found,
and the run's metadata.  A full report and, for traced runs, the spans go
to perfbench/_work/.

    python3 perfbench/run.py --all --seed 1 --seconds 10

runs every workload untraced and twice traced, each in its own process,
prints every end-to-end metric per workload and shows whether the exact
counts of the two traced runs agree.

`failed` in the JSON line counts ops that raised, exited with an
unexpected code or gave a wrong answer, except wrong answers of a known
defect (see workloads.Outcome); the report's failed_ratio counts those too.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
IMPORT_REPEATS = 11
# numpy is loaded before the clock starts: its load time follows the host's
# page cache, not this program, and swings by 2x between minutes.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import numpy; "
    "t = time.perf_counter(); import conewave.cli; print(repr(time.perf_counter() - t))"
)
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def load_conewave():
    """Import conewave from this checkout's src/, or exit with an error if it is not there."""
    if not (SRC / "conewave" / "__init__.py").is_file():
        sys.exit(f"error: no conewave sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import conewave.cli
    import conewave.speedscan
    import conewave.stvio
    import conewave.synth

    if Path(conewave.__file__).resolve().parent != (SRC / "conewave").resolve():
        sys.exit(f"error: imported conewave from {conewave.__file__}, not from {SRC}")
    return types.SimpleNamespace(cli=conewave.cli, speedscan=conewave.speedscan,
                                 stvio=conewave.stvio, synth=conewave.synth)


def metadata(seed):
    """Versions, cores, BLAS threads, seed and the code measured."""
    import numpy as np

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "conewave").glob("*.py")):
        digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    threads = {k: os.environ[k] for k in thread_vars if k in os.environ}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": threads or "library default (no thread variable set)",
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def measure_import():
    """Seconds to import conewave.cli in a fresh interpreter that has numpy loaded."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def timed_loop(calls, check, seconds, min_steps, round_steps=1):
    """Closed loop: at step i run each of `calls` on op i and check its result.

    Stops after a whole number of rounds of round_steps steps, once
    min_steps steps have run and another round of median-length steps would
    end past `seconds`.  Returns (latencies of each call, outcomes, wall
    seconds of the phase).
    """
    latencies = [[] for _ in calls]
    outcomes = []
    start = time.perf_counter()
    i = 0
    while True:
        for call, lat in zip(calls, latencies):
            t0 = time.perf_counter()
            try:
                result = call(i)
            except Exception as exc:  # a failing op is counted, and the loop goes on
                lat.append(time.perf_counter() - t0)
                outcome = workloads.Outcome(ok=False, detail=f"raised {exc!r}")
            else:
                lat.append(time.perf_counter() - t0)
                try:
                    outcome = check(i, result)
                except Exception as exc:
                    outcome = workloads.Outcome(ok=False, detail=f"check raised {exc!r}")
            outcome.op = i
            outcomes.append(outcome)
        i += 1
        if i % round_steps:
            continue
        step = sum(statistics.median(lat) for lat in latencies)
        if i >= min_steps and time.perf_counter() - start + round_steps * step > seconds:
            return latencies, outcomes, time.perf_counter() - start


def tail(latencies):
    """(name, value) of the highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    for p in TAIL_PERCENTILES:
        if n * (1000 - round(p * 10)) >= 10 * 1000:
            cut = statistics.quantiles(latencies, n=1000, method="inclusive")
            return f"op_p{p:g}_s", cut[round(p * 10) - 1]
    return None, None


def p90(latencies):
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=10, method="inclusive")[8]


def summarize(outcomes):
    """(attempted, unexpected failures, known-defect failures, speed errors)."""
    known = sum(1 for o in outcomes if not o.ok and o.known_defect)
    unexpected = sum(1 for o in outcomes if not o.ok and not o.known_defect)
    return len(outcomes), unexpected, known, [e for o in outcomes for e in o.speed_errors]


def figure(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def run_untraced(wl, cw, seed, seconds, workdir, report):
    """Set up SETUP_REPEATS times, warm up, then time ops; fills report["metrics"].

    setup_s is the median import time of conewave plus the median time to
    generate the inputs and write them.  Imports and set-ups alternate, so
    that a slow spell of the machine falls on both alike.
    """
    import_times, setup_times = [], []
    for k in range(IMPORT_REPEATS):
        import_times.append(measure_import())
        if k < SETUP_REPEATS:
            t0 = time.perf_counter()
            state = wl.setup(cw, seed, workdir)
            setup_times.append(time.perf_counter() - t0)
    import_s = statistics.median(import_times)
    inputs_s = statistics.median(setup_times)

    for i in range(wl.warmup_ops):
        wl.op(cw, state, i)
    (lat,), outcomes, wall = timed_loop([lambda i: wl.op(cw, state, i)],
                                        lambda i, r: wl.check(state, i, r), seconds, 1,
                                        wl.round_ops)
    attempted, unexpected, known, errors = summarize(outcomes)
    failed = unexpected + known
    n = len(lat)
    report["metrics"] = {
        "setup_s": figure(import_s + inputs_s, "s", SETUP_REPEATS),
        "ops_per_s": figure(n / wall, "1/s", n),
        "op_p50_s": figure(statistics.median(lat), "s", n),
        "op_p90_s": figure(p90(lat), "s", n),
        "peak_rss_mb": figure(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    report["extra"] = {
        "failed_ratio": figure(failed / attempted, "ratio", attempted),
        "known_defect_ratio": figure(known / attempted, "ratio", attempted),
        "speed_err_p50": figure(statistics.median(errors) if errors else None,
                                "px/frame", len(errors)),
        "setup_import_s": figure(import_s, "s", IMPORT_REPEATS),
        "setup_inputs_s": figure(inputs_s, "s", SETUP_REPEATS),
    }
    tail_name, tail_value = tail(lat)
    if tail_name:
        report["extra"][tail_name] = figure(tail_value, "s", n)
    report["notes"] = [
        f"tail: {tail_name or 'no percentile has ten samples beyond it'}; "
        f"op_p90_s is interpolated from {n} samples",
    ]
    return outcomes


def run_traced(wl, cw, seed, seconds, workdir, report, spans_path):
    """Traced set-up, then each op untraced and traced in turn; fills report["metrics"]."""
    rec = tracer.Recorder()
    rec.install()
    try:
        state = wl.setup(cw, seed, workdir)
    finally:
        rec.uninstall()
    for i in range(wl.warmup_ops):
        wl.op(cw, state, i)
    traced_op = rec.wrap(wl.op, "bench.op", "bench")

    def traced(i):
        rec.op = i
        rec.install()
        try:
            return traced_op(cw, state, i)
        finally:
            rec.uninstall()

    # Each op runs untraced and then traced, so that a drift in machine
    # speed during the run falls on both alike.
    (lat0, lat1), outcomes, _ = timed_loop([lambda i: wl.op(cw, state, i), traced],
                                           lambda i, r: wl.check(state, i, r), seconds,
                                           wl.count_ops, wl.round_ops)
    rec.op = None
    rec.write(spans_path)

    n = len(lat1)
    m = tracer.layer_metrics(rec, n, wl.count_ops)
    # The tracer's own figures go beside the layer metrics, not among them.
    diag = {k: m.pop(k) for k in [k for k in m if k.startswith("trace.")]}
    diag["trace.ops_per_s"] = n / sum(lat1)
    diag["trace.untraced_ops_per_s"] = n / sum(lat0)
    diag["trace.slowdown"] = sum(lat1) / sum(lat0)
    diag["trace.layer_sum_ratio"] = (sum(m[f"{layer}.self_s"] for layer in tracer.OP_LAYERS)
                                     / (sum(lat0) / n))
    report["metrics"] = {
        k: figure(m[k], tracer.unit(k), wl.count_ops if k in tracer.COUNT_METRICS else n)
        for k in tracer.PER_LAYER
    }
    report["extra"] = {k: figure(v, tracer.unit(k), n) for k, v in diag.items()}
    report["notes"] = [
        f"absent wrapped names: {rec.absent or 'none'}",
        f"counter errors: {rec.counter_errors or 'none'}",
        "waiting time: not applicable, no layer queues work",
        "*_bytes_computed come from array sizes and ignore caches; no bandwidth or roofline "
        "ratio is given, since no array here is four times the last-level cache",
        f"spans: {spans_path.relative_to(ROOT)}",
    ]
    return outcomes


def run_one(args):
    cw = load_conewave()
    wl = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    tag = f"{wl.name}-s{args.seed}"
    workdir = WORK / f"{tag}-p{os.getpid()}"
    workdir.mkdir()
    report = {"workload": wl.name, "why": wl.why, "trace": args.trace,
              "seconds": args.seconds, "client": "closed loop, one client, one process",
              "meta": metadata(args.seed)}
    try:
        if args.trace:
            outcomes = run_traced(wl, cw, args.seed, args.seconds, workdir, report,
                                  WORK / f"spans-{tag}.csv")
        else:
            outcomes = run_untraced(wl, cw, args.seed, args.seconds, workdir, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, unexpected, _, _ = summarize(outcomes)
    report["attempted"] = attempted
    report["failed"] = unexpected
    report["wrong"] = [f"op {o.op}{' (known defect)' if o.known_defect else ''}: {o.detail}"
                       for o in outcomes if not o.ok]
    (WORK / f"report-{tag}-t{args.trace}.json").write_text(json.dumps(report, indent=2))

    for key, value in report["meta"].items():
        print(f"# {key}: {value}")
    print(f"# workload {wl.name}: {wl.why}")
    for key, item in {**report["metrics"], **report.get("extra", {})}.items():
        print(f"{key} {item['value']!r} {item['unit']} (n={item['samples']})")
    for line in report["notes"] + report["wrong"][:5]:
        print(f"# {line}")
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": unexpected,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in report["metrics"].items()},
    }))
    return 0


def run_all(args):
    """Every workload: one untraced and two traced runs, each in its own process."""
    load_conewave()  # fail early, before starting any run
    cmd = [sys.executable, str(HERE / "run.py"), "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    ok = True
    for name, wl in workloads.WORKLOADS.items():
        runs = []
        for trace in (0, 1, 1):
            done = subprocess.run(cmd + ["--workload", name, "--trace", str(trace)],
                                  capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(done.stdout + done.stderr)
                return done.returncode
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        report = json.loads((WORK / f"report-{name}-s{args.seed}-t0.json").read_text())
        print(f"\n== {name}: {wl.why}")
        print(f"   correct={runs[0]['correct']} attempted={runs[0]['attempted']} "
              f"failed={runs[0]['failed']}")
        for key, item in {**report["metrics"], **report["extra"]}.items():
            value = "n/a" if item["value"] is None else f"{item['value']:.6g}"
            print(f"   {key:<20} {value:>12} {item['unit']:<9} n={item['samples']}")
        for wrong in report["wrong"][:3]:
            print(f"   wrong: {wrong}")
        counts = [{k: r["metrics"][k]["value"] for k in tracer.COUNT_METRICS} for r in runs[1:]]
        same = counts[0] == counts[1]
        ok = ok and same and all(r["correct"] for r in runs)
        traced = json.loads((WORK / f"report-{name}-s{args.seed}-t1.json").read_text())
        per_layer = {k: v["value"] for k, v in {**traced["metrics"], **traced["extra"]}.items()}
        selfs = ", ".join(f"{layer} {per_layer[layer + '.self_s']:.4g}"
                          for layer in tracer.OP_LAYERS)
        print(f"   traced self s/op: {selfs}")
        print(f"   layer self sum / untraced op time = {per_layer['trace.layer_sum_ratio']:.4f}, "
              f"tracing slowdown {per_layer['trace.slowdown']:.4f}; "
              f"exact counts repeat across two runs: {same}")
        for key in tracer.COUNT_METRICS:
            print(f"   {key:<32} {per_layer[key]!r}")
    print("\nlayer metric -> end-to-end metric it should move")
    for layer_metrics, target in tracer.LAYER_MAP.items():
        print(f"   {layer_metrics}: {target}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
