"""normlab benchmark: closed-loop, single-client request streams.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pspec --seed 1 --seconds 8 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): pspec, opnorm,
renorm, acceptance.  Each seed gives a fixed list of requests.  The run
sends the list in passes -- at least two, and more while --seconds
leaves room; one if the first pass alone takes longer than --seconds --
checks every output, and prints one JSON result as the last line of
stdout.  --trace 0 reports the end-to-end metrics, as times at a nominal
host speed (see refspeed.py); --trace 1 runs one traced pass and reports
the per-layer metrics listed in BENCHMARK.json, and writes its spans to
.perfbench/ in the checkout.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads: one client, one thread, and
# never more threads than cores (numpy's bundled OpenBLAS is built for 64).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refspeed

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
SETUP_PROBES = 25
WARM_PROBES = 200
MIN_PASSES = 2
WORKLOADS = ("pspec", "opnorm", "renorm", "acceptance")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true",
                    help="import, build the inputs, warm up, print 'ready'")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def environment():
    import importlib.util
    import platform

    import numpy as np
    import scipy

    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "blas": dict(name=blas.get("name"), version=blas.get("version"),
                     **_openblas_runtime()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cvxpy": "present" if importlib.util.find_spec("cvxpy") else "absent",
    }


def _openblas_runtime():
    """Thread count and build line, asked of the OpenBLAS numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libdir, "*scipy_openblas*")):
        lib = ctypes.CDLL(path)
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
        return {"threads": lib.scipy_openblas_get_num_threads64_(),
                "config": lib.scipy_openblas_get_config64_().decode()}
    return {"threads": None, "config": None}


def timed_setup(args, probes):
    """Calibrated seconds from spawning a fresh interpreter to its first
    request, with the raw seconds.  The reference work runs in bursts just
    before and just after the child, while this process waits for nothing.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    probes.burst(SETUP_PROBES)
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError("setup child failed (exit %d, %r)" % (rc, line))
    probes.burst(SETUP_PROBES)
    return t0, elapsed


def run_request(req, tracer, probes, rid):
    """(output or None, error or None, start, seconds) of one timed request;
    the seconds leave out the probes taken during it."""
    if tracer is not None:
        tracer.request = rid
        tracer.active = True
    stolen = probes.stolen
    t0 = time.perf_counter()
    try:
        out, err = req.run(), None
    except Exception as exc:  # a failed request is counted, the run goes on
        out, err = None, "%s: %s" % (type(exc).__name__, exc)
    dt = time.perf_counter() - t0 - (probes.stolen - stolen)
    if tracer is not None:
        tracer.active = False
    return out, err, t0, dt


def run_passes(schedule, seconds, tracer, probes, workloads):
    """Run the pass, check the outputs, and time the reference work in the
    gap before every request, after the last and every refspeed.TICK
    seconds during requests (untraced runs only).

    Untraced, the pass runs at least MIN_PASSES times and again while the
    time spent leaves room for one more, or once if the first pass alone
    takes longer than ``seconds``; traced, once.  The first output of each
    distinct request goes through its check; every later output must repeat
    it exactly.  Returns the distinct requests, the (request, start,
    seconds) of every timed sample in order, the pass wall times, the
    number of requests sent, the failures, and the notes the checks
    returned.
    """
    distinct = list(dict.fromkeys(schedule))
    slot = {req: k for k, req in enumerate(distinct)}
    first = [None] * len(distinct)
    samples, walls, failures, notes = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    if tracer is None:
        probes.gap()
    while True:
        outs = []
        pass_start = time.perf_counter()
        with (probes.ticking() if tracer is None else contextlib.nullcontext()):
            for req in schedule:
                k = slot[req]
                out, err, t0, dt = run_request(req, tracer, probes, k)
                if tracer is None:
                    probes.gap()
                outs.append((k, out, err))
                samples.append((k, t0, dt))
        walls.append(time.perf_counter() - pass_start)
        for k, out, err in outs:
            attempted += 1
            if err is None:
                try:
                    if first[k] is None:
                        notes += distinct[k].check(out) or []
                        first[k] = repr(out)
                    elif repr(out) != first[k]:
                        err = "output differs from its first run"
                except workloads.CheckError as exc:
                    err = str(exc)
            if err is not None:
                failures.append("%s #%d: %s" % (distinct[k].kind, k, err))
        spent = time.perf_counter() - start
        if tracer is not None or walls[0] > seconds:
            break
        if (len(walls) >= MIN_PASSES
                and spent + spent / len(walls) > seconds):
            break
    return distinct, samples, walls, attempted, failures, notes


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "normlab" / "__init__.py").is_file():
        sys.stderr.write("error: no normlab sources under %s\n" % src)
        return 2
    sys.path.insert(0, str(src))
    import tracing
    import workloads

    schedule = workloads.build(args.workload, args.seed)
    for req in workloads.warmup(args.workload):
        req.check(req.run())
    if args.setup_only:
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    tracer = None
    probes = refspeed.Probes()
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    else:
        refspeed.Probes().burst(WARM_PROBES)
        setups = [timed_setup(args, probes) for _ in range(SETUP_REPEATS)]

    reqs, samples, walls, attempted, failures, notes = run_passes(
        schedule, args.seconds, tracer, probes, workloads)
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "requests": len(reqs),
              "sent_per_pass": len(schedule), "passes": len(walls),
              "pass_wall_s": walls, "fail_ratio": len(failures) / attempted,
              "failures": failures[:10], "notes": notes,
              "env": environment()}

    if tracer is not None:
        tracer.uninstall()
        span_cost, count_cost = tracing.calibrate()
        overhead = tracing.estimated_overhead(tracer, span_cost, count_cost)
        values = tracing.layer_metrics(tracer, walls[0], overhead)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / ("spans-%s-%d.csv" % (args.workload, args.seed))
        tracer.write_spans(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        detail["wrapper_cost_us"] = {"span": span_cost * 1e6,
                                     "count": count_cost * 1e6}
    else:
        # a request's latency is the median of its calibrated runs
        runs = [[] for _ in reqs]
        raw = [[] for _ in reqs]
        for k, t0, dt in samples:
            runs[k].append(probes.calibrated(t0, dt))
            raw[k].append(dt)
        lat = [statistics.median(v) for v in runs]
        setup_cal = [probes.calibrated(t0, dt) for t0, dt in setups]
        values = {
            "setup_s": statistics.median(setup_cal),
            "wall_s": math.fsum(lat),
            "op_p50_ms": tracing.percentile_ms(lat, 50),
            "op_p90_ms": tracing.percentile_ms(lat, 90),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        detail["host_speed"] = probes.speed()
        detail["raw_wall_s"] = math.fsum(statistics.median(v) for v in raw)
        detail["setup_runs_s"] = setup_cal
        detail["setup_raw_s"] = [dt for _, dt in setups]
        kinds = {}
        for req, t in zip(reqs, lat):
            kinds.setdefault(req.kind, []).append(t)
        detail["kind_median_ms"] = {k: statistics.median(v) * 1e3
                                    for k, v in sorted(kinds.items())}

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
