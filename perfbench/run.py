"""The freearr benchmark: one command, one seed, every metric.

Run from the root of a source checkout (no install needed):

    python3 perfbench/run.py --workload freeness_stream --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # everything

`--workload all` runs each workload untraced and traced and prints every
end-to-end metric, the answer checks, the per-layer metrics and the
tracing overhead.  With one workload, `--trace 0` reports the end-to-end
metrics and `--trace 1` the per-layer ones.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

Each workload runs in a fresh single-threaded worker process (worker.py)
as a closed loop with one caller; `setup_s` is measured in separate fresh
processes that only import freearr.  Gated times are in reference seconds
(hostspeed.py); the raw ones are printed beside them.  Spans of the traced
run are written to .perfbench/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("freeness_stream", "report_cli", "moduli_families")
SETUP_LAUNCHES = 21
RUN_LIMIT_S = 170               # one workload's run must end within 180 s
# The import that setup_s times: the package and every public submodule.
IMPORT_ALL = (
    "import importlib, pkgutil, time, freearr\n"
    "for m in pkgutil.iter_modules(freearr.__path__):\n"
    "    if not m.name.startswith('_'):\n"
    "        importlib.import_module('freearr.' + m.name)\n"
    "print(repr(time.perf_counter()))\n"
)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
from hostspeed import REF_SLICE_S  # noqa: E402


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def check_checkout():
    init = os.path.join(SRC, "freearr", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no freearr sources under {SRC}; run from the root "
                         "of a freearr checkout")
    os.makedirs(OUT_DIR, exist_ok=True)


def measure_setup() -> tuple[float, float]:
    """Median time from process launch until freearr and all its
    submodules are imported, in reference seconds and in raw seconds.  Each
    launch is scaled by the host speed measured just before and just after
    it, as the jobs are."""
    ref, raw = [], []
    for _ in range(SETUP_LAUNCHES):
        before = hostspeed.measure()
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_ALL], cwd=ROOT,
                              env=child_env(), capture_output=True,
                              text=True, timeout=60)
        after = hostspeed.measure()
        if proc.returncode:
            raise BenchError(f"importing freearr failed:\n{proc.stderr}")
        launch_s = float(proc.stdout) - t0
        raw.append(launch_s)
        ref.append(hostspeed.to_reference(launch_s, before, after))
    return statistics.median(ref), statistics.median(raw)


def run_worker(workload: str, seed: int, seconds: float, trace: bool,
               deadline: float):
    tag = f"{workload}-seed{seed}-{'traced' if trace else 'plain'}"
    out = os.path.join(OUT_DIR, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--out", out]
    if trace:
        cmd += ["--spans", os.path.join(OUT_DIR, f"{tag}-spans.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(deadline - perf_counter(), 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag}: the run exceeded {RUN_LIMIT_S} s")
    if proc.returncode:
        raise BenchError(f"{tag}: worker failed\n{proc.stderr[-4000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values, q: int, steps: int = 32) -> float:
    """Harrell-Davis estimate of the q-th percentile: a mean of all order
    statistics, weighted by the Beta((n+1)p, (n+1)(1-p)) mass over each
    one's slot.  It moves less with the noise of the one or two jobs next
    to the percentile than the interpolated order statistic does."""
    xs = sorted(values)
    n, p = len(xs), q / 100
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if x <= 0 or x >= 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                        - log_beta)

    weights = []
    for i in range(n):       # Simpson's rule over [i/n, (i+1)/n]
        h = 1 / (n * steps)
        ys = [density(i / n + k * h) for k in range(steps + 1)]
        weights.append(h / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2])
                                + 2 * sum(ys[2:-1:2])))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(result, setup: tuple[float, float]) -> dict:
    """Gated metrics first; times are in reference seconds (hostspeed.py).
    The raw_* times, the host speed and the two shares that are 0 when
    nothing fails or gives up are printed only."""
    lat = result["latencies_ref_s"]
    raw = result["latencies_s"]
    host_speed = REF_SLICE_S / statistics.median(result["host_ref_s"])
    outcomes = result["outcomes"]
    n = len(outcomes)
    failed = sum(not o["ok"] for o in outcomes)
    undecided = sum(o["undecided"] for o in outcomes)
    return {
        "wall_s": (sum(lat), "s"),
        "job_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "job_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "setup_s": (setup[0], "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_frac": (1 - failed / n, "ratio"),
        "decided_frac": (1 - undecided / n, "ratio"),
        "raw_wall_s": (sum(raw), "s"),
        "raw_job_p50_ms": (percentile(raw, 50) * 1e3, "ms"),
        "raw_job_p90_ms": (percentile(raw, 90) * 1e3, "ms"),
        "raw_setup_s": (setup[1], "s"),
        "host_speed": (host_speed, "ratio"),
        "fail_frac": (failed / n, "ratio"),
        "undecided_frac": (undecided / n, "ratio"),
    }


GATED = ("wall_s", "job_p50_ms", "job_p90_ms", "setup_s", "peak_rss_mb",
         "ok_frac", "decided_frac")


def per_layer(traced, plain) -> dict:
    layers = {name: (value, _layer_unit(name))
              for name, value in traced["layers"].items()}
    overhead = (sum(traced["latencies_ref_s"])
                / sum(plain["latencies_ref_s"]) - 1)
    layers["trace_overhead_frac"] = (overhead, "ratio")
    return layers


def _layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def correctness(result):
    outcomes = result["outcomes"]
    return {
        "correct": not any(o["kind"] == "answer" for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(not o["ok"] for o in outcomes),
    }


def describe(workload: str, result, metrics: dict, title: str):
    """Human-readable block: metrics, manifest, verdict mix, failures."""
    print(f"== {workload} ({title}, seed {result['seed']}, "
          f"{len(result['latencies_s'])} jobs = latency samples)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:46s} {value:14.6g} {unit}")
    print(f"  manifest: {json.dumps(result['manifest'], sort_keys=True)}")
    mix: dict = {}
    for o in result["outcomes"]:
        mix[o["verdict"]] = mix.get(o["verdict"], 0) + 1
    print(f"  verdict mix: {json.dumps(mix, sort_keys=True)}")
    fails: dict = {}
    for o in result["outcomes"]:
        if not o["ok"]:
            key = f"{o['kind']}: {o['failure']}"
            fails[key] = fails.get(key, 0) + 1
    for key, count in sorted(fails.items()):
        print(f"  FAILED x{count} {key}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 setup: tuple[float, float], deadline: float):
    plain = run_worker(workload, seed, seconds, False, deadline)
    e2e = end_to_end(plain, setup)
    describe(workload, plain, e2e, "untraced")
    verdict = correctness(plain)
    layers = None
    if trace:
        traced = run_worker(workload, seed, seconds, True, deadline)
        layers = per_layer(traced, plain)
        describe(workload, traced, layers, "traced")
        t = correctness(traced)
        verdict = {"correct": verdict["correct"] and t["correct"],
                   "attempted": verdict["attempted"] + t["attempted"],
                   "failed": verdict["failed"] + t["failed"]}
    return e2e, layers, verdict


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = perf_counter()
    try:
        check_checkout()
        setup = measure_setup()
        if args.workload != "all":
            e2e, layers, verdict = run_workload(
                args.workload, args.seed, args.seconds, bool(args.trace),
                setup, start + RUN_LIMIT_S)
            chosen = layers if args.trace else {n: e2e[n] for n in GATED}
            metrics = {n: {"value": v, "unit": u}
                       for n, (v, u) in chosen.items()}
        else:
            metrics, verdict = {}, {"correct": True, "attempted": 0,
                                    "failed": 0}
            for workload in WORKLOADS:
                e2e, layers, v = run_workload(
                    workload, args.seed, args.seconds, True, setup,
                    perf_counter() + RUN_LIMIT_S)
                for n, (value, unit) in list(e2e.items()) + list(
                        layers.items()):
                    metrics[f"{workload}.{n}"] = {"value": value,
                                                  "unit": unit}
                verdict = {"correct": verdict["correct"] and v["correct"],
                           "attempted": verdict["attempted"]
                           + v["attempted"],
                           "failed": verdict["failed"] + v["failed"]}
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(dict(verdict, metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
