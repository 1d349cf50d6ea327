"""One run of one workload, in a fresh process: generate, time, check.

Usage (from the root of a checkout, with src on PYTHONPATH):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out RESULT.json [--spans SPANS.json]

The job list is made from the seed before timing.  Each job is one closed
loop call into freearr's public API; only the calls are timed, and the
host's speed is measured between them (hostspeed.py).  Answers are checked
after the timed loop, with tracing removed.  The result file holds per-job
latencies, raw and in reference seconds, and check outcomes; run.py turns
it into metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import hostspeed  # noqa: E402
from trace import JOB, Tracer  # noqa: E402

from freearr import arrangement, cli, freeness, moduli  # noqa: E402
from freearr.scalars import IntPoly, QuadElem, quad_field  # noqa: E402


# --- inputs in the program's own types, prepared before timing --------------

def to_program_columns(job):
    """Columns as freearr scalars, and the domain they live in."""
    ring = job["ring"]
    if ring == "QQ":
        return [tuple(Fraction(x) for x in c) for c in job["cols"]], None
    return ([tuple(QuadElem(ring, x.a, x.b) for x in c)
             for c in job["cols"]], quad_field(ring))


def to_program_family(job):
    return moduli.Family(f"job{job['id']}", tuple(
        tuple(IntPoly(p) for p in col) for col in job["family"]))


def prepare(workload: str, jobs, files_dir: str):
    if workload == "freeness_stream":
        return [arrangement.build(*to_program_columns(j)) for j in jobs]
    if workload == "report_cli":
        paths = {}
        for j in jobs:
            key = j["id"] if j["repeat_of"] is None else j["repeat_of"]
            path = os.path.join(files_dir, f"job{key}.fam")
            if key not in paths:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(j["text"])
                paths[key] = path
        return [paths[j["id"] if j["repeat_of"] is None else j["repeat_of"]]
                for j in jobs]
    return [to_program_family(j) for j in jobs]


# --- the timed calls ---------------------------------------------------------

def call_freeness(arr):
    return freeness.decide_freeness(arr)


def call_report(path):
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(["report", path, "--format", "json"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def call_moduli(fam):
    rep = moduli.degeneracy_set(fam)
    specs = [moduli.specialize(fam, v) for v in sorted(rep.rational)]
    for coeffs in sorted(rep.quadratic):
        root = checks.quadratic_root(coeffs)
        specs.append(moduli.specialize(fam, QuadElem(root.d, root.a,
                                                     root.b)))
    return rep, specs


CALLS = {"freeness_stream": call_freeness, "report_cli": call_report,
         "moduli_families": call_moduli}


def run(workload: str, seed: int, seconds: float, trace: bool,
        files_dir: str, spans_path: str | None):
    jobs = gen.make_jobs(workload, seed, seconds)
    inputs = prepare(workload, jobs, files_dir)
    call = CALLS[workload]
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    latencies, outputs, refs = [], [], [hostspeed.measure()]
    for job, inp in zip(jobs, inputs):
        if tracer:
            tracer.job = job["id"]
            root = tracer.open(JOB)
        t0 = perf_counter()
        try:
            out = call(inp)
        except Exception as exc:  # a raising job is a failed job
            out = exc
        latencies.append(perf_counter() - t0)
        if tracer:
            tracer.close(root)
            tracer.job = None
        outputs.append(out)
        refs.append(hostspeed.measure())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        if spans_path:
            tracer.write(spans_path)
    outcomes = [checks.check(workload, job, inp, out, outputs)
                for job, inp, out in zip(jobs, inputs, outputs)]
    return {
        "workload": workload, "seed": seed, "traced": trace,
        "latencies_s": latencies,
        "latencies_ref_s": [hostspeed.to_reference(t, refs[i], refs[i + 1])
                            for i, t in enumerate(latencies)],
        "host_ref_s": refs, "peak_rss_mb": peak_rss_mb,
        "outcomes": outcomes, "manifest": gen.manifest(workload, jobs),
        "layers": layers,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(CALLS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    files_dir = os.path.join(os.path.dirname(os.path.abspath(args.out)),
                             f"files-seed{args.seed}")
    os.makedirs(files_dir, exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 files_dir, args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
