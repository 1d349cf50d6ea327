"""Self-tests of the benchmark itself.  Run from the root of a checkout:

    PYTHONPATH=src python3 perfbench/selftest.py

They check that the generators are deterministic per seed and differ
across seeds, that each answer check rejects a planted wrong answer, that
span self-times add up to their root span, that the percentile estimator
agrees with the order statistics, and that run.py refuses to run without
the program's sources.  The file is not named test_*.py so that
the repository's own test suite does not collect it.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from trace import JOB, OBSERVE, Tracer, self_times  # noqa: E402

from freearr import arrangement, freeness, induction  # noqa: E402


def expect(cond, message: str):
    if not cond:
        raise AssertionError(message)


def test_generators_are_seeded():
    for name in gen.WORKLOADS:
        a = gen.make_jobs(name, 7, 20)
        b = gen.make_jobs(name, 7, 20)
        c = gen.make_jobs(name, 8, 20)
        expect(a == b, f"{name}: same seed gave different jobs")
        expect(a != c, f"{name}: seeds 7 and 8 gave the same jobs")
        expect(len(a) >= 100, f"{name}: only {len(a)} jobs")
        expect(gen.manifest(name, a)["by_kind"]
               == gen.manifest(name, c)["by_kind"],
               f"{name}: the job mix depends on the seed")


def _small_free_job():
    # The braid arrangement A3: free with exponents (1, 2, 3).
    cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1),
            (0, 1, -1)]
    job = {"id": 0, "ring": "QQ", "cols": cols, "repeat_of": None}
    return job, arrangement.build(*worker.to_program_columns(job))


def test_freeness_check_rejects_doubled_constant():
    job, arr = _small_free_job()
    verdict = freeness.decide_freeness(arr, use_cache=False)
    ok = checks.check("freeness_stream", job, arr, verdict, [verdict])
    expect(ok["ok"], f"true certificate rejected: {ok}")
    cert = dataclasses.replace(verdict.certificate,
                               constant=2 * verdict.certificate.constant)
    planted = dataclasses.replace(verdict, certificate=cert)
    bad = checks.check("freeness_stream", job, arr, planted, [planted])
    expect(not bad["ok"] and bad["kind"] == "certificate",
           f"doubled Saito constant accepted: {bad}")
    wrong = freeness.NotFree("ChiDoesNotSplit")
    bad = checks.check("freeness_stream", job, arr, wrong, [wrong])
    expect(not bad["ok"] and bad["kind"] == "answer",
           f"NotFree for a split chi accepted: {bad}")


def test_report_check_rejects_wrong_aut_order(tmp):
    cols = gen.family_at("paper13", 3)
    job = {"id": 0, "repeat_of": None, "cols": cols, "golden": "paper13"}
    path = os.path.join(tmp, "a13.fam")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(gen.family_text(cols))
    out = worker.call_report(path)
    ok = checks.check("report_cli", job, path, out, [out])
    expect(ok["ok"], f"a13 report rejected: {ok}")
    payload = json.loads(out["stdout"])
    payload["aut_order"] = 36
    planted = dict(out, stdout=json.dumps(payload, sort_keys=True, indent=2))
    bad = checks.check("report_cli", job, path, planted, [planted])
    expect(not bad["ok"] and bad["kind"] == "answer",
           f"wrong aut_order accepted: {bad}")
    repeat = dict(job, id=1, repeat_of=0)
    changed = dict(out, stdout=out["stdout"] + " ")
    bad = checks.check("report_cli", repeat, path, changed, [out, changed])
    expect(not bad["ok"], "a repeat with different stdout accepted")


def test_moduli_check_rejects_missing_value():
    job = {"id": 0, "family": gen.PAPER15, "golden": ("paper15", 1, 0)}
    fam = worker.to_program_family(job)
    out = worker.call_moduli(fam)
    ok = checks.check("moduli_families", job, fam, out, [out])
    expect(ok["ok"], f"paper15 degeneracy set rejected: {ok}")
    rep, specs = out
    rational = dict(rep.rational)
    rational.pop(min(rational))
    planted = (dataclasses.replace(rep, rational=rational), specs[1:])
    bad = checks.check("moduli_families", job, fam, planted, [planted])
    expect(not bad["ok"] and bad["kind"] == "answer",
           f"degeneracy set with a value removed accepted: {bad}")
    # The same family without its golden: the re-specialization check
    # must catch a value whose tag is wrong.
    job = dict(job, golden=None)
    swapped = {w: (gen.LC if tag == gen.CD else gen.CD)
               for w, tag in rep.rational.items()}
    planted = (dataclasses.replace(rep, rational=swapped), specs)
    bad = checks.check("moduli_families", job, fam, planted, [planted])
    expect(not bad["ok"], f"swapped degeneracy tags accepted: {bad}")


def test_affine_golden_matches_program():
    job = {"id": 0, "family": gen.affine_image(gen.PAPER13, -2, 1),
           "golden": ("paper13", -2, 1)}
    fam = worker.to_program_family(job)
    out = worker.call_moduli(fam)
    ok = checks.check("moduli_families", job, fam, out, [out])
    expect(ok["ok"], f"affine image of paper13 rejected: {ok}")


def test_self_times_sum_to_root():
    original = induction.decide_freeness
    tracer = Tracer()
    tracer.install()
    try:
        expect(induction.decide_freeness is not original,
               "the name induction imported was not rebound")
        for job_id, n in enumerate((6, 8)):
            arr = arrangement.build(gen.b13_columns()[:n])  # outside a job
            tracer.job = job_id
            root = tracer.open(JOB)
            induction.inductively_free(arr)
            freeness.decide_freeness(arr)
            tracer.close(root)
            tracer.job = None
    finally:
        tracer.uninstall()
    expect(induction.decide_freeness is original, "wrappers not removed")
    spans = tracer.spans
    selfs = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[0] == JOB]
    expect(len(roots) == 2 and len(spans) > 2, "no spans recorded")
    for r in roots:
        subtree = [i for i in range(len(spans)) if _under(spans, i, r)]
        total = sum(selfs[i] for i in subtree)
        duration = spans[r][2] - spans[r][1]
        expect(abs(total - duration) < 1e-9,
               f"self times {total} != root span {duration}")
        expect(all(x >= -1e-9 for x in (selfs[i] for i in subtree)),
               "negative self time")
    names = {s[0] for s in spans}
    expect("freeness.decide_freeness" in names
           and "arrangement.canonical_key" in names,
           f"cross-module calls not traced: {sorted(names)}")
    observed = [i for i, s in enumerate(spans) if s[0] == OBSERVE]
    expect(observed and all(spans[spans[i][3]][0] != "linalg.rank"
                            for i in observed),
           "observers not in their own span beside the traced call")
    metrics = tracer.layer_metrics()
    expect(metrics["induction.if.nodes"] > 0, "IF nodes not counted")
    expect(not any(k.startswith("bench.") for k in metrics),
           "benchmark spans reported as program metrics")


def _under(spans, i: int, root: int) -> bool:
    while i >= 0:
        if i == root:
            return True
        i = spans[i][3]
    return False


def test_percentile_estimator():
    ranks = [float(i) for i in range(1, 101)]
    expect(abs(run.percentile(ranks, 50) - 50.5) < 1e-9,
           "median of 1..100 is not 50.5")
    expect(90 < run.percentile(ranks, 90) < 91, "p90 of 1..100 off")
    expect(abs(run.percentile([0.25] * 116, 90) - 0.25) < 1e-12,
           "weights do not sum to one")


def test_refuses_without_sources(tmp):
    bare = os.path.join(tmp, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "report_cli", "--seed", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True,
                          timeout=170)
    expect(proc.returncode != 0, "run.py succeeded without sources")
    expect(proc.stdout.strip() == "", f"printed a result: {proc.stdout!r}")


def main():
    tmp = os.path.join(ROOT, ".perfbench", "selftest")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn(tmp) if fn.__code__.co_argcount else fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
