"""Answer checks, run after the timed loop against the caller's own input.

Every check is independent of the code it checks: chi comes from the
benchmark's own grouping of cross products into intersection points
(`exact.points`), goldens are the published answers, specializations are
re-evaluated with the benchmark's own arithmetic.  The one program function
used is `saito_check`, applied to the *caller's* columns and the returned
derivations, which must give back exactly the reported constant.

An outcome is {"ok", "undecided", "failure", "kind", "verdict"}.  A failure
of kind "answer" is a wrong answer the program could not have noticed; the
kinds "raised", "exit" and "certificate" are failures the program's output
already exposes (an exception, an error exit code, a certificate that does
not verify).  All of them count as failed jobs.
"""
from __future__ import annotations

import json
from fractions import Fraction
from math import factorial

import gen
from freearr.freeness import DegreeMismatchError, saito_check

from exact import (
    Quad,
    chi_exponents,
    det3,
    pcompose_affine,
    peval,
    points,
    pprimitive,
    projective_key,
    quadratic_roots,
)

ANSWER = "answer"


def quadratic_root(coeffs) -> Quad:
    """The root a + b*sqrt(d), b > 0, of a primitive irreducible quadratic."""
    return quadratic_roots(coeffs)[0]


def outcome(verdict: str, failure: str | None = None, kind: str | None = None,
            undecided: bool = False) -> dict:
    return {"ok": failure is None, "undecided": undecided,
            "failure": failure, "kind": kind, "verdict": verdict}


def check(workload: str, job, inp, out, outputs) -> dict:
    if isinstance(out, Exception):
        return outcome("raised", f"raised {out!r}", "raised")
    return CHECKS[workload](job, inp, out, outputs)


# --- freeness_stream ---------------------------------------------------------

def own_exponents(cols):
    return chi_exponents(len(cols), points(cols))


def _chi_consistent(verdict, exps):
    """Failure text if a verdict contradicts the independently computed chi."""
    name = type(verdict).__name__
    if name == "Free":
        if tuple(verdict.exponents) != exps:
            return f"exponents {verdict.exponents}, chi gives {exps}"
    elif name == "NotFree":
        if verdict.reason == "ChiDoesNotSplit" and exps is not None:
            return f"ChiDoesNotSplit, but chi splits as {exps}"
        if verdict.reason == "GradedDimensionMismatch" and exps is None:
            return "GradedDimensionMismatch, but chi does not split"
        if verdict.reason not in ("ChiDoesNotSplit",
                                  "GradedDimensionMismatch"):
            return f"unknown NotFree reason {verdict.reason!r}"
    elif name != "Inconclusive":
        return f"unknown verdict {verdict!r}"
    return None


def saito_failure(arr, cert):
    """Failure text unless saito_check on the caller's arrangement returns
    exactly the reported constant."""
    try:
        c = saito_check(arr, *cert.derivations)
    except DegreeMismatchError as exc:
        return f"certificate degrees: {exc}"
    if c is None or c != cert.constant:
        return f"Saito constant {cert.constant} reported, {c} on this input"
    return None


def check_freeness(job, arr, verdict, outputs):
    name = type(verdict).__name__
    label = name + (f"{list(verdict.exponents)}" if name == "Free"
                    else f":{verdict.reason}" if name == "NotFree" else "")
    wrong = _chi_consistent(verdict, own_exponents(job["cols"]))
    if wrong:
        return outcome(label, wrong, ANSWER)
    if name == "Free":
        bad = saito_failure(arr, verdict.certificate)
        if bad:
            return outcome(label, bad, "certificate")
    return outcome(label, undecided=name == "Inconclusive")


# --- report_cli --------------------------------------------------------------

def check_report(job, path, out, outputs):
    code = out["code"]
    if code not in (0, 2):
        return outcome(f"exit {code}", f"exit code {code}: "
                       f"{out['stderr'].strip()[:200]}", "exit")
    if job["repeat_of"] is not None:
        first = outputs[job["repeat_of"]]
        if isinstance(first, dict) and out["stdout"] != first["stdout"]:
            return outcome("repeat", "stdout differs from the first run of "
                           "the same file", ANSWER)
    try:
        payload = json.loads(out["stdout"])
    except ValueError:
        return outcome("unparsable", "stdout is not JSON", ANSWER)
    verdict = payload["freeness"]["verdict"]
    rf = payload["recursively_free"]["verdict"]
    label = f"{verdict},IF={payload['inductively_free']},{rf}"
    undecided = code == 2 or verdict == "Inconclusive" or rf == "Unknown"
    wrong = report_failure(job, payload)
    if wrong:
        return outcome(label, wrong, ANSWER, undecided)
    return outcome(label, undecided=undecided)


def report_failure(job, payload):
    cols = job["cols"]
    n = len(cols)
    pts = points(cols)
    exps = chi_exponents(n, pts)
    free = payload["freeness"]
    if payload["n"] != n or payload["count"] != n:
        return f"n {payload['n']} / count {payload['count']}, input has {n}"
    if payload["flats"] != len(pts):
        return f"{payload['flats']} rank-2 flats, input has {len(pts)}"
    if (tuple(payload["exponents"]) if payload["exponents"] else None) != exps:
        return f"exponents {payload['exponents']}, chi gives {exps}"
    if free["verdict"] == "Free" and tuple(free["exponents"]) != exps:
        return f"Free with exponents {free['exponents']}, chi gives {exps}"
    if free["verdict"] == "NotFree" and (
            (free["reason"] == "ChiDoesNotSplit") != (exps is None)):
        return f"NotFree ({free['reason']}) with chi exponents {exps}"
    if payload["inductively_free"] and free["verdict"] != "Free":
        return "inductively free but not Free"
    if payload["inductively_free"] and payload["recursively_free"][
            "verdict"] != "RF":
        return "inductively free but not reported RF"
    if payload["recursively_free"]["verdict"] == "RF" and \
            free["verdict"] != "Free":
        return "recursively free but not Free"
    aut = payload["aut_order"]
    if not 1 <= aut <= factorial(n) or factorial(n) % aut:
        return f"aut_order {aut} does not divide {n}!"
    if all(len(p) == 2 for p in pts) and aut != factorial(n):
        return f"aut_order {aut} for {n} generic lines, expected {n}!"
    golden = gen.GOLDEN_REPORT.get(job.get("golden"))
    if golden:
        got = {"n": payload["n"], "flats": payload["flats"],
               "exponents": payload["exponents"],
               "inductively_free": payload["inductively_free"],
               "rf": payload["recursively_free"]["verdict"],
               "aut_order": aut}
        if got != golden or not payload["recursively_free"]["sound"] \
                or free["verdict"] != "Free":
            return f"{job['golden']} report {got}, published {golden}"
    return None


# --- moduli_families ---------------------------------------------------------

GENERIC_T = Fraction(10007, 9973)


def columns_at(family, t):
    cols = gen.evaluate(family, t)
    if isinstance(t, Quad):
        cols = [tuple(x if isinstance(x, Quad) else Quad(t.d, x) for x in c)
                for c in cols]
    return cols


def dependent_triples(cols):
    n = len(cols)
    return {(i, j, k) for i in range(n) for j in range(i + 1, n)
            for k in range(j + 1, n) if not det3(cols[i], cols[j], cols[k])}


def count_at(cols) -> int:
    return len({projective_key(c) for c in cols if any(c)})


def golden_image(name: str, a: int, b: int):
    """Published degeneracy set of family(t) carried to family(a t + b)."""
    rational, quadratic = gen.GOLDEN_DEGENERACY[name]
    return ({(w - b) / a: tag for w, tag in rational.items()},
            {pprimitive(pcompose_affine(q, a, b)): tag
             for q, tag in quadratic.items()})


def check_moduli(job, fam, out, outputs):
    rep, specs = out
    label = ("+".join(kind for kind, vals in (("rational", rep.rational),
                                              ("quadratic", rep.quadratic))
                      if vals) or "none") + (
        ",unresolved" if rep.unresolved else "")
    if job["golden"] is not None:
        want = golden_image(*job["golden"])
        got = (dict(rep.rational), dict(rep.quadratic))
        if got != want or rep.unresolved:
            return outcome(label, f"degeneracy set {got}, published {want}",
                           ANSWER)
    family = job["family"]
    n = len(family)
    generic = dependent_triples(columns_at(family, GENERIC_T))
    values = [(w, tag) for w, tag in sorted(rep.rational.items())]
    for coeffs, tag in sorted(rep.quadratic.items()):
        root = quadratic_root(coeffs)
        if peval(coeffs, root):
            return outcome(label, f"{coeffs} is not a quadratic", ANSWER)
        values.append((root, tag))
    if len(specs) != len(values):
        return outcome(label, "missing specializations", ANSWER)
    for (w, tag), spec in zip(values, specs):
        cols = columns_at(family, w)
        count = count_at(cols)
        if spec.count != count:
            return outcome(label, f"count {spec.count} at {w}, own {count}",
                           ANSWER)
        if tag == gen.CD and count >= n:
            return outcome(label, f"CountDrops at {w}, but count is {n}",
                           ANSWER)
        if tag == gen.LC and (count < n
                              or dependent_triples(cols) == generic):
            return outcome(label, f"LatticeChanges at {w}, but the lattice "
                           "is the generic one", ANSWER)
        if tag not in (gen.CD, gen.LC):
            return outcome(label, f"unknown tag {tag!r}", ANSWER)
    return outcome(label)


CHECKS = {"freeness_stream": check_freeness, "report_cli": check_report,
          "moduli_families": check_moduli}
