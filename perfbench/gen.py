"""Seeded input generators for the three workloads.

A generator takes two `random.Random` streams and returns plain data:
integer or quadratic-field columns, family coefficient lists and file
texts.  The master stream, the same for every seed, fixes each job slot's
content, cost and place in the run; the seed's stream picks the run's copy
of it (signs of coordinates, t -> -t, the rescaling of repeats).  The program under test never
runs here: family columns are evaluated with the benchmark's own
arithmetic (`exact`).
"""
from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

from exact import (
    Quad,
    chi_exponents,
    det3,
    distinct_lines,
    is_essential,
    padd,
    pcompose_affine,
    peval,
    points,
    primitive_int,
    projective_key,
    ptrim,
)

MAX_TRIES = 5000

# The two families of the paper, as ascending integer coefficient tuples in
# t (a transcription of the published columns, independent of the program).
PAPER13 = (
    ((1,), (), ()), ((), (1,), ()), ((), (), (1,)), ((1,), (), (-1,)),
    ((), (1,), (-1,)), ((1,), (1,), (-1,)), ((1,), (), (0, -1)),
    ((), (1,), (0, -1)), ((1,), (1,), (0, -1)), ((1,), (1,), (-1, -1)),
    ((0, 1), (1,), (0, -1)), ((1,), (1, -1), (-1,)),
    ((-1, 1), (0, 1), (0, 0, -1)),
)
PAPER15 = (
    ((1,), (), ()), ((1,), (1,), ()), ((1,), (), (1,)), ((1,), (1,), (1,)),
    ((1,), (0, 1), (1,)), ((), (1,), ()), ((2,), (1,), (1,)),
    ((1, 1), (0, 1), (1,)), ((1, 1), (1,), (1,)), ((0, 2), (0, 1), (1,)),
    ((1,), (1, -1), (1,)), ((1, -3), (1, -3, 1), (0, -1)),
    ((-1, 3), (0, 1), (0, 1)), ((1, -3), (0, 0, -1), (0, -1)),
    ((-1, 3), (-1, 2), (0, 1)),
)
FAMILIES = {"paper13": PAPER13, "paper15": PAPER15}

# Published degeneracy sets: rational value -> tag, and primitive quadratic
# (ascending coefficients, positive leading) -> tag.
CD, LC = "CountDrops", "LatticeChanges"
GOLDEN_DEGENERACY = {
    "paper13": ({Fraction(-1): LC, Fraction(0): CD, Fraction(1, 2): LC,
                 Fraction(1): CD, Fraction(2): LC},
                {(1, -1, 1): CD}),
    "paper15": ({Fraction(0): CD, Fraction(1, 2): CD, Fraction(1): CD},
                {(1, -3, 1): LC, (-1, 1, 1): LC}),
}
# Generic reduced chi: chi(t) = (t - 1)(t - e2)(t - e3).
GENERIC_EXPONENTS = {"paper13": (1, 6, 6), "paper15": (1, 7, 7)}
# Report answers for a13 / a15 (each family at t = 3).
GOLDEN_REPORT = {
    "paper13": {"n": 13, "flats": 30, "exponents": [1, 6, 6],
                "inductively_free": False, "rf": "NotRF", "aut_order": 18},
    "paper15": {"n": 15, "flats": 39, "exponents": [1, 7, 7],
                "inductively_free": False, "rf": "NotRF", "aut_order": 48},
}
# Quadratic fields for the generic-t share: none of them holds a
# degenerate value of either family (those lie in Q(sqrt -3), Q(sqrt 5)).
QUAD_DS = (2, 3, 6, 7, 10, 11, 13, -1, -2)
IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def b13_columns():
    """The 13 lines with normals in {-1, 0, 1}^3, one per projective class."""
    return [v for v in itertools.product((-1, 0, 1), repeat=3)
            if any(v) and next(x for x in v if x) > 0]


def grid_columns(k: int):
    """Grid member: n = 3k with lines x3, x1 - a x3, x2 - b x3, x1 - x2 - c x3."""
    return ([(0, 0, 1)] + [(1, 0, -a) for a in range(k)]
            + [(0, 1, -b) for b in range(k)]
            + [(1, -1, -c) for c in range(-(k - 1), k)])


def evaluate(family, t):
    return [tuple(peval(p, t) for p in col) for col in family]


def family_at(name: str, t):
    """Columns of a paper family at t, integral when t is rational."""
    cols = evaluate(FAMILIES[name], t)
    if isinstance(t, Quad):
        return [tuple(x if isinstance(x, Quad) else Quad(t.d, x) for x in c)
                for c in cols]
    return [primitive_int(c) for c in cols]


def is_generic_member(name: str, cols) -> bool:
    """Own check that a specialization keeps the generic count and chi."""
    if len(cols) != len(FAMILIES[name]) or not distinct_lines(cols):
        return False
    return chi_exponents(len(cols), points(cols)) == GENERIC_EXPONENTS[name]


def random_rational(rng, lo=-9, hi=9):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 4))


def generic_rational_t(rng, name: str):
    while True:
        t = random_rational(rng)
        if is_generic_member(name, family_at(name, t)):
            return t


def generic_quad_t(rng, name: str, d: int):
    while True:
        t = Quad(d, random_rational(rng, -3, 3),
                 Fraction(rng.choice((1, -1, 2, -2)), rng.randint(1, 2)))
        if is_generic_member(name, family_at(name, t)):
            return t


def random_matrix(rng):
    """A random invertible 3x3 matrix with small integer entries."""
    while True:
        m = [[rng.choice((-1, 0, 0, 1, 1, 2)) for _ in range(3)]
             for _ in range(3)]
        if det3(*m):
            return m


def random_signs(rng):
    return [[rng.choice((1, -1)) if c == r else 0 for c in range(3)]
            for r in range(3)]


def matmul(a, b):
    return [[sum(a[r][k] * b[k][c] for k in range(3)) for c in range(3)]
            for r in range(3)]


def seeded_coordinates(rng, m):
    """m followed by random sign changes of the coordinates.

    Every transformed column keeps its entries up to sign and its place:
    the elimination order of the solver, the labels seen by the lattice
    searches, and with them the cost of a job, do not depend on the seed.
    """
    return matmul(random_signs(rng), m)


def apply_matrix(m, cols):
    out = [tuple(sum(m[r][c] * col[c] for c in range(3)) for r in range(3))
           for col in cols]
    if out and isinstance(out[0][0], Quad):
        return out
    return [primitive_int(c) for c in out]


def random_line(rng, lo=-2, hi=2):
    while True:
        c = tuple(rng.randint(lo, hi) for _ in range(3))
        if any(c):
            return primitive_int(c)


def with_extra_lines(rng, cols, extra: int):
    cols = list(cols)
    keys = {projective_key(c) for c in cols}
    while extra:
        c = random_line(rng)
        if projective_key(c) not in keys:
            keys.add(projective_key(c))
            cols.append(c)
            extra -= 1
    return cols


def source_columns(rng, source: str):
    """Structured arrangement that jobs are cut from."""
    if source == "b13":
        return b13_columns()
    if source.startswith("grid"):        # grid<k>[+<extra>]
        k, _, extra = source[4:].partition("+")
        return with_extra_lines(rng, grid_columns(int(k)), int(extra or 0))
    return family_at(source, generic_rational_t(rng, source))


def set_key(cols):
    return frozenset(projective_key(c) for c in cols)


def fixed_cut(master, source: str, n: int, split: bool):
    """(columns, change of coordinates) of a cut with the wanted chi class.

    Cuts, their paper parameter t and their coordinate matrix come from
    the master stream, which is the same for every seed: the
    combinatorial types and entry sizes, and with them the cost of a run,
    do not depend on the seed.  Two slots may get the same cut.
    """
    for _ in range(MAX_TRIES):
        base = source_columns(master, source)
        cols = base if n == len(base) else master.sample(base, n)
        if not is_essential(cols):
            continue
        if (chi_exponents(n, points(cols)) is not None) == split:
            return cols, random_matrix(master)
    raise RuntimeError(f"no {n}-line {'split' if split else 'non-split'} "
                       f"cut of {source} after {MAX_TRIES} tries")


def realize(rng, cols, m, seen: set):
    """The run's copy of a cut in seeded coordinates, distinct from every
    earlier job of the run."""
    for _ in range(MAX_TRIES):
        out = apply_matrix(seeded_coordinates(rng, m), cols)
        if set_key(out) not in seen:
            seen.add(set_key(out))
            return out
    raise RuntimeError("no new coordinates for a cut")


def cuts(master, rng, table, split: bool, scale: float, kind: str):
    seen: set = set()
    jobs = []
    for source, n, count in table:
        for _ in range(scaled(count, scale)):
            cols, m = fixed_cut(master, source, n, split)
            cols = realize(rng, cols, m, seen)
            jobs.append({"kind": kind, "source": source, "ring": "QQ",
                         "cols": cols,
                         "chi_exponents": chi_exponents(n, points(cols))})
    return jobs


def rescaled_copy(rng, cols):
    """Columns permuted and scaled; at least one factor is not +-1."""
    factors = [rng.choice((1, -1, 2, -2, 3)) for _ in cols]
    factors[rng.randrange(len(cols))] = rng.choice((2, -2, 3, 5))
    out = [tuple(f * x for x in c) for f, c in zip(factors, cols)]
    rng.shuffle(out)
    return out


def interleave(master, jobs, repeats):
    """Shuffle jobs; put each repeat somewhere after the job it copies.

    The order comes from the master stream: the caches the program shares
    between jobs, and the garbage collector, then see the same sequence
    of work in every run.
    """
    master.shuffle(jobs)
    for rep in repeats:
        pos = next(i for i, j in enumerate(jobs) if j is rep["original"])
        jobs.insert(master.randint(pos + 1, len(jobs)), rep)
    for i, job in enumerate(jobs):
        job["id"] = i
    for job in jobs:
        orig = job.pop("original", None)
        job["repeat_of"] = None if orig is None else orig["id"]
    return jobs


def scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


# --- freeness_stream ---------------------------------------------------------

# (source, n, count at 20 s) for split and non-split chi.  Split cuts need
# the graded solve; their n and source fix their cost.  The 12- and
# 13-line cuts (about 0.3 s each) are the class that holds p90, and the
# non-split ones (a few ms) the class that holds p50.
STREAM_SPLIT = (
    ("b13", 13, 1), ("b13", 12, 6), ("b13", 11, 4), ("b13", 10, 3),
    ("b13", 9, 3), ("b13", 8, 3), ("grid3", 12, 3), ("grid3+1", 13, 1),
    ("paper13", 13, 3), ("paper15", 15, 1),
)
STREAM_NONSPLIT = (
    ("b13", 8, 6), ("b13", 9, 6), ("b13", 10, 6), ("b13", 11, 6),
    ("b13", 12, 6), ("grid3+2", 11, 6), ("grid3+2", 13, 6),
    ("grid4", 12, 6), ("paper13", 11, 5), ("paper13", 12, 5),
    ("paper15", 13, 6), ("paper15", 14, 6),
)
STREAM_QUAD = 2                 # paper13 at a generic a + b sqrt(d)
STREAM_REPEATS = (8, 8)         # rescaled copies of split / non-split jobs


def freeness_stream(master, rng, scale: float):
    jobs = (cuts(master, rng, STREAM_SPLIT, True, scale, "split")
            + cuts(master, rng, STREAM_NONSPLIT, False, scale, "nonsplit"))
    for d in master.sample(QUAD_DS, STREAM_QUAD):
        cols = family_at("paper13", generic_quad_t(master, "paper13", d))
        cols = apply_matrix(seeded_coordinates(rng, IDENTITY), cols)
        jobs.append({"kind": "quad", "source": "paper13", "ring": d,
                     "cols": cols,
                     "chi_exponents": GENERIC_EXPONENTS["paper13"]})
    repeats = []
    for kind, count in zip(("split", "nonsplit"), STREAM_REPEATS):
        pool_ = [j for j in jobs if j["kind"] == kind]
        for orig in master.sample(pool_,
                                  min(len(pool_), scaled(count, scale))):
            repeats.append({"kind": "repeat", "source": orig["source"],
                            "ring": "QQ", "original": orig,
                            "cols": rescaled_copy(rng, orig["cols"]),
                            "chi_exponents": orig["chi_exponents"]})
    return interleave(master, jobs, repeats)


# --- report_cli --------------------------------------------------------------

REPORT_SPLIT = (("b13", 8, 28), ("b13", 9, 17), ("b13", 10, 6),
                ("b13", 11, 3), ("b13", 12, 1))
REPORT_NONSPLIT = (("b13", 9, 8), ("b13", 11, 8), ("grid3", 8, 8),
                   ("grid3", 10, 8))
REPORT_SYMMETRIC = 1            # 6 generic lines, |Aut| = 720
REPORT_REPEATS = 10             # exact repeats of an earlier file


def family_text(cols) -> str:
    """A constant family file: one line per column, '; '-separated."""
    return "".join("; ".join(str(x) for x in c) + "\n" for c in cols)


def generic_lines(rng, n: int, seen: set):
    for _ in range(MAX_TRIES):
        cols = [random_line(rng, -4, 4) for _ in range(n)]
        if (distinct_lines(cols) and is_essential(cols)
                and len(points(cols)) == n * (n - 1) // 2
                and set_key(cols) not in seen):
            seen.add(set_key(cols))
            return cols
    raise RuntimeError(f"no {n} generic lines after {MAX_TRIES} tries")


def report_cli(master, rng, scale: float):
    jobs = (cuts(master, rng, REPORT_SPLIT, True, scale, "split")
            + cuts(master, rng, REPORT_NONSPLIT, False, scale, "nonsplit"))
    seen = {set_key(j["cols"]) for j in jobs}
    for name in ("paper13", "paper15"):
        jobs.append({"kind": "golden", "source": name,
                     "cols": family_at(name, 3), "golden": name})
    for _ in range(REPORT_SYMMETRIC):
        cols = apply_matrix(seeded_coordinates(rng, IDENTITY),
                            generic_lines(master, 6, seen))
        seen.add(set_key(cols))
        jobs.append({"kind": "symmetric", "source": "generic6",
                     "cols": cols})
    for job in jobs:
        job["ring"] = "QQ"
        job["text"] = family_text(job["cols"])
    cheap = [j for j in jobs if j["kind"] == "nonsplit"
             or (j["kind"] == "split" and len(j["cols"]) <= 10)]
    repeats = [dict(orig, kind="repeat", original=orig)
               for orig in master.sample(cheap,
                                         scaled(REPORT_REPEATS, scale))]
    return interleave(master, jobs, repeats)


# --- moduli_families ---------------------------------------------------------

# Random families: (columns, degrees in t of the entries of the one
# t-dependent column, count at 20 s); the other columns are constant.
# Fixing the shape keeps a family's cost within about 40% of its class
# mean.  A quadratic entry gives quadratic candidates, each over its own
# Q(sqrt d).  The (2, 2, 2) class is large enough to hold p90.
MODULI_RANDOM = ((5, (0, 0, 1), 60), (5, (0, 1, 2), 22),
                 (5, (2, 2, 2), 14), (6, (0, 0, 2), 1), (7, (0, 0, 1), 1))


def random_family(rng, n: int, degrees):
    """n columns over Z[t]: one with entries of the given degrees in t,
    in random positions, and n - 1 constant ones; generically rank 3."""
    for _ in range(MAX_TRIES):
        degs = list(degrees)
        rng.shuffle(degs)
        fam = [tuple(ptrim(tuple(rng.randint(-3, 3) for _ in range(d + 1)))
                     for d in degs)]
        fam += [tuple(ptrim((rng.randint(-3, 3),)) for _ in range(3))
                for _ in range(n - 1)]
        if all(len(p) <= 1 for p in fam[0]):
            continue
        cols = evaluate(fam, Fraction(rng.randint(50, 99), 101))
        if distinct_lines(cols) and is_essential(cols):
            rng.shuffle(fam)
            return tuple(fam)
    raise RuntimeError(f"no random {n}-column family after {MAX_TRIES} tries")


def affine_image(family, a: int, b: int):
    return tuple(tuple(pcompose_affine(p, a, b) for p in col)
                 for col in family)


def transform_family(rng, family, m, b: int):
    """The family in seeded coordinates: t -> +-t + b, then m followed by
    random sign changes of the coordinates."""
    fam = affine_image(family, rng.choice((1, -1)), b)
    m = seeded_coordinates(rng, m)
    out = []
    for col in fam:
        new = []
        for r in range(3):
            acc = ()
            for c in range(3):
                acc = padd(acc, tuple(m[r][c] * x for x in col[c]))
            new.append(acc)
        out.append(tuple(new))
    return tuple(out)


def moduli_families(master, rng, scale: float):
    jobs = []
    for name, fam in FAMILIES.items():
        # t -> a t + b with |a| and b fixed and the sign of a seeded; the
        # published family itself is (1, 0).
        a = master.choice((1, 2, 3)) * rng.choice((1, -1))
        b = master.randint(-2, 2)
        jobs.append({"kind": "paper", "source": name,
                     "family": affine_image(fam, a, b),
                     "golden": (name, a, b)})
    seen = set()
    for n, degrees, count in MODULI_RANDOM:
        for _ in range(scaled(count, scale)):
            fam = random_family(master, n, degrees)
            while fam in seen:
                fam = random_family(master, n, degrees)
            seen.add(fam)
            jobs.append({"kind": "random",
                         "source": f"random{n}:{''.join(map(str, degrees))}",
                         "family": transform_family(
                             rng, fam, random_matrix(master),
                             master.randint(-1, 1)),
                         "golden": None})
    return interleave(master, jobs, [])


WORKLOADS = {"freeness_stream": freeness_stream, "report_cli": report_cli,
             "moduli_families": moduli_families}


def make_jobs(workload: str, seed: int, seconds: float):
    master = random.Random(f"{workload}:master")
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](master, rng, seconds / 20)


def manifest(workload: str, jobs) -> dict:
    """Job count by kind, n range, rings and repeat share of a job list."""
    def n_of(job):
        return len(job["cols"] if "cols" in job else job["family"])
    kinds = Counter(j["kind"] for j in jobs)
    rings = Counter(str(j.get("ring", "QQ[t]")) for j in jobs)
    ns = [n_of(j) for j in jobs]
    out = {"workload": workload, "jobs": len(jobs), "by_kind": dict(kinds),
           "n_range": [min(ns), max(ns)], "rings": dict(rings),
           "repeat_share": sum(j["repeat_of"] is not None for j in jobs)
           / len(jobs)}
    return out
