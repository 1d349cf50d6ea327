"""Shared fixtures: rational arrangement helpers, a randomized corpus and
field-arithmetic oracles for the derivation solver."""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations, count, repeat
from math import gcd, lcm, prod
from operator import mul

import pytest

from freearr import arrangement as am
from freearr import freeness as fr
from freearr import linalg
from freearr import moduli as mod
from freearr.freeness import Derivation, Free, decide_freeness
from freearr.linalg import add_multiple, det3, echelon, rank
from freearr.scalars import (
    QQ,
    IntOps,
    QuadElem,
    clear,
    poly_gcd,
    squarefree_decompose,
)


def rational_arrangement(*cols) -> am.Arrangement:
    return am.build([tuple(Fraction(x) for x in c) for c in cols], QQ)


def field_columns(arr: am.Arrangement) -> tuple:
    """The columns of arr over its field: ring column i times g/den, for
    (g, den) the scale of column i."""
    ops = arr.ops
    return tuple(tuple([ops.from_coords(ops.ints(ops.scale(x, g)), den)
                        for x in col])
                 for col, (g, den) in zip(arr.ring_columns, arr.scales))


def boolean3() -> am.Arrangement:
    return rational_arrangement((1, 0, 0), (0, 1, 0), (0, 0, 1))


def near_pencil(n: int) -> am.Arrangement:
    """n-1 lines through one point plus one transversal line."""
    cols = [(1, 0, 0), (0, 1, 0)]
    for k in range(1, n - 2):
        cols.append((1, -k, 0))
    cols.append((0, 0, 1))
    return rational_arrangement(*cols)


def grid(k: int) -> am.Arrangement:
    """The 4k lines x3, x1 - a x3, x2 - b x3 (0 <= a, b < k) and
    x1 - x2 - c x3 (|c| < k); free and inductively free."""
    cols = ([(0, 0, 1)] + [(1, 0, -a) for a in range(k)]
            + [(0, 1, -b) for b in range(k)]
            + [(1, -1, -c) for c in range(1 - k, k)])
    return rational_arrangement(*cols)


_ROOTS_OF_UNITY = {2: -1, 3: QuadElem(-3, Fraction(-1, 2), Fraction(1, 2)),
                   4: QuadElem(-1, 0, 1),
                   6: QuadElem(-3, Fraction(1, 2), Fraction(1, 2))}


def monomial(r: int, k: int) -> am.Arrangement:
    """A^k_3(r), the reflection arrangement of G(r, r, 3) for k = 0 and of
    G(r, 1, 3) for k = 3: the 3r lines x_i - zeta^j x_l (i < l, zeta a
    primitive r-th root of unity) and the first k coordinate lines, over
    Q, Q(sqrt -3), Q(i) and Q(sqrt -3) for r = 2, 3, 4 and 6."""
    zeta = _ROOTS_OF_UNITY[r]
    powers = list(accumulate(repeat(zeta, r - 1), mul, initial=1))
    cols = [tuple(1 if c == i else -z if c == l else 0 for c in range(3))
            for i, l in ((0, 1), (0, 2), (1, 2)) for z in powers]
    return am.build(cols + [tuple(int(c == i) for c in range(3))
                            for i in range(k)])


def h3() -> am.Arrangement:
    """The reflection arrangement of the icosahedral group H3 over
    Q(sqrt 5): the 3 coordinate lines and the cyclic shifts of
    (1, +-tau, +-1/tau), tau the golden ratio."""
    tau = QuadElem(5, Fraction(1, 2), Fraction(1, 2))
    cols = [tuple(int(c == i) for c in range(3)) for i in range(3)]
    for v in ((1, s * tau, t * (tau - 1)) for s in (1, -1) for t in (1, -1)):
        cols += [v[i:] + v[:i] for i in range(3)]
    return am.build(cols)


def fault_keys(monkeypatch, fault):
    """Make each lattice scan from now on divide its k-th key (1-based)
    by fault(k, g), g the key's content: every key, inline over Z and by
    line_key over Z[sqrt d], takes its content from arrangement.gcd."""
    calls = count(1)
    monkeypatch.setattr(am, "gcd", lambda *v: fault(next(calls), gcd(*v)))


def quadratic_root(coeffs) -> QuadElem:
    """One root of c2 t^2 + c1 t + c0 (irreducible over Q) in Q(sqrt d)."""
    c0, c1, c2 = coeffs
    square, d = squarefree_decompose(c1 * c1 - 4 * c0 * c2)
    return QuadElem(d, Fraction(-c1, 2 * c2), Fraction(square, 2 * c2))


def det3_cols(c1, c2, c3):
    """Determinant of the 3x3 matrix with the given columns."""
    return det3([(c1[0], c2[0], c3[0]),
                 (c1[1], c2[1], c3[1]),
                 (c1[2], c2[2], c3[2])], IntOps)


def to_field(ops, x):
    """The ring element x of IntOps or a QuadOps as a field element."""
    return ops.from_coords(ops.ints(x), 1)


# -- Addition-Deletion triples: the theorem as a test oracle ---------------

class TheoremViolationError(AssertionError):
    """Two Addition-Deletion statements hold but the third fails.

    This would falsify the implementation (the theorem is proved), so it is
    raised as a hard error rather than reported.
    """


@dataclass(frozen=True)
class TripleVerdict:
    """Which statements of the Addition-Deletion theorem hold at (A, A', A'').

    The third, A^H free with exponents [1, s-1], always holds in rank 3.
    """

    label: int
    candidate_exponents: tuple       # [1, s-1, n-s] forced by |A^H| = s
    deletion_exponents: tuple        # [1, s-1, n-s-1]
    restriction_exponents: tuple     # [1, s-1]
    full_holds: bool                 # A free with the candidate exponents
    deletion_holds: bool             # A\H free with the deletion exponents

    @property
    def applies(self) -> bool:
        return bool(self.full_holds and self.deletion_holds)


def _statement_holds(verdict, expected: tuple) -> bool:
    """Does decide_freeness confirm freeness with exactly these exponents?"""
    return isinstance(verdict, Free) and verdict.exponents == expected


def triple_check(arr: am.Arrangement, h: int) -> TripleVerdict:
    """Evaluate the Addition-Deletion statements for the triple at h.

    Raises TheoremViolationError if exactly two of the three statements
    hold, which the theorem forbids, and NotEssentialError if deleting h
    drops the rank below 3.
    """
    n = arr.n
    s, _ = am.restriction_profile(arr, h)
    cand = tuple(sorted((1, s - 1, n - s)))
    cand_del = tuple(sorted((1, s - 1, n - s - 1)))
    sub, _ = am.delete(arr, h)
    full = _statement_holds(decide_freeness(arr), cand)
    deleted = _statement_holds(decide_freeness(sub), cand_del)
    verdict = TripleVerdict(
        label=h,
        candidate_exponents=cand,
        deletion_exponents=cand_del,
        restriction_exponents=(1, s - 1),
        full_holds=full,
        deletion_holds=deleted,
    )
    statements = (full, deleted, True)
    if sum(statements) == 2:
        raise TheoremViolationError(
            f"Addition-Deletion inconsistency at hyperplane {h}: "
            f"statements {statements} with candidate exponents {cand}")
    return verdict


def format_family(f: mod.Family) -> str:
    """The family file text that moduli.parse_family_text reads."""
    lines = []
    for col in f.columns:
        lines.append("; ".join(
            " ".join(str(c) for c in (p.coeffs or (0,))) for p in col))
    return "\n".join(lines) + "\n"


# -- the family scans over IntPoly minors that packed integers replaced ----

def candidate_polys_over_zt(f: mod.Family) -> dict:
    """moduli._candidate_polys with every minor an IntPoly."""
    cols = f.columns
    out = {}
    for i in range(f.n):
        for j in range(i + 1, f.n):
            p0, p1, p2 = _cross(cols[i], cols[j])
            minors = [m for m in (p0, p1, p2) if m]
            g = minors[0]
            for m in minors[1:]:
                g = poly_gcd(g, m)
            if g.degree > 0:
                out[g.primitive()] = True
            # det(c_i, c_j, c_k) = (c_i x c_j) . c_k
            for x, y, z in cols[j + 1:]:
                det = p0 * x + p1 * y + p2 * z
                if det.degree > 0:
                    out.setdefault(det.primitive(), False)
    return out


def generic_flats_over_zt(f: mod.Family) -> tuple:
    """The flats of moduli.generic_lattice from IntPoly minors, in the
    order of the lattice scan: the first pair of a flat is crossed, and
    each later column whose determinant with it is the zero polynomial
    joins the flat."""
    cols, n = f.columns, f.n
    covered, flats = set(), []
    for i, j in combinations(range(n), 2):
        if (i, j) in covered:
            continue
        p = _cross(cols[i], cols[j])
        members = [i, j] + [k for k in range(j + 1, n) if not (
            p[0] * cols[k][0] + p[1] * cols[k][1] + p[2] * cols[k][2])]
        flats.append(frozenset(m + 1 for m in members))
        covered.update(combinations(members, 2))
    return tuple(flats)


# -- HPoly arithmetic: test oracles only; the package evaluates instead ----

class HPoly:
    """Homogeneous polynomial in x1, x2, x3 with scalar coefficients."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs=None):
        self.degree = degree
        self.coeffs = {m: c for m, c in (coeffs or {}).items() if c}

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, HPoly):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __repr__(self):
        return f"HPoly({self.degree}, {self.coeffs!r})"


def hpolys(ops, th: Derivation) -> tuple:
    """th's (f1, f2, f3) as HPolys over the field of ops: the field view of
    its vec / den."""
    mons = fr.monomials(th.pdeg)
    polys = ({}, {}, {})
    for j, x in th.vec.items():
        polys[j // len(mons)][mons[j % len(mons)]] = ops.from_coords(
            ops.ints(x), th.den)
    return tuple(HPoly(th.pdeg, f) for f in polys)


def to_derivation(ops, polys, pdeg: int) -> Derivation:
    """The Derivation of (f1, f2, f3), HPolys of degree pdeg over the field
    of ops: their coefficients cleared by scalars.clear."""
    index = {m: i for i, m in enumerate(fr.monomials(pdeg))}
    keys = [c * len(index) + index[m] for c, f in enumerate(polys)
            for m in f.coeffs]
    den, ring = clear(ops, [x for f in polys for x in f.coeffs.values()])
    return Derivation(pdeg, den, dict(zip(keys, ring)))


def poly_add(f: HPoly, g: HPoly) -> HPoly:
    if f.degree != g.degree and f and g:
        raise ValueError("degree mismatch in homogeneous addition")
    out = dict(f.coeffs)
    for m, c in g.coeffs.items():
        out[m] = out[m] + c if m in out else c
    return HPoly(max(f.degree, g.degree), out)


def poly_neg(f: HPoly) -> HPoly:
    return HPoly(f.degree, {m: -c for m, c in f.coeffs.items()})


def poly_sub(f: HPoly, g: HPoly) -> HPoly:
    return poly_add(f, poly_neg(g))


def poly_mul(f: HPoly, g: HPoly) -> HPoly:
    out = {}
    for m1, c1 in f.coeffs.items():
        for m2, c2 in g.coeffs.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            out[m] = out[m] + c1 * c2 if m in out else c1 * c2
    return HPoly(f.degree + g.degree, out)


def poly_scale(f: HPoly, c) -> HPoly:
    return HPoly(f.degree, {m: c * v for m, v in f.coeffs.items()})


def poly_det3(rows) -> HPoly:
    """Cofactor expansion of a 3x3 matrix of HPolys given as rows."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return poly_add(poly_sub(
        poly_mul(a, poly_sub(poly_mul(e, i), poly_mul(f, h))),
        poly_mul(b, poly_sub(poly_mul(d, i), poly_mul(f, g)))),
        poly_mul(c, poly_sub(poly_mul(d, h), poly_mul(e, g))))


def is_member(arr: am.Arrangement, deriv: Derivation) -> bool:
    """Re-verify membership: theta(alpha_H) vanishes on H for every H.

    Worked in the ring of arr.ops, on the ring columns and the integral
    vec: the den and the column scales are nonzero field constants, so
    they move no zero of a form."""
    ops, mons = arr.ops, fr.monomials(deriv.pdeg)
    for alpha in arr.ring_columns:
        g = {}      # theta(alpha) as {monomial: ring element}
        for j, x in deriv.vec.items():
            m, y = mons[j % len(mons)], ops.mul(alpha[j // len(mons)], x)
            g[m] = ops.add(g[m], y) if m in g else y
        if not _vanishes_on_kernel(ops, g, alpha, deriv.pdeg):
            return False
    return True


def _vanishes_on_kernel(ops, g, alpha, p: int) -> bool:
    """Does the degree-p form g {monomial: ring element} vanish on
    ker(alpha)?  It does iff alpha divides g, iff g(s u + r v) = 0 for a
    basis u, v of the kernel, each monomial expanded factor by factor."""
    pivot = next(i for i, a in enumerate(alpha) if not ops.is_zero(a))
    others = [i for i in range(3) if i != pivot]
    u = [ops.zero] * 3
    v = [ops.zero] * 3
    u[others[0]] = alpha[pivot]
    u[pivot] = ops.neg(alpha[others[0]])
    v[others[1]] = alpha[pivot]
    v[pivot] = ops.neg(alpha[others[1]])
    form = [ops.zero] * (p + 1)
    for m, c in g.items():
        term = [ops.one]
        for axis, e in enumerate(m):
            for _ in range(e):
                new = [ops.zero] * (len(term) + 1)
                for a, x in enumerate(term):
                    if not ops.is_zero(x):
                        new[a] = ops.add(new[a], ops.mul(x, u[axis]))
                        new[a + 1] = ops.add(new[a + 1], ops.mul(x, v[axis]))
                term = new
        for a, x in enumerate(term):
            form[a] = ops.add(form[a], ops.mul(c, x))
    return all(map(ops.is_zero, form))


def defining_polynomial(arr: am.Arrangement) -> HPoly:
    """Q = product of the defining linear forms."""
    out = HPoly(0, {(0, 0, 0): arr.ops.field(1)})
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for alpha in field_columns(arr):
        lin = HPoly(1, {e[i]: alpha[i] for i in range(3) if alpha[i]})
        out = poly_mul(out, lin)
    return out


# -- the coefficient-by-coefficient checks that evaluation replaced --------

def restricts_to_zero(ops, alpha, form, p: int) -> bool:
    """Does the degree-p form {monomial: ring element} vanish on
    ker(alpha)?  Parametrized as in freeness._hyperplane_rows, it is the sum
    over a of alpha_i0^(p-a) (sj s + sk r)^a H_a(s, r), H_a holding its
    terms with x_i0^a, which Horner's rule in a adds up."""
    i0, j, k = fr._axes(ops, alpha)
    terms = [[ops.zero] * (p - a + 1) for a in range(p + 1)]
    for m, x in form.items():
        terms[m[i0]][m[j]] = x
    sj, sk = ops.neg(alpha[j]), ops.neg(alpha[k])
    acc, lead = terms[p], ops.one
    for a in range(p - 1, -1, -1):
        lead = ops.mul(lead, alpha[i0])
        acc = [ops.add(x, ops.mul(lead, y)) for x, y in
               zip(fr._times_linear(ops, acc, sj, sk), terms[a])]
    return all(map(ops.is_zero, acc))


def _cleared(polys):
    """(den, den * polys), den the least common denominator of their
    coefficients, which become ints or QuadElems with integral parts."""
    den = lcm(*(q.denominator for f in polys for x in f.coeffs.values()
                for q in ((x.a, x.b) if isinstance(x, QuadElem) else (x,))))

    def times(x):
        if isinstance(x, QuadElem):
            return QuadElem._make(x.d, Fraction(times(x.a)),
                                  Fraction(times(x.b)))
        return x.numerator * (den // x.denominator)
    return den, [HPoly(f.degree, {m: times(x) for m, x in f.coeffs.items()})
                 for f in polys]


def saito_by_coefficients(arr: am.Arrangement, th1, th2, th3):
    """Saito's identity det' = c' Q' over Z or Z[sqrt d], both sides
    expanded and compared coefficient by coefficient: c, or None."""
    if th1.pdeg + th2.pdeg + th3.pdeg != arr.n:
        raise fr.DegreeMismatchError("pdeg sum differs from n")
    ths = [_cleared(hpolys(arr.ops, th)) for th in (th1, th2, th3)]
    det = poly_det3([polys for _, polys in ths])
    if not det:
        return None
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    forms = [_cleared([HPoly(1, dict(zip(units, a)))])
             for a in field_columns(arr)]
    q = reduce(poly_mul, (form for _, (form,) in forms))
    den, scale = (prod(k for k, _ in x) for x in (ths, forms))
    m0, q0 = next(iter(q.coeffs.items()))
    d0 = det.coeffs.get(m0)
    if (d0 is None or det.coeffs.keys() != q.coeffs.keys()
            or any(x * q0 != q.coeffs[m] * d0 for m, x in det.coeffs.items())):
        return None
    one = arr.ops.field(1)
    return one * d0 * scale / (one * q0 * den)


# -- the tables that the closed forms of the Saito step replaced -----------

def hyperplane_rows_by_tables(ops, alpha, blocks, p: int, width: int):
    """freeness._hyperplane_rows from the table of the powers
    (sj s + sk r)^a, each multiplied again by the restriction of every line
    of a block; each block's list of products is left unread."""
    i0, j, k = fr._axes(ops, alpha)
    mul, is_zero = ops.mul, ops.is_zero
    sj, sk = ops.neg(alpha[j]), ops.neg(alpha[k])
    lead = [ops.one]        # alpha_i0^e
    form = [[ops.one]]      # (sj s + sk r)^a
    for _ in range(p):
        lead.append(ops.mul(lead[-1], alpha[i0]))
        form.append(fr._times_linear(ops, form[-1], sj, sk))
    rows = [[ops.zero] * width for _ in range(p + 1)]
    for block, scalar, lines, _ in blocks:
        d = p - len(lines)
        if d < 0:
            continue
        scaled = [ops.mul(scalar, x) for x in lead[:d + 1]]
        prods = form[:d + 1]    # form[a] times the restrictions of the l_i
        for l in lines:
            ls = ops.add(ops.mul(alpha[i0], l[j]), ops.mul(sj, l[i0]))
            lr = ops.add(ops.mul(alpha[i0], l[k]), ops.mul(sk, l[i0]))
            prods = [fr._times_linear(ops, f, ls, lr) for f in prods]
        for col, (a, b, c) in enumerate(((m[i0], m[j], m[k])
                                         for m in fr.monomials(d)),
                                        start=block):
            x = scaled[b + c]
            for t, y in enumerate(prods[a], start=b):
                if not is_zero(y):
                    rows[t][col] = mul(x, y)
    return rows


def normal_form(ops, vec, rows):
    """(k, v), v / k = vec modulo the span of reduced echelon rows (as
    linalg.echelon gives them), in one pass: k the lcm of the rows' dens
    at the pivots where vec is nonzero, and v = k * vec minus its multiples
    of those rows, without zeros.  Reduced rows are zero at the other
    pivots, so v is zero at all."""
    hits = [f for f in vec if f in rows]
    k = lcm(*(rows[f][0] for f in hits))
    v = {j: ops.scale(x, k) for j, x in vec.items() if j not in rows}
    for f in hits:
        den, row = rows[f]
        add_multiple(ops, v, ops.neg(ops.scale(vec[f], k // den)), row)
    return k, {j: x for j, x in v.items() if not ops.is_zero(x)}


def same_field_vector(ops, kv, lw) -> bool:
    """Is v / k = w / l for the pairs (k, v) and (l, w) of an integer and
    a sparse ring vector?"""
    (k, v), (l, w) = kv, lw
    return ({j: ops.scale(x, l) for j, x in v.items()}
            == {j: ops.scale(x, k) for j, x in w.items()})


def modulo_by_euler_rows(ops, p: int, others, c: int):
    """The reduction modulo W = S*theta_E + S*theta that
    freeness._first_complement makes on the first (c = 0) or last (c = 2)
    columns, by the rows m * theta_E themselves, built by freeness._shifts,
    and the reduced echelon of the shifts of theta, applied through
    normal_form: vec -> (k, v), v / k = vec modulo W."""
    def flip(vec):      # linalg.echelon pivots on the largest key
        return vec if c else {-j: x for j, x in vec.items()}
    euler = {}          # the rows m * theta_E by their pivots
    for v in map(flip, fr._shifts({4 * a: ops.one for a in range(3)}, 1, p)):
        f = list(v)[c]
        euler[f] = (1, {j: x for j, x in v.items() if j != f})
    span = echelon([normal_form(ops, v, euler)[1] for d, theta in others
                    for v in map(flip, fr._shifts(theta, d, p))], ops)

    def reduce_modulo(vec):
        k, r = normal_form(ops, normal_form(ops, flip(vec), euler)[1], span)
        return k, flip(r)
    return reduce_modulo


def kernel_by_back_reduction(rows, ncols: int, h, p: int):
    """linalg._kernel_mod as it was: the echelon of linalg._rref_mod
    reduced from the last pivot back, then per free column f a one at f
    and minus column f of the reduced rows at the pivots."""
    pivots, done = linalg._rref_mod([{j: y for j, x in enumerate(row)
                                      if x and (y := h(x))}
                                     for row in rows], ncols, p)
    for k in range(len(done) - 1, -1, -1):
        for j in range(k + 1, len(done)):
            if pivots[j] in done[k]:
                linalg._eliminate(done[k], pivots[j], done[j], p)
    return [{f: 1, **{c: p - row[f] for c, row in zip(pivots, done)
                      if f in row}}
            for f in range(ncols) if f not in pivots]


def linear_product(ops, lines) -> HPoly:
    """The product of the linear forms with the given ring columns, over
    the field of ops."""
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return reduce(poly_mul, (HPoly(1, {e: to_field(ops, x) for e, x in
                                       zip(units, line)}) for line in lines),
                  HPoly(0, {(0, 0, 0): to_field(ops, ops.one)}))


# -- the walks that orbit pruning and integral candidates replaced ---------

def aut_order_by_full_scan(lat: am.IntersectionLattice):
    """(|Aut|, generators) by orbit-stabilizer along the base 1..n, asking
    the backtracker, 1..x-1 pinned, for every image y > x of x."""
    labels = range(1, lat.n + 1)
    order, generators = 1, []
    for x in labels:
        pins = [(h, h) for h in range(1, x)]
        witnesses = [w for y in range(x + 1, lat.n + 1)
                     if (w := am._iso_backtrack(lat, lat, pins + [(x, y)]))]
        order *= len(witnesses) + 1
        generators += (tuple(w[h] for h in labels) for w in witnesses)
    return order, generators


def candidate_additions_over_the_field(arr: am.Arrangement, targets):
    """induction.candidate_additions with points and lines crossed in the
    field, each reported line scaled to a leading 1 in the field."""
    targets = set(targets)
    if not targets:
        return [], True
    flats = arr.lattice().flats
    cols = field_columns(arr)
    points = [_cross(cols[a - 1], cols[b - 1])
              for a, b, *_ in map(sorted, flats)]
    ops = arr.ops
    lines = {}
    for i, p in enumerate(points):
        for j in range(i + 1, len(points)):
            line = _cross(p, points[j])
            lines.setdefault(am.line_key(ops, am.clear_column(ops, line)[1]),
                             (line, set()))[1].update((i, j))
    existing = {am.line_key(ops, am.clear_column(ops, col)[1])
                for col in cols}

    def normal(line):
        lead = next(x for x in line if x)
        return tuple(x / lead for x in line)
    candidates = sorted(
        (normal(line) for key, (line, on) in lines.items()
         if key not in existing
         and arr.n - sum(len(flats[k]) - 1 for k in on) in targets),
        key=lambda v: tuple(str(x) for x in v))
    complete = arr.n - max(targets) > max(len(flat) for flat in flats) - 1
    return candidates, complete


# 20 integer lines with 15 triple points and a trivial automorphism group;
# a minimal-encoding walk over their tied candidates runs for about a minute
ASYMMETRIC20 = [
    (-2, 3, 3), (-2, -4, 0), (-4, 1, 2), (-4, 4, 2), (1, 2, -4),
    (3, -4, -2), (-1, -3, -1), (3, 1, 4), (1, 4, 0), (3, -3, 1),
    (0, -4, 2), (-3, -1, 1), (4, 1, -2), (1, 0, 4), (-3, 0, 1),
    (0, -2, -3), (-2, 0, 3), (-2, -4, -3), (4, 2, -4), (-1, 1, 0),
]


def whitney_char_poly(arr: am.Arrangement):
    """Independent characteristic polynomial oracle.

    Whitney's theorem: chi(x) = sum over subsets S of hyperplanes of
    (-1)^|S| x^(3 - rank(S)).  Exponential in n; used only at desk scale.
    Returns coefficients (c0, c1, c2, c3) ascending.
    """
    cols = [tuple(int(x) for x in _clear(c)) for c in field_columns(arr)]
    coeffs = [0, 0, 0, 0]
    n = arr.n
    for size in range(n + 1):
        for sub in combinations(range(n), size):
            r = rank([[cols[i][k] for i in sub] for k in range(3)]
                     , len(sub), IntOps) if sub else 0
            coeffs[3 - r] += (-1) ** size
    return tuple(coeffs)


def _clear(col):
    from math import lcm

    den = lcm(*(x.denominator for x in col))
    return [x * den for x in col]


def random_corpus(count: int = 200, max_n: int = 8, seed: int = 20240817):
    """Deterministic random essential rational arrangements with n <= max_n."""
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 100 * count:
        attempts += 1
        n = rng.randint(4, max_n)
        cols = []
        ok = True
        for _ in range(n):
            for _try in range(50):
                cand = tuple(rng.randint(-3, 3) for _ in range(3))
                if any(cand) and not any(
                        not any(_cross(cand, c)) for c in cols):
                    cols.append(cand)
                    break
            else:
                ok = False
                break
        if not ok:
            continue
        try:
            out.append(rational_arrangement(*cols))
        except am.ArrangementError:
            continue
    assert len(out) == count
    return out


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


@pytest.fixture(scope="session")
def corpus():
    return random_corpus()


@pytest.fixture(scope="session")
def small_corpus():
    return random_corpus(count=40, max_n=7, seed=917)


@pytest.fixture(scope="session")
def a13():
    """The 13-line family specialized at the generic rational value 3."""
    return mod.specialize(mod.family_13(), 3).arrangement


@pytest.fixture(scope="session")
def a15():
    return mod.specialize(mod.family_15(), 3).arrangement
