"""Freeness of rank-3 arrangements via exact graded linear algebra.

The degree-p piece D(A)_p of the derivation module holds the derivations
theta = f1 D1 + f2 D2 + f3 D3, the f_c of degree p, with theta(alpha)
vanishing on ker(alpha) for every hyperplane.  For a hyperplane H,
D(A)_p = S_(p-1) theta_E (+) D_H(A)_p, where D_H(A) holds the derivations
with theta(alpha_H) = 0 (Orlik-Terao, Arrangements of Hyperplanes, section
4).  In a two-point frame, H and two of its points P, Q (rank-2 flats)
with |F_P| + |F_Q| largest, theta = (pi_Q g1) P + (pi_P g2) Q, where pi_P
is the product of the forms of the other lines through P: every line
through P or Q is then satisfied, and only the lines through neither give
rows, those their known zeros leave open (the lemma is in _dh_system).
The exact kernel of this small system, lifted, and the m * theta_E for the
monomials m of degree p - 1 are a basis of D(A)_p, made canonical only by
derivation_basis.  Coefficients are placed by _column alone: the products
of monomials and the membership packing read tables composed from it.

Membership is checked against every line alpha by one value (_tangent),
in one stacked pass per solve, of all it builds, and per saito_check.  On
ker(alpha), parametrized as in _hyperplane_rows, theta(alpha) is a binary
form F(s, r) = sum_c alpha_c f_c(x(s, r)), each x^m a product of p linear
forms whose coefficients have height sum at most A = max(h(alpha_j) +
h(alpha_k), h(alpha_i0)), h(a + b sqrt d) = |a| + |b|.  As h(xy) <=
|d| h(x) h(y) (d = 1 over Z) and h(alpha_c) <= A, no integer coordinate of
a coefficient of F exceeds M = (|d| A)^(p+1) ||theta||, ||theta|| the
height sum of the coefficients of theta.  So F = 0 iff F(B, 1) = 0 for
B > M: in each coordinate the top nonzero term c_T B^T outweighs the rest,
at most M (B^T - 1) / (B - 1) < B^T.  One B = 2^k above every line's M
serves all lines, so theta is packed in powers of B once per axis i0 and
F(B, 1) takes p + 1 Horner steps per line.

A split characteristic polynomial with exponents (1, e2, e3) decides
freeness: A is free iff its kernel at e2 has 1 + (e3 = e2) vectors (proof
in decide_freeness), and that dimension is the witness if not.  A free A's
Saito basis is theta_E, the first degree-e2 derivation outside S*theta_E,
and the first degree-e3 derivation outside S*theta_E + S*theta_2 in the
canonical basis, found from the lifts alone (_first_complement): modulo
S*theta_E, theta reduces to theta - q * theta_E, and modulo the m * theta_2
by forward substitution on their row echelon form; the three stay integral
until written.  For a free arrangement they always satisfy Saito's
criterion: they lie in D(A), and det = c*Q with c nonzero.  By Saito's
lemma every alpha divides the det of three members, so saito_check tests
the whole criterion by membership and one small evaluation point.  A free
count whose certificate fails raises InvariantError.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, chain, count, repeat
from math import comb, prod

from . import linalg
from .arrangement import Arrangement
from .scalars import (QQ, InvariantError, clear, domain_of, parse_integer,
                      read_scalars, scalar_to_text)


class DegreeMismatchError(ValueError):
    """Saito check on degrees that do not fit n or the terms."""


_TABLE_CACHE_SIZE = 256     # monomials and the column tables, by degrees


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def monomials(p: int) -> tuple:
    """Exponent triples of total degree p, in descending lex order."""
    return tuple((i, j, p - i - j) for i in range(p, -1, -1)
                 for j in range(p - i, -1, -1))


def _column(p: int, c: int, m) -> int:
    """The column of the degree-p monomial m in f_(c+1): c * C(p+2, 2) plus
    m's place in monomials(p), after the q(q+1)/2 with a larger m[0]."""
    q = p - m[0]
    return c * (p + 1) * (p + 2) // 2 + q * (q + 3) // 2 - m[1]


def _terms(p: int, vec: dict):
    """(c, m, x) for each column of a degree-p coefficient vector: x is
    the coefficient of the monomial m in f_(c+1), as _column places it."""
    mons = monomials(p)
    return ((j // len(mons), mons[j % len(mons)], x) for j, x in vec.items())


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _products(d: int, e: int) -> tuple:
    """Per monomial m of degree d, in monomials order, the place in
    monomials(d + e) of m * n for each monomial n of degree e (_column)."""
    return tuple(tuple(_column(d + e, 0, (m[0] + n[0], m[1] + n[1],
                                          m[2] + n[2])) for n in monomials(e))
                 for m in monomials(d))


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _places(p: int, i0: int) -> tuple:
    """Per column of degree p, in order (_column), (p - m_i0, c, m_j) for
    its monomial m in f_(c+1) and i0, j, k as in _axes: the row, side and
    power of B where _tangent packs it."""
    j = 1 if i0 == 0 else 0
    return tuple((p - m[i0], c, m[j]) for c in range(3) for m in monomials(p))


def _product(ops, f, d: int, g, e: int) -> dict:
    """f * g for f of degree d and g of degree e, each {place in
    monomials: ring element}, by _products(d, e), without zeros."""
    out, table = {}, _products(d, e)
    for i, x in f.items():
        row = table[i]
        for k, y in g.items():
            z = ops.mul(x, y)
            out[row[k]] = ops.add(out[row[k]], z) if row[k] in out else z
    return {k: x for k, x in out.items() if not ops.is_zero(x)}


@dataclass(frozen=True)
class Derivation:
    """Homogeneous derivation f1*D1 + f2*D2 + f3*D3 of polynomial degree
    pdeg, as vec / den: column _column(pdeg, c, m) of vec holds the
    coefficient of the monomial m in f_(c+1), a nonzero ring element.
    den > 0 is prime to the integer coordinates of vec taken together."""

    pdeg: int
    den: int
    vec: dict


@dataclass(frozen=True)
class SaitoCertificate:
    derivations: tuple  # three Derivations
    constant: object    # nonzero scalar c with det = c * Q


@dataclass(frozen=True)
class Free:
    exponents: tuple
    certificate: SaitoCertificate


@dataclass(frozen=True)
class NotFree:
    reason: str          # "ChiDoesNotSplit" | "GradedDimensionMismatch"
    detail: tuple = ()   # (p, expected, actual) for dimension mismatches


def expected_graded_dim(exponents, p: int) -> int:
    """Graded dimension of a free module with the given generator degrees."""
    return sum(comb(p - e + 2, 2) for e in exponents if e <= p)


def _axes(ops, alpha):
    """(i0, j, k): i0 the first nonzero entry of alpha, j < k the others."""
    i0 = next(i for i, a in enumerate(alpha) if not ops.is_zero(a))
    j, k = (i for i in range(3) if i != i0)
    return i0, j, k


def _times_linear(ops, form, a, b):
    """The binary form times a s + b r, coefficients by the power of s."""
    return ([ops.mul(form[0], b)]
            + [ops.add(ops.mul(x, a), ops.mul(y, b))
               for x, y in zip(form, form[1:])]
            + [ops.mul(form[-1], a)])


def _hyperplane_rows(ops, alpha, blocks, p: int, width: int,
                     zeros=(0, 0, 0)):
    """The rows, of the given width, saying that the sum F of
    a * l_1 ... l_e * f over the (b, a, (l_1, ..., l_e), prods) in blocks
    vanishes on ker(alpha); a is a ring element, the l_i linear forms, and
    f the polynomial of degree p - e whose coefficients, in monomials(p - e)
    order, start at column b.  A block with e > p is empty.

    With i0, j, k as in _axes, (x_i0, x_j, x_k) = (-alpha_j s - alpha_k r,
    alpha_i0 s, alpha_i0 r) parametrizes ker(alpha), so x_i0^a x_j^b x_k^c
    becomes alpha_i0^(b+c) s^b r^c (-alpha_j s - alpha_k r)^a.  prods[a],
    the restricted l_i times that form to the power a, is filled as far as
    p needs: a list kept across calls restricts once.  Row t holds the
    coefficients of s^t r^(p-t).
    For z known zeros of F, u at s = 0 and v at r = 0 (zeros), only the
    first ceil(w/2) and last floor(w/2) of rows u..p - v are written,
    w = p + 1 - z (_dh_system); a miscounted zero only drops rows, and the
    lifts of the larger kernel fail the membership pass.
    """
    i0, j, k = _axes(ops, alpha)
    add, mul, is_zero = ops.add, ops.mul, ops.is_zero
    sj, sk = ops.neg(alpha[j]), ops.neg(alpha[k])
    lead = list(accumulate(repeat(alpha[i0], p), mul, initial=ops.one))
    z, u, v = zeros
    w = p + 1 - z
    rows = {t: [ops.zero] * width for t in (
        *range(u, u + (w + 1) // 2), *range(p - v - w // 2 + 1, p - v + 1))}
    for block, scalar, lines, prods in blocks:
        d = p - len(lines)
        if d < 0:
            continue
        if not prods:
            prods.append(reduce(lambda f, l: _times_linear(
                ops, f, add(mul(alpha[i0], l[j]), mul(sj, l[i0])),
                add(mul(alpha[i0], l[k]), mul(sk, l[i0]))), lines, [ops.one]))
        while len(prods) <= d:
            prods.append(_times_linear(ops, prods[-1], sj, sk))
        scaled = [mul(scalar, x) for x in lead[:d + 1]]     # a alpha_i0^e
        for col, (r, _, b) in zip(range(block, block + comb(d + 2, 2)),
                                  _places(d, i0)):      # those of f_1
            x = scaled[r]                               # r = b + c = d - a
            for t, y in enumerate(prods[d - r], start=b):
                if t in rows and not is_zero(y):
                    rows[t][col] = mul(x, y)
    return list(rows.values())


def _two_point_frame(arr: Arrangement):
    """((P, lines through Q, pi_Q), (Q, lines through P, pi_P), the lines
    through neither as (column, zeros, prods)): the two-point frame on H,
    as ring columns, pi the product of the forms of its lines as {place:
    ring element}, prods a list per point for _hyperplane_rows to fill.

    H and two of its points P, Q maximize |F_P| + |F_Q|, taking the first
    H and then the first flats in lattice order on ties; a line of an
    essential arrangement meets at least two flats.  P and Q are the cross
    products of alpha_H with one other member of their flat, and H is
    among none of the lines returned.  The zeros (z, u, v) of a line K
    through neither point count the flats on K with two other lines that
    hold before K in row order (_dh_system), u and v of them at x_j = 0
    and x_k = 0 (_axes); a miscounted zero fails the lifts' membership.
    """
    ops, cols, lat = arr.ops, arr.ring_columns, arr.lattice()
    flats = lat.flats
    points = [sorted(sorted(fs, key=lambda f: -len(flats[f]))[:2])
              for fs in lat.per_hyperplane]
    h = max(range(lat.n), key=lambda h: sum(len(flats[f]) for f in points[h]))
    fp, fq = (sorted(flats[f] - {h + 1}) for f in points[h])
    frame = []
    for f, g in ((fp, fq), (fq, fp)):
        lines, pi = [cols[i - 1] for i in g], {0: ops.one}
        for e, l in enumerate(lines):
            pi = _product(ops, pi, e, dict(enumerate(l)), 1)
        point = linalg.ring_cross(ops, cols[h], cols[f[0] - 1])
        frame.append((point, lines, pi))
    framed = {h + 1, *fp, *fq}
    held, rest = [len(f & framed) for f in flats], []   # lines that hold
    for i, col in enumerate(cols, start=1):
        if i in framed:
            continue
        through, (_, j, k) = lat.per_hyperplane[i - 1], _axes(ops, col)
        zeros = [linalg.ring_cross(ops, col, cols[min(flats[f] - {i}) - 1])
                 for f in through if held[f] > 1]
        rest.append((col, (len(zeros), sum(ops.is_zero(x[j]) for x in zeros),
                           sum(ops.is_zero(x[k]) for x in zeros)), ([], [])))
        for f in through:
            held[f] += 1
    return (*frame, rest)


def _dh_system(ops, frame, p: int):
    """(rows, width, blocks): the two-point system for D_H(A)_p in the
    frame, and per block (first column, degree, point, the lines of pi, pi).

    Lemma.  Let P, Q be two points of H and write theta in D_H(A) as
    theta = f1 P + f2 Q.  For a line K != H through P, theta(alpha_K) =
    f2 alpha_K(Q) with alpha_K(Q) != 0, since only H holds both points;
    so alpha_K divides f2.  Hence f2 = pi_P g2 and f1 = pi_Q g1, pi_P and
    pi_Q the products of the forms of the other lines through P and
    through Q, and theta(alpha_K) is then divisible by alpha_K for H and
    every line through P or Q.  The unknowns are g1 of degree
    p - (|F_Q| - 1) and g2 of degree p - (|F_P| - 1), a negative degree
    giving an empty block, and only the lines K through neither point
    give rows: F_K = alpha_K(P) pi_Q g1 + alpha_K(Q) pi_P g2 vanishes on
    ker(alpha_K).

    Zeros.  A line holds when theta(alpha) vanishes on ker(alpha): H and
    the lines through P or Q do, and so, by induction, does each earlier K
    on the kernel of its rows.  There, let X be a flat on K with two other
    lines that hold; theta(X) lies in span(P, Q) = ker(alpha_H).  Off H,
    the two meet H at two points, so their alphas are independent on
    span(P, Q) and theta(X) = 0; on H, one is a K' != H, and alpha_K'
    vanishes on span(P, Q) only at X, so theta(X) is a multiple of X.
    Either way F_K(X) = 0, at z distinct points.  So F_K = s^u r^v L G, L
    of degree z - u - v with nonzero end coefficients and G of degree
    p - z, and the first ceil(w/2) and last floor(w/2) of rows u..p - v
    fix G's w = p + 1 - z coefficients, by forward and backward
    substitution.  The rows written thus have the full system's kernel and
    nullspace basis, and a line with z > p writes none.
    """
    *points, rest = frame
    blocks, width = [], 0
    for point, lines, pi in points:
        blocks.append((width, p - len(lines), point, lines, pi))
        width += len(monomials(p - len(lines)))
    rows = [row for beta, zeros, prods in rest for row in _hyperplane_rows(
        ops, beta, [(b, linalg.ring_dot(ops, beta, point), lines, pr)
                    for (b, _, point, lines, _), pr in zip(blocks, prods)],
        p, width, zeros)]
    return rows, width, blocks


def derivation_space_dim(arr: Arrangement, p: int) -> int:
    """Exact dimension of the degree-p graded piece of the derivation
    module: C(p+1, 2) for S_(p-1) theta_E plus the nullity of the
    two-point system; at p = e2, the actual of a NotFree witness."""
    if p < 0:
        raise ValueError("degree must be nonnegative")
    rows, width, _ = _dh_system(arr.ops, _two_point_frame(arr), p)
    return comb(p + 1, 2) + width - linalg.rank(rows, width, arr.ops)


def _shifts(vec, d: int, p: int) -> list:
    """The coefficient vectors of m * theta for the monomials m of degree
    p - d, in monomials order, theta of degree d with coefficient vector
    vec."""
    size, n = comb(p + 2, 2), comb(d + 2, 2)
    terms = [(j // n * size, j % n, x) for j, x in vec.items()]   # (c, e)
    return [{c + row[e]: x for c, e, x in terms}
            for row in _products(p - d, d)]


def _height(ops, xs) -> int:
    """The height sum of the ring elements xs (see the module docstring)."""
    return sum(map(abs, chain.from_iterable(map(ops.ints, xs))))


def _tangent(ops, cols, thetas) -> bool:
    """Is every theta, given as (degree p, coefficient vector), tangent to
    every line?  Those of one degree are stacked as Theta = sum C^t theta_t,
    C = 2^s > 2M, M as in the module docstring for the largest ||theta_t||
    and A the largest h(alpha_1) + h(alpha_2) + h(alpha_3) of a line, at
    least the A of each.  F is linear in theta, so F_Theta = sum C^t F_t,
    whose balanced base-C digits are the F_t, no coordinate above M < C/2:
    F_Theta = 0 iff every F_t = 0.  Theta, of T thetas, is tested by
    F(B, 1) = 0 at B = C^T, above its M <= sum C^t M_t < (C/2) sum_(t<T)
    C^t.  With i0, j, k as in _axes, x^m is X^a alpha_i0^(p-a) B^(m_j) at
    (s, r) = (B, 1), a = m_i0 and X = -alpha_j B - alpha_k, so Theta is
    packed once per axis i0 as P_(a,c) = sum over m_i0 = a of f_c[m]
    B^(m_j), and F(B, 1) = sum_a X^a alpha_i0^(p-a) sum_c alpha_c P_(a,c)
    takes p + 1 Horner steps per line."""
    add, mul = ops.add, ops.mul
    reach = max((_height(ops, alpha) for alpha in cols), default=0)     # A
    lines = [(*_axes(ops, alpha), alpha) for alpha in cols]
    for p in dict.fromkeys(p for p, _ in thetas):
        vecs, vec = [v for q, v in thetas if q == p], {}
        s = ((abs(ops.d) * reach) ** (p + 1) * max(      # C = 2^s
            _height(ops, v.values()) for v in vecs)).bit_length() + 1
        for t, v in enumerate(vecs):
            linalg.add_multiple(ops, vec, ops.scale(ops.one, 1 << s * t), v)
        big = s * len(vecs)                                     # B = C^T
        packed = {}
        powers = [1 << big * e for e in range(p + 1)]           # B^e
        for i0, j, k, alpha in lines:
            if i0 not in packed:        # P_(a,c) at row p - a
                packed[i0] = rows = [[ops.zero] * 3 for _ in range(p + 1)]
                places = _places(p, i0)
                for col, y in vec.items():
                    r, c, e = places[col]
                    rows[r][c] = add(rows[r][c], ops.scale(y, powers[e]))
            x = ops.neg(add(ops.scale(alpha[j], 1 << big), alpha[k]))
            acc, lead = ops.zero, ops.one       # lead = alpha_i0^(p-a)
            for row in packed[i0]:
                acc = add(mul(acc, x), mul(lead, reduce(add, map(mul, alpha,
                                                                 row))))
                lead = mul(lead, alpha[i0])
            if not ops.is_zero(acc):
                return False
    return True


def _lifts(ops, frame, p: int, lead=None):
    """(lifts, leads): the lifts of the exact two-point kernel at degree p
    in the given frame (_two_point_frame), coefficient vectors unchecked
    (each caller tests them by _tangent: a wrong frame, or a miscounted
    zero, fails there), and the first nonzero coordinate of each kernel
    vector as (block, monomial).  A lead (k, u) from a lower degree fixes
    to zero the columns u * m of block k (see _first_complement)."""
    rows, width, blocks = _dh_system(ops, frame, p)
    fixed = set()
    if lead is not None:
        (b, d, *_), u = blocks[lead[0]], lead[1]
        fixed = {b + _column(d, 0, tuple(map(sum, zip(u, m))))
                 for m in monomials(d - sum(u))}
    keep = [j for j in range(width) if j not in fixed]
    lifts, leads, size = [], [], comb(p + 2, 2)
    for g in linalg.nullspace([[row[j] for j in keep] for row in rows],
                              len(keep), ops):
        g = {j: x for j, x in zip(keep, g) if not ops.is_zero(x)}
        j = next(iter(g))
        k = max(k for k, (b, *_) in enumerate(blocks) if b <= j)
        leads.append((k, monomials(blocks[k][1])[j - blocks[k][0]]))
        theta = {}
        for b, d, point, lines, pi in blocks:
            q = _product(ops, {j - b: x for j, x in g.items()
                               if 0 <= j - b < len(monomials(d))}, d,
                         pi, len(lines))
            for c, a in enumerate(point):
                linalg.add_multiple(ops, theta, a, {c * size + i: x
                                                    for i, x in q.items()})
        lifts.append({j: x for j, x in theta.items() if not ops.is_zero(x)})
    return lifts, leads


def derivation_basis(arr: Arrangement, p: int) -> list:
    """Basis of the degree-p graded piece, as integral Derivations: the
    canonical basis on the coefficients of (f1, f2, f3) by monomials(p),
    linalg.echelon of the m * theta_E and the lifts, a basis of D(A)_p
    (direct sum and lemma), each row one at its pivot.  Tests hold it
    against the full system, and decide_freeness does not build it."""
    if p < 0:
        raise ValueError("degree must be nonnegative")
    ops, lifts = arr.ops, _lifts(arr.ops, _two_point_frame(arr), p)[0]
    if not _tangent(ops, arr.ring_columns, [(p, vec) for vec in lifts]):
        raise InvariantError(f"a lift of degree {p} misses a line")
    rows = _shifts(euler_derivation(arr).vec, 1, p) + lifts
    return [Derivation(p, den, {f: ops.scale(ops.one, den), **row})
            for f, (den, row) in sorted(linalg.echelon(rows, ops).items())]


def euler_derivation(arr: Arrangement) -> Derivation:
    """theta_E = x1*D1 + x2*D2 + x3*D3, a member for every arrangement:
    column 4c is x_c in f_c, as monomials(1)[c] = x_c."""
    return Derivation(1, 1, {4 * c: arr.ops.one for c in range(3)})


def saito_check(arr: Arrangement, th1: Derivation, th2: Derivation,
                th3: Derivation):
    """Saito's criterion: the three derivations lie in D(A), and det of
    their coefficient matrix is c * Q with c nonzero.

    Returns the constant c on success, None otherwise; a negative pdeg,
    pdegs not summing to n, or a vec index of no monomial of its pdeg
    raise DegreeMismatchError.
    The vecs of the derivations and the arrangement's ring columns, the
    forms alpha', give det' and Q' over Z or Z[sqrt d].  Each field form is
    g / den times its alpha' (Arrangement.scales), so det' = c' Q' gives
    c, the one field element made, as c' times the product of the scales'
    dens over the product of their g's and of the derivations' dens.

    Membership is tested by _tangent, in one call.  For members, every
    alpha' divides det' (Saito's lemma: Orlik-Terao, Arrangements of
    Hyperplanes, Prop. 4.12 and Thm. 4.19), and the alpha' are pairwise
    prime, so Q' divides det'.  Both are homogeneous of degree n, so det' =
    c' Q' for a constant c'.  Let v = (1, t, t^2) for the least t >= 0 with
    Q'(v) != 0; t <= 2n, as each form is a nonzero quadratic in t there.
    Then c' = det'(v) / Q'(v), nonzero iff det'(v) is (_saito_constant).
    """
    ths, pdegs = (th1, th2, th3), (th1.pdeg, th2.pdeg, th3.pdeg)
    if min(pdegs) < 0 or sum(pdegs) != arr.n or any(
            not 0 <= j < 3 * comb(th.pdeg + 2, 2) for th in ths
            for j in th.vec):
        raise DegreeMismatchError(f"pdegs {pdegs}: a negative one, a sum "
                                  f"other than n = {arr.n}, or a misfit term")
    ops, cols = arr.ops, arr.ring_columns
    if not _tangent(ops, cols, [(th.pdeg, th.vec) for th in ths]):
        return None
    return _saito_constant(arr, ths)


def _saito_constant(arr: Arrangement, ths):
    """saito_check's c, or None, for three members of D(A): det at a point."""
    ops, cols = arr.ops, arr.ring_columns
    for t in count():
        qv = reduce(ops.mul, (reduce(ops.add, map(ops.scale, col, (
            1, t, t * t))) for col in cols))
        if not ops.is_zero(qv):
            break
    rows = [[ops.zero] * 3 for _ in ths]
    for row, th in zip(rows, ths):
        for c, m, x in _terms(th.pdeg, th.vec):
            row[c] = ops.add(row[c], ops.scale(x, t ** (m[1] + 2 * m[2])))
    dv = linalg.det3(rows, ops)
    if ops.is_zero(dv):
        return None
    x = ops.cofactor(qv)        # qv * x is an integer
    return ops.from_coords(
        ops.ints(ops.scale(ops.mul(dv, x), prod(d for _, d in arr.scales))),
        ops.ints(ops.mul(qv, x))[0] * prod(g for g, _ in arr.scales)
        * prod(th.den for th in ths))


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _euler_terms(p: int, c: int) -> dict:
    """{the column of m * x_c in f_c: the columns of m * x_a in the other
    f_a}, over the monomials m of degree p - 1: the terms of m * theta_E,
    x_a being monomials(1)[a]."""
    size = comb(p + 2, 2)
    return {c * size + row[c]: [a * size + row[a] for a in range(3) if a != c]
            for row in _products(p - 1, 1)}


def _euler_reduced(ops, p: int, c: int, vec) -> dict:
    """vec - q * theta_E, q the terms of f_c divisible by x_c over x_c, its
    keys negated if c = 0, so that the last key is the first column."""
    terms, v = _euler_terms(p, c), dict(vec)
    for f in terms.keys() & vec.keys():
        y = ops.neg(v.pop(f))
        for j in terms[f]:
            x = ops.add(v.pop(j), y) if j in v else y
            if not ops.is_zero(x):
                v[j] = x
    return v if c else {-j: x for j, x in v.items()}


def _first_complement(ops, p: int, others, lifts):
    """(den, vector, rest): the first canonical row of D(A)_p outside W =
    S*theta_E + S*theta, theta for the (degree, vector) pairs in others,
    reduced modulo W on first columns, over den, the two without a common
    factor (linalg.primitive), and rest, the other rows of the echelon
    below; or None.

    lifts span D(A)_p with W and are independent modulo W.  Reduced modulo
    W on last columns, which lowers no last column, and put in echelon,
    their row of least pivot is one at the least last column f of a vector
    outside W.  So is the first canonical row outside W, as the rows before
    it lie in W, and the two differ by a vector with last column below f,
    in W.  So they have one reduction on first columns.  Reducing by the
    m * theta_E subtracts q * theta_E (_euler_reduced): none is built.  The
    shifts of theta, built once, are then independent: a * theta_E = -b *
    theta with b != 0 forces b | a, as gcd(x1, x2, x3) = 1, and theta in
    S*theta_E.  Per side they are put in row echelon form, not back-reduced
    (linalg.triangular), and linalg.forward_reduce reduces by it: v / k is
    zero at the pivots of W and differs from the vector by an element of W,
    as does the reduced echelon's normal form, so the two are equal (their
    difference lies in W and is zero at its pivots).

    At e3 > e2, the solve at e3 fixes the columns m * LM(g2) to zero, g2
    spanning the kernel at e2 and LM its first term.  The order of
    monomials is lex, so m * LM(g2) is the first term of m * g2: the m * g2
    are triangular on those columns, and the kernel left is a complement
    of S*g2, its lifts one of W.
    """
    shifts = [v for d, theta in others for v in _shifts(theta, d, p)]

    def modulo(c, vecs):        # (k, v) per vector: v / k modulo W on side c
        span = linalg.triangular(
            [_euler_reduced(ops, p, c, v) for v in shifts], ops)
        return [linalg.forward_reduce(ops, _euler_reduced(ops, p, c, v), span)
                for v in vecs]
    rows = sorted(linalg.echelon([v for _, v in modulo(2, lifts)],
                                 ops).items())
    if not rows:
        return None
    (den, vec), *rest = [(den, {f: ops.scale(ops.one, den), **row})
                         for f, (den, row) in rows]
    [(k, r)] = modulo(0, [vec])
    return (*linalg.primitive(ops, den * k, {-j: x for j, x in r.items()}),
            [vec for _, vec in rest])


# Verdicts by state_key, oldest evicted first once the bound is reached.
_VERDICT_CACHE_SIZE = 4096
_VERDICT_CACHE: dict = {}


def state_key(arr: Arrangement) -> tuple:
    """Coordinate key: the field name and the sorted line keys, equal
    exactly for arrangements of the same lines over the same field."""
    return (arr.ops.name, *sorted(arr.keys))


def decide_freeness(arr: Arrangement, use_cache: bool = True):
    """Free, with a verified Saito identity, or NotFree, with its witness.

    NotFree is reported for a non-splitting characteristic polynomial
    (Terao's factorization) or, when dim D(A)_(e2) differs from a free
    module's, as (e2, expected, actual), actual being
    derivation_space_dim(arr, e2).

    Why that one dimension decides.  Let chi split with exponents
    (1, e2, e3), e2 <= e3 and 1 + e2 + e3 = n.  D(A) = S*theta_E
    (+) D_H(A), with D_H(A) isomorphic to D_0(A), the derivations killing Q,
    so dim D(A)_p = C(p+1, 2) + dim D_H(A)_p.  Let r be the least degree of
    D_H(A): the least p with dim D(A)_p > C(p+1, 2), and the minimal degree
    of a Jacobian relation of the curve Q = 0.  The global Tjurina number of
    that curve is tau = sum over points X of (|X| - 1)^2, which by
    sum |X|(|X| - 1) = n(n - 1) and chi(t)/(t - 1) = t^2 - (n-1)t + e2*e3
    equals (n-1)^2 - e2*e3 = (n-1)^2 - e2(n-1-e2).  By du Plessis-Wall
    (Math. Proc. Camb. Phil. Soc. 126, 1999), tau <= (n-1)^2 - r(n-1-r),
    and by Dimca (Math. Proc. Camb. Phil. Soc. 163, 2017) equality holds iff
    A is free; both hold over C, and dimensions do not change from Q or
    Q(sqrt d) to C.  So if A is not free, r(n-1-r) < e2(n-1-e2) with
    e2 <= (n-1)/2, hence r < e2 or r > e3 >= e2.  If r < e2, the degree-e2
    monomial multiples of a nonzero member of D_H(A)_r give
    dim D_H(A)_(e2) >= C(e2 - r + 2, 2) >= 3; if r > e3, it is 0.  A free
    D_H(A), on generators of degrees e2 and e3, has 1 + (e3 = e2) there.  A
    free A always passes the Saito step (by graded Nakayama, theta_E and the
    first complements in degrees e2 and e3 are a basis), so a free count
    whose Saito step fails raises InvariantError: the program is at fault.

    Arrangements of the same lines, in any column order and scaling, share
    a cache entry, which holds the verdict.  They have the same derivation
    module, so a cached Saito basis is the caller's too, and a Free hit
    re-checks Saito's whole criterion on the caller's own columns
    (saito_check) and reports the constant found there; a basis that fails
    there raises InvariantError.  The cache keeps the latest
    _VERDICT_CACHE_SIZE verdicts.
    """
    if not use_cache:
        return _decide_freeness_impl(arr)
    key = state_key(arr)
    verdict = _VERDICT_CACHE.get(key)
    if verdict is None:
        verdict = _decide_freeness_impl(arr)
        if len(_VERDICT_CACHE) >= _VERDICT_CACHE_SIZE:
            del _VERDICT_CACHE[next(iter(_VERDICT_CACHE))]
        _VERDICT_CACHE[key] = verdict
        return verdict
    if isinstance(verdict, NotFree):
        return verdict
    cert = verdict.certificate
    c = saito_check(arr, *cert.derivations)
    if c is None:
        raise InvariantError("a cached Saito basis fails on an arrangement "
                             "of the same lines")
    if c == cert.constant:
        return verdict
    return Free(verdict.exponents, SaitoCertificate(cert.derivations, c))


def _decide_freeness_impl(arr: Arrangement):
    exps = arr.char_poly().exponents()
    if exps is None:
        return NotFree("ChiDoesNotSplit")
    _, e2, e3 = exps
    ops, cols = arr.ops, arr.ring_columns
    frame = _two_point_frame(arr)
    lifts, leads = _lifts(ops, frame, e2)
    built, ths = [(e2, vec) for vec in lifts], ()
    # dim D_H(A)_(e2) is 1 + (e3 = e2) iff A is free (see decide_freeness)
    free = len(lifts) == 1 + (e3 == e2)
    if free and (th2 := _first_complement(ops, e2, (), lifts)) is not None:
        lifts = (th2[2] if e3 == e2 else
                 _lifts(ops, frame, e3, leads[0])[0])
        built += [(e3, vec) for vec in lifts if e3 > e2]  # th2[2]: tested
        th3 = _first_complement(ops, e3, ((e2, th2[1]),), lifts)
        if th3 is not None:
            ths = (euler_derivation(arr), Derivation(e2, *th2[:2]),
                   Derivation(e3, *th3[:2]))
    if not _tangent(ops, cols, built + [(th.pdeg, th.vec) for th in ths]):
        raise InvariantError("a derivation the solve built misses a line")
    if not free:
        return NotFree("GradedDimensionMismatch", (
            e2, expected_graded_dim(exps, e2), comb(e2 + 1, 2) + len(built)))
    if ths and (c := _saito_constant(arr, ths)) is not None:
        return Free(exps, SaitoCertificate(ths, c))
    raise InvariantError(
        f"D_H(A) has the dimension of a free module with exponents {exps} "
        f"in degree {e2}, yet the Saito step failed")


# -- certificate serialization -------------------------------------------

def _one_scalar(toks):
    """The scalar that toks hold; other tokens raise ValueError."""
    xs = read_scalars(toks)
    if len(xs) != 1:
        raise ValueError(f"expected one scalar, not {' '.join(toks)!r}")
    return xs[0]


def certificate_to_text(cert: SaitoCertificate) -> str:
    """The certificate as text, each term of a derivation's vec / den
    divided out here, in the field of c."""
    ops = domain_of(cert.constant)
    lines = ["saito-certificate", "c " + scalar_to_text(cert.constant)]
    for k, th in enumerate(cert.derivations, start=1):
        lines.append(f"derivation {k} pdeg {th.pdeg}")
        for c, m, x in sorted(_terms(th.pdeg, th.vec)):
            lines.append(f"term {c + 1} {m[0]} {m[1]} {m[2]} "
                         + scalar_to_text(ops.from_coords(ops.ints(x),
                                                          th.den)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def certificate_from_text(text: str) -> SaitoCertificate:
    """The certificate certificate_to_text wrote, each derivation cleared
    once (scalars.clear); malformed text, or a term outside the field of
    c, raises ValueError naming its line."""
    lines = [(i, ln.split()) for i, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    if not lines or lines[0][1] != ["saito-certificate"]:
        raise ValueError("not a saito certificate")
    constant, derivs = None, []
    for i, parts in lines[1:]:
        try:
            if parts[0] == "c" and constant is None:
                constant = _one_scalar(parts[1:])
            elif parts[0] == "derivation" and len(parts) == 4 and parts[
                    1:3] == [str(len(derivs) + 1), "pdeg"]:
                derivs.append((parse_integer(parts[3]), {}))
                if derivs[-1][0] < 0:
                    raise ValueError(f"negative pdeg {parts[3]}")
            elif parts[0] == "term" and derivs:
                c, *m = map(parse_integer, parts[1:5])
                pdeg, terms = derivs[-1]
                if c not in (1, 2, 3) or len(m) != 3 or min(m) < 0 \
                        or sum(m) != pdeg:
                    raise ValueError(f"no term {parts[1:5]} in a derivation "
                                     f"of pdeg {pdeg}")
                if (c - 1, tuple(m)) in terms:
                    raise ValueError(f"term {parts[1:5]} repeats line "
                                     f"{terms[c - 1, tuple(m)][0]}")
                terms[c - 1, tuple(m)] = i, _one_scalar(parts[5:])
            elif parts != ["end"] or i != lines[-1][0]:
                raise ValueError(f"unexpected {' '.join(parts)!r}")
        except (ValueError, IndexError) as exc:
            raise ValueError(f"line {i}: {exc}") from None
    if lines[-1][1] != ["end"] or constant is None or len(derivs) != 3:
        raise ValueError(f"line {lines[-1][0]}: a certificate ends after a "
                         f"c line and three derivations")
    ops, ths = domain_of(constant), []
    for i, x in (t for _, terms in derivs for t in terms.values()):
        if domain_of(x).name not in (ops.name, QQ.name):
            raise ValueError(f"line {i}: a term outside {ops.name}, the "
                             f"field of c")
    for pdeg, terms in derivs:
        den, ring = clear(ops, [x for _, x in terms.values()])
        ths.append(Derivation(pdeg, den, {
            _column(pdeg, c, m): y for (c, m), y in zip(terms, ring)
            if not ops.is_zero(y)}))
    return SaitoCertificate(tuple(ths), constant)
