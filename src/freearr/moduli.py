"""One-parameter arrangement families over Z[t].

A Family is a 3xn matrix of integer polynomials in one parameter t.  Over
Z[t] the columns define the generic lattice, since a triple of columns is
dependent for generic t exactly when its 3x3 minor is the zero polynomial; at
a specific parameter value (rational or quadratic irrational) columns may
vanish, merge, or become newly dependent.  The degeneracy set collects
every parameter value where the hyperplane count drops (CountDrops) or the
count survives but the intersection lattice changes (LatticeChanges).

It is read off the minors by divisibility, without specializing the family.
A minor g in Z[t] vanishes at a root of an irreducible q exactly when q
divides g.  If q divides the gcd of a pair's cross-product minors, that pair
vanishes or merges there: CountDrops.  Otherwise q divides a triple
determinant that is not identically zero, and every column stays nonzero
and distinct.  Every generically dependent triple stays dependent, so the
specialized partition of pairs into flats is a coarsening of the generic
one, and the new dependent triple merges generic flats: there are strictly
fewer flats (or the rank falls below 3), so the lattice cannot be
isomorphic to the generic one: LatticeChanges.  A minor of columns that
are all constant in t is a constant, so no such triple is dotted.

Minors are computed as integers (Kronecker substitution, _packed): each
entry p becomes p(2^k).  With entries of degree <= L and coefficients
|c| <= H, a cross-product minor has coefficients at most 2(L+1)H^2 and a
triple determinant at most 6(L+1)^2 H^3; k is least with 2^(k-1) above
that.  Packing is a ring map Z[t] -> Z, so a packed minor is 0 exactly
when its polynomial is, and _unpack reads it back as balanced base-2^k
digits; the polynomial is constant exactly when |value| < 2^(k-1), since
for degree D >= 1 the top term exceeds the others by more than 2^(kD)/2.
The bound covers the cross products, so two packed columns have equal line
keys exactly when the columns are proportional over Q(t): Family is
validated by them, and keeps what specialize needs of the constant ones.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .arrangement import (
    Arrangement,
    IntersectionLattice,
    NotEssentialError,
    _compute_lattice,
    _has_rank3,
    first_equal_pair,
    lattice_iso,
    line_key,
    primitive,
)
from .linalg import ring_cross, ring_dot
from .scalars import (
    IntOps,
    IntPoly,
    clear,
    domain_of,
    factor_low_degree,
    parse_integer,
    poly,
    poly_gcd,
)

COUNT_DROPS = "CountDrops"
LATTICE_CHANGES = "LatticeChanges"


@dataclass(frozen=True)
class Family:
    """3xn matrix over Z[t]; columns are the covectors of the family.  Its
    packing is (k, packed columns), and fixed[j] is (g, form, line key) if
    column j + 1 is constant in t, its own packing g times form, else None."""

    name: str
    columns: tuple  # tuple of 3-tuples of IntPoly

    @property
    def n(self) -> int:
        return len(self.columns)

    def __post_init__(self):
        for j, col in enumerate(self.columns, start=1):
            if len(col) != 3 or not all(isinstance(p, IntPoly) for p in col):
                raise ValueError(f"column {j} is not three IntPoly entries")
            if not any(col):
                raise ValueError(f"column {j} is identically zero")
        k, packed = _packed(self)
        pair = first_equal_pair(keys := [line_key(IntOps, c) for c in packed])
        if pair:
            raise ValueError("columns {} and {} are identically "
                             "proportional".format(*pair))
        self.__dict__.update(packing=(k, packed), fixed=tuple([
            (*primitive(IntOps, c), key) if all(p.degree < 1 for p in col)
            else None for col, c, key in zip(self.columns, packed, keys)]))


def _cols(*columns):
    out = []
    for col in columns:
        out.append(tuple(
            e if isinstance(e, IntPoly) else poly(e) for e in col))
    return tuple(out)


_T = poly(0, 1)


def family_13() -> Family:
    """The 13-line family: 30 triple points generically, aut order 18."""
    t = _T
    return Family("paper13", _cols(
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, -1), (0, 1, -1), (1, 1, -1),
        (1, 0, -1 * t), (0, 1, -1 * t), (1, 1, -1 * t), (1, 1, -1 * t - 1),
        (t, 1, -1 * t), (1, 1 - t, -1), (t - 1, t, -1 * (t * t)),
    ))


def family_15() -> Family:
    """The 15-line family: 39 rank-2 flats generically, aut order 48."""
    t = _T
    return Family("paper15", _cols(
        (1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1), (1, t, 1), (0, 1, 0),
        (2, 1, 1), (t + 1, t, 1), (t + 1, 1, 1), (2 * t, t, 1),
        (1, 1 - t, 1), (1 - 3 * t, t * t - 3 * t + 1, -1 * t),
        (3 * t - 1, t, t), (1 - 3 * t, -1 * (t * t), -1 * t),
        (3 * t - 1, 2 * t - 1, t),
    ))


BUILTIN_FAMILIES = {"paper13": family_13, "paper15": family_15}


def _packed(f: Family):
    """(k, columns), each entry p of f packed as p(2^k) (module docstring)."""
    entries = [p.coeffs for col in f.columns for p in col]
    size = max(map(len, entries), default=1)
    height = max((abs(c) for cs in entries for c in cs), default=0)
    k = (6 * size * size * height ** 3).bit_length() + 1
    return k, tuple(tuple(sum(c << k * e for e, c in enumerate(p.coeffs))
                          for p in col) for col in f.columns)


def _unpack(v: int, k: int) -> IntPoly:
    """The p with p(2^k) = v: the balanced base-2^k digits of v."""
    coeffs, half, mask = [], 1 << (k - 1), (1 << k) - 1
    while v:
        c = ((v + half) & mask) - half
        coeffs.append(c)
        v = (v - c) >> k
    return IntPoly(coeffs)


def generic_lattice(f: Family) -> IntersectionLattice:
    """Lattice of the family at a generic t, scanned on packed columns."""
    _, cols = f.packing
    if not _has_rank3(cols):
        raise NotEssentialError()
    return _compute_lattice(IntOps, cols)


@dataclass(frozen=True)
class SpecializationResult:
    """Outcome of evaluating a family at one parameter value."""

    omega: object
    count: int                    # |A_omega| after drops and merges
    arrangement: Arrangement | None   # None when the rank falls below 3
    dropped: tuple                # 1-based labels of vanished columns
    merges: tuple                 # tuples of 1-based labels that coincide


def _integral_images(columns, omega):
    """(ops, images, dens): columns[i] at omega is images[i] / dens[i].

    omega is written x / y with y a positive integer and x an integer, or
    an (a, b) pair of Z[sqrt d] when omega is in Q(sqrt d).  Each entry p
    of a column whose largest degree is D is evaluated homogeneously, as
    the sum of p_k x^k y^(D - k), so images[i] is an integral column over
    ops and dens[i] = y^D.
    """
    ops = domain_of(omega)
    y, (x,) = clear(ops, [omega])
    y_ring, quad = ops.scale(ops.one, y), ops.parts == 2
    x_pow, y_pow = [ops.one], [ops.one]
    terms = {}  # D -> the coordinate lists of x^k y^(D - k), k = 0..D
    images, dens = [], []
    for col in columns:
        top = max(len(p.coeffs) for p in col) - 1
        if top not in terms:
            while len(x_pow) <= top:
                x_pow.append(ops.mul(x_pow[-1], x))
                y_pow.append(ops.mul(y_pow[-1], y_ring))
            ts = [ops.mul(x_pow[k], y_pow[top - k]) for k in range(top + 1)]
            terms[top] = list(zip(*ts)) if quad else [ts]
        coords = terms[top]
        if quad:
            images.append(tuple([(sum(map(mul, p.coeffs, coords[0])),
                                  sum(map(mul, p.coeffs, coords[1])))
                                 for p in col]))
        else:
            images.append(tuple([sum(map(mul, p.coeffs, coords[0]))
                                 for p in col]))
        dens.append(y ** top)
    return ops, images, dens


def specialize(f: Family, omega) -> SpecializationResult:
    """Evaluate the family at omega and build the specialized arrangement.

    Only the columns that depend on t are evaluated, to integral images
    (_integral_images), and keyed (line_key) by their primitive forms; the
    others are as Family.fixed keeps them, with irrational parts 0 over
    Q(sqrt d).  Vanishing and merging are read off the keys, so the kept
    columns, one per key, are distinct: the arrangement holds their forms,
    keys and scales (g, den), the image being g times its form and den its
    denominator, and is None when their rank is below 3.  Degenerate
    outcomes are data, never errors.  Whether the lattice is still generic
    is asked by vL_membership.
    """
    omega = domain_of(omega).field(omega)
    ops, images, dens = _integral_images(
        [col for col, fixed in zip(f.columns, f.fixed) if not fixed], omega)
    evaluated, quad = zip(images, dens), ops.parts == 2
    dropped = []
    groups: dict = {}  # line key -> (form, scale, labels), by first label
    for label, fixed in enumerate(f.fixed, start=1):
        if fixed:
            (g, ring, key), den = fixed, 1
            if quad:
                ring = tuple([(x, 0) for x in ring])
                key = tuple([y for x in key for y in (x, 0)])
        else:
            image, den = next(evaluated)
            if all(map(ops.is_zero, image)):
                dropped.append(label)
                continue
            g, ring = primitive(ops, image)
            key = line_key(ops, ring)
        groups.setdefault(key, (ring, (g, den), []))[2].append(label)
    merges = tuple(tuple(ls) for *_, ls in groups.values() if len(ls) > 1)
    count = len(groups)
    forms = [ring for ring, _, _ in groups.values()]
    arr = (Arrangement(ops, forms, list(groups),
                       [s for _, s, _ in groups.values()])
           if _has_rank3(forms, ops) else None)
    return SpecializationResult(omega, count, arr, tuple(dropped), merges)


@dataclass(frozen=True)
class DegeneracyReport:
    """Classified exceptional set Z of a family.

    rational maps Fraction -> tag; quadratic maps the coefficient tuple of a
    primitive irreducible quadratic in Z[t] (ascending) -> tag; unresolved
    lists the coefficient tuples of the distinct primitive irreducible
    factors of degree >= 3 of the candidate loci, which are not classified,
    each once, sorted by (degree, coefficients).
    """

    rational: dict
    quadratic: dict
    unresolved: tuple


def _candidate_polys(f: Family) -> dict:
    """Distinct primitive nonconstant loci where a pair merges or a triple
    becomes dependent, in order of first appearance.  Each maps to True when
    it is the gcd of some pair's cross-product minors.  Minors are packed,
    and only nonconstant ones are unpacked: a pair with a constant one, or
    of two columns that Family.fixed marks constant, takes no gcd, a gcd
    chain stops at its first constant gcd, and a triple of three constant
    columns is not dotted, so a pair of constant columns with only constant
    ones after it is not crossed."""
    k, cols = f.packing
    half = 1 << (k - 1)
    n, fixed = f.n, f.fixed
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            const = fixed[i] and fixed[j]
            if const and all(fixed[j + 1:]):
                continue
            p = ring_cross(IntOps, cols[i], cols[j])
            minors = [m for m in p if m]
            if not const and all(abs(m) >= half for m in minors):
                g = _unpack(minors[0], k)
                for m in minors[1:]:
                    if g.degree < 1:
                        break
                    g = poly_gcd(g, _unpack(m, k))
                if g.degree > 0:
                    out[g.primitive()] = True
            # det(c_i, c_j, c_k) = (c_i x c_j) . c_k
            for c, x in zip(cols[j + 1:], fixed[j + 1:]):
                if const and x:
                    continue
                det = ring_dot(IntOps, p, c)
                if abs(det) >= half:
                    out.setdefault(_unpack(det, k).primitive(), False)
    return out


def degeneracy_set(f: Family) -> DegeneracyReport:
    """Classify the exceptional set Z by divisibility in Z[t].

    Every irreducible factor q of degree <= 2 of a candidate locus is in Z:
    CountDrops if q divides the gcd of some pair's cross-product minors,
    LatticeChanges otherwise, since q then divides a triple determinant
    that is not identically zero and that new dependent triple merges
    generic flats (see the module docstring).  No arrangement or lattice is
    built; the loci (_candidate_polys) skip the minors that are constant by
    construction, and those of degree <= 2 factor by the discriminant.
    """
    tags = {}
    unresolved = set()
    for p, is_pair in _candidate_polys(f).items():
        low, high = factor_low_degree(p)
        for q in low:
            if is_pair or q not in tags:
                tags[q] = COUNT_DROPS if is_pair else LATTICE_CHANGES
        unresolved.update(q.coeffs for q in high)
    rational = {}
    quadratic = {}
    for q, tag in tags.items():
        if q.degree == 1:
            a, b = q.coeffs
            rational[Fraction(-a, b)] = tag
        else:
            quadratic[q.coeffs] = tag
    unresolved = tuple(sorted(unresolved, key=lambda c: (len(c), c)))
    return DegeneracyReport(rational, quadratic, unresolved)


def vL_membership(f: Family, lattice: IntersectionLattice, omega) -> bool:
    """Is the specialization at omega a realization of the given lattice?"""
    spec = specialize(f, omega)
    if spec.count != f.n or spec.arrangement is None:
        return False
    return lattice_iso(lattice, spec.arrangement.lattice()) is not None


# ---------------------------------------------------------------------------
# Family file format: one line per column, three semicolon-separated integer
# coefficient lists in ascending degree, e.g. "1 -3; 0 1; 0 0 -1" for the
# column (1-3t, t, -t^2).  Blank lines and #-comments are ignored.

def parse_family_text(text: str, name: str = "file") -> Family:
    cols = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(";")
        if len(parts) != 3:
            raise ValueError(
                f"line {ln}: expected three ';'-separated coefficient lists")
        try:
            col = tuple(
                IntPoly(map(parse_integer, part.split())) for part in parts)
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from None
        cols.append(col)
    if not cols:
        raise ValueError("no columns found")
    return Family(name, tuple(cols))
