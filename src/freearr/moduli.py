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
isomorphic to the generic one: LatticeChanges.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arrangement import (
    Arrangement,
    IntersectionLattice,
    NotEssentialError,
    _compute_lattice,
    _has_rank3,
    build,
    lattice_iso,
    normal_column,
)
from .linalg import cross, det3_cols
from .scalars import (
    IntPoly,
    QuadElem,
    QQ,
    factor_low_degree,
    poly,
    poly_gcd,
    quad_field,
    squarefree_decompose,
)

COUNT_DROPS = "CountDrops"
LATTICE_CHANGES = "LatticeChanges"


@dataclass(frozen=True)
class Family:
    """3xn matrix over Z[t]; columns are the covectors of the family."""

    name: str
    columns: tuple  # tuple of 3-tuples of IntPoly

    @property
    def n(self) -> int:
        return len(self.columns)

    def __post_init__(self):
        for idx, col in enumerate(self.columns, start=1):
            if not any(col):
                raise ValueError(f"column {idx} is identically zero")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if not any(cross(self.columns[i], self.columns[j])):
                    raise ValueError(
                        f"columns {i + 1} and {j + 1} are identically "
                        "proportional")


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


def generic_lattice(f: Family) -> IntersectionLattice:
    """Lattice of the family at a generic t, from minors computed in Z[t]."""
    if not _has_rank3(f.columns):
        raise NotEssentialError()
    return _compute_lattice(f.columns)


def _domain_for(omega):
    if isinstance(omega, QuadElem):
        return quad_field(omega.d)
    return QQ


def _as_scalar(omega):
    if isinstance(omega, QuadElem):
        return omega
    return Fraction(omega)


@dataclass(frozen=True)
class SpecializationResult:
    """Outcome of evaluating a family at one parameter value."""

    omega: object
    count: int                    # |A_omega| after drops and merges
    arrangement: Arrangement | None   # None when the rank falls below 3
    dropped: tuple                # 1-based labels of vanished columns
    merges: tuple                 # tuples of 1-based labels that coincide


def specialize(f: Family, omega) -> SpecializationResult:
    """Evaluate every column at omega and build the specialized arrangement.

    Degenerate outcomes (vanishing or merging columns, rank below 3) are
    reported as data, never as errors.  Whether the lattice is still the
    generic one is asked by vL_membership.
    """
    omega = _as_scalar(omega)
    dom = _domain_for(omega)
    values = [tuple(p(omega) for p in col) for col in f.columns]
    dropped = tuple(i + 1 for i, col in enumerate(values) if not any(col))
    groups: dict = {}  # normal column -> labels, in order of first label
    for label, col in enumerate(values, start=1):
        if any(col):
            groups.setdefault(normal_column(col), []).append(label)
    kept_cols = [values[g[0] - 1] for g in groups.values()]
    merges = tuple(tuple(g) for g in groups.values() if len(g) > 1)
    count = len(kept_cols)
    try:
        arr = build(kept_cols, dom)
    except ValueError:
        arr = None
    return SpecializationResult(omega, count, arr, dropped, merges)


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

    def values(self):
        return (sorted(self.rational), sorted(self.quadratic))


def _quadratic_root(coeffs) -> QuadElem:
    """One root of c2 t^2 + c1 t + c0 (irreducible over Q) in Q(sqrt d)."""
    c0, c1, c2 = coeffs
    square, d = squarefree_decompose(c1 * c1 - 4 * c0 * c2)
    return QuadElem(d, Fraction(-c1, 2 * c2), Fraction(square, 2 * c2))


def _candidate_polys(f: Family) -> dict:
    """Distinct primitive nonconstant loci where a pair merges or a triple
    becomes dependent, in order of first appearance.  Each maps to True when
    it is the gcd of some pair's cross-product minors."""
    cols = f.columns
    n = f.n
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            minors = [m for m in cross(cols[i], cols[j]) if m]
            g = minors[0]
            for m in minors[1:]:
                g = poly_gcd(g, m)
            if g.degree > 0:
                out[g.primitive()] = True
            for k in range(j + 1, n):
                det = det3_cols(cols[i], cols[j], cols[k])
                if det.degree > 0:
                    out.setdefault(det.primitive(), False)
    return out


def degeneracy_set(f: Family) -> DegeneracyReport:
    """Classify the exceptional set Z by divisibility in Z[t].

    Every irreducible factor q of degree <= 2 of a candidate locus is in Z:
    CountDrops if q divides the gcd of some pair's cross-product minors,
    LatticeChanges otherwise, since q then divides a triple determinant
    that is not identically zero and that new dependent triple merges
    generic flats (see the module docstring).  No arrangement or lattice is
    built.
    """
    tags = {}
    unresolved = set()
    for p, is_pair in _candidate_polys(f).items():
        low, high = factor_low_degree(p)
        for q, _mult in low:
            if is_pair or q not in tags:
                tags[q] = COUNT_DROPS if is_pair else LATTICE_CHANGES
        unresolved.update(q.coeffs for q, _mult in high)
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
                IntPoly(int(tok) for tok in part.split()) for part in parts)
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from None
        cols.append(col)
    if not cols:
        raise ValueError("no columns found")
    return Family(name, tuple(cols))


def format_family(f: Family) -> str:
    lines = []
    for col in f.columns:
        lines.append("; ".join(
            " ".join(str(c) for c in (p.coeffs or (0,))) for p in col))
    return "\n".join(lines) + "\n"
