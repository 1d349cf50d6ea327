"""Central rank-3 arrangements and their intersection lattices.

An arrangement over an exact field, given by its ops object (scalars.QQ
or a quad_field), is stored as its normal covectors cleared to primitive
integral columns, each with a rational scale; hyperplanes carry labels
1..n in column order.  The lattice of a rank-3 central arrangement is
stored as its rank-2 flats (multiple points); incidences derive from them.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, count
from math import gcd, isqrt

from . import linalg
from .scalars import (
    InputError,
    IntOps,
    InvariantError,
    MixedFieldError,
    QQ,
    clear,
    domain_of,
    parse_integer,
)


class ArrangementError(InputError):
    pass


class ZeroColumnError(ArrangementError):
    def __init__(self, index: int):
        super().__init__(f"column {index} is zero")
        self.index = index


class ProportionalColumnsError(ArrangementError):
    def __init__(self, i: int, j: int):
        super().__init__(f"columns {i} and {j} are proportional")
        self.i, self.j = i, j


class NotEssentialError(ArrangementError):
    def __init__(self, msg="arrangement does not have rank 3"):
        super().__init__(msg)


class UnknownLabelError(ArrangementError):
    def __init__(self, h):
        super().__init__(f"no hyperplane labeled {h}")


def normal_column(col) -> tuple:
    """The column as field scalars, scaled so that its first nonzero entry
    is 1.

    The form in which candidate_additions reports new columns; whether two
    columns are the same line is asked of line_key.  Exact for int, Fraction
    and QuadElem entries.
    """
    inv = Fraction(1) / next(x for x in col if x)
    return tuple(x * inv for x in col)


def clear_column(ops, col) -> tuple:
    """((g, den), ring): the column, or any vector, of elements of the field
    of ops is g / den times ring, primitive integral over the ring of ops
    (ints over QQ, (a, b) pairs of Z[sqrt d] over Q(sqrt d)), for positive
    integers g and den.  Line keys, lattices and the solver read ring."""
    den, ints = clear(ops, col)
    g, ring = primitive(ops, ints)
    return (g, den), ring


def primitive(ops, col) -> tuple:
    """(g, col / g) for a nonzero integral column over the ring of ops, g
    the gcd of its integer coordinates."""
    g = gcd(*(col if ops.parts == 1 else [y for x in col for y in x]))
    return g, tuple(col) if g == 1 else tuple([ops.div(x, g) for x in col])


def line_key(ops, col) -> tuple:
    """Integer key of the line of a nonzero integral column over ops.

    col holds ints, or (a, b) pairs of Z[sqrt d] when ops is a QuadOps; it
    need not be primitive.  A pair column is first multiplied by the
    conjugate of its first nonzero entry, which makes that entry the
    rational norm.  The key is the result as a flat integer tuple, divided
    by its content and signed so that its first nonzero entry is positive.
    Two columns over one field are proportional exactly when their keys are
    equal: proportional columns differ by a nonzero rational after the
    conjugate step, since the key of lambda * c is N(lambda) times that of c.
    """
    if ops.parts == 2:
        lead = next(x for x in col if x != (0, 0))
        conj = (lead[0], -lead[1])
        col = [y for x in col for y in ops.mul(x, conj)]
    g = gcd(*col)
    if next(v for v in col if v) < 0:
        g = -g
    if g == 1 and isinstance(col, tuple):
        return col      # its own key: build then keeps one tuple for both
    return tuple([v // g for v in col])


class Arrangement:
    """Essential central arrangement of n hyperplanes in rank 3.

    Immutable after construction; build through :func:`build`.  It is its
    columns as build cleared them (clear_column): the ring columns, their
    distinct line keys and one scale (g, den) per column, so that field
    column i is g/den times ring column i.  The lattice, the solver, the
    Saito check, state keys, deletions and addition candidates read these.
    """

    __slots__ = ("ops", "ring_columns", "keys", "scales", "_lattice")

    def __init__(self, ops, ring_columns, keys, scales):
        self.ops = ops
        self.ring_columns = tuple(ring_columns)
        self.keys = tuple(keys)
        self.scales = tuple(scales)
        self._lattice = None

    @property
    def n(self) -> int:
        return len(self.ring_columns)

    def labels(self):
        return range(1, self.n + 1)

    def lattice(self) -> "IntersectionLattice":
        if self._lattice is None:
            self._lattice = _compute_lattice(self.ops, self.ring_columns)
        return self._lattice

    def char_poly(self) -> "CharPoly":
        lat = self.lattice()
        return char_poly(lat.n, lat.flats)

    def __repr__(self):
        return f"<Arrangement n={self.n} over {self.ops.name}>"


def build(columns, ops=None) -> Arrangement:
    """Validate covector columns and build the arrangement over the field
    of ops.

    Each entry is coerced by ops.field, so ints and Fractions may stand in
    any field.  The default field is that of the first entry that is not
    rational, else QQ.  The columns are cleared and keyed once (_cleared);
    the lexicographically first pair of columns of one line raises
    ProportionalColumnsError, and rank below 3 NotEssentialError.
    """
    cols = [tuple(c) for c in columns]
    if ops is None:
        ops = next((domain_of(x) for c in cols for x in c
                    if not isinstance(x, (int, Fraction))), QQ)
    ring_columns, keys, scales = _cleared(ops, cols, 1)
    pair = first_equal_pair(keys)
    if pair:
        raise ProportionalColumnsError(*pair)
    if not _has_rank3(ring_columns, ops):
        raise NotEssentialError()
    return Arrangement(ops, ring_columns, keys, scales)


def _cleared(ops, cols, first) -> tuple:
    """(ring columns, line keys, scales) of the columns numbered from first."""
    coerced = []
    for i, c in enumerate(cols, start=first):
        if len(c) != 3:
            raise ArrangementError("columns must have exactly 3 entries")
        try:
            coerced.append(tuple(map(ops.field, c)))
        except MixedFieldError:
            other = next(f for f in map(domain_of, c)
                         if f.name not in (QQ.name, ops.name))
            raise ArrangementError(f"column {i} mixes {ops.name} and "
                                   f"{other.name}") from None
    for i, c in enumerate(coerced, start=first):
        if not any(c):
            raise ZeroColumnError(i)
    cleared = [clear_column(ops, c) for c in coerced]
    return ([ring for _, ring in cleared],
            [line_key(ops, ring) for _, ring in cleared],
            [scale for scale, _ in cleared])


def first_equal_pair(keys):
    """The lexicographically first pair (i, j), 1-based, of equal keys, or
    None when the keys are distinct."""
    # (first label of its key, j) for every later j with that key; the
    # least of these is the lexicographically first pair
    first = {}
    pairs = []
    for j, key in enumerate(keys, start=1):
        i = first.setdefault(key, j)
        if i != j:
            pairs.append((i, j))
    return min(pairs, default=None)


def _has_rank3(cols, ops=IntOps) -> bool:
    """Rank 3 test for pairwise non-proportional columns over the ring of
    ops: some column is off the point c_1 x c_2 of the first two."""
    if len(cols) < 3:
        return False
    p = linalg.ring_cross(ops, cols[0], cols[1])
    return any(not ops.is_zero(linalg.ring_dot(ops, p, c)) for c in cols[2:])


@dataclass(frozen=True)
class IntersectionLattice:
    """Rank-2 flats of a rank-3 arrangement.

    ``flats`` holds frozensets of hyperplane labels (1-based), in the
    deterministic order of first appearance over lexicographic pair scan.
    The lattice is its flats: incidences and tables derive on first read.
    """

    n: int
    flats: tuple

    @cached_property
    def per_hyperplane(self) -> tuple:
        """``per_hyperplane[h-1]``: indices of the flats through h, sorted."""
        per_h = [[] for _ in range(self.n)]
        for idx, f in enumerate(self.flats):
            for h in f:
                per_h[h - 1].append(idx)
        return tuple(map(tuple, per_h))

    @cached_property
    def pair_table(self) -> dict:
        """{(i, j): index of the flat through hyperplanes i < j}."""
        return {pair: idx for idx, f in enumerate(self.flats)
                for pair in combinations(sorted(f), 2)}

    @cached_property
    def profiles(self) -> tuple:
        """``profiles[h-1]``: sorted multiplicities of the flats through h."""
        return tuple(tuple(sorted(len(self.flats[f]) for f in incident))
                     for incident in self.per_hyperplane)

    @cached_property
    def rarest_first(self) -> tuple:
        """Labels by how many hyperplanes share their profile, then by h."""
        cnt = Counter(self.profiles)
        return tuple(sorted(range(1, self.n + 1),
                            key=lambda h: (cnt[self.profiles[h - 1]], h)))

    @cached_property
    def canonical(self) -> str:
        """The key of :func:`canonical_key`; the walk computes nothing else.

        The key encodes, under a lexicographically minimal hyperplane
        ordering, each hyperplane's profile followed by block labels of the
        pairs it forms with earlier hyperplanes (blocks = rank-2 flats,
        labeled in order of first appearance).  The walk keeps only
        candidates achieving the minimal next chunk, and of those one per
        orbit of the automorphisms fixing the prefix: such a map carries one
        subtree onto the other with equal encodings.  The backtracker decides
        orbits, pinning the prefix.  |Aut| comes from :func:`aut_order`.
        """
        n = self.n
        tab = self.pair_table
        prof = self.profiles

        def chunk_for(cand, prefix, flat_labels):
            labels = []
            local = {}
            for j in prefix:
                f = tab[(cand, j) if cand < j else (j, cand)]
                lab = flat_labels.get(f)
                if lab is None:
                    lab = local.get(f)
                if lab is None:
                    lab = len(flat_labels) + len(local)
                    local[f] = lab
                labels.append(lab)
            return (prof[cand - 1], tuple(labels)), local

        best: list = [None]

        def search(prefix, flat_labels, acc):
            if len(prefix) == n:
                enc = tuple(acc)
                if best[0] is None or enc < best[0]:
                    best[0] = enc
                return
            candidates = []
            for cand in range(1, n + 1):
                if cand in prefix:
                    continue
                ch, local = chunk_for(cand, prefix, flat_labels)
                candidates.append((ch, cand, local))
            mn = min(c[0] for c in candidates)
            # prefix-prune against the best known complete encoding
            pos = len(prefix)
            if best[0] is not None:
                trial = tuple(acc) + (mn,)
                if trial > best[0][:pos + 1]:
                    return
            pinned = [(h, h) for h in prefix]
            reps = []
            for ch, cand, local in candidates:
                if ch == mn and not any(
                        _iso_backtrack(self, self, pinned + [(rep, cand)])
                        for _, rep, _ in reps):
                    reps.append((ch, cand, local))
            for ch, cand, local in reps:
                fl = dict(flat_labels)
                fl.update(local)
                acc.append(ch)
                search(prefix + [cand], fl, acc)
                acc.pop()

        search([], {}, [])
        return repr(best[0])

    def validate(self, labels=None):
        """The check of a parsed listing (ArrangementError): flats of two or
        more lines, named by their labels (by default 1, 2, ...), each pair
        in exactly one.  So each flat X through h holds |X| - 1 of the n - 1
        pairs of h: the degree identity holds.  A scanned lattice checks
        itself (see _compute_lattice)."""
        seen = set()
        for label, f in zip(labels or count(1), self.flats):
            if len(f) < 2:
                raise ArrangementError(f"flat {label} has fewer than 2 hyperplanes")
            for key in combinations(sorted(f), 2):
                if key in seen:
                    raise ArrangementError(f"pair {key} covered twice")
                seen.add(key)
        for key in combinations(range(1, self.n + 1), 2):
            if key not in seen:
                raise ArrangementError(f"pair {key} not covered")


def _compute_lattice(ops, cols) -> IntersectionLattice:
    """Rank-2 flats of pairwise non-proportional columns over the ring of
    ops; the lattice derives its incidences from them when read.

    Row i keys each later line j not yet in a flat with i by the point
    c_i x c_j: over Z its primitive form signed to a positive first nonzero
    entry, over Z[sqrt d] its line_key.  Row i and each group of equal keys
    form one flat, and the groups come out in order of first j, so flats
    are in order of their first pair in lexicographic order.  On packed
    family columns (moduli) the keys of j and k are equal exactly when
    (c_i x c_j) x (c_i x c_k) = det(c_i, c_j, c_k) c_i vanishes, and
    _packed's bound covers that determinant, so the keys are exact.

    The scan checks itself: each pair (j, k) of a row's group is marked,
    and one already marked raises InvariantError.  A pair is grouped in the
    row of its first member unless an earlier flat holds it, so each pair
    lies in exactly one flat of two or more lines, all that validate checks
    of a listing.
    """
    n, quad = len(cols), ops.parts == 2
    assigned = [[False] * (n + 1) for _ in range(n + 1)]    # by labels
    flats = []
    for i, (u, marks) in enumerate(zip(cols, assigned[1:]), start=1):
        u0, u1, u2 = u
        groups = {}
        for j, v in enumerate(cols[i:], start=i + 1):
            if marks[j]:
                continue
            if quad:
                key = line_key(ops, linalg.ring_cross(ops, u, v))
            else:
                v0, v1, v2 = v
                a, b, c = (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2,
                           u0 * v1 - u1 * v0)
                g = gcd(a, b, c) if (a or b or c) > 0 else -gcd(a, b, c)
                key = a // g, b // g, c // g
            members = groups.get(key)
            if members:
                members.append(j)
            else:
                groups[key] = [i, j]
        for members in groups.values():
            flats.append(frozenset(members))
            for m, b in combinations(members[1:], 2):
                if assigned[m][b]:
                    raise InvariantError(f"pair {(m, b)} in two flats")
                assigned[m][b] = True
    return IntersectionLattice(n, tuple(flats))


@dataclass(frozen=True)
class CharPoly:
    """Monic cubic characteristic polynomial, coefficients ascending."""

    coeffs: tuple  # (c0, c1, c2, 1)

    def __call__(self, x):
        c0, c1, c2, c3 = self.coeffs
        return ((c3 * x + c2) * x + c1) * x + c0

    def exponents(self):
        """Roots as a sorted (1, e, f) triple of nonnegative ints, or None.

        For a free arrangement these are the degrees of a homogeneous
        basis of the derivation module; the cubic always has the root 1.
        """
        if self(1) != 0:
            return None
        c, b, _ = self.reduced()
        disc = b * b - 4 * c
        if disc < 0:
            return None
        s = isqrt(disc)
        if s * s != disc:
            return None
        e = (-b - s) // 2       # exact: s and b have one parity
        if e < 0:
            return None
        return tuple(sorted((1, e, e + s)))

    def reduced(self):
        """Coefficients (c, b, 1) of chi(x)/(x-1), monic quadratic."""
        _, c1, c2, _ = self.coeffs
        b = c2 + 1
        c = c1 + b
        return (c, b, 1)

    def factored_string(self):
        exps = self.exponents()
        if exps is None:
            c, b, _ = self.reduced()
            bs = f" - {-b}" if b < 0 else f" + {b}"
            cs = f" - {-c}" if c < 0 else f" + {c}"
            return f"(x - 1)*(x^2{bs}*x{cs})"
        parts = []
        for e in sorted(set(exps)):
            k = exps.count(e)
            base = f"(x - {e})" if e else "x"
            parts.append(base + (f"^{k}" if k > 1 else ""))
        return "*".join(parts)


def char_poly(n: int, flats) -> CharPoly:
    """Characteristic polynomial of n hyperplanes with these rank-2 flats.

    Mobius values: mu(V) = 1, mu(H) = -1, mu(X) = m_X - 1 for rank-2 flats;
    the value at the center is forced by the zero-sum over the lattice,
    giving chi(1)=0.
    """
    a = sum(len(f) - 1 for f in flats)
    mu0 = -(1 - n + a)
    return CharPoly((mu0, a, -n, 1))


def restriction_profile(arr: Arrangement, h: int):
    """(|A^H|, multiset of flat multiplicities along H)."""
    if not 1 <= h <= arr.n:
        raise UnknownLabelError(h)
    mults = arr.lattice().profiles[h - 1]
    return len(mults), mults


def delete(arr: Arrangement, h: int):
    """Remove hyperplane h; returns (arrangement, old-label -> new-label map).

    The deletion keeps the parent's ring columns, line keys and scales.
    Raises NotEssentialError if it has rank < 3.
    """
    if not deletion_is_essential(arr, h):
        raise NotEssentialError(f"deleting hyperplane {h} drops the rank below 3")
    mapping = {old: old - (old > h) for old in arr.labels() if old != h}
    return Arrangement(arr.ops, *(xs[:h - 1] + xs[h:] for xs in (
        arr.ring_columns, arr.keys, arr.scales))), mapping


def add(arr: Arrangement, col) -> Arrangement:
    """arr with col added as hyperplane n + 1: col alone is coerced, checked,
    cleared and keyed, as build does column n + 1; arr's columns are kept.
    arr's keys are distinct and its rank 3, so of build's checks only col's
    key against arr's is left: line i of arr raises (i, n + 1)."""
    (ring,), (key,), (scale,) = _cleared(arr.ops, [tuple(col)], arr.n + 1)
    if key in arr.keys:
        raise ProportionalColumnsError(arr.keys.index(key) + 1, arr.n + 1)
    return Arrangement(arr.ops, arr.ring_columns + (ring,), arr.keys + (key,),
                       arr.scales + (scale,))


def deletion_is_essential(arr: Arrangement, h: int) -> bool:
    if not 1 <= h <= arr.n:
        raise UnknownLabelError(h)
    return _has_rank3(arr.ring_columns[:h - 1] + arr.ring_columns[h:],
                      arr.ops)


def _iso_backtrack(l1: IntersectionLattice, l2: IntersectionLattice,
                   fixed=()):
    """First hyperplane bijection inducing a lattice isomorphism, or None.

    The (h, g) pairs of ``fixed`` come first in the order and are mapped as
    given; a pin (h, h) of a lattice onto itself is not checked, since a
    flat through two such pins is checked through its other members.
    Prunes with hyperplane profiles and incremental pair/flat consistency.
    Raises InvariantError if a map found fails _check_iso.
    """
    prof1, prof2 = l1.profiles, l2.profiles
    # equal profile multisets imply equal n and flat multiplicities
    if l1 is not l2 and sorted(prof1) != sorted(prof2):
        return None
    n = l1.n
    t1, t2 = l1.pair_table, l2.pair_table
    pins = dict(fixed)
    mapping = {h: h for h, g in fixed if h == g and l1 is l2}
    used = set(mapping)
    # the other pins first, then the rest, rarest profile first
    order = [h for h in pins if h not in used] + [
        h for h in l1.rarest_first if h not in pins]
    flat_map, flat_map_rev = {}, {}

    def extend(pos):
        if pos == len(order):
            return True
        h = order[pos]
        for cand in (pins[h],) if h in pins else range(1, n + 1):
            if cand in used or prof2[cand - 1] != prof1[h - 1]:
                continue
            new_flats = []
            ok = True
            for j in mapping:
                f1 = t1[(h, j) if h < j else (j, h)]
                g = mapping[j]
                f2 = t2[(cand, g) if cand < g else (g, cand)]
                m1 = flat_map.get(f1)
                if m1 is None:
                    if f2 in flat_map_rev or \
                            len(l1.flats[f1]) != len(l2.flats[f2]):
                        ok = False
                        break
                    flat_map[f1] = f2
                    flat_map_rev[f2] = f1
                    new_flats.append(f1)
                elif m1 != f2:
                    ok = False
                    break
            if ok:
                mapping[h] = cand
                used.add(cand)
                if extend(pos + 1):
                    return True
                del mapping[h]
                used.discard(cand)
            for f1 in new_flats:
                del flat_map_rev[flat_map.pop(f1)]
        return False

    if not extend(0):
        return None
    if not _check_iso(l1, l2, mapping):
        raise InvariantError(
            "backtracking returned a map that is not an isomorphism")
    return mapping


def _check_iso(l1, l2, mapping) -> bool:
    image = {frozenset(map(mapping.__getitem__, f)) for f in l1.flats}
    return image == set(l2.flats)


def lattice_iso(l1: IntersectionLattice, l2: IntersectionLattice):
    """A hyperplane bijection inducing a lattice isomorphism, or None."""
    return _iso_backtrack(l1, l2)


def aut_order(lat: IntersectionLattice):
    """(order of Aut, generator permutations as 1-based tuples).

    Orbit-stabilizer along the base n, ..., 1 (Sims): the witnesses found
    before x generate the automorphisms fixing 1..x, so x's orbit under
    those fixing 1..x-1 is closed over the witnesses, and the backtracker,
    1..x-1 pinned, is asked only for the y > x of x's profile outside it.
    |Aut| is the product of the orbit sizes; the witnesses generate Aut.
    """
    labels = range(1, lat.n + 1)
    prof = lat.profiles
    order, generators = 1, []
    for x in reversed(labels):
        pins = [(h, h) for h in range(1, x)]
        orbit = {x}
        for y in range(x + 1, lat.n + 1):
            if y not in orbit and prof[y - 1] == prof[x - 1] and (
                    w := _iso_backtrack(lat, lat, pins + [(x, y)])):
                generators.append(tuple(w[h] for h in labels))
                while new := {g[z - 1] for g in generators
                              for z in orbit} - orbit:
                    orbit |= new
        order *= len(orbit)
    return order, generators


def canonical_key(lat: IntersectionLattice) -> str:
    """Canonical string, equal for two lattices iff they are isomorphic.

    Computed once per lattice and held on it; see
    :attr:`IntersectionLattice.canonical`.
    """
    return lat.canonical


def format_lattice(lat: IntersectionLattice) -> str:
    """The sequence-of-lists text form: one line of flat numbers per line.

    Flats are numbered 1..k in order of first appearance scanning
    hyperplanes 1..n.
    """
    numbering = {}
    lines = []
    for h in range(1, lat.n + 1):
        nums = []
        for f in lat.per_hyperplane[h - 1]:
            if f not in numbering:
                numbering[f] = len(numbering) + 1
            nums.append(numbering[f])
        lines.append("[" + ", ".join(str(x) for x in sorted(nums)) + "]")
    return "\n".join(lines) + "\n"


def parse_lattice_listing(text: str) -> IntersectionLattice:
    """Parse the sequence-of-lists format back into a lattice."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not (line.startswith("[") and line.endswith("]")):
            raise ArrangementError(f"line {lineno}: expected a [..] list")
        body = line[1:-1].strip()
        try:
            row = ([parse_integer(x.strip()) for x in body.split(",")]
                   if body else [])
            if len(set(row)) < len(row):
                twice = max(row, key=row.count)
                raise InputError(f"flat {twice} listed twice")
        except InputError as exc:
            raise ArrangementError(f"line {lineno}: {exc}") from None
        rows.append(row)
    flats: dict[int, set] = {}    # members, in order of first appearance
    for h, row in enumerate(rows, start=1):
        for f in row:
            flats.setdefault(f, set()).add(h)
    lat = IntersectionLattice(len(rows), tuple(map(frozenset, flats.values())))
    lat.validate(list(flats))
    return lat
