"""Exact linear algebra over the scalar domains.

The derivation constraint systems are solved by one multi-modular engine.
Their rows live in Z or Z[sqrt d], the ring being supplied as an ops object
(IntOps, or a QuadOps instance).  For each word-size prime of a fixed
sequence, and each ring map into F_p, the caller supplies independent
vectors spanning part of the kernel mod p: by default the kernel of the rows
themselves, from their reduced row echelon form.  The vectors are reduced
from the right, i.e. put in reduced row echelon form on reversed columns,
which yields the canonical nullspace basis mod p.  That basis is recovered
by Chinese remaindering and rational reconstruction, and returned only
after it has been verified exactly against every row.  Whenever the number
of supplied vectors is at least the true nullity, the verified basis is
the canonical one (see nullspace).  The 3x3 determinant and cross product
helpers work over any commutative ring, including Z[t].
"""
from __future__ import annotations

from bisect import bisect
from functools import partial
from fractions import Fraction
from math import gcd, isqrt, prod

from .scalars import InvariantError, QuadElem, _is_prime


def det3(m):
    """Determinant of a 3x3 matrix given as rows, over any commutative ring."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


class IntOps:
    """Ring Z with Fraction as its fraction field."""

    zero = 0
    one = 1
    parts = 1           # integer coordinates per ring element

    @staticmethod
    def is_zero(x):
        return x == 0

    @staticmethod
    def add(x, y):
        return x + y

    @staticmethod
    def neg(x):
        return -x

    @staticmethod
    def mul(x, y):
        return x * y

    @staticmethod
    def to_field(x):
        return Fraction(x)

    @staticmethod
    def field_zero():
        return Fraction(0)

    @staticmethod
    def field_one():
        return Fraction(1)

    # -- the ring as the multi-modular engine sees it ----------------------

    @staticmethod
    def maps(p):
        """(the ring maps to F_p, each a function of one element; the map
        from residues under those maps to residues of the integer
        coordinates), or None when p admits no ring map."""
        return (lambda x: x % p,), _identity

    @staticmethod
    def integer_rows(rows):
        """Integer rows that vanish on a coordinate vector exactly when
        the given rows annihilate the vector it describes."""
        return rows

    @staticmethod
    def from_coords(coords, den):
        """The field element with the given integer coordinates over den."""
        return Fraction(coords[0], den)


def _identity(residues):
    return residues


class QuadOps:
    """Ring Z[sqrt d] with elements stored as (a, b) integer pairs."""

    parts = 2

    def __init__(self, d: int):
        self.d = d
        self.zero = (0, 0)
        self.one = (1, 0)

    @staticmethod
    def is_zero(x):
        return x == (0, 0)

    @staticmethod
    def add(x, y):
        return (x[0] + y[0], x[1] + y[1])

    @staticmethod
    def neg(x):
        return (-x[0], -x[1])

    def mul(self, x, y):
        a, b = x
        c, e = y
        return (a * c + self.d * b * e, a * e + b * c)

    def to_field(self, x):
        return QuadElem._make(self.d, Fraction(x[0]), Fraction(x[1]))

    def field_zero(self):
        return QuadElem._make(self.d, Fraction(0), Fraction(0))

    def field_one(self):
        return QuadElem._make(self.d, Fraction(1), Fraction(0))

    # -- the ring as the multi-modular engine sees it ----------------------

    def maps(self, p):
        """sqrt d -> r and sqrt d -> -r, with r*r = d mod p, and the map from
        residues x+, x- under them to those of the coordinates
        a = (x+ + x-)/2 and b = (x+ - x-)/(2r); None when d is not a nonzero
        square mod p."""
        r = _sqrt_mod(self.d, p)
        if r is None:
            return None
        half, inv2r = (p + 1) >> 1, pow(2 * r, -1, p)

        def coords(xp, xm):
            out = []
            for u, v in zip(xp, xm):
                out.append((u + v) * half % p)
                out.append((u - v) * inv2r % p)
            return out
        return ((lambda x: (x[0] + x[1] * r) % p,
                 lambda x: (x[0] - x[1] * r) % p), coords)

    def integer_rows(self, rows):
        """Two integer rows per row, on interleaved coordinates (a, b):
        (x + y sqrt d)(a + b sqrt d) = (x a + d y b) + (y a + x b) sqrt d."""
        d = self.d
        out = []
        for row in rows:
            out.append([c for x, y in row for c in (x, d * y)])
            out.append([c for x, y in row for c in (y, x)])
        return out

    def from_coords(self, coords, den):
        a, b = coords
        return QuadElem._make(self.d, Fraction(a, den), Fraction(b, den))


# -- primes ----------------------------------------------------------------

_PRIMES: list = []   # the primes below 2**62 in descending order, memoized


def _primes():
    """The largest primes below 2**62, in descending order."""
    i = 0
    while True:
        if i == len(_PRIMES):
            q = (_PRIMES[-1] if _PRIMES else 2 ** 62 + 1) - 2
            while not _is_prime(q):
                q -= 2
            _PRIMES.append(q)
        yield _PRIMES[i]
        i += 1


def _sqrt_mod(n: int, p: int):
    """r with r*r = n mod the odd prime p (Tonelli-Shanks), or None when n
    is not a nonzero square mod p."""
    n %= p
    if n == 0 or pow(n, (p - 1) >> 1, p) != 1:
        return None
    q, s = p - 1, 0
    while not q & 1:
        q >>= 1
        s += 1
    z = 2
    while pow(z, (p - 1) >> 1, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) >> 1, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


# -- the engine ------------------------------------------------------------

def _rref_mod(rows, ncols: int, p: int):
    """(pivot columns, nonzero rows) of the reduced row echelon form mod p.

    Rows, in and out, are dicts {column: nonzero residue}.  Each step
    pivots on the shortest row to limit fill-in; the pivot rows are reduced
    against one another at the end, from the last pivot back.
    """
    work = [row for row in rows if row]
    pivots, done = [], []
    for col in range(ncols):
        best = None
        for i, row in enumerate(work):
            if col in row and (best is None or len(row) < len(work[best])):
                best = i
        if best is None:
            continue
        prow = work.pop(best)
        inv = pow(prow.pop(col), -1, p)
        prow = {j: x * inv % p for j, x in prow.items()}
        for row in work:
            if col in row:
                _eliminate(row, col, prow, p)
        pivots.append(col)
        done.append(prow)
    for k in range(len(done) - 1, -1, -1):
        row = done[k]
        for j in range(k + 1, len(done)):
            if pivots[j] in row:
                _eliminate(row, pivots[j], done[j], p)
    for col, row in zip(pivots, done):
        row[col] = 1
    return pivots, done


def _eliminate(row, col: int, prow, p: int):
    """row -= row[col] * prow mod p, prow having a one at col (not stored)."""
    c = row.pop(col)
    for j, y in prow.items():
        v = (row.get(j, 0) - c * y) % p
        if v:
            row[j] = v
        else:
            del row[j]


def _kernel_mod(rows, ncols: int, h, p: int):
    """The kernel mod p of the ring rows under the ring map h, as one sparse
    vector per free column f of their reduced row echelon form: a one at f
    and minus column f of the reduced rows at the pivots."""
    pivots, red = _rref_mod([{j: y for j, x in enumerate(row)
                              if x and (y := h(x))}
                             for row in rows], ncols, p)
    pivset = set(pivots)
    return [{f: 1, **{c: p - row[f] for c, row in zip(pivots, red)
                      if f in row}}
            for f in range(ncols) if f not in pivset]


def _reduce_right(vectors, p: int):
    """Reduced row echelon form mod p of sparse vectors on reversed columns.

    Returns {pivot: row}: each pivot is the last nonzero position of its
    row, whose one there is not stored, and every row is zero at the other
    pivots.  None when the vectors are dependent.  The input is not changed.
    """
    rows = {}
    for vec in vectors:
        v = dict(vec)
        # Reduced rows are zero at the other pivots, so one pass suffices.
        for f in [j for j in v if j in rows]:
            _eliminate(v, f, rows[f], p)
        if not v:
            return None
        f = max(v)
        inv = pow(v.pop(f), -1, p)
        new = {j: x * inv % p for j, x in v.items()}
        for row in rows.values():
            if f in row:
                _eliminate(row, f, new, p)
        rows[f] = new
    return rows


def _rational(x: int, m: int, bound: int):
    """(n, d) with n = d*x mod m, |n| <= bound, 0 < d <= bound and
    gcd(n, d) = 1, or None; unique when 2*bound**2 < m."""
    r0, r1, t0, t1 = m, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _reconstruct(residues, m: int):
    """(numerators, one common denominator) of rationals with the given
    residues mod m, each bounded as in _rational after scaling by the
    denominator found so far; None when m is still too small."""
    bound = isqrt(m >> 1)
    den = 1
    nums = []
    for x in residues:
        y = x * den % m
        if y > bound:
            if m - y <= bound:
                y -= m
            else:
                frac = _rational(y, m, bound)
                if frac is None:
                    return None
                y, d = frac
                den *= d
                if den > bound:
                    return None
                nums = [n * d for n in nums]
        nums.append(y)
    return nums, den


def _annihilates(columns, nrows: int, entries) -> bool:
    """Do the integer rows, given by their nonzero entries per column,
    vanish on the vector with the given (column, value) entries?"""
    acc = [0] * nrows
    for j, w in entries:
        for i, a in columns[j]:
            acc[i] += a * w
    return not any(acc)


def _residues_mod(kernel, ncols: int, ops, p: int):
    """(pivot columns, free columns, and per free column f the coordinate
    residues of its basis vector at the pivots before f) mod p, from the
    vectors kernel(h, p) supplies under each ring map h; None when p admits
    no ring map, the supplied vectors are dependent, or the ring maps
    disagree on the free columns, which makes p unlucky."""
    maps = ops.maps(p)
    if maps is None:
        return None
    hs, to_coords = maps
    forms = []
    for h in hs:
        form = _reduce_right(kernel(h, p), p)
        if form is None or (forms and form.keys() != forms[0].keys()):
            return None
        forms.append(form)
    free = sorted(forms[0])
    pivots = [c for c in range(ncols) if c not in forms[0]]
    # A reduced row is zero at the other free columns and after its own, so
    # its residues at the pivots before f are all of it.
    return pivots, free, [
        to_coords(*[[form[f].get(c, 0) for c in pivots[:bisect(pivots, f)]]
                    for form in forms])
        for f in free]


def _columns(irows, width: int):
    """The nonzero entries (row, value) of each column of integer rows."""
    columns = [[] for _ in range(width)]
    for i, row in enumerate(irows):
        for j, a in enumerate(row):
            if a:
                columns[j].append((i, a))
    return columns


def _hadamard(irows, width: int) -> int:
    """Bound on the absolute value of every minor of the integer rows: the
    product of their min(#rows, width) largest norms, each rounded up (zero
    rows left out)."""
    norms = sorted((isqrt(s - 1) + 1 for row in irows
                    if (s := sum(a * a for a in row))), reverse=True)
    return prod(norms[:width])


def rank(rows, ncols, ops) -> int:
    return ncols - len(nullspace(rows, ncols, ops))


def nullspace(rows, ncols, ops, kernel=None):
    """Basis of the right nullspace, as vectors of field elements.

    One vector per free column f of the reduced row echelon form, with a
    one at f, zero at the other free columns and nonzero entries only at
    pivot columns before f: the canonical basis, which depends only on the
    nullspace, not on how it is computed.

    Per prime p and ring map h, kernel(h, p) supplies independent vectors
    in the kernel of the rows mod p, never fewer than the nullity over the
    field; when exactly that many, they must span the reduction mod p of
    the integer vectors of the true nullspace, as they do for all but
    finitely many p.  The default (_kernel_mod) is the whole kernel mod p.
    Reducing the vectors from the right gives the canonical basis of their
    span, whose free columns are their last nonzero positions.

    Primes are ranked by (fewer vectors, then lexicographically smaller
    pivot list), and residues are combined only across primes tied for the
    best rank so far.  The reconstructed basis is returned once every
    vector annihilates every row exactly.  That check is the proof: the
    vectors are independent and number at least the true nullity, and each
    vector's support (its free column f and pivot columns before f) shows
    that f is no pivot over the field, so the pivots are the true ones.
    The loop ends: a span of the true dimension is the reduced integer
    nullspace, which has at least as many free columns before any given
    position as the true one, so its i-th pivot is never earlier and no
    prime outranks the true pivots, while all but finitely many primes tie
    with them.

    A wrong supplier cannot make it loop: once the primes combined at the
    best key multiply past 2*H**2, H the Hadamard bound of the integer rows
    (_hadamard), a failed reconstruction or exact check raises
    InvariantError.  For a correct supplier this never fires.  A prime
    ranks off the true pivots only if it divides the nonzero true pivot
    minor, an integer (over Z[sqrt d], its norm) of absolute value at most
    H, so such primes multiply to at most H.  At the true key every
    coordinate of the basis is a quotient of two minors of the integer
    rows (Cramer's rule), both at most H, so a modulus above 2*H**2
    reconstructs it, and the exact check passes.  H is computed only after
    a failure.
    """
    if kernel is None:
        kernel = partial(_kernel_mod, rows, ncols)
    parts = ops.parts
    best = None                 # rank key of the primes being combined
    modulus, acc = 1, []
    columns = None              # the exact check's integer rows, by column
    limit = None                # 2*H**2, set at the first failure
    for p in _primes():
        found = _residues_mod(kernel, ncols, ops, p)
        if found is None:
            continue
        pivots, free, res = found
        key = (-len(pivots), pivots)    # the smaller, the better the prime
        if best is not None and key > best:
            continue
        if key != best:
            best, modulus, acc = key, p, res
        else:
            inv = pow(modulus, -1, p)
            acc = [[x + modulus * ((y - x) * inv % p)
                    for x, y in zip(xs, ys)] for xs, ys in zip(acc, res)]
            modulus *= p
        sols = [_reconstruct(xs, modulus) for xs in acc]
        if None not in sols:
            if columns is None:
                irows = ops.integer_rows(rows)
                columns = _columns(irows, parts * ncols)
            # den times each vector, on the coordinates of the integer rows
            coords = [c * parts + t for c in pivots for t in range(parts)]
            if all(_annihilates(columns, len(irows),
                                [*zip(coords, nums), (f * parts, den)])
                   for f, (nums, den) in zip(free, sols)):
                break
        if limit is None:
            limit = 2 * _hadamard(ops.integer_rows(rows), parts * ncols) ** 2
        if modulus > limit:
            raise InvariantError(
                f"the kernel vectors supplied for key {best} do not give "
                f"the nullspace after primes multiplying past 2*H**2")
    zero, one = ops.field_zero(), ops.field_one()
    basis = []
    for f, (nums, den) in zip(free, sols):
        v = [zero] * ncols
        # most pivot coordinates are zero: convert only the others
        for c, xs in zip(pivots, zip(*[iter(nums)] * parts)):
            if any(xs):
                v[c] = ops.from_coords(xs, den)
        v[f] = one
        basis.append(v)
    return basis
