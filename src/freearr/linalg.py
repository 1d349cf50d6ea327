"""Exact linear algebra over the rings of the scalar fields.

Rows live in Z or Z[sqrt d], the ring of a field's ops object
(scalars.IntOps, or a scalars.QuadOps instance).  nullspace solves a system
with one multi-modular engine: for each word-size prime of a fixed
sequence, and each ring map into F_p, back-substitution on a row echelon
form, not reduced, gives the canonical nullspace basis mod p, recovered by
Chinese remaindering and rational reconstruction, verified exactly against
every row, and returned as primitive integral vectors over the ring.
triangular puts independent vectors in row echelon form exactly, from the
right; forward_reduce reduces by such rows, and echelon back-reduces them,
giving the canonical basis for a basis of a nullspace.  Cross and dot
products and the 3x3 determinant work over the ring of an ops object.
"""
from __future__ import annotations

from bisect import bisect
from math import gcd, isqrt, prod

from .scalars import InvariantError, _is_prime


def det3(m, ops):
    """Determinant of a 3x3 matrix given as rows, over the ring of ops;
    IntOps computes with Python's operators, so over any commutative ring."""
    (a, b, c), (d, e, f), (g, h, i) = m
    add, mul, neg = ops.add, ops.mul, ops.neg
    return add(add(mul(a, add(mul(e, i), neg(mul(f, h)))),
                   neg(mul(b, add(mul(d, i), neg(mul(f, g)))))),
               mul(c, add(mul(d, h), neg(mul(e, g)))))


def ring_dot(ops, u, v):
    """u . v over the ring of ops."""
    add, mul = ops.add, ops.mul
    return add(add(mul(u[0], v[0]), mul(u[1], v[1])), mul(u[2], v[2]))


def ring_cross(ops, u, v):
    """u x v over the ring of ops."""
    add, mul, neg = ops.add, ops.mul, ops.neg
    (u0, u1, u2), (v0, v1, v2) = u, v
    return (add(mul(u1, v2), neg(mul(u2, v1))),
            add(mul(u2, v0), neg(mul(u0, v2))),
            add(mul(u0, v1), neg(mul(u1, v0))))


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


# -- the engine ------------------------------------------------------------

def _rref_mod(rows, ncols: int, p: int):
    """(pivot columns, nonzero rows) of a row echelon form mod p, not
    reduced: the row of pivot c is one at c, not stored, and holds entries
    only at columns after c.

    Rows, in and out, are dicts {column: nonzero residue}.  Each step
    pivots on the shortest row to limit fill-in.
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
    vector per free column f of their row echelon form (_rref_mod): the
    canonical one, read by back-substitution, is one at f, zero at the
    other free columns, and at each pivot c before f, from the last up,
    minus c's row times the entries already found."""
    pivots, ech = _rref_mod([{j: y for j, x in enumerate(row)
                              if x and (y := h(x))}
                             for row in rows], ncols, p)
    kernel = []
    for f in sorted(set(range(ncols)).difference(pivots)):
        v = {f: 1}
        for k in range(bisect(pivots, f) - 1, -1, -1):
            if x := sum(y * v[j] for j, y in ech[k].items() if j in v) % p:
                v[pivots[k]] = p - x
        kernel.append(v)
    return kernel


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


def _residues_mod(rows, ncols: int, ops, p: int):
    """(pivot columns, free columns, and per free column f the coordinate
    residues of its basis vector at the pivots before f) mod p, from
    _kernel_mod under each ring map; None when p admits no ring map or the
    ring maps disagree on the free columns, which makes p unlucky."""
    maps = ops.maps(p)
    if maps is None:
        return None
    hs, to_coords = maps
    kernels = [_kernel_mod(rows, ncols, h, p) for h in hs]
    free = [max(v) for v in kernels[0]]
    if any([max(v) for v in k] != free for k in kernels[1:]):
        return None
    pivots = sorted(set(range(ncols)).difference(free))
    # A kernel vector is zero at the other free columns and after its own,
    # so its residues at the pivots before f are all of it.
    return pivots, free, [
        to_coords(*[[v.get(c, 0) for c in pivots[:bisect(pivots, f)]]
                    for v in vs])
        for f, vs in zip(free, zip(*kernels))]


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


def nullspace(rows, ncols, ops):
    """Basis of the right nullspace, as tuples of ring elements of ops.

    One vector per free column f of the reduced row echelon form, with a
    one at f, zero at the other free columns and nonzero entries only at
    pivot columns before f: the canonical basis, which depends only on the
    nullspace (it is also echelon of any basis of it).  Mod p no echelon
    is reduced: _kernel_mod reads each vector by back-substitution.  Each
    vector is returned times the positive rational that makes it primitive
    integral, as clear_column would scale it, so it is positive at f.

    Primes are ranked by (more pivots mod p, then the lexicographically
    smaller pivot list), and residues of _kernel_mod are combined only
    across primes tied for the best rank so far.  The reconstructed basis
    is returned once every vector annihilates every row exactly.  That
    check is the proof: the vectors are independent and number at least
    the true nullity, since no rank grows mod p, and each vector's support
    shows that its f is no pivot over the field.  The loop ends: mod p no
    prefix of the columns gains rank, so no prime outranks the true pivots,
    and all but finitely many primes tie with them.

    A wrong kernel cannot make it loop: once the primes combined at the
    best key multiply past 2*H**2, H the Hadamard bound of the integer rows
    (_hadamard), a failed reconstruction or exact check raises
    InvariantError.  A prime ranks off the true pivots only if it divides
    the nonzero true pivot minor, an integer (over Z[sqrt d], its norm) of
    absolute value at most H; at the true key every coordinate of the basis
    is a quotient of two minors of the integer rows (Cramer's rule), both
    at most H, so a modulus above 2*H**2 reconstructs it.
    """
    parts = ops.parts
    best = None                 # rank key of the primes being combined
    modulus, acc = 1, []
    columns = None              # the exact check's integer rows, by column
    limit = None                # 2*H**2, set at the first failure
    for p in _primes():
        found = _residues_mod(rows, ncols, ops, p)
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
                f"the kernel vectors mod p for key {best} do not give the "
                f"nullspace after primes multiplying past 2*H**2")
    basis = []
    for f, (nums, den) in zip(free, sols):
        g = gcd(den, *nums)
        ints = iter([x // g for x in nums])
        v = [ops.zero] * ncols
        for c, x in zip(pivots, ints if parts == 1 else zip(ints, ints)):
            v[c] = x
        v[f] = ops.scale(ops.one, den // g)
        basis.append(tuple(v))
    return basis


def add_multiple(ops, v, c, row):
    """v += c * row, in place."""
    if not ops.is_zero(c):
        for j, y in row.items():
            z = ops.mul(c, y)
            v[j] = ops.add(v[j], z) if j in v else z


def primitive(ops, den, nums):
    """(den, nums) divided by the gcd of den and every integer coordinate."""
    g = gcd(den, *(c for x in nums.values() for c in ops.ints(x)))
    if g == 1:
        return den, nums
    return den // g, {j: ops.div(x, g) for j, x in nums.items()}


def forward_reduce(ops, vec, rows):
    """(k, v): v / k = vec modulo the span of rows in row echelon form on
    reversed columns, {pivot f: (den, numerators)} as triangular or echelon
    gives them, and v zero at every pivot.  From the last pivot to the
    first, v nonzero at f becomes (den * v - v[f] * row) / g, g = gcd(den,
    v[f]), which clears f and changes only columns before it.  k is the
    product of the den / g: over echelon's rows it divides their lcm."""
    k, v = 1, dict(vec)
    for f in sorted(rows, reverse=True):
        if f in v:
            (den, row), x = rows[f], v.pop(f)
            g = gcd(den, *ops.ints(x))
            if den != g:
                k *= den // g
                v = {j: ops.scale(y, den // g) for j, y in v.items()}
            add_multiple(ops, v, ops.neg(ops.div(x, g)), row)
    return k, {j: y for j, y in v.items() if not ops.is_zero(y)}


def triangular(vectors, ops):
    """Row echelon form on reversed columns, not back-reduced, of
    independent vectors over Z or Z[sqrt d], as {pivot f: (den, numerators)}
    with f the last column of its row and den > 0 an integer.  While a
    vector's last column is a pivot, forward_reduce clears it there; then
    its row is the vector times c = cofactor(x), x its entry there, and
    den = x * c.  Dependent vectors raise InvariantError."""
    rows = {}
    for v in vectors:
        while v and (f := max(v)) in rows:
            v = forward_reduce(ops, v, {f: rows[f]})[1]
        if not v:
            raise InvariantError("dependent vectors in an echelon form")
        c = ops.cofactor(v[f])
        n = ops.ints(ops.mul(v[f], c))[0]
        if n < 0:
            c, n = ops.neg(c), -n
        rows[f] = n, {j: ops.mul(y, c) for j, y in v.items() if j != f}
    return rows


def echelon(vectors, ops):
    """Reduced row echelon form on reversed columns of independent vectors
    over Z or Z[sqrt d], as {pivot f: (den, numerators)}: f is the last
    nonzero column of its row, and the row is den at f plus the numerators
    {column: ring element} elsewhere, over den, so a one at f and zeros at
    the other pivots.  For a basis of a nullspace this is its canonical
    basis (see nullspace).  The rows of triangular are reduced from the
    first pivot up by those before (forward_reduce), and no integer > 1
    then divides den and every integer coordinate of the numerators.
    Dependent vectors raise InvariantError."""
    rows = {}
    for f, (den, row) in sorted(triangular(vectors, ops).items()):
        k, out = forward_reduce(ops, row, rows)
        rows[f] = primitive(ops, den * k, out)
    return rows
