"""Exact scalar arithmetic: rationals, integer polynomials, Q(sqrt d).

Every value is immutable and every operation is a pure function, so scalars
can be shared freely between concurrent analyses.  No floating point is used
anywhere; integer coefficients are arbitrary precision.

A field is one ops object, QQ = IntOps or quad_field(d): its name, its
elements (field) and its ring Z or Z[sqrt d], on which the solver and the
lattice scan compute; clear takes field elements into the ring.
"""
from __future__ import annotations

import operator
import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count
from math import gcd, isqrt, lcm


_ZERO = Fraction(0)


class ZeroPolynomial(ValueError):
    """Raised when an operation requires a nonzero polynomial."""


class InvariantError(RuntimeError):
    """An internal consistency check failed; this is a bug, not bad input."""


class MixedFieldError(TypeError):
    """Raised when elements of Q(sqrt d) with different d are combined."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = s**2 * d with d squarefree; returns (s, d).

    The sign of n goes into d.  n must be nonzero.
    """
    if n == 0:
        raise ValueError("0 has no squarefree part")
    sign = 1 if n > 0 else -1
    n = abs(n)
    s, d = 1, 1
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            d *= p
        p += 1 if p == 2 else 2
    d *= n
    return s, sign * d


def is_squarefree(n: int) -> bool:
    return n not in (0,) and squarefree_decompose(n)[0] == 1


class IntPoly:
    """Univariate polynomial with integer coefficients, stored ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, QuadElem)):
            return self.degree < 1 and self.leading == other
        return NotImplemented

    def __hash__(self):
        # a constant equals, so hashes as, its int
        return hash(self.leading if self.degree < 1 else self.coeffs)

    def __neg__(self) -> IntPoly:
        return IntPoly(-c for c in self.coeffs)

    def _lift(self, other, op) -> IntPoly:
        """op on the coefficient lists of self and other, an IntPoly or an
        int; NotImplemented for anything else."""
        if isinstance(other, int):
            other = IntPoly((other,))
        if not isinstance(other, IntPoly):
            return NotImplemented
        return IntPoly(op(self.coeffs, other.coeffs))

    def __add__(self, other) -> IntPoly:
        return self._lift(other, lambda a, b: _sub(a, [-c for c in b]))

    __radd__ = __add__

    def __sub__(self, other) -> IntPoly:
        return self._lift(other, _sub)

    def __rsub__(self, other) -> IntPoly:
        return self._lift(other, lambda a, b: _sub(b, a))

    def __mul__(self, other) -> IntPoly:
        return self._lift(other, _mul)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> IntPoly:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = IntPoly((1,))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, x):
        """Horner evaluation at x, which may live in any Q-algebra."""
        if not self.coeffs:
            return 0 * x if not isinstance(x, (int, Fraction)) else x * 0
        acc = self.coeffs[-1] + 0 * x  # coerce into the algebra of x
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    @property
    def content(self) -> int:
        return gcd(*self.coeffs)

    def primitive(self) -> IntPoly:
        """Primitive part with positive leading coefficient; 0 stays 0."""
        return IntPoly(_primitive(self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}t" if i == 1 else f"{mag}t^{i}"
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append((" - " if c < 0 else " + ") + term)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly({self})"


def poly(*coeffs) -> IntPoly:
    """IntPoly from ascending coefficients: poly(-1, 1) is t - 1."""
    return IntPoly(coeffs)


def poly_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Primitive gcd in Q[t] with positive leading coefficient (_gcd)."""
    return IntPoly(_gcd(p.coeffs, q.coeffs))


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3*10**24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for a in bases:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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


# -- factorization in Z[t] -------------------------------------------------
# Polynomials below are plain coefficient lists, ascending and without
# trailing zeros; those mod p have coefficients in [0, p).

def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _derivative(a: list) -> list:
    return [i * c for i, c in enumerate(a)][1:]


def _mul(a: list, b: list, p: int = 0) -> list:
    """a * b, reduced mod p when p is given."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % p for c in out]) if p else out


def _sub(a: list, b: list, p: int = 0) -> list:
    """a - b, reduced mod p when p is given."""
    out = [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
           for i in range(max(len(a), len(b)))]
    return _trim([c % p for c in out] if p else out)


def _primitive(a) -> list:
    """a divided by its content, with a positive leading coefficient."""
    g = gcd(*a) if a and a[-1] > 0 else -gcd(*a)
    return [c // g for c in a] if a else []


def _gcd(a, b) -> list:
    """Primitive gcd in Q[t], with positive leading coefficient; gcd(a, 0)
    is the primitive part of a and gcd(0, 0) = 0.  By the primitive
    pseudo-remainder sequence: a pseudo-remainder is a nonzero integer
    multiple of the remainder in Q[t], so its primitive part is the same."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r, lead = a, b[-1]
        while len(r) >= len(b):
            c, k = r[-1], len(r) - len(b)
            r = [lead * x for x in r]
            for i, x in enumerate(b):
                r[k + i] -= c * x
            _trim(r)
        a, b = b, _primitive(r)
    return a


def _quotient(a: list, b: list):
    """a / b in Z[t], or None when b does not divide a there."""
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c, m = divmod(r[k + len(b) - 1], b[-1])
        if m:
            return None
        q[k] = c
        for i, y in enumerate(b):
            r[k + i] -= c * y
    return None if any(r) else q


def _divmod_p(a: list, b: list, p: int):
    """(quotient, remainder) of a by b mod p."""
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], -1, p)
    while len(r) >= len(b):
        k = len(r) - len(b)
        c = q[k] = r[-1] * inv % p
        for i, y in enumerate(b):
            r[k + i] = (r[k + i] - c * y) % p
        _trim(r)
    return q, r


def _monic_gcd_p(a: list, b: list, p: int) -> list:
    while b:
        a, b = b, _divmod_p(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _pow_mod_p(a: list, e: int, m: list, p: int) -> list:
    """a**e mod (m, p)."""
    out, a = [1], _divmod_p(a, m, p)[1]
    while e:
        if e & 1:
            out = _divmod_p(_mul(out, a, p), m, p)[1]
        a = _divmod_p(_mul(a, a, p), m, p)[1]
        e >>= 1
    return out


def _factor_mod(f: list, p: int, rng) -> list:
    """Monic irreducible factors of the monic squarefree f mod the odd
    prime p: distinct-degree splitting, then Cantor-Zassenhaus."""
    out, h, d = [], [0, 1], 0
    while len(f) > 2 * (d + 1):
        d += 1
        h = _pow_mod_p(h, p, f, p)            # t**(p**d) mod f
        g = _monic_gcd_p(f, _sub(h, [0, 1], p), p)
        if len(g) > 1:
            out += _split_equal_degree(g, d, p, rng)
            f = _divmod_p(f, g, p)[0]
            h = _divmod_p(h, f, p)[1]
    if len(f) > 1:
        out.append(f)
    return out


def _split_equal_degree(g: list, d: int, p: int, rng) -> list:
    """The irreducible factors of the monic squarefree g mod p, all of
    degree d: gcd(g, a**((p**d - 1)/2) - 1) for random a splits g with
    probability about 1/2."""
    if len(g) - 1 == d:
        return [g]
    e = (p ** d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
        h = _monic_gcd_p(g, _sub(_pow_mod_p(a, e, g, p), [1], p), p)
        if 1 < len(h) < len(g):
            return (_split_equal_degree(h, d, p, rng)
                    + _split_equal_degree(_divmod_p(g, h, p)[0], d, p, rng))


def _hensel_lift(f: list, gs: list, p: int, bound: int):
    """(G, q): monic G_i = g_i mod p with f = lc(f) * prod G_i mod q, q the
    first power of p above bound, for the monic factors g_i of f mod p.

    Linear lifting of all factors at once: with the error
    e = (f - lc * prod G_i) / q mod p, the corrections
    d_i = e * s_i / lc mod g_i, where s_i = (prod_{j != i} g_j)**-1 mod g_i,
    satisfy lc * sum_i d_i * prod_{j != i} g_j = e mod p (both sides agree
    mod every g_i and have degree below deg f).  The g_i are irreducible,
    so s_i is a power in the field F_p[t]/(g_i) of p**deg(g_i) elements."""
    cofactors = []
    for i, g in enumerate(gs):
        rest = [1]
        for h in gs[:i] + gs[i + 1:]:
            rest = _mul(rest, h, p)
        cofactors.append(_pow_mod_p(rest, p ** (len(g) - 1) - 2, g, p))
    lc = f[-1]
    inv_lc = pow(lc, -1, p)
    lifted, q = [list(g) for g in gs], p
    while q <= bound:
        prod = [lc]
        for g in lifted:
            prod = _mul(prod, g)
        e = [x // q * inv_lc % p for x in _sub(f, prod)]
        for g, g0, s in zip(lifted, gs, cofactors):
            for i, c in enumerate(_divmod_p(_mul(e, s, p), g0, p)[1]):
                g[i] += q * c
        q *= p
    return lifted, q


def _squarefree_mod(f: list, p: int) -> bool:
    """Is f, of degree not lowered mod p, squarefree mod p?"""
    fp = _trim([c % p for c in f])
    return len(_monic_gcd_p(fp, _trim([c % p for c in _derivative(f)]),
                            p)) == 1


def _factor_squarefree(f: list) -> list:
    """Irreducible factors of the primitive squarefree f (Zassenhaus).

    p is the least odd prime not dividing lc(f) for which f stays
    squarefree mod p.  The factors of f mod p are Hensel-lifted mod q > 2B,
    B = |lc(f)| * 2**n * (floor(|f|_2) + 1).  By Mignotte's bound every
    coefficient of a factor h of f is at most 2**n * |f|_2, so B bounds
    those of lc(g)/lc(h) * h for every divisor g of f and factor h of g.
    A subset S of the lifted factors is accepted when the primitive part of
    lc(g) * prod_S G_i, in symmetric residues mod q, divides the remaining
    cofactor g exactly; for the subset of a factor h those residues are
    lc(g)/lc(h) * h itself, by the uniqueness of Hensel lifts.  Subsets are
    tried by increasing size, and the cofactor shrinks only by accepted
    factors, so an accepted factor is irreducible: a proper factor of it
    would divide the cofactor, lift to a smaller subset bounded by the same
    B and have been accepted first.  When no subset of at most half the
    remaining lifted factors is accepted, the cofactor is irreducible and is
    the last factor.  A quadratic a t^2 + b t + c, with b^2 - 4ac nonzero
    as f is squarefree, is irreducible unless b^2 - 4ac = r^2; then
    (2a t + b - r)(2a t + b + r) = 4a f, so by Gauss's lemma the primitive
    parts of these two factors are those of f.
    """
    if len(f) <= 2:
        return [f]
    if len(f) == 3:
        c, b, a = f
        disc = b * b - 4 * a * c
        r = isqrt(max(disc, 0))
        if not r or r * r != disc:
            return [f]
        return [_primitive([b - r, 2 * a]), _primitive([b + r, 2 * a])]
    p = next(p for p in count(3, 2)
             if f[-1] % p and _is_prime(p) and _squarefree_mod(f, p))
    inv = pow(f[-1], -1, p)
    gs = _factor_mod([c * inv % p for c in f], p, random.Random(p))
    if len(gs) == 1:
        return [f]
    bound = (2 * abs(f[-1]) * 2 ** (len(f) - 1)
             * (isqrt(sum(c * c for c in f)) + 1))
    lifted, q = _hensel_lift(f, gs, p, bound)
    out, size = [], 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            cand = [f[-1]]
            for i in subset:
                cand = _mul(cand, lifted[i])
            cand = [c - q if c > q >> 1 else c for c in (x % q for x in cand)]
            cand = _primitive(_trim(cand))
            rest = _quotient(f, cand)
            if rest is not None:
                out.append(cand)
                f = rest
                lifted = [g for i, g in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    out.append(f)
    return out


def factor_low_degree(p: IntPoly):
    """The distinct irreducible factors of p, those of degree at most two
    apart.

    Returns (low, high): lists of primitive irreducible IntPolys, low
    holding the factors of degree 1 or 2 and high those of degree >= 3,
    each factor once and each list sorted by (degree, coefficients).  The
    factors are exact: Zassenhaus's factorization (_factor_squarefree) of
    the squarefree part of the primitive part f of p: f / gcd(f, f') from
    degree 3, and below it f itself unless f = a t^2 + b t + c with
    b^2 = 4ac, when 4a f = (2a t + b)^2 makes it the primitive part of
    2a t + b.  A quadratic splits by its discriminant alone (Gauss's lemma).
    """
    if not p:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    f = list(p.primitive().coeffs)
    low: list[IntPoly] = []
    high: list[IntPoly] = []
    if len(f) == 3 and f[1] * f[1] == 4 * f[0] * f[2]:
        f = _primitive([f[1], 2 * f[2]])
    elif len(f) > 3:    # the gcd is primitive, so the division is exact
        f = _quotient(f, _gcd(f, _derivative(f)))
    if len(f) > 1:
        for q in _factor_squarefree(f):
            (low if len(q) <= 3 else high).append(IntPoly(q))
    for factors in (low, high):
        factors.sort(key=lambda q: (q.degree, q.coeffs))
    return low, high


class QuadElem:
    """Element a + b*sqrt(d) of the quadratic field Q(sqrt d).

    d is a fixed squarefree integer (possibly negative), not 0 or 1.
    Elements with different d never mix; that raises MixedFieldError
    rather than silently building a compositum.
    """

    __slots__ = ("d", "a", "b")

    def __init__(self, d: int, a, b=0):
        self.d = quad_field(d).d        # which checks d
        self.a = _as_fraction(a)
        self.b = _as_fraction(b)

    @classmethod
    def _make(cls, d: int, a: Fraction, b: Fraction) -> QuadElem:
        """Element of a field whose d was already validated; a and b are
        Fractions.  Integral work over Z[sqrt d] is done on the (a, b)
        integer pairs of QuadOps instead."""
        x = object.__new__(cls)
        x.d, x.a, x.b = d, a, b
        return x

    def _coerce(self, other):
        if isinstance(other, QuadElem):
            if other.d != self.d:
                raise MixedFieldError(
                    f"cannot mix Q(sqrt {self.d}) and Q(sqrt {other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElem._make(self.d, _as_fraction(other), _ZERO)
        return None

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadElem) and other.d != self.d:
            # only rationals are in two fields, and they equal their Fraction
            return not (self.b or other.b) and self.a == other.a
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        # a rational element equals, so hashes as, its Fraction
        return hash((self.d, self.a, self.b) if self.b else self.a)

    def __neg__(self) -> QuadElem:
        return QuadElem._make(self.d, -self.a, -self.b)

    def __add__(self, other) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem._make(self.d, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> QuadElem:
        return (-self) + other

    def __mul__(self, other) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem._make(self.d,
                              self.a * o.a + self.d * self.b * o.b,
                              self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def conjugate(self) -> QuadElem:
        return QuadElem._make(self.d, self.a, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a - self.d * self.b * self.b

    def inverse(self) -> QuadElem:
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in a quadratic field")
        return QuadElem._make(self.d, self.a / n, -self.b / n)

    def __truediv__(self, other) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> QuadElem:
        o = self._coerce(other)
        return o * self.inverse()

    def __str__(self) -> str:
        if not self.b:
            return str(self.a)
        bs = "" if self.b == 1 else ("-" if self.b == -1 else f"{self.b}*")
        root = f"sqrt({self.d})"
        if not self.a:
            return f"{bs}{root}"
        sign = "+" if self.b > 0 else ""
        return f"{self.a}{sign}{bs}{root}"

    def __repr__(self) -> str:
        return f"QuadElem({self.d}, {self.a}, {self.b})"


class IntOps:
    """The field QQ, whose ring is Z: field elements are Fractions, ring
    elements ints.  Its ring operations are Python's operators."""

    name = "QQ"
    zero = 0
    one = 1
    parts = 1           # integer coordinates per ring element
    d = 1               # Z as Z[sqrt 1], in height bounds
    is_zero, add, neg, mul = operator.not_, operator.add, operator.neg, \
        operator.mul

    @staticmethod
    def field(x) -> Fraction:
        """x, an int or a Fraction, as an element of QQ."""
        if isinstance(x, (int, Fraction)):
            return _as_fraction(x)
        raise MixedFieldError(f"{x!r} is not in QQ")

    # -- the ring as the multi-modular engine sees it ----------------------

    @staticmethod
    def maps(p):
        """(the ring maps to F_p, each a function of one element; the map
        from residues under those maps to residues of the integer
        coordinates), or None when p admits no ring map."""
        return (lambda x: x % p,), lambda residues: residues

    @staticmethod
    def integer_rows(rows):
        """Integer rows that vanish on a coordinate vector exactly when
        the given rows annihilate the vector it describes."""
        return rows

    @staticmethod
    def from_coords(coords, den):
        """The field element with the given integer coordinates over den."""
        return Fraction(coords[0], den)

    # -- the ring as echelon sees it --------------------------------------

    scale = mul                 # times an integer

    div = operator.floordiv     # exact division by an integer

    @staticmethod
    def ints(x):                # the integer coordinates
        return (x,)

    @staticmethod
    def cofactor(x):            # c with x * c an integer
        return 1


class QuadOps:
    """The field Q(sqrt d), whose ring is Z[sqrt d]: field elements are
    QuadElems, ring elements (a, b) integer pairs.  |d| is below 2**40, so
    that is_squarefree's trial division stays below 2**19 steps."""

    parts = 2
    zero = (0, 0)
    one = (1, 0)

    def __init__(self, d: int):
        if abs(d) >= 1 << 40:
            raise ValueError(f"d = {d} must be below 2**40 in absolute value")
        if d in (0, 1) or not is_squarefree(d):
            raise ValueError(f"d = {d} must be squarefree and not 0 or 1")
        self.d = d
        self.name = f"QQ(sqrt {d})"

    def field(self, x) -> QuadElem:
        """x, an int, a Fraction or a QuadElem of this d, as an element of
        Q(sqrt d)."""
        if isinstance(x, QuadElem) and x.d == self.d:
            return x
        if isinstance(x, (int, Fraction)):
            return QuadElem._make(self.d, _as_fraction(x), _ZERO)
        raise MixedFieldError(f"{x!r} is not in {self.name}")

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

    # -- the ring as echelon sees it --------------------------------------

    @staticmethod
    def scale(x, k):
        return (x[0] * k, x[1] * k)

    @staticmethod
    def div(x, k):
        return (x[0] // k, x[1] // k)

    @staticmethod
    def ints(x):
        return x

    @staticmethod
    def cofactor(x):
        return (x[0], -x[1])    # x times its conjugate is its norm


QQ = IntOps
_FIELD_CACHE_SIZE = 64      # quad_field's QuadOps, by d


@lru_cache(maxsize=_FIELD_CACHE_SIZE)
def quad_field(d: int) -> QuadOps:
    return QuadOps(d)


def domain_of(x):
    """The field of a scalar: QQ, or quad_field(d) for an element of
    Q(sqrt d)."""
    if isinstance(x, (int, Fraction)):
        return QQ
    if isinstance(x, QuadElem):
        return quad_field(x.d)
    raise TypeError(f"no scalar domain for {type(x).__name__}")


def clear(ops, xs):
    """(den, [den * x for x in xs]) for elements xs of the field of ops,
    den the least common denominator of their coordinates, so that each
    den * x is in the ring of ops: an int, or an (a, b) pair of Z[sqrt d].
    An element of another field raises MixedFieldError."""
    xs = [ops.field(x) for x in xs]
    if ops.parts == 2:
        xs = [q for x in xs for q in (x.a, x.b)]
    den = lcm(*(q.denominator for q in xs))
    ints = [q.numerator * (den // q.denominator) for q in xs]
    return den, ints if ops.parts == 1 else list(zip(ints[::2], ints[1::2]))


_INTEGER = re.compile(r"[+-]?[0-9]+")
_RAT_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$", re.ASCII)


def parse_integer(tok: str) -> int:
    """tok, an integer in ASCII digits; what int refuses raises its own
    error, and the underscores and other digits it accepts are refused."""
    n = int(tok)
    if not _INTEGER.fullmatch(tok):
        raise ValueError(f"not an integer: {tok!r}")
    return n


def parse_rational(s: str) -> Fraction:
    """The rational written as an integer or a/b in ASCII digits, b
    nonzero; anything else raises ValueError naming s."""
    m = _RAT_RE.match(s.strip())
    if not m:
        raise ValueError(f"not a rational number: {s!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if not den:
        raise ValueError(f"zero denominator in {s!r}")
    return Fraction(num, den)


def scalar_to_text(x) -> str:
    """x as tagged text: 'rat a/b', or 'quad d a b' for a + b*sqrt(d) in
    Q(sqrt d), which read_scalars reads back in the same field."""
    if isinstance(x, QuadElem):
        return f"quad {x.d} {x.a} {x.b}"
    return f"rat {x}"


def read_scalars(tokens) -> list:
    """The scalars that scalar_to_text wrote, one after another, as the
    tokens; a bad value, a zero denominator too, raises ValueError."""
    out, i = [], 0
    while i < len(tokens):
        if tokens[i] == "rat" and i + 1 < len(tokens):
            out.append(parse_rational(tokens[i + 1]))
            i += 2
        elif tokens[i] == "quad" and i + 3 < len(tokens):
            out.append(QuadElem(parse_integer(tokens[i + 1]),
                                parse_rational(tokens[i + 2]),
                                parse_rational(tokens[i + 3])))
            i += 4
        else:
            raise ValueError(f"bad scalar near {tokens[i]!r}")
    return out
