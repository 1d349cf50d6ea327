"""Exact arithmetic the benchmark owns: it never imports freearr.

Used by the input generators and by the answer checks, so that checks do
not trust the code they check.  Scalars are ints, Fractions, or elements
a + b*sqrt(d) of a real or imaginary quadratic field held as `Quad`.
Polynomials in t are ascending integer coefficient tuples.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


class Quad:
    """a + b*sqrt(d) with rational a, b; d is fixed by the caller."""

    __slots__ = ("d", "a", "b")

    def __init__(self, d, a, b=0):
        self.d, self.a, self.b = d, Fraction(a), Fraction(b)

    def _lift(self, o):
        return o if isinstance(o, Quad) else Quad(self.d, o)

    def __add__(self, o):
        o = self._lift(o)
        return Quad(self.d, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, o):
        o = self._lift(o)
        return Quad(self.d, self.a - o.a, self.b - o.b)

    def __rsub__(self, o):
        return self._lift(o) - self

    def __neg__(self):
        return Quad(self.d, -self.a, -self.b)

    def __mul__(self, o):
        o = self._lift(o)
        return Quad(self.d, self.a * o.a + self.d * self.b * o.b,
                    self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = self._lift(o)
        norm = o.a * o.a - self.d * o.b * o.b
        return self * Quad(self.d, o.a / norm, -o.b / norm)

    def __rtruediv__(self, o):
        return self._lift(o) / self

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, o):
        o = self._lift(o)
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.d, self.a, self.b))

    def __repr__(self):
        return f"Quad({self.d}, {self.a}, {self.b})"


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def det3(u, v, w):
    c = cross(v, w)
    return u[0] * c[0] + u[1] * c[1] + u[2] * c[2]


def projective_key(vec):
    """Hashable key equal for two nonzero vectors iff they are proportional."""
    lead = next(x for x in vec if x)
    return tuple(x / lead if isinstance(x, Quad) else Fraction(x) / lead
                 for x in vec)


def points(cols):
    """Intersection points of the lines: key -> frozenset of 0-based lines.

    Every pair of columns spans a point (their cross product); pairs with
    proportional cross products meet in the same point.
    """
    pts: dict = {}
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            key = projective_key(cross(cols[i], cols[j]))
            pts.setdefault(key, set()).update((i, j))
    return {k: frozenset(v) for k, v in pts.items()}


def chi_reduced(n: int, pts) -> tuple:
    """(b1, b2) with chi(t) = (t - 1) * (t^2 - b1 t + b2) for rank 3."""
    mu = sum(len(p) - 1 for p in pts.values())
    return n - 1, mu - n + 1


def chi_exponents(n: int, pts):
    """Sorted (1, e2, e3) if the reduced chi splits over Z, else None."""
    b1, b2 = chi_reduced(n, pts)
    disc = b1 * b1 - 4 * b2
    if disc < 0 or isqrt(disc) ** 2 != disc:
        return None
    r = isqrt(disc)
    return (1, (b1 - r) // 2, (b1 + r) // 2)


def is_essential(cols) -> bool:
    return any(det3(cols[0], cols[j], cols[k])
               for j in range(1, len(cols)) for k in range(j + 1, len(cols)))


def distinct_lines(cols) -> bool:
    if not all(any(c) for c in cols):
        return False
    return len({projective_key(c) for c in cols}) == len(cols)


def primitive_int(col):
    """Integer column proportional to a rational one, content 1."""
    den = 1
    for x in col:
        den = den * Fraction(x).denominator // gcd(den, Fraction(x).denominator)
    ints = [int(Fraction(x) * den) for x in col]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return tuple(v // g for v in ints)


# --- polynomials in t, ascending integer coefficients ----------------------

def peval(coeffs, t):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def padd(p, q):
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return ptrim(out)


def pmul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return ptrim(out)


def ptrim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def pcompose_affine(p, a: int, b: int):
    """p(a*t + b)."""
    out: tuple = ()
    power: tuple = (1,)
    for c in p:
        out = padd(out, tuple(c * x for x in power))
        power = pmul(power, (b, a))
    return out


def pprimitive(p):
    """Content-free, positive leading coefficient (freearr's convention too)."""
    p = ptrim(p)
    if not p:
        return p
    g = 0
    for c in p:
        g = gcd(g, c)
    if p[-1] < 0:
        g = -g
    return tuple(c // g for c in p)


def squarefree_part(n: int) -> tuple[int, int]:
    """n = s^2 * d with d squarefree (sign in d); trial division."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    s, d, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            d *= p
        p += 1 if p == 2 else 2
    return s, sign * d * n


def quadratic_roots(coeffs):
    """Both roots of an irreducible c0 + c1 t + c2 t^2 as Quad elements."""
    c0, c1, c2 = coeffs
    s, d = squarefree_part(c1 * c1 - 4 * c0 * c2)
    a, b = Fraction(-c1, 2 * c2), Fraction(s, 2 * c2)
    return Quad(d, a, b), Quad(d, a, -b)
