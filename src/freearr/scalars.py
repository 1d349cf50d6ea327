"""Exact scalar arithmetic: rationals, integer polynomials, Q(sqrt d).

Every value is immutable and every operation is a pure function, so scalars
can be shared freely between concurrent analyses.  No floating point is used
anywhere; integer coefficients are arbitrary precision.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd


_ZERO = Fraction(0)


class ZeroPolynomial(ValueError):
    """Raised when an operation requires a nonzero polynomial."""


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
        if isinstance(other, int):
            return self.coeffs == IntPoly((other,)).coeffs
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(("IntPoly", self.coeffs))

    def __neg__(self) -> IntPoly:
        return IntPoly(-c for c in self.coeffs)

    def __add__(self, other) -> IntPoly:
        if isinstance(other, int):
            other = IntPoly((other,))
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> IntPoly:
        if isinstance(other, int):
            other = IntPoly((other,))
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> IntPoly:
        return (-self) + other

    def __mul__(self, other) -> IntPoly:
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        if not isinstance(other, IntPoly):
            return NotImplemented
        if not self or not other:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

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
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive(self) -> IntPoly:
        """Primitive part with positive leading coefficient; 0 stays 0."""
        if not self:
            return self
        g = self.content
        if self.leading < 0:
            g = -g
        return IntPoly(c // g for c in self.coeffs)

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
    """Primitive gcd in Q[t] with positive leading coefficient.

    gcd(p, 0) is the primitive part of p; gcd(0, 0) = 0.
    """
    a, b = p.primitive(), q.primitive()
    if not a:
        return b
    if not b:
        return a
    if a.degree < b.degree:
        a, b = b, a
    # primitive pseudo-remainder sequence: the pseudo-remainder is a
    # nonzero integer multiple of the remainder in Q[t], so its primitive
    # part is the same
    while b:
        r = list(a.coeffs)
        lead = b.leading
        while len(r) > b.degree:
            c, k = r[-1], len(r) - 1 - b.degree
            r = [lead * x for x in r]
            for i, x in enumerate(b.coeffs):
                r[k + i] -= c * x
            while r and not r[-1]:
                r.pop()
        a, b = b, IntPoly(r).primitive()
    return a.primitive()


def factor_low_degree(p: IntPoly):
    """Split p into its irreducible factors, those of degree at most two apart.

    Returns (low, high): lists of (primitive irreducible IntPoly,
    multiplicity), low holding the factors of degree 1 or 2 and high those
    of degree >= 3, each sorted by (degree, coefficients), so that the
    product of everything equals p up to a rational constant.
    """
    if not p:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    import sympy

    t = sympy.Symbol("t")
    expr = sympy.Poly(list(reversed(p.primitive().coeffs)), t)
    _, fac = expr.factor_list()
    low: list[tuple[IntPoly, int]] = []
    high: list[tuple[IntPoly, int]] = []
    for q, mult in fac:
        qp = IntPoly(int(c) for c in reversed(q.all_coeffs())).primitive()
        if qp.degree > 0:
            (low if qp.degree <= 2 else high).append((qp, int(mult)))
    for factors in (low, high):
        factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return low, high


class QuadElem:
    """Element a + b*sqrt(d) of the quadratic field Q(sqrt d).

    d is a fixed squarefree integer (possibly negative), not 0 or 1.
    Elements with different d never mix; that raises MixedFieldError
    rather than silently building a compositum.
    """

    __slots__ = ("d", "a", "b")

    def __init__(self, d: int, a, b=0):
        if d in (0, 1) or not is_squarefree(d):
            raise ValueError(f"d = {d} must be squarefree and not 0 or 1")
        self.d = d
        self.a = _as_fraction(a)
        self.b = _as_fraction(b)

    @classmethod
    def _make(cls, d: int, a: Fraction, b: Fraction) -> QuadElem:
        """Element of a field whose d was already validated; a, b Fractions."""
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
        try:
            o = self._coerce(other)
        except MixedFieldError:
            return False
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash(("QuadElem", self.d, self.a, self.b))

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


class Domain:
    """An exact field of scalars with decidable equality.

    Elements carry their own arithmetic through operator overloading, so
    ``1 / x`` is the exact inverse; the domain object supplies
    construction from integers and a name used for tagging arrangements.
    """

    name: str

    def from_int(self, k: int):
        raise NotImplementedError

    def from_fraction(self, q: Fraction):
        raise NotImplementedError

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def __repr__(self):
        return f"<domain {self.name}>"


class RationalDomain(Domain):
    name = "QQ"

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def from_fraction(self, q: Fraction) -> Fraction:
        return q


class QuadDomain(Domain):
    def __init__(self, d: int):
        if d in (0, 1) or not is_squarefree(d):
            raise ValueError(f"d = {d} must be squarefree and not 0 or 1")
        self.d = d
        self.name = f"QQ(sqrt {d})"

    def from_int(self, k: int) -> QuadElem:
        return QuadElem._make(self.d, Fraction(k), _ZERO)

    def from_fraction(self, q: Fraction) -> QuadElem:
        return QuadElem._make(self.d, q, _ZERO)


QQ = RationalDomain()


@lru_cache(maxsize=None)
def quad_field(d: int) -> QuadDomain:
    return QuadDomain(d)


def domain_of(x) -> Domain:
    """Infer the scalar domain of an element."""
    if isinstance(x, (int, Fraction)):
        return QQ
    if isinstance(x, QuadElem):
        return quad_field(x.d)
    raise TypeError(f"no scalar domain for {type(x).__name__}")


_RAT_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def parse_rational(s: str) -> Fraction:
    m = _RAT_RE.match(s.strip())
    if not m:
        raise ValueError(f"not a rational number: {s!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    return Fraction(num, den)
