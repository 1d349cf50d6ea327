"""Exact linear algebra over the scalar domains.

One fraction-free (Bareiss) engine solves the derivation constraint systems.
Its entries live in Z or Z[sqrt d], kept small by per-row content reduction;
the ring is supplied as an ops object (IntOps or QuadOps).  The 3x3
determinant and cross product helpers work over any commutative ring,
including Z[t].
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from .scalars import QuadElem


def det3(m):
    """Determinant of a 3x3 matrix given as rows, over any commutative ring."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def det3_cols(c1, c2, c3):
    """Determinant of the 3x3 matrix with the given columns."""
    return det3([(c1[0], c2[0], c3[0]),
                 (c1[1], c2[1], c3[1]),
                 (c1[2], c2[2], c3[2])])


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


class IntOps:
    """Ring Z with Fraction as its fraction field."""

    zero = 0
    one = 1

    @staticmethod
    def is_zero(x):
        return x == 0

    @staticmethod
    def mul(x, y):
        return x * y

    @staticmethod
    def sub(x, y):
        return x - y

    @staticmethod
    def div_exact(x, y):
        q, r = divmod(x, y)
        if r:
            raise ArithmeticError("inexact integer division in elimination")
        return q

    @staticmethod
    def reduce_row(row):
        g = 0
        for x in row:
            g = gcd(g, x)
            if g == 1:
                return row
        if g > 1:
            for i, x in enumerate(row):
                row[i] = x // g
        return row

    @staticmethod
    def to_field(x):
        return Fraction(x)

    @staticmethod
    def field_zero():
        return Fraction(0)

    @staticmethod
    def field_one():
        return Fraction(1)


class QuadOps:
    """Ring Z[sqrt d] with elements stored as (a, b) integer pairs."""

    def __init__(self, d: int):
        self.d = d
        self.zero = (0, 0)
        self.one = (1, 0)

    @staticmethod
    def is_zero(x):
        return x == (0, 0)

    def mul(self, x, y):
        a, b = x
        c, e = y
        return (a * c + self.d * b * e, a * e + b * c)

    @staticmethod
    def sub(x, y):
        return (x[0] - y[0], x[1] - y[1])

    def div_exact(self, x, y):
        # Multiply by the conjugate, then divide by the integer norm.
        a, b = y
        n = a * a - self.d * b * b
        u = self.mul(x, (a, -b))
        qa, ra = divmod(u[0], n)
        qb, rb = divmod(u[1], n)
        if ra or rb:
            raise ArithmeticError("inexact division in elimination")
        return (qa, qb)

    @staticmethod
    def reduce_row(row):
        g = 0
        for a, b in row:
            g = gcd(gcd(g, a), b)
            if g == 1:
                return row
        if g > 1:
            for i, (a, b) in enumerate(row):
                row[i] = (a // g, b // g)
        return row

    def to_field(self, x):
        return QuadElem._make(self.d, Fraction(x[0]), Fraction(x[1]))

    def field_zero(self):
        return QuadElem._make(self.d, Fraction(0), Fraction(0))

    def field_one(self):
        return QuadElem._make(self.d, Fraction(1), Fraction(0))


def echelon(rows, ncols, ops):
    """Fraction-free row echelon form (Bareiss elimination).

    Every entry produced at stage k is a (k+1)x(k+1) minor of the input, so
    entry growth stays polynomial.  Returns (pivot_rows, pivot_cols).  Input
    rows are not modified.
    """
    work = [ops.reduce_row(list(r)) for r in rows]
    work = [r for r in work if any(not ops.is_zero(x) for x in r)]
    pivots = []
    prev = ops.one
    r = 0
    mul, sub, div, is_zero = ops.mul, ops.sub, ops.div_exact, ops.is_zero
    for col in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if not is_zero(work[i][col]):
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        pval = prow[col]
        for i in range(r + 1, len(work)):
            row = work[i]
            v = row[col]
            if is_zero(v):
                new = [ops.zero] * (col + 1) + [
                    div(mul(pval, row[j]), prev)
                    for j in range(col + 1, ncols)
                ]
            else:
                new = [ops.zero] * (col + 1) + [
                    div(sub(mul(pval, row[j]), mul(v, prow[j])), prev)
                    for j in range(col + 1, ncols)
                ]
            work[i] = new
        work = work[:r + 1] + [
            w for w in work[r + 1:] if any(not is_zero(x) for x in w)]
        pivots.append(col)
        prev = pval
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rank(rows, ncols, ops) -> int:
    return len(echelon(rows, ncols, ops)[0])


def nullspace(rows, ncols, ops):
    """Basis of the right nullspace, as vectors of field elements.

    One basis vector per free column, with a one in that column.
    """
    ech, pivots = echelon(rows, ncols, ops)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    frows = [[ops.to_field(x) for x in row] for row in ech]
    basis = []
    for f in free_cols:
        v = [ops.field_zero() for _ in range(ncols)]
        v[f] = ops.field_one()
        for k in range(len(pivots) - 1, -1, -1):
            pc = pivots[k]
            row = frows[k]
            s = ops.field_zero()
            for j in range(pc + 1, ncols):
                if v[j]:
                    s = s + row[j] * v[j]
            v[pc] = -s / row[pc] if s else ops.field_zero()
        basis.append(v)
    return basis
