"""Fraction-free exact linear algebra."""
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from freearr.linalg import (
    IntOps,
    QuadOps,
    cross,
    det3,
    det3_cols,
    echelon,
    nullspace,
    rank,
)
from freearr.scalars import QuadElem


def fraction_rank(rows, ncols):
    """Plain Fraction Gaussian elimination as an independent oracle."""
    work = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col] / work[r][col]
                work[i] = [work[i][j] - f * work[r][j] for j in range(ncols)]
        r += 1
    return r


matrices = st.lists(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=6),
    min_size=1, max_size=6).filter(
        lambda rows: len({len(r) for r in rows}) == 1)


class TestIntegerEngine:
    @given(matrices)
    @settings(max_examples=120)
    def test_rank_matches_fraction_oracle(self, rows):
        ncols = len(rows[0])
        assert rank(rows, ncols, IntOps) == fraction_rank(rows, ncols)

    @given(matrices)
    @settings(max_examples=120)
    def test_nullspace_annihilates_and_has_full_dimension(self, rows):
        ncols = len(rows[0])
        basis = nullspace(rows, ncols, IntOps)
        assert len(basis) == ncols - fraction_rank(rows, ncols)
        for v in basis:
            for row in rows:
                assert sum(Fraction(row[j]) * v[j]
                           for j in range(ncols)) == 0

    def test_echelon_is_upper_triangular(self):
        rows = [[2, 4, 1], [1, 2, 3], [0, 1, 1]]
        ech, pivots = echelon(rows, 3, IntOps)
        for k, col in enumerate(pivots):
            assert ech[k][col] != 0
            for j in range(col):
                assert ech[k][j] == 0


class TestQuadraticEngine:
    def test_rank_and_nullspace(self):
        random.seed(7)
        ops = QuadOps(2)
        for _ in range(150):
            m = random.randint(1, 5)
            n = random.randint(1, 5)
            rows = [[(random.randint(-3, 3), random.randint(-3, 3))
                     for _ in range(n)] for _ in range(m)]
            r = rank(rows, n, ops)
            basis = nullspace(rows, n, ops)
            assert r + len(basis) == n
            for v in basis:
                for row in rows:
                    s = QuadElem(2, 0, 0)
                    for j in range(n):
                        s = s + ops.to_field(row[j]) * v[j]
                    assert not s

    def test_sqrt_relation_detected(self):
        # columns (1, sqrt2) and (sqrt2, 2) are proportional over Q(sqrt 2)
        ops = QuadOps(2)
        rows = [[(1, 0), (0, 1)], [(0, 1), (2, 0)]]
        assert rank(rows, 2, ops) == 1
        (v,) = nullspace(rows, 2, ops)
        assert v[0] * QuadElem(2, 1, 0) + v[1] * QuadElem(2, 0, 1) == 0


class TestDeterminants:
    def test_det3_known(self):
        assert det3([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1
        assert det3([(1, 2, 3), (4, 5, 6), (7, 8, 9)]) == 0

    def test_det3_cols_alternating(self):
        c1, c2 = (1, 2, 3), (0, 1, 1)
        assert det3_cols(c1, c2, c1) == 0
        assert det3_cols(c1, c2, (1, 1, 0)) == -det3_cols(c2, c1, (1, 1, 0))

    def test_cross_is_orthogonal(self):
        u, v = (1, 2, 3), (-1, 0, 4)
        w = cross(u, v)
        assert sum(a * b for a, b in zip(u, w)) == 0
        assert sum(a * b for a, b in zip(v, w)) == 0
