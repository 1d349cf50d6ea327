"""Exact linear algebra: the multi-modular nullspace engine, whose answers
are verified exactly, against plain field elimination."""
import hashlib
import random
import time
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from freearr import freeness, linalg
from freearr.arrangement import clear_column
from freearr.linalg import (
    det3,
    nullspace,
    rank,
)
from freearr.scalars import IntOps, InvariantError, QuadElem, QuadOps

from conftest import (
    det3_cols,
    kernel_by_back_reduction,
    member,
    normal_form,
    same_field_vector,
    to_field,
)

# The engine's first prime: the largest prime below 2**62.
P0 = sympy.prevprime(2 ** 62)


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


def rref_nullspace(rows, ncols):
    """Canonical nullspace basis by Gauss-Jordan over the field of the
    entries (Fraction or QuadElem): one vector per free column f, with a one
    at f and minus the reduced entries of column f at the pivots."""
    work = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        lead = work[r][col]
        work[r] = [x / lead for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
    zero = rows[0][0] * 0 if rows else Fraction(0)  # of the entries' field
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [zero] * ncols
        v[f] = zero + 1
        for k, c in enumerate(pivots):
            v[c] = -work[k][f]
        basis.append(v)
    return basis, pivots


matrices = st.lists(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=6),
    min_size=1, max_size=6).filter(
        lambda rows: len({len(r) for r in rows}) == 1)
wide_entries = st.integers(min_value=-5, max_value=5) | st.sampled_from(
    [2 ** 64 + 13, -(2 ** 65) - 1, 3 * 2 ** 70, P0, -2 * P0])
wide_matrices = st.lists(
    st.lists(wide_entries, min_size=1, max_size=6),
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

    @given(wide_matrices)
    @settings(max_examples=150)
    def test_canonical_basis_matches_rref_oracle(self, rows):
        ncols = len(rows[0])
        basis = nullspace(rows, ncols, IntOps)
        expected, pivots = rref_nullspace(
            [[Fraction(x) for x in r] for r in rows], ncols)
        assert basis == [clear_column(IntOps, v)[1] for v in expected]
        free = [c for c in range(ncols) if c not in pivots]
        for f, v in zip(free, basis):
            assert all(type(x) is int for x in v)
            assert v[f] > 0
            assert all(not v[g] for g in free if g != f)
            assert all(not v[c] for c in pivots if c > f)

    def test_unlucky_first_prime(self):
        # Mod the first prime the row is (0, 1): wrong pivot, wrong answer.
        assert nullspace([[P0, 1]], 2, IntOps) == [(-1, P0)]
        assert rank([[P0, 1], [2 * P0, 2]], 2, IntOps) == 1

    def test_worse_prime_is_skipped(self, monkeypatch):
        # -1/P1 needs three primes.  Mod P1 the pivot moves to column 1, a
        # worse prime, which must neither restart nor join the combination.
        p1 = sympy.prevprime(P0)
        tried = []
        residues = linalg._residues_mod

        def counted(rows, ncols, ops, p):
            tried.append(p)
            return residues(rows, ncols, ops, p)

        monkeypatch.setattr(linalg, "_residues_mod", counted)
        assert nullspace([[p1, 1]], 2, IntOps) == [(-1, p1)]
        assert tried[:2] == [P0, p1] and len(tried) == 4

    def test_empty_and_zero_systems(self):
        assert nullspace([], 2, IntOps) == [(1, 0), (0, 1)]
        assert nullspace([[0, 0]], 2, IntOps) == [(1, 0), (0, 1)]
        assert nullspace([], 0, IntOps) == []


class TestKernelByBackSubstitution:
    """_kernel_mod reads each kernel vector off a row echelon form that is
    not reduced; it equals the kernel of the fully reduced echelon
    (conftest.kernel_by_back_reduction)."""

    @staticmethod
    def _systems(rng, p):
        """Seeded random integer systems mod p, with zero rows, repeated
        and combined rows, full rank, rank 0 and no columns."""
        yield [], 0
        yield [[0] * 4, [p, 2 * p, 0, -p]], 4          # rank 0
        yield [[1, 0, 0], [2, 1, 0], [0, 5, 1]], 3      # full rank
        for _ in range(80):
            m, n = rng.randint(0, 7), rng.randint(1, 9)
            rows = [[rng.choice((0, 0, rng.randint(-9, 9), rng.randrange(p)))
                     for _ in range(n)] for _ in range(m)]
            if rows and rng.random() < 0.5:
                a, b = rng.choice(rows), rng.choice(rows)
                rows.append([x + rng.randint(1, 4) * y for x, y in zip(a, b)])
            if rng.random() < 0.3:
                rows.insert(rng.randint(0, len(rows)), [0] * n)
            yield rows, n

    @pytest.mark.parametrize("p", [3, 7, P0], ids=["3", "7", "2^62-57"])
    def test_equals_the_reduced_echelon_kernel(self, p):
        rng = random.Random(p % 1000)
        h = (lambda x: x % p)
        ranks = set()
        for rows, n in self._systems(rng, p):
            kernel = linalg._kernel_mod(rows, n, h, p)
            assert kernel == kernel_by_back_reduction(rows, n, h, p)
            for v in kernel:
                assert all(sum(row[j] * x for j, x in v.items()) % p == 0
                           for row in rows)
                assert all(0 < x < p for x in v.values())
            ranks.add(n - len(kernel))
        assert {0, 3} <= ranks and len(ranks) > 4

    def test_quadratic_rows_under_each_ring_map(self):
        rng, ops = random.Random(8), QuadOps(5)
        p = next(q for q in linalg._primes() if ops.maps(q))
        hs, _ = ops.maps(p)
        for _ in range(30):
            m, n = rng.randint(1, 5), rng.randint(1, 7)
            rows = [[(rng.randint(-3, 3), rng.randint(-2, 2))
                     for _ in range(n)] for _ in range(m)]
            for h in hs:
                assert linalg._kernel_mod(rows, n, h, p) == \
                    kernel_by_back_reduction(rows, n, h, p)


class TestSuppliedKernel:
    """Kernel vectors handed to the engine instead of computed by it."""

    @staticmethod
    def _scrambled(basis, rng):
        """Integer vectors spanning the same space as the integral basis,
        each one a combination of several basis vectors, so that only the
        reduction from the right recovers the canonical basis."""
        out = []
        for i, v in enumerate(basis):
            w = list(v)
            for u in basis[i + 1:]:
                k = rng.randint(-3, 3)
                w = [a + k * b for a, b in zip(w, u)]
            out.append(w)
        rng.shuffle(out)
        return out

    @staticmethod
    def _echelon_basis(vecs, n, ops):
        """linalg.echelon of the vectors as dense tuples over the ring, den
        at the pivot, in increasing pivot order, after checking the exact
        rows' form: the pivot last, a positive denominator, no common
        integer factor."""
        rows = linalg.echelon(vecs, ops)
        basis = []
        for f, (den, nums) in sorted(rows.items()):
            assert all(j < f for j in nums)
            assert den > 0 and gcd(den, *(c for x in nums.values()
                                          for c in ops.ints(x))) == 1
            v = [nums.get(j, ops.zero) for j in range(n)]
            v[f] = ops.scale(ops.one, den)
            basis.append(tuple(v))
        return basis

    def test_spanning_vectors_give_the_canonical_basis(self):
        rng = random.Random(5)
        for _ in range(60):
            m, n = rng.randint(1, 5), rng.randint(2, 8)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            basis = nullspace(rows, n, IntOps)
            vecs = [{j: x for j, x in enumerate(v) if x}
                    for v in self._scrambled(basis, rng)]
            assert self._echelon_basis(vecs, n, IntOps) == basis

    def test_spanning_quadratic_vectors_give_the_canonical_basis(self):
        rng = random.Random(6)
        ops = QuadOps(5)
        for _ in range(40):
            m, n = rng.randint(1, 4), rng.randint(2, 6)
            rows = [[(rng.randint(-3, 3), rng.randint(-3, 3))
                     for _ in range(n)] for _ in range(m)]
            basis = nullspace(rows, n, ops)
            vecs = []
            for i, v in enumerate(basis):
                w = v
                for u in basis[i + 1:]:
                    k = (rng.randint(-3, 3), rng.randint(-3, 3))
                    w = [ops.add(x, ops.mul(k, y)) for x, y in zip(w, u)]
                vecs.append({j: x for j, x in enumerate(w)
                             if not ops.is_zero(x)})
            rng.shuffle(vecs)
            assert self._echelon_basis(vecs, n, ops) == basis

    def test_dependent_vectors_raise(self):
        twice = [{0: 1, 1: 2}, {0: 2, 1: 4}]
        with pytest.raises(InvariantError):
            linalg.echelon(twice, IntOps)

    @pytest.mark.parametrize("vectors", [
        [{0: 1}],           # off the true pivots of [1, 1]
        [{0: 2, 1: 1}],     # at the true pivots, outside the kernel
    ])
    def test_wrong_vectors_raise_instead_of_looping(self, vectors,
                                                    monkeypatch):
        # The Hadamard guard: a wrong kernel mod every prime cannot loop.
        monkeypatch.setattr(linalg, "_kernel_mod",
                            lambda rows, ncols, h, p: vectors)
        start = time.perf_counter()
        with pytest.raises(InvariantError):
            nullspace([[1, 1]], 2, IntOps)
        assert time.perf_counter() - start < 5


class TestForwardReduction:
    """triangular and forward_reduce on spanning vectors of a canonical
    nullspace basis, whose vectors are the rows of its reduced echelon,
    against the one-pass normal form of those rows (conftest.normal_form),
    as field vectors."""

    @pytest.mark.parametrize("ops", [IntOps, QuadOps(5)],
                             ids=["Z", "Z[sqrt5]"])
    def test_against_the_canonical_rows(self, ops):
        rng = random.Random(38)

        def element(r):
            return (rng.randint(-r, r) if ops.parts == 1 else
                    (rng.randint(-r, r), rng.randint(-r, r)))
        collided = 0
        for _ in range(40):
            m, n = rng.randint(1, 4), rng.randint(3, 8)
            basis = nullspace([[element(3) for _ in range(n)]
                               for _ in range(m)], n, ops)
            reduced = {}
            for v in basis:
                f = max(j for j, x in enumerate(v) if not ops.is_zero(x))
                reduced[f] = (ops.ints(v[f])[0], {
                    j: x for j, x in enumerate(v[:f]) if not ops.is_zero(x)})
            vecs = []
            for i, w in enumerate(basis):   # the last column moves up
                for u, k in ((u, element(3)) for u in basis[i + 1:]):
                    w = [ops.add(x, ops.mul(k, y)) for x, y in zip(w, u)]
                vecs.append({j: x for j, x in enumerate(w)
                             if not ops.is_zero(x)})
            rng.shuffle(vecs)
            collided += len({max(v) for v in vecs}) < len(vecs)
            rows = linalg.triangular(vecs, ops)
            assert sorted(rows) == sorted(reduced)
            assert all(den > 0 and max(row, default=-1) < f
                       for f, (den, row) in rows.items())
            assert linalg.echelon(vecs, ops) == reduced
            assert all(linalg.forward_reduce(ops, v, rows)[1] == {}
                       for v in vecs)
            for _ in range(5):
                vec = {j: x for j in range(n)
                       if not ops.is_zero(x := element(5))}
                expected = normal_form(ops, vec, reduced)
                assert same_field_vector(
                    ops, linalg.forward_reduce(ops, vec, rows), expected)
                k, v = linalg.forward_reduce(ops, vec, reduced)
                assert same_field_vector(ops, (k, v), expected)
                assert expected[0] % k == 0     # k divides their lcm
        assert collided > 20


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
                        s = s + to_field(ops, row[j]) * to_field(ops, v[j])
                    assert not s

    def test_sqrt_relation_detected(self):
        # columns (1, sqrt2) and (sqrt2, 2) are proportional over Q(sqrt 2)
        ops = QuadOps(2)
        rows = [[(1, 0), (0, 1)], [(0, 1), (2, 0)]]
        assert rank(rows, 2, ops) == 1
        (v,) = nullspace(rows, 2, ops)
        assert ops.add(ops.mul(v[0], (1, 0)), ops.mul(v[1], (0, 1))) == (0, 0)

    @staticmethod
    def _against_oracle(d, seed, count=60):
        rng = random.Random(seed)
        ops = QuadOps(d)
        for _ in range(count):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[(rng.randint(-3, 3), rng.randint(-3, 3))
                     for _ in range(n)] for _ in range(m)]
            if m > 2:
                rows.append([ops.mul(x, (1, 1)) for x in rows[0]])
            expected, _ = rref_nullspace(
                [[to_field(ops, x) for x in r] for r in rows], n)
            basis = nullspace(rows, n, ops)
            assert basis == [clear_column(ops, v)[1] for v in expected]
            assert all(isinstance(x, tuple) for v in basis for x in v)

    def test_gaussian_integers(self):
        # sqrt(-1) has no square root mod primes p = 3 mod 4.
        ops = QuadOps(-1)
        assert nullspace([[(1, 0), (0, 1)]], 2, ops) == [((0, -1), (1, 0))]
        self._against_oracle(-1, 11)

    def test_non_residue_mod_first_prime(self):
        d = next(d for d in (2, 3, 5, 6, 7, 10, 11)
                 if pow(d, (P0 - 1) // 2, P0) == P0 - 1)
        self._against_oracle(d, 12)


class TestPaperCertificate:
    def test_paper15_sqrt5_certificate_text(self):
        # paper15 at t = (3 + sqrt 5)/2, a root of t^2 - 3t + 1: the
        # certificate text is fixed, whatever engine solves the systems.
        omega = QuadElem(5, Fraction(3, 2), Fraction(1, 2))
        arr = member("paper15", omega)
        verdict = freeness.decide_freeness(arr, use_cache=False)
        assert verdict.exponents == (1, 5, 9)
        text = freeness.certificate_to_text(verdict.certificate)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "abaacbbb5c85ce684b30e72d69b7a631974f7107eab1e0cf3bf9ac844d974c87")


class TestDeterminants:
    def test_det3_known(self):
        assert det3([(1, 0, 0), (0, 1, 0), (0, 0, 1)], IntOps) == 1
        assert det3([(1, 2, 3), (4, 5, 6), (7, 8, 9)], IntOps) == 0
        root2, zero = (0, 1), (0, 0)
        assert det3([(root2, zero, zero), (zero, root2, zero),
                     ((5, 3), (1, 1), (1, 0))], QuadOps(2)) == (2, 0)

    def test_det3_cols_alternating(self):
        c1, c2 = (1, 2, 3), (0, 1, 1)
        assert det3_cols(c1, c2, c1) == 0
        assert det3_cols(c1, c2, (1, 1, 0)) == -det3_cols(c2, c1, (1, 1, 0))

    def test_cross_is_orthogonal(self):
        u, v = (1, 2, 3), (-1, 0, 4)
        w = linalg.ring_cross(IntOps, u, v)
        assert sum(a * b for a, b in zip(u, w)) == 0
        assert sum(a * b for a, b in zip(v, w)) == 0
