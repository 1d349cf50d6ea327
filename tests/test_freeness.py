"""Derivation modules, graded dimensions, Saito certificates."""
import random
from fractions import Fraction
from itertools import combinations

import pytest

from freearr import arrangement as am
from freearr import freeness as fr
from freearr.freeness import (
    Derivation,
    Free,
    HPoly,
    Inconclusive,
    NotFree,
    certificate_from_text,
    certificate_to_text,
    decide_freeness,
    derivation_basis,
    derivation_space_dim,
    euler_derivation,
    expected_graded_dim,
    is_member,
    saito_check,
)
from freearr.induction import inductively_free
from freearr.scalars import QQ

from conftest import boolean3, near_pencil, rational_arrangement


class TestExpectedDim:
    def test_examples(self):
        assert expected_graded_dim((1, 1, 1), 1) == 3
        assert expected_graded_dim((1, 6, 6), 6) == 23
        assert expected_graded_dim((1, 5, 7), 5) == 16
        assert expected_graded_dim((1, 5, 7), 0) == 0
        assert expected_graded_dim((1, 2, 3), 3) == 6 + 3 + 1


class TestGradedDimensions:
    def test_boolean_degree_one(self):
        assert derivation_space_dim(boolean3(), 1) == 3

    def test_near_pencil_degree_one(self):
        arr = rational_arrangement((1, 0, 0), (0, 1, 0), (1, -1, 0),
                                   (0, 0, 1))
        assert derivation_space_dim(arr, 1) == 2

    def test_members_verified_by_divisibility(self, small_corpus):
        for arr in small_corpus[:8]:
            for p in range(0, 3):
                for theta in derivation_basis(arr, p):
                    assert is_member(arr, theta)

    def test_dim_invariant_under_column_scaling(self):
        arr = near_pencil(5)
        scaled = am.build(
            [tuple(Fraction(3, 2) * x for x in arr.columns[0])]
            + [tuple(Fraction(-2) * x for x in arr.columns[1])]
            + list(arr.columns[2:]), QQ)
        for p in range(4):
            assert derivation_space_dim(arr, p) == derivation_space_dim(
                scaled, p)

    def test_dim_invariant_under_coordinate_change(self):
        arr = near_pencil(5)
        # act by the transpose-inverse of a unimodular matrix on columns
        mat = ((1, 1, 0), (0, 1, 0), (1, 0, 1))
        cols = [tuple(sum(mat[i][j] * c[j] for j in range(3))
                      for i in range(3)) for c in arr.columns]
        moved = am.build([tuple(Fraction(x) for x in c) for c in cols], QQ)
        for p in range(4):
            assert derivation_space_dim(arr, p) == derivation_space_dim(
                moved, p)


class TestEuler:
    def test_euler_in_every_arrangement(self, small_corpus):
        for arr in small_corpus[:10]:
            theta = euler_derivation(arr)
            assert theta.pdeg == 1
            assert is_member(arr, theta)


def _diag_derivation(i: int) -> Derivation:
    polys = []
    for k in range(3):
        h = HPoly(1)
        if k == i:
            mono = [0, 0, 0]
            mono[i] = 1
            h = HPoly(1, {tuple(mono): Fraction(1)})
        polys.append(h)
    return Derivation(tuple(polys), 1)


class TestSaito:
    def test_boolean_diagonal_basis(self):
        arr = boolean3()
        c = saito_check(arr, _diag_derivation(0), _diag_derivation(1),
                        _diag_derivation(2))
        assert c == 1

    def test_repeated_derivation_fails(self):
        arr = boolean3()
        th = _diag_derivation(0)
        assert saito_check(arr, th, th, _diag_derivation(2)) is None

    def test_degree_mismatch(self):
        arr = near_pencil(5)
        with pytest.raises(fr.DegreeMismatchError):
            saito_check(arr, euler_derivation(arr), _diag_derivation(0),
                        _diag_derivation(1))

    def test_span_vector_degree_mismatch(self):
        arr = near_pencil(5)
        with pytest.raises(fr.DegreeMismatchError):
            fr._derivation_vector(euler_derivation(arr), 2)


def _expand_determinant(cert) -> HPoly:
    """Cofactor expansion of the coefficient matrix, done independently."""
    m = [th.polys for th in cert.derivations]
    total_deg = sum(th.pdeg for th in cert.derivations)
    out = HPoly(total_deg)
    for (a, b, c), sign in ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1), \
            ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1):
        term = m[0][a] * m[1][b] * m[2][c]
        out = out + (term if sign > 0 else -term)
    return out


class TestDecideFreeness:
    def test_boolean(self):
        verdict = decide_freeness(boolean3())
        assert isinstance(verdict, Free)
        assert verdict.exponents == (1, 1, 1)

    def test_generic_four_chi_does_not_split(self):
        arr = rational_arrangement((1, 0, 0), (0, 1, 0), (0, 0, 1),
                                   (1, 1, 1))
        verdict = decide_freeness(arr)
        assert isinstance(verdict, NotFree)
        assert verdict.reason == "ChiDoesNotSplit"

    def test_near_pencils_free(self):
        for n in (4, 5, 6):
            verdict = decide_freeness(near_pencil(n))
            assert isinstance(verdict, Free)
            assert verdict.exponents == (1, 1, n - 2)

    def test_graded_dimension_mismatch(self):
        arr = rational_arrangement((0, 1, 0), (1, -2, 1), (1, 0, 0),
                                   (1, -1, 0), (0, 1, 2), (1, 1, 0),
                                   (2, 1, 0))
        assert arr.char_poly().exponents() == (1, 3, 3)
        verdict = decide_freeness(arr, use_cache=False)
        assert verdict == NotFree("GradedDimensionMismatch", (2, 3, 4))
        assert inductively_free(arr) is None

    def test_free_verdict_needs_no_dimension_sweep(self, a13, monkeypatch):
        arrs = (a13, near_pencil(6))
        texts = [certificate_to_text(
            decide_freeness(arr, use_cache=False).certificate)
            for arr in arrs]

        def no_sweep(arr, p):
            raise AssertionError("graded dimension sweep on a free input")

        monkeypatch.setattr(fr, "derivation_space_dim", no_sweep)
        for arr, text in zip(arrs, texts):
            cert = decide_freeness(arr, use_cache=False).certificate
            assert certificate_to_text(cert) == text

    def test_certificate_reverified_by_expansion(self):
        verdict = decide_freeness(near_pencil(5))
        det = _expand_determinant(verdict.certificate)
        q = fr.defining_polynomial(near_pencil(5))
        assert det == q.scale(verdict.certificate.constant)

    def test_cached_constant_fits_rescaled_input(self, a13):
        decide_freeness(a13)
        cols = [tuple(2 * x for x in a13.columns[0])] + list(a13.columns[1:])
        doubled = am.build(cols, a13.domain)
        cert = decide_freeness(doubled).certificate
        assert cert.constant == Fraction(35, 10368)
        assert saito_check(doubled, *cert.derivations) == cert.constant

    def test_cached_constant_fits_permuted_rescaled_input(self, a15):
        decide_freeness(a15)
        rng = random.Random(3)
        cols = list(a15.columns)
        rng.shuffle(cols)
        scales = [Fraction(rng.choice((-3, 2, 5)), rng.randint(1, 4))
                  for _ in cols]
        cols = [tuple(k * x for x in c) for k, c in zip(scales, cols)]
        moved = am.build(cols, a15.domain)
        cert = decide_freeness(moved).certificate
        assert saito_check(moved, *cert.derivations) == cert.constant

    def test_verdict_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(fr, "_VERDICT_CACHE_SIZE", 3)
        monkeypatch.setattr(fr, "_VERDICT_CACHE", {})
        arrs = [near_pencil(n) for n in (4, 5, 6, 7)]
        first = decide_freeness(arrs[0])
        for arr in arrs[1:]:
            decide_freeness(arr)
            assert len(fr._VERDICT_CACHE) <= 3
        assert fr.state_key(arrs[0]) not in fr._VERDICT_CACHE
        again = decide_freeness(arrs[0])
        assert len(fr._VERDICT_CACHE) == 3
        assert again.exponents == first.exponents
        assert certificate_to_text(again.certificate) == \
            certificate_to_text(first.certificate)

    def test_certificate_round_trip(self):
        arr = near_pencil(6)
        verdict = decide_freeness(arr)
        text = certificate_to_text(verdict.certificate)
        back = certificate_from_text(text)
        assert saito_check(arr, *back.derivations) == verdict.certificate.constant
        assert certificate_to_text(back) == text


# two fixed 6-line arrangements for the brute-force oracle sweep
BRAID6 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1),
          (0, 1, -1))
MIXED6 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, -1, 2))


def _random_combination(basis, p, rng):
    while True:
        coeffs = [rng.randint(-9, 9) for _ in basis]
        if any(coeffs):
            break
    polys = []
    for c in range(3):
        acc = HPoly(p)
        for k, th in zip(coeffs, basis):
            if k:
                acc = acc + th.polys[c].scale(k)
        polys.append(acc)
    return Derivation(tuple(polys), p)


def brute_force_free(arr, rng) -> bool:
    """Randomized independent freeness oracle.

    Freeness requires the graded dimension table of a free module and the
    existence of a Saito basis; for a free arrangement a random pair from
    the graded pieces works with overwhelming probability, so repeated
    random sampling decides freeness at desk scale.
    """
    exps = arr.char_poly().exponents()
    if exps is None:
        return False
    e1, e2, e3 = exps
    for p in range(e3 + 1):
        if derivation_space_dim(arr, p) != expected_graded_dim(exps, p):
            return False
    theta_e = euler_derivation(arr)
    b2 = derivation_basis(arr, e2)
    b3 = derivation_basis(arr, e3)
    for _ in range(25):
        th2 = _random_combination(b2, e2, rng)
        th3 = _random_combination(b3, e3, rng)
        if saito_check(arr, theta_e, th2, th3) is not None:
            return True
    return False


class TestOracleEquivalence:
    @pytest.mark.parametrize("base", [BRAID6, MIXED6])
    def test_all_essential_subarrangements(self, base):
        rng = random.Random(42)
        for size in range(3, 7):
            for sub in combinations(range(6), size):
                try:
                    arr = rational_arrangement(*(base[i] for i in sub))
                except am.ArrangementError:
                    continue
                verdict = decide_freeness(arr)
                assert not isinstance(verdict, Inconclusive)
                assert isinstance(verdict, Free) == brute_force_free(arr, rng)
