"""Derivation modules, graded dimensions, Saito certificates."""
import random
import time
from fractions import Fraction
from pathlib import Path
from functools import lru_cache, partial, reduce
from itertools import combinations
from math import comb, prod

import pytest

from freearr import arrangement as am
from freearr import cli
from freearr import freeness as fr
from freearr import linalg
from freearr import moduli as mod
from freearr.freeness import (
    Derivation,
    Free,
    NotFree,
    SaitoCertificate,
    certificate_from_text,
    certificate_to_text,
    decide_freeness,
    derivation_basis,
    derivation_space_dim,
    euler_derivation,
    expected_graded_dim,
    saito_check,
)
from freearr.induction import inductively_free
from freearr.scalars import (
    QQ,
    InputError,
    IntOps,
    InvariantError,
    QuadElem,
    QuadOps,
    domain_of,
    quad_field,
)

from conftest import (
    HPoly,
    boolean3,
    defining_polynomial,
    field_columns,
    grid,
    h3,
    hpolys,
    hyperplane_rows_by_tables,
    is_member,
    linear_product,
    member,
    modulo_by_euler_rows,
    monomial,
    near_pencil,
    poly_add,
    poly_det3,
    poly_mul,
    poly_scale,
    rational_arrangement,
    restricts_to_zero,
    saito_by_coefficients,
    same_field_vector,
    to_derivation,
    to_field,
)


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
            [tuple(Fraction(3, 2) * x for x in field_columns(arr)[0])]
            + [tuple(Fraction(-2) * x for x in field_columns(arr)[1])]
            + list(field_columns(arr)[2:]), QQ)
        for p in range(4):
            assert derivation_space_dim(arr, p) == derivation_space_dim(
                scaled, p)

    def test_dim_invariant_under_coordinate_change(self):
        arr = near_pencil(5)
        # act by the transpose-inverse of a unimodular matrix on columns
        mat = ((1, 1, 0), (0, 1, 0), (1, 0, 1))
        cols = [tuple(sum(mat[i][j] * c[j] for j in range(3))
                      for i in range(3)) for c in field_columns(arr)]
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
    """x_i D_i: monomials(1)[i] is x_i, at column 3 i + i."""
    return Derivation(1, 1, {4 * i: 1})


def _grid2_forgery():
    """grid(2) and theta_E, (Q/x1) D2 and D3, of pdegs 1, 7 and 0: their
    det is Q, yet D3(x3) = 1 is not divisible by x3, so D3 is no member."""
    arr = grid(2)
    q_x1 = reduce(poly_mul, (HPoly(1, {m: a for m, a in zip(
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)), alpha) if a})
        for alpha in field_columns(arr) if alpha != (1, 0, 0)))
    return arr, (euler_derivation(arr),
                 to_derivation(QQ, (HPoly(7), q_x1, HPoly(7)), 7),
                 Derivation(0, 1, {2: 1}))


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

    def test_a_non_member_fails_though_det_is_q(self):
        """Saito's criterion asks for members: the det alone passes."""
        arr, ths = _grid2_forgery()
        assert saito_by_coefficients(arr, *ths) == 1
        assert [is_member(arr, th) for th in ths] == [True, True, False]
        assert saito_check(arr, *ths) is None
        assert decide_freeness(arr, use_cache=False).exponents == (1, 3, 4)

    def test_forged_pdegs_raise(self, a13):
        th1, _, th3 = decide_freeness(a13).certificate.derivations
        with pytest.raises(fr.DegreeMismatchError):
            saito_check(a13, th1, th1, th3)

    def test_a_negative_pdeg_raises(self, a13):
        """Pdegs (15, -2, 0) sum to n = 13; the negative one is refused
        before any term is read, as no degree of a basis is negative."""
        ths = (Derivation(15, 1, {}), Derivation(-2, 1, {}),
               Derivation(0, 1, {0: 1}))
        with pytest.raises(fr.DegreeMismatchError):
            saito_check(a13, *ths)


def _expand_determinant(cert) -> HPoly:
    """Cofactor expansion of the coefficient matrix, done independently,
    over the field of the constant."""
    ops = domain_of(cert.constant)
    return poly_det3([hpolys(ops, th) for th in cert.derivations])


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
        """With the transversal last and first: a first transversal puts
        first the two-point frame's block of degree p - (n - 2), below -2
        for n >= 6 at p = 1, which the lifts must read as empty."""
        for n in range(4, 10):
            last = near_pencil(n)
            for arr in (last, am.build([field_columns(last)[-1],
                                        *field_columns(last)[:-1]])):
                verdict = decide_freeness(arr, use_cache=False)
                assert isinstance(verdict, Free)
                assert verdict.exponents == (1, 1, n - 2)
                cert = verdict.certificate
                assert saito_check(arr, *cert.derivations) == cert.constant

    def test_graded_dimension_mismatch(self):
        arr = rational_arrangement((0, 1, 0), (1, -2, 1), (1, 0, 0),
                                   (1, -1, 0), (0, 1, 2), (1, 1, 0),
                                   (2, 1, 0))
        assert arr.char_poly().exponents() == (1, 3, 3)
        verdict = decide_freeness(arr, use_cache=False)
        assert verdict == NotFree("GradedDimensionMismatch", (3, 8, 9))
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
        q = defining_polynomial(near_pencil(5))
        assert det == poly_scale(q, verdict.certificate.constant)

    def test_cached_constant_fits_permuted_rescaled_input(self, a15):
        decide_freeness(a15)
        rng = random.Random(3)
        cols = list(field_columns(a15))
        rng.shuffle(cols)
        scales = [Fraction(rng.choice((-3, 2, 5)), rng.randint(1, 4))
                  for _ in cols]
        cols = [tuple(k * x for x in c) for k, c in zip(scales, cols)]
        moved = am.build(cols, a15.ops)
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

    @staticmethod
    def _checks_on(monkeypatch):
        """An empty verdict cache, and the arrangements saito_check is
        asked about, in call order."""
        monkeypatch.setattr(fr, "_VERDICT_CACHE", {})
        seen, check = [], fr.saito_check

        def spy(arr, *ths):
            seen.append(arr)
            return check(arr, *ths)
        monkeypatch.setattr(fr, "saito_check", spy)
        return seen

    @staticmethod
    def _doubled(arr):
        return am.build([tuple(2 * x for x in field_columns(arr)[0]),
                         *field_columns(arr)[1:]], arr.ops)

    def test_cached_constant_fits_rescaled_input(self, a13, monkeypatch):
        """A hit on rescaled columns reports saito_check on them, once."""
        doubled = self._doubled(a13)
        own = decide_freeness(doubled, use_cache=False).certificate.constant
        seen = self._checks_on(monkeypatch)
        cached = decide_freeness(a13)
        del seen[:]
        hit = decide_freeness(doubled)
        assert seen == [doubled]
        assert hit.certificate.derivations is cached.certificate.derivations
        assert hit.certificate.constant == own == Fraction(35, 10368)
        assert own != cached.certificate.constant

    def test_exact_repeat_hit_is_the_cached_object(self, a13, monkeypatch):
        seen = self._checks_on(monkeypatch)
        first = decide_freeness(a13)
        del seen[:]
        assert decide_freeness(a13) is first
        assert seen == [a13]

    def test_hit_does_not_trust_a_cached_constant(self, a13, monkeypatch):
        """A cached constant that is wrong never reaches a caller: the hit
        reports the constant of its own columns."""
        doubled = self._doubled(a13)
        own = decide_freeness(doubled, use_cache=False).certificate.constant
        self._checks_on(monkeypatch)
        impl = fr._decide_freeness_impl

        def wrong_constant(arr):
            v = impl(arr)
            return Free(v.exponents, SaitoCertificate(
                v.certificate.derivations, 2 * v.certificate.constant))
        monkeypatch.setattr(fr, "_decide_freeness_impl", wrong_constant)
        decide_freeness(a13)
        assert decide_freeness(doubled).certificate.constant == own

    @pytest.mark.parametrize("moved", [False, True])
    def test_hit_on_a_cached_non_basis_raises(self, a13, monkeypatch, moved):
        """theta_3 replaced by x1^(e3-e2) theta_2, a derivation of the
        same pdeg that is no Saito basis with theta_E and theta_2."""
        self._checks_on(monkeypatch)
        impl = fr._decide_freeness_impl

        def non_basis(arr):
            v = impl(arr)
            th_e, th2, th3 = v.certificate.derivations
            vec = fr._shifts(th2.vec, th2.pdeg, th3.pdeg)[0]
            return Free(v.exponents, SaitoCertificate(
                (th_e, th2, Derivation(th3.pdeg, th2.den, vec)),
                v.certificate.constant))
        monkeypatch.setattr(fr, "_decide_freeness_impl", non_basis)
        decide_freeness(a13)
        with pytest.raises(InvariantError, match="cached Saito basis"):
            decide_freeness(self._doubled(a13) if moved else a13)

    def test_hit_on_a_cached_basis_of_misfit_pdegs_raises(
            self, a13, monkeypatch, capsys):
        """theta_3 replaced by x1 theta_3, of pdeg 7: the pdegs of the
        cached basis sum to 14, not n = 13.  The degree check's error is
        the program's fault at a hit, not bad input: the command line
        exits 3."""
        self._checks_on(monkeypatch)
        impl = fr._decide_freeness_impl

        def misfit(arr):
            v = impl(arr)
            th_e, th2, th3 = v.certificate.derivations
            vec = fr._shifts(th3.vec, th3.pdeg, th3.pdeg + 1)[0]
            return Free(v.exponents, SaitoCertificate(
                (th_e, th2, Derivation(th3.pdeg + 1, th3.den, vec)),
                v.certificate.constant))
        monkeypatch.setattr(fr, "_decide_freeness_impl", misfit)
        decide_freeness(a13)
        with pytest.raises(InvariantError) as info:
            decide_freeness(a13)
        assert str(info.value).startswith(
            "a cached Saito basis does not fit an arrangement of the same "
            "lines: pdegs (1, 6, 7)")
        assert not isinstance(info.value, InputError)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["free", "paper13", "--at", "3"])
        assert exit_info.value.code == 3
        assert capsys.readouterr().err.startswith(
            "internal error: InvariantError('a cached Saito basis does not "
            "fit")

    def test_certificate_round_trip(self, a13):
        arr = near_pencil(6)
        verdict = decide_freeness(arr)
        text = certificate_to_text(verdict.certificate)
        back = certificate_from_text(text)
        assert saito_check(arr, *back.derivations) == verdict.certificate.constant
        assert certificate_to_text(back) == text
        assert back == verdict.certificate
        # vec / den in lowest terms reads back as the same dataclass; a13
        # with column 1 doubled hits a13's cache entry, with its own c
        decide_freeness(a13)
        doubled = self._doubled(a13)
        assert decide_freeness(doubled).certificate.constant == \
            Fraction(35, 10368)
        for arr in (a13, _paper_quad_points()[0], grid(8), doubled):
            cert = decide_freeness(arr).certificate
            assert certificate_from_text(certificate_to_text(cert)) == cert


# two fixed 6-line arrangements for the brute-force oracle sweep
BRAID6 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1),
          (0, 1, -1))
MIXED6 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, -1, 2))


def _random_combination(ops, basis, p, rng):
    while True:
        coeffs = [rng.randint(-9, 9) for _ in basis]
        if any(coeffs):
            break
    views = [hpolys(ops, th) for th in basis]
    polys = []
    for c in range(3):
        acc = HPoly(p)
        for k, view in zip(coeffs, views):
            if k:
                acc = poly_add(acc, poly_scale(view[c], k))
        polys.append(acc)
    return to_derivation(ops, polys, p)


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
        th2 = _random_combination(arr.ops, b2, e2, rng)
        th3 = _random_combination(arr.ops, b3, e3, rng)
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
                assert isinstance(verdict, (Free, NotFree))
                assert isinstance(verdict, Free) == brute_force_free(arr, rng)


# -- the D_H(A) solve: rows, kernel supply, saito over the integral ring ---

def _ring_int_mul(ops, k, x):
    return k * x if ops is IntOps else (k * x[0], k * x[1])


def _old_spanning_vectors(ops, alpha):
    """Two integral vectors spanning ker(alpha), as the solver built them
    before the single row builder."""
    pivot = next(i for i, a in enumerate(alpha) if not ops.is_zero(a))
    vecs = []
    for j in (i for i in range(3) if i != pivot):
        v = [ops.zero, ops.zero, ops.zero]
        v[j] = alpha[pivot]
        v[pivot] = _ring_int_mul(ops, -1, alpha[j])
        vecs.append(tuple(v))
    return vecs[0], vecs[1]


def _old_binary_form(ops, u, v, expnts, p):
    """Coefficients in (s, r) of prod (s*u_i + r*v_i)^e_i, by binomials."""
    form = [ops.one]
    for axis, e in enumerate(expnts):
        if e == 0:
            continue
        ua, va = u[axis], v[axis]
        pows_u, pows_v = [ops.one], [ops.one]
        for _ in range(e):
            pows_u.append(ops.mul(pows_u[-1], ua))
            pows_v.append(ops.mul(pows_v[-1], va))
        fac = [_ring_int_mul(ops, comb(e, a),
                             ops.mul(pows_u[a], pows_v[e - a]))
               for a in range(e + 1)]
        new = [ops.zero] * (len(form) + e)
        for a, x in enumerate(form):
            if ops.is_zero(x):
                continue
            for b, y in enumerate(fac):
                new[a + b] = ops.add(new[a + b], ops.mul(x, y))
        form = new
    return form


def _old_constraint_rows(ops, cols, p):
    """The full system M as the binomial expansion built it: the oracle."""
    mons = fr.monomials(p)
    nm = len(mons)
    rows = []
    for alpha in cols:
        u, v = _old_spanning_vectors(ops, alpha)
        forms = [_old_binary_form(ops, u, v, m, p) for m in mons]
        for t in range(p + 1):
            row = [ops.zero] * (3 * nm)
            for c in range(3):
                if ops.is_zero(alpha[c]):
                    continue
                for mi in range(nm):
                    if not ops.is_zero(forms[mi][t]):
                        row[c * nm + mi] = ops.mul(alpha[c], forms[mi][t])
            rows.append(row)
    return rows


# Columns with a zero in each position, and none.
INT_COLUMNS = [(0, 2, -3), (5, 0, 7), (-2, 3, 0), (0, 0, 4), (0, -3, 0),
               (6, 0, 0), (3, -1, 2), (-4, 5, 9)]
QUAD_COLUMNS = [((0, 0), (1, 1), (2, -1)), ((3, 1), (0, 0), (-1, 2)),
                ((2, 0), (1, -1), (0, 0)), ((0, 0), (0, 0), (0, 1)),
                ((1, 2), (-3, 1), (2, 5)), ((0, 1), (4, 0), (0, 0))]


def _degrees(arr):
    """The degrees to check: 0..e3, or 0..min(n - 2, 4) when chi does not
    split."""
    exps = arr.char_poly().exponents()
    return range((exps[2] if exps else min(arr.n - 2, 4)) + 1)


def _quad_image(cols, d):
    """The arrangement of the rational columns under a change of
    coordinates over Q(sqrt d); it has the same lattice."""
    one, s = QuadElem(d, 1, 0), QuadElem(d, 0, 1)
    zero = one - one
    a = ((one, s, zero), (zero, one, one), (one, zero, s))
    return am.build([tuple(sum((x * a[i][c] for i, x in enumerate(col)), zero)
                           for c in range(3)) for col in cols])


GENERIC7 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3),
            (1, 3, 7), (2, 5, 1)]


def _generic_lines():
    """3 to 7 lines in general position: every flat has two lines."""
    return [rational_arrangement(*GENERIC7[:n]) for n in range(3, 8)]


def _paper_quad_points():
    omega5 = QuadElem(5, Fraction(3, 2), Fraction(1, 2))
    return (member("paper15", omega5),
            member("paper13", QuadElem(-1, 2, 1)))


class TestRowBuilder:
    @pytest.mark.parametrize("ops,cols", [(IntOps, INT_COLUMNS),
                                          (QuadOps(2), QUAD_COLUMNS),
                                          (QuadOps(-3), QUAD_COLUMNS)])
    def test_full_rows_match_binary_form_expansion(self, ops, cols):
        # one theta-block per coordinate: the rows of the full system
        for p in range(6):
            nm = len(fr.monomials(p))
            rows = [row for alpha in cols
                    for row in fr._hyperplane_rows(
                        ops, alpha, [(c * nm, a, (), [])
                                     for c, a in enumerate(alpha)
                                     if not ops.is_zero(a)], p, 3 * nm)]
            assert rows == _old_constraint_rows(ops, cols, p)

    @pytest.mark.parametrize("arr", [
        grid(3), member("paper13", 3),
        *(_quad_image(field_columns(grid(3)), d) for d in (2, 5, -3))],
        ids=["grid12", "a13", "grid12-sqrt2", "grid12-sqrt5", "grid12-sqrt-3"])
    def test_two_point_rows_are_full_rows_on_the_lift(self, arr):
        # For g the unit vector of an unknown, theta = (pi_Q g1) P +
        # (pi_P g2) Q; M's rows for the lines through neither point, applied
        # to theta, are the rows of the frame without known zeros, and M's
        # other rows vanish on it.  The frame's rows are those of each
        # line's window, and have the same nullspace.
        ops, cols = arr.ops, arr.ring_columns
        lat = arr.lattice()
        frame = fr._two_point_frame(arr)
        (_, lines1, _), (_, lines2, _), rest = frame
        zeros = {col: zs for col, zs, _ in rest}
        assert len(lines1) + len(lines2) + 2 == max(
            sum(sorted((len(lat.flats[f]) for f in incident))[-2:])
            for incident in lat.per_hyperplane)
        field = partial(to_field, ops)
        units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

        def integral(x):
            """The integral field element x in the ring's form."""
            parts = (x.a, x.b) if ops.parts == 2 else (x,)
            assert all(y.denominator == 1 for y in parts)
            ints = tuple(y.numerator for y in parts)
            return ints if ops.parts == 2 else ints[0]
        for p in range(9):
            mons = fr.monomials(p)
            thetas = []
            for point, lines, ring_pi in frame[:2]:
                pi = HPoly(0, {(0, 0, 0): 1})
                for line in lines:
                    pi = poly_mul(pi, HPoly(1, {e: field(x) for e, x in
                                                zip(units, line)}))
                # the frame's pi is that product, in ring elements
                mons_pi = fr.monomials(len(lines))
                assert pi == HPoly(len(lines), {mons_pi[k]: field(x) for k, x
                                                in ring_pi.items()})
                for m in fr.monomials(p - len(lines)):
                    f = poly_mul(pi, HPoly(p - len(lines), {m: 1}))
                    thetas.append({c * len(mons) + i:
                                   integral(field(point[c]) * x)
                                   for c in range(3) for i, mm in
                                   enumerate(mons) if (x := f.coeffs.get(mm))})
            rows, width, _ = fr._dh_system(ops, frame, p)
            assert width == len(thetas)
            full = _old_constraint_rows(ops, cols, p)
            expected, kept = [], []
            for i, col in enumerate(cols):
                block = [[reduce(ops.add, (ops.mul(row[j], x)
                                           for j, x in th.items()), ops.zero)
                          for th in thetas]
                         for row in full[i * (p + 1):(i + 1) * (p + 1)]]
                if col in zeros:
                    # the first ceil(w / 2) and last floor(w / 2) of rows
                    # u..p - v, w = p + 1 - z
                    z, u, v = zeros[col]
                    w = max(p + 1 - z, 0)
                    expected += block
                    kept += block[u:u + (w + 1) // 2]
                    kept += block[p + 1 - v - w // 2:p + 1 - v]
                else:
                    assert all(map(ops.is_zero, sum(block, [])))
            assert fr._dh_system(ops, _unsettled(frame), p)[0] == expected
            assert rows == kept
            assert linalg.nullspace(rows, width, ops) == linalg.nullspace(
                expected, width, ops)


class TestClosedFormsAgainstTables:
    """The Saito step's rows and its reduction modulo S*theta_E equal
    those of the tables they replaced (conftest)."""

    @pytest.mark.parametrize("arr", [
        member("paper13", 3),
        _paper_quad_points()[0], grid(5), near_pencil(6), monomial(4, 3)],
        ids=["a13", "a15-sqrt5", "grid20", "near-pencil6", "monomial4-i"])
    def test_rows_restrict_each_product_once(self, arr):
        # every line, so also those through neither frame point (rest)
        ops, frame = arr.ops, fr._two_point_frame(arr)
        e3 = arr.char_poly().exponents()[2]
        for p in range(e3 + 1):
            _, width, blocks = fr._dh_system(ops, frame, p)
            for beta in arr.ring_columns:
                args = (ops, beta, [(b, linalg.ring_dot(ops, beta, point), ls,
                                     []) for b, _, point, ls, _ in blocks],
                        p, width)
                assert fr._hyperplane_rows(*args) == \
                    hyperplane_rows_by_tables(*args)

    @pytest.mark.parametrize("ops", [IntOps, QuadOps(5)],
                             ids=["Z", "Z[sqrt5]"])
    def test_reduction_is_theta_minus_q_theta_e(self, ops):
        """The reduction _first_complement makes modulo W on each side:
        Euler-reduced shifts in row echelon form, not back-reduced, and
        forward substitution, equal as a field vector to reducing by the
        rows m * theta_E and the reduced echelon of the shifts."""
        rng = random.Random(30)
        vector = partial(_random_vector, rng, ops)
        for p in range(1, 9):
            d = rng.randint(1, p)
            for c in (0, 2):
                for others in ((), ((d, vector(d, 0.7)),)):
                    closed = _forward_modulo(ops, p, others, c)
                    by_rows = modulo_by_euler_rows(ops, p, others, c)
                    for _ in range(4):
                        vec = vector(p, 0.6)
                        assert same_field_vector(ops, closed(vec),
                                                  by_rows(vec))

    @pytest.mark.parametrize("ops", [IntOps, QuadOps(5)],
                             ids=["Z", "Z[sqrt5]"])
    def test_complement_reduces_colliding_pivots(self, ops):
        """Shifts whose Euler-reduced forms share a last column and a first
        column: _first_complement eliminates there and returns the
        complement that the reduced echelons give.  The shifts of one theta
        never share one (on the last side m * theta reduces to m * phi, or
        to (m / x3) * psi if x3 | m, psi = x3 * phi if phi has no f3, and
        lex order is multiplicative), so W here is spanned by two: theta
        and a copy of it changed at a few columns."""
        rng = random.Random(38)
        vector = partial(_random_vector, rng, ops)
        p, d = 4, 2
        for _ in range(200):
            theta = vector(d, 0.7)
            other = {**theta, **vector(d, 0.1)}
            others = ((d, theta), (d, other))
            shifts = [v for e, th in others for v in fr._shifts(th, e, p)]
            if all(_pivots_collide(ops, p, c, shifts) for c in (0, 2)):
                break
        else:
            pytest.fail("no W with colliding pivots on both sides")
        lifts = [vector(p, 0.6) for _ in range(4)]
        den, vec, rest = fr._first_complement(ops, p, others, lifts)
        first, rows = _field_complement(ops, p, others, lifts)
        field = partial(to_field, ops)
        assert {j: field(x) / den for j, x in vec.items()} == first
        assert [{j: field(x) / field(v[max(v)]) for j, x in v.items()}
                for v in rest] == rows


def _random_vector(rng, ops, p, density):
    """A random coefficient vector of degree p, entries in [-9, 9]."""
    def element():
        return (rng.randint(-9, 9) if ops.parts == 1 else
                (rng.randint(-9, 9), rng.randint(-9, 9)))
    return {j: x for j in range(3 * len(fr.monomials(p)))
            if rng.random() < density and not ops.is_zero(x := element())}


def _forward_modulo(ops, p, others, c):
    """vec -> (k, v) modulo W on side c, as _first_complement reduces."""
    span = linalg.triangular([fr._euler_reduced(ops, p, c, v)
                              for d, theta in others
                              for v in fr._shifts(theta, d, p)], ops)

    def reduce_modulo(vec):
        k, r = linalg.forward_reduce(ops, fr._euler_reduced(ops, p, c, vec),
                                     span)
        return k, {j if c else -j: x for j, x in r.items()}
    return reduce_modulo


def _pivots_collide(ops, p, c, shifts):
    """Do two Euler-reduced shifts share a pivot (last key) on side c?"""
    leads = [max(fr._euler_reduced(ops, p, c, v)) for v in shifts]
    return len(set(leads)) < len(leads)


def _vector_to_derivation(ops, vec, p: int) -> Derivation:
    """The degree-p derivation of a dense coefficient vector over the field
    of ops."""
    mons = fr.monomials(p)
    nm = len(mons)
    return to_derivation(ops, [HPoly(p, dict(zip(mons, vec[c * nm:])))
                               for c in range(3)], p)


def _with_leading_one(ops, vec):
    """The integral vector over ops as field elements, divided by its last
    nonzero entry; zero entries stay 0."""
    inv = 1 / to_field(ops, next(x for x in reversed(vec)
                                 if not ops.is_zero(x)))
    return [0 if ops.is_zero(x) else to_field(ops, x) * inv for x in vec]


def _grid_degrees(arr):
    """0, 1, e2 and e3: the full solve at every degree up to e3 would
    dominate the suite on grids."""
    _, e2, e3 = arr.char_poly().exponents()
    return (0, 1, e2, e3)


class TestColumnTables:
    """The cached column tables are compositions of _column: they equal
    the monomial arithmetic they replaced, and the frame's pi is the
    product of its lines."""

    def test_tables_equal_the_monomial_arithmetic(self):
        for p in range(13):
            size = 3 * comb(p + 2, 2)
            for d in range(p + 1):
                mons, others = fr.monomials(d), fr.monomials(p - d)
                assert fr._products(d, p - d) == tuple(
                    tuple(fr._column(p, 0, (m[0] + n[0], m[1] + n[1],
                                            m[2] + n[2])) for n in others)
                    for m in mons)
                vec = {j: j + 1 for j in range(3 * len(mons))}
                assert fr._shifts(vec, d, p) == [
                    {fr._column(p, c, (e[0] + n[0], e[1] + n[1],
                                       e[2] + n[2])): x
                     for c, e, x in fr._terms(d, vec)} for n in others]
            for alpha in ((2, 0, 1), (0, 3, 1), (0, 0, 5)):
                i0, j, _ = fr._axes(IntOps, alpha)
                assert list(fr._places(p, i0)) == [
                    (p - m[i0], c, m[j])
                    for c, m, _ in fr._terms(p, dict.fromkeys(range(size)))]
            for c in range(3) if p else ():
                assert fr._euler_terms(p, c) == {
                    fr._column(p, c, tuple(e + (b == c) for b, e in
                                           enumerate(m))):
                    [fr._column(p, a, tuple(e + (b == a) for b, e in
                                            enumerate(m)))
                     for a in range(3) if a != c]
                    for m in fr.monomials(p - 1)}

    def test_tables_are_bounded_caches(self):
        for table in (fr._products, fr._places,
                      fr._euler_terms, fr.monomials):
            assert table.cache_info().maxsize == fr._TABLE_CACHE_SIZE

    @pytest.mark.parametrize("arr", [
        member("paper13", 3),
        *_paper_quad_points(), grid(5), h3(), monomial(4, 1),
        near_pencil(7)],
        ids=["a13", "a15-sqrt5", "a13-i", "grid20", "h3", "monomial4-1",
             "near-pencil7"])
    def test_frame_pi_is_the_product_of_its_lines(self, arr):
        ops = arr.ops
        for point, lines, pi in fr._two_point_frame(arr)[:2]:
            mons = fr.monomials(len(lines))
            assert all(not ops.is_zero(x) for x in pi.values())
            assert HPoly(len(lines), {mons[k]: to_field(ops, x)
                                      for k, x in pi.items()}) == \
                linear_product(ops, lines)

    @pytest.mark.parametrize("arr", [
        member("paper13", 3),
        _paper_quad_points()[0], grid(6)], ids=["a13", "a15-sqrt5", "grid24"])
    def test_each_restricted_product_is_built_once_per_frame(
            self, arr, monkeypatch):
        # Over a sweep of degrees up to top, in any order, a line and a
        # block of e <= top lines cost e binary products to restrict the
        # lines and top - e powers: top in all.  The rows equal those of a
        # fresh frame.
        ops, frame = arr.ops, fr._two_point_frame(arr)
        _, e2, e3 = arr.char_poly().exponents()
        top, calls = e3 + 1, []
        times_linear = fr._times_linear

        def spy(*args):
            calls.append(args)
            return times_linear(*args)
        shared = []
        for p in (e2, e3, *range(top + 1)):
            monkeypatch.setattr(fr, "_times_linear", spy)
            shared.append(fr._dh_system(ops, frame, p))
            monkeypatch.setattr(fr, "_times_linear", times_linear)
            assert shared[-1] == fr._dh_system(ops, fr._two_point_frame(arr),
                                               p)
        (_, lines1, _), (_, lines2, _), rest = frame
        pairs = sum(len(lines) <= top for lines in (lines1, lines2))
        assert len(calls) == top * pairs * len(rest)
        assert all(len(prods) == top + 1 - len(lines)
                   for _, _, both in rest
                   for prods, lines in zip(both, (lines1, lines2)))


def _unsettled(frame):
    """The frame with no zero known: each line writes all p + 1 rows."""
    first, second, rest = frame
    return first, second, [(col, (0, 0, 0), prods)
                           for col, _, prods in rest]


def _short_frame(arr, frame=fr._two_point_frame):
    """The two-point frame without its first line through neither point:
    the rows then miss that line, so some lift fails its exact check."""
    first, second, rest = frame(arr)
    return first, second, rest[1:]


def _bent_nullspace(rows, ncols, ops, nullspace=linalg.nullspace):
    """The kernel basis with one added at a pivot column of its first
    vector, which takes that vector out of the kernel."""
    basis = nullspace(rows, ncols, ops)
    if basis:
        free = {max(j for j, x in enumerate(v) if not ops.is_zero(x))
                for v in basis}
        j = min(set(range(ncols)) - free)
        v = basis[0]
        basis[0] = (*v[:j], ops.add(v[j], ops.one), *v[j + 1:])
    return basis


class TestDHSolve:
    @staticmethod
    def _check(arr, degrees):
        # the canonical nullspace basis of the full system, built by the
        # oracle, against the basis from the two-point kernel
        ops, cols = arr.ops, arr.ring_columns
        for p in degrees:
            full = linalg.nullspace(_old_constraint_rows(ops, cols, p),
                                    3 * len(fr.monomials(p)), ops)
            assert derivation_basis(arr, p) == [
                _vector_to_derivation(ops, _with_leading_one(ops, v), p)
                for v in full]

    def test_basis_equals_full_nullspace_on_small_corpus(self, small_corpus):
        for arr in small_corpus:
            self._check(arr, _degrees(arr))

    def test_basis_equals_full_nullspace_on_near_pencils(self):
        for n in range(4, 9):
            self._check(near_pencil(n), _degrees(near_pencil(n)))

    def test_basis_equals_full_nullspace_on_paper_members(self, a13, a15):
        for arr in (a13, a15, *_paper_quad_points()):
            self._check(arr, _degrees(arr))

    def test_basis_equals_full_nullspace_on_generic_lines(self):
        for arr in _generic_lines():
            assert all(len(f) == 2 for f in arr.lattice().flats)
            self._check(arr, _degrees(arr))

    def test_basis_equals_full_nullspace_on_grids(self):
        for arr in (grid(5), grid(7)):
            self._check(arr, _grid_degrees(arr))

    def test_full_system_is_never_eliminated(self, a13, monkeypatch):
        widths = []
        rref = linalg._rref_mod

        def spy(rows, ncols, p):
            widths.append(ncols)
            return rref(rows, ncols, p)

        monkeypatch.setattr(linalg, "_rref_mod", spy)
        verdict = decide_freeness(a13, use_cache=False)
        assert isinstance(verdict, Free) and verdict.exponents == (1, 6, 6)
        # the two-point frame of a13 has two quintuple points:
        # g1 and g2 have degree 6 - 4
        assert widths and set(widths) == {2 * comb(4, 2)}

    def test_32_line_grid_eliminates_the_two_point_width(self, monkeypatch):
        widths = []
        rref = linalg._rref_mod

        def spy(rows, ncols, p):
            widths.append(ncols)
            return rref(rows, ncols, p)

        monkeypatch.setattr(linalg, "_rref_mod", spy)
        arr = grid(8)
        assert arr.char_poly().exponents() == (1, 15, 16)
        derivation_basis(arr, 16)
        # H = x3, with points of 16 and 9 lines: g1, g2 of degree 1 and 8
        assert widths and set(widths) == {comb(3, 2) + comb(10, 2)}

    @pytest.mark.parametrize("arr", [
        member("paper13", 3),
        _paper_quad_points()[0], grid(8)], ids=["a13", "sqrt5", "grid32"])
    def test_full_system_is_never_built(self, arr, monkeypatch):
        widths, solved = [], []
        rows_of = fr._hyperplane_rows

        def rows_spy(ops, alpha, blocks, p, width, zeros):
            widths.append((p, width))
            return rows_of(ops, alpha, blocks, p, width, zeros)

        monkeypatch.setattr(fr, "_hyperplane_rows", rows_spy)
        for name in ("nullspace", "rank"):
            def spy(rows, ncols, ops, name=name,
                    solve=getattr(linalg, name)):
                solved.append((name, ncols, rows))
                return solve(rows, ncols, ops)
            monkeypatch.setattr(linalg, name, spy)
        _, e2, e3 = arr.char_poly().exponents()
        assert isinstance(decide_freeness(arr, use_cache=False), Free)
        for p in range(e2 + 1):
            derivation_space_dim(arr, p)
        assert widths and all(w < 3 * comb(p + 2, 2) for p, w in widths)
        ops, frame = arr.ops, fr._two_point_frame(arr)
        two_point = [fr._dh_system(ops, frame, p)[:2] for p in range(e3 + 1)]
        # (name, degree, columns removed): the e2 and e3 solves of
        # decide_freeness, then each rank of the sweep and its nullspace
        expected = [("nullspace", e2, 0)]
        if e3 > e2:
            expected.append(("nullspace", e3, comb(e3 - e2 + 2, 2)))
        expected += [(name, p, 0) for p in range(e2 + 1)
                     for name in ("rank", "nullspace")]
        assert len(solved) == len(expected)
        for (name, ncols, rows), (want, p, removed) in zip(solved, expected):
            full, width = two_point[p]
            assert name == want and ncols == width - removed
            # rows are the two-point rows at p with those columns removed
            kept = iter(zip(*full))
            assert len(rows) == len(full) and all(
                len(row) == ncols for row in rows) and all(
                column in kept for column in zip(*rows))

    @pytest.mark.parametrize("arr", [_paper_quad_points()[0], grid(8)],
                             ids=["sqrt5", "grid32"])
    def test_e3_solve_returns_one_vector(self, arr, monkeypatch):
        # the e3 kernel holds the C(e3 - e2 + 2, 2) shifts of g2 and one
        # more vector; with the columns m * LM(g2) fixed to zero, only the
        # one more is solved for
        solves = []
        nullspace = linalg.nullspace

        def spy(rows, ncols, ops):
            basis = nullspace(rows, ncols, ops)
            solves.append((ncols, len(basis)))
            return basis

        monkeypatch.setattr(linalg, "nullspace", spy)
        exps = arr.char_poly().exponents()
        assert exps in ((1, 5, 9), (1, 15, 16))
        _, e2, e3 = exps
        assert isinstance(decide_freeness(arr, use_cache=False), Free)
        ops, frame = arr.ops, fr._two_point_frame(arr)
        shifts = comb(e3 - e2 + 2, 2)
        assert solves == [(fr._dh_system(ops, frame, e2)[1], 1),
                          (fr._dh_system(ops, frame, e3)[1] - shifts, 1)]
        assert derivation_space_dim(arr, e3) == comb(e3 + 1, 2) + shifts + 1

    @pytest.mark.parametrize("arr", [
        member("paper13", 3),
        _paper_quad_points()[0]], ids=["a13", "sqrt5"])
    def test_frame_without_a_line_raises(self, arr, monkeypatch):
        monkeypatch.setattr(fr, "_two_point_frame", _short_frame)
        start = time.perf_counter()
        with pytest.raises(InvariantError):
            decide_freeness(arr, use_cache=False)
        assert time.perf_counter() - start < 5

    def test_frame_without_a_line_raises_on_the_nonfree_path(self,
                                                             monkeypatch):
        # non-free inputs end with their witness, yet their lifts are
        # tested first
        monkeypatch.setattr(fr, "_two_point_frame", _short_frame)
        arrs = _nonfree_split()
        assert len(arrs) == 70
        for arr in arrs:
            with pytest.raises(InvariantError):
                decide_freeness(arr, use_cache=False)
        for arr in arrs[:5]:
            with pytest.raises(InvariantError):
                derivation_basis(arr, arr.char_poly().exponents()[1])

    @pytest.mark.parametrize("claim,expect", [
        (lambda arr, zs: (zs[0] + 1, *zs[1:]), "either"),
        (lambda arr, zs: (arr.n, 0, 0), "raise"),
        (lambda arr, zs: _one_fewer(zs), "same")],
        ids=["one-too-many", "every-line-settled", "one-fewer"])
    def test_a_miscounted_zero_raises_or_agrees(self, claim, expect,
                                                 monkeypatch):
        # a miscounted zero drops rows (or writes rows the kernel already
        # satisfies): the kernel can only grow, and a grown kernel's lifts
        # fail the membership pass, so no other answer is reached
        arrs = [member("paper13", 3),
                _paper_quad_points()[0], *_nonfree_split()]
        honest = [_answer(arr) for arr in arrs]
        assert InvariantError not in honest

        def frame(arr, real=fr._two_point_frame):
            first, second, rest = real(arr)
            return first, second, [(col, claim(arr, zs), prods)
                                   for col, zs, prods in rest]
        monkeypatch.setattr(fr, "_two_point_frame", frame)
        claimed = [_answer(arr) for arr in arrs]
        assert all(c in (h, InvariantError) for c, h in zip(claimed, honest))
        raised = claimed.count(InvariantError)
        # one zero too many drops a row that some kernels need, not all
        assert {"either": 0 < raised < len(arrs), "raise": raised == len(
            arrs), "same": claimed == honest}[expect]

    def test_negative_degree_raises(self):
        for probe in (derivation_basis, derivation_space_dim):
            with pytest.raises(ValueError, match="degree must be nonnegative"):
                probe(boolean3(), -1)


def _one_fewer(zeros):
    """One known zero fewer: an inner one if there is one, else one at an
    end of the line's parametrization."""
    z, u, v = zeros
    if z > u + v or not z:
        return max(z - 1, 0), u, v
    return (z - 1, 0, v) if u else (z - 1, u, 0)


def _answer(arr):
    """decide_freeness's verdict, with a Free one's certificate as text, or
    InvariantError."""
    try:
        verdict = decide_freeness(arr, use_cache=False)
    except InvariantError:
        return InvariantError
    if isinstance(verdict, Free):
        return verdict.exponents, certificate_to_text(verdict.certificate)
    return verdict


class TestKeptRows:
    """The rows a line's known zeros leave open have the kernel of all its
    rows (the lemma in _dh_system)."""

    def test_kept_and_full_rows_have_one_nullspace(self, small_corpus, a13,
                                                   a15):
        fam13, fam15 = map(mod.builtin_family, ("paper13", "paper15"))
        arrs = [*(arr for arr, _, _ in _nonfree_cases()),
                *_free_inputs(small_corpus, a13, a15),
                *(monomial(r, k) for r, k in ((3, 0), (3, 1), (4, 0),
                                              (4, 1), (6, 0), (6, 2))),
                h3(), *map(grid, range(2, 9)), *_paper_quad_points(),
                *(mod.specialize(f, t).arrangement for f in (fam13, fam15)
                  for t in (3, -1, Fraction(5, 7)))]
        assert len(arrs) == 270 + 15 + 7 + 7 + 2 + 6
        kept_rows = full_rows = 0
        for arr in arrs:
            ops, frame = arr.ops, fr._two_point_frame(arr)
            for p in range(arr.char_poly().exponents()[2] + 2):
                kept, width, _ = fr._dh_system(ops, frame, p)
                full = fr._dh_system(ops, _unsettled(frame), p)[0]
                assert linalg.nullspace(kept, width, ops) == \
                    linalg.nullspace(full, width, ops)
                kept_rows += len(kept)
                full_rows += len(full)
        assert kept_rows < full_rows / 2

    @pytest.mark.parametrize("arr,counts", [
        (member("paper13", 3), {6: (16, 28)}),
        (grid(8), {15: (57, 128), 16: (65, 136)})], ids=["a13", "grid32"])
    def test_kept_row_totals(self, arr, counts):
        # (kept, full) rows at e2 and e3: a change that writes full blocks
        # again fails here
        ops, frame = arr.ops, fr._two_point_frame(arr)
        _, e2, e3 = arr.char_poly().exponents()
        assert {p: (len(fr._dh_system(ops, frame, p)[0]),
                    len(fr._dh_system(ops, _unsettled(frame), p)[0]))
                for p in (e2, e3)} == counts


# -- the complements against field reduction of the canonical basis --------

def _derivation_vector(ops, deriv: Derivation, p: int) -> dict:
    """Sparse coefficient vector {index: nonzero coefficient} of a degree-p
    derivation, over the field of ops."""
    idx = {m: i for i, m in enumerate(fr.monomials(p))}
    return {c * len(idx) + idx[m]: co
            for c, poly in enumerate(hpolys(ops, deriv))
            for m, co in poly.coeffs.items()}


def _poly_multiple_vectors(ops, deriv: Derivation, p: int):
    """Sparse vectors of m * deriv for all monomials m of degree
    p - deriv.pdeg, over the field of ops."""
    idx = {m: i for i, m in enumerate(fr.monomials(p))}
    return [{c * len(idx) + idx[(mm[0] + m[0], mm[1] + m[1], mm[2] + m[2])]:
             co
             for c, poly in enumerate(hpolys(ops, deriv))
             for mm, co in poly.coeffs.items()}
            for m in fr.monomials(p - deriv.pdeg)]


class _FieldReducer:
    """Incremental row reduction over a field.  Rows are sparse
    {index: nonzero value}, keyed by their pivot, the first index a row
    holds, where the value is one."""

    def __init__(self):
        self.rows = {}

    def reduce(self, vec: dict) -> dict:
        v = dict(vec)
        for piv in sorted(self.rows):
            coef = v.get(piv)
            if coef:
                for j, x in self.rows[piv].items():
                    y = v.get(j)
                    y = -coef * x if y is None else y - coef * x
                    if y:
                        v[j] = y
                    else:
                        del v[j]
        return v

    def add(self, vec: dict):
        v = self.reduce(vec)
        if v:
            inv = 1 / v[min(v)]
            self.rows[min(v)] = {j: x * inv for j, x in v.items()}


def _field_complement(ops, p, others, lifts):
    """_first_complement in field arithmetic (_FieldReducer), with no
    linalg: (the first row of the reduced echelon of the lifts modulo W on
    last columns, reduced modulo W on first columns; the other rows, each
    one at its pivot), as {column: field element}."""
    def keyed(vec, sign):
        return {sign * j: to_field(ops, x) for j, x in vec.items()}
    euler = fr._shifts({4 * a: ops.one for a in range(3)}, 1, p)
    last, first, lifted = _FieldReducer(), _FieldReducer(), _FieldReducer()
    for v in euler + [v for d, th in others for v in fr._shifts(th, d, p)]:
        last.add(keyed(v, -1))
        first.add(keyed(v, 1))
    for v in lifts:
        lifted.add(last.reduce(keyed(v, -1)))
    rows = []
    for key in sorted(lifted.rows, reverse=True):   # least last column first
        red = _FieldReducer()
        red.rows = {k: row for k, row in lifted.rows.items() if k != key}
        rows.append({-j: x for j, x in red.reduce(lifted.rows[key]).items()})
    return first.reduce(rows[0]), rows[1:]


def _field_first_complement(p, theta_e, others, basis, ops):
    """First derivation of basis outside S*theta_E + S*others, reduced in
    field arithmetic modulo that span, or None."""
    red = _FieldReducer()
    for g in (theta_e, *others):
        for v in _poly_multiple_vectors(ops, g, p):
            red.add(v)
    for b in basis:
        r = red.reduce(_derivation_vector(ops, b, p))
        if r:
            zero = ops.field(0)
            return _vector_to_derivation(
                ops, [r.get(j, zero) for j in range(3 * len(fr.monomials(p)))],
                p)
    return None


def _field_certificate(arr) -> SaitoCertificate:
    """The Saito certificate picked in field arithmetic from the public
    derivation_basis."""
    _, e2, e3 = arr.char_poly().exponents()
    theta_e = euler_derivation(arr)
    th2 = _field_first_complement(e2, theta_e, (), derivation_basis(arr, e2),
                                  arr.ops)
    th3 = _field_first_complement(e3, theta_e, (th2,),
                                  derivation_basis(arr, e3), arr.ops)
    return SaitoCertificate((theta_e, th2, th3),
                            saito_check(arr, theta_e, th2, th3))


class TestComplementsAgainstFieldReduction:
    """The complements chosen on exact ring rows are, byte for byte, those
    that field reduction of the canonical basis chooses."""

    @staticmethod
    def _check(arrs):
        assert arrs
        for arr in arrs:
            verdict = decide_freeness(arr, use_cache=False)
            assert isinstance(verdict, Free)
            assert certificate_to_text(verdict.certificate) == \
                certificate_to_text(_field_certificate(arr))

    def test_free_members_of_small_corpus(self, small_corpus):
        self._check([arr for arr in small_corpus
                     if isinstance(decide_freeness(arr), Free)])

    def test_near_pencils_and_grids(self):
        self._check([near_pencil(n) for n in range(4, 9)]
                    + [grid(k) for k in range(2, 7)])

    def test_paper_members(self, a13, a15):
        self._check([a13, a15, *_paper_quad_points()])


def _full_dim(arr, p):
    ops, cols = arr.ops, arr.ring_columns
    ncols = 3 * len(fr.monomials(p))
    return ncols - linalg.rank(_old_constraint_rows(ops, cols, p), ncols, ops)


# The 70 inputs among 7-16 lines with coordinates in [-2, 2], drawn with
# random.Random(777) (n = randint(7, 16), then columns until n distinct
# lines, kept when chi splits, 200 kept), that are not free.  A column is
# three digits, each coordinate plus 2.
NONFREE_SPLIT = (
    "003 421 431 042 101 043 242",
    "003 232 201 214 223 203 102 041 204",
    "312 210 221 203 230 000 212",
    "200 411 311 032 301 022 144",
    "400 040 041 102 132 430 223",
    "204 202 211 401 120 230 234",
    "321 442 220 431 312 200 310 014 343",
    "232 022 303 414 323 343 044",
    "322 324 304 010 121 421 220",
    "312 423 424 124 012 221 024",
    "122 332 320 323 310 324 421",
    "041 224 002 210 242 200 231",
    "401 320 000 130 224 313 134",
    "313 441 424 124 221 420 421",
    "041 332 330 223 004 443 303",
    "342 332 400 022 232 032 030",
    "012 412 200 422 002 424 212",
    "431 000 322 114 411 244 100",
    "142 211 220 232 204 320 040 241 210",
    "120 022 320 004 323 024 403",
    "021 020 022 120 212 341 124",
    "442 102 322 010 142 201 232",
    "034 140 003 420 014 212 113",
    "102 433 314 323 420 341 002",
    "422 421 423 333 214 120 424",
    "004 142 334 333 114 221 012",
    "413 223 021 324 024 101 020",
    "340 101 241 304 313 022 004",
    "431 242 014 034 341 440 302",
    "000 344 433 204 411 004 124 133 022",
    "320 202 211 013 220 231 203",
    "344 223 121 021 331 422 324",
    "032 023 122 320 420 030 120",
    "132 204 404 412 002 142 202",
    "321 233 021 323 102 221 421",
    "122 302 112 042 242 420 000",
    "341 301 014 444 123 331 203",
    "432 104 404 413 440 322 023",
    "133 131 220 314 403 210 423",
    "433 122 444 100 340 200 030",
    "113 001 330 003 340 110 210",
    "043 320 421 002 020 220 021",
    "331 420 122 140 441 204 131",
    "313 434 413 322 340 431 100",
    "201 200 042 331 221 240 230",
    "030 433 424 303 233 010 232",
    "342 212 241 300 230 221 231",
    "424 413 303 232 333 201 343",
    "014 120 202 004 034 420 041",
    "203 211 402 210 243 220 022",
    "210 304 214 240 241 021 232",
    "213 224 232 214 420 014 211 042 210 203 412",
    "103 242 010 430 133 440 422",
    "113 344 341 123 410 302 242",
    "223 231 440 211 124 324 321 424 023",
    "341 224 342 142 344 343 244",
    "201 124 313 434 212 333 303",
    "311 234 221 041 302 310 312",
    "442 111 114 110 320 321 113",
    "201 042 142 032 241 122 440 242 332",
    "234 434 310 122 320 034 102",
    "331 141 232 414 323 224 131",
    "000 331 102 001 223 042 110",
    "013 330 031 004 304 044 240",
    "210 330 042 401 123 213 141",
    "210 202 240 140 421 230 244",
    "340 113 403 044 022 413 213",
    "224 012 322 131 424 420 324",
    "044 322 034 103 232 000 101 123 331",
    "024 200 213 201 221 301 203",
)


def _nonfree_split():
    return [rational_arrangement(*(tuple(int(d) - 2 for d in col)
                                   for col in line.split()))
            for line in NONFREE_SPLIT]


class TestDimensionSweep:
    def test_dh_dim_equals_full_rank_on_small_corpus(self, small_corpus):
        for arr in small_corpus:
            for p in _degrees(arr):
                assert derivation_space_dim(arr, p) == _full_dim(arr, p)

    def test_dh_dim_equals_full_rank_on_edge_inputs(self):
        for arr in (*_generic_lines(), *map(near_pencil, range(4, 9)),
                    _paper_quad_points()[0]):
            for p in _degrees(arr):
                assert derivation_space_dim(arr, p) == _full_dim(arr, p)
        for arr in (grid(5), grid(7)):
            for p in _grid_degrees(arr):
                assert derivation_space_dim(arr, p) == _full_dim(arr, p)

    def test_dh_dim_equals_full_rank_on_nonfree_split_inputs(self):
        arrs = _nonfree_split()
        assert len(arrs) == 70
        for arr in arrs:
            verdict = decide_freeness(arr, use_cache=False)
            assert verdict.reason == "GradedDimensionMismatch"
            for p in _degrees(arr):
                assert derivation_space_dim(arr, p) == _full_dim(arr, p)


def _mdr(arr):
    """r, the least degree of D_H(A): the least p whose dimension of D(A)_p
    exceeds C(p+1, 2), that of S_(p-1) theta_E."""
    p = 0
    while derivation_space_dim(arr, p) == comb(p + 1, 2):
        p += 1
    return p


@lru_cache(maxsize=None)
def _nonfree_cases():
    """(arr, e2, r) for the NONFREE_SPLIT inputs and 200 more: subsets of
    6-15 lines of grid(5), drawn with random.Random(16), kept when chi
    splits and r != e2.  A free module has r = e2, its least generator
    degree beyond theta_E, so those 200 are not free."""
    cases = [(arr, arr.char_poly().exponents()[1], _mdr(arr))
             for arr in _nonfree_split()]
    pool = field_columns(grid(5))
    rng = random.Random(16)
    drawn = 0
    while drawn < 200:
        try:
            arr = am.build(rng.sample(pool, rng.randint(6, 15)), QQ)
        except am.ArrangementError:
            continue
        exps = arr.char_poly().exponents()
        if exps is not None and (r := _mdr(arr)) != exps[1]:
            cases.append((arr, exps[1], r))
            drawn += 1
    return cases


@lru_cache(maxsize=None)
def _nonfree_decisions():
    """(arr, e2, r, verdict, calls) for each of _nonfree_cases(), each
    decided once per session without the cache; calls lists the
    (name, degree) of each _dh_system, _first_complement and
    derivation_space_dim call the decision made."""
    out, cases = [], _nonfree_cases()
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_dh_system", "_first_complement",
                     "derivation_space_dim"):
            def recorder(*args, name=name, fn=getattr(fr, name)):
                calls.append((name, args[2 if name == "_dh_system" else 1]))
                return fn(*args)
            mp.setattr(fr, name, recorder)
        for arr, e2, r in cases:
            calls = []
            out.append((arr, e2, r, decide_freeness(arr, use_cache=False),
                        calls))
    return out


def _free_inputs(small_corpus, a13, a15):
    """The 15 free members of the corpus, pencils, grids and paper cases."""
    arrs = (*small_corpus, *map(near_pencil, range(4, 9)),
            *map(grid, range(2, 6)), a13, a15, *_paper_quad_points())
    free = [arr for arr in arrs if isinstance(decide_freeness(arr), Free)]
    assert len(free) == 15
    return free


def _e2_kernel_size(arr):
    """dim D_H(A)_(e2), the oracle's count of the kernel at e2."""
    e2 = arr.char_poly().exponents()[1]
    return derivation_space_dim(arr, e2) - comb(e2 + 1, 2)


class TestWitnessTheorem:
    """du Plessis-Wall and Dimca: A is free iff tau = (n-1)^2 - r(n-1-r),
    so a non-free A has r < e2 or r > e3, and dim D_H(A)_(e2) decides
    freeness (see decide_freeness)."""

    def test_witness_is_at_e2(self):
        cases = _nonfree_decisions()
        assert len(cases) == 270
        for arr, e2, _, verdict, _ in cases:
            exps = arr.char_poly().exponents()
            assert verdict == NotFree("GradedDimensionMismatch", (
                e2, expected_graded_dim(exps, e2),
                derivation_space_dim(arr, e2)))
            assert verdict.detail[1] != verdict.detail[2]

    def test_free_iff_the_e2_kernel_has_a_free_count(self, small_corpus,
                                                      a13, a15):
        free = _free_inputs(small_corpus, a13, a15)
        for arr, verdict in ([(arr, decide_freeness(arr)) for arr in free]
                             + [(arr, verdict) for arr, _, _, verdict, _
                                in _nonfree_decisions()]):
            _, e2, e3 = arr.char_poly().exponents()
            assert isinstance(verdict, Free) == (
                _e2_kernel_size(arr) == 1 + (e3 == e2))

    def test_no_e3_solve_when_the_e2_kernel_is_not_one_vector(self):
        # a non-free A, e2 = e3 included, has dim D_H(A)_(e2) = 0 or at
        # least C(e2 - r + 2, 2) = 3, never the free count 1 + (e3 = e2),
        # so decide_freeness solves at e2 only and builds no complement;
        # at e2 < e3 the dense system checks the witness too
        cases = _nonfree_decisions()
        distinct = [case for case in cases
                    if len(set(case[0].char_poly().exponents())) == 3]
        assert len(distinct) >= 20 and len(distinct) < len(cases)
        for arr, e2, _, _, calls in cases:
            assert calls == [("_dh_system", e2)]
        for arr, e2, _, verdict, _ in distinct:
            assert verdict.detail[2] == _full_dim(arr, e2)

    def test_free_inputs_have_r_equal_e2(self, small_corpus, a13, a15):
        free = _free_inputs(small_corpus, a13, a15)
        for arr in free:
            assert _mdr(arr) == arr.char_poly().exponents()[1]

    def test_sweep_never_passes_e2(self):
        # there is no sweep: decide_freeness never calls
        # derivation_space_dim
        for *_, calls in _nonfree_decisions():
            assert "derivation_space_dim" not in {name for name, _ in calls}

    def test_free_dimensions_after_a_failed_saito_step_raise(self, a13,
                                                             monkeypatch):
        with monkeypatch.context() as mp:
            mp.setattr(fr, "_saito_constant", lambda arr, ths: None)
            with pytest.raises(InvariantError, match="Saito step failed"):
                decide_freeness(a13, use_cache=False)
        # a non-free input whose e2 kernel is cut to the free count fails
        # its Saito step, as it must by Saito's criterion
        arr = _nonfree_split()[0]
        _, e2, e3 = arr.char_poly().exponents()
        lifts = fr._lifts

        def cut(ops, frame, p, lead=None):
            out, leads = lifts(ops, frame, p, lead)
            k = len(out) if p != e2 else 1 + (e3 == e2)
            return out[:k], leads[:k]

        assert _e2_kernel_size(arr) > 1 + (e3 == e2)
        monkeypatch.setattr(fr, "_lifts", cut)
        with pytest.raises(InvariantError, match="Saito step failed"):
            decide_freeness(arr, use_cache=False)


def _field_saito(arr, th1, th2, th3):
    """Saito's identity in field arithmetic, as checked before: the oracle."""
    det = poly_det3([hpolys(arr.ops, t) for t in (th1, th2, th3)])
    if not det:
        return None
    q = defining_polynomial(arr)
    m0, qc = next(iter(q.coeffs.items()))
    dc = det.coeffs.get(m0)
    if not dc:
        return None
    c = dc / qc
    return c if det == poly_scale(q, c) else None


class TestIntegralSaito:
    def test_stray_monomial_fails(self):
        # det = x1 x2 (2 x3 + x1/3) = 2Q plus the stray monomial x1^2 x2 / 3
        arr = boolean3()
        x1, x3 = (1, 0, 0), (0, 0, 1)
        stray = to_derivation(QQ, (HPoly(1), HPoly(1), HPoly(1, {
            x3: Fraction(2), x1: Fraction(1, 3)})), 1)
        th1, th2 = _diag_derivation(0), _diag_derivation(1)
        assert saito_check(arr, th1, th2, stray) is None
        scaled = to_derivation(QQ, [poly_scale(f, Fraction(2, 7)) for f in
                                    hpolys(QQ, _diag_derivation(2))], 1)
        assert saito_check(arr, th1, th2, scaled) == Fraction(2, 7)

    def test_zero_determinant_fails(self):
        arr = boolean3()
        zero = Derivation(1, 1, {})
        assert saito_check(arr, _diag_derivation(0), _diag_derivation(1),
                           zero) is None

    def test_quadratic_identity_stays_integral(self, monkeypatch, a13):
        # saito_check computes over Z or Z[sqrt d]: no Fraction or QuadElem
        # arithmetic at all, the constant's included
        arrs = [*_paper_quad_points(), a13]
        certs = [decide_freeness(arr, use_cache=False).certificate
                 for arr in arrs]
        calls = []
        for cls in (Fraction, QuadElem):
            for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                         "__mul__", "__rmul__", "__truediv__",
                         "__rtruediv__", "__neg__"):
                def spy(*args, name=f"{cls.__name__}.{name}",
                        method=getattr(cls, name)):
                    calls.append(name)
                    return method(*args)
                monkeypatch.setattr(cls, name, spy)
        for arr, cert in zip(arrs, certs):
            assert saito_check(arr, *cert.derivations) == cert.constant
        assert calls == []
        # the spies do see field arithmetic
        omega = QuadElem(5, Fraction(3, 2), Fraction(1, 2))
        assert omega * omega == 3 * omega - 1
        assert {"QuadElem.__mul__", "Fraction.__mul__"} <= set(calls)

    def test_constant_matches_field_identity(self, a13):
        rng = random.Random(12)
        scaled = am.build([tuple(Fraction(rng.choice((-3, 2, 5)),
                                          rng.randint(1, 6)) * x for x in c)
                           for c in field_columns(near_pencil(6))], QQ)
        quad = _paper_quad_points()[0]
        # irrational factors give ring columns that are not rational
        # multiples of quad's
        root5 = QuadElem(5, 0, 1)
        factors = [(1 + root5) / 2, 1 + root5, Fraction(-3, 5), 2 * root5]
        lams = [factors[i % 4] for i in range(quad.n)]
        rescaled = am.build([tuple(lam * x for x in c) for lam, c in zip(
            lams, field_columns(quad))], quad.ops)
        assert rescaled.ring_columns != quad.ring_columns
        assert sum(s != (1, 1) for s in rescaled.scales) == 9
        cert = decide_freeness(quad, use_cache=False).certificate
        assert saito_check(rescaled, *cert.derivations) * prod(lams) == \
            cert.constant
        for arr, rounds in ((scaled, 6), (a13, 6), (quad, 2), (rescaled, 2)):
            _, e2, e3 = arr.char_poly().exponents()
            theta_e = euler_derivation(arr)
            b2, b3 = derivation_basis(arr, e2), derivation_basis(arr, e3)
            hits = 0
            for _ in range(rounds):
                th2 = _random_combination(arr.ops, b2, e2, rng)
                th3 = _random_combination(arr.ops, b3, e3, rng)
                c = saito_check(arr, theta_e, th2, th3)
                assert c == _field_saito(arr, theta_e, th2, th3)
                hits += c is not None
                # a non-member in place of th3 breaks the identity
                f1, *rest = hpolys(arr.ops, th3)
                off = to_derivation(arr.ops, (poly_add(f1, HPoly(
                    e3, {(e3, 0, 0): arr.ops.field(1)})), *rest), e3)
                assert saito_check(arr, theta_e, th2, off) == \
                    _field_saito(arr, theta_e, th2, off)
            assert hits


# -- the evaluation checks against the coefficient oracles ------------------

def _form(ops, vec, alpha, p: int) -> dict:
    """theta(alpha) for the degree-p theta with coefficient vector vec."""
    mons = fr.monomials(p)
    out = {}
    for j, x in vec.items():
        c, i = divmod(j, len(mons))
        linalg.add_multiple(ops, out, alpha[c], {mons[i]: x})
    return out


def _passes(ops, alpha, vec, p: int) -> bool:
    """Does _tangent accept vec on the one line alpha?"""
    return fr._tangent(ops, [alpha], [(p, vec)])


def _evaluation_points():
    return [*_paper_quad_points(), member("paper13", 3), member("paper15", 3)]


def _saito_trials(arr, rng, rounds: int):
    """theta_E with basis members and random combinations of degrees e2
    and e3, and, for a free input, its certificate and a non-member in
    place of its theta_3."""
    _, e2, e3 = arr.char_poly().exponents()
    theta_e = euler_derivation(arr)
    b2, b3 = derivation_basis(arr, e2), derivation_basis(arr, e3)
    trials = [(theta_e, b2[0], b3[-1]), (theta_e, b2[-1], b3[0])]
    trials += [(theta_e, _random_combination(arr.ops, b2, e2, rng),
                _random_combination(arr.ops, b3, e3, rng))
               for _ in range(rounds)]
    verdict = decide_freeness(arr, use_cache=False)
    if isinstance(verdict, Free):
        th1, th2, th3 = verdict.certificate.derivations
        f1, *rest = hpolys(arr.ops, th3)
        off = to_derivation(arr.ops, (poly_add(f1, HPoly(
            e3, {(e3 - 1, 1, 0): arr.ops.field(1)})), *rest), e3)
        trials += [(th1, th2, th3), (th1, th2, off)]
    return trials


class TestEvaluationChecks:
    """_tangent and saito_check evaluate at one point; the Horner
    restriction and the coefficient-by-coefficient comparison that they
    replaced (conftest) are the oracles."""

    @staticmethod
    def _tangent_matches_horner(arr, degrees):
        ops, cols = arr.ops, arr.ring_columns
        for p in degrees:
            nm = len(fr.monomials(p))
            # the canonical rows over the ring of ops
            rows = [th.vec for th in derivation_basis(arr, p)]
            assert fr._tangent(ops, cols, [(p, vec) for vec in rows])
            # each row, and it plus one monomial in f1, f2 or f3: a line
            # with alpha_c = 0 still accepts the latter
            for vec in rows[:2]:
                for bent in (vec, *({**vec, j: ops.add(vec.get(j, ops.zero),
                                                       ops.one)}
                                    for j in (0, nm + nm // 2, 3 * nm - 1))):
                    for alpha in cols:
                        assert _passes(ops, alpha, bent, p) == \
                            restricts_to_zero(ops, alpha,
                                              _form(ops, bent, alpha, p), p)

    def test_membership_matches_horner_on_the_small_corpus(self,
                                                           small_corpus):
        for arr in small_corpus:
            self._tangent_matches_horner(arr, _degrees(arr))

    def test_membership_matches_horner_on_nonfree_split(self):
        for arr in _nonfree_split():
            self._tangent_matches_horner(arr, _degrees(arr))

    def test_membership_matches_horner_on_paper_points(self):
        for arr in _evaluation_points():
            self._tangent_matches_horner(arr, _degrees(arr))

    @pytest.mark.parametrize("d", [-3, -1, 5])
    def test_membership_matches_horner_over_quadratic_rings(self, d):
        arr = _quad_image(field_columns(grid(2)), d)
        self._tangent_matches_horner(arr, _degrees(arr))

    @pytest.mark.parametrize("p", [0, 1])
    def test_low_degrees_match_horner(self, p):
        # x^m D_c, with D_1, D_2, D_3 at p = 0, against lines with zero
        # entries and without, one line per call and all lines in one call
        for arr in (boolean3(), near_pencil(5), _quad_image(GENERIC7, -1)):
            ops, cols = arr.ops, arr.ring_columns
            for j in range(3 * len(fr.monomials(p))):
                vec = {j: ops.one}
                tangent = [restricts_to_zero(ops, alpha, _form(
                    ops, vec, alpha, p), p) for alpha in cols]
                assert [_passes(ops, alpha, vec, p)
                        for alpha in cols] == tangent
                assert fr._tangent(ops, cols, [(p, vec)]) == all(tangent)

    def test_one_call_across_line_heights(self):
        """Lines of height 1 and about 10^6 in one call: B comes from the
        tall line, and a short line still rejects a non-member."""
        tall = (1, 10 ** 6, 3)
        arr = rational_arrangement((1, 0, 0), (0, 1, 0), (0, 0, 1),
                                   (1, 1, 1), tall)
        ops, cols = arr.ops, arr.ring_columns
        assert tall in cols
        for p in range(1, 4):
            mons = fr.monomials(p)
            # alpha_tall x2^(p-1) D1 is tangent to the tall line only among
            # the lines with alpha_1 != 0
            along = {mons.index((m[0], m[1] + p - 1, m[2])): a
                     for m, a in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), tall)}
            rows = [th.vec for th in derivation_basis(arr, p)]
            for vec in (along, *rows, *({**vec, 0: vec.get(0, 0) + 1}
                                        for vec in rows)):
                tangent = [restricts_to_zero(ops, alpha, _form(
                    ops, vec, alpha, p), p) for alpha in cols]
                assert fr._tangent(ops, cols, [(p, vec)]) == all(tangent)
            assert fr._tangent(ops, [tall], [(p, along)])
            assert not fr._tangent(ops, cols, [(p, along)])

    @staticmethod
    def _bent(ops, vec):
        """vec plus x1^p D1, column 0."""
        return {**vec, 0: ops.add(vec.get(0, ops.zero), ops.one)}

    @pytest.mark.parametrize("arr", [
        member("paper13", 3),
        _paper_quad_points()[0]], ids=["a13", "sqrt5"])
    def test_a_stack_with_a_non_member_fails(self, arr):
        # one call on members and a non-member of one degree, in any place
        ops, cols = arr.ops, arr.ring_columns
        for p in arr.char_poly().exponents()[1:]:
            rows = [th.vec for th in derivation_basis(arr, p)]
            off = self._bent(ops, rows[-1])
            assert fr._tangent(ops, cols, [(p, vec) for vec in rows])
            assert not fr._tangent(ops, cols, [(p, off)])
            for k in range(len(rows) + 1):
                stack = [*rows[:k], off, *rows[k:]]
                assert not fr._tangent(ops, cols, [(p, v) for v in stack])

    @pytest.mark.parametrize("p", [0, 1, 3])
    def test_a_shifted_negative_at_a_tight_bound_fails(self, p):
        # theta_1 = x2^p D1 restricts to s^p on x1 = 0, where M = 1 is
        # tight; the stack of theta_0 = -2^s theta_1 and theta_1 has M =
        # 2^s, and would cancel at a base of 2^s, one bit below the 2^(s+1)
        # that M needs
        one = {fr._column(p, 0, (0, p, 0)): 1}
        for s in range(70):
            zero = {j: -x << s for j, x in one.items()}
            for stack in ([zero, one], [one, zero], [one, zero, one]):
                assert not fr._tangent(IntOps, [(1, 0, 0)],
                                       [(p, vec) for vec in stack])

    @pytest.mark.parametrize("arr", [
        member("paper13", 3),
        _paper_quad_points()[0]], ids=["a13", "sqrt5"])
    def test_a_non_member_and_its_shifted_negative_fail(self, arr):
        # theta_0 = -2^s theta_1 would cancel in a stack whose base were
        # 2^s: s runs over every shift up to past the one M gives theta_1
        ops, cols = arr.ops, arr.ring_columns
        _, p, _ = arr.char_poly().exponents()
        one = self._bent(ops, derivation_basis(arr, p)[0].vec)
        reach = max(fr._height(ops, alpha) for alpha in cols)
        bound = ((abs(ops.d) * reach) ** (p + 1)
                 * fr._height(ops, one.values())).bit_length()
        assert not fr._tangent(ops, cols, [(p, one)])
        for s in range(bound + 3):
            zero = {j: ops.neg(ops.scale(x, 1 << s)) for j, x in one.items()}
            assert not fr._tangent(ops, cols, [(p, zero), (p, one)])
            assert not fr._tangent(ops, cols, [(p, one), (p, zero)])

    def test_one_call_on_a_solve_is_each_call_anded(self, monkeypatch):
        # on the freeness_stream jobs, the derivations each solve tests,
        # and those with one of them bent: one call answers as the calls
        # on each do together
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                        / "perfbench"))
        solves, tangent = [], fr._tangent

        def spy(ops, cols, thetas):
            solves.append((ops, cols, list(thetas)))
            return tangent(ops, cols, thetas)
        monkeypatch.setattr(fr, "_tangent", spy)
        for arr in _stream_inputs():
            decide_freeness(arr, use_cache=False)
        monkeypatch.undo()
        assert len(solves) >= 30
        answers = set()
        for ops, cols, thetas in solves:
            for k in range(-1, len(thetas)):
                stack = [(p, self._bent(ops, vec) if t == k else vec)
                         for t, (p, vec) in enumerate(thetas)]
                each = all(fr._tangent(ops, cols, [th]) for th in stack)
                assert fr._tangent(ops, cols, stack) == each
                answers.add(each)
        assert answers == {True, False}

    def test_saito_matches_coefficients(self, small_corpus):
        rng = random.Random(19)
        arrs = [arr for arr in (*small_corpus, *_nonfree_split(),
                                *_evaluation_points(),
                                *map(near_pencil, range(4, 9)),
                                *map(grid, range(2, 5)))
                if arr.char_poly().exponents()]
        hits = []
        for arr, ths in [*((arr, ths) for arr in arrs
                           for ths in _saito_trials(arr, rng, 2)),
                         _grid2_forgery()]:
            # Saito's criterion: det = c * Q, c != 0, and all are members
            want = saito_by_coefficients(arr, *ths)
            if want is not None and not all(is_member(arr, th)
                                            for th in ths):
                want = None
            c = saito_check(arr, *ths)
            assert c == want
            hits.append(c is not None)
        free = sum(isinstance(decide_freeness(arr), Free) for arr in arrs)
        assert sum(hits) >= free >= 12 and not all(hits)

    def test_saito_matches_coefficients_on_the_integral_cases(self):
        arr = boolean3()
        diag = [_diag_derivation(i) for i in range(3)]
        x1, x3 = (1, 0, 0), (0, 0, 1)
        stray = to_derivation(QQ, (HPoly(1), HPoly(1), HPoly(1, {
            x3: Fraction(2), x1: Fraction(1, 3)})), 1)
        scaled = to_derivation(QQ, [poly_scale(f, Fraction(2, 7))
                                    for f in hpolys(QQ, diag[2])], 1)
        zero = Derivation(1, 1, {})
        for ths in ((*diag[:2], stray), (*diag[:2], scaled),
                    (*diag[:2], zero), (diag[0], diag[0], diag[2]), diag):
            assert saito_check(arr, *ths) == saito_by_coefficients(arr, *ths)

    @pytest.mark.parametrize("ops,alpha", [
        (IntOps, (1, 0, 0)), (IntOps, (1, -7, 5)), (IntOps, (1, 0, 9)),
        (QuadOps(5), ((1, 0), (3, -2), (0, 4))),
        (QuadOps(-1), ((1, 0), (0, 0), (-2, 1)))])
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_a_root_at_a_smaller_base_still_fails(self, ops, alpha, p):
        # theta = F(x_j, x_k) D_i0 restricts to F(s, r) = u s^(p-1)
        # (s - b r), which vanishes at B = b: the largest coefficient, where
        # a bound without its + 1 would evaluate
        i0, j, k = fr._axes(ops, alpha)
        mons = fr.monomials(p)
        for unit in (ops.one, (0, 1) if ops.parts == 2 else -1):
            for b in (1, 2, 9, 2 ** 40 + 3):
                lead, tail = [0, 0, 0], [0, 0, 0]
                lead[j], tail[j], tail[k] = p, p - 1, 1
                vec = {i0 * len(mons) + mons.index(tuple(lead)): unit,
                       i0 * len(mons) + mons.index(tuple(tail)):
                       ops.neg(ops.scale(unit, b))}
                assert _passes(ops, alpha, vec, p) is False
                assert not restricts_to_zero(ops, alpha,
                                             _form(ops, vec, alpha, p), p)

    def test_columns_follow_monomials_order(self):
        """_column(p, c, m) is m's place in monomials(p) in the block of
        f_(c+1), and _terms reads each column back."""
        for p in range(31):
            mons = fr.monomials(p)
            cols = [fr._column(p, c, m) for c in range(3) for m in mons]
            assert cols == list(range(3 * comb(p + 2, 2)))
            vec = dict(zip(cols, reversed(cols)))
            assert [(fr._column(p, c, m), x)
                    for c, m, x in fr._terms(p, vec)] == list(vec.items())

    def test_a_term_of_another_degree_raises(self, a13):
        # a vec index at or past 3 * len(monomials(pdeg)), or below 0, is
        # a term of no monomial of its degree
        th1, th2, th3 = decide_freeness(a13).certificate.derivations
        e2, e3 = th2.pdeg, th3.pdeg
        low = Derivation(e3, th3.den, {**th3.vec, -1: 1})
        high = Derivation(e2, th2.den,
                          {**th2.vec, 3 * len(fr.monomials(e2)): 1})
        for ths in ((th1, th2, low), (th1, high, th3)):
            with pytest.raises(fr.DegreeMismatchError):
                saito_check(a13, *ths)


def _stream_inputs():
    """The freeness_stream seed-1 jobs whose chi splits, as arrangements."""
    import gen     # perfbench/gen.py, on the path the caller set
    out = []
    for job in gen.make_jobs("freeness_stream", 1, 20):
        if job["chi_exponents"] is None:
            continue
        if job["ring"] == "QQ":
            out.append(rational_arrangement(*job["cols"]))
        else:
            dom = quad_field(job["ring"])
            out.append(am.build([tuple(QuadElem(job["ring"], x.a, x.b)
                                       for x in c) for c in job["cols"]],
                                dom))
    return out


class TestPerturbedKernel:
    def test_every_perturbed_kernel_vector_raises(self, monkeypatch):
        # the bent first kernel vector's lift misses a line
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                        / "perfbench"))
        arrs = _stream_inputs()
        assert len(arrs) >= 30
        assert {arr.ops.name for arr in arrs} >= {"QQ", "QQ(sqrt 6)",
                                                      "QQ(sqrt -1)"}
        monkeypatch.setattr(linalg, "nullspace", _bent_nullspace)
        for arr in arrs:
            with pytest.raises(InvariantError):
                decide_freeness(arr, use_cache=False)

    def test_a_perturbed_kernel_raises_on_the_nonfree_path(self,
                                                           monkeypatch):
        # every NONFREE_SPLIT input ends with its witness, after its one
        # check
        monkeypatch.setattr(linalg, "nullspace", _bent_nullspace)
        arrs = _nonfree_split()
        assert len(arrs) == 70
        for arr in arrs:
            with pytest.raises(InvariantError):
                decide_freeness(arr, use_cache=False)


def _certificate_lines():
    return certificate_to_text(
        decide_freeness(near_pencil(5)).certificate).splitlines()


class TestCertificateText:
    """Malformed certificate text raises InputError naming its line."""

    @staticmethod
    def _raises_at(lines, number):
        with pytest.raises(InputError, match=rf"^line {number}: "):
            certificate_from_text("\n".join(lines) + "\n")

    def test_first_line_not_the_header(self):
        lines = _certificate_lines()
        with pytest.raises(InputError, match="^not a saito certificate$"):
            certificate_from_text("\n".join(["saito certificate"]
                                             + lines[1:]) + "\n")

    def test_term_before_any_derivation(self):
        lines = _certificate_lines()
        self._raises_at(lines[:2] + ["term 1 1 0 0 rat 1"] + lines[2:], 3)

    @pytest.mark.parametrize("line, message", [
        ("term", "a term needs a component, three exponents and a scalar"),
        ("term 1 1 0", "no term ['1', '1', '0'] in a derivation of pdeg 1"),
        ("term 1 1 0 0", "expected one scalar, not ''")],
        ids=["bare", "short", "no-scalar"])
    def test_a_short_term_line(self, line, message):
        lines = _certificate_lines()
        first = lines.index("derivation 1 pdeg 1") + 1
        with pytest.raises(InputError) as info:
            certificate_from_text("\n".join(
                lines[:first] + [line] + lines[first + 1:]) + "\n")
        assert str(info.value) == f"line {first + 1}: {message}"

    @pytest.mark.parametrize("error", [ValueError, IndexError])
    def test_a_fault_in_the_reader_reaches_the_caller(self, monkeypatch,
                                                      error):
        """The reader prefixes a line number to InputError alone: an error
        of the program raised inside it is not a malformed line."""
        fault = error("injected fault")

        def read(tokens):
            raise fault
        text = certificate_to_text(decide_freeness(near_pencil(5)).certificate)
        monkeypatch.setattr(fr, "read_scalars", read)
        with pytest.raises(error) as info:
            certificate_from_text(text)
        assert info.value is fault

    def test_component_four(self):
        lines = _certificate_lines()
        first = lines.index("derivation 1 pdeg 1") + 1
        lines[first] = "term 4" + lines[first][len("term 1"):]
        self._raises_at(lines, first + 1)

    def test_missing_constant(self):
        lines = _certificate_lines()
        del lines[1]
        self._raises_at(lines, len(lines))

    def test_unknown_line(self):
        lines = _certificate_lines()
        self._raises_at(lines[:3] + ["weight 1 2"] + lines[3:], 4)

    def test_term_of_another_degree(self):
        lines = _certificate_lines()
        first = lines.index("derivation 1 pdeg 1") + 1
        c, *_, tag, value = lines[first].split()[1:]
        lines[first] = f"term {c} 2 0 0 {tag} {value}"
        self._raises_at(lines, first + 1)

    def test_repeated_term(self):
        """A second term for one (c, monomial) names its line: keeping
        the last would read the near-pencil's x1 D1 as 7 x1 D1."""
        lines = _certificate_lines()
        first = lines.index("derivation 1 pdeg 1") + 1
        assert lines[first] == "term 1 1 0 0 rat 1"
        self._raises_at(lines[:first + 1] + ["term 1 1 0 0 rat 7"]
                        + lines[first + 1:], first + 2)

    def test_trailing_tokens(self):
        lines = _certificate_lines()
        first = lines.index("derivation 1 pdeg 1") + 1
        for number, line in ((2, "c rat 35/5184 99 junk"),
                             (2, "c rat 1 rat 2"),
                             (first + 1, lines[first] + " 7")):
            self._raises_at(lines[:number - 1] + [line] + lines[number:],
                            number)

    def test_rationals_in_the_format_of_parse_rational(self):
        """An integer or a/b in ASCII digits, as --at reads them."""
        lines = _certificate_lines()
        first = lines.index("derivation 1 pdeg 1") + 1
        head = lines[first].rsplit(" ", 1)[0]
        for value in ("0.5", "1e0", "1_000", "\u0661", "1/\u0662"):
            self._raises_at(lines[:first] + [f"{head} {value}"]
                            + lines[first + 1:], first + 1)
        for line in ("c rat 0.5", "c quad 5 0.5 1", "c quad 5 1 1e0"):
            self._raises_at(lines[:1] + [line] + lines[2:], 2)

    def test_zero_denominator_names_the_token(self):
        lines = _certificate_lines()
        first = lines.index("derivation 1 pdeg 1") + 1
        head = lines[first].rsplit(" ", 1)[0]
        for number, line in ((2, "c rat 1/0"), (2, "c quad 5 1 3/0"),
                             (first + 1, f"{head} 7/0")):
            text = "\n".join(lines[:number - 1] + [line] + lines[number:])
            with pytest.raises(ValueError) as info:
                certificate_from_text(text + "\n")
            token = line.split()[-1]
            assert str(info.value) == (f"line {number}: zero denominator "
                                       f"in {token!r}")

    def test_integers_in_ascii_digits(self):
        """d, pdeg and the term indices as parse_integer reads them:
        int() alone takes other digits and underscores."""
        lines = _certificate_lines()
        for line in ("c quad \u0665 1 1", "c quad 1_3 1 1"):
            self._raises_at(lines[:1] + [line] + lines[2:], 2)
        first = lines.index("derivation 1 pdeg 1")
        tail = lines[first + 1].split(" ", 2)[2]
        for number, line in ((first + 1, "derivation 1 pdeg \u0661"),
                             (first + 2, f"term \u0661 {tail}")):
            self._raises_at(lines[:number - 1] + [line] + lines[number:],
                            number)

    def test_term_outside_the_field_of_c(self):
        """A term in another field than c names its line; saito_check
        would raise MixedFieldError, a TypeError.  A rational term is a
        scalar of every field."""
        lines = _certificate_lines()
        first = lines.index("derivation 1 pdeg 1") + 1
        head = lines[first].rsplit(" ", 2)[0]
        for c, term in (("rat 1", "quad 5 1 1"), ("quad 5 1 1", "quad -1 1 1")):
            self._raises_at([lines[0], f"c {c}"] + lines[2:first]
                            + [f"{head} {term}"] + lines[first + 1:],
                            first + 1)
        cert = certificate_from_text("\n".join(
            [lines[0], "c quad 5 1 1"] + lines[2:]) + "\n")
        assert cert.derivations[0] == Derivation(1, 1, {
            j: (1, 0) for j in (0, 4, 8)})    # theta_E over Z[sqrt 5]

    def test_fields_are_compared_by_name(self, monkeypatch):
        """The table and field caches are bounded, so one field may be
        two QuadOps objects over a run: a Q(sqrt 5) certificate reads back
        while quad_field makes a fresh QuadOps on every call, and a term of
        Q(sqrt -1) is still refused."""
        from freearr import scalars

        for cached in (fr.monomials, fr._euler_terms, quad_field):
            assert cached.cache_info().maxsize is not None
        arr = _paper_quad_points()[0]
        cert = decide_freeness(arr, use_cache=False).certificate
        text = certificate_to_text(cert)
        assert "quad 5 " in text
        monkeypatch.setattr(scalars, "quad_field", QuadOps)
        assert domain_of(cert.constant) is not domain_of(cert.constant)
        back = certificate_from_text(text)
        assert back == cert and certificate_to_text(back) == text
        assert saito_check(arr, *back.derivations) == cert.constant
        lines = text.splitlines()
        first = lines.index(next(ln for ln in lines if ln.startswith("term")))
        head = lines[first].split(" quad ")[0].split(" rat ")[0]
        self._raises_at(lines[:first] + [f"{head} quad -1 1 1"]
                        + lines[first + 1:], first + 1)

    def test_quadratic_scalar_with_a_huge_d(self):
        lines = _certificate_lines()
        self._raises_at(lines[:1] + ["c quad 10000000000000061 1 1"]
                        + lines[2:], 2)

    def test_negative_pdeg(self):
        """A derivation of negative pdeg, with no terms, is refused at its
        own line."""
        lines = _certificate_lines()
        second = lines.index("derivation 2 pdeg 1")
        third = lines.index("derivation 3 pdeg 3")
        self._raises_at(lines[:second] + ["derivation 2 pdeg -2"]
                        + lines[third:], second + 1)

    def test_a_huge_pdeg_enumerates_no_monomials(self, monkeypatch):
        """Reading places a term by _column: the cost follows the text,
        not the pdeg it names."""
        monomials = fr.monomials

        def small_only(p):
            if p > 2:
                raise AssertionError(f"monomials({p}) enumerated")
            return monomials(p)
        monkeypatch.setattr(fr, "monomials", small_only)
        p = 10 ** 6
        cert = certificate_from_text("\n".join([
            "saito-certificate", "c rat 1", f"derivation 1 pdeg {p}",
            f"term 3 0 1 {p - 1} rat 2", "derivation 2 pdeg 1",
            "term 1 1 0 0 rat 1", "derivation 3 pdeg 0",
            "term 2 0 0 0 rat 1", "end"]) + "\n")
        # (0, 1, p - 1) is next to last in monomials(p), and f3 is last
        assert cert.derivations == (Derivation(p, 1, {
            3 * comb(p + 2, 2) - 2: 2}), Derivation(1, 1, {0: 1}),
            Derivation(0, 1, {1: 1}))

    @pytest.mark.parametrize("count", [2, 4])
    def test_derivation_count_other_than_three(self, count):
        lines = _certificate_lines()
        third = lines.index("derivation 3 pdeg 3")
        if count == 2:
            lines = lines[:third] + ["end"]
        else:
            lines = lines[:-1] + ["derivation 4 pdeg 1", "term 1 1 0 0 rat 1",
                                  "end"]
        self._raises_at(lines, len(lines))
