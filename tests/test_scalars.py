"""Exact scalar arithmetic: integer polynomials, quadratic fields."""
import random
import time
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freearr import scalars
from freearr.scalars import (
    IntOps,
    IntPoly,
    MixedFieldError,
    QQ,
    QuadElem,
    QuadOps,
    ZeroPolynomial,
    _is_prime,
    clear,
    domain_of,
    factor_low_degree,
    parse_rational,
    poly,
    poly_gcd,
    quad_field,
    read_scalars,
    scalar_to_text,
)


small_ints = st.integers(min_value=-30, max_value=30)
fractions = st.builds(Fraction, small_ints,
                      st.integers(min_value=1, max_value=12))
polys = st.builds(lambda cs: IntPoly(cs),
                  st.lists(small_ints, min_size=0, max_size=5))


class TestIntPoly:
    def test_normalization_drops_leading_zeros(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert not IntPoly((0, 0))

    def test_a_constant_hashes_as_its_int(self):
        """Equal values hash equal: a constant or zero IntPoly is one key
        with its int in a set or a dict."""
        for c in (0, 1, -7, 2 ** 70):
            assert IntPoly((c,)) == c and hash(IntPoly((c,))) == hash(c)
            assert len({IntPoly((c,)), c}) == 1
            assert {c: "int"}[IntPoly((c,))] == "int"
        assert len({poly(1, 1), poly(1, 1), 1}) == 2

    def test_arithmetic(self):
        p = poly(1, 1)      # 1 + t
        q = poly(-1, 1)     # t - 1
        assert (p * q).coeffs == (-1, 0, 1)
        assert (p + q).coeffs == (0, 2)
        assert (p - q).coeffs == (2,)
        assert (p ** 3).coeffs == (1, 3, 3, 1)

    @given(polys, polys, fractions)
    @settings(max_examples=60)
    def test_evaluation_is_a_ring_homomorphism(self, p, q, x):
        assert (p * q)(x) == p(x) * q(x)
        assert (p + q)(x) == p(x) + q(x)

    @given(polys, st.builds(QuadElem, st.just(5), fractions, fractions))
    @settings(max_examples=40)
    def test_evaluation_homomorphism_in_quadratic_field(self, p, w):
        two = p * p
        assert two(w) == p(w) * p(w)

    def test_content_and_primitive(self):
        p = poly(6, -9, 12)
        assert p.content == 3
        assert p.primitive().coeffs == (2, -3, 4)

    def test_str(self):
        assert str(poly(1, -3, 1)) == "t^2 - 3*t + 1"
        assert str(poly(0, 1)) == "t"
        assert str(poly(-2)) == "-2"


class TestDivisionAndGcd:
    def test_poly_gcd_recovers_common_factor(self):
        q = poly(1, -3, 1)
        a = q * poly(1, 1)
        b = q * poly(-2, 0, 3)
        g = poly_gcd(a, b)
        assert g.primitive().coeffs == q.coeffs

    def test_poly_gcd_coprime(self):
        assert poly_gcd(poly(1, 1), poly(-1, 1)).degree == 0

    def test_poly_gcd_of_zeros_and_of_a_zero(self):
        zero, p = IntPoly(), poly(6, -4, -2)     # -2 t^2 - 4 t + 6
        assert poly_gcd(zero, zero) == zero
        assert poly_gcd(zero, zero).degree == -1
        assert poly_gcd(p, zero) == poly_gcd(zero, p) == poly(-3, 2, 1)
        assert poly_gcd(poly(-4), zero) == poly(1)

    def test_poly_gcd_with_content(self):
        q = poly(1, 0, 1)
        # 6 (t - 1) q and -10 (t - 1)(t + 1) q
        assert poly_gcd(q * poly(-6, 6), q * poly(10, 0, -10)) == \
            q * poly(-1, 1)
        assert poly_gcd(q * poly(-8, 4) * -4, 6 * q) == q
        assert poly_gcd(poly(4), poly(6)) == poly(1)
        assert poly_gcd(poly(0, 12), poly(0, 0, 18)) == poly(0, 1)

    def test_poly_gcd_matches_sympy_on_random_products(self):
        import sympy

        t = sympy.Symbol("t")
        rng = random.Random(20261018)

        def rand(deg):
            return IntPoly([rng.randint(-9, 9) for _ in range(deg)]
                           + [rng.choice((-3, -2, -1, 1, 2, 3))])

        def to_sympy(p):
            return sympy.Poly(list(reversed(p.coeffs)), t)

        for _ in range(300):
            g = rand(rng.randint(0, 3))
            a, b = g * rand(rng.randint(0, 4)), g * rand(rng.randint(0, 4))
            expected = to_sympy(a).gcd(to_sympy(b))
            assert poly_gcd(a, b) == IntPoly(
                int(c) for c in reversed(expected.all_coeffs())).primitive()

    def test_zero_polynomial_errors(self):
        with pytest.raises(ZeroPolynomial):
            factor_low_degree(IntPoly(()))


def sympy_factors(p):
    """factor_low_degree's contract, computed by sympy."""
    import sympy

    t = sympy.Symbol("t")
    _, fac = sympy.Poly(list(reversed(p.primitive().coeffs)), t).factor_list()
    low, high = [], []
    for q, _mult in fac:
        qp = IntPoly(int(c) for c in reversed(q.all_coeffs())).primitive()
        if qp.degree > 0:
            (low if qp.degree <= 2 else high).append(qp)
    for factors in (low, high):
        factors.sort(key=lambda q: (q.degree, q.coeffs))
    return low, high


T = poly(0, 1)
SD4 = poly(1, 0, -10, 0, 1)        # minimal polynomial of sqrt 2 + sqrt 3
SD8 = poly(576, 0, -960, 0, 352, 0, -40, 0, 1)     # ... + sqrt 5


class TestFactorLowDegree:
    def test_matches_sympy_on_random_products(self):
        """Content, negative leading coefficients, repeated factors, and
        leading coefficients divisible by 3, 5 and 7, the first primes the
        factorizer would otherwise reduce by."""
        rng = random.Random(20261018)
        for _ in range(250):
            p = IntPoly([rng.choice((-6, -5, -3, -2, 2, 3, 5, 7, 15, 105))])
            for _ in range(rng.randint(0, 4)):
                q = IntPoly([rng.randint(-1000, 1000)
                             for _ in range(rng.randint(1, 4))]
                            + [rng.choice((-9, -1, 1, 2, 3, 5, 7, 35, 105))])
                p = p * q ** rng.randint(1, 3)
            assert factor_low_degree(p) == sympy_factors(p), p

    @pytest.mark.parametrize("p", [
        T ** 4 + 1, SD4, SD8, T ** 12 - 1, T ** 32 - 1,
        (T ** 3 - 2) * (T ** 3 - 3), SD8 * (T ** 3 - 2) ** 2,
    ], ids=str)
    def test_matches_sympy_on_hard_cases(self, p):
        """Irreducible polynomials that split into many factors mod every
        prime, and cyclotomic products with many factors."""
        assert factor_low_degree(p) == sympy_factors(p)

    def test_is_prime_matches_sympy_on_small_numbers(self):
        import sympy

        assert [n for n in range(-3, 3000) if _is_prime(n)] == \
            list(sympy.primerange(0, 3000))

    def test_constants_have_no_factors(self):
        assert factor_low_degree(poly(-7)) == ([], [])
        assert factor_low_degree(poly(1)) == ([], [])

    def test_swinnerton_dyer_8_is_fast(self):
        start = time.perf_counter()
        assert factor_low_degree(SD8) == ([], [SD8])
        assert time.perf_counter() - start < 0.5

    def test_irreducible_quadratics_stay_whole(self):
        """b^2 - 4ac > 0 and not a square, b^2 - 4ac < 0, coefficients
        above 2**64 and negative leading coefficients."""
        for coeffs in ((1, -1, 1), (1, -12, 4), (1, -3, 1), (-1, 1, 1),
                       (-1, 0, 2), (-7, 5, 3), (2 ** 65 + 1, 3, 2 ** 64 - 1),
                       (1, 0, 1), (2 ** 70, 1, 2 ** 66), (1, -1, -1),
                       (-3, -1, -5), (1, 1, -3 * 2 ** 64)):
            p = IntPoly(coeffs)
            assert factor_low_degree(p) == sympy_factors(p) == (
                [p.primitive()], []), p

    def test_splits_products(self):
        p = poly(-1, 1) * poly(-1, 1, 1) ** 2
        low, high = factor_low_degree(p)
        assert low == [poly(-1, 1), poly(-1, 1, 1)]
        assert high == []

    def test_quadratics_with_square_discriminant_split(self):
        """Products (a t + b)(c t + d), some with coefficients above
        2**64, and their negatives."""
        rng = random.Random(25)
        for k in range(60):
            h = 2 ** 70 if k % 3 == 0 else 50
            a, c = (rng.choice((-1, 1)) * rng.randint(1, h) for _ in "ac")
            b, d = (rng.randint(-h, h) for _ in "bd")
            p = poly(b, a) * poly(d, c)
            for q in (p, -p, 6 * p):
                assert factor_low_degree(q) == sympy_factors(q), q

    def test_quadratic_squarefree_part(self):
        p = (T ** 2 + 1) ** 2 * poly(3, 2)
        assert factor_low_degree(p) == sympy_factors(p) == (
            [poly(3, 2), poly(1, 0, 1)], [])
        p = (poly(-1, 2) * poly(5, 3)) ** 3 * (T ** 3 + T + 1)
        assert factor_low_degree(p) == sympy_factors(p)

    def test_squarefree_part_below_degree_three_is_read_off_the_discriminant(
            self, monkeypatch):
        """Every a t^2 + b t + c with |a|, |b|, |c| <= 5 and a != 0, the
        squares among them, and squares with content and sign, factor as
        sympy does with no gcd and no division; from degree 3 a repeated
        factor still goes through f / gcd(f, f')."""
        calls = []
        for name in ("_gcd", "_quotient"):
            def spy(*args, name=name, real=getattr(scalars, name)):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(scalars, name, spy)
        quadratics = [poly(c, b, a) for a in range(-5, 6) if a
                      for b in range(-5, 6) for c in range(-5, 6)]
        squares = [p for p in quadratics if p.coeffs[1] ** 2
                   == 4 * p.coeffs[0] * p.coeffs[2]]
        assert len(squares) == 26
        extra = [5 * T ** 2, poly(-2, 3) ** 2, -4 * poly(1, 2) ** 2,
                 -7 * T ** 2, 12 * poly(5, -3) ** 2, poly(3, 7), poly(-6),
                 -3 * T]
        for p in quadratics + extra:
            assert factor_low_degree(p) == sympy_factors(p), p
        assert factor_low_degree(-4 * poly(1, 2) ** 2) == ([poly(1, 2)], [])
        assert factor_low_degree(5 * T ** 2) == ([T], [])
        assert calls == []
        for p in (poly(-3, 1) ** 2 * poly(1, 1),
                  poly(1, 2) ** 2 * (T ** 2 + 1)):
            assert factor_low_degree(p) == sympy_factors(p), p
        assert factor_low_degree(poly(1, 2) ** 2 * (T ** 2 + 1)) == (
            [poly(1, 2), poly(1, 0, 1)], [])
        assert calls.count("_gcd") == 3     # Yun, once per call

    def test_quadratics_are_not_factored_mod_p(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a quadratic went through Zassenhaus")

        for name in ("_factor_mod", "_hensel_lift"):
            monkeypatch.setattr(scalars, name, forbidden)
        assert factor_low_degree(poly(-6, 1, 1)) == (
            [poly(-2, 1), poly(3, 1)], [])
        assert factor_low_degree(poly(-1, -1, 1)) == (
            [poly(-1, -1, 1)], [])
        assert factor_low_degree(poly(-3, 1) ** 2 * poly(1, 1)) == (
            [poly(-3, 1), poly(1, 1)], [])

    def test_high_degree_remainder(self):
        p = poly(1, 1, 0, 1) * poly(-1, 1)  # t^3 + t + 1 is irreducible
        low, high = factor_low_degree(p)
        assert low == [poly(-1, 1)]
        assert high == [poly(1, 1, 0, 1)]
        # irreducible factors of degree >= 3 come one by one, not multiplied
        low, high = factor_low_degree(p * poly(1, 1, 0, 1) * poly(-2, 0, 0, 1))
        assert low == [poly(-1, 1)]
        assert high == [poly(-2, 0, 0, 1), poly(1, 1, 0, 1)]


quad_elems = st.builds(QuadElem, st.sampled_from([2, 5, -3]),
                       fractions, fractions)


class TestQuadElem:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadElem(4, 1, 1)
        with pytest.raises(ValueError):
            QuadElem(1, 1, 1)

    def test_mixing_fields_is_an_error(self):
        with pytest.raises(MixedFieldError):
            QuadElem(2, 1, 1) + QuadElem(3, 1, 1)

    @given(quad_elems, quad_elems)
    @settings(max_examples=60)
    def test_commutative_ring_axioms(self, x, y):
        if x.d != y.d:
            return
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) * (x - y) == x * x - y * y

    @given(quad_elems)
    @settings(max_examples=60)
    def test_norm_identity(self, x):
        norm = x * x.conjugate()
        assert norm.b == 0
        assert norm.a == x.a * x.a - x.d * x.b * x.b

    @given(quad_elems)
    @settings(max_examples=60)
    def test_inverse(self, x):
        if not x:
            return
        one = QuadElem(x.d, 1, 0)
        assert x * x.inverse() == one

    def test_a_rational_element_hashes_as_its_fraction(self):
        """Equal values hash equal: QuadElem(d, a, 0) == a, so it is one
        key with a in a set or a dict."""
        for d, a in ((5, Fraction(1)), (-3, Fraction(-2, 3)), (-1, 0)):
            x = QuadElem(d, a, 0)
            assert x == a and hash(x) == hash(a)
            assert len({x, a}) == 1
            assert {a: "rational"}[x] == "rational"
        assert len({QuadElem(5, 1, 1), QuadElem(5, 1, 1), 1}) == 2

    def test_equality_is_transitive_across_fields(self):
        """A rational is one value in every field and as a constant IntPoly,
        so a set of its forms has one member in any insertion order."""
        ones = (1, Fraction(1), QuadElem(5, 1, 0), QuadElem(-3, 1, 0),
                IntPoly((1,)))
        assert {len(set(order)) for order in permutations(ones)} == {1}
        assert all(x == y for x in ones for y in ones)
        assert (QuadElem(5, 0, 1) == QuadElem(-3, 0, 1)) is False
        assert QuadElem(5, 2, 0) != QuadElem(-3, 3, 0)
        assert IntPoly((2,)) == QuadElem(5, 2, 0) != IntPoly((2, 1))
        assert IntPoly((0,)) == Fraction(0) and IntPoly((3,)) != Fraction(7, 2)

    def test_known_algebraic_numbers(self):
        golden = QuadElem(5, Fraction(-1, 2), Fraction(1, 2))
        assert poly(-1, 1, 1)(golden) == 0
        omega = QuadElem(-3, Fraction(1, 2), Fraction(1, 2))
        assert poly(1, -1, 1)(omega) == 0
        root2 = QuadElem(5, Fraction(3, 2), Fraction(1, 2))
        assert poly(1, -3, 1)(root2) == 0


class TestDomains:
    def test_parse_rational(self):
        assert parse_rational("-1/2") == Fraction(-1, 2)
        assert parse_rational("7") == 7

    @pytest.mark.parametrize("text", ["\u0661", "1/\u0662", "\uff17",
                                      "0.5", "1e0", "1_000", "1/2\n3"])
    def test_parse_rational_takes_ascii_integers_and_fractions(self, text):
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rational(text)

    @pytest.mark.parametrize("text", ["1/0", "-3/0", "0/00"])
    def test_zero_denominator_names_the_token(self, text):
        """A zero denominator is a ValueError naming the token, not
        Fraction's ZeroDivisionError and its repr."""
        for read in (parse_rational, lambda s: read_scalars(["rat", s]),
                     lambda s: read_scalars(["quad", "5", "1", s])):
            with pytest.raises(ValueError) as info:
                read(text)
            assert str(info.value) == f"zero denominator in {text!r}"

    def test_quad_field_is_cached_and_validated(self):
        assert quad_field(5) is quad_field(5)
        with pytest.raises(ValueError):
            quad_field(12)

    def test_from_int(self):
        assert QQ.field(3) == Fraction(3)
        assert quad_field(2).field(3) == QuadElem(2, 3, 0)

    @pytest.mark.parametrize("d", [0, 1, 4, 12, -8])
    def test_quad_ops_check_d(self, d):
        with pytest.raises(ValueError, match="must be squarefree"):
            QuadOps(d)
        with pytest.raises(ValueError, match="must be squarefree"):
            quad_field(d)
        with pytest.raises(ValueError, match="must be squarefree"):
            QuadElem(d, 1, 1)

    def test_one_object_per_field(self):
        assert QQ is IntOps and QQ.name == "QQ"
        assert quad_field(-3).name == "QQ(sqrt -3)"
        assert domain_of(Fraction(1, 2)) is domain_of(7) is QQ
        assert domain_of(QuadElem(5, 1, 1)) is quad_field(5)
        with pytest.raises(TypeError):
            domain_of(0.5)

    def test_field_coerces_its_own_elements_only(self):
        half, r5 = Fraction(1, 2), QuadElem(5, 0, 1)
        assert QQ.field(half) is half and type(QQ.field(3)) is Fraction
        F = quad_field(5)
        assert F.field(r5) is r5
        assert F.field(half) == QuadElem(5, half, 0)
        assert type(F.field(3).a) is Fraction
        for ops, x in ((QQ, r5), (QQ, 0.5), (QQ, "1"), (F, QuadElem(2, 0, 1)),
                       (F, 0.5), (F, (1, 0))):
            with pytest.raises(MixedFieldError):
                ops.field(x)

    def test_clear_takes_field_elements_into_the_ring(self):
        assert clear(QQ, [Fraction(1, 2), Fraction(-1, 3), 2]) == (
            6, [3, -2, 12])
        assert clear(QQ, [0, 5]) == (1, [0, 5])
        F = quad_field(5)
        assert clear(F, [QuadElem(5, Fraction(1, 2), Fraction(1, 3)), 1,
                         Fraction(3, 4)]) == (12, [(6, 4), (12, 0), (9, 0)])
        for ops, xs in ((QQ, [1, QuadElem(5, 0, 1)]),
                        (F, [QuadElem(2, 0, 1)])):
            with pytest.raises(MixedFieldError):
                clear(ops, xs)
        # from_coords is its inverse
        den, ring = clear(F, [QuadElem(5, Fraction(1, 2), Fraction(1, 3))])
        assert F.from_coords(ring[0], den) == QuadElem(
            5, Fraction(1, 2), Fraction(1, 3))


codec_scalars = st.one_of(
    fractions, st.builds(QuadElem, st.sampled_from([-3, -1, 2, 5, 13]),
                         fractions, fractions))


class TestScalarText:
    """scalar_to_text and read_scalars are the one writer and reader of
    the tagged scalars in certificates, chains and --at."""

    @given(codec_scalars)
    @settings(max_examples=100)
    def test_round_trip_keeps_value_and_field(self, x):
        (y,) = read_scalars(scalar_to_text(x).split())
        assert y == x and domain_of(y) is domain_of(x)

    @given(st.lists(codec_scalars, max_size=5))
    @settings(max_examples=60)
    def test_scalars_in_a_row(self, xs):
        text = " ".join(map(scalar_to_text, xs))
        ys = read_scalars(text.split())
        assert ys == xs
        assert [domain_of(y) for y in ys] == [domain_of(x) for x in xs]

    def test_written_forms(self):
        assert scalar_to_text(Fraction(-1, 2)) == "rat -1/2"
        assert scalar_to_text(3) == "rat 3"
        assert scalar_to_text(QuadElem(5, Fraction(3, 2), 0)) == (
            "quad 5 3/2 0")

    @pytest.mark.parametrize("tokens, message", [
        (["ratfunc", "1"], "bad scalar near 'ratfunc'"),
        (["rat"], "bad scalar near 'rat'"),
        (["quad", "5", "1"], "bad scalar near 'quad'"),
        (["rat", "1", "2"], "bad scalar near '2'"),
        (["rat", "0.5"], "not a rational number: '0.5'"),
        (["quad", "1_3", "1", "1"], "not an integer: '1_3'"),
        (["quad", "12", "1", "1"], "d = 12 must be squarefree"),
    ])
    def test_malformed_tokens_raise_value_error(self, tokens, message):
        with pytest.raises(ValueError) as exc:
            read_scalars(tokens)
        assert str(exc.value).startswith(message)
