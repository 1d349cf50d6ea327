"""One-parameter families, specialization, degeneracy sets."""
import random
from fractions import Fraction
from pathlib import Path

import pytest

from freearr import arrangement as am
from freearr import moduli as mod
from freearr.freeness import Free, decide_freeness
from freearr.scalars import IntPoly, QuadElem, factor_low_degree, poly

DATA = Path(__file__).resolve().parent.parent / "src" / "freearr" / "data"


class TestFamilies:
    def test_13_column_entries(self):
        f = mod.family_13()
        assert f.n == 13
        assert f.columns[0] == (poly(1), IntPoly(()), IntPoly(()))
        # column 13 is (t-1, t, -t^2)
        assert f.columns[12] == (poly(-1, 1), poly(0, 1), poly(0, 0, -1))

    def test_15_column_entries(self):
        f = mod.family_15()
        assert f.n == 15
        # column 12 is (1-3t, t^2-3t+1, -t)
        assert f.columns[11] == (poly(1, -3), poly(1, -3, 1), poly(0, -1))

    def test_validation_rejects_proportional_columns(self):
        with pytest.raises(ValueError):
            mod.Family("bad", mod._cols((1, 0, 0), (2, 0, 0)))


class TestGenericLattices:
    def test_13_has_30_flats(self):
        lat = mod.generic_lattice(mod.family_13())
        assert len(lat.flats) == 30
        sizes = sorted(len(f) for f in lat.flats)
        assert sizes == [2] * 21 + [3] * 3 + [4] * 3 + [5] * 3

    def test_15_has_39_flats(self):
        lat = mod.generic_lattice(mod.family_15())
        assert len(lat.flats) == 39
        sizes = sorted(len(f) for f in lat.flats)
        assert sizes == [2] * 27 + [3] * 6 + [5] * 6

    def test_generic_13_isomorphic_to_golden_listing(self):
        golden = am.parse_lattice_listing(
            (DATA / "paper13.lattice").read_text())
        lat = mod.generic_lattice(mod.family_13())
        assert am.lattice_iso(lat, golden) is not None

    def test_generic_15_isomorphic_to_golden_listing(self):
        golden = am.parse_lattice_listing(
            (DATA / "paper15.lattice").read_text())
        lat = mod.generic_lattice(mod.family_15())
        assert am.lattice_iso(lat, golden) is not None


class TestSpecialize:
    def test_13_generic_value(self, a13):
        f = mod.family_13()
        spec = mod.specialize(f, 3)
        assert spec.count == 13
        assert mod.vL_membership(f, mod.generic_lattice(f), 3)
        assert spec.dropped == ()
        assert spec.merges == ()
        assert a13.n == 13

    def test_13_at_zero_drops_column(self):
        # column 13 = (t-1, t, -t^2) stays, but columns merge at t=0:
        # (1,0,-t) -> (1,0,0) = column 1 etc.
        spec = mod.specialize(mod.family_13(), 0)
        assert spec.count < 13

    def test_13_at_two_changes_lattice(self):
        f = mod.family_13()
        spec = mod.specialize(f, 2)
        assert spec.count == 13
        assert not mod.vL_membership(f, mod.generic_lattice(f), 2)

    def test_13_at_sixth_root_merges_columns(self):
        # at a root of t^2 - t + 1, columns 11, 12 and 13 all coincide
        omega = QuadElem(-3, Fraction(1, 2), Fraction(1, 2))
        spec = mod.specialize(mod.family_13(), omega)
        assert spec.count == 11
        assert spec.merges == ((11, 12, 13),)

    def test_interleaved_merge_groups(self):
        t = mod._T
        f = mod.Family("interleaved", mod._cols(
            (3, 0, 0), (0, 1, 0), (t, t, t), (1, 0, t), (t, 2, 0),
            (0, 0, 1), (2, t, 0)))
        spec = mod.specialize(f, 0)
        assert spec.dropped == (3,)
        assert spec.merges == ((1, 4, 7), (2, 5))
        assert spec.count == 3
        # each group keeps its first column as evaluated, unscaled
        assert spec.arrangement.columns == ((3, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_all_columns_merge_or_vanish(self):
        # degenerate specializations are data: one or no column left
        t = mod._T
        merged = mod.Family("merged", mod._cols(
            (1, 0, 0), (1, t, 0), (1, 0, t)))
        spec = mod.specialize(merged, 0)
        assert (spec.arrangement, spec.count) == (None, 1)
        assert spec.merges == ((1, 2, 3),)
        assert not mod.vL_membership(merged, mod.generic_lattice(merged), 0)
        vanished = mod.Family("vanished", mod._cols(
            (t, 0, 0), (0, t, 0), (0, 0, t)))
        spec = mod.specialize(vanished, 0)
        assert (spec.arrangement, spec.count) == (None, 0)
        assert spec.dropped == (1, 2, 3)
        assert not mod.vL_membership(
            vanished, mod.generic_lattice(vanished), 0)

    def test_generic_lattice_needs_three_columns(self):
        with pytest.raises(am.NotEssentialError):
            mod.generic_lattice(mod.Family("one", mod._cols((1, 0, 0))))

    def test_15_at_golden_square_changes_lattice(self):
        # (3+sqrt5)/2 is a root of t^2 - 3t + 1
        omega = QuadElem(5, Fraction(3, 2), Fraction(1, 2))
        f = mod.family_15()
        spec = mod.specialize(f, omega)
        assert spec.count == 15
        assert not mod.vL_membership(f, mod.generic_lattice(f), omega)

    def test_15_at_minus_one_is_generic(self):
        f = mod.family_15()
        spec = mod.specialize(f, -1)
        assert spec.count == 15
        assert mod.vL_membership(f, mod.generic_lattice(f), -1)


@pytest.fixture
def no_specialization(monkeypatch):
    """Make building a specialized arrangement or lattice fail."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the family was specialized")

    for name in ("specialize", "build", "lattice_iso"):
        monkeypatch.setattr(mod, name, forbidden)


class TestDegeneracySet:
    def test_13_family(self, no_specialization):
        rep = mod.degeneracy_set(mod.family_13())
        assert rep.rational == {
            Fraction(-1): mod.LATTICE_CHANGES,
            Fraction(0): mod.COUNT_DROPS,
            Fraction(1, 2): mod.LATTICE_CHANGES,
            Fraction(1): mod.COUNT_DROPS,
            Fraction(2): mod.LATTICE_CHANGES,
        }
        assert rep.quadratic == {(1, -1, 1): mod.COUNT_DROPS}
        assert rep.unresolved == ()

    def test_15_family(self, no_specialization):
        rep = mod.degeneracy_set(mod.family_15())
        assert rep.rational == {
            Fraction(0): mod.COUNT_DROPS,
            Fraction(1, 2): mod.COUNT_DROPS,
            Fraction(1): mod.COUNT_DROPS,
        }
        assert rep.quadratic == {
            (1, -3, 1): mod.LATTICE_CHANGES,
            (-1, 1, 1): mod.LATTICE_CHANGES,
        }
        assert rep.unresolved == ()

    def test_nonexceptional_samples_match_generic(self):
        f = mod.family_13()
        rep = mod.degeneracy_set(f)
        generic = mod.generic_lattice(f)
        for k in range(3, 23):
            omega = Fraction(k, 7)
            if omega in rep.rational:
                continue
            assert mod.vL_membership(f, generic, omega)

    def test_classification_closure(self):
        # re-verify every reported value by direct specialization
        f = mod.family_15()
        rep = mod.degeneracy_set(f)
        generic = mod.generic_lattice(f)
        for omega, tag in rep.rational.items():
            spec = mod.specialize(f, omega)
            if tag == mod.COUNT_DROPS:
                assert spec.count < f.n
            else:
                assert spec.count == f.n
                assert not mod.vL_membership(f, generic, omega)
        for coeffs, tag in rep.quadratic.items():
            root = mod._quadratic_root(coeffs)
            assert IntPoly(coeffs)(root) == 0
            spec = mod.specialize(f, root)
            if tag == mod.COUNT_DROPS:
                assert spec.count < f.n
            else:
                assert spec.count == f.n
                assert not mod.vL_membership(f, generic, root)

    def test_generic_lattice_computed_once_per_family(self, monkeypatch):
        calls = []
        original = mod.generic_lattice

        def counted(f):
            calls.append(f)
            return original(f)

        monkeypatch.setattr(mod, "generic_lattice", counted)
        f = mod.family_13()
        rep = mod.degeneracy_set(f)
        for omega in rep.rational:
            mod.specialize(f, omega)
        for coeffs in rep.quadratic:
            mod.specialize(f, mod._quadratic_root(coeffs))
        # neither reads the generic lattice; vL_membership takes it
        assert calls == []

    def test_candidates_are_distinct_primitive_polys(self):
        cands = mod._candidate_polys(mod.family_15())
        assert len(cands) == 24
        assert len(set(cands)) == 24
        assert all(p == p.primitive() for p in cands)

    def test_quadratic_root_of_negative_discriminant(self):
        root = mod._quadratic_root((1, -1, 1))
        assert (root.d, root.a, root.b) == (-3, Fraction(1, 2), Fraction(1, 2))
        assert IntPoly((1, -1, 1))(root) == 0

    def test_15_exceptional_values_give_free_1_5_9(self):
        f = mod.family_15()
        for coeffs in ((1, -3, 1), (-1, 1, 1)):
            root = mod._quadratic_root(coeffs)
            assert root.d == 5
            spec = mod.specialize(f, root)
            verdict = decide_freeness(spec.arrangement)
            assert isinstance(verdict, Free)
            assert verdict.exponents == (1, 5, 9)


def specialized_degeneracies(f):
    """Reference classification: specialize the family at one root of every
    irreducible factor of degree <= 2 of a candidate locus and compare the
    count and the lattice with the generic ones."""
    rational, quadratic = {}, {}
    generic = mod.generic_lattice(f)
    for p in mod._candidate_polys(f):
        for q, _mult in factor_low_degree(p)[0]:
            if q.degree == 1:
                target, key = rational, Fraction(-q.coeffs[0], q.coeffs[1])
                omega = key
            else:
                target, key = quadratic, q.coeffs
                omega = mod._quadratic_root(key)
            if mod.specialize(f, omega).count < f.n:
                target[key] = mod.COUNT_DROPS
            elif not mod.vL_membership(f, generic, omega):
                target[key] = mod.LATTICE_CHANGES
    return rational, quadratic


def random_family(rng):
    """5-7 columns with entries in [-2, 2]; one or two of them depend on t
    with entries of degree <= 2.  None if the columns are not a family of
    rank 3."""
    n = rng.randint(5, 7)
    moving = set(rng.sample(range(n), rng.randint(1, 2)))
    cols = []
    for i in range(n):
        if i in moving:
            col = tuple(IntPoly(rng.randint(-2, 2) for _ in range(3))
                        for _ in range(3))
        else:
            col = tuple(poly(rng.randint(-2, 2)) for _ in range(3))
        cols.append(col)
    try:
        f = mod.Family("random", tuple(cols))
        mod.generic_lattice(f)  # raises NotEssentialError below rank 3
    except (ValueError, am.NotEssentialError):
        return None
    return f


class TestDivisibilityClassification:
    def test_matches_specialization_on_random_families(self):
        rng = random.Random(20261018)
        checked = 0
        seen = set()
        while checked < 24:
            f = random_family(rng)
            if f is None:
                continue
            checked += 1
            rep = mod.degeneracy_set(f)
            assert (rep.rational, rep.quadratic) == \
                specialized_degeneracies(f), mod.format_family(f)
            seen |= {("rational", tag) for tag in rep.rational.values()}
            seen |= {("quadratic", tag) for tag in rep.quadratic.values()}
        assert len(seen) == 4

    def test_irreducible_cubic_is_unresolved(self):
        # the coordinate triangle and (t^3 - 2, 1, 1): the only triple
        # determinant that depends on t is t^3 - 2
        f = mod.parse_family_text(
            "1; 0; 0\n0; 1; 0\n0; 0; 1\n-2 0 0 1; 1; 1\n")
        assert list(mod._candidate_polys(f)) == [poly(-2, 0, 0, 1)]
        rep = mod.degeneracy_set(f)
        assert rep.unresolved == ((-2, 0, 0, 1),)
        assert rep.rational == {} and rep.quadratic == {}

    def test_unresolved_lists_each_irreducible_factor_once(self):
        # e1, e2, e3, ((t^3-2)(t^3-3), 1, 1), (t^3-2, 1, 2): the loci are
        # t^3-2 and three sextics, each t^3-2 times one more cubic
        f = mod.parse_family_text("1; 0; 0\n0; 1; 0\n0; 0; 1\n"
                                  "6 0 0 -5 0 0 1; 1; 1\n-2 0 0 1; 1; 2\n")
        loci = mod._candidate_polys(f)
        assert sorted(p.degree for p in loci) == [3, 6, 6, 6]
        rep = mod.degeneracy_set(f)
        assert rep.unresolved == ((-7, 0, 0, 2), (-4, 0, 0, 1),
                                  (-3, 0, 0, 1), (-2, 0, 0, 1))
        assert rep.rational == {} and rep.quadratic == {}


class TestVLMembership:
    def test_generic_lattice_membership(self):
        f = mod.family_13()
        lat = mod.generic_lattice(f)
        assert mod.vL_membership(f, lat, 3)
        assert not mod.vL_membership(f, lat, 2)       # lattice changes
        assert not mod.vL_membership(f, lat, 0)       # count drops

    def test_failed_iso_check_raises(self, monkeypatch):
        f = mod.family_13()
        lat = mod.generic_lattice(f)
        monkeypatch.setattr(am, "_check_iso", lambda l1, l2, m: False)
        with pytest.raises(am.InvariantError):
            mod.vL_membership(f, lat, 3)


class TestFamilyFormat:
    def test_round_trip(self):
        for f in (mod.family_13(), mod.family_15()):
            back = mod.parse_family_text(mod.format_family(f), f.name)
            assert back.columns == f.columns

    def test_parse_with_comments(self):
        f = mod.parse_family_text(
            "# coordinate triangle\n1; 0; 0\n0; 1; 0\n\n0; 0; 1\n")
        assert f.n == 3
        assert all(p.degree <= 0 for col in f.columns for p in col)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            mod.parse_family_text("1; 0\n")
        with pytest.raises(ValueError):
            mod.parse_family_text("")

    def test_constant_family_specializes_everywhere(self):
        f = mod.parse_family_text("1; 0; 0\n0; 1; 0\n0; 0; 1\n")
        rep = mod.degeneracy_set(f)
        assert rep.rational == {} and rep.quadratic == {}
        assert mod.vL_membership(f, mod.generic_lattice(f), 17)


class TestMultiplicityInvariance:
    def test_profile_constant_off_the_exceptional_set(self):
        f = mod.family_15()
        generic_profile = sorted(
            len(fl) for fl in mod.generic_lattice(f).flats)
        for omega in (3, -2, Fraction(7, 3)):
            spec = mod.specialize(f, omega)
            profile = sorted(
                len(fl) for fl in spec.arrangement.lattice().flats)
            assert profile == generic_profile
