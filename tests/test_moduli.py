"""One-parameter families, specialization, degeneracy sets."""
import random
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
import sympy

from freearr import arrangement as am
from freearr import linalg
from freearr import moduli as mod
from freearr.freeness import Free, decide_freeness
from freearr.induction import inductively_free
from freearr.linalg import ring_cross
from freearr.scalars import (
    InputError,
    IntOps,
    IntPoly,
    QuadElem,
    QuadOps,
    domain_of,
    factor_low_degree,
)

from conftest import (
    T,
    candidate_polys_over_zt,
    columns,
    det3_cols,
    evaluate,
    family,
    field_columns,
    format_family,
    generic_flats_over_zt,
    poly,
    quadratic_root,
    sym,
    zt,
)

DATA = Path(__file__).resolve().parent.parent / "src" / "freearr" / "data"


class TestFamilies:
    def test_builtins_are_the_papers_columns(self):
        """data/paper13.fam and data/paper15.fam hold the columns of the
        13- and 15-line families of arXiv:1406.6154."""
        paper13 = family(
            "paper13", (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, -1),
            (0, 1, -1), (1, 1, -1), (1, 0, -T), (0, 1, -T), (1, 1, -T),
            (1, 1, -T - 1), (T, 1, -T), (1, 1 - T, -1), (T - 1, T, -T * T))
        paper15 = family(
            "paper15", (1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1), (1, T, 1),
            (0, 1, 0), (2, 1, 1), (T + 1, T, 1), (T + 1, 1, 1), (2 * T, T, 1),
            (1, 1 - T, 1), (1 - 3 * T, T * T - 3 * T + 1, -T),
            (3 * T - 1, T, T), (1 - 3 * T, -T * T, -T),
            (3 * T - 1, 2 * T - 1, T))
        assert mod.builtin_family("paper13") == paper13
        assert mod.builtin_family("paper15") == paper15

    def test_13_column_entries(self):
        f = mod.builtin_family("paper13")
        assert f.n == 13
        assert f.columns[0] == (poly(1), IntPoly(()), IntPoly(()))
        # column 13 is (t-1, t, -t^2)
        assert f.columns[12] == (poly(-1, 1), poly(0, 1), poly(0, 0, -1))

    def test_15_column_entries(self):
        f = mod.builtin_family("paper15")
        assert f.n == 15
        # column 12 is (1-3t, t^2-3t+1, -t)
        assert f.columns[11] == (poly(1, -3), poly(1, -3, 1), poly(0, -1))

    def test_validation_rejects_proportional_columns(self):
        with pytest.raises(InputError):
            family("bad", (1, 0, 0), (2, 0, 0))

    def test_validation_checks_the_shape_of_each_column(self):
        """A column of other than three entries, or with an entry that is
        not an IntPoly, is refused by its number, as a zero column is."""
        e1, e2, e3 = columns((1, 0, 0), (0, 1, 0), (0, 0, 1))
        t = poly(0, 1)
        for cols, j in (((e1, e2, (t, poly(1))), 3),
                        (((poly(1), t), e2, e3), 1),
                        ((e1, e2, e3, (t, poly(1), poly(2), poly(3))), 4),
                        ((e1, (0, 1, t), e3), 2),
                        ((e1, e2, (poly(1), 1, t)), 3),
                        ((e1, e2, (t, poly(1), 2.0)), 3)):
            with pytest.raises(InputError,
                               match=f"^column {j} is not three IntPoly "
                                     "entries$"):
                mod.Family("bad", cols)
        with pytest.raises(InputError, match="^column 2 is identically "
                           "zero$"):
            mod.Family("bad", (e1, (poly(), poly(), poly()), e3))
        # the file parser keeps its own line-numbered messages
        with pytest.raises(InputError, match="^line 2: expected three "):
            mod.parse_family_text("1; 0; 0\n0; 1\n0; 0; 1\n")

    def test_proportional_pair_by_a_factor_of_t_or_minus_one(self):
        # 3 = t * 2 and 4 = -1 * 1: the lexicographically first pair is (1, 4)
        with pytest.raises(ValueError, match="^columns 1 and 4 are "
                           "identically proportional$"):
            family("bad", (1, T, 0), (0, 1, T), (0, T, T * T), (-1, -T, 0))
        with pytest.raises(ValueError, match="^columns 2 and 3 are "):
            family("bad", (1, 0, 0), (T - 1, T, 0), (1 - T, -T, 0),
                   (0, 0, 2))

    def test_pairs_that_meet_only_at_one_power_of_two(self):
        """(t, 2^e, 0) and (2^e, 1, 0) are proportional at t = 2^(2e) only:
        a packing base that covers the entries but not the cross products
        would take them for one line."""
        for e in range(1, 40):
            a = 1 << e
            family("near", (T, a, 0), (a, 1, 0), (0, 0, 1))
            with pytest.raises(ValueError, match="^columns 1 and 3 are "):
                family("bad", (T, a, 0), (a, 1, 0), (a * T, a * a, 0))

    def test_error_pair_is_the_first_by_cross_products(self):
        """The reported pair is the first (i, j) in lexicographic order
        whose cross product vanishes in Z[t], as n(n-1)/2 crosses find it."""
        rng = random.Random(14)
        factors = (T, -T, -1, 3, 2 * T - 1, T * T + 1)
        big = 1 << 70

        def small():
            return IntPoly(rng.randint(-2, 2)
                           for _ in range(rng.randint(1, 2)))

        def wide():
            """0, or an entry of degree <= 4 with coefficients near 2^70
            and a negative leading coefficient."""
            if rng.random() < 0.2:
                return IntPoly()
            return IntPoly([rng.choice((-1, 1)) * rng.randint(big - 9, big)
                            for _ in range(rng.randint(0, 4))]
                           + [-rng.randint(big - 9, big)])

        wide_factors = (-1, big + 3, T - big, 1 - big * T ** 3, T * T + 1)
        for entry, factors, rounds in ((small, factors, 60),
                                       (wide, wide_factors, 40)):
            for _ in range(rounds):
                cols = [tuple(entry() for _ in range(3))
                        for _ in range(rng.randint(3, 5))]
                if not all(any(c) for c in cols):
                    continue
                for _ in range(rng.randint(1, 2)):
                    q = rng.choice(factors)
                    cols.insert(rng.randint(0, len(cols)), tuple(
                        zt(q * sym(x)) for x in rng.choice(cols)))
                if entry is wide:   # a copy one off in its first entry
                    col = rng.choice(cols)
                    cols.insert(rng.randint(0, len(cols)),
                                (zt(sym(col[0]) + 1),) + col[1:])
                over_zt = [tuple(map(sym, col)) for col in cols]
                first = next((i + 1, j + 1) for i in range(len(cols))
                             for j in range(i + 1, len(cols))
                             if not any(ring_cross(IntOps, over_zt[i],
                                                   over_zt[j])))
                with pytest.raises(ValueError) as exc:
                    mod.Family("bad", tuple(cols))
                assert str(exc.value) == ("columns {} and {} are identically "
                                          "proportional".format(*first))


class TestGenericLattices:
    def test_13_has_30_flats(self):
        lat = mod.generic_lattice(mod.builtin_family("paper13"))
        assert len(lat.flats) == 30
        sizes = sorted(len(f) for f in lat.flats)
        assert sizes == [2] * 21 + [3] * 3 + [4] * 3 + [5] * 3

    def test_15_has_39_flats(self):
        lat = mod.generic_lattice(mod.builtin_family("paper15"))
        assert len(lat.flats) == 39
        sizes = sorted(len(f) for f in lat.flats)
        assert sizes == [2] * 27 + [3] * 6 + [5] * 6

    def test_generic_13_isomorphic_to_golden_listing(self):
        golden = am.parse_lattice_listing(
            (DATA / "paper13.lattice").read_text())
        lat = mod.generic_lattice(mod.builtin_family("paper13"))
        assert am.lattice_iso(lat, golden) is not None

    def test_generic_15_isomorphic_to_golden_listing(self):
        golden = am.parse_lattice_listing(
            (DATA / "paper15.lattice").read_text())
        lat = mod.generic_lattice(mod.builtin_family("paper15"))
        assert am.lattice_iso(lat, golden) is not None


def interleaved_family():
    """At t = 0 column 3 vanishes, 1, 4, 7 merge and 2, 5 merge."""
    return family("interleaved", (3, 0, 0), (0, 1, 0), (T, T, T), (1, 0, T),
                  (T, 2, 0), (0, 0, 1), (2, T, 0))


class TestSpecialize:
    def test_13_generic_value(self, a13):
        f = mod.builtin_family("paper13")
        spec = mod.specialize(f, 3)
        assert spec.count == 13
        assert mod.vL_membership(f, mod.generic_lattice(f), 3)
        assert spec.dropped == ()
        assert spec.merges == ()
        assert a13.n == 13

    def test_13_at_zero_drops_column(self):
        # column 13 = (t-1, t, -t^2) stays, but columns merge at t=0:
        # (1,0,-t) -> (1,0,0) = column 1 etc.
        spec = mod.specialize(mod.builtin_family("paper13"), 0)
        assert spec.count < 13

    def test_13_at_two_changes_lattice(self):
        f = mod.builtin_family("paper13")
        spec = mod.specialize(f, 2)
        assert spec.count == 13
        assert not mod.vL_membership(f, mod.generic_lattice(f), 2)

    def test_13_at_sixth_root_merges_columns(self):
        # at a root of t^2 - t + 1, columns 11, 12 and 13 all coincide
        omega = QuadElem(-3, Fraction(1, 2), Fraction(1, 2))
        spec = mod.specialize(mod.builtin_family("paper13"), omega)
        assert spec.count == 11
        assert spec.merges == ((11, 12, 13),)

    def test_interleaved_merge_groups(self):
        spec = mod.specialize(interleaved_family(), 0)
        assert spec.dropped == (3,)
        assert spec.merges == ((1, 4, 7), (2, 5))
        assert spec.count == 3
        # each group keeps its first column as evaluated, unscaled
        assert field_columns(spec.arrangement) == (
            (3, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_all_columns_merge_or_vanish(self):
        # degenerate specializations are data: one or no column left
        merged = family("merged", (1, 0, 0), (1, T, 0), (1, 0, T))
        spec = mod.specialize(merged, 0)
        assert (spec.arrangement, spec.count) == (None, 1)
        assert spec.merges == ((1, 2, 3),)
        assert not mod.vL_membership(merged, mod.generic_lattice(merged), 0)
        vanished = family("vanished", (T, 0, 0), (0, T, 0), (0, 0, T))
        spec = mod.specialize(vanished, 0)
        assert (spec.arrangement, spec.count) == (None, 0)
        assert spec.dropped == (1, 2, 3)
        assert not mod.vL_membership(
            vanished, mod.generic_lattice(vanished), 0)

    def test_a_fault_in_the_rank_test_reaches_the_caller(self, monkeypatch):
        # specialize catches nothing: only a rank below 3 gives None.  The
        # constant columns lie in the plane z = 0, so each member's rank is
        # tested (Family.spans)
        def fault(*args):
            raise ValueError("injected fault")

        f = family("plane", (1, 0, 0), (0, 1, 0), (1, 1, 0), (T, 1, 1),
                   (1, T, 1))
        assert not f.spans
        monkeypatch.setattr(linalg, "ring_dot", fault)
        with pytest.raises(ValueError, match="^injected fault$"):
            mod.specialize(f, 3)

    def test_generic_lattice_needs_three_columns(self):
        with pytest.raises(am.NotEssentialError):
            mod.generic_lattice(family("one", (1, 0, 0)))

    def test_15_at_golden_square_changes_lattice(self):
        # (3+sqrt5)/2 is a root of t^2 - 3t + 1
        omega = QuadElem(5, Fraction(3, 2), Fraction(1, 2))
        f = mod.builtin_family("paper15")
        spec = mod.specialize(f, omega)
        assert spec.count == 15
        assert not mod.vL_membership(f, mod.generic_lattice(f), omega)

    def test_15_at_minus_one_is_generic(self):
        f = mod.builtin_family("paper15")
        spec = mod.specialize(f, -1)
        assert spec.count == 15
        assert mod.vL_membership(f, mod.generic_lattice(f), -1)


@pytest.fixture
def no_specialization(monkeypatch):
    """Make building a specialized arrangement or lattice fail."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the family was specialized")

    for name in ("specialize", "Arrangement", "_compute_lattice",
                 "lattice_iso"):
        monkeypatch.setattr(mod, name, forbidden)


class TestDegeneracySet:
    def test_13_family(self, no_specialization):
        rep = mod.degeneracy_set(mod.builtin_family("paper13"))
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
        rep = mod.degeneracy_set(mod.builtin_family("paper15"))
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
        f = mod.builtin_family("paper13")
        rep = mod.degeneracy_set(f)
        generic = mod.generic_lattice(f)
        for k in range(3, 23):
            omega = Fraction(k, 7)
            if omega in rep.rational:
                continue
            assert mod.vL_membership(f, generic, omega)

    def test_classification_closure(self):
        # re-verify every reported value by direct specialization
        f = mod.builtin_family("paper15")
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
            root = quadratic_root(coeffs)
            assert evaluate(IntPoly(coeffs), root) == 0
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
        f = mod.builtin_family("paper13")
        rep = mod.degeneracy_set(f)
        for omega in rep.rational:
            mod.specialize(f, omega)
        for coeffs in rep.quadratic:
            mod.specialize(f, quadratic_root(coeffs))
        # neither reads the generic lattice; vL_membership takes it
        assert calls == []

    def test_candidates_are_distinct_primitive_polys(self):
        cands = mod._candidate_polys(mod.builtin_family("paper15"))
        assert len(cands) == 24
        assert len(set(cands)) == 24
        assert all(p == p.primitive() for p in cands)

    def test_quadratic_root_of_negative_discriminant(self):
        root = quadratic_root((1, -1, 1))
        assert (root.d, root.a, root.b) == (-3, Fraction(1, 2), Fraction(1, 2))
        assert evaluate(IntPoly((1, -1, 1)), root) == 0

    def test_15_exceptional_values_give_free_1_5_9(self):
        f = mod.builtin_family("paper15")
        for coeffs in ((1, -3, 1), (-1, 1, 1)):
            root = quadratic_root(coeffs)
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
        for q in factor_low_degree(p)[0]:
            if q.degree == 1:
                target, key = rational, Fraction(-q.coeffs[0], q.coeffs[1])
                omega = key
            else:
                target, key = quadratic, q.coeffs
                omega = quadratic_root(key)
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
                specialized_degeneracies(f), format_family(f)
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


def benchmark_style_family(rng):
    """As the benchmark draws its random families: 5-7 columns, one with
    entries of degrees (0, 0, 1), (0, 1, 2), (2, 2, 2) or (0, 0, 2) in
    random positions and the others constant, coefficients in [-3, 3],
    then t -> +-t + b and an integer change of coordinates.  None if two
    columns are proportional."""
    n = rng.randint(5, 7)
    degrees = list(rng.choice(((0, 0, 1), (0, 1, 2), (2, 2, 2), (0, 0, 2))))
    rng.shuffle(degrees)
    cols = [tuple(IntPoly(rng.randint(-3, 3) for _ in range(d + 1))
                  for d in degrees)]
    cols += [tuple(poly(rng.randint(-3, 3)) for _ in range(3))
             for _ in range(n - 1)]
    rng.shuffle(cols)
    shift = sympy.Poly(rng.randint(-2, 2) + rng.choice((1, -1)) * T, T)
    m = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
    cols = [[sym(e).compose(shift) for e in col] for col in cols]
    cols = [tuple(zt(sum(m[r][c] * e for c, e in enumerate(col)))
                  for r in range(3)) for col in cols]
    try:
        return mod.Family("bench", tuple(cols))
    except ValueError:
        return None


def scaled_family(f, rng):
    """f with each column times its own polynomial of degree <= 2 whose
    coefficients reach 2^70 in size and whose lead has either sign: the same
    lines, entries of degree up to 4, and pair minors with a common
    factor."""
    big = 2 ** 70
    return mod.Family(f.name, tuple(
        tuple(zt(s * sym(e)) for e in col) for col in f.columns
        for s in [sym(IntPoly(rng.choice((1, -1)) * rng.randint(big // 2, big)
                              for _ in range(rng.randint(1, 3))))]))


@pytest.fixture(scope="module")
def scan_families():
    """The paper families, random_family and benchmark-style draws, and
    scaled copies of some of each."""
    rng = random.Random(20261019)
    fams = [mod.builtin_family("paper13"), mod.builtin_family("paper15")]
    for draw in (random_family, benchmark_style_family):
        drawn = []
        while len(drawn) < 30:
            drawn += filter(None, [draw(rng)])
        fams += drawn
    fams += [scaled_family(f, rng) for f in fams[:2] + fams[2::6]]
    return fams


class TestPackedScans:
    """The family scans on packed integers agree with IntPoly minors."""

    def test_corpus_reaches_wide_entries(self, scan_families):
        entries = [p for f in scan_families for col in f.columns
                   for p in col if p]
        assert max(p.degree for p in entries) == 4
        assert max(abs(c) for p in entries for c in p.coeffs) >= 2 ** 64
        assert any(p.coeffs[-1] < 0 and p.degree > 0 for p in entries)

    def test_candidates_match_the_intpoly_oracle(self, scan_families):
        for f in scan_families:
            assert list(mod._candidate_polys(f).items()) == list(
                candidate_polys_over_zt(f).items()), format_family(f)

    def test_generic_flats_match_the_intpoly_oracle(self, scan_families):
        for f in scan_families:
            flats = generic_flats_over_zt(f)
            if len(flats) == 1:
                with pytest.raises(am.NotEssentialError):
                    mod.generic_lattice(f)
            else:
                assert mod.generic_lattice(f).flats == flats, \
                    format_family(f)

    @pytest.mark.parametrize("k", [2, 3, 7, 12, 64, 65, 200])
    def test_unpack_round_trips_at_the_largest_coefficients(self, k):
        top = 2 ** (k - 1) - 1
        for coeffs in ([top], [-top], [top, -top, 0, top], [0, 0, -top],
                       [-top, top, -top, top, -top], [1, 0, -top]):
            value = sum(c << k * e for e, c in enumerate(coeffs))
            assert mod._unpack(value, k) == IntPoly(coeffs)
            assert (abs(value) < 2 ** (k - 1)) == (len(coeffs) == 1)

    def test_packing_bound_holds_for_every_minor(self, scan_families):
        for f in scan_families[:2] + scan_families[-5:]:
            k, _ = mod._packed(f)
            cols = [tuple(map(sym, col)) for col in f.columns]
            heights = [abs(c) for i, j, m in combinations(range(f.n), 3)
                       for c in det3_cols(cols[i], cols[j], cols[m]).coeffs()]
            assert max(heights) < 2 ** (k - 1)

    def test_pair_with_a_constant_and_a_nonconstant_minor(self, monkeypatch):
        # e1 x (0, 1, t) = (0, -t, 1): the pair has no common root, so no
        # gcd is taken; the only locus is the determinant with (1, 1, 1)
        f = mod.parse_family_text("1; 0; 0\n0; 1; 0 1\n0; 0; 1\n1; 1; 1\n")
        calls = []
        real = mod.poly_gcd
        monkeypatch.setattr(mod, "poly_gcd",
                            lambda *a: calls.append(a) or real(*a))
        cands = mod._candidate_polys(f)
        assert list(cands.items()) == [(poly(-1, 1), False)]
        assert calls == []
        assert list(candidate_polys_over_zt(f).items()) == list(cands.items())

    @pytest.mark.parametrize("n", [5, 7])
    def test_no_minors_among_constant_columns(self, n, monkeypatch):
        """Families of n columns, c of them constant in t, for c = 0, 1, 2,
        n - 2, n - 1 and n: the candidates equal the IntPoly oracle's, in
        order, only the triples with a t-dependent column are dotted, and
        only the pairs that a gcd or a triple reads are crossed."""
        rng = random.Random(43 + n)
        dots, crosses, seen = [], [], set()
        real, real_cross = mod.ring_dot, mod.ring_cross
        monkeypatch.setattr(mod, "ring_dot",
                            lambda *a: dots.append(a) or real(*a))
        monkeypatch.setattr(mod, "ring_cross",
                            lambda *a: crosses.append(a) or real_cross(*a))

        def entry(degree):
            return IntPoly(rng.randint(-3, 3) for _ in range(degree + 1))

        for c in (0, 1, 2, n - 2, n - 1, n):
            for _ in range(4):
                cols = [tuple(entry(0) for _ in range(3)) for _ in range(c)]
                cols += [tuple(entry(rng.randint(0, 2)) for _ in range(3))
                         for _ in range(n - c)]
                rng.shuffle(cols)
                try:
                    f = mod.Family("mixed", tuple(cols))
                except ValueError:
                    continue
                c_fixed = sum(x is not None for x in f.fixed)
                seen.add(c_fixed)
                dots.clear()
                crosses.clear()
                cands = mod._candidate_polys(f)
                assert list(cands.items()) == list(
                    candidate_polys_over_zt(f).items()), format_family(f)
                assert len(dots) == comb(n, 3) - comb(c_fixed, 3)
                # a pair of constant columns followed by constant ones only
                # is read by no gcd and no triple
                unread = sum(all(x is not None for x in f.fixed[i:i + 1]
                                 + f.fixed[j:]) for i, j in
                             combinations(range(n), 2))
                assert len(crosses) == comb(n, 2) - unread
                if c_fixed == n:
                    assert cands == {}
        assert seen >= {0, 1, 2, n - 2, n - 1, n}

    def test_gcd_chain_stops_at_a_constant_gcd(self, monkeypatch):
        # (0, 1, t) x (t, t + 1, 1) = (-t^2 - t + 1, t^2, -t): three
        # nonconstant minors, the first two coprime, so the third is not
        # read; the pairs with e1 have a constant minor and take no gcd
        f = mod.parse_family_text("0; 1; 0 1\n0 1; 1 1; 1\n1; 0; 0\n")
        calls = []
        real = mod.poly_gcd
        monkeypatch.setattr(mod, "poly_gcd",
                            lambda *a: calls.append(a) or real(*a))
        cands = mod._candidate_polys(f)
        assert calls == [(poly(1, -1, -1), poly(0, 0, 1))]
        assert list(cands.items()) == [(poly(-1, 1, 1), False)]
        assert list(candidate_polys_over_zt(f).items()) == list(cands.items())


def field_specialize(f, omega):
    """Reference specialization in field arithmetic: every entry evaluated
    at omega by Horner in Q or Q(sqrt d), columns grouped by normal_column,
    the first column of each group kept as evaluated, and the rank tested
    by field determinants.  (count, dropped, merges, domain name, columns),
    with the domain and columns None below rank 3."""
    omega = domain_of(omega).field(omega)
    values = [tuple(evaluate(p, omega) for p in col) for col in f.columns]
    dropped = tuple(i + 1 for i, col in enumerate(values) if not any(col))
    groups = {}
    for label, col in enumerate(values, start=1):
        if any(col):
            groups.setdefault(am.normal_column(col), []).append(label)
    kept = [values[g[0] - 1] for g in groups.values()]
    merges = tuple(tuple(g) for g in groups.values() if len(g) > 1)
    if len(kept) < 3 or not any(det3_cols(kept[0], kept[1], c)
                                for c in kept[2:]):
        return len(kept), dropped, merges, None, None
    return (len(kept), dropped, merges, domain_of(omega).name,
            typed(kept))


def typed(cols):
    return [[(type(x).__name__, x) for x in col] for col in cols]


def outcome(spec):
    arr = spec.arrangement
    if arr is None:
        return spec.count, spec.dropped, spec.merges, None, None
    return (spec.count, spec.dropped, spec.merges, arr.ops.name,
            typed(field_columns(arr)))


def random_value(rng):
    """A rational, or an element of Q(sqrt d) whose b may be 0."""
    def rat():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    if rng.random() < 0.5:
        return rat()
    b = rat() if rng.random() < 0.8 else Fraction(0)
    return QuadElem(rng.choice((2, 3, 5, -1, -2, -3, 6, -7)), rat(), b)


def degree3_family(rng):
    """5-7 columns, one of them with entries of degree up to 3, another a
    rational multiple of a column at some t, so that merges occur."""
    n = rng.randint(5, 7)
    cols = [tuple(poly(rng.randint(-2, 2)) for _ in range(3))
            for _ in range(n - 2)]
    cols.append(tuple(IntPoly(rng.randint(-2, 2)
                              for _ in range(rng.randint(1, 4)))
                      for _ in range(3)))
    w = rng.randint(-2, 2)
    base = rng.choice(cols[:-1])
    cols.append(tuple(zt(sym(c) * rng.choice((1, -2, 3)) + T * rng.choice(
        (0, 1)) - w * rng.choice((0, 1))) for c in base))
    rng.shuffle(cols)
    try:
        return mod.Family("random", tuple(cols))
    except ValueError:
        return None


class TestIntegralSpecialization:
    """specialize on integral images agrees with field arithmetic."""

    def assert_agrees(self, f, omega):
        """The oracle's outcome, and the ring columns and keys that build
        makes of the field columns: primitive, whatever the content."""
        spec = mod.specialize(f, omega)
        assert outcome(spec) == field_specialize(f, omega), (
            format_family(f), omega)
        if spec.arrangement is not None:
            arr = spec.arrangement
            built = am.build(field_columns(arr), arr.ops)
            assert (arr.ring_columns, arr.keys) == (built.ring_columns,
                                                    built.keys)

    def test_paper_families_at_reported_and_random_values(self):
        rng = random.Random(1406)
        for f in map(mod.builtin_family, ("paper13", "paper15")):
            rep = mod.degeneracy_set(f)
            values = list(rep.rational) + [quadratic_root(q)
                                           for q in rep.quadratic]
            for omega in values + [random_value(rng) for _ in range(12)]:
                self.assert_agrees(f, omega)

    def test_random_families(self):
        rng = random.Random(61540)
        checked = 0
        signs = set()
        while checked < 40:
            f = random_family(rng) if checked % 2 else degree3_family(rng)
            if f is None:
                continue
            checked += 1
            rep = mod.degeneracy_set(f)
            values = list(rep.rational) + [quadratic_root(q)
                                           for q in rep.quadratic]
            signs |= {omega.d < 0 for omega in values[len(rep.rational):]}
            for omega in values + [random_value(rng) for _ in range(4)]:
                self.assert_agrees(f, omega)
        assert signs == {False, True}

    def test_drops_merges_and_rank_loss(self):
        # at t = +-sqrt 2 columns 5 and 6 vanish, 3 and 4 merge by the
        # irrational factor sqrt 2, and the rest lie in the plane z = 0
        f = family("degenerate", (1, 0, 0), (0, 1, 0), (1, T, 0), (T, 2, 0),
                   (T * T - 2, T * T - 2, 0), (0, 0, T * T - 2),
                   (1, 1, T * T - 2))
        root = QuadElem(2, 0, 1)
        spec = mod.specialize(f, root)
        assert (spec.count, spec.dropped, spec.merges, spec.arrangement) \
            == (4, (5, 6), ((3, 4),), None)
        merged = family("merged", (1, 0, 0), (1, T, 0), (1, 0, T))
        for g in (f, merged):
            for omega in (root, -root, root + 1, QuadElem(-2, 1, 1), 0, 2,
                          Fraction(-1, 3), QuadElem(2, 0), QuadElem(-7, 0)):
                self.assert_agrees(g, omega)

    def test_quadratic_points_with_zero_irrational_part(self):
        f = mod.builtin_family("paper13")
        for omega in (QuadElem(5, 0), QuadElem(-3, 2), QuadElem(2, 3),
                      QuadElem(-1, Fraction(1, 2))):
            self.assert_agrees(f, omega)
            arr = mod.specialize(f, omega).arrangement
            assert arr is None or arr.ops.name == f"QQ(sqrt {omega.d})"
        # at t = 0 columns vanish and merge, over Q(sqrt 5) as over Q
        spec = mod.specialize(f, QuadElem(5, 0))
        assert (spec.count, spec.dropped, spec.merges) == outcome(
            mod.specialize(f, 0))[:3]

    @pytest.mark.parametrize("m, roots", [
        (poly(-2, 3), [Fraction(2, 3)]),
        (poly(-2, 0, 1), [QuadElem(2, 0, 1), QuadElem(2, 0, -1)]),
        (poly(3, 0, 1), [QuadElem(-3, 0, 1), QuadElem(-3, 0, -1)]),
        (poly(-1, -1, 1), [quadratic_root((-1, -1, 1))]),
    ], ids=["rational", "sqrt2", "sqrt-3", "golden"])
    def test_constant_and_t_dependent_columns(self, m, roots):
        # the constant columns have content > 1 and some a negative lead;
        # the first three lie in the plane z = 0.  At a root of m one
        # t-dependent column vanishes and the other two merge with a
        # constant column, so only constant columns are left.
        m = sym(m)
        plane = columns((2, 0, 0), (-3, 6, 0), (0, -4, 0))
        moving = columns((m, T * m, m), (-3 * T + m, 6 * T, m),
                         (2 * T * T + m, m, T * m))
        off = columns((-5, 10, 15))
        mixed = tuple(c for pair in zip(plane, moving) for c in pair)
        rng = random.Random(41)
        for cols, rank3 in ((mixed, False), (mixed + off, True),
                            (moving + off + plane, True)):
            f = mod.Family("mixed", cols)
            assert [c is not None for c in f.fixed] == [
                c in plane + off for c in cols]
            for omega in roots:
                spec = mod.specialize(f, omega)
                assert (spec.count, len(spec.dropped), len(spec.merges)) \
                    == (3 + rank3, 1, 2)
                assert (spec.arrangement is not None) == rank3
                self.assert_agrees(f, omega)
            d = roots[-1].d if isinstance(roots[-1], QuadElem) else 5
            for omega in (0, 1, Fraction(-7, 2), QuadElem(d, 2),
                          QuadElem(d, Fraction(1, 3), -1), QuadElem(-d, 1, 1),
                          random_value(rng), random_value(rng)):
                self.assert_agrees(f, omega)

    def test_constant_families(self):
        plane = columns((2, 0, 0), (-3, 6, 0), (0, -4, 0))
        for cols in (plane, plane + columns((-5, 10, 15))):
            f = mod.Family("constant", cols)
            assert all(f.fixed)
            for omega in (0, Fraction(5, 3), QuadElem(2, 1, 1),
                          QuadElem(-3, 0, 1), QuadElem(5, 7)):
                self.assert_agrees(f, omega)


QUADRATIC_LOCI = (T ** 2 - 2, T ** 2 + 3, T ** 2 - T - 1, T ** 2 + 1,
                  2 * T ** 2 - 3)


def tabled_family(rng, spans):
    """Constant columns, at least three if spans and otherwise in the plane
    z = 0, and up to three columns that depend on t, each of one kind at
    the roots of one m, linear or an irreducible quadratic: s c + m w
    merges with the constant column c, wherever the shuffle puts it,
    m (w + t w') vanishes, and a free column has random entries of degree
    <= 2.  An integer change of coordinates then mixes the entries.  None
    if the columns are not a family."""
    def vector(plane=False):
        while True:
            v = [rng.randint(-3, 3) for _ in range(2)]
            v.append(0 if plane else rng.randint(-3, 3))
            if any(v):
                return v

    k = rng.randint(3, 5) if spans else rng.randint(0, 4)
    consts = [vector(not spans) for _ in range(k)]
    m = (rng.randint(-3, 3) + rng.randint(1, 3) * T if rng.random() < 0.5
         else rng.choice(QUADRATIC_LOCI))
    cols = list(consts)
    for kind in rng.sample(("merge", "merge", "vanish", "free"),
                           rng.randint(1, 3)):
        w = vector()
        if kind == "merge" and consts:
            s = rng.choice((1, -2, 3))
            cols.append([s * x + m * y for x, y in zip(rng.choice(consts), w)])
        elif kind == "vanish":
            cols.append([m * (x + T * y) for x, y in zip(w, vector())])
        else:
            cols.append([sum(rng.randint(-2, 2) * T ** k for k in range(3))
                         for _ in range(3)])
    rng.shuffle(cols)
    mat = [[0] * 3] * 3
    while not det3_cols(*mat):
        mat = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
    try:
        return mod.Family("tabled", tuple(
            tuple(zt(sum(a * e for a, e in zip(row, col))) for row in mat)
            for col in cols))
    except ValueError:
        return None


def first_labels(spec, n):
    """The label of the first column of each group, in group order."""
    later = {label for group in spec.merges for label in group[1:]}
    return [label for label in range(1, n + 1)
            if label not in later and label not in spec.dropped]


class TestFamilyTables:
    """specialize reads each constant column, with its key, from a table
    its Family made once, and tests the rank only when the constant
    columns do not span (Family.spans); it agrees with field arithmetic
    (field_specialize) all the same."""

    def test_random_families_against_field_arithmetic(self, monkeypatch):
        rng = random.Random(1406049)
        fams = []
        while len(fams) < 40:
            fams += filter(None, [tabled_family(rng, len(fams) % 2 == 0)])
        real, rank_tests, seen = mod._has_rank3, [], set()
        monkeypatch.setattr(mod, "_has_rank3",
                            lambda *args: rank_tests.append(1) or real(*args))
        for f in fams:
            consts = [tuple(evaluate(p, 0) for p in col)
                      for col, fixed in zip(f.columns, f.fixed) if fixed]
            assert f.spans == any(det3_cols(*cs)
                                  for cs in combinations(consts, 3))
            rep = mod.degeneracy_set(f)
            roots = [quadratic_root(q) for q in rep.quadratic]
            values = (list(rep.rational) + roots
                      + [QuadElem(r.d, r.a, -r.b) for r in roots]
                      + [random_value(rng) for _ in range(3)])
            for omega in values:
                rank_tests.clear()
                spec = mod.specialize(f, omega)
                assert outcome(spec) == field_specialize(f, omega), (
                    format_family(f), omega)
                assert len(rank_tests) == (not f.spans)
                seen.add((f.spans, spec.arrangement is None))
                seen.update("dropped" for _ in spec.dropped)
                for first, *rest in spec.merges:
                    constant = [f.fixed[label - 1] is not None
                                for label in rest]
                    if f.fixed[first - 1] and not all(constant):
                        seen.add("after a constant column")
                    if not f.fixed[first - 1] and any(constant):
                        seen.add("before a constant column")
                arr = spec.arrangement
                if arr is None:
                    continue
                # the constant columns are the table's own forms and keys
                table = f.paired if arr.ops.parts == 2 else f.fixed
                for i, label in enumerate(first_labels(spec, f.n)):
                    if table[label - 1]:
                        _, form, key = table[label - 1]
                        assert arr.ring_columns[i] is form
                        assert arr.keys[i] is key
        assert seen == {(True, False), (False, False), (False, True),
                        "dropped", "after a constant column",
                        "before a constant column"}

    def test_the_pair_layout_is_made_on_first_read(self):
        """Rational members read Family.fixed, and Family.paired is made
        by the first member over some Q(sqrt d) and kept for every d."""
        f = mod.builtin_family("paper13")
        for omega in (3, 0, Fraction(5, 7)):
            mod.specialize(f, omega)
        assert "paired" not in vars(f)
        members = [mod.specialize(f, omega).arrangement
                   for omega in (QuadElem(5, 1, 1), QuadElem(-3, 2, 1))]
        table = vars(f)["paired"]
        assert table[:6] == tuple(
            (g, tuple((x, 0) for x in form), tuple(
                y for x in key for y in (x, 0)))
            for g, form, key in f.fixed[:6])
        assert table[6:] == (None,) * 7
        for arr in members:
            assert arr.n == 13
            assert all(arr.ring_columns[j] is table[j][1]
                       and arr.keys[j] is table[j][2] for j in range(6))


def eager_columns(f, omega, firsts):
    """The field columns of the given (0-based) columns of f at omega, each
    entry evaluated in the field, made at once."""
    omega = domain_of(omega).field(omega)
    return typed(tuple(evaluate(p, omega) for p in f.columns[i])
                 for i in firsts)


class TestDeferredFieldColumns:
    """specialize makes no field column: the ring columns and scales it
    keeps give those of the eager evaluation."""

    @pytest.mark.parametrize("f, omega, firsts", [
        (mod.builtin_family("paper13"), 3, range(13)),
        (mod.builtin_family("paper15"),
         QuadElem(5, Fraction(3, 2), Fraction(1, 2)), range(15)),
        (interleaved_family(), 0, (0, 1, 5)),     # 1, 2 and 6 are kept
    ], ids=["paper13", "paper15", "interleaved"])
    def test_columns_equal_the_eager_ones(self, f, omega, firsts):
        arr = mod.specialize(f, omega).arrangement
        assert arr.n == len(firsts)
        assert type(field_columns(arr)) is tuple
        assert all(type(col) is tuple for col in field_columns(arr))
        assert typed(field_columns(arr)) == eager_columns(f, omega, firsts)

    def test_membership_path_makes_no_field_scalar(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a field scalar was made")

        f = mod.builtin_family("paper13")
        generic = mod.generic_lattice(f)
        monkeypatch.setattr(IntOps, "from_coords", forbidden)
        monkeypatch.setattr(QuadOps, "from_coords", forbidden)
        rep = mod.degeneracy_set(f)
        values = list(rep.rational) + [quadratic_root(q)
                                       for q in rep.quadratic] + [3]
        for omega in values:
            arr = mod.specialize(f, omega).arrangement
            if arr is not None:
                arr.lattice()
            mod.vL_membership(f, generic, omega)
        with pytest.raises(AssertionError, match="field scalar"):
            field_columns(mod.specialize(f, 3).arrangement)

    @pytest.mark.parametrize("f, omega", [
        (mod.builtin_family("paper13"), 3),
        (mod.builtin_family("paper15"),
         QuadElem(5, Fraction(3, 2), Fraction(1, 2))),
    ], ids=["paper13", "paper15"])
    def test_deletion_and_induction_make_no_field_scalar(self, f, omega,
                                                         monkeypatch):
        # deletions slice the ring columns, keys and scales
        def forbidden(*args):
            raise AssertionError("a field scalar was made")

        arr = mod.specialize(f, omega).arrangement
        monkeypatch.setattr(IntOps, "from_coords", forbidden)
        monkeypatch.setattr(QuadOps, "from_coords", forbidden)
        sub, _ = am.delete(arr, 1)
        assert sub.lattice().n == arr.lattice().n - 1
        assert sub.scales == arr.scales[1:]
        inductively_free(arr)
        monkeypatch.undo()
        assert field_columns(sub) == field_columns(arr)[1:]


class TestVLMembership:
    def test_generic_lattice_membership(self):
        f = mod.builtin_family("paper13")
        lat = mod.generic_lattice(f)
        assert mod.vL_membership(f, lat, 3)
        assert not mod.vL_membership(f, lat, 2)       # lattice changes
        assert not mod.vL_membership(f, lat, 0)       # count drops

    def test_failed_iso_check_raises(self, monkeypatch):
        f = mod.builtin_family("paper13")
        lat = mod.generic_lattice(f)
        monkeypatch.setattr(am, "_check_iso", lambda l1, l2, m: False)
        with pytest.raises(am.InvariantError):
            mod.vL_membership(f, lat, 3)


class TestFamilyFormat:
    def test_round_trip(self):
        for f in map(mod.builtin_family, ("paper13", "paper15")):
            back = mod.parse_family_text(format_family(f), f.name)
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

    @pytest.mark.parametrize("token", ["1_000", "\u0661", "+\u0661\u0662",
                                       "1_0", "\uff11"])
    def test_integers_in_ascii_digits_only(self, token):
        """int() accepts underscores and other Unicode digits; a family
        file does not."""
        text = f"1; 0; 0\n0; 1; 0\n0; 0; 1\n1; 1 {token}; 1\n"
        with pytest.raises(ValueError) as exc:
            mod.parse_family_text(text)
        assert str(exc.value) == f"line 4: not an integer: {token!r}"

    @pytest.mark.parametrize("token, message", [
        ("x", "invalid literal for int() with base 10: 'x'"),
        ("1.5", "invalid literal for int() with base 10: '1.5'"),
        ("1e3", "invalid literal for int() with base 10: '1e3'"),
        ("1__0", "invalid literal for int() with base 10: '1__0'"),
    ])
    def test_tokens_int_refuses_keep_its_message(self, token, message):
        with pytest.raises(ValueError) as exc:
            mod.parse_family_text(f"1; 0; 0\n0; {token}; 0\n0; 0; 1\n")
        assert str(exc.value) == f"line 2: {message}"

    def test_signed_ascii_integers_parse(self):
        f = mod.parse_family_text("+1; 0; 0\n0; -01; 0\n0; 0; 1 -2\n")
        assert f.columns == columns((1, 0, 0), (0, -1, 0), (0, 0, 1 - 2 * T))

    def test_constant_family_specializes_everywhere(self):
        f = mod.parse_family_text("1; 0; 0\n0; 1; 0\n0; 0; 1\n")
        rep = mod.degeneracy_set(f)
        assert rep.rational == {} and rep.quadratic == {}
        assert mod.vL_membership(f, mod.generic_lattice(f), 17)


class TestMultiplicityInvariance:
    def test_profile_constant_off_the_exceptional_set(self):
        f = mod.builtin_family("paper15")
        generic_profile = sorted(
            len(fl) for fl in mod.generic_lattice(f).flats)
        for omega in (3, -2, Fraction(7, 3)):
            spec = mod.specialize(f, omega)
            profile = sorted(
                len(fl) for fl in spec.arrangement.lattice().flats)
            assert profile == generic_profile
