"""Intersection lattices, characteristic polynomials, isomorphism."""
import gc
import random
import re
import weakref
from fractions import Fraction
from itertools import permutations, product
from math import factorial
from pathlib import Path

import pytest

from freearr import arrangement as am
from freearr import linalg
from freearr import moduli as mod
from freearr.freeness import Free, NotFree, decide_freeness, state_key
from freearr.induction import candidate_additions
from freearr.scalars import InvariantError, QQ, poly, quad_field, QuadElem

from conftest import (
    ASYMMETRIC20,
    aut_order_by_full_scan,
    boolean3,
    det3_cols,
    fault_keys,
    h3,
    monomial,
    near_pencil,
    quadratic_root,
    rational_arrangement,
    whitney_char_poly,
)


class TestBuildValidation:
    def test_zero_column(self):
        with pytest.raises(am.ZeroColumnError):
            rational_arrangement((1, 0, 0), (0, 0, 0), (0, 0, 1))

    def test_proportional_columns(self):
        with pytest.raises(am.ProportionalColumnsError):
            rational_arrangement((1, 0, 0), (-2, 0, 0), (0, 0, 1))
        # the lexicographically first pair is reported: 1 has the later
        # duplicate 5, although the pair (2, 3) is complete first
        with pytest.raises(am.ProportionalColumnsError,
                           match="^columns 1 and 5 are proportional$") as exc:
            rational_arrangement((1, 0, 0), (0, 1, 0), (0, 2, 0), (0, 0, 1),
                                 (3, 0, 0))
        assert (exc.value.i, exc.value.j) == (1, 5)

    def test_proportional_columns_in_quadratic_field(self):
        r = QuadElem(2, 0, 1)  # sqrt 2; (2, r, 0) = r * (r, 1, 0)
        with pytest.raises(am.ProportionalColumnsError,
                           match="^columns 2 and 4 are proportional$"):
            am.build([(1, 0, 0), (r, 1, 0), (0, 0, 1), (2, r, 0)])
        assert am.normal_column((2, r, 0)) == am.normal_column((r, 1, 0))

    def test_columns_over_another_field(self):
        r = QuadElem(5, 0, 1)
        with pytest.raises(am.ArrangementError,
                           match=r"^column 2 mixes QQ and QQ\(sqrt 5\)$"):
            am.build([(1, 0, 0), (0, r, 1), (0, 0, 1)], QQ)
        # the domain is that of the first irrational entry, in either order
        s2 = QuadElem(2, 0, 1)
        with pytest.raises(am.ArrangementError, match=r"^column 3 mixes "
                           r"QQ\(sqrt 5\) and QQ\(sqrt 2\)$"):
            am.build([(r, 0, 0), (0, 1, 0), (s2, 0, 1)])
        with pytest.raises(am.ArrangementError, match=r"^column 3 mixes "
                           r"QQ\(sqrt 2\) and QQ\(sqrt 5\)$"):
            am.build([(s2, 0, 0), (0, 1, 0), (r, 0, 1)])

    def test_columns_over_a_given_field(self):
        r5, s2 = QuadElem(5, 0, 1), QuadElem(2, 0, 1)
        with pytest.raises(am.ArrangementError, match=r"^column 2 mixes "
                           r"QQ\(sqrt 5\) and QQ\(sqrt 2\)$"):
            am.build([(1, r5, 0), (0, s2, 1), (0, 0, 1)], quad_field(5))
        # ints and Fractions enter any field; a non-scalar is no field's
        arr = am.build([(1, 0, 0), (0, Fraction(1, 2), 1), (0, 0, 1)],
                       quad_field(5))
        assert arr.ops is quad_field(5)
        assert all(type(x) is QuadElem for c in arr.columns for x in c)
        with pytest.raises(TypeError, match="^no scalar domain for float$"):
            am.build([(1, 0, 0), (0, 0.5, 1), (0, 0, 1)])

    def test_build_as_the_benchmark_calls_it(self, monkeypatch):
        """perfbench/worker.py builds rational jobs as build(cols, None)
        and quadratic ones as build(cols, quad_field(d))."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                        / "perfbench"))
        import gen
        fields = set()
        for job in gen.make_jobs("freeness_stream", 1, 20):
            ring = job["ring"]
            if ring == "QQ":
                ops = QQ
                arr = am.build([tuple(Fraction(x) for x in c)
                                for c in job["cols"]], None)
            else:
                ops = quad_field(ring)
                arr = am.build([tuple(QuadElem(ring, x.a, x.b) for x in c)
                                for c in job["cols"]], ops)
            assert arr.ops is ops and arr.n == len(job["cols"])
            assert arr.ring_columns == tuple(
                am.clear_column(ops, c)[1] for c in arr.columns)
            fields.add(ops.name)
        assert {"QQ", "QQ(sqrt 6)", "QQ(sqrt -1)"} <= fields

    def test_not_essential(self):
        with pytest.raises(am.NotEssentialError):
            rational_arrangement((1, 0, 0), (0, 1, 0), (1, 1, 0))

    def test_rank_over_quadratic_fields(self):
        """build's rank test on cleared Z[sqrt d] columns agrees with field
        determinants, including determinants with zero rational part."""
        for d in (2, 5, -1, -3):
            r = QuadElem(d, 0, 1)
            am.build([(1, 0, 0), (0, 1, 0), (0, 0, r)])       # det = sqrt d
            am.build([(1, 0, 0), (0, 1, 0), (r, r, r + 1)])   # det = 1 + sqrt d
            with pytest.raises(am.NotEssentialError):
                am.build([(1, 0, 0), (0, 1, 0), (r, 1 - r, 0)])
            rng = random.Random(d)
            for _ in range(150):
                third = (QuadElem(d, rng.randint(-1, 1), rng.randint(-1, 1)),
                         QuadElem(d, rng.randint(-1, 1), rng.randint(-1, 1)),
                         rng.choice((0, r, r + 1)))
                cols = [(1, r, 0), (r, 0, 1), third]
                try:
                    am.build(cols)
                except am.NotEssentialError:
                    essential = False
                except am.ArrangementError:
                    continue
                else:
                    essential = True
                assert essential == bool(det3_cols(*(
                    tuple(QuadElem(d, x) if isinstance(x, int) else x
                          for x in c) for c in cols))), cols

    def test_fewer_than_three_columns_are_not_essential(self):
        for cols in ([], [(1, 0, 0)], [(1, 0, 0), (0, 1, 0)]):
            with pytest.raises(am.NotEssentialError):
                am.build(cols)

    def test_unknown_label(self):
        with pytest.raises(am.UnknownLabelError):
            am.restriction_profile(boolean3(), 5)

    def test_domain_inference(self):
        arr = boolean3()
        assert arr.ops is QQ
        assert arr.n == 3


def key_of(col, ops):
    return am.line_key(ops, am.clear_column(ops, col)[1])


class TestLineKey:
    """line_key equality is normal_column equality, i.e. proportionality."""

    def column_pool(self, rng, d):
        """Columns with zeros in every position, each with multiples by
        rational and, over Q(sqrt d), irrational factors."""
        def scalar():
            a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if d is None:
                return a
            return QuadElem(d, a, Fraction(rng.randint(-2, 2),
                                           rng.randint(1, 3)))

        def nonzero():
            while not (x := scalar()):
                pass
            return x
        # two columns on every nonempty support, so zeros in every position
        base = [tuple(nonzero() if on else 0 * nonzero() for on in support)
                for support in product((False, True), repeat=3)
                if any(support) for _ in range(2)]
        pool = list(base)
        for col in base:
            for _ in range(2):
                lam = scalar()
                if lam:
                    pool.append(tuple(lam * x for x in col))
        return pool

    @pytest.mark.parametrize("d", [None, 2, 5, -1, -3])
    def test_key_equality_is_normal_column_equality(self, d):
        rng = random.Random(1406 + (d or 0))
        domain = QQ if d is None else quad_field(d)
        pool = self.column_pool(rng, d)
        keys = [key_of(c, domain) for c in pool]
        normals = [am.normal_column(c) for c in pool]
        equal = 0
        for i in range(len(pool)):
            for j in range(len(pool)):
                assert (keys[i] == keys[j]) == (normals[i] == normals[j]), \
                    (pool[i], pool[j])
                equal += keys[i] == keys[j] and i != j
        assert equal >= 2 * len(pool) // 3
        assert all(isinstance(v, int) for k in keys for v in k)

    @pytest.mark.parametrize("d", [2, 5, -1, -3])
    def test_irrational_factors(self, d):
        domain = quad_field(d)
        r = QuadElem(d, 0, 1)
        one = QuadElem(d, 1)
        zero = QuadElem(d, 0)
        # (d, r, 0) = r * (r, 1, 0): proportional only by the factor sqrt d
        pairs = [((r, one, zero), (r * r, r, zero), True),
                 ((zero, r + 1, one), (zero, r * r - 1, r - 1), True),
                 ((one, zero, r), (r, zero, one), False),
                 ((zero, zero, r + 3), (zero, zero, one), True),
                 ((one, r, zero), (one, -r, zero), False)]
        for u, v, same in pairs:
            assert (key_of(u, domain) == key_of(v, domain)) is same
            assert (am.normal_column(u) == am.normal_column(v)) is same

    def test_key_is_primitive_with_positive_lead(self):
        assert key_of((Fraction(-2, 3), 0, Fraction(4, 9)), QQ) == (3, 0, -2)
        assert key_of((0, 0, Fraction(-5)), QQ) == (0, 0, 1)
        r = QuadElem(5, 0, 1)
        # (0, sqrt 5, 1 + sqrt 5) times the conjugate -sqrt 5 of its lead
        assert key_of((r * 0, r, r + 1), quad_field(5)) == \
            (0, 0, 5, 0, 5, 1)


class TestLattice:
    def test_boolean_three_double_points(self):
        lat = boolean3().lattice()
        assert len(lat.flats) == 3
        assert lat.multiplicities() == (2, 2, 2)

    def test_generic_four_lines(self):
        arr = rational_arrangement((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
        lat = arr.lattice()
        assert len(lat.flats) == 6
        assert lat.multiplicities() == (2,) * 6

    def test_near_pencil(self):
        arr = near_pencil(5)
        lat = arr.lattice()
        assert sorted(len(f) for f in lat.flats) == [2, 2, 2, 2, 4]

    def test_pair_coverage_and_degree_identity(self, small_corpus):
        """Scanned lattices over Q, Q(sqrt -3), Q(i) and Q(sqrt 5), and on
        packed family columns, pass the listing check and its oracle."""
        point = mod.specialize(mod.family_15(), QuadElem(5, Fraction(3, 2),
                                                         Fraction(1, 2)))
        lats = [arr.lattice() for arr in small_corpus]
        lats += [monomial(r, k).lattice() for r in (3, 4) for k in (0, 1)]
        lats += [point.arrangement.lattice()]
        lats += [mod.generic_lattice(f)
                 for f in (mod.family_13(), mod.family_15())]
        for lat in lats:
            lat.validate()
            seen = {}
            for idx, flat in enumerate(lat.flats):
                for a in flat:
                    for b in flat:
                        if a < b:
                            assert (a, b) not in seen
                            seen[(a, b)] = idx
            n = lat.n
            assert len(seen) == n * (n - 1) // 2
            for h in range(1, n + 1):
                total = sum(len(lat.flats[f]) - 1
                            for f in lat.per_hyperplane[h - 1])
                assert total == n - 1

    @staticmethod
    def over_q_sqrt5(arr):
        """arr with its columns scaled by 1 - sqrt 5, 2 + sqrt 5, ... over
        Q(sqrt 5), so that every nonzero ring entry is irrational."""
        cols = [tuple(QuadElem(5, k, (-1) ** k) * x for x in c)
                for k, c in enumerate(arr.columns, start=1)]
        arr = am.build(cols)
        assert arr.ops is quad_field(5)
        assert all(x[1] for c in arr.ring_columns for x in c if x != (0, 0))
        return arr

    @staticmethod
    def assert_refuses_line_2_split(arr, monkeypatch):
        """A key that splits a point raises: negating the first key of
        near_pencil(5), that of c_1 x c_2, splits line 2 off the pencil's
        point, so row 1 marks (3, 4) in its flat {1, 3, 4} and row 2
        groups 3 and 4 again."""
        fault_keys(monkeypatch, lambda k, g: -g if k == 1 else g)
        with pytest.raises(InvariantError, match=r"pair \(3, 4\) in two"):
            arr.lattice()

    def test_pair_in_two_flats_raises(self, monkeypatch):
        self.assert_refuses_line_2_split(near_pencil(5), monkeypatch)

    def test_pair_in_two_flats_raises_over_a_quadratic_field(self,
                                                             monkeypatch):
        """The same fault in line_key, the key over Z[sqrt d]."""
        self.assert_refuses_line_2_split(self.over_q_sqrt5(near_pencil(5)),
                                         monkeypatch)

    @pytest.mark.parametrize("quad", [False, True])
    def test_merged_points_raise(self, quad, monkeypatch):
        """A key that merges two points raises: on the braid arrangement,
        a content far above the entries floors keys 6 and 7, row 2's of
        c_2 x c_3 and c_2 x c_5, to zero, so row 2 groups 3 with 5, whose
        pair the flat {1, 3, 5} of row 1 holds."""
        arr = rational_arrangement((1, 0, 0), (0, 1, 0), (0, 0, 1),
                                   (1, -1, 0), (1, 0, -1), (0, 1, -1))
        arr = self.over_q_sqrt5(arr) if quad else arr
        fault_keys(monkeypatch, lambda k, g: 1 << 64 if k in (6, 7) else g)
        with pytest.raises(InvariantError, match=r"pair \(3, 5\) in two"):
            arr.lattice()

    @pytest.mark.parametrize("at", [3, QuadElem(5, Fraction(3, 2),
                                                Fraction(1, 2))])
    def test_one_key_per_pair_outside_earlier_flats(self, at, monkeypatch):
        """Row i keys each pair (i, j) in no earlier flat once, so the scan
        computes sum(|X| - 1) keys over the flats X, and dots no column."""
        arr = mod.specialize(mod.family_15(), at).arrangement
        keys, dots = [], []
        fault_keys(monkeypatch, lambda k, g: keys.append(k) or g)
        monkeypatch.setattr(linalg, "ring_dot", lambda *args: dots.append(args))
        lat = arr.lattice()
        assert (len(keys), dots) == (sum(len(f) - 1 for f in lat.flats), [])

    def test_validate_checks_listings_only(self, monkeypatch):
        calls = []
        check = am.IntersectionLattice.validate
        monkeypatch.setattr(am.IntersectionLattice, "validate",
                            lambda lat, *labels: calls.append(lat)
                            or check(lat, *labels))
        lat = near_pencil(5).lattice()
        mod.generic_lattice(mod.family_13())
        assert calls == []
        am.parse_lattice_listing(am.format_lattice(lat))
        assert len(calls) == 1

    def test_scans_store_flats_only(self, monkeypatch):
        """A non-split decision and the dual scan of candidate_additions
        read only flats: no scan builds the incidences."""
        def unread(lat):
            raise AssertionError("per_hyperplane read")
        monkeypatch.setattr(am.IntersectionLattice, "per_hyperplane",
                            property(unread))
        g4 = rational_arrangement((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
        assert decide_freeness(g4, use_cache=False) == NotFree(
            "ChiDoesNotSplit")
        a13 = mod.specialize(mod.family_13(), 3).arrangement
        assert candidate_additions(a13, {7}) == ([], True)
        a15 = mod.specialize(mod.family_15(), -1).arrangement
        cands, complete = candidate_additions(a15, {8})
        assert (len(cands), cands[0], complete) == (
            6, (1, Fraction(-1, 2), Fraction(-1, 2)), True)

    def test_incidences_are_derived_when_read(self, monkeypatch):
        """format_lattice, aut_order and the Saito frame read
        per_hyperplane, which each lattice derives from its flats."""
        derive, reads = am.IntersectionLattice.per_hyperplane.func, []
        monkeypatch.setattr(am.IntersectionLattice, "per_hyperplane",
                            property(lambda lat: reads.append(lat)
                                     or derive(lat)))
        lat = boolean3().lattice()
        assert am.format_lattice(lat) == "[1, 2]\n[1, 3]\n[2, 3]\n"
        assert set(reads) == {lat}
        reads.clear()
        lat = near_pencil(4).lattice()
        assert am.aut_order(lat)[0] == 6 and set(reads) == {lat}
        reads.clear()
        arr = near_pencil(5)
        assert isinstance(decide_freeness(arr, use_cache=False), Free)
        assert set(reads) == {arr.lattice()}

    def test_flat_of_pair(self):
        lat = near_pencil(4).lattice()
        for flat in lat.flats:
            labels = sorted(flat)
            assert lat.flats[lat.pair_table[labels[0], labels[1]]] == flat

    def test_lattice_freed_after_key_and_pair_lookup(self):
        arr = near_pencil(5)
        lat = arr.lattice()
        am.canonical_key(lat)
        lat.pair_table[1, 2]
        ref = weakref.ref(lat)
        del arr, lat
        gc.collect()
        assert ref() is None


class TestCharPoly:
    def test_whitney_oracle(self, small_corpus):
        for arr in small_corpus:
            chi = arr.char_poly()
            assert (chi.coeffs[0], chi.coeffs[1], chi.coeffs[2],
                    chi.coeffs[3]) == whitney_char_poly(arr)

    def test_chi_at_one_vanishes(self, small_corpus):
        for arr in small_corpus:
            c0, c1, c2, c3 = arr.char_poly().coeffs
            assert c0 + c1 + c2 + c3 == 0

    def test_boolean(self):
        chi = boolean3().char_poly()
        assert chi.exponents() == (1, 1, 1)
        assert chi.factored_string() == "(x - 1)^3"

    def test_generic_four_does_not_split(self):
        arr = rational_arrangement((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
        chi = arr.char_poly()
        assert chi.exponents() is None
        # chi = (x-1)(x^2-3x+3)
        assert chi.coeffs == (-3, 6, -4, 1)

    def test_near_pencil_exponents(self):
        assert near_pencil(6).char_poly().exponents() == (1, 1, 4)

    def test_deletion_restriction_recursion(self, small_corpus):
        for arr in small_corpus:
            chi = arr.char_poly().coeffs
            for h in range(1, arr.n + 1):
                s, _ = am.restriction_profile(arr, h)
                # rank-2 restriction: (x-1)(x-(s-1))
                res = (s - 1, -s, 1)
                if am.deletion_is_essential(arr, h):
                    sub, _ = am.delete(arr, h)
                    dele = sub.char_poly().coeffs
                else:
                    # pencil of n-1 hyperplanes: x(x-1)(x-(n-2))
                    m = arr.n - 1
                    dele = (0, m - 1, -m, 1)
                assert chi == (dele[0] - res[0], dele[1] - res[1],
                               dele[2] - res[2], dele[3])


class TestDeleteRestrict:
    def test_delete_mapping(self):
        arr = near_pencil(5)
        sub, mapping = am.delete(arr, 2)
        assert sub.n == 4
        assert mapping == {1: 1, 3: 2, 4: 3, 5: 4}
        assert sub.columns[1] == arr.columns[2]

    def test_delete_not_essential(self):
        with pytest.raises(am.NotEssentialError):
            am.delete(near_pencil(4), 4)  # removing the transversal

    @pytest.mark.parametrize("h", [-2, 0, 6])
    def test_unknown_label_is_no_essential_deletion(self, h):
        for probe in (am.delete, am.deletion_is_essential):
            with pytest.raises(am.UnknownLabelError,
                               match=f"^no hyperplane labeled {h}$"):
                probe(near_pencil(5), h)

    @pytest.mark.parametrize("field", ["QQ", "QQ(sqrt 5)"])
    def test_delete_keeps_what_build_computes(self, field, small_corpus):
        """A deletion slices its parent's ring columns and line keys: they,
        the lattice and the state key are those build computes on the
        remaining columns, for rescaled and permuted inputs."""
        rng = random.Random(21)
        if field == "QQ":
            sources = [*small_corpus[:8],
                       mod.specialize(mod.family_13(), 3).arrangement]
        else:
            omega = QuadElem(5, Fraction(3, 2), Fraction(1, 2))
            sources = [mod.specialize(mod.family_15(), omega).arrangement,
                       mod.specialize(mod.family_13(), omega).arrangement]

        def scalar():
            while not (a := Fraction(rng.randint(-5, 5), rng.randint(1, 4))):
                pass
            return a if field == "QQ" else QuadElem(
                5, a, Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
        checked = 0
        for src in sources:
            cols = [tuple(scalar() * x for x in c) for c in src.columns]
            rng.shuffle(cols)
            arr = am.build(cols, src.ops)
            assert arr.ops.name == field
            for h in arr.labels():
                if not am.deletion_is_essential(arr, h):
                    continue
                sub, _ = am.delete(arr, h)
                ref = am.build(cols[:h - 1] + cols[h:], arr.ops)
                assert sub.columns == ref.columns
                assert sub.ring_columns == ref.ring_columns
                assert sub.keys == ref.keys
                assert sub.lattice() == ref.lattice()
                assert state_key(sub) == state_key(ref)
                checked += 1
        assert checked == {"QQ": 49, "QQ(sqrt 5)": 28}[field]

    @pytest.mark.parametrize("omega", [
        3, -1, QuadElem(5, Fraction(3, 2), Fraction(1, 2))])
    def test_add_keeps_the_parent_and_checks_as_build(self, omega):
        """An addition is the parent's ring columns, keys and scales and one
        column cleared alone: its field columns, ring columns, keys and
        lattice are build's on the parent's columns and the new one, and a
        bad column raises build's error, numbered n + 1."""
        arr = mod.specialize(mod.family_15(), omega).arrangement
        r = QuadElem(5, 0, 1)
        added = 0
        for col in candidate_additions(arr, range(arr.n + 2))[0] + [
                (Fraction(-6, 5), 4, Fraction(1, 3)), (r, 2, -1)]:
            try:
                ref = am.build(list(arr.columns) + [col], arr.ops)
            except am.ArrangementError as exc:
                with pytest.raises(type(exc),
                                   match=f"^{re.escape(str(exc))}$"):
                    am.add(arr, col)
                continue
            grown = am.add(arr, col)
            assert grown.ring_columns[:-1] == arr.ring_columns
            assert (grown.keys[:-1], grown.scales[:-1]) == (arr.keys,
                                                            arr.scales)
            assert (grown.columns, grown.ring_columns, grown.keys) == (
                ref.columns, ref.ring_columns, ref.keys)
            assert grown.lattice() == ref.lattice()
            added += 1
        assert added > 3
        for col, message in (((0, 0, 0), "column 16 is zero"),
                             (arr.columns[4], "columns 5 and 16 are "
                              "proportional"),
                             ((1, 2), "columns must have exactly 3 entries")):
            with pytest.raises(am.ArrangementError, match=f"^{message}$"):
                am.add(arr, col)

    def test_restriction_profile(self):
        arr = near_pencil(5)
        # a pencil line meets the pencil point and one transversal crossing
        size, mults = am.restriction_profile(arr, 3)
        assert size == 2
        assert mults == (2, 4)
        # the transversal meets each pencil line separately
        size, mults = am.restriction_profile(arr, 5)
        assert size == 4
        assert mults == (2, 2, 2, 2)


# the 13 lines with normals in {-1, 0, 1}^3
B13 = [v for v in product((-1, 0, 1), repeat=3)
       if any(v) and next(x for x in v if x) > 0]
GENERIC10 = [(1, k, k * k) for k in range(10)]


def _limit_backtracks(monkeypatch, limit):
    """Fail the test once _iso_backtrack is called more than limit times."""
    calls = []
    backtrack = am._iso_backtrack

    def counted(*args):
        calls.append(args)
        if len(calls) > limit:
            pytest.fail(f"more than {limit} backtracker calls")
        return backtrack(*args)

    monkeypatch.setattr(am, "_iso_backtrack", counted)


class TestIsomorphism:
    def test_permuted_columns_are_isomorphic(self, small_corpus):
        rng = random.Random(5)
        for arr in small_corpus[:10]:
            perm = list(range(arr.n))
            rng.shuffle(perm)
            shuffled = am.build([arr.columns[i] for i in perm], arr.ops)
            mapping = am.lattice_iso(arr.lattice(), shuffled.lattice())
            assert mapping is not None
            assert am.canonical_key(arr.lattice()) == am.canonical_key(
                shuffled.lattice())

    def test_non_isomorphic(self):
        a = boolean3()
        b = near_pencil(4)
        assert am.lattice_iso(a.lattice(), b.lattice()) is None

    def test_boolean_aut_order(self):
        order, gens = am.aut_order(boolean3().lattice())
        assert order == 6
        assert all(len(g) == 3 for g in gens)

    def test_near_pencil_aut_order(self):
        # all four pencil lines are interchangeable, the transversal is fixed
        order, _ = am.aut_order(near_pencil(5).lattice())
        assert order == 24

    def test_failed_iso_check_raises(self, monkeypatch):
        lat = boolean3().lattice()
        monkeypatch.setattr(am, "_check_iso", lambda l1, l2, m: False)
        with pytest.raises(am.InvariantError):
            am.lattice_iso(lat, lat)

    def test_rejected_witness_raises(self, monkeypatch):
        monkeypatch.setattr(am, "_check_iso", lambda l1, l2, m: False)
        with pytest.raises(am.InvariantError):
            am.aut_order(boolean3().lattice())

    def test_failed_check_in_canonical_walk_raises(self, monkeypatch):
        monkeypatch.setattr(am, "_check_iso", lambda l1, l2, m: False)
        with pytest.raises(am.InvariantError):
            am.canonical_key(boolean3().lattice())

    def test_trivial_aut_in_at_most_n_choose_2_calls(self, monkeypatch):
        lat = rational_arrangement(*ASYMMETRIC20).lattice()
        _limit_backtracks(monkeypatch, 20 * 19 // 2)
        assert am.aut_order(lat)[0] == 1

    def test_order_four_generators_close_to_the_group(self, monkeypatch):
        lat = rational_arrangement(
            (-1, 4, -2), (1, 3, -3), (-4, 3, 0), (4, -1, -1), (3, 4, 4),
            (3, 2, -2), (-1, -2, 4), (2, -4, -3), (-2, -4, 0), (-4, 0, 3),
            (2, 2, 2), (3, -2, 1), (-3, -4, -2), (3, -1, 0),
            (2, 0, 2)).lattice()
        _limit_backtracks(monkeypatch, 15 * 14 // 2)
        order, gens = am.aut_order(lat)
        assert order == 4
        labels = tuple(range(1, lat.n + 1))
        group = {labels}
        frontier = [labels]
        while frontier:
            p = frontier.pop()
            for g in gens:
                q = tuple(g[h - 1] for h in p)
                if q not in group:
                    group.add(q)
                    frontier.append(q)
        assert len(group) == 4
        assert all(am._check_iso(lat, lat, dict(zip(labels, p)))
                   for p in group)

    def test_aut_order_matches_brute_force(self, small_corpus):
        arrs = [a for a in small_corpus if a.n <= 7]
        arrs += [boolean3()] + [near_pencil(n) for n in range(5, 8)]
        # cuts of the 13 lines with normals in {-1, 0, 1}^3: walks with
        # several orbits per node, on and off the first path
        rng = random.Random(1)
        for _ in range(30):
            try:
                arrs.append(rational_arrangement(
                    *rng.sample(B13, rng.randint(6, 7))))
            except am.NotEssentialError:
                pass
        for arr in arrs:
            lat = arr.lattice()
            labels = range(1, lat.n + 1)
            auts = {p for p in permutations(labels)
                    if am._check_iso(lat, lat, dict(zip(labels, p)))}
            order, gens = am.aut_order(lat)
            assert order == len(auts)
            # the witnesses generate the whole group
            group = {tuple(labels)}
            frontier = list(group)
            while frontier:
                p = frontier.pop()
                for g in gens:
                    q = tuple(g[h - 1] for h in p)
                    if q not in group:
                        group.add(q)
                        frontier.append(q)
            assert group == auts

    def test_orbit_pruning_matches_the_full_scan(self, a13, a15):
        """Same order and same generated group as asking the backtracker
        for every y > x, on inputs with |Aut| from 1 to 10!."""
        from sympy.combinatorics import Permutation, PermutationGroup

        rng = random.Random(20)
        arrs = [a13, a15, rational_arrangement(*GENERIC10)]
        for size in range(8, 13):
            for _ in range(3):
                try:
                    arrs.append(rational_arrangement(*rng.sample(B13, size)))
                except am.NotEssentialError:
                    pass
        assert len(arrs) >= 15
        orders = set()
        for arr in arrs:
            lat = arr.lattice()
            labels = tuple(range(1, lat.n + 1))
            order, gens = am.aut_order(lat)
            full_order, full_gens = aut_order_by_full_scan(lat)
            assert order == full_order
            assert all(am._check_iso(lat, lat, dict(zip(labels, g)))
                       for g in gens)
            group = PermutationGroup([Permutation([h - 1 for h in g])
                                      for g in gens or [labels]])
            assert group.order() == order
            assert all(group.contains(Permutation([h - 1 for h in g]))
                       for g in full_gens)
            orders.add(order)
        assert {1, 18, 48, factorial(10)} < orders

    @pytest.mark.parametrize("name, order, limit", [
        ("generic10", factorial(10), 9), ("a13", 18, 40), ("a15", 48, 70)])
    def test_orbit_pruning_bounds_the_backtracker_calls(
            self, monkeypatch, request, name, order, limit):
        # the full scan asks 45, 78 and 105 times
        arr = (rational_arrangement(*GENERIC10) if name == "generic10"
               else request.getfixturevalue(name))
        lat = arr.lattice()
        _limit_backtracks(monkeypatch, limit)
        assert am.aut_order(lat)[0] == order

    def test_keys_equal_exactly_when_isomorphic(self, small_corpus):
        lats = [arr.lattice() for arr in small_corpus]
        for i, l1 in enumerate(lats):
            for l2 in lats[i:]:
                same = am.canonical_key(l1) == am.canonical_key(l2)
                assert same == (am.lattice_iso(l1, l2) is not None)

    def test_generic_lines_symmetric_group(self):
        cols = [(1, k, k * k) for k in range(10)]
        lat = rational_arrangement(*cols).lattice()
        assert am.aut_order(lat)[0] == factorial(10)
        random.Random(10).shuffle(cols)
        shuffled = rational_arrangement(*cols).lattice()
        assert am.canonical_key(shuffled) == am.canonical_key(lat)


class TestListingFormat:
    def test_round_trip(self, small_corpus):
        for arr in small_corpus[:10]:
            lat = arr.lattice()
            parsed = am.parse_lattice_listing(am.format_lattice(lat))
            assert am.lattice_iso(lat, parsed) is not None

    def test_format_example(self):
        text = am.format_lattice(boolean3().lattice())
        assert text == "[1, 2]\n[1, 3]\n[2, 3]\n"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            am.parse_lattice_listing("not a listing")

    @pytest.mark.parametrize("text, message", [
        ("[1, 2, 4]\n[1, 3]\n[2, 3]\n", "flat 4 has fewer than 2 hyperplanes"),
        ("[1]\n[2, 3]\n[2, 3]\n", "flat 1 has fewer than 2 hyperplanes"),
        ("[1, 2]\n[1, 3]\n[1, 2, 3]\n", "pair (1, 3) covered twice"),
        ("[1]\n[1]\n[]\n", "pair (1, 3) not covered"),
        ("[1, 1, 2]\n[1, 3]\n[2, 3]\n", "line 1: flat 1 listed twice"),
        ("# c\n[1, 2]\n\n[1, 3, 3]\n[2, 3]\n", "line 4: flat 3 listed twice"),
    ], ids=["one-member flat", "first flat of one member",
            "pair in two flats", "pair in no flat",
            "repeated flat number", "repeated flat after a comment"])
    def test_parse_refuses_malformed_listings(self, text, message):
        with pytest.raises(am.ArrangementError) as exc:
            am.parse_lattice_listing(text)
        assert str(exc.value) == message


class TestOtherDomains:
    def test_quadratic_arrangement(self):
        F = quad_field(2)
        r2 = QuadElem(2, 0, 1)
        one, zero = F.field(1), F.field(0)
        arr = am.build([(one, zero, zero),
                        (zero, one, zero),
                        (zero, zero, one),
                        (one, r2, one)], F)
        assert len(arr.lattice().flats) == 6

    def test_generic_family_lattice(self):
        one, zero, t = poly(1), poly(), poly(0, 1)
        fam = mod.Family("g4", ((one, zero, zero), (zero, one, zero),
                                (zero, zero, one), (one, t, one)))
        lat = mod.generic_lattice(fam)
        assert len(lat.flats) == 6
        assert am.char_poly(lat.n, lat.flats).exponents() is None


def reference_scan(cols):
    """(flats, per_hyperplane) by the full determinant scan: each pair (i, j)
    not yet in a flat, in lexicographic order, is tested against every
    other column with a 3x3 determinant over the columns as given."""
    n = len(cols)
    covered = set()
    flats = []
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in covered:
                continue
            members = [k for k in range(n) if k in (i, j)
                       or not det3_cols(cols[i], cols[j], cols[k])]
            covered.update((a, b) for a in members for b in members if a < b)
            flats.append(frozenset(m + 1 for m in members))
    per_h = tuple(tuple(idx for idx, f in enumerate(flats) if h in f)
                  for h in range(1, n + 1))
    return tuple(flats), per_h


def tt0_family():
    """(1,0,0), (0,1,0), (t,t,0) share a point although their cross
    products (0,0,1) and (0,0,t) differ in Z[t]."""
    one, zero, t = poly(1), poly(), poly(0, 1)
    return mod.Family("tt0", ((one, zero, zero), (zero, one, zero),
                              (t, t, zero), (zero, zero, one), (one, t, one)))


def paper_quadratic_members():
    """paper13 at 3 + sqrt 2 and paper15 at a root of t^2 - 3t + 1."""
    return [mod.specialize(mod.family_13(), QuadElem(2, 3, 1)).arrangement,
            mod.specialize(mod.family_15(),
                           quadratic_root((1, -3, 1))).arrangement]


def rescaled(arr, rng):
    """arr with each column multiplied by a random rational of denominator
    at least 2."""
    cols = []
    for c in arr.columns:
        s = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                     rng.randint(2, 9))
        cols.append(tuple(s * x for x in c))
    return am.build(cols)


class TestReferenceScan:
    def assert_matches(self, lat, cols):
        assert (lat.flats, lat.per_hyperplane) == reference_scan(cols)

    def test_rational_corpora(self, corpus, small_corpus, a13, a15):
        for arr in corpus + small_corpus + [a13, a15]:
            self.assert_matches(arr.lattice(), arr.columns)

    def test_rational_columns_with_denominators(self, small_corpus, a13, a15):
        rng = random.Random(20261018)
        for arr in small_corpus + [a13, a15]:
            scaled = rescaled(arr, rng)
            self.assert_matches(scaled.lattice(), scaled.columns)
            assert scaled.lattice().flats == arr.lattice().flats
        checked = 0
        while checked < 40:
            cols = [tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                          for _ in range(3))
                    for _ in range(rng.randint(5, 12))]
            try:
                arr = am.build(cols)
            except am.ArrangementError:
                continue
            checked += 1
            self.assert_matches(arr.lattice(), arr.columns)

    def test_quadratic_members(self):
        for arr in paper_quadratic_members():
            self.assert_matches(arr.lattice(), arr.columns)

    def test_reflection_arrangements(self):
        """The monomial arrangements over Q(sqrt -3) and Q(i), with points
        of up to 8 lines, and H3 over Q(sqrt 5)."""
        for arr in [monomial(r, k) for r in (3, 4, 6) for k in range(4)] + [
                h3()]:
            self.assert_matches(arr.lattice(), arr.columns)

    def test_random_quadratic_columns(self):
        """Seeded arrangements with small entries a + b sqrt d, d in
        {-3, -1, 2, 5}, and copies with each column scaled by a random
        a + b sqrt d with b != 0."""
        rng = random.Random(20261019)

        def scalar(d, den=1):
            return QuadElem(d, Fraction(rng.randint(-2, 2), den),
                            Fraction(rng.choice((-2, -1, 1, 2)), den))

        checked, multiple = 0, 0
        while checked < 30:
            d = rng.choice((-3, -1, 2, 5))
            cols = [tuple(scalar(d) if rng.random() < 0.4
                          else rng.randint(-2, 2) for _ in range(3))
                    for _ in range(rng.randint(5, 10))]
            try:
                arr = am.build(cols, quad_field(d))
            except am.ArrangementError:
                continue
            checked += 1
            copy = am.build([tuple(s * x for x in c) for s, c in zip(
                (scalar(d, rng.randint(1, 3)) for _ in cols), arr.columns)])
            for a in (arr, copy):
                self.assert_matches(a.lattice(), a.columns)
            assert copy.lattice().flats == arr.lattice().flats
            multiple += max(arr.lattice().multiplicities()) > 2
        assert multiple >= 10

    def test_generic_family_lattices(self):
        for f in (mod.family_13(), mod.family_15(), tt0_family()):
            self.assert_matches(mod.generic_lattice(f), f.columns)
        assert mod.generic_lattice(tt0_family()).flats[0] == {1, 2, 3}
