"""Addition-Deletion bookkeeping, inductive and recursive freeness."""
import random
from fractions import Fraction

import pytest

from freearr import arrangement as am
from freearr import induction
from freearr import moduli as mod
from freearr.freeness import Free, decide_freeness
from freearr.scalars import InputError, InvariantError, QuadElem
from freearr.induction import (
    Expansion,
    IFCertificate,
    IFStep,
    Move,
    PairCheck,
    abe_pair_check,
    candidate_additions,
    chain_from_text,
    chain_to_text,
    inductively_free,
    quick_non_if,
    recursively_free,
    replay_chain,
)

from conftest import (
    boolean3,
    _cross,
    candidate_additions_over_the_field,
    fault_keys,
    field_columns,
    grid,
    h3,
    member,
    monomial,
    near_pencil,
    rational_arrangement,
    triple_check,
)
from test_freeness import _nonfree_split


def braid3() -> am.Arrangement:
    """The braid arrangement A_3: free with exponents [1, 2, 3]."""
    return rational_arrangement((1, 0, 0), (0, 1, 0), (0, 0, 1),
                                (1, -1, 0), (1, 0, -1), (0, 1, -1))


def deletion_search(arr):
    """Reference IF search that builds every deletion: the first chain in
    label order, as inductively_free must find it."""
    exps = arr.char_poly().exponents()
    if exps is None:
        return None
    if arr.n == 3:
        return IFCertificate((), "triangle")
    n, target = arr.n, tuple(sorted(exps))
    for h in arr.labels():
        s, _ = am.restriction_profile(arr, h)
        if tuple(sorted((1, s - 1, n - s))) != target:
            continue
        step = IFStep(n, h, target, s)
        if not am.deletion_is_essential(arr, h):
            return IFCertificate((step,), "pencil")
        sub = deletion_search(am.delete(arr, h)[0])
        if sub is not None:
            return IFCertificate((step,) + sub.steps, sub.base)
    return None


class TestTripleCheck:
    def test_near_pencil_all_statements_hold(self):
        arr = near_pencil(5)
        # h = 5 is the transversal: restriction size 4, candidate [1,1,3]
        v = triple_check(arr, 1)
        assert v.applies
        assert v.candidate_exponents == (1, 1, 3)
        assert v.deletion_exponents == (1, 1, 2)

    def test_bookkeeping_mismatch_does_not_apply(self, a13):
        # every restriction of the 13-line arrangement has size 6, so the
        # candidate [1,5,7] never matches the actual exponents [1,6,6]
        v = triple_check(a13, 1)
        assert v.candidate_exponents == (1, 5, 7)
        assert not v.applies
        assert v.full_holds is False

    def test_non_essential_deletion_rejected(self):
        # 4 is the transversal of the near-pencil: the rest is a pencil
        for check in (triple_check, abe_pair_check):
            with pytest.raises(am.NotEssentialError, match=r"^deleting "
                               r"hyperplane 4 drops the rank below 3$"):
                check(near_pencil(4), 4)

    def test_never_violates_theorem(self, small_corpus):
        for arr in small_corpus[:15]:
            for h in range(1, arr.n + 1):
                if am.deletion_is_essential(arr, h):
                    triple_check(arr, h)  # must not raise


class TestFittingSizes:
    def test_matches_the_bookkeeping_triple(self, small_corpus):
        # s fits exactly when [1, s-1, n-s] is exp A, for deletions
        # (n = |A|) and additions (s = |(A+H)^H|, n = |A|) alike
        for arr in list(small_corpus) + [near_pencil(6), braid3()]:
            exps = arr.char_poly().exponents()
            if exps is None:
                continue
            n = arr.n
            assert induction._fitting_sizes(exps) == tuple(
                s for s in range(2, n + 1)
                if tuple(sorted((1, s - 1, n - s))) == exps)


class TestQuickNonIF:
    def test_boolean_has_no_obstruction(self):
        assert quick_non_if(boolean3()) is None

    def test_13_line_witness(self, a13):
        sizes = quick_non_if(a13)
        assert sizes is not None
        assert set(sizes) == set(range(1, 14))
        assert set(sizes.values()) == {6}

    def test_15_line_witness(self, a15):
        sizes = quick_non_if(a15)
        assert sizes is not None
        assert set(sizes.values()) == {6, 7}

    def test_non_free_has_no_witness(self):
        g4 = rational_arrangement((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
        assert quick_non_if(g4) is None

    def test_split_non_free_inputs_read_chi_alone(self, monkeypatch):
        # the obstruction needs only the roots of chi, so it fires on every
        # split non-free input with no fitting restriction size, and
        # neither it nor the IF search solves for derivations
        def no_solve(arr, use_cache=True):
            raise AssertionError("a freeness solve")

        monkeypatch.setattr(induction, "decide_freeness", no_solve)
        arrs = _nonfree_split()
        assert len(arrs) == 70
        for arr in arrs:
            assert quick_non_if(arr) is not None
            assert inductively_free(arr) is None


class TestInductivelyFree:
    def test_triangle_base(self):
        cert = inductively_free(boolean3())
        assert cert == IFCertificate((), "triangle")

    def test_near_pencil_chains(self):
        for n in (4, 5, 6):
            cert = inductively_free(near_pencil(n))
            assert cert is not None
            assert cert.base in ("triangle", "pencil")
            assert cert.steps[0].n == n

    def test_13_line_not_if(self, a13):
        assert inductively_free(a13) is None

    def test_non_free_not_if(self):
        g4 = rational_arrangement((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
        assert inductively_free(g4) is None

    def test_search_solves_no_derivations(self, small_corpus, monkeypatch):
        chains = [inductively_free(arr) for arr in small_corpus]

        def no_solve(arr, use_cache=True):
            raise AssertionError("freeness decided inside the IF search")

        monkeypatch.setattr(induction, "decide_freeness", no_solve)
        assert [inductively_free(arr) for arr in small_corpus] == chains

    def test_search_builds_no_deletion_or_lattice(
            self, small_corpus, a13, a15, monkeypatch):
        inputs = (list(small_corpus) + [near_pencil(n) for n in range(4, 9)]
                  + [a13, a15, grid(7)])
        # the reference search has computed every root lattice
        expected = [deletion_search(arr) for arr in inputs]

        def forbidden(*args):
            raise AssertionError("the IF search left the root lattice")

        for module, name in ((induction, "delete"),
                             (induction, "restriction_profile"),
                             (am, "_compute_lattice")):
            monkeypatch.setattr(module, name, forbidden)
        assert [inductively_free(arr) for arr in inputs] == expected

    def test_28_line_grid_is_if(self):
        arr = grid(7)
        cert = inductively_free(arr)
        assert cert is not None and cert.base == "pencil"
        assert [step.n for step in cert.steps] == list(range(28, 13, -1))
        # the last step leaves a pencil of rank 2, which no arrangement
        # holds: replay stops at the near-pencil before it
        final = replay_chain(
            arr, [Move("delete", (step.label,)) for step in cert.steps[:-1]])
        last = cert.steps[-1]
        assert final.n == last.n == 14 and last.restriction_size == 13
        assert max(map(len, final.lattice().flats)) == 13

    def test_permuted_copy_gets_its_own_chain(self):
        cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1),
                (0, 1, 1), (1, 1, 1)]
        original = inductively_free(rational_arrangement(*cols))
        permuted = cols[3:] + cols[:3]
        chain = inductively_free(rational_arrangement(*permuted))
        assert chain is not None and chain != original
        assert chain == inductively_free(rational_arrangement(*permuted))

    def test_if_implies_free_and_obstruction_implies_not_if(
            self, small_corpus):
        for arr in small_corpus:
            cert = inductively_free(arr)
            if cert is not None:
                assert isinstance(decide_freeness(arr), Free)
            if quick_non_if(arr) is not None:
                assert cert is None


class TestCandidateAdditions:
    def test_boolean_target_two(self):
        # a line through just one double point has predicted size 2, but
        # passes through only one flat, so the pair enumeration misses it;
        # completeness correctly fails (3 - 2 = 1 is not > 2 - 1)
        cands, complete = candidate_additions(boolean3(), {2})
        assert cands == []
        assert not complete

    def test_13_line_empty_and_complete(self, a13):
        cands, complete = candidate_additions(a13, {7})
        assert cands == []
        assert complete  # 13 - 7 = 6 > 6 - 1

    def test_incomplete_when_target_too_large(self, a13):
        _, complete = candidate_additions(a13, {13})
        assert not complete

    def test_found_candidate(self):
        # the braid-like arrangement minus x1-x2: adding a line with
        # restriction size 3 or 4 must recover the deleted direction,
        # which passes through the two flats {x1,x2} and {x1-x3,x2-x3}
        arr = rational_arrangement((1, 0, 0), (0, 1, 0), (0, 0, 1),
                                   (1, -1, 0), (1, 0, -1), (0, 1, -1))
        sub, _ = am.delete(arr, 4)
        cands, _ = candidate_additions(sub, {3, 4})
        from fractions import Fraction

        assert tuple(Fraction(x) for x in (1, -1, 0)) in cands

    def test_integral_lines_match_the_field_crosses(self, a13, a15):
        """Same candidates, byte for byte and as field scalars, and the same
        completeness as crossing field columns, for every target size and
        for the sizes that fit the exponents, as the RF search asks."""
        f15 = mod.builtin_family("paper15")
        arrs = [a13, a15, mod.specialize(f15, -1).arrangement,
                mod.specialize(f15, QuadElem(5, Fraction(3, 2),
                                             Fraction(1, 2))).arrangement,
                monomial(3, 1), monomial(4, 1), h3()]
        assert {arr.ops.name for arr in arrs} >= {
            "QQ", "QQ(sqrt 5)", "QQ(sqrt -3)", "QQ(sqrt -1)"}
        rng = random.Random(3)
        cols = field_columns(grid(3))
        for size in (8, 9, 10, 11):
            arrs.append(am.build(rng.sample(cols, size)))
        found = 0
        for arr in arrs:
            exps = arr.char_poly().exponents()
            fits = [set(induction._fitting_sizes(exps))] if exps else []
            for targets in [{s} for s in range(2, arr.n + 1)] + [
                    set(range(2, arr.n + 1))] + fits:
                cands, complete = candidate_additions(arr, targets)
                field, field_complete = candidate_additions_over_the_field(
                    arr, targets)
                assert [tuple(map(str, c)) for c in cands] == [
                    tuple(map(str, c)) for c in field]
                assert complete == field_complete
                assert all(isinstance(y, Fraction) for c in cands for x in c
                           for y in ((x.a, x.b) if isinstance(x, QuadElem)
                                     else (x,)))
                found += len(cands)
        assert found > 100

    @pytest.mark.parametrize("make", [
        lambda: member("paper13", 3), h3])
    def test_a_point_missing_from_a_dual_line_raises(self, make,
                                                     monkeypatch):
        """The lines through the flats' points are the lattice scan of
        the points, so its pair-coverage check holds for them.  Points 1
        to s are the flats on line 1, s >= 4 here; negating the first key
        splits point 2 off that line, so row 1 marks (3, 4) and row 2
        groups points 3 and 4 again."""
        arr = make()
        assert len(arr.lattice().per_hyperplane[0]) >= 4
        fault_keys(monkeypatch, lambda k, g: -g if k == 1 else g)
        with pytest.raises(InvariantError, match=r"pair \(3, 4\) in two"):
            candidate_additions(arr, range(2, arr.n + 1))

    def test_dual_scan_of_30_lines_keys_each_pair_at_most_once(
            self, monkeypatch):
        """A work bound, counted rather than timed: the dual scan of the
        F points of 30 random lines computes one key per pair of points in
        no earlier flat, at most F(F - 1)/2 (a kernel that dots each flat's
        point with every later column does about F^3/6 products)."""
        rng, cols = random.Random(30), []
        while len(cols) < 30:
            col = tuple(rng.randint(-9, 9) for _ in range(3))
            if any(col) and all(any(_cross(col, c)) for c in cols):
                cols.append(col)
        arr = rational_arrangement(*cols)
        keys, duals, scan = [], [], induction._compute_lattice

        def counted(ops, points):
            with monkeypatch.context() as m:
                fault_keys(m, lambda k, g: keys.append(k) or g)
                duals.append(scan(ops, points))
            return duals[-1]
        monkeypatch.setattr(induction, "_compute_lattice", counted)
        candidate_additions(arr, {2})
        f = len(arr.lattice().flats)
        assert f > 400
        assert len(keys) == sum(len(x) - 1 for x in duals[0].flats)
        assert len(keys) <= f * (f - 1) // 2


class TestRecursivelyFree:
    def test_near_pencil_rf(self):
        rep = recursively_free(near_pencil(5), max_n=6)
        assert rep.verdict == "RF"
        assert rep.chain == ()  # already inductively free

    def test_13_line_not_rf_sound(self, a13):
        rep = recursively_free(a13, max_n=14)
        assert rep.verdict == "NotRF"
        assert rep.sound
        assert rep.explored == 1
        (exp,) = rep.expansions
        assert exp.addition_targets == (7,)
        assert exp.addition_candidates == 0
        assert exp.complete
        assert exp.deletion_moves == 0

    def test_paper15_at_minus_one_is_rf_by_one_addition(self):
        # t = -1 keeps the generic lattice of the 15-line family, yet one
        # addition reaches an inductively free arrangement
        f15 = mod.builtin_family("paper15")
        assert mod.vL_membership(f15, mod.generic_lattice(f15), -1)
        arr = mod.specialize(f15, -1).arrangement
        rep = recursively_free(arr, max_n=16)
        assert rep.verdict == "RF"
        assert rep.chain == (
            Move("add", (Fraction(1), Fraction(-1, 2), Fraction(-1, 2))),)
        assert rep.explored == 2
        assert rep.expansions[0] == Expansion(15, (1, 7, 7), 0, (8,), 6, True)
        assert replay_chain(arr, rep.chain).n == 16

    def test_additions_read_no_field_columns(self, monkeypatch):
        # a grown state is its parent's ring columns, keys and scales and
        # one cleared column: an Arrangement keeps no field columns, so no
        # state the search explores, nor the replay, can read them
        arr = member("paper15", -1)
        cut = mod.specialize(mod.parse_family_text(
            "1; 0; 0\n0; 1; 0\n0; 0; 1\n1; 1; 0\n1; 0; 1\n"
            "1; 0; -1\n0; 1; 1\n0; 1; -1\n"), 0).arrangement
        real = induction.inductively_free
        assert am.Arrangement.__slots__ == ("ops", "ring_columns", "keys",
                                            "scales", "_lattice")
        assert not hasattr(am.Arrangement, "columns")
        rep = recursively_free(arr, max_n=16)
        assert [m.action for m in rep.chain] == ["add"]
        assert replay_chain(arr, rep.chain).n == 16
        # the B3 cut, with inductive freeness refused up to its own size
        monkeypatch.setattr(induction, "inductively_free",
                            lambda state: real(state) if state.n > 8 else None)
        rep = recursively_free(cut, max_n=9)
        assert (rep.verdict, rep.explored) == ("RF", 9)
        assert rep.chain == (Move("add", (Fraction(1), Fraction(-1),
                                          Fraction(0))),)

    def test_deletion_move(self, monkeypatch):
        # refuse inductive freeness at the root only, so that the search
        # has to expand A_3 and reach an inductively free deletion
        arr = braid3()
        real = induction.inductively_free
        monkeypatch.setattr(induction, "inductively_free",
                            lambda state: None if state is arr else real(state))
        rep = recursively_free(arr, max_n=7)
        assert rep.verdict == "RF"
        assert rep.chain == (Move("delete", (1,)),)
        assert rep.expansions[0].deletion_moves == 6

    def test_additions_blocked_by_max_n(self, a15):
        rep = recursively_free(a15, max_n=15)
        assert rep.verdict == "Unknown"
        assert rep.reason == "addition moves blocked by max_n = 15"

    def test_zero_state_budget(self, a13):
        with pytest.raises(InputError, match="^max_states = 0 explores no "
                           "state$"):
            recursively_free(a13, max_n=14, max_states=0)
        # a budget of one explores the input and no more
        p15 = member("paper15", -1)
        rep = recursively_free(p15, max_n=16, max_states=1)
        assert (rep.verdict, rep.explored) == ("Unknown", 1)
        assert rep.reason == "state budget 1 exhausted"

    def test_max_n_below_n_rejected(self, a13):
        with pytest.raises(InputError):
            recursively_free(a13, max_n=12)


class TestReplayChain:
    def test_valid_chain(self):
        arr = near_pencil(5)
        final = replay_chain(arr, [Move("delete", (4,))])
        assert final.n == 4

    def test_invalid_chain_rejected(self, a13):
        with pytest.raises(InputError):
            replay_chain(a13, [Move("delete", (1,))])

    def test_addition_move(self):
        arr = rational_arrangement((1, 0, 0), (0, 1, 0), (0, 0, 1),
                                   (1, -1, 0), (1, 0, -1), (0, 1, -1))
        sub, _ = am.delete(arr, 4)
        from fractions import Fraction

        cov = tuple(Fraction(x) for x in (1, -1, 0))
        final = replay_chain(sub, [Move("add", cov)])
        assert final.n == 6

    def test_move_on_a_non_split_state(self):
        g4 = rational_arrangement((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
        with pytest.raises(InputError, match="^move 1: characteristic "
                           "polynomial does not split$"):
            replay_chain(g4, [Move("delete", (4,))])

    def test_addition_of_a_misfitting_size(self):
        a15 = member("paper15", -1)
        with pytest.raises(InputError, match=r"^move 1: the added hyperplane "
                           r"has restriction size 14, incompatible with "
                           r"exponents \(1, 7, 7\)$"):
            replay_chain(a15, [Move("add", tuple(map(Fraction, (1, 2, 7))))])

    def test_unknown_action(self):
        with pytest.raises(InputError,
                           match="^move 2: unknown action 'rotate'$"):
            replay_chain(near_pencil(5), [Move("delete", (4,)),
                                          Move("rotate", (1,))])

    def test_empty_chain_on_a_non_if_input(self, a13):
        with pytest.raises(InputError, match="^final state of the chain is "
                           "not inductively free$"):
            replay_chain(a13, [])


class TestChainText:
    """chain_to_text and chain_from_text, beside Move and replay_chain."""

    def test_paper15_at_minus_one_chain(self):
        arr = member("paper15", -1)
        chain = recursively_free(arr, max_n=16).chain
        text = chain_to_text(chain)
        assert text == "add rat 1 rat -1/2 rat -1/2\n"
        assert chain_from_text(text) == chain

    def test_b3_cut_chain(self, monkeypatch):
        # B3 without x1 - x2, with inductive freeness refused up to its
        # own size, as in the recfree command's test
        arr = rational_arrangement((1, 0, 0), (0, 1, 0), (0, 0, 1),
                                   (1, 1, 0), (1, 0, 1), (1, 0, -1),
                                   (0, 1, 1), (0, 1, -1))
        real = induction.inductively_free
        monkeypatch.setattr(induction, "inductively_free",
                            lambda state: real(state) if state.n > 8 else None)
        chain = recursively_free(arr, max_n=9).chain
        text = chain_to_text(chain)
        assert text == "add rat 1 rat -1 rat 0\n"
        assert chain_from_text(text) == chain

    def test_deletions_quadratic_scalars_and_comments(self):
        chain = (Move("delete", (3,)),
                 Move("add", (QuadElem(5, 1, Fraction(1, 2)), Fraction(0),
                              Fraction(-2, 3))))
        text = chain_to_text(chain)
        assert text == "delete 3\nadd quad 5 1 1/2 rat 0 rat -2/3\n"
        assert chain_from_text(text) == chain
        commented = "# a chain\n\n" + text.replace("\n", "  # note\n")
        back = chain_from_text(commented)
        assert back == chain and back[1].payload[0].d == 5
        assert chain_to_text(()) == "" and chain_from_text("") == ()


class TestAbePairCheck:
    def test_not_applicable_without_common_root(self):
        # generic four lines: reduced chi is x^2-3x+3; deleting leaves the
        # coordinate triangle with reduced chi (x-1)^2 -- no common root
        g4 = rational_arrangement((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
        res = abe_pair_check(g4, 4)
        assert res.status == "NotApplicable"

    def test_near_pencil_shares_root_one_in_reduced(self):
        # both reduced polynomials keep a factor (x-1), so the pair applies
        res = abe_pair_check(near_pencil(6), 1)
        assert res.status == "Consistent"

    def test_consistent_with_common_root(self):
        # braid-like arrangement: exponents (1,2,3); deleting x-y gives
        # (1,2,2) -- common reduced root 2
        arr = rational_arrangement((1, 0, 0), (0, 1, 0), (0, 0, 1),
                                   (1, -1, 0), (1, 0, -1), (0, 1, -1))
        res = abe_pair_check(arr, 4)
        assert res.status == "Consistent"

    def test_never_violated(self, small_corpus):
        for arr in small_corpus[:15]:
            for h in range(1, arr.n + 1):
                if am.deletion_is_essential(arr, h):
                    assert abe_pair_check(arr, h).status != "Violated"
