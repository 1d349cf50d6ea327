"""Acceptance suite: one test per criterion, quantitative and exact.

Each test prints a single PASS line on success so that `pytest -v` doubles
as a human-readable acceptance report.
"""
import contextlib
import io
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from freearr import arrangement as am
from freearr import cli as cli_mod
from freearr import moduli as mod
from freearr.freeness import Free, decide_freeness
from freearr.induction import (
    abe_pair_check,
    inductively_free,
    quick_non_if,
    recursively_free,
)
from freearr.scalars import QQ, QuadElem

from conftest import (
    defining_polynomial,
    poly_scale,
    quadratic_root,
    triple_check,
    whitney_char_poly,
)
from test_freeness import BRAID6, MIXED6, _expand_determinant, brute_force_free

DATA = Path(__file__).resolve().parent.parent / "src" / "freearr" / "data"


@pytest.fixture(scope="module")
def f13():
    return mod.builtin_family("paper13")


@pytest.fixture(scope="module")
def f15():
    return mod.builtin_family("paper15")


def test_criterion_01_lattice_and_chi_of_the_13_line_arrangement(a13):
    assert a13.n == 13
    lat = a13.lattice()
    assert len(lat.flats) == 30
    assert all(len(per_h) == 6 for per_h in lat.per_hyperplane)
    golden = am.parse_lattice_listing((DATA / "paper13.lattice").read_text())
    assert am.lattice_iso(lat, golden) is not None
    chi = a13.char_poly()
    assert chi.factored_string() == "(x - 1)*(x - 6)^2"
    assert (chi.coeffs[0], chi.coeffs[1], chi.coeffs[2],
            chi.coeffs[3]) == whitney_char_poly(a13)
    print("PASS: 13 lines, 30 flats, 6 per hyperplane, golden lattice, "
          "chi = (x-1)(x-6)^2")


def test_criterion_02_saito_certificate_for_the_13_line_arrangement(a13):
    verdict = decide_freeness(a13)
    assert isinstance(verdict, Free)
    assert verdict.exponents == (1, 6, 6)
    det = _expand_determinant(verdict.certificate)
    assert det == poly_scale(defining_polynomial(a13),
                             verdict.certificate.constant)
    print("PASS: Free [1,6,6] with an independently re-expanded Saito "
          "determinant identity")


def test_criterion_03_13_line_arrangement_is_not_inductively_free(a13):
    witness = quick_non_if(a13)
    assert witness is not None
    assert set(witness.values()) == {6}
    assert inductively_free(a13) is None
    print("PASS: every restriction has size 6, so no Addition-Deletion "
          "step applies; not inductively free")


def test_criterion_04_13_line_arrangement_is_not_recursively_free(a13):
    report = recursively_free(a13, max_n=14)
    assert report.verdict == "NotRF"
    assert report.sound
    assert all(e.complete for e in report.expansions)
    print(f"PASS: NotRF with sound completeness argument "
          f"({report.explored} state(s) explored)")


def test_criterion_05_degeneracy_set_of_the_13_line_family(f13):
    rep = mod.degeneracy_set(f13)
    assert rep.rational == {
        Fraction(-1): mod.LATTICE_CHANGES,
        Fraction(0): mod.COUNT_DROPS,
        Fraction(1, 2): mod.LATTICE_CHANGES,
        Fraction(1): mod.COUNT_DROPS,
        Fraction(2): mod.LATTICE_CHANGES,
    }
    assert rep.quadratic == {(1, -1, 1): mod.COUNT_DROPS}
    assert rep.unresolved == ()
    generic = mod.generic_lattice(f13)
    for omega in (Fraction(-1), Fraction(1, 2), Fraction(2)):
        spec = mod.specialize(f13, omega)
        assert spec.count == 13
        assert not mod.vL_membership(f13, generic, omega)
        verdict = decide_freeness(spec.arrangement)
        assert isinstance(verdict, Free)
        assert verdict.exponents == (1, 5, 7)
    print("PASS: Z = {-1, 0, 1/2, 1, 2} + roots of t^2 - t + 1, with "
          "Free [1,5,7] at the three lattice-changing rationals")


def test_criterion_06_automorphisms_of_the_13_line_lattice(a13):
    order, _ = am.aut_order(a13.lattice())
    assert order == 18
    print("PASS: lattice automorphism group has order 18")


def test_criterion_07_15_line_arrangement_free_but_not_if_or_rf(a15):
    verdict = decide_freeness(a15)
    assert isinstance(verdict, Free)
    assert verdict.exponents == (1, 7, 7)
    assert inductively_free(a15) is None
    report = recursively_free(a15, max_n=16)
    assert report.verdict == "NotRF"
    assert report.sound
    print("PASS: 15 lines Free [1,7,7], not inductively free, NotRF sound")


def test_criterion_08_degeneracy_set_of_the_15_line_family(f15):
    rep = mod.degeneracy_set(f15)
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
    # two published constants for this family are refuted by exact
    # recomputation: t = -1 gives a lattice isomorphic to the generic one,
    # and the roots 3/2 +- sqrt(2) of 4t^2 - 12t + 1 are not exceptional
    generic = mod.generic_lattice(f15)
    assert mod.vL_membership(f15, generic, -1)
    assert mod.vL_membership(f15, generic, QuadElem(2, Fraction(3, 2), 1))
    for coeffs in ((1, -3, 1), (-1, 1, 1)):
        root = quadratic_root(coeffs)
        assert root.d == 5
        spec = mod.specialize(f15, root)
        assert spec.count == 15
        assert not mod.vL_membership(f15, generic, root)
        verdict = decide_freeness(spec.arrangement)
        assert isinstance(verdict, Free)
        assert verdict.exponents == (1, 5, 9)
    print("PASS: Z = {0, 1/2, 1} + roots of t^2 - 3t + 1 and t^2 + t - 1 "
          "(both in Q(sqrt 5)), Free [1,5,9] at a root of each; "
          "NOTE: two previously published constants (-1 exceptional, "
          "factor 4t^2 - 12t + 1 in Q(sqrt 2)) are refuted by exact "
          "recomputation")


def test_criterion_09_automorphisms_of_the_15_line_lattice(a15):
    order, _ = am.aut_order(a15.lattice())
    assert order == 48
    print("PASS: lattice automorphism group has order 48")


def test_criterion_10_property_sweeps(corpus, a13, a15):
    # deletion-restriction recursion and chi(1) = 0 across the corpus
    for arr in corpus:
        chi = arr.char_poly()
        c0, c1, c2, c3 = chi.coeffs
        assert c0 + c1 + c2 + c3 == 0
        for h in range(1, arr.n + 1):
            s, _ = am.restriction_profile(arr, h)
            res = (s - 1, -s, 1)
            if am.deletion_is_essential(arr, h):
                sub, _ = am.delete(arr, h)
                dele = sub.char_poly().coeffs
            else:
                m = arr.n - 1
                dele = (0, m - 1, -m, 1)
            assert chi.coeffs == (dele[0] - res[0], dele[1] - res[1],
                                  dele[2] - res[2], dele[3])
    # Addition-Deletion three-way consistency (raises on violation) and
    # deletion-pair consistency, corpus plus both 13/15-line arrangements
    for arr in list(corpus) + [a13, a15]:
        for h in range(1, arr.n + 1):
            if not am.deletion_is_essential(arr, h):
                continue
            triple_check(arr, h)
            assert abe_pair_check(arr, h).status != "Violated"
    # Saito certificates re-verified by independent expansion
    reverified = 0
    for arr in corpus:
        verdict = decide_freeness(arr)
        if isinstance(verdict, Free):
            det = _expand_determinant(verdict.certificate)
            assert det == poly_scale(defining_polynomial(arr),
                                     verdict.certificate.constant)
            reverified += 1
    assert reverified > 0
    # randomized brute-force freeness oracle equivalence on all essential
    # sub-arrangements of two fixed 6-line arrangements
    rng = random.Random(42)
    for base in (BRAID6, MIXED6):
        for size in range(3, 7):
            for sub in combinations(range(6), size):
                try:
                    cols = [tuple(Fraction(x) for x in base[i]) for i in sub]
                    arr = am.build(cols, QQ)
                except am.ArrangementError:
                    continue
                assert isinstance(decide_freeness(arr),
                                  Free) == brute_force_free(arr, rng)
    print(f"PASS: 200-arrangement corpus sweeps (chi recursion, chi(1)=0, "
          f"Addition-Deletion and deletion-pair consistency, {reverified} "
          "Saito certificates re-expanded, brute-force oracle agreement)")


def _run_cli(*args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
            io.StringIO()):
        with pytest.raises(SystemExit) as exc:
            cli_mod.main(list(args))
        assert (exc.value.code or 0) == 0
    return out.getvalue()


def test_criterion_11_report_command_is_deterministic():
    args = ("report", "paper13", "--at", "3", "--format", "json")
    first = _run_cli(*args)
    second = _run_cli(*args)
    assert first == second
    assert first.encode("utf-8") == second.encode("utf-8")
    print("PASS: two report runs are byte-identical")
