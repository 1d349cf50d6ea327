"""Reflection arrangements as goldens: the monomial arrangements A^k_3(r)
over Q(sqrt -3) and Q(i), and H3 over Q(sqrt 5).

The exponents are Orlik-Terao's (Arrangements of Hyperplanes, Prop. 6.85);
that G(r, r, 3) is not inductively free for r >= 3 is Hoge-Roehrle's, and
that the Coxeter arrangement H3 is, Barakat-Cuntz's.  The RF chains and
|Aut| are regression values.
"""
import random
from fractions import Fraction

import pytest

from freearr import arrangement as am
from freearr import freeness as fr
from freearr.freeness import Free, decide_freeness, saito_check
from freearr.induction import inductively_free, recursively_free, replay_chain
from freearr.scalars import QuadElem

from conftest import (aut_order_by_full_scan, field_columns, h3, member,
                      monomial)

# name: (arrangement, n, field, exponents, IF, RF moves, |Aut| or None);
# aut_order on G(6,6,3) takes seconds, so its |Aut| is left out
ROWS = {
    "G(3,3,3)": (lambda: monomial(3, 0), 9, "QQ(sqrt -3)", (1, 4, 4),
                 False, 1, 432),
    "G(3,3,3)+1": (lambda: monomial(3, 1), 10, "QQ(sqrt -3)", (1, 4, 5),
                   True, 0, 36),
    "G(4,4,3)": (lambda: monomial(4, 0), 12, "QQ(sqrt -1)", (1, 5, 6),
                 False, 1, 192),
    "G(4,4,3)+1": (lambda: monomial(4, 1), 13, "QQ(sqrt -1)", (1, 5, 7),
                   True, 0, 64),
    "G(6,6,3)": (lambda: monomial(6, 0), 18, "QQ(sqrt -3)", (1, 7, 10),
                 False, 1, None),
    "G(6,6,3)+2": (lambda: monomial(6, 2), 20, "QQ(sqrt -3)", (1, 7, 12),
                   True, 0, None),
    "H3": (h3, 15, "QQ(sqrt 5)", (1, 5, 9), True, 0, 120),
}


@pytest.mark.parametrize("name", ROWS)
def test_reflection_golden(name):
    make, n, field, exponents, is_if, moves, aut = ROWS[name]
    arr = make()
    assert (arr.n, arr.ops.name) == (n, field)
    verdict = decide_freeness(arr, use_cache=False)
    assert isinstance(verdict, Free) and verdict.exponents == exponents
    cert = verdict.certificate
    assert saito_check(arr, *cert.derivations) == cert.constant
    assert (inductively_free(arr) is not None) == is_if
    report = recursively_free(arr, max_n=n + 1)
    assert report.verdict == "RF" and len(report.chain) == moves
    assert inductively_free(replay_chain(arr, report.chain)) is not None
    if aut is not None:
        assert am.aut_order(arr.lattice())[0] == aut
    if n <= 13:
        assert aut_order_by_full_scan(arr.lattice())[0] == aut


@pytest.mark.parametrize("a, constant", [
    (Fraction(3, 2), QuadElem(5, Fraction(-2207, 2), Fraction(987, 2))),
    (Fraction(-1, 2), QuadElem(5, -38, -17)),
], ids=["3/2", "-1/2"])
def test_conjugate_paper15_points_have_conjugate_constants(a, constant):
    """paper15 at a + sqrt 5 / 2 and at its Galois conjugate a - sqrt 5 / 2
    is free with H3's exponents, inductively free and has |Aut| = 120 at
    both points; the Saito constants are conjugate too."""
    constants = []
    for b in (Fraction(1, 2), Fraction(-1, 2)):
        arr = member("paper15", QuadElem(5, a, b))
        verdict = decide_freeness(arr, use_cache=False)
        assert isinstance(verdict, Free) and verdict.exponents == (1, 5, 9)
        assert inductively_free(arr) is not None
        assert am.aut_order(arr.lattice())[0] == 120
        constants.append(verdict.certificate.constant)
    assert constants == [constant, constant.conjugate()]


@pytest.mark.parametrize("r", [2, 3, 4, 6])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_monomial_exponents_are_orlik_teraos(r, k):
    """A^k_3(r) is free with exponents (1, r + 1, 2r - 2 + k)."""
    arr = monomial(r, k)
    verdict = decide_freeness(arr, use_cache=False)
    assert verdict.exponents == tuple(sorted((1, r + 1, 2 * r - 2 + k)))
    cert = verdict.certificate
    assert saito_check(arr, *cert.derivations) == cert.constant


@pytest.mark.parametrize("make, unit", [
    (lambda: monomial(3, 0), QuadElem(-3, Fraction(-1, 2), Fraction(1, 2))),
    (lambda: monomial(4, 1), QuadElem(-1, 1, 1)),
    (h3, QuadElem(5, Fraction(1, 2), Fraction(1, 2))),
], ids=["zeta3", "1+i", "tau"])
def test_permuted_scaled_copy_hits_with_its_own_constant(make, unit,
                                                         monkeypatch):
    """A copy with its columns permuted and scaled by a field element, 2
    and -3/5 hits the cache entry of the original and reports the constant
    of its own columns."""
    monkeypatch.setattr(fr, "_VERDICT_CACHE", {})
    arr = make()
    rng = random.Random(7)
    cols = list(field_columns(arr))
    rng.shuffle(cols)
    scales = [(unit, 2, Fraction(-3, 5))[i % 3] for i in range(len(cols))]
    moved = am.build([tuple(s * x for x in c) for s, c in zip(scales, cols)],
                     arr.ops)
    cached = decide_freeness(arr).certificate
    hit = decide_freeness(moved).certificate
    own = decide_freeness(moved, use_cache=False).certificate
    assert hit.derivations is cached.derivations
    assert hit.constant == own.constant != cached.constant
