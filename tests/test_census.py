"""A census of the subarrangements of the paper's 13-line member.

Every nonempty subset of a13 (the 13-line family at t = 3) is built from
a13's ring columns, keys and scales, as delete builds a deletion, and
classified.  The paper's 13-line member is free but not inductively free;
the census says more: every free proper subarrangement is inductively free.
Terao's conjecture holds for rank-3 arrangements of at most 14 lines, so
two members with one lattice must agree on freeness: at t = 5 each rank-3
subset has the same listing, verdict and exponents as at t = 3.  Every
deletion of a nine-line subset is also a deletion pair for
abe_pair_check: where the reduced characteristic polynomials share a root,
both members must be free, and none of the 6,435 pairs is Violated.
"""
from collections import Counter
from itertools import combinations

from freearr import arrangement as am
from freearr import moduli as mod
from freearr.freeness import Free, decide_freeness
from freearr.induction import abe_pair_check, inductively_free


def subsets(arr):
    """(labels, subarrangement or None when of rank < 3) for each
    nonempty subset of arr's lines."""
    xs = (arr.ring_columns, arr.keys, arr.scales)
    for r in range(1, arr.n + 1):
        for s in combinations(range(arr.n), r):
            cols = [arr.ring_columns[i] for i in s]
            yield s, (am.Arrangement(arr.ops, *([x[i] for i in s]
                                                for x in xs))
                      if am._has_rank3(cols, arr.ops) else None)


def verdict(arr):
    """(listing, freeness verdict) of a rank-3 subset; the verdict is
    None when chi does not split."""
    listing = am.format_lattice(arr.lattice())
    if arr.char_poly().exponents() is None:
        return listing, None
    v = decide_freeness(arr, use_cache=False)
    return listing, (v.exponents if isinstance(v, Free) else v.reason)


def test_census_of_a13():
    family = mod.family_13()
    a13, a5 = (mod.specialize(family, t).arrangement for t in (3, 5))
    counts, pairs, rank3 = Counter(), Counter(), 0
    for (s, sub), (_, other) in zip(subsets(a13), subsets(a5)):
        if sub is None:
            assert other is None
            counts["rank < 3", len(s) <= 2] += 1
            continue
        rank3 += 1
        if len(s) == 9:
            for h in sub.labels():
                if am.deletion_is_essential(sub, h):
                    pairs[abe_pair_check(sub, h).status] += 1
        found = verdict(sub)
        assert verdict(other) == found, s
        if found[1] is None:
            counts["chi not split"] += 1
        elif not isinstance(found[1], tuple):
            counts["split, not free"] += 1
        elif inductively_free(sub) is not None:
            counts["IF"] += 1
        else:
            counts["free, not IF"] += 1
            assert len(s) == 13
    assert rank3 == 8034
    assert counts == {("rank < 3", True): 91, ("rank < 3", False): 66,
                      "chi not split": 5938, "split, not free": 12,
                      "IF": 2083, "free, not IF": 1}
    assert pairs == {"Consistent": 261, "NotApplicable": 6174}
