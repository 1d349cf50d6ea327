"""Inductive and recursive freeness of rank-3 arrangements.

The quick restriction-size obstruction to inductive freeness, a search
for inductive freeness over the intersection lattice with certificate
chains, a bounded bidirectional search refuting recursive freeness, and
the deletion-pair consistency check (a common root of the reduced
characteristic polynomials forces both members of the pair to be free).

In rank 3 a restriction A^H is a rank-2 arrangement of s = |A^H| lines,
always free with exponents [1, s-1].  The Addition-Deletion theorem then
pins every candidate exponent triple: if A has n hyperplanes, the only
bookkeeping compatible with deleting H is

    exp A  = [1, s-1, n-s],    exp A\\H = [1, s-1, n-s-1].

Since exp A = [1, e, f] sums to n, a step fits exactly when s-1 is e or f
(_fitting_sizes).
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from .arrangement import (
    Arrangement,
    _compute_lattice,
    add,
    char_poly,
    delete,
    line_key,
    normal_column,
    restriction_profile,
)
from .freeness import Free, decide_freeness, state_key
from .linalg import ring_cross
from .scalars import InputError, parse_integer, read_scalars, scalar_to_text


def _fitting_sizes(exps) -> tuple:
    """Restriction sizes s with [1, s-1, n-s] = exp A: sorted distinct e+1, f+1.

    exps is the sorted exponent triple (1, e, f) of an essential arrangement
    A of n = 1 + e + f hyperplanes.  The rule is the same for deleting H
    from A (s = |A^H|) and for adding H to A (s = |(A+H)^H|, n = |A|).
    """
    _, e, f = exps
    return tuple(sorted({e + 1, f + 1}))


# ---------------------------------------------------------------------------
# Quick obstruction (restriction sizes) and inductive freeness


def quick_non_if(arr: Arrangement):
    """Restriction-size obstruction to inductive freeness.

    If the roots of chi are [1, e, f] and no restriction has size e+1 or
    f+1, no Addition-Deletion step can ever apply to A (the first deletion
    needs |A^H| - 1 in {e, f}), so A is not inductively free.  Returns the
    witness table {label: |A^H|} when the obstruction fires, else None.
    """
    exps = arr.char_poly().exponents()
    if exps is None:
        return None
    fits = _fitting_sizes(exps)
    sizes = {h: restriction_profile(arr, h)[0] for h in range(1, arr.n + 1)}
    if any(s in fits for s in sizes.values()):
        return None
    return sizes


@dataclass(frozen=True)
class IFStep:
    """One deletion step in an inductive-freeness chain."""

    n: int
    label: int                  # label within the arrangement at this step
    exponents: tuple
    restriction_size: int


@dataclass(frozen=True)
class IFCertificate:
    """Deletion chain from A down to a base case.

    base is "triangle" (three essential hyperplanes, exponents [1,1,1]) or
    "pencil" (the final deletion leaves a rank-2 pencil, exponents [0,1,m-1]).
    """

    steps: tuple
    base: str


def inductively_free(arr: Arrangement):
    """Certificate chain if the arrangement is inductively free, else None.

    Inductive freeness depends only on the intersection lattice, so the
    search reads the lattice of arr once and never builds a deletion: a
    node is the set of surviving labels, and its rank-2 flats are the
    lattice's flats cut down to that set, where they keep at least two
    members.  No derivation module is solved.  Each step deletes one
    hyperplane H whose forced exponent bookkeeping [1, s-1, n-s] matches
    the characteristic polynomial roots; by deletion-restriction the
    deletion then automatically carries the matching [1, s-1, n-s-1].  The
    match holds exactly when s is e+1 or f+1, so whenever the obstruction of
    quick_non_if fires, no H passes it and the search fails at once.  Nodes
    whose search failed are remembered for the rest of this call only.
    """
    flats = arr.lattice().flats
    failed = set()

    def search(live: frozenset):
        if live in failed:
            return None
        n = len(live)
        node = [x for x in (f & live for f in flats) if len(x) > 1]
        exps = char_poly(n, node).exponents()
        if exps is None:
            return None
        if n == 3:
            return IFCertificate((), "triangle")
        fits = _fitting_sizes(exps)
        sizes = Counter(h for x in node for h in x)
        # the deletion of H has rank < 3 exactly when the other n-1 lie in
        # one flat; two such flats would share n-2 >= 2 members
        axis = next((x for x in node if len(x) == n - 1), None)
        # label is H's number in this node, as delete() would renumber it
        for label, h in enumerate(sorted(live), start=1):
            if sizes[h] not in fits:
                continue
            step = IFStep(n, label, exps, sizes[h])
            if axis is not None and h not in axis:
                # The deletion is a pencil of n-1 hyperplanes: free with
                # exponents [0, 1, n-2], and A is the near-pencil [1, 1, n-2].
                return IFCertificate((step,), "pencil")
            sub = search(live - {h})
            if sub is not None:
                return IFCertificate((step,) + sub.steps, sub.base)
        failed.add(live)
        return None

    return search(frozenset(arr.labels()))


# ---------------------------------------------------------------------------
# Candidate additions


def candidate_additions(arr: Arrangement, targets):
    """New hyperplanes H with predicted restriction size in targets.

    Enumerates lines through two or more rank-2 flats (in the dual
    projective plane every flat is a point): the rank-2 flats of the
    points, which one lattice scan of them, crossed from the integral ring
    columns, finds with its pair coverage checked (InvariantError).  Only
    lines of a target size are crossed and keyed, and only reported lines
    become field scalars, by normal_column.
    The predicted size uses the counting identity
        |(A+H)^H| = n - sum over flats X contained in H of (m_X - 1).
    Returns (candidates, complete).  complete is True when
    n - max(targets) > max multiplicity - 1: any H with a target size must
    then contain at least two existing flats, hence lies in the enumeration.
    """
    targets = set(targets)
    if not targets:
        return [], True
    flats = arr.lattice().flats
    ops, cols = arr.ops, arr.ring_columns
    points = [ring_cross(ops, cols[a - 1], cols[b - 1])
              for a, b, *_ in map(sorted, flats)]
    existing, lines = set(arr.keys), []
    for on in _compute_lattice(ops, points).flats:  # labels 1.. of points
        if arr.n - sum(len(flats[k - 1]) - 1 for k in on) in targets:
            a, b, *_ = sorted(on)
            line = ring_cross(ops, points[a - 1], points[b - 1])
            if line_key(ops, line) not in existing:
                lines.append(line)
    candidates = sorted(
        (normal_column([ops.from_coords(ops.ints(x), 1) for x in line])
         for line in lines), key=lambda v: tuple(str(x) for x in v))
    complete = arr.n - max(targets) > max(len(flat) for flat in flats) - 1
    return candidates, complete


# ---------------------------------------------------------------------------
# Recursive freeness


@dataclass(frozen=True)
class Move:
    """One search move: ("delete", (label,)) or ("add", covector scalars)."""

    action: str
    payload: tuple


@dataclass(frozen=True)
class Expansion:
    """Per-state record justifying the soundness flag."""

    n: int
    exponents: tuple
    deletion_moves: int
    addition_targets: tuple
    addition_candidates: int
    complete: bool


@dataclass(frozen=True)
class RFSearchReport:
    verdict: str                 # "RF" | "NotRF" | "Unknown"
    chain: tuple = ()            # Moves from the input to an IF state
    explored: int = 0
    sound: bool = False          # NotRF only: all candidate sets complete
    reason: str = ""
    expansions: tuple = ()


def recursively_free(arr: Arrangement, max_n: int,
                     max_states: int = 10000) -> RFSearchReport:
    """Bounded bidirectional search for a recursive-freeness chain.

    Moves are deletions and additions whose exponent bookkeeping matches
    the Addition-Deletion theorem; success is reaching an inductively free
    state.  NotRF is reported only when the search exhausts with every
    addition candidate set provably complete and no addition blocked by
    max_n; otherwise Unknown.  The input is explored first, so the verdict
    is RF with an empty chain exactly when it is inductively free.  A
    max_n below |A| or a max_states below 1 raises InputError.
    """
    if max_n < arr.n:
        raise InputError(f"max_n = {max_n} is below |A| = {arr.n}")
    if max_states < 1:
        raise InputError(f"max_states = {max_states} explores no state")
    # States are keyed by coordinates, not by lattice: freeness is not known
    # to be combinatorial (Terao's problem).
    start_key = state_key(arr)
    parents: dict = {start_key: None}
    queue = deque([(arr, start_key)])
    explored = 0
    all_complete = True
    truncated = False
    expansions = []

    def push(child: Arrangement, parent_key, move: Move):
        key = state_key(child)
        if key not in parents:
            parents[key] = (parent_key, move)
            queue.append((child, key))

    def chain_to(key) -> tuple:
        moves = []
        while parents[key] is not None:
            key, move = parents[key]
            moves.append(move)
        return tuple(reversed(moves))

    while queue:
        if explored >= max_states:
            return RFSearchReport(
                "Unknown", explored=explored,
                reason=f"state budget {max_states} exhausted",
                expansions=tuple(expansions))
        state, key = queue.popleft()
        explored += 1
        if inductively_free(state) is not None:
            return RFSearchReport(
                "RF", chain=chain_to(key), explored=explored,
                reason="reached an inductively free state",
                expansions=tuple(expansions))
        exps = state.char_poly().exponents()
        if exps is None:
            continue  # not free, so no chain passes through this state
        n = state.n
        fits = _fitting_sizes(exps)
        deletion_moves = 0
        # every deletion here is essential: a pencil deletion would make
        # state a near-pencil, which the IF test above has accepted
        for h in range(1, n + 1):
            if restriction_profile(state, h)[0] in fits:
                deletion_moves += 1
                push(delete(state, h)[0], key, Move("delete", (h,)))
        cands, complete = [], True
        if n + 1 > max_n:
            truncated = True
        else:
            cands, complete = candidate_additions(state, fits)
            all_complete = all_complete and complete
            for cov in cands:
                push(add(state, cov), key, Move("add", tuple(cov)))
        expansions.append(Expansion(
            n, exps, deletion_moves, fits, len(cands), complete))
    if truncated:
        return RFSearchReport(
            "Unknown", explored=explored,
            reason=f"addition moves blocked by max_n = {max_n}",
            expansions=tuple(expansions))
    return RFSearchReport(
        "NotRF", explored=explored, sound=all_complete,
        reason="search space exhausted with complete candidate sets"
        if all_complete else "search space exhausted, but some candidate "
        "sets were not provably complete",
        expansions=tuple(expansions))


def replay_chain(arr: Arrangement, moves) -> Arrangement:
    """Re-execute a recursive-freeness chain, re-verifying every move.

    Each move must satisfy the Addition-Deletion bookkeeping against the
    state it is applied to, and the final state must be inductively free.
    Returns the final arrangement; raises InputError on any violation.
    """
    state = arr
    for idx, move in enumerate(moves, start=1):
        exps = state.char_poly().exponents()
        if exps is None:
            raise InputError(
                f"move {idx}: characteristic polynomial does not split")
        if move.action == "delete":
            h = move.payload[0]
            s, _ = restriction_profile(state, h)
            if s not in _fitting_sizes(exps):
                raise InputError(
                    f"move {idx}: deleting {h} breaks the exponent "
                    f"bookkeeping (|A^H| = {s}, exponents {exps})")
            state, _ = delete(state, h)
        elif move.action == "add":
            state = add(state, move.payload)
            s, _ = restriction_profile(state, state.n)
            if s not in _fitting_sizes(exps):
                raise InputError(
                    f"move {idx}: the added hyperplane has restriction "
                    f"size {s}, incompatible with exponents {exps}")
        else:
            raise InputError(f"move {idx}: unknown action {move.action!r}")
    if inductively_free(state) is None:
        raise InputError("final state of the chain is not inductively free")
    return state


def chain_to_text(moves) -> str:
    """The chain as text, a move a line: 'delete h', or 'add' and the three
    scalars of the covector (scalars.scalar_to_text)."""
    return "".join(
        f"delete {m.payload[0]}\n" if m.action == "delete" else
        " ".join(["add", *map(scalar_to_text, m.payload)]) + "\n"
        for m in moves)


def chain_from_text(text: str) -> tuple:
    """The moves chain_to_text wrote, '#' starting a comment; a malformed
    line raises InputError naming it.  replay_chain checks the moves."""
    moves = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        action, *toks = line.split()
        try:
            if action == "delete" and len(toks) == 1:
                payload = (parse_integer(toks[0]),)
            elif action == "add":
                payload = tuple(read_scalars(toks))
                if len(payload) != 3:
                    raise InputError("expected three scalars")
            else:
                raise InputError("unrecognized move")
        except InputError as exc:
            raise InputError(f"chain line {ln}: cannot read {line!r}: "
                             f"{exc}") from None
        moves.append(Move(action, payload))
    return tuple(moves)


# ---------------------------------------------------------------------------
# Deletion pairs


@dataclass(frozen=True)
class PairCheck:
    status: str          # "Consistent" | "Violated" | "NotApplicable"
    detail: str = ""


def abe_pair_check(arr: Arrangement, h: int) -> PairCheck:
    """Deletion-pair freeness consistency.

    In rank 3 both characteristic polynomials share the root 1, so the
    meaningful condition is a common root of the reduced quadratics
    chi/(x-1).  When they share a root, both members of the pair must be
    free; a Violated result would falsify the implementation.
    """
    sub, _ = delete(arr, h)
    c1, b1, _ = arr.char_poly().reduced()
    c2, b2, _ = sub.char_poly().reduced()
    # Common root of x^2 + b1 x + c1 and x^2 + b2 x + c2: their resultant
    # (c2 - c1)^2 + (b2 - b1)(b2 c1 - b1 c2) vanishes.
    resultant = (c2 - c1) ** 2 + (b2 - b1) * (b2 * c1 - b1 * c2)
    if resultant != 0:
        return PairCheck("NotApplicable",
                         "no common root of the reduced polynomials")
    va = decide_freeness(arr)
    vb = decide_freeness(sub)
    if isinstance(va, Free) and isinstance(vb, Free):
        return PairCheck("Consistent")
    return PairCheck(
        "Violated",
        f"verdicts {type(va).__name__}/{type(vb).__name__} despite a "
        "common reduced root")
