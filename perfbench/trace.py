"""Per-layer spans around freearr's public functions, recorded from outside.

`Tracer.install` rebinds each traced function in its own module and under
every name another freearr module imported it as (for example
`induction.decide_freeness` or the names in `cli`), so calls between
layers pass through the wrappers.  Spans are kept in memory as
[name, start, end, parent, job] and written out once, when the run ends.
A few very hot functions are counted without a span; see COUNT_ONLY.
The derived counters are computed inside an OBSERVE span, which no metric
reports, so their cost is kept out of the program's self times.
"""
from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from time import perf_counter

TRACED = {
    "scalars": ("poly_gcd", "factor_low_degree", "is_squarefree"),
    "linalg": ("rank", "nullspace"),
    "arrangement": ("build", "Arrangement.lattice", "canonical_key",
                    "lattice_iso", "aut_order"),
    "freeness": ("decide_freeness", "derivation_space_dim",
                 "derivation_basis", "saito_check"),
    "induction": ("inductively_free", "quick_non_if", "recursively_free"),
    "moduli": ("degeneracy_set", "specialize", "generic_lattice"),
    "cli": ("main",),
}
# Called hundreds of thousands of times from ℚ(t) and ℚ(√d) arithmetic; a
# span each would add more time than the calls take, so they only count.
COUNT_ONLY = frozenset({"scalars.is_squarefree", "scalars.poly_gcd"})
JOB = "bench.job"
OBSERVE = "bench.observe"


def traced_names():
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.job = None
        self.counts: Counter = Counter()
        self.values: Counter = Counter()   # derived counters, see _observe
        self._seen_verdicts: dict = {}
        self._undo: list = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.job])
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        if name in COUNT_ONLY:
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                obs = self.open(OBSERVE)
                try:
                    observe(self, args, result)
                finally:
                    self.close(obs)
            return result
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "freearr" or n.startswith("freearr.")]
        for mod_name, fns in TRACED.items():
            mod = importlib.import_module(f"freearr.{mod_name}")
            for qual in fns:
                name = f"{mod_name}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(mod, cls_name)
                    self._rebind(owner, attr, self._wrap(name,
                                                         vars(owner)[attr]))
                    continue
                orig = getattr(mod, qual)
                wrapped = self._wrap(name, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._rebind(m, attr, wrapped)

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "fields": ["name", "start", "end",
                                                   "parent", "job"],
                       "counts": dict(self.counts),
                       "spans": [[index[s[0]], s[1], s[2], s[3], s[4]]
                                 for s in self.spans]}, fh)

    def layer_metrics(self) -> dict:
        return layer_metrics(self.spans, self.counts, self.values)


def self_times(spans) -> list:
    """Span duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _has_ancestor(spans, idx: int, name: str) -> bool:
    p = spans[idx][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def layer_metrics(spans, counts, values) -> dict:
    selfs = self_times(spans)
    calls: Counter = Counter(counts)
    self_s: Counter = Counter()
    for s, st in zip(spans, selfs):
        calls[s[0]] += 1
        self_s[s[0]] += st
    out = {}
    for name in traced_names():
        out[f"{name}.calls"] = calls[name]
        if name not in COUNT_ONLY:
            out[f"{name}.self_s"] = self_s[name]
    for kind in ("int", "quad"):
        out[f"linalg.{kind}.cells"] = values[f"linalg.{kind}.cells"]
        out[f"linalg.{kind}.max_entry_bits"] = values[
            f"linalg.{kind}.max_entry_bits"]
    df = calls["freeness.decide_freeness"]
    out["freeness.cache_hit_frac"] = values["freeness.cache_hits"] / df \
        if df else 0.0
    sc = calls["freeness.saito_check"]
    out["freeness.saito_check.success_frac"] = values["saito_check.ok"] / sc \
        if sc else 0.0
    if_total = if_freeness = 0.0
    if_nodes = spec_under_deg = 0
    for i, s in enumerate(spans):
        name = s[0]
        if name == "induction.inductively_free" and not _has_ancestor(
                spans, i, name):
            if_total += s[2] - s[1]
        elif name == "arrangement.canonical_key" and _has_ancestor(
                spans, i, "induction.inductively_free"):
            if_nodes += 1
        elif name == "moduli.specialize" and _has_ancestor(
                spans, i, "moduli.degeneracy_set"):
            spec_under_deg += 1
        if (name.startswith("freeness.") and s[3] >= 0
                and not spans[s[3]][0].startswith("freeness.")
                and _has_ancestor(spans, i, "induction.inductively_free")):
            if_freeness += s[2] - s[1]
    out["induction.if.nodes"] = if_nodes
    out["induction.if.freeness_frac"] = if_freeness / if_total \
        if if_total else 0.0
    out["induction.recursively_free.states"] = values["rf.states"]
    out["induction.recursively_free.candidates"] = values["rf.candidates"]
    out["moduli.degeneracy_set.useful_frac"] = (
        values["degeneracy.reported"] / spec_under_deg
        if spec_under_deg else 0.0)
    return out


# -- derived counters, computed from a call's arguments and result ----------

def _entry_bits(x) -> int:
    if isinstance(x, int):
        return abs(x).bit_length()
    return max(abs(x[0]).bit_length(), abs(x[1]).bit_length())


def _observe_matrix(tr: Tracer, args, result):
    rows, ncols, ops = args[0], args[1], args[2]
    kind = "int" if isinstance(ops, type) else "quad"
    tr.values[f"linalg.{kind}.cells"] += len(rows) * ncols
    bits = max((_entry_bits(x) for row in rows for x in row), default=0)
    key = f"linalg.{kind}.max_entry_bits"
    tr.values[key] = max(tr.values[key], bits)


def _observe_verdict(tr: Tracer, args, result):
    # A cached verdict is the very object an earlier call returned.
    if id(result) in tr._seen_verdicts:
        tr.values["freeness.cache_hits"] += 1
    else:
        tr._seen_verdicts[id(result)] = result


def _observe_saito(tr: Tracer, args, result):
    if result is not None:
        tr.values["saito_check.ok"] += 1


def _observe_rf(tr: Tracer, args, result):
    tr.values["rf.states"] += result.explored
    tr.values["rf.candidates"] += sum(e.addition_candidates
                                      for e in result.expansions)


def _observe_degeneracy(tr: Tracer, args, result):
    tr.values["degeneracy.reported"] += (len(result.rational)
                                         + len(result.quadratic))


_OBSERVERS = {
    "linalg.rank": _observe_matrix,
    "linalg.nullspace": _observe_matrix,
    "freeness.decide_freeness": _observe_verdict,
    "freeness.saito_check": _observe_saito,
    "induction.recursively_free": _observe_rf,
    "moduli.degeneracy_set": _observe_degeneracy,
}
