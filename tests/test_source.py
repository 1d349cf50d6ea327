"""Guards over the source of the freearr package itself."""
import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

import freearr

from conftest import field_columns

SRC = Path(freearr.__file__).parent
TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"


def test_no_assert_statements():
    """Invariants are real exceptions: python -O strips assert statements."""
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 7
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_sources_parse_with_the_oldest_promised_grammar():
    """pyproject.toml promises requires-python >= 3.10: every module parses
    with that version's grammar, which refuses except* and later syntax."""
    pyproject = (SRC.parent.parent / "pyproject.toml").read_text()
    minor = int(re.search(r'requires-python = ">=3\.(\d+)"', pyproject)[1])
    assert minor == 10
    for path in sorted(SRC.rglob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, minor))
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, minor))


def test_benchmark_traced_names_exist():
    """perfbench/trace.py rebinds these names; read them without importing it."""
    tree = ast.parse(TRACE.read_text(), str(TRACE))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED"
                          for t in node.targets))
    names = [(mod, fn) for mod, fns in traced.items() for fn in fns]
    assert len(names) == 21
    missing = []
    for mod, fn in names:
        try:
            reduce(getattr, fn.split("."),
                   importlib.import_module(f"freearr.{mod}"))
        except AttributeError:
            missing.append(f"{mod}.{fn}")
    assert missing == []


def _reads(node, name, scope="<module>"):
    """Names of the innermost functions that read ``name`` or ``.name``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    if (getattr(node, "attr", getattr(node, "id", None)) == name
            and isinstance(getattr(node, "ctx", None), ast.Load)):
        yield scope
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, name, scope)


def _readers(name):
    return [f"{path.relative_to(SRC)}:{scope}"
            for path in sorted(SRC.rglob("*.py"))
            for scope in _reads(ast.parse(path.read_text(), str(path)), name)]


def test_only_canonical_key_reads_the_canonical_walk():
    """The walk, canonical_key and its TRACED entry can then go together."""
    assert _readers("canonical") == ["arrangement.py:canonical_key"]


def test_no_sympy_in_the_package():
    """Factorization in Z[t] is in-house; sympy is a test oracle only."""
    found = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
             if "sympy" in path.read_text()]
    assert found == []


def test_degeneracy_sets_do_not_load_sympy():
    code = (
        "import sys\n"
        "from freearr import cli, moduli\n"
        "moduli.degeneracy_set(moduli.family_13())\n"
        "try:\n"
        "    cli.main(['moduli', 'paper15'])\n"
        "except SystemExit as exc:\n"
        "    print('exit', exc.code, 'sympy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.stdout.startswith("Degeneracy set of paper15"), proc.stderr
    assert proc.stdout.endswith("exit 0 False\n")


def test_the_package_imports_the_standard_library_only():
    """Every import in the package is freearr-relative or names a module of
    the standard library: freearr has no runtime dependency."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(SRC)}:{name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names
                      and name.split(".")[0] != "freearr"]
    assert found == []


def test_a_report_does_not_load_click():
    code = (
        "import sys\n"
        "from freearr import cli\n"
        "try:\n"
        "    cli.main(['report', 'paper13', '--at', '3'])\n"
        "except SystemExit as exc:\n"
        "    print('exit', exc.code, 'click' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.stdout.startswith("Input: paper13 at t = 3\n"), proc.stderr
    assert proc.stdout.endswith("exit 0 False\n")


def test_only_candidate_additions_reads_normal_column():
    """line_key is the one test of "same line"; normal_column is only the
    form in which candidate additions are reported."""
    assert _readers("normal_column") == ["induction.py:candidate_additions"]


def test_quadratic_specialization_does_no_field_multiplication(monkeypatch):
    """specialize evaluates, groups and validates on integral images."""
    from fractions import Fraction

    from freearr import moduli
    from freearr.scalars import QuadElem

    omega = QuadElem(5, Fraction(3, 2), Fraction(1, 2))
    calls = []
    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                 "inverse"):
        def spy(*args, name=name, method=getattr(QuadElem, name)):
            calls.append(name)
            return method(*args)
        monkeypatch.setattr(QuadElem, name, spy)
    spec = moduli.specialize(moduli.family_15(), omega)
    assert calls == []
    assert spec.count == 15 and spec.arrangement.n == 15
    # the spies do see field arithmetic
    assert omega * omega == 3 * omega - 1 and calls == ["__mul__", "__rmul__"]


def test_family_scans_do_no_polynomial_arithmetic(monkeypatch):
    """degeneracy_set and generic_lattice compute every minor on packed
    integers; IntPoly arithmetic only builds families."""
    from freearr import moduli
    from freearr.scalars import IntPoly

    f = moduli.family_15()
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                 "__rsub__", "__neg__"):
        def spy(*args, name=name, method=getattr(IntPoly, name)):
            calls.append(name)
            return method(*args)
        monkeypatch.setattr(IntPoly, name, spy)
    rep = moduli.degeneracy_set(f)
    lat = moduli.generic_lattice(f)
    assert calls == []
    assert len(rep.rational) == 3 and len(lat.flats) == 39
    # the spies do see polynomial arithmetic
    assert -moduli.poly(1, 1) == moduli.poly(-1, -1) and calls == ["__neg__"]


def test_families_are_validated_by_packed_line_keys(monkeypatch):
    """Family compares the line keys of its packed columns: it takes no
    polynomial gcd and divides no polynomials."""
    from freearr import moduli, scalars

    cols = moduli.family_15().columns
    calls = []
    for mod, name in ((scalars, "_gcd"), (scalars, "poly_gcd"),
                      (scalars, "_quotient"), (moduli, "poly_gcd"),
                      (moduli, "_quotient")):
        if hasattr(mod, name):
            def spy(*args, name=name, real=getattr(mod, name)):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(mod, name, spy)
    fam = moduli.Family("paper15", cols)
    assert calls == []
    assert fam.n == 15
    # the spies do see gcds
    assert scalars.poly_gcd(cols[4][1], cols[4][1]) == cols[4][1]
    assert calls == ["poly_gcd", "_gcd"]


def test_one_same_line_test_and_one_factorization_path():
    """line_key is the one proportionality test, first_equal_pair the one
    search for the first equal pair, run where columns arrive (build and
    Family), and factor_low_degree factors the squarefree part: the
    primitive ℤ[t] columns and Yun's decomposition are gone, and only the
    pair scan of the minors takes polynomial gcds."""
    assert _readers("first_equal_pair") == ["arrangement.py:build",
                                            "moduli.py:__post_init__"]
    assert _readers("poly_gcd") == ["moduli.py:_candidate_polys"]
    found = [f"{path.relative_to(SRC)}:{node.name}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.FunctionDef)
             and node.name in ("_squarefree_parts", "_primitive_column")]
    assert found == []


def test_no_inconclusive_and_no_det3_cols():
    """Freeness is two-valued, and det3_cols is a test oracle."""
    found = [f"{path.relative_to(SRC)}:{word}"
             for path in sorted(SRC.rglob("*.py"))
             for word in ("Inconclusive", "det3_cols")
             if word in path.read_text()]
    assert found == []


def test_lattice_scan_computes_no_determinant():
    """Lattices come from one cross product per flat, dotted with the later
    columns; the one determinant in the package is Saito's, in the det
    step that saito_check and the solver share."""
    assert _readers("det3") == ["freeness.py:_saito_constant"]


def test_no_full_system_and_no_kernel_supplier():
    """D(A)_p comes from the exact two-point kernel: the full system M, the
    kernel supplier and its mod-p reduction from the right are gone."""
    from freearr import freeness, linalg

    assert [name for mod, name in ((freeness, "_constraint_rows"),
                                   (freeness, "_dh_kernel"),
                                   (linalg, "_reduce_right"))
            if hasattr(mod, name)] == []
    assert "kernel" not in inspect.signature(linalg.nullspace).parameters


def test_one_exact_echelon_and_no_test_only_code():
    """Complements are picked on linalg.echelon's exact rows: the field
    reducer, its vector conversions and the field echelon are gone, and so
    are helpers that only tests called."""
    from freearr import arrangement, freeness, induction, linalg, moduli

    assert [name for mod, name in (
        (freeness, "_FieldReducer"), (freeness, "_derivation_vector"),
        (freeness, "_poly_multiple_vectors"),
        (freeness, "_vector_to_derivation"), (linalg, "right_echelon"),
        (linalg, "_reduced"), (arrangement.IntersectionLattice,
                               "flat_of_pair"),
        (moduli, "_quadratic_root"), (induction, "triple_check"),
        (induction, "TripleVerdict"), (induction, "_statement_holds"),
        (induction, "TheoremViolationError"),
        (moduli, "format_family")) if hasattr(mod, name)] == []


def test_text_formats_live_beside_their_objects():
    """scalars writes and reads the tagged scalars, induction the chains:
    cli.py keeps no parser or writer of either, and imports no private
    name from another freearr module."""
    from freearr import cli, freeness

    path = SRC / "cli.py"
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("freearr"))
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []
    assert [name for mod, name in (
        (freeness, "_read_scalar"), (freeness, "_scalar_to_text"),
        (cli, "_parse_chain"), (cli, "_parse_covector"),
        (cli, "_chain_lines")) if hasattr(mod, name)] == []


def test_complements_come_from_the_lifts_alone(monkeypatch):
    """decide_freeness builds no canonical basis of D(A)_p and passes no
    m * theta_E and no m * theta_2 to linalg.echelon: reducing modulo
    S*theta_E divides by x3 or x1, and modulo the m * theta_2 goes by
    forward substitution on their row echelon form (linalg.triangular),
    from one _shifts(theta_2, ...) call per e3 complement."""
    from fractions import Fraction

    from conftest import grid
    from freearr import freeness, linalg, moduli
    from freearr.scalars import QuadElem

    assert not hasattr(freeness, "_canonical_rows")
    assert not hasattr(freeness, "_modulo")
    vectors, calls = [], []
    echelon, shifts = linalg.echelon, freeness._shifts

    def spy(vecs, ops):
        vecs = list(vecs)
        vectors.extend(vecs)
        return echelon(vecs, ops)
    monkeypatch.setattr(linalg, "echelon", spy)
    for name in ("_shifts", "_first_complement"):
        def record(*args, name=name, real=getattr(freeness, name)):
            calls.append((name, args))
            return real(*args)
        monkeypatch.setattr(freeness, name, record)
    omega = QuadElem(5, Fraction(3, 2), Fraction(1, 2))
    for arr in (moduli.specialize(moduli.family_13(), 3).arrangement,
                moduli.specialize(moduli.family_15(), omega).arrangement,
                grid(8)):
        del vectors[:], calls[:]
        verdict = freeness.decide_freeness(arr, use_cache=False)
        assert isinstance(verdict, freeness.Free)
        _, e2, e3 = verdict.exponents
        theta2 = verdict.certificate.derivations[1].vec
        euler = freeness.euler_derivation(arr).vec
        by_theta2 = shifts(theta2, e2, e3)
        banned = ([v for p in (e2, e3) for v in shifts(euler, 1, p)]
                  + by_theta2 + [freeness._euler_reduced(arr.ops, e3, c, v)
                                 for c in (0, 2) for v in by_theta2])
        # keys are negated where a side pivots on first columns
        banned = [{abs(j): x for j, x in v.items()} for v in banned]
        assert vectors and not any({abs(j): x for j, x in v.items()}
                                   in banned for v in vectors)
        [at_e3] = [i for i, (name, args) in enumerate(calls)
                   if name == "_first_complement" and args[2]]
        assert calls[at_e3][1][2] == ((e2, theta2),)
        assert [args for name, args in calls[at_e3:]
                if name == "_shifts"] == [(theta2, e2, e3)]


def test_saito_step_builds_no_euler_row_and_one_frame(monkeypatch):
    """decide_freeness reduces modulo S*theta_E in closed form, so no
    m * theta_E is built (_shifts never sees theta_E), and it builds the
    two-point frame, with pi_P and pi_Q, once for e2 and e3."""
    from fractions import Fraction

    from freearr import freeness, moduli
    from freearr.scalars import QuadElem

    calls = []
    for name in ("_shifts", "_two_point_frame"):
        def spy(*args, name=name, real=getattr(freeness, name)):
            calls.append((name, args))
            return real(*args)
        monkeypatch.setattr(freeness, name, spy)
    omega = QuadElem(5, Fraction(3, 2), Fraction(1, 2))
    for arr in (moduli.specialize(moduli.family_13(), 3).arrangement,
                moduli.specialize(moduli.family_15(), omega).arrangement):
        del calls[:]
        verdict = freeness.decide_freeness(arr, use_cache=False)
        euler = freeness.euler_derivation(arr).vec
        assert isinstance(verdict, freeness.Free)
        assert [name for name, _ in calls].count("_two_point_frame") == 1
        shifted = [args[0] for name, args in calls if name == "_shifts"]
        assert shifted and euler not in shifted
    # the spy does see theta_E
    freeness.derivation_basis(arr, 1)
    assert ("_shifts", (euler, 1, 1)) in calls


def test_columns_are_cleared_once():
    """build and add clear each new column once, in _cleared, and keep the
    ring columns, line keys and scales on the Arrangement, which takes no
    field columns, so no function can stand in for them; the lattice scan,
    the solver, state keys and addition candidates read them, and nullspace
    returns integral vectors."""
    from freearr import arrangement, freeness, linalg

    assert _readers("clear_column") == ["arrangement.py:_cleared"]
    assert sorted(_readers("_cleared")) == ["arrangement.py:add",
                                            "arrangement.py:build"]
    assert list(inspect.signature(arrangement.Arrangement).parameters) == [
        "ops", "ring_columns", "keys", "scales"]
    assert [name for mod, name in ((arrangement, "_lattice_column"),
                                   (freeness, "cleared_columns"),
                                   (linalg, "_field_basis"))
            if hasattr(mod, name)] == []


def test_one_object_per_field():
    """A field is its ops object (scalars.IntOps or a QuadOps): the domain
    classes, ring_ops and _field_column are gone, an Arrangement keeps no
    domain, field-to-ring conversion is scalars.clear, and arrangement.py
    branches on no QuadElem."""
    from freearr import arrangement, moduli, scalars

    assert [name for mod, name in (
        (scalars, "Domain"), (scalars, "RationalDomain"),
        (scalars, "QuadDomain"), (arrangement, "ring_ops"),
        (moduli, "_field_column")) if hasattr(mod, name)] == []
    assert "domain" not in arrangement.Arrangement.__slots__
    assert _readers("clear") == ["arrangement.py:clear_column",
                                 "freeness.py:certificate_from_text",
                                 "moduli.py:_integral_images"]
    path = SRC / "arrangement.py"
    found = [node.lineno
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "isinstance"
             and "QuadElem" in ast.unparse(node.args[1])]
    assert found == []


def test_specialize_clears_each_column_once(monkeypatch):
    """specialize makes the Arrangement of its primitive images and line
    keys itself: it neither builds nor clears again, and of build's checks
    runs only the rank test, once, since its keys are distinct."""
    from fractions import Fraction

    from freearr import arrangement, moduli
    from freearr.scalars import QuadElem

    omega = QuadElem(5, Fraction(3, 2), Fraction(1, 2))
    members = ((moduli.family_13(), 3), (moduli.family_15(), omega),
               (moduli.family_13(), 0))
    calls = []
    for name in ("build", "_cleared", "clear_column", "first_equal_pair",
                 "_has_rank3"):
        def spy(*args, name=name, real=getattr(arrangement, name)):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(arrangement, name, spy)
        if hasattr(moduli, name):
            monkeypatch.setattr(moduli, name, spy)
    specs = [moduli.specialize(fam, at) for fam, at in members]
    assert calls == ["_has_rank3"] * 3
    assert specs[2].count < 13      # CountDrops at 0
    monkeypatch.undo()
    for spec in specs:
        arr = spec.arrangement
        built = arrangement.build(field_columns(arr), arr.ops)
        assert (arr.ring_columns, arr.keys) == (built.ring_columns,
                                                built.keys)


def test_specialize_keys_only_the_t_dependent_columns(monkeypatch):
    """A Family keeps the form, content and key of each column that does
    not depend on t, so specialize keys only the others: 7 of paper13's 13
    columns, 9 of paper15's 15, and none of a constant family."""
    from fractions import Fraction

    from freearr import moduli
    from freearr.scalars import QuadElem

    constant = moduli.Family("constant", moduli._cols(
        (2, 0, 0), (-3, 6, 0), (0, -4, 0), (-5, 10, 15)))
    cases = [(moduli.family_13(), 3, 7),
             (moduli.family_15(), QuadElem(5, Fraction(3, 2), Fraction(1, 2)),
              9),
             (constant, 0, 0), (constant, QuadElem(-3, 0, 1), 0)]
    real, calls = moduli.line_key, []
    monkeypatch.setattr(moduli, "line_key",
                        lambda *args: calls.append(args) or real(*args))
    for fam, omega, keyed in cases:
        calls.clear()
        spec = moduli.specialize(fam, omega)
        assert len(calls) == keyed
        assert keyed == sum(fixed is None for fixed in fam.fixed)
        assert spec.count == fam.n and spec.arrangement.n == fam.n


def test_family_scans_read_the_kept_packing(monkeypatch):
    """degeneracy_set and generic_lattice pack no family after it is
    built: they read Family.packing."""
    from freearr import moduli

    def forbidden(f):
        raise AssertionError("a family was packed again")

    fams = [moduli.family_13(), moduli.family_15()]
    monkeypatch.setattr(moduli, "_packed", forbidden)
    for fam in fams:
        moduli.degeneracy_set(fam)
        moduli.generic_lattice(fam)
    with pytest.raises(AssertionError, match="packed again"):
        moduli.family_13()


def test_no_field_arithmetic_before_the_saito_check(monkeypatch):
    """The derivations stay integral, and saito_check, which makes the
    constant c, reads the ring columns and their integer scales: no field
    arithmetic at all.  That holds with the verdict cache too, on a miss,
    an exact repeat and a hit by rescaled columns, whose state keys are
    made from line keys alone."""
    from fractions import Fraction

    from freearr import arrangement, freeness, moduli
    from freearr.scalars import QuadElem

    assert not hasattr(freeness, "_key_and_lead")
    omega = QuadElem(5, Fraction(3, 2), Fraction(1, 2))
    arrs = [moduli.specialize(moduli.family_13(), 3).arrangement,
            moduli.specialize(moduli.family_15(), omega).arrangement]
    moved = [arrangement.build([tuple(2 * x for x in cols[0]), *cols[1:]],
                               arr.ops)
             for arr, cols in zip(arrs, map(field_columns, arrs))]
    for arr in arrs:
        arr.char_poly()         # the lattice, cached, and chi
    monkeypatch.setattr(freeness, "_VERDICT_CACHE", {})
    calls = []
    for cls in (Fraction, QuadElem):
        for name in ("__mul__", "__rmul__", "__add__", "__radd__",
                     "__sub__", "__rsub__", "__truediv__", "__rtruediv__"):
            def spy(*args, name=f"{cls.__name__}.{name}",
                    method=getattr(cls, name)):
                calls.append(name)
                return method(*args)
            monkeypatch.setattr(cls, name, spy)
    keys = [freeness.state_key(arr) for arr in arrs + moved]
    verdicts = [freeness.decide_freeness(arr, use_cache=False)
                for arr in arrs]
    misses = [freeness.decide_freeness(arr) for arr in arrs]
    repeats = [freeness.decide_freeness(arr) for arr in arrs]
    hits = [freeness.decide_freeness(arr) for arr in moved]
    assert calls == []
    assert keys[:2] == keys[2:]
    assert [v.exponents for v in verdicts] == [(1, 6, 6), (1, 5, 9)]
    assert all(r is m for r, m in zip(repeats, misses))
    assert all(h.certificate.constant != m.certificate.constant
               for h, m in zip(hits, misses))
    # the spies do see field arithmetic, QuadElem's on Fraction parts too
    assert omega * omega == 3 * omega - 1
    assert {"QuadElem.__mul__", "QuadElem.__rmul__", "QuadElem.__sub__",
            "Fraction.__mul__"} <= set(calls)


def test_candidate_pairs_are_crossed_in_integers(monkeypatch):
    """candidate_additions crosses the lattice's integral columns: only
    normal_column, on the reported lines, computes with field scalars."""
    from fractions import Fraction

    from freearr import arrangement, induction, moduli
    from freearr.scalars import QuadElem

    arr = moduli.specialize(moduli.family_13(), 3).arrangement
    arr.lattice()
    calls, on = [], [True]
    for cls in (Fraction, QuadElem):
        for name in ("__mul__", "__rmul__", "__add__", "__radd__",
                     "__sub__", "__rsub__", "__truediv__", "__rtruediv__",
                     "__neg__"):
            def spy(*args, name=f"{cls.__name__}.{name}",
                    method=getattr(cls, name)):
                if on[0]:
                    calls.append(name)
                return method(*args)
            monkeypatch.setattr(cls, name, spy)
    normal = arrangement.normal_column

    def unobserved_normal(col):
        on[0] = False
        try:
            return normal(col)
        finally:
            on[0] = True
    monkeypatch.setattr(induction, "normal_column", unobserved_normal)
    cands, _ = induction.candidate_additions(arr, range(2, arr.n + 1))
    assert calls == []
    assert cands and all(isinstance(x, Fraction) for c in cands for x in c)
    # the spies do see field arithmetic
    assert normal((2, 1, 0)) == (1, Fraction(1, 2), 0)
    assert "Fraction.__rmul__" in calls


def test_candidate_lines_are_one_lattice_scan_of_the_points(monkeypatch):
    """candidate_additions scans the flats' points once with the lattice
    kernel and crosses a pair of points only for a line of a target size:
    F + (those lines) crosses, where crossing every pair makes F + F(F-1)/2."""
    from freearr import induction, moduli

    arr = moduli.specialize(moduli.family_15(), 3).arrangement
    flats = arr.lattice().flats
    f = len(flats)
    scans, crosses = [], []
    scan, cross = induction._compute_lattice, induction.ring_cross

    def scan_spy(ops, cols):
        scans.append(scan(ops, cols))
        return scans[-1]

    def cross_spy(ops, u, v):
        crosses.append((u, v))
        return cross(ops, u, v)
    monkeypatch.setattr(induction, "_compute_lattice", scan_spy)
    monkeypatch.setattr(induction, "ring_cross", cross_spy)
    for targets in (set(induction._fitting_sizes(
            arr.char_poly().exponents())), set(range(2, arr.n + 1))):
        del scans[:], crosses[:]
        cands, _ = induction.candidate_additions(arr, targets)
        assert len(scans) == 1
        sized = [on for on in scans[0].flats
                 if arr.n - sum(len(flats[k - 1]) - 1 for k in on) in targets]
        assert len(cands) <= len(sized) < f * (f - 1) // 2
        assert len(crosses) == f + len(sized)
    assert cands and sized


def test_one_encoder_and_one_decoder_of_derivation_columns():
    """_column places a monomial of f_c and _terms reads the places back;
    no other function of freeness builds a table from monomials to
    places, and the decoders _polys and _at are gone."""
    from freearr import freeness

    assert [name for name in ("_polys", "_at")
            if hasattr(freeness, name)] == []

    # {m: i for i, m in enumerate(monomials(p))}, or monomials(p).index(m)
    tables = [found.group(0) for found in re.finditer(
        r"\{(\w+): (\w+) for \2, \1 in enumerate\(monomials\("
        r"|monomials\(\w*\)\.index\(", (SRC / "freeness.py").read_text())]
    assert tables == []


def test_solvers_keep_the_signature_the_benchmark_reads():
    """perfbench/trace.py (_observe_matrix) reads rows, ncols and ops as
    the first three positional arguments of rank and nullspace."""
    from freearr import linalg

    for solve in (linalg.rank, linalg.nullspace):
        params = list(inspect.signature(solve).parameters.values())[:3]
        assert [p.name for p in params] == ["rows", "ncols", "ops"]
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


def test_membership_and_saito_are_evaluated():
    """The Horner restriction is gone, and HPoly is a test helper
    (conftest): the package evaluates integral Derivations instead, and
    keeps no field conversion of their terms."""
    from freearr import freeness

    assert [name for name in ("_restricts_to_zero", "HPoly", "_derivation",
                              "_integral") if hasattr(freeness, name)] == []


def test_only_the_constant_becomes_a_field_element(monkeypatch):
    """On a fresh arrangement, decide_freeness makes one field element,
    the Saito constant c: its derivations stay integral, and neither it
    nor saito_check reads the field columns."""
    from fractions import Fraction

    from freearr import freeness, moduli
    from freearr.scalars import IntOps, QuadElem, QuadOps

    calls = []
    for cls, wrap in ((IntOps, staticmethod), (QuadOps, lambda f: f)):
        def spy(*args, real=cls.from_coords):
            calls.append(real(*args))
            return calls[-1]
        monkeypatch.setattr(cls, "from_coords", wrap(spy))
    omega = QuadElem(5, Fraction(3, 2), Fraction(1, 2))
    for arr in (moduli.specialize(moduli.family_13(), 3).arrangement,
                moduli.specialize(moduli.family_15(), omega).arrangement):
        del calls[:]
        verdict = freeness.decide_freeness(arr, use_cache=False)
        assert calls == [verdict.certificate.constant]


def test_no_horner_step_and_no_polynomial_product_in_saito_check():
    """decide_freeness restricts binary forms only to build rows, and its
    Saito step, the det step saito_check shares, multiplies no
    polynomials."""
    from fractions import Fraction

    from freearr import freeness, moduli
    from freearr.scalars import QuadElem

    omega = QuadElem(5, Fraction(3, 2), Fraction(1, 2))
    arrs = [moduli.specialize(moduli.family_13(), 3).arrangement,
            moduli.specialize(moduli.family_15(), omega).arrangement]
    calls, depth = [], [0]    # (callee, caller, inside the Saito step)

    def profile(frame, event, arg):
        code = frame.f_code
        if code.co_filename != freeness.__file__:
            return
        if code.co_name == "_saito_constant":
            depth[0] += {"call": 1, "return": -1}.get(event, 0)
        elif event == "call":
            caller = frame.f_back   # the function, not its comprehension
            while caller.f_code.co_name.startswith("<"):
                caller = caller.f_back
            calls.append((code.co_name, caller.f_code.co_name, depth[0] > 0))
    sys.setprofile(profile)
    try:
        verdicts = [freeness.decide_freeness(arr, use_cache=False)
                    for arr in arrs]
    finally:
        sys.setprofile(None)
    assert [v.exponents for v in verdicts] == [(1, 6, 6), (1, 5, 9)]
    assert {caller for name, caller, _ in calls
            if name == "_times_linear"} == {"_hyperplane_rows"}
    inside = [name for name, _, within in calls if within]
    assert inside and not {"__mul__", "_poly_mul", "_times_linear"} & set(
        inside)


def test_saito_check_evaluates_at_one_point(monkeypatch):
    """Each saito_check call runs the membership kernel once, on all three
    derivations, and linalg.det3 once: there is no second evaluation
    point.  A non-member stops it before det3."""
    from fractions import Fraction

    from freearr import freeness, linalg, moduli
    from freearr.scalars import QuadElem

    calls = []
    for module, name in ((freeness, "_tangent"), (linalg, "det3")):
        def spy(*args, real=getattr(module, name), name=name):
            calls.append((name, len(args[2]) if name == "_tangent" else 0))
            return real(*args)
        monkeypatch.setattr(module, name, spy)
    omega = QuadElem(5, Fraction(3, 2), Fraction(1, 2))
    for arr in (moduli.specialize(moduli.family_13(), 3).arrangement,
                moduli.specialize(moduli.family_15(), omega).arrangement):
        ths = freeness.decide_freeness(arr, use_cache=False).certificate \
            .derivations
        del calls[:]
        assert freeness.saito_check(arr, *ths) is not None
        assert calls == [("_tangent", 3), ("det3", 0)]
        del calls[:]
        bent = freeness.Derivation(ths[2].pdeg, ths[2].den,
                                   {**ths[2].vec, 0: arr.ops.one})
        assert freeness.saito_check(arr, *ths[:2], bent) is None
        assert calls == [("_tangent", 3)]


def test_each_solve_makes_one_membership_call(monkeypatch):
    """_decide_freeness_impl calls _tangent in one place, and _lifts not
    at all: each solve tests every lift it built and its Saito triple in
    one call on the Free path, and its lifts at e2 alone, with no triple,
    on the NotFree path."""
    from fractions import Fraction

    from freearr import arrangement, freeness, moduli
    from freearr.scalars import QQ, QuadElem

    path = SRC / "freeness.py"
    tree = ast.parse(path.read_text(), str(path))
    sites = {node.name: [call for call in ast.walk(node)
                         if isinstance(call, ast.Call)
                         and getattr(call.func, "id", None) == "_tangent"]
             for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert len(sites["_decide_freeness_impl"]) == 1
    assert sites["_lifts"] == []

    calls, lifts = [], []
    tangent, lift = freeness._tangent, freeness._lifts

    def tangent_spy(ops, cols, thetas):
        calls.append(list(thetas))
        return tangent(ops, cols, thetas)

    def lifts_spy(*args):
        out = lift(*args)
        lifts.extend((args[2], vec) for vec in out[0])
        return out
    monkeypatch.setattr(freeness, "_tangent", tangent_spy)
    monkeypatch.setattr(freeness, "_lifts", lifts_spy)
    omega = QuadElem(5, Fraction(3, 2), Fraction(1, 2))
    nonfree = arrangement.build([(-2, -2, 1), (2, 0, -1), (2, 1, -1),
                                 (-2, 2, 0), (-1, -2, -1), (-2, 2, 1),
                                 (0, 2, 0)], QQ)
    for arr, exps in ((moduli.specialize(moduli.family_13(), 3).arrangement,
                       (1, 6, 6)),
                      (moduli.specialize(moduli.family_15(), omega)
                       .arrangement, (1, 5, 9)), (nonfree, None)):
        del calls[:], lifts[:]
        verdict = freeness.decide_freeness(arr, use_cache=False)
        assert lifts and len(calls) == 1 and calls[0][:len(lifts)] == lifts
        triple = calls[0][len(lifts):]
        if exps is None:    # (1, 3, 3), three lifts at e2: not free
            assert verdict == freeness.NotFree("GradedDimensionMismatch",
                                               (3, 8, 9))
            assert triple == [] and {p for p, _ in lifts} == {3}
        else:
            assert verdict.exponents == exps
            assert triple == [(th.pdeg, th.vec)
                              for th in verdict.certificate.derivations]


def test_quadratic_elements_have_fraction_parts(monkeypatch):
    """Integral work over Z[sqrt d] is done on the pairs of scalars.QuadOps:
    every QuadElem the package makes has Fraction parts."""
    from fractions import Fraction

    from freearr import freeness, induction, moduli
    from freearr.scalars import QuadElem

    parts = []
    make = QuadElem._make.__func__

    def spy(cls, d, a, b):
        parts.append((type(a), type(b)))
        return make(cls, d, a, b)
    monkeypatch.setattr(QuadElem, "_make", classmethod(spy))
    omega = QuadElem(5, Fraction(3, 2), Fraction(1, 2))
    arr = moduli.specialize(moduli.family_15(), omega).arrangement
    verdict = freeness.decide_freeness(arr, use_cache=False)
    cands, _ = induction.candidate_additions(arr, range(2, arr.n + 1))
    assert verdict.exponents == (1, 5, 9) and cands
    assert parts and set(parts) == {(Fraction, Fraction)}
