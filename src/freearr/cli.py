"""Command-line front end.

Inputs are one-parameter families: either a builtin name (paper13, paper15)
or a family file (one line per column, three ';'-separated integer
coefficient lists, ascending degree in t).  A constant family is an
ordinary rational arrangement.  Arrangement-level commands specialize the
family at the value given by --at: a rational like ``-1/2`` or a quadratic
value ``quad d a b`` meaning a + b*sqrt(d).

The command line is read by one table, COMMANDS: options go before or
after the positionals, as ``--opt value`` or ``--opt=value``, the last one
given wins, an option takes the next token whatever it starts with (``--at
-1/2``), ``--`` ends the options, and integers are read as in family files.

Exit codes: 0 success, 1 input error (a CliError or ArrangementError; Ctrl-C
too), 2 an Unknown recursive-freeness search (recfree, report), 3 internal
error: any other exception.
"""
from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

from . import __version__
from .arrangement import (
    ArrangementError,
    aut_order,
    deletion_is_essential,
    format_lattice,
    lattice_iso,
    parse_lattice_listing,
)
from .freeness import Free, certificate_to_text, decide_freeness
from .induction import (
    SearchBoundError,
    abe_pair_check,
    chain_from_text,
    chain_to_text,
    inductively_free,
    quick_non_if,
    recursively_free,
    replay_chain,
)
from .moduli import (
    BUILTIN_FAMILIES,
    Family,
    degeneracy_set,
    parse_family_text,
    specialize,
)
from .scalars import IntPoly, parse_integer, read_scalars, scalar_to_text

EXIT_VALIDATION = 1
EXIT_UNKNOWN = 2
EXIT_INTERNAL = 3


class CliError(ValueError):
    """A usage or input error: exit 1."""


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _load_family(source: str) -> Family:
    maker = BUILTIN_FAMILIES.get(source)
    if maker is not None:
        return maker()
    text = _read(source)
    try:
        return parse_family_text(text, name=source)
    except ValueError as exc:
        raise CliError(f"{source}: {exc}") from None


def _parse_at(text: str):
    """The scalar text of --at, where a rational may omit its 'rat' tag."""
    tokens = text.split()
    try:
        omega, *rest = read_scalars(
            tokens if tokens[:1] in (["quad"], ["rat"]) else ["rat", *tokens])
        if rest:
            raise ValueError("expected one scalar")
        return omega
    except ValueError as exc:
        raise CliError(f"bad --at value {text!r}: {exc}") from None


def _member(source: str, at: str | None):
    """source's family, omega, the member at omega and if fam is constant."""
    fam = _load_family(source)
    constant = None not in fam.fixed
    if at is None:
        if not constant:
            raise CliError(
                f"{source} depends on the parameter t; give --at")
        omega = Fraction(0)
    else:
        omega = _parse_at(at)
    spec = specialize(fam, omega)
    if spec.arrangement is None:
        raise CliError(
            f"specialization at {omega} has rank below 3 "
            f"(count {spec.count}); not a rank-3 arrangement")
    return fam, omega, spec, constant


def _arrangement_for(source: str, at: str | None):
    return _member(source, at)[2].arrangement


def lattice(source, at=None):
    """Print the intersection lattice listing."""
    print(format_lattice(_arrangement_for(source, at).lattice()), end="")


def chi(source, at=None):
    """Print the characteristic polynomial, factored when possible."""
    print(_arrangement_for(source, at).char_poly().factored_string())


def free(source, at=None, certificate=False):
    """Decide freeness: Free or NotFree, exit 0 for both."""
    verdict = decide_freeness(_arrangement_for(source, at))
    if isinstance(verdict, Free):
        print(f"Free with exponents {list(verdict.exponents)}")
        print("Saito constant: "
              + scalar_to_text(verdict.certificate.constant))
        if certificate:
            print(certificate_to_text(verdict.certificate), end="")
    else:
        detail = f" {verdict.detail}" if verdict.detail else ""
        print(f"NotFree: {verdict.reason}{detail}")


def indfree(source, at=None):
    """Decide inductive freeness; print a deletion chain when it exists."""
    arr = _arrangement_for(source, at)
    cert = inductively_free(arr)
    if cert is None:
        print("Not inductively free")
        witness = quick_non_if(arr)
        if witness is not None:
            sizes = sorted(set(witness.values()))
            print(f"  restriction sizes {sizes} never match an exponent + 1")
        return
    print(f"Inductively free (base: {cert.base})")
    for step in cert.steps:
        print(f"  n={step.n} delete {step.label} (exponents "
              f"{list(step.exponents)}, |A^H|={step.restriction_size})")


def _rf_search(arr, max_n, max_states):
    """recursively_free, max_n |A| + 1 by default; a refused bound exits 1."""
    try:
        return recursively_free(arr, arr.n + 1 if max_n is None else max_n,
                                max_states)
    except SearchBoundError as exc:
        raise CliError(str(exc)) from None


def recfree(source, at=None, max_n=None, max_states=10000, replay=None):
    """Search for or refute a recursive-freeness chain; exit 2 if Unknown."""
    arr = _arrangement_for(source, at)
    if replay is not None:
        try:
            moves = chain_from_text(_read(replay))
        except ValueError as exc:
            raise CliError(str(exc)) from None
        try:
            final = replay_chain(arr, moves)
        except ValueError as exc:
            raise CliError(f"chain verification failed: {exc}") from None
        print(f"Chain verified: {len(moves)} moves, final state has "
              f"{final.n} hyperplanes and is inductively free")
        return
    report = _rf_search(arr, max_n, max_states)
    print(f"Verdict: {report.verdict}")
    print(f"States explored: {report.explored}")
    print(f"Reason: {report.reason}")
    if report.verdict == "NotRF":
        print(f"Sound: {report.sound}")
        for e in report.expansions:
            exps = ",".join(str(x) for x in e.exponents)
            print(f"  state n={e.n} exponents [{exps}]: {e.deletion_moves} "
                  f"deletions, targets {list(e.addition_targets)}, "
                  f"{e.addition_candidates} addition candidates, "
                  f"complete={e.complete}")
    elif report.verdict == "RF":
        print("Chain:")
        for line in chain_to_text(report.chain).splitlines():
            print("  " + line)
    if report.verdict == "Unknown":
        return EXIT_UNKNOWN


def _degeneracy_payload(fam: Family) -> dict:
    rep = degeneracy_set(fam)
    return {
        "rational": {str(v): tag for v, tag in sorted(rep.rational.items())},
        "quadratic": {str(IntPoly(c)): tag
                      for c, tag in sorted(rep.quadratic.items())},
        "unresolved": [str(IntPoly(c)) for c in rep.unresolved],
    }


def _echo_degeneracy(deg: dict):
    for value, tag in sorted(deg["rational"].items(),
                             key=lambda kv: Fraction(kv[0])):
        print(f"  t = {value}: {tag}")
    for factor, tag in sorted(deg["quadratic"].items()):
        print(f"  roots of {factor}: {tag}")
    for factor in deg["unresolved"]:
        print(f"  unresolved factor: {factor}")


def moduli_cmd(source, fmt="text"):
    """Degeneracy report of a one-parameter family."""
    fam = _load_family(source)
    if None not in fam.fixed:
        raise CliError(f"{source} is constant; no parameter to degenerate")
    payload = _degeneracy_payload(fam)
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
        return
    print(f"Degeneracy set of {fam.name} ({fam.n} columns):")
    _echo_degeneracy(payload)


def aut(source, at=None):
    """Order of the automorphism group of the intersection lattice."""
    order, _gens = aut_order(_arrangement_for(source, at).lattice())
    print(order)


def iso(source1, source2, at=None, at2=None):
    """Compare two intersection lattices; exit 1 if not isomorphic."""
    arr1 = _arrangement_for(source1, at)
    arr2 = _arrangement_for(source2, at2 if at2 is not None else at)
    if lattice_iso(arr1.lattice(), arr2.lattice()) is None:
        print("not isomorphic")
        return EXIT_VALIDATION
    print("isomorphic")


def verify(source, listing, at=None):
    """Check an emitted lattice listing against the arrangement."""
    arr = _arrangement_for(source, at)
    parsed = parse_lattice_listing(_read(listing))
    if lattice_iso(arr.lattice(), parsed) is None:
        print("listing does NOT match")
        return EXIT_VALIDATION
    print("listing matches")


def abe(source, at=None, label=None):
    """Deletion-pair consistency check (common reduced chi root)."""
    arr = _arrangement_for(source, at)
    labels = [label] if label is not None else list(range(1, arr.n + 1))
    for h in labels:
        if not deletion_is_essential(arr, h):
            print(f"h={h}: deletion not essential, skipped")
            continue
        result = abe_pair_check(arr, h)
        detail = f" ({result.detail})" if result.detail else ""
        print(f"h={h}: {result.status}{detail}")
        if result.status == "Violated":
            return EXIT_INTERNAL


def _freeness_payload(verdict) -> dict:
    if isinstance(verdict, Free):
        return {
            "verdict": "Free",
            "exponents": list(verdict.exponents),
            "certificate_pdegs": [th.pdeg
                                  for th in verdict.certificate.derivations],
            "constant": scalar_to_text(verdict.certificate.constant),
        }
    payload = {"verdict": "NotFree", "reason": verdict.reason}
    if verdict.detail:
        payload["detail"] = list(verdict.detail)
    return payload


def report(source, at=None, fmt="text", max_n=None,
           max_states=10000):
    """Full pipeline: lattice, chi, freeness, IF, RF, degeneracy, Aut."""
    fam, omega, spec, constant = _member(source, at)
    arr = spec.arrangement
    lat = arr.lattice()
    chi_poly = arr.char_poly()
    verdict = decide_freeness(arr)
    rf = _rf_search(arr, max_n, max_states)
    order, _ = aut_order(lat)
    payload = {
        "input": fam.name,
        "at": scalar_to_text(omega).removeprefix("rat "),
        "n": fam.n,
        "count": spec.count,
        "flats": len(lat.flats),
        "lattice": format_lattice(lat).splitlines(),
        "chi": chi_poly.factored_string(),
        "exponents": list(chi_poly.exponents() or ()) or None,
        "freeness": _freeness_payload(verdict),
        # the search explores the input first: RF with no move iff IF
        "inductively_free": rf.verdict == "RF" and not rf.chain,
        "recursively_free": {
            "verdict": rf.verdict,
            "sound": rf.sound,
            "explored": rf.explored,
        },
        "aut_order": order,
    }
    if not constant:
        payload["degeneracy"] = _degeneracy_payload(fam)
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"Input: {payload['input']} at t = {payload['at']}")
        print(f"Hyperplanes: {payload['count']} of {payload['n']}")
        print(f"Rank-2 flats: {payload['flats']}")
        print("Lattice:")
        for line in payload["lattice"]:
            print("  " + line)
        print(f"chi = {payload['chi']}")
        free_info = payload["freeness"]
        print(f"Freeness: {free_info['verdict']}"
              + (f" exponents {free_info['exponents']}"
                 if free_info["verdict"] == "Free" else ""))
        print(f"Inductively free: {payload['inductively_free']}")
        print("Recursively free: "
              f"{payload['recursively_free']['verdict']} "
              f"(sound={payload['recursively_free']['sound']})")
        print(f"Aut order: {payload['aut_order']}")
        if "degeneracy" in payload:
            print("Degeneracy set:")
            _echo_degeneracy(payload["degeneracy"])
    if rf.verdict == "Unknown":
        return EXIT_UNKNOWN


_AT = ("--at", "at", str,
       "parameter value: rational, 'rat a/b' or 'quad d a b'")
_FORMAT = ("--format", "fmt", ("text", "json"), "")
_MAX_N = ("--max-n", "max_n", int,
          "largest arrangement size explored (default |A| + 1)")
_MAX_STATES = ("--max-states", "max_states", int, "")
_HELP = ("--help", "help", bool, "Show this message and exit.")
_VERSION = ("--version", "version", bool, "Show the version and exit.")
# name: (function, positionals, options).  An option is (flag, parameter,
# kind, help), its kind str, int, a tuple of choices or bool for a flag; an
# option not given takes the default of the function's parameter.
COMMANDS = {
    "abe": (abe, ("source",), (_AT, ("--h", "label", int, (
        "hyperplane label (default: all essential deletions)")))),
    "aut": (aut, ("source",), (_AT,)),
    "chi": (chi, ("source",), (_AT,)),
    "free": (free, ("source",), (_AT, ("--certificate", "certificate", bool,
                                       "print the full Saito certificate"))),
    "indfree": (indfree, ("source",), (_AT,)),
    "iso": (iso, ("source1", "source2"), (_AT, ("--at2", "at2", str, (
        "parameter value for the second input (default: --at)")))),
    "lattice": (lattice, ("source",), (_AT,)),
    "moduli": (moduli_cmd, ("source",), (_FORMAT,)),
    "recfree": (recfree, ("source",), (_AT, _MAX_N, _MAX_STATES, (
        "--replay", "replay", str,
        "verify a previously emitted chain file instead of searching"))),
    "report": (report, ("source",), (_AT, _FORMAT, _MAX_N, _MAX_STATES)),
    "verify": (verify, ("source", "listing"), (_AT,)),
}


def _parse(options, args, interspersed=True):
    """The options given in args, each mapped to its last value and in the
    order first given, and the positionals; with interspersed False, every
    token from the first positional on is one."""
    flags = {opt[0]: opt for opt in (*options, _HELP)}
    given, positionals, args = {}, [], iter(args)
    for tok in args:
        if tok == "--":
            positionals.extend(args)
        elif tok[:1] != "-" or tok == "-":
            positionals.append(tok)
            if not interspersed:
                positionals.extend(args)
        else:
            name, eq, value = tok.partition("=")
            name = name if name.startswith("--") else tok[:2]
            if name not in flags:
                raise CliError(f"No such option '{name}'.")
            if flags[name][2] is bool:
                if eq:
                    raise CliError(f"Option '{name}' does not take a value.")
                value = True
            elif not eq:
                value = next(args, None)
                if value is None:
                    raise CliError(f"Option '{name}' requires an argument.")
            given[flags[name]] = value
    return given, positionals


def _help(name=None) -> str:
    """The help text of freearr, or of its command name."""
    if name is None:
        usage = "[OPTIONS] COMMAND [ARGS]..."
        doc = "Exact analysis of central rank-3 hyperplane arrangements."
        options = (_VERSION,)
    else:
        fn, positionals, options = COMMANDS[name]
        usage = f"{name} [OPTIONS] {' '.join(positionals).upper()}"
        doc = fn.__doc__
    sections = {"Options": [(flag + (
        " TEXT" if kind is str else " INTEGER" if kind is int else
        "" if kind is bool else f" [{'|'.join(kind)}]"), text)
        for flag, _, kind, text in (*options, _HELP)]}
    if name is None:
        sections["Commands"] = [(cmd, spec[0].__doc__)
                                for cmd, spec in COMMANDS.items()]
    lines = [f"Usage: freearr {usage}", "", f"  {doc}"]
    for title, rows in sections.items():
        width = max(len(left) for left, _ in rows)
        lines += ["", f"{title}:"] + [f"  {left:<{width}}  {text}".rstrip()
                                      for left, text in rows]
    return "\n".join(lines)


def _run(args) -> int:
    """Run the command that args name; its exit code."""
    given, args = _parse((_VERSION,), args, interspersed=False)
    if given:  # --help or --version, the first given
        print(_help() if _HELP is next(iter(given))
              else f"freearr, version {__version__}")
        return 0
    if not args:
        raise CliError("Missing command.")
    name, *args = args
    if name not in COMMANDS:
        raise CliError(f"No such command '{name}'.")
    fn, positionals, options = COMMANDS[name]
    given, args = _parse(options, args)
    if _HELP in given:
        print(_help(name))
        return 0
    values = {}
    for (flag, param, kind, _), text in given.items():
        if kind is int:
            try:
                text = parse_integer(text)
            except ValueError:
                raise CliError(f"Invalid value for '{flag}': {text!r} is "
                               "not a valid integer.") from None
        elif isinstance(kind, tuple) and text not in kind:
            raise CliError(f"Invalid value for '{flag}': {text!r} is not "
                           f"one of {', '.join(map(repr, kind))}.")
        values[param] = text
    if len(args) < len(positionals):
        raise CliError(
            f"Missing argument '{positionals[len(args)].upper()}'.")
    extra = args[len(positionals):]
    if extra:
        raise CliError(f"Got unexpected extra argument{'s' * (len(extra) > 1)}"
                       f" ({' '.join(extra)})")
    return fn(**values, **dict(zip(positionals, args))) or 0


def main(argv=None):
    try:
        code = _run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
    except (CliError, ArrangementError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_VALIDATION
    except KeyboardInterrupt:  # as click's Abort: a new line, exit 1
        print(file=sys.stderr)
        code = EXIT_VALIDATION
    except BrokenPipeError:  # the reader closed stdout: exit 1 quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_VALIDATION
    except Exception as exc:  # a program fault
        print(f"internal error: {exc!r}", file=sys.stderr)
        code = EXIT_INTERNAL
    sys.exit(code)


if __name__ == "__main__":
    main()
