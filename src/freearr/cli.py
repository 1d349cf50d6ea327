"""Command-line front end.

Inputs are one-parameter families: either a builtin name (paper13, paper15)
or a family file (one line per column, three ';'-separated integer
coefficient lists, ascending degree in t).  A constant family is an
ordinary rational arrangement.  Arrangement-level commands specialize the
family at the value given by --at: a rational like ``-1/2`` or a quadratic
value ``quad d a b`` meaning a + b*sqrt(d).

Exit codes: 0 success, 1 validation/input error, 2 an Unknown
recursive-freeness search (recfree, report), 3 internal error.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction

import click

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
from .scalars import IntPoly, read_scalars, scalar_to_text

EXIT_VALIDATION = 1
EXIT_UNKNOWN = 2
EXIT_INTERNAL = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


def _load_family(source: str) -> Family:
    maker = BUILTIN_FAMILIES.get(source)
    if maker is not None:
        return maker()
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {source}: {exc}") from None
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
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad --at value {text!r}: {exc}") from None


def _is_constant(fam: Family) -> bool:
    return all(p.degree == 0 or not p for col in fam.columns for p in col)


def _arrangement_for(source: str, at: str | None):
    fam = _load_family(source)
    if at is None:
        if not _is_constant(fam):
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
    return fam, omega, spec


@click.group(name="freearr")
@click.version_option(version=__version__, prog_name="freearr")
def cli():
    """Exact analysis of central rank-3 hyperplane arrangements."""


_AT = click.option("--at", default=None,
                   help="parameter value: rational, 'rat a/b' or 'quad d a b'")
_FORMAT = click.option("--format", "fmt",
                       type=click.Choice(["text", "json"]), default="text")


@cli.command()
@click.argument("source")
@_AT
def lattice(source, at):
    """Print the intersection lattice listing."""
    _, _, spec = _arrangement_for(source, at)
    click.echo(format_lattice(spec.arrangement.lattice()), nl=False)


@cli.command()
@click.argument("source")
@_AT
def chi(source, at):
    """Print the characteristic polynomial, factored when possible."""
    _, _, spec = _arrangement_for(source, at)
    click.echo(spec.arrangement.char_poly().factored_string())


@cli.command()
@click.argument("source")
@_AT
@click.option("--certificate", is_flag=True,
              help="print the full Saito certificate")
def free(source, at, certificate):
    """Decide freeness: Free or NotFree, exit 0 for both."""
    _, _, spec = _arrangement_for(source, at)
    verdict = decide_freeness(spec.arrangement)
    if isinstance(verdict, Free):
        exps = ", ".join(str(e) for e in verdict.exponents)
        click.echo(f"Free with exponents [{exps}]")
        click.echo("Saito constant: "
                   + scalar_to_text(verdict.certificate.constant))
        if certificate:
            click.echo(certificate_to_text(verdict.certificate), nl=False)
    else:
        detail = f" {verdict.detail}" if verdict.detail else ""
        click.echo(f"NotFree: {verdict.reason}{detail}")


@cli.command()
@click.argument("source")
@_AT
def indfree(source, at):
    """Decide inductive freeness; print a deletion chain when it exists."""
    _, _, spec = _arrangement_for(source, at)
    arr = spec.arrangement
    cert = inductively_free(arr)
    if cert is None:
        click.echo("Not inductively free")
        witness = quick_non_if(arr)
        if witness is not None:
            sizes = sorted(set(witness.values()))
            click.echo(f"  restriction sizes {sizes} never match an "
                       "exponent + 1")
        return
    click.echo(f"Inductively free (base: {cert.base})")
    for step in cert.steps:
        exps = ", ".join(str(e) for e in step.exponents)
        click.echo(f"  n={step.n} delete {step.label} "
                   f"(exponents [{exps}], |A^H|={step.restriction_size})")


@cli.command()
@click.argument("source")
@_AT
@click.option("--max-n", type=int, default=None,
              help="largest arrangement size explored (default |A| + 1)")
@click.option("--max-states", type=int, default=10000)
@click.option("--replay", type=click.Path(exists=False), default=None,
              help="verify a previously emitted chain file instead of searching")
def recfree(source, at, max_n, max_states, replay):
    """Search for or refute a recursive-freeness chain; exit 2 if Unknown."""
    _, _, spec = _arrangement_for(source, at)
    arr = spec.arrangement
    if replay is not None:
        try:
            with open(replay, "r", encoding="utf-8") as fh:
                moves = chain_from_text(fh.read())
        except OSError as exc:
            raise CliError(f"cannot read {replay}: {exc}") from None
        except ValueError as exc:
            raise CliError(str(exc)) from None
        try:
            final = replay_chain(arr, moves)
        except ValueError as exc:
            raise CliError(f"chain verification failed: {exc}") from None
        click.echo(f"Chain verified: {len(moves)} moves, final state has "
                   f"{final.n} hyperplanes and is inductively free")
        return
    report = recursively_free(arr, max_n=arr.n + 1 if max_n is None else max_n,
                              max_states=max_states)
    click.echo(f"Verdict: {report.verdict}")
    click.echo(f"States explored: {report.explored}")
    click.echo(f"Reason: {report.reason}")
    if report.verdict == "NotRF":
        click.echo(f"Sound: {report.sound}")
        for e in report.expansions:
            exps = ",".join(str(x) for x in e.exponents)
            click.echo(f"  state n={e.n} exponents [{exps}]: "
                       f"{e.deletion_moves} deletions, targets "
                       f"{list(e.addition_targets)}, {e.addition_candidates} "
                       f"addition candidates, complete={e.complete}")
    elif report.verdict == "RF":
        click.echo("Chain:")
        for line in chain_to_text(report.chain).splitlines():
            click.echo("  " + line)
    if report.verdict == "Unknown":
        sys.exit(EXIT_UNKNOWN)


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
        click.echo(f"  t = {value}: {tag}")
    for factor, tag in sorted(deg["quadratic"].items()):
        click.echo(f"  roots of {factor}: {tag}")
    for factor in deg["unresolved"]:
        click.echo(f"  unresolved factor: {factor}")


@cli.command("moduli")
@click.argument("source")
@_FORMAT
def moduli_cmd(source, fmt):
    """Degeneracy report of a one-parameter family."""
    fam = _load_family(source)
    if _is_constant(fam):
        raise CliError(f"{source} is constant; no parameter to degenerate")
    payload = _degeneracy_payload(fam)
    if fmt == "json":
        click.echo(json.dumps(payload, sort_keys=True, indent=2))
        return
    click.echo(f"Degeneracy set of {fam.name} ({fam.n} columns):")
    _echo_degeneracy(payload)


@cli.command()
@click.argument("source")
@_AT
def aut(source, at):
    """Order of the automorphism group of the intersection lattice."""
    _, _, spec = _arrangement_for(source, at)
    order, _gens = aut_order(spec.arrangement.lattice())
    click.echo(str(order))


@cli.command()
@click.argument("source1")
@click.argument("source2")
@_AT
@click.option("--at2", default=None,
              help="parameter value for the second input (default: --at)")
def iso(source1, source2, at, at2):
    """Compare two intersection lattices; exit 1 if not isomorphic."""
    _, _, spec1 = _arrangement_for(source1, at)
    _, _, spec2 = _arrangement_for(source2, at2 if at2 is not None else at)
    witness = lattice_iso(spec1.arrangement.lattice(),
                          spec2.arrangement.lattice())
    if witness is None:
        click.echo("not isomorphic")
        sys.exit(EXIT_VALIDATION)
    click.echo("isomorphic")


@cli.command()
@click.argument("source")
@click.argument("listing", type=click.Path(exists=False))
@_AT
def verify(source, listing, at):
    """Check an emitted lattice listing against the arrangement."""
    _, _, spec = _arrangement_for(source, at)
    try:
        with open(listing, "r", encoding="utf-8") as fh:
            parsed = parse_lattice_listing(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read {listing}: {exc}") from None
    if lattice_iso(spec.arrangement.lattice(), parsed) is None:
        click.echo("listing does NOT match")
        sys.exit(EXIT_VALIDATION)
    click.echo("listing matches")


@cli.command()
@click.argument("source")
@_AT
@click.option("--h", "label", type=int, default=None,
              help="hyperplane label (default: all essential deletions)")
def abe(source, at, label):
    """Deletion-pair consistency check (common reduced chi root)."""
    _, _, spec = _arrangement_for(source, at)
    arr = spec.arrangement
    labels = [label] if label is not None else list(range(1, arr.n + 1))
    for h in labels:
        if not deletion_is_essential(arr, h):
            click.echo(f"h={h}: deletion not essential, skipped")
            continue
        result = abe_pair_check(arr, h)
        detail = f" ({result.detail})" if result.detail else ""
        click.echo(f"h={h}: {result.status}{detail}")
        if result.status == "Violated":
            sys.exit(EXIT_INTERNAL)


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


@cli.command()
@click.argument("source")
@_AT
@_FORMAT
@click.option("--max-n", type=int, default=None)
@click.option("--max-states", type=int, default=10000)
def report(source, at, fmt, max_n, max_states):
    """Full pipeline: lattice, chi, freeness, IF, RF, degeneracy, Aut."""
    fam, omega, spec = _arrangement_for(source, at)
    arr = spec.arrangement
    lat = arr.lattice()
    chi_poly = arr.char_poly()
    verdict = decide_freeness(arr)
    rf = recursively_free(arr, max_n=arr.n + 1 if max_n is None else max_n,
                          max_states=max_states)
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
    if not _is_constant(fam):
        payload["degeneracy"] = _degeneracy_payload(fam)
    if fmt == "json":
        click.echo(json.dumps(payload, sort_keys=True, indent=2))
    else:
        click.echo(f"Input: {payload['input']} at t = {payload['at']}")
        click.echo(f"Hyperplanes: {payload['count']} of {payload['n']}")
        click.echo(f"Rank-2 flats: {payload['flats']}")
        click.echo("Lattice:")
        for line in payload["lattice"]:
            click.echo("  " + line)
        click.echo(f"chi = {payload['chi']}")
        free_info = payload["freeness"]
        click.echo(f"Freeness: {free_info['verdict']}"
                   + (f" exponents {free_info['exponents']}"
                      if free_info["verdict"] == "Free" else ""))
        click.echo(f"Inductively free: {payload['inductively_free']}")
        click.echo("Recursively free: "
                   f"{payload['recursively_free']['verdict']} "
                   f"(sound={payload['recursively_free']['sound']})")
        click.echo(f"Aut order: {payload['aut_order']}")
        if "degeneracy" in payload:
            click.echo("Degeneracy set:")
            _echo_degeneracy(payload["degeneracy"])
    if rf.verdict == "Unknown":
        sys.exit(EXIT_UNKNOWN)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except CliError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(exc.code)
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(EXIT_VALIDATION)
    except click.exceptions.Abort:
        sys.exit(EXIT_VALIDATION)
    except (ArrangementError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    except Exception as exc:  # pragma: no cover - defensive
        click.echo(f"internal error: {exc!r}", err=True)
        sys.exit(EXIT_INTERNAL)
    sys.exit(0)


if __name__ == "__main__":
    main()
