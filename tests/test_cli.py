"""End-to-end command-line tests, including exit-code contracts."""
import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

import pytest

from freearr import arrangement, freeness, induction, linalg, moduli
from freearr import cli as cli_mod
from freearr.freeness import (
    certificate_from_text,
    certificate_to_text,
    saito_check,
)
from freearr.scalars import InputError, scalar_to_text

from conftest import ASYMMETRIC20, field_columns, grid, member

DATA = Path(__file__).resolve().parent.parent / "src" / "freearr" / "data"

BOOLEAN_FAMILY = "1; 0; 0\n0; 1; 0\n0; 0; 1\n"
NEAR_PENCIL5_FAMILY = "1; 0; 0\n0; 1; 0\n1; -1; 0\n1; -2; 0\n0; 0; 1\n"
GENERIC8_FAMILY = "".join(f"1; {k}; {k * k}\n" for k in range(8))
GRID8_FAMILY = "".join(f"{a}; {b}; {c}\n"
                       for a, b, c in field_columns(grid(8)))
MALFORMED_MOVES = [
    "add rat 1/0 rat 1 rat 1", "add rat x rat 1 rat 1", "delete x",
    "add quad 0 1 1 rat 1 rat 1", "add quad 5 1/0 0 rat 1 rat 1",
    "add quad 10000000000000061 1 1 rat 1 rat 1",
    "add rat 1e0 rat 0.5 rat 1", "add rat 1_000 rat 1 rat 1",
    "add quad 5 0.5 1 rat 1 rat 1", "add rat \u0661 rat 1 rat 1",
    "add quad 1_3 1 1 rat 1 rat 1", "delete \u0661", "add rat 1 rat 2",
    "rotate 1"]
DIGITS = "7" * 5000     # past int's default limit of 4300 digits
try:
    int(DIGITS)
except ValueError as exc:
    DIGIT_LIMIT = str(exc)  # int's own text, which the readers keep


def run(*args):
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli_mod.main(list(args))
        except SystemExit as exc:
            code = exc.code or 0
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def boolean_file(tmp_path):
    p = tmp_path / "boolean.fam"
    p.write_text(BOOLEAN_FAMILY)
    return str(p)


@pytest.fixture()
def np5_file(tmp_path):
    p = tmp_path / "np5.fam"
    p.write_text(NEAR_PENCIL5_FAMILY)
    return str(p)


class TestChiAndLattice:
    def test_chi_constant_family(self, boolean_file):
        code, out, _ = run("chi", boolean_file)
        assert code == 0
        assert out.strip() == "(x - 1)^3"

    def test_lattice_matches_golden_file(self):
        code, out, _ = run("lattice", "paper13", "--at", "3")
        assert code == 0
        assert out == (DATA / "paper13.lattice").read_text()

    def test_missing_at_for_parameterized_family(self):
        code, _, err = run("chi", "paper13")
        assert code == 1
        assert "give --at" in err

    def test_bad_at_value(self):
        code, _, err = run("chi", "paper13", "--at", "quad 5 x")
        assert code == 1
        assert "bad --at" in err

    @pytest.mark.parametrize("at", ["", "  "])
    def test_empty_at_value_is_refused_as_empty(self, at):
        """Not as a bad 'rat' tag, which the user never typed."""
        assert run("chi", "paper13", "--at", at) == (
            1, "", f"error: bad --at value {at!r}: empty\n")

    @pytest.mark.parametrize("at", ["\u0661", "quad 5 \u0661 1",
                                    "quad 5 1 1/\u0662", "0.5", "1e0"])
    def test_at_value_in_other_digits(self, at):
        """--at reads integers and a/b in ASCII digits only."""
        code, out, err = run("chi", "paper13", "--at", at)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: bad --at value {at!r}: not a rational")

    @pytest.mark.parametrize("at", ["quad \u0665 1 1", "quad 1_3 1 1"])
    def test_quad_d_in_ascii_digits(self, at):
        """d is read by parse_integer, as a family file's integers are."""
        code, out, err = run("chi", "paper13", "--at", at)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: bad --at value {at!r}: not an integer")

    @pytest.mark.parametrize("at", ["3", "5/7"])
    @pytest.mark.parametrize("command", [["free"], ["report", "--format",
                                                    "json"], ["chi"]])
    def test_at_takes_the_tagged_rational(self, command, at):
        """--at reads a rational with the 'rat' tag that free and report
        print, as it reads 'quad d a b'."""
        cmd, *opts = command
        tagged = run(cmd, "paper13", "--at", f"rat {at}", *opts)
        assert tagged == run(cmd, "paper13", "--at", at, *opts)
        assert tagged[0] == 0

    @pytest.mark.parametrize("at, token", [("1/0", "1/0"),
                                           ("quad 5 1/0 1", "1/0"),
                                           ("rat -2/0", "-2/0")])
    def test_zero_denominator_at_value_names_the_token(self, at, token):
        """A zero denominator is reported by its token, in no repr."""
        code, out, err = run("free", "paper13", "--at", at)
        assert (code, out) == (1, "")
        assert err == (f"error: bad --at value {at!r}: zero denominator "
                       f"in {token!r}\n")
        assert "Fraction(" not in err

    def test_non_squarefree_quad_at_value(self):
        for d in (12, 4):
            assert run("chi", "paper13", "--at", f"quad {d} 1 1") == (
                1, "", f"error: bad --at value 'quad {d} 1 1': d = {d} must "
                       "be squarefree and not 0 or 1\n")

    def test_at_value_past_the_digit_limit(self):
        at = "1/" + DIGITS
        assert run("chi", "paper13", "--at", at) == (
            1, "", f"error: bad --at value {at!r}: {DIGIT_LIMIT}\n")

    @pytest.mark.parametrize("d", [10000000000000061, -(1 << 41) - 1,
                                   1 << 40, (1 << 40) + 1])
    def test_quad_at_value_with_a_huge_d_fails_fast(self, d):
        """|d| >= 2^40 is refused before any trial division."""
        start = time.perf_counter()
        code, out, err = run("free", "paper13", "--at", f"quad {d} 1 1")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == (f"error: bad --at value 'quad {d} 1 1': d = {d} must "
                       f"be below 2**40 in absolute value\n")

    def test_unreadable_source(self):
        code, _, err = run("lattice", "/no/such/file.fam")
        assert code == 1
        assert "error" in err

    def test_specialization_below_rank_three(self, tmp_path):
        p = tmp_path / "pencil.fam"
        p.write_text("1; 0; 0\n0; 1; 0\n1; 1; 0\n")
        code, out, err = run("lattice", str(p))
        assert (code, out) == (1, "")
        assert err == ("error: specialization at 0 has rank below 3 "
                       "(count 3); not a rank-3 arrangement\n")


class TestFree:
    def test_free_13(self):
        code, out, _ = run("free", "paper13", "--at", "3")
        assert code == 0
        assert "Free with exponents [1, 6, 6]" in out

    def test_non_split_chi(self, tmp_path):
        p = tmp_path / "generic4.fam"
        p.write_text("1; 0; 0\n0; 1; 0\n0; 0; 1\n1; 1; 1\n")
        assert run("free", str(p)) == (0, "NotFree: ChiDoesNotSplit\n", "")

    def test_graded_dimension_mismatch_and_its_detail(self, tmp_path):
        """chi splits with exponents (1, 3, 3), but dim D(A)_3 is 9, not 8."""
        p = tmp_path / "nonfree7.fam"
        p.write_text("0; 1; 0\n1; -2; 1\n1; 0; 0\n1; -1; 0\n0; 1; 2\n"
                     "1; 1; 0\n2; 1; 0\n")
        assert run("free", str(p)) == (
            0, "NotFree: GradedDimensionMismatch (3, 8, 9)\n", "")
        code, out, _ = run("report", str(p), "--format", "json")
        assert code == 0
        assert json.loads(out)["freeness"] == {
            "verdict": "NotFree", "reason": "GradedDimensionMismatch",
            "detail": [3, 8, 9]}

    def test_near_pencil_with_the_transversal_first(self, tmp_path):
        """The bytes of free, and report's verdict, on a near pencil of 6
        lines whose transversal is column 1."""
        p = tmp_path / "np6.fam"
        p.write_text("0; 0; 1\n1; 0; 0\n0; 1; 0\n1; -1; 0\n1; -2; 0\n"
                     "1; -3; 0\n")
        assert run("free", str(p)) == (
            0, "Free with exponents [1, 1, 4]\nSaito constant: rat 1/6\n", "")
        code, out, _ = run("report", str(p))
        assert code == 0
        assert "Freeness: Free exponents [1, 1, 4]\n" in out

    def test_certificate_flag(self, boolean_file):
        code, out, _ = run("free", boolean_file, "--certificate")
        assert code == 0
        assert "saito-certificate" in out

    def test_certificate_output_reads_back(self):
        code, out, _ = run("free", "paper13", "--at", "3", "--certificate")
        assert code == 0
        text = out[out.index("saito-certificate\n"):]
        cert = certificate_from_text(text)
        assert certificate_to_text(cert) == text
        arr = member("paper13", 3)
        assert saito_check(arr, *cert.derivations) == cert.constant

    def test_edited_constant_fails_the_check(self):
        """A certificate whose c line is edited reads back, but saito_check
        on the arrangement finds the true constant, not the written one."""
        code, out, _ = run("free", "paper13", "--at", "3", "--certificate")
        assert code == 0
        lines = out[out.index("saito-certificate\n"):].splitlines()
        cert = certificate_from_text("\n".join(lines) + "\n")
        assert lines[1] == "c " + scalar_to_text(cert.constant)
        lines[1] = "c " + scalar_to_text(2 * cert.constant)
        forged = certificate_from_text("\n".join(lines) + "\n")
        arr = member("paper13", 3)
        assert forged.derivations == cert.derivations
        assert saito_check(arr, *forged.derivations) == cert.constant \
            != forged.constant

    @pytest.mark.parametrize("args, digest", [
        (("free", "paper13", "--at", "3", "--certificate"),
         "e6feced515549cd55705231bda9bddabe33f3ccc2a647bf9f2ddbcbaebb98bca"),
        (("free", "paper15", "--at", "quad 5 3/2 1/2", "--certificate"),
         "c7430bc0d69961909897db4245871504d1aa1eae7d70191b8411ca932c4e204d"),
        (("report", "paper13", "--at", "3"),
         "8deb7da0822f626b5cbc54f9b220598ebffc10a1fc4c56262aeef38a5934c38d"),
        (("report", "paper15", "--at", "quad 5 3/2 1/2"),
         "3161590f4e7f31988b4cfdb7a496452b5d40d355204f4ac4d569cda83b436443"),
        (("free", "grid8.fam", "--certificate"),
         "49ae0022766394867c9fdf57f81628ac9000d2260a19f55b867ec40bd7f35940"),
        (("free", "paper13", "--at", "5/7", "--certificate"),
         "ca4390ed89f7e02e211e84a87d47c3fd29508fddb2ea971f1579fec12234f627"),
        (("report", "paper13", "--at", "5/7"),
         "114cd479cb9eb3324ff3fb847b99213ee878a12e6438043101d562a28103b567"),
    ], ids=["free13", "free15", "report13", "report15", "free32grid",
            "free13scaled", "report13scaled"])
    def test_specialized_output_bytes(self, args, digest, tmp_path,
                                      monkeypatch):
        """stdout digests of the specialized paper members, as printed when
        specialize made every field column at once, and of the 32-line
        grid's certificate, as printed when derivations were field
        elements.  At 5/7, 7 of the 13 columns have a scale other than
        (1, 1); at 3, none do."""
        monkeypatch.chdir(tmp_path)
        Path("grid8.fam").write_text(GRID8_FAMILY)
        code, out, _ = run(*args)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("command, module, name", [
        ("free", freeness, "_lifts"), ("free", linalg, "ring_dot"),
        ("recfree", induction, "inductively_free"),
        ("report", induction, "inductively_free")],
        ids=["free-_lifts", "free-ring_dot", "recfree-search",
             "report-search"])
    def test_a_value_error_of_the_program_exits_three(self, monkeypatch,
                                                      command, module, name):
        """Only the package's input errors exit 1: a ValueError raised by
        the solver, by the rank test of a family's constant columns or
        inside the recursive-freeness search is an internal error, neither
        bad input, a rank drop nor a refused search bound."""
        def fault(*args, **kwargs):
            raise ValueError("injected fault")

        monkeypatch.setattr(freeness, "_VERDICT_CACHE", {})
        monkeypatch.setattr(module, name, fault)
        assert run(command, "paper13", "--at", "3") == (
            3, "", "internal error: ValueError('injected fault')\n")

    @pytest.mark.parametrize("module, name, args", [
        (induction, "inductively_free",
         ("recfree", "paper15", "--at", "-1", "--replay", "chain.txt")),
        (moduli, "_packed", ("chi", "fam5.fam", "--at", "2")),
        (induction, "read_scalars",
         ("recfree", "paper15", "--at", "-1", "--replay", "chain.txt")),
        (moduli, "parse_integer", ("chi", "fam5.fam", "--at", "2")),
        (cli_mod, "read_scalars", ("chi", "paper13", "--at", "3")),
        (cli_mod, "parse_integer",
         ("recfree", "paper15", "--at", "-1", "--max-n", "16")),
        (arrangement, "parse_integer",
         ("verify", "paper13", str(DATA / "paper13.lattice"), "--at", "3"))],
        ids=["replay", "family-file", "chain-reader", "family-reader",
             "at", "max-n", "listing"])
    def test_a_value_error_in_a_reader_exits_three(self, monkeypatch,
                                                   tmp_path, module, name,
                                                   args):
        """The readers and the chain replay refuse input with InputError
        alone, so a ValueError of the program inside them is an internal
        error, not a refused chain, file, listing or option."""
        def fault(*args, **kwargs):
            raise ValueError("injected fault")

        monkeypatch.chdir(tmp_path)
        Path("chain.txt").write_text("add rat 1 rat -1/2 rat -1/2\n")
        Path("fam5.fam").write_text(NEAR_PENCIL5_FAMILY)
        assert run(*args)[0] == 0
        monkeypatch.setattr(module, name, fault)
        assert run(*args) == (
            3, "", "internal error: ValueError('injected fault')\n")

    @pytest.mark.parametrize("text, message", [
        ("1; 0; 0\n0; 1\n", "line 2: expected three ';'-separated "
         "coefficient lists"),
        ("1; 0; 0\n0; x; 1\n", "line 2: invalid literal for int() with "
         "base 10: 'x'"),
        ("# nothing\n\n", "no columns found"),
        ("1; 0; 0\n0; 0 0; 0\n", "column 2 is identically zero"),
        ("1; 0; 0\n0 1; 1; 0\n0 2; 2; 0\n", "columns 2 and 3 are "
         "identically proportional"),
        (f"1; 0; 0\n0; 1; 0\n0; 0; {DIGITS}\n", f"line 3: {DIGIT_LIMIT}")],
        ids=["parts", "integer", "empty", "zero", "proportional", "digits"])
    def test_a_bad_family_file_exits_one(self, tmp_path, monkeypatch, text,
                                         message):
        monkeypatch.chdir(tmp_path)
        Path("bad.fam").write_text(text)
        assert run("chi", "bad.fam", "--at", "2") == (
            1, "", f"error: bad.fam: {message}\n")

    @pytest.mark.parametrize("args, name, position", [
        (("chi", "bad.fam"), "bad.fam", 8),
        (("verify", "paper13", "bad.lattice", "--at", "3"), "bad.lattice", 4),
        (("recfree", "paper13", "--at", "3", "--replay", "bad.chain"),
         "bad.chain", 9)], ids=["family", "listing", "chain"])
    def test_a_file_not_in_utf8_exits_one(self, tmp_path, monkeypatch, args,
                                          name, position):
        """A file that does not decode is refused as one that cannot be
        read, not reported as an internal error."""
        monkeypatch.chdir(tmp_path)
        Path("bad.fam").write_bytes(b"1; 0; 0\n\xff\n")
        Path("bad.lattice").write_bytes(b"[1]\n\xff\n")
        Path("bad.chain").write_bytes(b"delete 1\n\xff\n")
        assert run(*args) == (
            1, "", f"error: cannot read {name}: 'utf-8' codec can't decode "
                   f"byte 0xff in position {position}: invalid start byte\n")


class TestVerifyAndIso:
    def test_verify_matches(self):
        code, out, _ = run("verify", "paper13",
                           str(DATA / "paper13.lattice"), "--at", "3")
        assert code == 0
        assert "matches" in out

    def test_verify_mismatch_exit_one(self):
        code, out, _ = run("verify", "paper13",
                           str(DATA / "paper15.lattice"), "--at", "3")
        assert code == 1
        assert "NOT" in out

    @pytest.mark.parametrize("label", ["\u0661", "1_0"])
    def test_listing_labels_in_ascii_digits(self, tmp_path, label):
        """Flat labels are read by parse_integer: int() alone takes other
        digits and underscores, and \u0661 would read as 1."""
        lines = (DATA / "paper13.lattice").read_text().splitlines()
        lines[0] = lines[0].replace("[1,", f"[{label},")
        listing = tmp_path / "paper13.lattice"
        listing.write_text("\n".join(lines) + "\n")
        code, out, err = run("verify", "paper13", str(listing), "--at", "3")
        assert (code, out) == (1, "")
        assert err.startswith("error: line 1: not an integer")

    def test_unreadable_listing(self, tmp_path):
        missing = tmp_path / "missing.lattice"
        code, out, err = run("verify", "paper13", str(missing), "--at", "3")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {missing}: ")

    def test_malformed_listing_is_refused(self, tmp_path):
        listing = tmp_path / "bad.lattice"
        for text, message in (
                ("[1, 2]\n[1, 3]\n[1, 2, 3]\n", "pair (1, 3) covered twice"),
                ("[1, x]\n", "line 1: invalid literal for int() with base "
                 "10: 'x'"),
                ("[1, 1]\n", "line 1: flat 1 listed twice"),
                ("1, 2\n", "line 1: expected a [..] list")):
            listing.write_text(text)
            assert run("verify", "paper13", str(listing), "--at", "3") == (
                1, "", f"error: {message}\n")

    @pytest.mark.parametrize("text, flat", [
        ("[1]\n[2, 3]\n[2, 3]\n", 1), ("[1, 2, 4]\n[1, 3]\n[2, 3]\n", 4)])
    def test_one_member_flat_is_named_by_its_label(self, tmp_path, text,
                                                   flat):
        listing = tmp_path / "bad.lattice"
        listing.write_text(text)
        code, out, err = run("verify", "paper13", str(listing), "--at", "3")
        assert (code, out, err) == (
            1, "", f"error: flat {flat} has fewer than 2 hyperplanes\n")

    def test_iso_two_generic_values(self):
        code, out, _ = run("iso", "paper13", "paper13",
                           "--at", "3", "--at2", "4")
        assert code == 0
        assert out.strip() == "isomorphic"

    def test_iso_failure_exit_one(self, boolean_file):
        code, out, _ = run("iso", "paper13", boolean_file, "--at", "3")
        assert code == 1
        assert "not isomorphic" in out

    def test_failed_invariant_exit_three(self, monkeypatch):
        from freearr import arrangement

        monkeypatch.setattr(arrangement, "_check_iso",
                            lambda l1, l2, m: False)
        code, _, err = run("iso", "paper13", "paper13", "--at", "3")
        assert code == 3
        assert "internal error" in err


class TestInductionCommands:
    def test_indfree_13_not_if(self):
        code, out, _ = run("indfree", "paper13", "--at", "3")
        assert code == 0
        assert "Not inductively free" in out
        assert "[6]" in out  # the all-sixes restriction witness

    def test_recfree_13_not_rf(self):
        code, out, _ = run("recfree", "paper13", "--at", "3",
                           "--max-n", "14")
        assert code == 0
        assert "Verdict: NotRF" in out
        assert "Sound: True" in out

    def test_recfree_replay(self, np5_file, tmp_path):
        chain = tmp_path / "chain.txt"
        chain.write_text("delete 4\n")
        code, out, _ = run("recfree", np5_file, "--replay", str(chain))
        assert code == 0
        assert "Chain verified" in out

    def test_recfree_replay_invalid_chain(self, np5_file, tmp_path):
        chain = tmp_path / "chain.txt"
        chain.write_text("delete 99\n")
        code, _, err = run("recfree", np5_file, "--replay", str(chain))
        assert code == 1
        assert "chain verification failed" in err

    def test_recfree_replay_unreadable_file(self, tmp_path):
        missing = tmp_path / "missing.chain"
        code, out, err = run("recfree", "paper15", "--at", "-1",
                             "--replay", str(missing))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {missing}: ")

    def test_recfree_replay_misfitting_addition(self, tmp_path):
        chain = tmp_path / "chain.txt"
        chain.write_text("add rat 1 rat 2 rat 7\n")
        code, out, err = run("recfree", "paper15", "--at", "-1",
                             "--replay", str(chain))
        assert (code, out) == (1, "")
        assert err == ("error: chain verification failed: move 1: the added "
                       "hyperplane has restriction size 14, incompatible "
                       "with exponents (1, 7, 7)\n")

    def test_recfree_replay_rejects_unknown_scalar_tag(self, np5_file, tmp_path):
        chain = tmp_path / "chain.txt"
        chain.write_text("add ratfunc 0,1 1 rat 0 rat 1\n")
        code, _, err = run("recfree", np5_file, "--replay", str(chain))
        assert code == 1
        assert "bad scalar" in err

    @pytest.mark.parametrize("move", MALFORMED_MOVES)
    def test_recfree_replay_names_the_malformed_line(self, tmp_path, move):
        chain = tmp_path / "chain.txt"
        chain.write_text(f"# a chain\ndelete 1\n{move}\n")
        code, out, err = run("recfree", "paper13", "--at", "3",
                             "--replay", str(chain))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: chain line 3: cannot read {move!r}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("move", [m for m in MALFORMED_MOVES
                                      if "1/0" in m])
    def test_replay_zero_denominator_names_the_token(self, tmp_path, move):
        chain = tmp_path / "chain.txt"
        chain.write_text(f"{move}\n")
        code, out, err = run("recfree", "paper13", "--at", "3",
                             "--replay", str(chain))
        assert (code, out) == (1, "")
        assert err.endswith(": zero denominator in '1/0'\n")
        assert "Fraction(" not in err

    @pytest.mark.parametrize("move", MALFORMED_MOVES)
    def test_chain_reader_names_the_malformed_line(self, move):
        """The library refuses each malformed move that --replay does."""
        with pytest.raises(InputError, match="^chain line 3: cannot read "):
            induction.chain_from_text(f"# a chain\ndelete 1\n{move}\n")

    @pytest.mark.parametrize("move, message", [
        ("add quad 5 1 1 rat 1 rat 1", "column 16 mixes QQ and QQ(sqrt 5)"),
        ("add rat 0 rat 0 rat 0", "column 16 is zero"),
        ("add rat 1 rat 0 rat 0", "columns 1 and 16 are proportional"),
    ])
    def test_recfree_replay_refuses_a_bad_addition(self, tmp_path, move,
                                                   message):
        """A read chain still goes through build's validation."""
        chain = tmp_path / "chain.txt"
        chain.write_text(move + "\n")
        code, out, err = run("recfree", "paper15", "--at", "-1",
                             "--replay", str(chain))
        assert (code, out) == (1, "")
        assert err == f"error: chain verification failed: {message}\n"

    @pytest.mark.parametrize("source, chain, message", [
        ("paper13", "", "final state of the chain is not inductively free"),
        ("paper13", "delete 1\n", "move 1: deleting 1 breaks the exponent "
         "bookkeeping (|A^H| = 6, exponents (1, 6, 6))"),
        ("generic4.fam", "delete 1\n", "move 1: characteristic polynomial "
         "does not split"),
        ("paper13", "delete 99\n", "no hyperplane labeled 99")],
        ids=["not-if", "bookkeeping", "no-split", "label"])
    def test_recfree_replay_refusals_exit_one(self, tmp_path, monkeypatch,
                                              source, chain, message):
        """Each refusal of replay_chain (an InputError, ArrangementError
        among them) is a refused chain: exit 1 with its message."""
        monkeypatch.chdir(tmp_path)
        Path("generic4.fam").write_text("1; 0; 0\n0; 1; 0\n0; 0; 1\n1; 1; 1\n")
        Path("chain.txt").write_text(chain)
        assert run("recfree", source, "--at", "3", "--replay", "chain.txt") \
            == (1, "", f"error: chain verification failed: {message}\n")

    def test_indfree_chain_lines(self):
        code, out, _ = run("indfree", "paper13", "--at", "2")
        assert code == 0
        steps = [(13, 1, "1, 5, 7", 6), (12, 2, "1, 5, 6", 6),
                 (11, 4, "1, 5, 5", 6), (10, 1, "1, 4, 5", 5),
                 (9, 1, "1, 4, 4", 5), (8, 1, "1, 3, 4", 4),
                 (7, 1, "1, 3, 3", 4), (6, 1, "1, 2, 3", 3),
                 (5, 1, "1, 2, 2", 3), (4, 1, "1, 1, 2", 2)]
        assert out == "Inductively free (base: triangle)\n" + "".join(
            f"  n={n} delete {h} (exponents [{e}], |A^H|={s})\n"
            for n, h, e, s in steps)

    def test_recfree_15_at_minus_one_and_replay(self, tmp_path):
        code, out, _ = run("recfree", "paper15", "--at", "-1")
        assert code == 0
        assert out == ("Verdict: RF\n"
                       "States explored: 2\n"
                       "Reason: reached an inductively free state\n"
                       "Chain:\n"
                       "  add rat 1 rat -1/2 rat -1/2\n")
        chain = tmp_path / "chain.txt"
        chain.write_text(out.split("Chain:\n", 1)[1])
        code, out, _ = run("recfree", "paper15", "--at", "-1",
                           "--replay", str(chain))
        assert code == 0
        assert out == ("Chain verified: 1 moves, final state has 16 "
                       "hyperplanes and is inductively free\n")

    def test_recfree_chain_adds_an_integral_line(self, tmp_path,
                                                 monkeypatch):
        # B3 without x1 - x2, with inductive freeness refused up to its own
        # size: the chain adds x1 - x2 back, a line crossed as (1, -1, 0)
        p = tmp_path / "b3cut.fam"
        p.write_text("1; 0; 0\n0; 1; 0\n0; 0; 1\n1; 1; 0\n1; 0; 1\n"
                     "1; 0; -1\n0; 1; 1\n0; 1; -1\n")
        real = induction.inductively_free
        monkeypatch.setattr(induction, "inductively_free",
                            lambda state: real(state) if state.n > 8 else None)
        code, out, err = run("recfree", str(p))
        assert (code, err) == (0, "")
        assert out == ("Verdict: RF\n"
                       "States explored: 9\n"
                       "Reason: reached an inductively free state\n"
                       "Chain:\n"
                       "  add rat 1 rat -1 rat 0\n")

    @pytest.mark.parametrize("command", ["recfree", "report"])
    def test_max_n_zero_is_below_n(self, command):
        code, out, err = run(command, "paper13", "--at", "3", "--max-n", "0")
        assert (code, out) == (1, "")
        assert err == "error: max_n = 0 is below |A| = 13\n"

    def test_recfree_state_budget_exit_two(self):
        # the input, RF by one addition, is the one state explored
        code, out, _ = run("recfree", "paper15", "--at", "-1",
                           "--max-states", "1")
        assert code == 2
        assert out == ("Verdict: Unknown\n"
                       "States explored: 1\n"
                       "Reason: state budget 1 exhausted\n")

    @pytest.mark.parametrize("command", ["recfree", "report"])
    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_max_states_below_one_is_rejected(self, command, budget):
        code, out, err = run(command, "paper13", "--at", "3",
                             "--max-states", budget)
        assert (code, out) == (1, "")
        assert err == f"error: max_states = {budget} explores no state\n"

    @pytest.mark.parametrize("args,n,inductive,rf", [
        (("paper13", "--at", "3"), 13, False, "NotRF"),
        (("paper15", "--at", "-1"), 15, False, "RF"),
        (("boolean",), 3, True, "RF")])
    def test_report_searches_inductive_freeness_once(
            self, monkeypatch, boolean_file, args, n, inductive, rf):
        """report reads inductive freeness off the RF search, which
        explores the input first."""
        real, roots = induction.inductively_free, []

        def spy(arr):
            if arr.n == n:
                roots.append(arr)
            return real(arr)
        for module in (induction, cli_mod):
            monkeypatch.setattr(module, "inductively_free", spy)
        args = tuple(boolean_file if a == "boolean" else a for a in args)
        code, out, _ = run("report", *args, "--format", "json")
        payload = json.loads(out)
        assert code == 0 and len(roots) == 1
        assert payload["inductively_free"] is inductive
        assert payload["recursively_free"]["verdict"] == rf

    def test_report_blocked_by_max_n_exits_two(self):
        code, out, _ = run("report", "paper13", "--at", "3", "--max-n", "13")
        assert code == 2
        assert "Recursively free: Unknown (sound=False)\n" in out

    def test_abe_skips_a_deletion_below_rank_three(self, tmp_path):
        p = tmp_path / "near_pencil4.fam"
        p.write_text("1; 0; 0\n0; 1; 0\n0; 0; 1\n1; 1; 0\n")
        code, out, _ = run("abe", str(p))
        assert code == 0
        assert out.splitlines()[2] == "h=3: deletion not essential, skipped"

    def test_abe_all_labels(self):
        code, out, _ = run("abe", "paper13", "--at", "3")
        assert code == 0
        assert out.count("h=") == 13
        assert "Violated" not in out


class TestModuliCommand:
    def test_json_payload(self):
        code, out, _ = run("moduli", "paper13", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rational"] == {
            "-1": "LatticeChanges", "0": "CountDrops",
            "1/2": "LatticeChanges", "1": "CountDrops",
            "2": "LatticeChanges",
        }
        assert payload["quadratic"] == {"t^2 - t + 1": "CountDrops"}
        assert payload["unresolved"] == []

    def test_text_output(self):
        code, out, _ = run("moduli", "paper13")
        assert code == 0
        assert out == ("Degeneracy set of paper13 (13 columns):\n"
                       "  t = -1: LatticeChanges\n"
                       "  t = 0: CountDrops\n"
                       "  t = 1/2: LatticeChanges\n"
                       "  t = 1: CountDrops\n"
                       "  t = 2: LatticeChanges\n"
                       "  roots of t^2 - t + 1: CountDrops\n")

    @pytest.mark.parametrize("name, n", [("paper13", 13), ("paper15", 15)])
    def test_builtins_are_read_as_family_files(self, name, n):
        """A built-in name reads data/<name>.fam as a user's file is read:
        the report differs only in the name."""
        code, out, _ = run("moduli", name)
        assert code == 0
        head = f"Degeneracy set of {name} ({n} columns):\n"
        assert out.startswith(head)
        path = DATA / f"{name}.fam"
        assert run("moduli", str(path)) == (0, out.replace(
            head, f"Degeneracy set of {path} ({n} columns):\n"), "")

    def test_a_missing_builtin_file_is_a_program_fault(self, monkeypatch,
                                                       tmp_path):
        """A built-in's file is part of the install: without it the
        command exits 3, where a user's missing file exits 1."""
        monkeypatch.setattr(moduli, "__file__", str(tmp_path / "moduli.py"))
        code, out, err = run("moduli", "paper13")
        assert (code, out) == (3, "")
        assert err.startswith("internal error: FileNotFoundError(")
        code, _, err = run("moduli", str(tmp_path / "data" / "paper13.fam"))
        assert code == 1 and err.startswith("error: cannot read ")

    def test_unresolved_factor_in_moduli_and_report_text(self, tmp_path):
        """Both commands print the degeneracy set by one function, so the
        irreducible cubic t^3 - 2 reaches report's text too."""
        p = tmp_path / "cubic.fam"
        p.write_text("1; 0; 0\n0; 1; 0\n0; 0; 1\n-2 0 0 1; 1; 1\n")
        code, out, _ = run("moduli", str(p))
        assert (code, out) == (0, f"Degeneracy set of {p} (4 columns):\n"
                                  "  unresolved factor: t^3 - 2\n")
        code, out, _ = run("report", str(p), "--at", "5")
        assert code == 0
        assert out.endswith("Degeneracy set:\n"
                            "  unresolved factor: t^3 - 2\n")

    def test_constant_family_rejected(self, boolean_file):
        code, _, err = run("moduli", boolean_file)
        assert code == 1
        assert "constant" in err


class TestReport:
    def test_json_deterministic_and_complete(self):
        code1, out1, _ = run("report", "paper13", "--at", "3",
                             "--format", "json", "--max-n", "14")
        code2, out2, _ = run("report", "paper13", "--at", "3",
                             "--format", "json", "--max-n", "14")
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["count"] == 13
        assert payload["flats"] == 30
        assert payload["exponents"] == [1, 6, 6]
        assert payload["freeness"]["verdict"] == "Free"
        assert payload["inductively_free"] is False
        assert payload["recursively_free"]["verdict"] == "NotRF"
        assert payload["recursively_free"]["sound"] is True
        assert payload["aut_order"] == 18

    @pytest.mark.parametrize("args", [("paper13", "--at", "3"),
                                      ("boolean",)])
    def test_report_packs_the_family_once(self, monkeypatch, boolean_file,
                                          args):
        # whether the family is constant, and its degeneracy set, are read
        # off what the Family kept when it was validated
        real, calls = moduli._packed, []
        monkeypatch.setattr(moduli, "_packed",
                            lambda fam: calls.append(fam) or real(fam))
        args = tuple(boolean_file if a == "boolean" else a for a in args)
        code, out, _ = run("report", *args, "--format", "json")
        assert code == 0
        assert len(calls) == 1
        assert ("degeneracy" in json.loads(out)) == (args[0] == "paper13")
        assert not hasattr(cli_mod, "_is_constant")

    def test_generic_lines_aut(self, tmp_path):
        p = tmp_path / "generic8.fam"
        p.write_text(GENERIC8_FAMILY)
        code, out, _ = run("aut", str(p))
        assert (code, out) == (0, "40320\n")
        code, out, _ = run("report", str(p), "--format", "json")
        assert code == 0
        assert json.loads(out)["aut_order"] == 40320

    def test_trivial_aut_of_20_lines(self, tmp_path):
        p = tmp_path / "asym20.fam"
        p.write_text("".join("; ".join(map(str, c)) + "\n"
                             for c in ASYMMETRIC20))
        code, out, _ = run("aut", str(p))
        assert (code, out) == (0, "1\n")
        code, out, _ = run("report", str(p), "--format", "json")
        assert code == 0
        assert json.loads(out)["aut_order"] == 1

    def test_text_format(self, np5_file):
        code, out, _ = run("report", np5_file)
        assert code == 0
        assert "Freeness: Free exponents [1, 1, 3]" in out
        assert "Inductively free: True" in out


class TestArgumentGrammar:
    """The command line is read by click's rules; these pin them."""

    FREE13 = (0, "Free with exponents [1, 6, 6]\nSaito constant: rat 2240/9\n",
              "")

    @pytest.mark.parametrize("args", [
        ("free", "paper13", "--at", "-1/2"), ("free", "paper13", "--at=-1/2"),
        ("free", "--at", "-1/2", "paper13"),
        ("free", "--at", "3", "--at", "-1/2", "paper13"),
        ("free", "--at", "-1/2", "--", "paper13")])
    def test_option_placement(self, args):
        """Options go before or after SOURCE, as --opt value or --opt=value;
        an option takes the next token even when it starts with '-', the
        last occurrence wins, and -- ends the options."""
        assert run(*args) == self.FREE13

    def test_an_option_takes_a_dash_token(self):
        assert run("chi", "--at", "-x", "paper13") == (
            1, "", "error: bad --at value '-x': not a rational number: "
                   "'-x'\n")
        assert run("chi", "--at", "--help") == (
            1, "", "error: Missing argument 'SOURCE'.\n")

    def test_double_dash_makes_every_later_token_positional(self):
        assert run("free", "--", "--at") == (
            1, "", "error: cannot read --at: [Errno 2] No such file or "
                   "directory: '--at'\n")
        assert run("chi", "paper13", "--", "--", "--at", "3") == (
            1, "", "error: Got unexpected extra arguments (-- --at 3)\n")

    def test_a_repeated_flag_is_set(self):
        once = run("free", "paper13", "--at", "3", "--certificate")
        assert run("free", "--certificate", "paper13", "--certificate",
                   "--at", "3") == once
        assert once[0] == 0 and "saito-certificate" in once[1]

    def test_version(self):
        assert run("--version") == (0, "freearr, version 0.1.0\n", "")
        assert run("--version", "chi") == run("--version")

    def test_help_names_every_command(self):
        code, out, err = run("--help")
        assert (code, err) == (0, "")
        for name in ("lattice", "chi", "free", "indfree", "recfree",
                     "moduli", "aut", "iso", "verify", "abe", "report",
                     "--version", "--help"):
            assert name in out
        assert "Exact analysis of central rank-3" in out

    @pytest.mark.parametrize("command, names", [
        ("report", ["SOURCE", "--at", "--format", "--max-n", "--max-states"]),
        ("recfree", ["SOURCE", "--at", "--max-n", "--max-states",
                     "--replay"]),
        ("iso", ["SOURCE1", "SOURCE2", "--at", "--at2"]),
        ("abe", ["SOURCE", "--at", "--h"]),
        ("free", ["SOURCE", "--at", "--certificate"])])
    def test_command_help_names_every_option(self, command, names):
        code, out, err = run(command, "--help")
        assert (code, err) == (0, "")
        assert out.startswith("Usage: ")
        for name in names + ["--help"]:
            assert name in out
        # help is given before extra arguments are refused
        assert run(command, "x", "y", "z", "--help") == (code, out, err)

    @pytest.mark.parametrize("args, message", [
        (("nosuch", "paper13"), "No such command 'nosuch'."),
        (("report",), "Missing argument 'SOURCE'."),
        (("iso", "paper13"), "Missing argument 'SOURCE2'."),
        (("verify", "--at", "3", "paper13"), "Missing argument 'LISTING'."),
        (("report", "paper13", "--bogus"), "No such option '--bogus'."),
        (("chi", "--bogus", "paper13"), "No such option '--bogus'."),
        (("chi", "paper13", "-x"), "No such option '-x'."),
        (("chi", "-1/2", "paper13"), "No such option '-1'."),
        (("chi", "paper13", "--version"), "No such option '--version'."),
        (("--at", "3", "chi", "paper13"), "No such option '--at'."),
        (("report", "paper13", "--at"), "Option '--at' requires an argument."),
        (("recfree", "paper13", "--replay"),
         "Option '--replay' requires an argument."),
        (("recfree", "paper13", "--at", "3", "--max-n", "x"),
         "Invalid value for '--max-n': 'x' is not a valid integer."),
        (("abe", "paper13", "--at", "3", "--h", "1.5"),
         "Invalid value for '--h': '1.5' is not a valid integer."),
        (("report", "paper13", "--at", "3", "--max-states", ""),
         "Invalid value for '--max-states': '' is not a valid integer."),
        (("report", "paper13", "--at", "3", "--format", "xml"),
         "Invalid value for '--format': 'xml' is not one of 'text', "
         "'json'."),
        (("moduli", "paper13", "--format="),
         "Invalid value for '--format': '' is not one of 'text', 'json'."),
        (("chi", "paper13", "extra", "--at", "3"),
         "Got unexpected extra argument (extra)"),
        (("chi", "paper13", "--at", "3", "a", "b"),
         "Got unexpected extra arguments (a b)"),
        (("free", "paper13", "--at", "3", "--certificate=yes"),
         "Option '--certificate' does not take a value."),
        (("chi", "--help=1"), "Option '--help' does not take a value."),
        # parse errors come first, then values in the order first given,
        # then a missing positional, then extra ones
        (("chi", "--help", "--bogus"), "No such option '--bogus'."),
        (("report", "--format", "y", "--max-n", "x"),
         "Invalid value for '--format': 'y' is not one of 'text', 'json'."),
        (("report", "--max-n", "3", "--format", "y", "--max-n", "x"),
         "Invalid value for '--max-n': 'x' is not a valid integer."),
        (("recfree", "paper13", "extra", "--max-n", "x"),
         "Invalid value for '--max-n': 'x' is not a valid integer."),
        (("iso", "--at2", "x"), "Missing argument 'SOURCE1'."),
        ((), "Missing command."),
    ])
    def test_usage_errors(self, args, message):
        assert run(*args) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("args", [
        ("recfree", "paper13", "--at", "3", "--max-n", "1_3"),
        ("recfree", "paper13", "--at", "3", "--max-states", "\u0661"),
        ("report", "paper13", "--at", "3", "--max-n", " 13 "),
        ("abe", "paper13", "--at", "3", "--h", "\u0661"),
        ("abe", "paper13", "--at", "3", "--h", "1_3"),
        ("abe", "paper13", "--at", "3", "--h", " 1 ")])
    def test_integer_options_in_ascii_digits(self, args):
        """--max-n, --max-states and --h are read by parse_integer, as a
        family file's integers are: int() alone would take 1_3 as 13, the
        Arabic-Indic one as 1, and spaces around a number."""
        *_, flag, value = args
        assert run(*args) == (1, "", f"error: Invalid value for '{flag}': "
                                     f"{value!r} is not a valid integer.\n")

    def test_integer_options_take_a_sign(self):
        assert run("recfree", "paper15", "--at", "-1", "--max-states",
                   "+1")[0] == 2
        assert run("report", "paper13", "--at", "3", "--max-n", "-1") == (
            1, "", "error: max_n = -1 is below |A| = 13\n")

    def test_ctrl_c_exits_one(self, monkeypatch):
        def interrupt(arr):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli_mod, "decide_freeness", interrupt)
        assert run("free", "paper13", "--at", "3") == (1, "", "\n")

    def test_the_last_integer_given_is_the_one_read(self):
        code, out, _ = run("recfree", "paper15", "--at", "-1",
                           "--max-states", "x", "--max-states=1")
        assert (code, out.splitlines()[0]) == (2, "Verdict: Unknown")
