import importlib
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autodual.algebras import CATALOG_STATE_CAP, AutomaticAlgebra, catalog, standard_catalog
from autodual.cli import _load, main, parse_algebra_file
from autodual.errors import (CapExceeded, InputParseError, InternalInconsistency,
                             ReservedName, ToolError)
from reference_parser import parse_algebra_file as reference_parse


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_emit_roundtrip():
    for name, M in standard_catalog():
        assert parse_algebra_file(M.emit()) == M


def test_parse_comments_and_order():
    text = "# header\nstates q r\nletters a # trailing\ntrans q a r\n"
    M = parse_algebra_file(text)
    assert M.state_names == ("q", "r")
    with pytest.raises(InputParseError):
        parse_algebra_file("trans q a r\nstates q r\nletters a\n")
    with pytest.raises(InputParseError):
        parse_algebra_file("states q r\nletters a\ntrans q a r\ntrans q a q\n")
    with pytest.raises(InputParseError):
        parse_algebra_file("states 0 r\nletters a\n")
    with pytest.raises(InputParseError):
        parse_algebra_file("states q r\nletters a\ntrans q b r\n")


def test_parse_unknown_names_report_their_line():
    head = "states q r\nletters a b\n# comment\ntrans q a r\n"
    with pytest.raises(InputParseError) as info:
        parse_algebra_file(head + "trans r a s\ntrans q c r\n")
    assert str(info.value) == "line 5: unknown state in ['r', 'a', 's']"
    assert info.value.line == 5
    with pytest.raises(InputParseError) as info:
        parse_algebra_file(head + "\ntrans r b q\ntrans q c r\ntrans s a r\n")
    assert str(info.value) == "line 7: unknown letter in ['q', 'c', 'r']"
    assert info.value.line == 7


_ALGEBRA_TOKENS = ("states", "letters", "trans", "q", "r", "a", "b", "0", "q-r", "#", "\u00e9")


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.lists(st.sampled_from(_ALGEBRA_TOKENS), max_size=5), max_size=8).map(
        lambda lines: "\n".join(map(" ".join, lines))),
    st.text(max_size=60)))
def test_parse_algebra_file_raises_only_input_errors(text):
    try:
        parse_algebra_file(text)
    except ToolError as exc:
        assert 1 <= exc.exit_code <= 3


def _parse_outcome(parse, source):
    """The algebra's table key, or the error's type, message and line."""
    try:
        return repr(parse(source).table_key())
    except ToolError as exc:
        return type(exc), str(exc), exc.line if isinstance(exc, InputParseError) else None


def assert_parses_as_the_reference(text, path):
    """The streaming parser agrees with the two-pass reference on the text,
    and `_load` on a file of its UTF-8 bytes with what the reference makes of
    that file read whole."""
    want = _parse_outcome(reference_parse, text)
    assert _parse_outcome(parse_algebra_file, text) == want
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        want = _parse_outcome(reference_parse, fh.read())
    assert _parse_outcome(_load, str(path)) == want
    return want


# str.splitlines breaks at every one of these; iterating a file only at the first three
_LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                "\u2028", "\u2029")
_LINES = ("states q r", "letters a b", "trans q a r", "trans q a q", "trans r b q",
          "trans r a r # c", "states q q", "letters a q", "# comment", "")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.sampled_from(_LINES),
                                    st.lists(st.sampled_from(_ALGEBRA_TOKENS),
                                             max_size=5).map(" ".join)),
                          st.sampled_from(_LINE_BREAKS)), max_size=10).map(
    lambda lines: "".join(line + end for line, end in lines))
       | st.text(max_size=60))
def test_parser_matches_the_reference(tmp_path_factory, text):
    assert_parses_as_the_reference(text, tmp_path_factory.getbasetemp() / "fuzz.alg")


_HEAD = "states q r\nletters a b\n"


@pytest.mark.parametrize("text, want", [
    # a conflict is raised only once every line has passed the syntax checks
    (_HEAD + "trans q a r\ntrans q a q\ntrans q c r\n",
     (InputParseError, "line 5: unknown letter in ['q', 'c', 'r']", 5)),
    (_HEAD + "trans q a r\ntrans r b q\ntrans q a q\ntrans r b r\n",
     (InputParseError, "line 5: conflicting transitions for (q, a)", 5)),
    (_HEAD + "trans q a r\n" * 5, None),
    (_HEAD.replace("\n", "\r\n") + "trans q a r\r\ntrans q c r\r\n",
     (InputParseError, "line 4: unknown letter in ['q', 'c', 'r']", 4)),
    ("states q r\x0cletters a\ntrans q a r # one\x85trans q a s\n",
     (InputParseError, "line 4: unknown state in ['q', 'a', 's']", 4)),
    ("states q r # \u2028letters a\ntrans q a r # \x0c\u2028\ntrans q a q\n",
     (InputParseError, "line 6: conflicting transitions for (q, a)", 6)),
    ("\n".join(["states q r", "letters a", "trans q a r\x0ctrans q a q"]),
     (InputParseError, "line 4: conflicting transitions for (q, a)", 4)),
    ("letters a\nstates " + " ".join(f"q{i}" for i in range(CATALOG_STATE_CAP + 1)),
     (CapExceeded, f"line 2 names {CATALOG_STATE_CAP + 1} states, over the cap "
                   f"{CATALOG_STATE_CAP}", None)),
    ("states q q\nletters a\ntrans q a q\n", (ReservedName, "duplicate name 'q'", None)),
    ("states q r\nletters a q\ntrans q a r\n", (ReservedName, "duplicate name 'q'", None)),
])
def test_parser_matches_the_reference_on_line_breaks_and_late_errors(tmp_path, text, want):
    got = assert_parses_as_the_reference(text, tmp_path / "case.alg")
    assert got == want or want is None and not isinstance(got, tuple)


def test_parser_numbers_a_line_end_split_between_blocks(tmp_path):
    # read with newline="\r", each line of the file ends at a \r and the next
    # begins with its \n; the file is read in blocks of lines, and a \r\n
    # across two blocks is one line end, as in the whole text
    text = _HEAD + "trans q a r\r\n" * 20_000 + "trans q c r\n"
    want = (InputParseError, "line 20003: unknown letter in ['q', 'c', 'r']", 20003)
    assert _parse_outcome(reference_parse, text) == want
    path = tmp_path / "crlf.alg"
    path.write_bytes(text.encode())
    with open(path, encoding="utf-8", newline="\r") as fh:
        assert _parse_outcome(parse_algebra_file, fh) == want


def test_parsing_repeated_lines_takes_memory_that_does_not_grow(tmp_path):
    # the file is read a line at a time and the transitions are kept by
    # (state, letter), so 180,000 more copies of one line cost no memory
    peaks = []
    for count in (20_000, 200_000):
        path = tmp_path / f"repeat{count}.alg"
        path.write_text("states q r\nletters a\n" + "trans q a r\n" * count)
        tracemalloc.start()
        try:
            M = _load(str(path))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert M.transitions() == [(0, 0, 1)]
    assert abs(peaks[1] - peaks[0]) < 64 * 1024, peaks


def _write(tmp_path, name, M):
    path = tmp_path / name
    path.write_text(M.emit())
    return str(path)


def test_classify_json_schema(tmp_path, capsys):
    path = _write(tmp_path, "B.alg", catalog("B"))
    code, out, _ = run(["classify", path, "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["verdict", "rule", "certificate", "trace"]
    assert data["verdict"] == "non_dualizable" and data["rule"] == "whiskery"
    assert all(list(entry) == ["rule", "fired", "detail"] for entry in data["trace"])


def test_classify_unknown_has_note(tmp_path, capsys):
    path = _write(tmp_path, "L.alg", catalog("L"))
    code, out, _ = run(["classify", path], capsys)
    assert code == 0
    assert "verdict: unknown" in out
    assert "reported, not derived" in out


def test_chain_command(capsys):
    code, out, _ = run(["chain", "4"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    outcomes = [line.split(": ")[-1].split(" ")[0] for line in lines]
    assert outcomes == ["non_dualizable", "dualizable",
                        "non_dualizable", "dualizable"]


def test_classify_decides_c67(capsys, tmp_path):
    # one component of 67 states: the letter-affine test builds and
    # decomposes its 67-element group before commuting_permutations fires
    code, out, _ = run(["catalog", "C", "67", "--emit"], capsys)
    assert code == 0
    path = tmp_path / "C67.alg"
    path.write_text(out)
    code, out, _ = run(["classify", str(path)], capsys)
    assert code == 0 and "commuting_permutations" in out


def test_catalog_emit_roundtrip(capsys, tmp_path):
    code, out, _ = run(["catalog", "C", "3", "--emit"], capsys)
    assert code == 0
    assert parse_algebra_file(out) == catalog("C", 3)


def test_check_eq_command(tmp_path, capsys):
    path = _write(tmp_path, "B.alg", catalog("B"))
    code, out, _ = run(["check-eq", path, "xy = xyyy"], capsys)
    assert code == 0 and out.startswith("counterexample: x=q, y=a")
    path3 = _write(tmp_path, "C3.alg", catalog("C", 3))
    code, out, _ = run(["check-eq", path3, "x*yz = x*zy"], capsys)
    assert out.strip() == "holds"
    code, out, _ = run(["check-eq", path3, "vxx = wxx => vx = wx"], capsys)
    assert out.strip() == "holds"


def test_embed_command(tmp_path, capsys):
    f0 = _write(tmp_path, "F0.alg", catalog("F", 0))
    b = _write(tmp_path, "B.alg", catalog("B"))
    code, out, _ = run(["embed", f0, b], capsys)
    assert code == 0 and "embedding:" in out
    code, out, _ = run(["embed", b, f0], capsys)
    assert code == 1 and "no embedding" in out


def test_normalize_command(tmp_path, capsys):
    from autodual.algebras import AutomaticAlgebra
    M = AutomaticAlgebra.build("qr", "ab", [("q", "a", "r")])
    path = tmp_path / "m.alg"
    path.write_text(M.emit())
    code, out, _ = run(["normalize", str(path)], capsys)
    assert code == 0
    assert "# drop_undefined_letter: removed b" in out
    assert "letters a" in out


def test_max_elements_default_is_the_hom_cap():
    # the CLI states the default as a literal, so that it need not import powers
    from autodual.cli import _MAX_ELEMENTS
    from autodual.powers import HOM_CAP_DEFAULT
    assert _MAX_ELEMENTS[1]["default"] == HOM_CAP_DEFAULT


def test_witness_command(capsys):
    code, out, _ = run(["witness", "thm_wc", "0", "--size", "4"], capsys)
    assert code == 0
    assert "[PASS]" in out and "not in A" in out


def test_witness_reads_an_algebra_file_where_a_token_goes(tmp_path, capsys):
    from test_witness import NO_CASE_1
    path = _write(tmp_path, "no_case_1.alg", NO_CASE_1)
    code, out, err = run(["witness", "thm_pcomm_case1", path, "--size", "4"], capsys)
    assert code == 3 and "no case-1 parameters" in err and out == ""
    path = _write(tmp_path, "C5.alg", catalog("C", 5))
    by_file = run(["witness", "thm_nondcomm", path, "b", "c", "--size", "4"], capsys)
    assert by_file == run(["witness", "thm_nondcomm", "C5", "b", "c", "--size", "4"], capsys)
    assert by_file[0] == 0 and "[PASS]" in by_file[1]
    code, out, _ = run(["witness", "thm_nondcomm", str(tmp_path / "missing.alg"),
                        "--size", "4"], capsys)
    assert code == 1 and out == ""
    bad = tmp_path / "bad.alg"
    bad.write_text("states q r\nletters a\ntrans q a r\ntrans q a q\n")
    code, out, err = run(["witness", "thm_pcomm_case1", str(bad), "--size", "4"], capsys)
    assert code == 2 and "parse error" in err and out == ""


def test_witness_reads_a_file_whose_name_is_letters_then_digits(tmp_path, monkeypatch,
                                                                   capsys):
    # a name of letters then digits is a catalog token only for a catalog name
    from test_witness import NO_CASE_1
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "alg1", NO_CASE_1)
    code, out, err = run(["witness", "thm_pcomm_case1", "alg1", "--size", "3"], capsys)
    assert code == 3 and "no case-1 parameters" in err and out == ""
    _write(tmp_path, "c5", catalog("C", 5))
    _write(tmp_path, "C5", NO_CASE_1)       # the catalog token wins over a file
    by_file = run(["witness", "thm_nondcomm", "c5", "b", "c", "--size", "4"], capsys)
    assert by_file == run(["witness", "thm_nondcomm", "C5", "b", "c", "--size", "4"], capsys)
    assert by_file[0] == 0 and "[PASS]" in by_file[1]
    _write(tmp_path, "B5", catalog("C", 5))
    code, out, err = run(["witness", "thm_nondcomm", "B5", "--size", "4"], capsys)
    assert code == 3 and "B takes no parameters" in err and out == ""


def test_check_eq_takes_long_and_deeply_nested_terms(tmp_path, capsys):
    path = _write(tmp_path, "F.alg", catalog("F", 1))
    for expr in ("x" + "a" * 1200 + " = x", "(" * 500 + "x" + ")" * 500 + " = x",
                 "(" * 500 + "x = x"):
        code, _, err = run(["check-eq", path, expr], capsys)
        assert code in (0, 2) and "Traceback" not in err


def test_verify_cert_command(tmp_path, capsys):
    b = _write(tmp_path, "B.alg", catalog("B"))
    code, out, _ = run(["classify", b, "--json"], capsys)
    cert_path = tmp_path / "b.json"
    cert_path.write_text(out)
    code, out, _ = run(["verify-cert", b, str(cert_path)], capsys)
    assert code == 0 and "VALID" in out
    tampered = json.loads(cert_path.read_text())
    tampered["certificate"]["letter"] = "b"
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(tampered))
    code, out, _ = run(["verify-cert", b, str(bad_path)], capsys)
    assert code == 1 and "INVALID" in out


def test_verify_cert_reports_cap_hits_and_faults(tmp_path, capsys, monkeypatch):
    b = _write(tmp_path, "B.alg", catalog("B"))
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"verdict": "unknown", "rule": "unknown",
                                   "certificate": None, "trace": []}))
    code, out, _ = run(["verify-cert", b, str(unknown)], capsys)
    assert code == 1 and "INVALID" in out        # B is decided by whiskery
    # `autodual.classify` may be the package's function, so fetch the module itself
    module = importlib.import_module("autodual.classify")
    for error, exit_code in ((CapExceeded, 3), (InternalInconsistency, 4)):
        def fail(*args):
            raise error("raised inside the verifier")

        monkeypatch.setattr(module, "whiskery_check", fail)
        code, out, err = run(["verify-cert", b, str(unknown)], capsys)
        assert code == exit_code and "INVALID" not in out
        assert "raised inside the verifier" in err


def test_exit_codes(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.alg"
    bad.write_text("states q r\nletters a\ntrans q a r\ntrans q a q\n")
    code, _, err = run(["classify", str(bad)], capsys)
    assert code == 2
    code, _, err = run(["catalog", "C", "4"], capsys)
    assert code == 3

    def build_nothing(*args):
        raise AssertionError("nothing may be built past a cap")

    # imported here, so its default parameters are built before `build` is
    # patched, also when this test runs alone
    witness = importlib.import_module("autodual.witness")

    # `autodual.classify` may be the package's function, so fetch the module itself
    monkeypatch.setattr(importlib.import_module("autodual.classify"), "catalog",
                        build_nothing)
    for argv in (["chain", "8"], ["catalog", "chain", "8"]):
        code, _, err = run(argv, capsys)
        assert code == 3 and "chain cap 7" in err
    for argv in (["chain", "0"], ["chain", "-3"], ["catalog", "chain", "0"]):
        code, out, err = run(argv, capsys)
        assert code == 3 and ">= 1" in err and out == ""
    monkeypatch.setattr(AutomaticAlgebra, "build", build_nothing)
    over = str(CATALOG_STATE_CAP - 1)       # F_m has m + 2 states
    for argv in (["catalog", "F", over], ["catalog", "C", str(CATALOG_STATE_CAP + 1)],
                 ["witness", "thm_wc", over, "--size", "3"]):
        code, out, err = run(argv, capsys)
        assert code == 3 and "catalog state cap" in err and out == ""
    names = [f"x{i}" for i in range(CATALOG_STATE_CAP + 1)]
    for head in ("states", "letters"):
        lines = {"states": "states q r", "letters": "letters a"}
        lines[head] = " ".join([head] + names)
        wide = tmp_path / f"wide_{head}.alg"
        wide.write_text("\n".join(lines.values()) + "\ntrans q a r\n")
        code, out, err = run(["classify", str(wide)], capsys)
        assert code == 3 and f"{CATALOG_STATE_CAP + 1} {head}, over the cap" in err
        assert out == ""
    monkeypatch.undo()
    chain7 = parse_algebra_file(" ".join(["states"] + names[:652]) + "\nletters "
                                + " ".join(f"a{i}" for i in range(611)) + "\n")
    assert (chain7.n_states, chain7.n_letters) == (652, 611)      # gen_chain(7)'s shape
    code, _, err = run(["nonsense"], capsys)
    assert code == 1
    code, _, err = run(["classify", str(tmp_path / "missing.alg")], capsys)
    assert code == 1
    latin1 = tmp_path / "latin1.alg"        # a stray \xe9 byte in a comment
    latin1.write_bytes(b"# caf\xe9\nstates q r\nletters a\ntrans q a r\n")
    code, out, err = run(["classify", str(latin1)], capsys)
    assert code == 2 and "not UTF-8" in err and "Traceback" not in err and out == ""
    b_path = _write(tmp_path, "B.alg", catalog("B"))
    latin1.write_bytes(b'{"verdict": "caf\xe9"}')
    code, out, err = run(["verify-cert", b_path, str(latin1)], capsys)
    assert code == 2 and "parse error" in err and out == ""
    code, _, err = run(["witness", "thm_wc", "x", "--size", "4"], capsys)
    assert code == 1 and "usage error" in err
    for letter in ("z", "1", "0"):      # unknown name, a state, the zero
        code, _, err = run(["witness", "thm_nondcomm", "C3", letter, "--size", "4"],
                           capsys)
        assert code == 3 and "not a letter" in err
    for argv in (["ex_all4_L", "foo"], ["thm_wc", "1", "junk"],
                 ["lem_2state2_N4", "x"], ["thm_nondcomm", "C3", "b", "c", "d"]):
        code, _, err = run(["witness", *argv, "--size", "3"], capsys)
        assert code == 1 and "usage error" in err
    code, out, err = run(["witness", "thm_wc", "--size", "17"], capsys)
    assert code == 3 and "size cap" in err and out == ""
    monkeypatch.setattr(witness, "build_truncation", build_nothing)
    # embed's files do not exist, so a check after reading them would exit 1
    witness_argv = ["witness", "thm_wc", "--size", "4"]
    embed_argv = ["embed", str(tmp_path / "missing.alg"), str(tmp_path / "missing.alg")]
    for argv, flag, value in ((witness_argv, "--build-cap", "0"),
                              (witness_argv, "--build-cap", "-1"),
                              (witness_argv, "--max-elements", "-1"),
                              (witness_argv, "--nu", "-1"),
                              (embed_argv, "--max-elements", "-1")):
        code, out, err = run([*argv, flag, value], capsys)
        assert code == 3 and f"{flag} must be at least" in err and out == ""
    monkeypatch.undo()
    b_path = _write(tmp_path, "B.alg", catalog("B"))     # 7 elements, 15 variables
    code, out, err = run(["check-eq", b_path, "abcdefghijklmno = onmlkjihgfedcba"], capsys)
    assert code == 3 and "over the cap" in err and out == ""
    code, _, err = run(["classify", b_path, "--max-elements", "5"], capsys)
    assert code == 1 and "usage error" in err       # only embed and witness take it
    deep = tmp_path / "deep.json"       # nested past the recursion limit
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(["verify-cert", b_path, str(deep)], capsys)
    assert code == 2 and "not JSON" in err and out == ""
