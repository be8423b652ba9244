import importlib
import json

import pytest

from autodual.algebras import catalog, standard_catalog
from autodual.cli import main, parse_algebra_file
from autodual.errors import CapExceeded, InputParseError, InternalInconsistency


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


def test_witness_command(capsys):
    code, out, _ = run(["witness", "thm_wc", "0", "--size", "4"], capsys)
    assert code == 0
    assert "[PASS]" in out and "not in A" in out


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
    # the package re-exports the function `classify`, so fetch the module itself
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
        raise AssertionError("no chain stage may be built past the cap")

    # the package re-exports the function `classify`, so fetch the module itself
    monkeypatch.setattr(importlib.import_module("autodual.classify"), "catalog",
                        build_nothing)
    for argv in (["chain", "8"], ["catalog", "chain", "8"]):
        code, _, err = run(argv, capsys)
        assert code == 3 and "chain cap 7" in err
    for argv in (["chain", "0"], ["chain", "-3"], ["catalog", "chain", "0"]):
        code, out, err = run(argv, capsys)
        assert code == 3 and ">= 1" in err and out == ""
    monkeypatch.undo()
    code, _, err = run(["nonsense"], capsys)
    assert code == 1
    code, _, err = run(["classify", str(tmp_path / "missing.alg")], capsys)
    assert code == 1
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
    b_path = _write(tmp_path, "B.alg", catalog("B"))     # 7 elements, 9 variables
    code, out, err = run(["check-eq", b_path, "abcdefghi = ihgfedcba"], capsys)
    assert code == 3 and "over the cap" in err and out == ""
    code, _, err = run(["classify", b_path, "--max-elements", "5"], capsys)
    assert code == 1 and "usage error" in err       # only embed and witness take it
    deep = tmp_path / "deep.json"       # nested past the recursion limit
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(["verify-cert", b_path, str(deep)], capsys)
    assert code == 2 and "not JSON" in err and out == ""
