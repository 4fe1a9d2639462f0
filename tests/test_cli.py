import json

import pytest

from gradedlie import linalg
from gradedlie.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_betti_table(capsys):
    code, out, _ = run(capsys, "betti", "--algebra", "m0", "--cutoff", "10",
                       "--q", "2", "--k", "4..9")
    assert code == 0
    dims = [line.split()[-1] for line in out.strip().splitlines()[1:]]
    assert dims == ["0", "1", "0", "1", "0", "1"]


def test_betti_pentagonal_json(capsys):
    code, out, _ = run(capsys, "betti", "--algebra", "L1", "--cutoff", "16",
                       "--q", "1..3", "--k", "1..16", "--format", "json")
    assert code == 0
    data = json.loads(out)
    nonzero = {(r["q"], r["k"]) for r in data["rows"] if r["dim"]}
    assert nonzero == {(1, 1), (1, 2), (2, 5), (2, 7), (3, 12), (3, 15)}


def test_betti_empty_range(capsys):
    code, out, _ = run(capsys, "betti", "--algebra", "m0", "--cutoff", "6",
                       "--q", "2", "--k", "")
    assert code == 0


def test_betti_csv(capsys):
    code, out, _ = run(capsys, "betti", "--algebra", "L1", "--cutoff", "7",
                       "--q", "2", "--k", "5..7", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "q,k,dim"
    assert out.splitlines()[1] == "2,5,1"


def test_betti_cutoff_too_small_exit2(capsys):
    code, _, err = run(capsys, "betti", "--algebra", "m0", "--cutoff", "4",
                       "--q", "2", "--k", "9")
    assert code == 2
    assert "cutoff" in err


def test_check_goncharova(capsys):
    code, out, _ = run(capsys, "check", "goncharova", "--qmax", "2",
                       "--kmax", "8", "--format", "csv")
    assert code == 0
    assert "q,k,computed,expected,match" in out


def test_check_m0dims(capsys):
    code, out, _ = run(capsys, "check", "m0dims", "--qmax", "3",
                       "--kmax", "12", "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_check_gr(capsys):
    code, out, _ = run(capsys, "check", "gr", "--cutoff", "8", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True


def test_check_identities(capsys):
    code, out, _ = run(capsys, "check", "identities", "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_massey_eval_e2_e1_e2(capsys):
    code, out, _ = run(capsys, "massey", "eval", "e2; e1; e2", "--algebra", "m0")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "NonTrivialCertified"
    assert data["value"]["entries"] == [
        {"coeff": "2", "index": 0, "representative": "1*e2^e3", "weight": 5}]


def test_massey_eval_L1_trivial(capsys):
    code, out, _ = run(capsys, "massey", "eval", "e2; e1; e1; e1",
                       "--algebra", "L1")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "TrivialWitness"
    assert "witness" in data


def test_massey_eval_not_defined(capsys):
    code, out, _ = run(capsys, "massey", "eval", "e2; e1; e2; e1",
                       "--algebra", "m0")
    assert code == 0
    assert json.loads(out)["status"] == "NotDefined"


def test_massey_classify(capsys):
    code, out, _ = run(capsys, "massey", "classify", "e1; e2+1*e1; e1; e1")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "C" and data["params"] == ["1", "1"]


def test_massey_verify(tmp_path, capsys):
    path = tmp_path / "conn.txt"
    path.write_text("connection n=3\n(1,2) = 1*e2\n(1,3) = -1*e3\n"
                    "(2,3) = 1*e1\n(2,4) = 1*e3\n(3,4) = 1*e2\n")
    code, out, _ = run(capsys, "massey", "verify", str(path), "--algebra", "m0",
                       "--cutoff", "8")
    assert code == 0
    data = json.loads(out)
    assert data["formal_connection"] is True
    assert data["related_cocycle"] == "2*e2^e3"


def test_massey_parse_error_exit2(capsys):
    code, _, err = run(capsys, "massey", "eval", "e2; ; e1", "--algebra", "m0")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("header", ["connection n=abc", "connection n=-2"])
def test_massey_verify_bad_header_exit2(tmp_path, capsys, header):
    path = tmp_path / "conn.txt"
    path.write_text(header + "\n(1,2) = 1*e2\n")
    code, out, err = run(capsys, "massey", "verify", str(path), "--algebra", "m0",
                         "--cutoff", "8")
    assert code == 2 and out == ""
    assert err.startswith("error: line 1: ") and err.count("\n") == 1


def test_algebra_file_loading(tmp_path, capsys):
    from gradedlie.algebra import load_preset, write_algebra
    path = tmp_path / "alg.txt"
    path.write_text(write_algebra(load_preset("L1", 8)))
    code, out, _ = run(capsys, "betti", "--algebra", str(path), "--cutoff", "7",
                       "--q", "2", "--k", "5..7", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["2,5,1", "2,6,0", "2,7,1"]


def test_determinism(capsys):
    args = ("massey", "eval", "e2; e1; e1; e2", "--algebra", "m0",
            "--seed", "3")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    json.loads(out1)  # round-trips through the documented schema


def test_env_default_cutoff(capsys, monkeypatch):
    monkeypatch.setenv("GRADEDLIE_CUTOFF", "12")
    code, out, _ = run(capsys, "betti", "--algebra", "L1", "--q", "2",
                       "--k", "5..7", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "2,5,1"


@pytest.mark.parametrize("env, argv", [
    ("abc", ["betti", "--algebra", "L1", "--q", "2", "--k", "5"]),
    ("abc", ["massey", "eval", "e2; e1; e2", "--algebra", "m0"]),
    (None, ["betti", "--algebra", "L1", "--q", "x", "--k", "5"]),
], ids=["env-default-cutoff", "env-massey-eval-cutoff", "q-range"])
def test_bad_integer_exit2(capsys, monkeypatch, env, argv):
    if env is None:
        monkeypatch.delenv("GRADEDLIE_CUTOFF", raising=False)
    else:
        monkeypatch.setenv("GRADEDLIE_CUTOFF", env)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be an integer" in err


def test_internal_check_failure_exit1(capsys, monkeypatch):
    monkeypatch.setattr(linalg, "coboundary_preimage", lambda g, c: linalg.NO_SOLUTION)
    code, out, err = run(capsys, "massey", "eval", "e1; e1; e1", "--algebra", "m0")
    assert code == 1 and out == ""
    assert err.startswith("error: internal check failed")


def test_report_failure_exit1(capsys):
    from gradedlie.cli import _print_report
    from gradedlie.cohomology import Report, ReportRow
    report = Report("fake", (ReportRow(1, 1, 0, 1),))
    assert _print_report(report, "table") == 1
    capsys.readouterr()


def test_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "gradedlie.cli", "check", "goncharova",
         "--qmax", "1", "--kmax", "2", "--format", "csv"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "q,k,computed,expected,match"
