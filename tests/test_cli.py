import hashlib
import json
import os
import subprocess
import sys

import pytest

import gradedlie
from gradedlie import linalg
from gradedlie.algebra import load_preset
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


def test_massey_eval_triple_with_an_even_degree_first_class(capsys):
    # the witness needs a generator at a(2,3), where bar(e3^e4 - e2^e5) = -(e3^e4 - e2^e5)
    code, out, _ = run(capsys, "massey", "eval",
                       "e3^e4 - e2^e5; e1; e2^e3^e7 - e2^e4^e6 + e3^e4^e5", "--algebra", "m0")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "TrivialWitness"
    assert data["certificate"] == {"kind": "exact-affine-triple"}
    assert [e["coeff"] for e in data["value"]["entries"]] == ["4"]


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


def test_massey_verify_second_header_exit2(tmp_path, capsys):
    # the matrix used to be sized by the last header: an IndexError and exit 1
    path = tmp_path / "conn.txt"
    path.write_text("connection n=3\n(1,4) = 1*e2\nconnection n=1\n")
    code, out, err = run(capsys, "massey", "verify", str(path), "--algebra", "m0",
                         "--cutoff", "8")
    assert code == 2 and out == ""
    assert err == "error: line 3: second 'connection n=<n>' header\n"


def test_massey_verify_repeated_entry_exit2(tmp_path, capsys):
    # the second entry used to replace the first silently
    path = tmp_path / "conn.txt"
    path.write_text("connection n=2\n(1,2) = e1\n(1,2) = e2\n")
    code, out, err = run(capsys, "massey", "verify", str(path), "--algebra", "m0",
                         "--cutoff", "8")
    assert code == 2 and out == ""
    assert err == "error: line 3: second entry (1,2)\n"


@pytest.mark.parametrize("payload", ["1; 1", "e1; 1", "1; 1; 1", "1; 1; 1; 1"])
def test_massey_eval_scalar_class_exit2(capsys, payload):
    # used to certify a degree-0 value, or to fail on a preimage of a scalar
    code, out, err = run(capsys, "massey", "eval", payload, "--algebra", "m0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Massey products need classes of positive degree" in err


@pytest.mark.parametrize("extra, loads", [([], [59, 61]), (["--cutoff", "61"], [61])])
def test_massey_eval_probe_holds_every_generator(capsys, monkeypatch, extra, loads):
    # the probe that sizes the cutoff used to have 48 generators, so e59 was
    # refused, and a given cutoff used to build the preset twice
    calls = []
    monkeypatch.setattr("gradedlie.cli.load_preset",
                        lambda name, cutoff: calls.append(cutoff) or load_preset(name, cutoff))
    code, out, err = run(capsys, "massey", "eval", "e1^e59; e1", "--algebra", "m0", *extra)
    assert (code, err) == (0, "")
    assert json.loads(out)["status"] == "TrivialWitness"
    assert calls == loads


# bad input that reaches the library and the line it prints; ALG is an algebra
# file with cutoff 2
CLI_INPUT_ERRORS = [
    (["betti", "--algebra", "ALG", "--cutoff", "5", "--q", "1", "--k", "1"],
     "cutoff 2 too small, need at least 5 for algebra file"),
    (["massey", "classify", "e1; e3"], "line 0: classification needs classes in span(e1, e2)"),
    # a zero class used to end in a traceback while the cutoff was sized
    (["massey", "eval", "0; e1"], "all product classes must be nonzero cocycles"),
    (["massey", "eval", "e1^ex; e1"], "line 0: bad monomial factor 'ex'"),
]


@pytest.mark.parametrize("argv, message", CLI_INPUT_ERRORS)
def test_cli_input_errors_exit2(tmp_path, capsys, argv, message):
    path = tmp_path / "alg.txt"
    path.write_text("generators: (1:1), (2:2)\n")
    code, out, err = run(capsys, *[str(path) if a == "ALG" else a for a in argv])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_massey_eval_over_an_m0_tail(tmp_path, capsys, m0_tail_text):
    # the slices of the triple used to pick omega representatives over e2,
    # which the tail lacks, and the command ended in a KeyError traceback
    path = tmp_path / "tail.txt"
    path.write_text(m0_tail_text)
    code, out, err = run(capsys, "massey", "eval", "e3; e1; e3", "--algebra", str(path))
    assert code == 0 and err == ""
    assert json.loads(out)["status"] == "NonTrivialCertified"


def test_algebra_file_loading(tmp_path, capsys):
    from gradedlie.algebra import load_preset, write_algebra
    path = tmp_path / "alg.txt"
    path.write_text(write_algebra(load_preset("L1", 8)))
    code, out, _ = run(capsys, "betti", "--algebra", str(path), "--cutoff", "7",
                       "--q", "2", "--k", "5..7", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["2,5,1", "2,6,0", "2,7,1"]


# algebra files without a cutoff line, with the k range asked of
# `betti --algebra FILE --q 1` and the csv rows it prints.  The cutoff is then
# the largest generator weight, and at least 2.
LOADED_ALGEBRA_FILES = [
    ("generators: (1:1)\n", "1", ["1,1,1"]),
    ("generators: (1:1), (2:1)\n", "1..2", ["1,1,2", "1,2,0"]),
    ("generators: (1:1), (2:2), (3:3)\n[1,2] = 1*3\n", "1..3", ["1,1,1", "1,2,1", "1,3,0"]),
]


@pytest.mark.parametrize("text, k, rows", LOADED_ALGEBRA_FILES)
def test_algebra_file_without_cutoff_line_loads(tmp_path, capsys, text, k, rows):
    path = tmp_path / "alg.txt"
    path.write_text(text)
    code, out, err = run(capsys, "betti", "--algebra", str(path), "--q", "1", "--k", k,
                         "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == rows


# algebra files that fail parse_algebra or the GradedLieAlgebra checks, with
# the exact line `betti --algebra FILE` prints.
BAD_ALGEBRA_FILES = [
    ("generators: (1:1), 2:2\n", "line 1: bad generator spec '2:2'"),
    ("generators: (1:x)\n", "line 1: bad generator spec '(1:x)'"),
    ("generators: (0:1), (2:2)\n", "line 1: generator index must be positive, got 0"),
    ("generators: (1:0), (2:2)\n", "line 1: generator weight must be >= 1, got 0"),
    ("generators: (1:1), (2:2), (1:1)\n", "line 1: duplicate generator indices"),
    ("generators: (1:1), (2:3)\ncutoff: 2\n", "line 1: generator e2 has weight 3 > cutoff 2"),
    ("generators: (1:1)\ncutoff: x\n", "line 2: bad cutoff"),
    ("generators: (1:1)\ncutoff: 1\n", "line 2: cutoff must be >= 2, got 1"),
    ("generators: (1:1), (2:2), (3:3)\n[1,2]\n", "line 2: expected '[i,j] = ...'"),
    ("generators: (1:1), (2:2), (3:3)\n[1,2 = 3\n", "line 2: bad bracket key '[1,2'"),
    ("generators: (1:1), (2:2), (3:3)\n[1;2] = 3\n", "line 2: bad bracket key '[1;2]'"),
    ("generators: (1:1), (2:2), (3:3)\n[2,1] = 3\n",
     "line 2: bracket key must have i < j, got [2,1]"),
    ("generators: (1:1), (2:2), (3:3)\n[1,2] = 3 +\n", "line 2: empty term"),
    ("generators: (1:1), (2:2), (3:3)\n[1,2] = 1*x\n", "line 2: bad target index 'x'"),
    ("generators: (1:1), (2:2), (3:3)\n[1,2] = a*3\n", "line 2: bad rational 'a'"),
    ("generators: (1:1), (2:2), (3:3)\nfoo\n", "line 2: unrecognized line 'foo'"),
    ("# no header\ncutoff: 3\n", "line 0: missing 'generators:' header"),
    ("generators: (1:1), (2:2)\ncutoff: 3\n[1,2] = 1*3\n",
     "line 3: bracket [1,2] targets unknown generator 3"),
    ("generators: (1:1), (2:2), (3:2)\ncutoff: 3\n[1,2] = 1*3\n",
     "line 3: bracket [1,2] -> 3 violates weight additivity"),
    ("generators: (1:1), (2:2), (3:3)\n[1,2] = 1*3\n[1,3] = 1*4\n",
     "line 3: bracket [1,3] exceeds cutoff and must be dropped"),
    ("[1,3] = 1*4\ngenerators: (1:1), (2:2), (3:3)\n[1,2] = 1*3\n",
     "line 1: bracket [1,3] exceeds cutoff and must be dropped"),
    ("generators: (1:1), (2:2), (3:3)\ngenerators: (1:1)\n[1,2] = 1*3\n",
     "line 2: second 'generators:' line"),
    ("generators: (1:1), (2:2), (3:3)\ncutoff: 3\ncutoff: 2\n[1,2] = 1*3\n",
     "line 3: second 'cutoff:' line"),
    ("generators: (1:1), (2:2), (3:3)\n[1,2] = 1*3\n# again\n[1,2] = 2*3\n",
     "line 4: second bracket [1,2]"),
]


@pytest.mark.parametrize("text, message", BAD_ALGEBRA_FILES)
def test_bad_algebra_file_exit2(tmp_path, capsys, text, message):
    path = tmp_path / "alg.txt"
    path.write_text(text)
    code, out, err = run(capsys, "betti", "--algebra", str(path), "--q", "1", "--k", "1")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_betti_file_cutoff_below_two_exit2(tmp_path, capsys):
    # a file algebra used to run at cutoff 2 whatever cutoff was asked for
    path = tmp_path / "alg.txt"
    path.write_text("generators: (1:1), (2:2)\n")
    code, out, err = run(capsys, "betti", "--algebra", str(path), "--cutoff", "1",
                         "--q", "1", "--k", "1")
    assert code == 2 and out == ""
    assert err == "error: cutoff must be >= 2, got 1\n"


def test_betti_file_weight_past_cutoff_exit2(tmp_path, capsys):
    # the file's cutoff admits the --cutoff asked for, but not the weights:
    # betti refuses the first (q, k) past it and prints no partial table
    path = tmp_path / "alg.txt"
    path.write_text("generators: (1:1), (2:2), (3:3)\n[1,2] = 1*3\n")
    code, out, err = run(capsys, "betti", "--algebra", str(path), "--cutoff", "3",
                         "--q", "1..2", "--k", "2..5")
    assert code == 2 and out == ""
    assert err == "error: cutoff 3 too small, need at least 4 for cohomology slice (q=1, k=4)\n"


@pytest.mark.parametrize("cutoff", ["0", "-4"])
def test_massey_eval_file_cutoff_below_two_exit2(tmp_path, capsys, cutoff):
    # --cutoff 0 used to run a file algebra at cutoff 2
    path = tmp_path / "alg.txt"
    path.write_text("generators: (1:1), (2:2)\n")
    code, out, err = run(capsys, "massey", "eval", "e1; e2", "--algebra", str(path),
                         "--cutoff", cutoff)
    assert code == 2 and out == ""
    assert err == f"error: cutoff must be >= 2, got {cutoff}\n"


def test_check_gr_env_cutoff_below_three_exit2(capsys, monkeypatch):
    monkeypatch.setenv("GRADEDLIE_CUTOFF", "1")
    code, out, err = run(capsys, "check", "gr")
    assert code == 2 and out == ""
    assert err == "error: --cutoff must be at least 3, got 1\n"


@pytest.mark.parametrize("payload, term", [("e1; 2*", "2*"), ("e1; 1/2*; e2", "1/2*")])
def test_massey_eval_dangling_star_exit2(capsys, payload, term):
    # "2*" used to parse as the scalar 2, reported as a degree-0 class
    code, out, err = run(capsys, "massey", "eval", payload)
    assert code == 2 and out == ""
    assert err == f"error: line 0: bad term {term!r}\n"


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


@pytest.mark.parametrize("argv, message", [
    (["check", "goncharova", "--qmax", "0"], "--qmax must be at least 1, got 0"),
    (["check", "goncharova", "--kmax", "0"], "--kmax must be at least 1, got 0"),
    (["check", "m0dims", "--qmax", "-1"], "--qmax must be at least 1, got -1"),
    (["check", "m0dims", "--qmax", "0"], "--qmax must be at least 1, got 0"),
    (["check", "m0dims", "--kmax", "0"], "--kmax must be at least 1, got 0"),
    (["massey", "eval", "e2; e1; e1; e2", "--samples", "0"],
     "--samples must be at least 1, got 0"),
    (["massey", "eval", "e2; e1; e1; e2", "--samples", "-1"],
     "--samples must be at least 1, got -1"),
    (["massey", "eval", "e2; e1; e1; e2", "--budget", "-1"],
     "--budget must be at least 0, got -1"),
    # a negative degree or weight used to print a row of zeros, an empty
    # range only the header
    (["betti", "--algebra", "L1", "--q", "-1", "--k", "3"], "--q must be at least 0, got -1"),
    (["betti", "--algebra", "L1", "--q", "1", "--k", "0..-2"], "--k must be at least 0, got -2"),
    (["betti", "--algebra", "L1", "--q", "5..3", "--k", "3"], "--q range 5..3 is empty"),
    (["betti", "--algebra", "L1", "--q", "1", "--k", "4..2"], "--k range 4..2 is empty"),
    # a betti cutoff below 2 used to run at cutoff 2, and a check gr cutoff
    # below 3 to print an empty report reading "ok": true
    (["betti", "--algebra", "L1", "--cutoff", "-4", "--q", "1", "--k", "1"],
     "cutoff must be >= 2, got -4"),
    (["betti", "--algebra", "m0", "--cutoff", "0", "--q", "1", "--k", "1"],
     "cutoff must be >= 2, got 0"),
    (["betti", "--algebra", "L1", "--cutoff", "1", "--q", "1", "--k", "1"],
     "cutoff must be >= 2, got 1"),
    (["check", "gr", "--cutoff", "2"], "--cutoff must be at least 3, got 2"),
    (["check", "gr", "--cutoff", "-1", "--format", "json"], "--cutoff must be at least 3, got -1"),
    # check identities used to accept any --cutoff and ignore it
    (["check", "identities", "--cutoff", "-5"],
     "check identities takes no --cutoff: its suites fix their algebras"),
    (["check", "identities", "--cutoff", "14", "--format", "json"],
     "check identities takes no --cutoff: its suites fix their algebras"),
])
def test_bad_bound_exit2(capsys, argv, message):
    # a zero or negative bound used to fall back to the default or to print
    # an empty report reading "all match"
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["check", "goncharova", "--qmax", "1", "--kmax", "2", "--format", "csv"],
    ["massey", "eval", "e2; e1; e1; e2", "--samples", "1", "--budget", "0"],
    ["betti", "--algebra", "L1", "--q", "0", "--k", "0"],
    ["betti", "--algebra", "L1", "--q", "0..0", "--k", "3..3"],
    ["betti", "--algebra", "L1", "--cutoff", "2", "--q", "1", "--k", "1"],
    ["check", "gr", "--cutoff", "3"],
])
def test_smallest_bounds_accepted(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""


@pytest.mark.parametrize("which", ["algebra-dir", "algebra-binary", "verify-dir"])
def test_unreadable_file_exit2(tmp_path, capsys, which):
    # a directory or a non-UTF-8 file used to end in a traceback and exit 1
    (tmp_path / "binary.txt").write_bytes(b"\xff\xfe\x00 not text")
    argv, reason = {
        "algebra-dir": (["betti", "--algebra", str(tmp_path), "--q", "1", "--k", "1"],
                        "Is a directory"),
        "algebra-binary": (["betti", "--algebra", str(tmp_path / "binary.txt"),
                            "--q", "1", "--k", "1"], "is not UTF-8 text"),
        "verify-dir": (["massey", "verify", str(tmp_path), "--algebra", "m0"],
                       "Is a directory"),
    }[which]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and reason in err


def test_missing_file_exit2(capsys):
    code, out, err = run(capsys, "massey", "verify", "no/such/file.txt", "--algebra", "m0")
    assert code == 2 and out == ""
    assert err == "error: [Errno 2] No such file or directory: 'no/such/file.txt'\n"


def test_thread_witness_cutoff_exit2(capsys):
    code, out, err = run(capsys, "massey", "eval", "e1; e1; e1; e2", "--cutoff", "4")
    assert code == 2 and out == ""
    assert err == "error: cutoff 4 too small, need at least 5 for thread witness\n"


def test_internal_check_failure_exit1(capsys, monkeypatch):
    monkeypatch.setattr(linalg, "coboundary_preimage", lambda g, c: None)
    code, out, err = run(capsys, "massey", "eval", "e1; e1; e1", "--algebra", "m0")
    assert code == 1 and out == ""
    assert err.startswith("error: internal check failed")


def test_internal_check_survives_python_O():
    # the checks that back a certificate are internal_check calls, not
    # asserts, so python -O must still turn a failed re-check into exit 1
    script = ("import sys\n"
              "from gradedlie import cli, linalg\n"
              "assert False, 'python -O strips this assert'\n"
              "linalg.coboundary_preimage = lambda g, c: None\n"
              "sys.exit(cli.main(['massey', 'eval', 'e1; e1; e1', '--algebra', 'm0']))\n")
    src = os.path.dirname(os.path.dirname(gradedlie.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: internal check failed")


def test_report_failure_exit1(capsys):
    from gradedlie.cli import _print_report
    from gradedlie.cohomology import Report, ReportRow
    report = Report("fake", (ReportRow(1, 1, 0, 1),))
    assert _print_report(report, "table") == 1
    capsys.readouterr()


def test_module_entry_point():
    src = os.path.dirname(os.path.dirname(gradedlie.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "gradedlie.cli", "check", "goncharova",
         "--qmax", "1", "--kmax", "2", "--format", "csv"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "q,k,computed,expected,match"


# Commands whose stdout, stderr and exit code are pinned by the golden CLI
# digest: reports, file inputs, one product per rung of `massey eval` and the
# bad-bound exits.  File names are relative to the working directory.
GOLDEN_CLI_COMMANDS = [
    ["betti", "--algebra", "L1", "--cutoff", "26", "--q", "1..4", "--k", "1..26",
     "--format", "json"],
    ["betti", "--algebra", "m0", "--cutoff", "18", "--q", "1..5", "--k", "1..18",
     "--format", "csv"],
    ["betti", "--algebra", "alg.txt", "--cutoff", "7", "--q", "2", "--k", "5..7"],
    ["check", "goncharova", "--qmax", "3", "--kmax", "16"],
    ["check", "m0dims", "--qmax", "4", "--kmax", "20", "--format", "json"],
    ["check", "gr", "--cutoff", "8"],
    ["check", "gr", "--cutoff", "10", "--format", "json"],
    ["check", "identities"],
    ["massey", "classify", "e1; e2+1*e1; e1; e1"],
    ["massey", "verify", "conn.txt", "--algebra", "m0", "--cutoff", "8"],
    ["massey", "verify", "missing.txt", "--algebra", "m0"],
    # direct, triple and thread products
    ["massey", "eval", "e1; e2", "--algebra", "m0"],
    ["massey", "eval", "e2; e1^e4", "--algebra", "L1"],
    ["massey", "eval", "e2; e1; e2", "--algebra", "m0"],
    ["massey", "eval", "e2; e2; e1", "--algebra", "L1"],
    ["massey", "eval", "e1+e2; e2; e1-e2", "--algebra", "m0"],
    ["massey", "eval", "e1; e1; e2", "--algebra", "L1", "--cutoff", "10"],
    ["massey", "eval", "e1^e4; e1; e2", "--algebra", "L1", "--cutoff", "12"],
    ["massey", "eval", "e2; e1; e2^e7-e3^e6+e4^e5", "--algebra", "m0", "--cutoff", "16"],
    ["massey", "eval", "e2; e1; e1; e1; e2", "--algebra", "m0", "--cutoff", "14"],
    ["massey", "eval", "e2; e1; e1; e2", "--algebra", "m0", "--seed", "3"],
    ["massey", "eval", "e2; e1; e2; e1", "--algebra", "m0"],
    ["massey", "eval", "e2; e1; e1; e1", "--algebra", "L1"],
    ["massey", "eval", "e1; e2; e1; e2", "--algebra", "L1", "--cutoff", "12"],
    ["massey", "eval", "e1; e1; e1; e2", "--cutoff", "4"],
    ["massey", "eval", "e2; ; e1", "--algebra", "m0"],
] + [
    # the family path, one product per rung (see test_massey.GOLDEN_FAMILY_PRODUCTS)
    ["massey", "eval", text, "--algebra", name, "--cutoff", "12"] for name, text in [
        ("m0", "e1; e2; e1; e2^e3"), ("m0", "e1; e2^e3; e2; e1"),
        ("m0", "e2^e3; e2; e2; e2"), ("L1", "e2; e2; e2; e2"),
        ("m0", "e2; e1; e1; e2^e3"), ("m0", "e1; e1; e2; e2^e3"),
        ("m0", "e2; e2^e3; e1; e1"), ("L1", "e1; e1^e4; e1; e1"),
        ("m0", "e1; e1; e1; e2^e3"), ("L1", "e2; e2; e1; e1^e4"),
        ("m0", "e1; e2; e1+e2; e2^e3"), ("L1", "e1+e2; e1; e1; e1; e1"),
        ("L1", "e1; e1; e1; e1; e1+e2"), ("L1", "e2; e1; e2; e1"),
        ("m0", "e1; e2; e2; e2^e3")]
] + [
    ["check", "goncharova", "--qmax", "0"],
    ["check", "goncharova", "--kmax", "0"],
    ["check", "m0dims", "--qmax", "-1"],
    ["check", "m0dims", "--kmax", "0"],
    ["massey", "eval", "e2; e1; e1; e2", "--samples", "0"],
    ["massey", "eval", "e2; e1; e1; e2", "--budget", "-1"],
    ["betti", "--algebra", "L1", "--q", "-1", "--k", "3"],
    ["betti", "--algebra", "L1", "--q", "1", "--k", "0..-2"],
    ["betti", "--algebra", "L1", "--q", "5..3", "--k", "3"],
    ["betti", "--algebra", "L1", "--q", "1", "--k", "4..2"],
]

# sha256 over [argv, exit code, stdout, stderr] of every command above
GOLDEN_CLI_DIGEST = "930793010959ef9477b1a79029f263f21534ea907851aed3129c05b04a9a0647"


def test_golden_cli_digest(tmp_path, capsys, monkeypatch):
    from gradedlie.algebra import load_preset, write_algebra
    monkeypatch.delenv("GRADEDLIE_CUTOFF", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "alg.txt").write_text(write_algebra(load_preset("L1", 8)))
    (tmp_path / "conn.txt").write_text("connection n=3\n(1,2) = 1*e2\n(1,3) = -1*e3\n"
                                       "(2,3) = 1*e1\n(2,4) = 1*e3\n(3,4) = 1*e2\n")
    assert len(GOLDEN_CLI_COMMANDS) >= 30
    digest = hashlib.sha256()
    for argv in GOLDEN_CLI_COMMANDS:
        code, out, err = run(capsys, *argv)
        digest.update(json.dumps([argv, code, out, err]).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_CLI_DIGEST
