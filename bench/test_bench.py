"""Tests of the benchmark itself:  python3 -m pytest bench/test_bench.py -q

Each oracle must flag a deliberately wrong answer, the tracer must see every
call that cProfile sees, a passed deadline must surface as unfinished ops,
and BENCHMARK.json must name exactly the metrics the runner emits.
"""

import cProfile
import json
import os
import pstats
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from gradedlie import algebra, massey  # noqa: E402
from gradedlie.forms import Form  # noqa: E402


def test_betti_oracle_flags_wrong_dimension():
    assert oracles.check_betti("L1", 2, 7, 1) == []
    assert oracles.check_betti("L1", 2, 7, 0)
    assert oracles.check_betti("m0", 2, 5, 1) == []       # omega(e2^e3)
    assert oracles.check_betti("m0", 2, 5, 2)
    assert oracles.check_betti("m0", 1, 3, 1)


def test_triple_oracle_flags_flipped_verdict():
    trivial = ((1, 0), (1, 0), (1, 0))
    nontrivial = ((0, 1), (1, 0), (0, 1))
    assert oracles.check_triple(trivial, "TrivialWitness") == []
    assert oracles.check_triple(trivial, "NonTrivialCertified")
    assert oracles.check_triple(nontrivial, "NonTrivialCertified") == []
    assert oracles.check_triple(nontrivial, "TrivialWitness")


def _classes(g, pairs):
    return [a * Form.generator(g, 1) + b * Form.generator(g, 2) for a, b in pairs]


def test_certificate_recheck_flags_broken_witness_and_zero_value():
    g = algebra.load_preset("m0", 8)
    res = massey.triple_product(g, *_classes(g, ((1, 0), (1, 0), (1, 0))))
    assert res.status == "TrivialWitness"
    assert oracles.check_result(g, res) == []
    rows = [list(r) for r in res.witness.matrix.rows]
    rows[0][2] = rows[0][2] + Form.generator(g, 3)
    broken = massey.DefiningSystem(massey.ConnectionMatrix(g, 3, rows), verify=False)
    assert oracles.check_result(g, massey.MasseyResult("TrivialWitness", witness=broken))

    res = massey.triple_product(g, *_classes(g, ((0, 1), (1, 0), (0, 1))))
    assert res.status == "NonTrivialCertified"
    assert oracles.check_result(g, res) == []
    zero = massey.MasseyResult("NonTrivialCertified", value=massey.ValueClass(2, ()))
    assert oracles.check_result(g, zero)


def test_classification_oracle_flags_disagreement():
    trivial = [(1, 0), (1, 0), (1, 0), (1, 0)]
    assert oracles.check_classification(trivial, "TrivialWitness") == []
    assert oracles.check_classification(trivial, "NonTrivialCertified")
    assert oracles.check_classification(trivial, "NotDefined")
    undefined = [(0, 1), (1, 0), (0, 1), (1, 0)]
    assert oracles.check_classification(undefined, "NotDefined") == []
    assert oracles.check_classification(undefined, "TrivialWitness")


def test_leading_coefficient_oracle_flags_wrong_certificate():
    good = {"kind": "leading-coefficient", "coefficient": "-1", "samples": 100}
    assert oracles.check_certificate(good, 3, 100) == []
    assert oracles.check_certificate(dict(good, coefficient="1"), 3, 100)
    assert oracles.check_certificate(dict(good, samples=5), 3, 100)
    assert oracles.check_certificate(None, 3, 100)


def _profiled_counts():
    """Run small op lists of every workload with the tracer installed and
    cProfile on; return {layer: (wrapper-seen calls, cProfile calls)}."""
    t = tracer.Tracer()
    t.install()
    import workloads

    profile = cProfile.Profile()
    for name in run.WORKLOADS:
        profile.enable()
        t.active = True
        algebras = workloads.load_algebras(name)
        t.active = False
        profile.disable()
        if name == "betti-sweep":
            ops = [workloads._betti_op(algebras[("L1", 26)], "L1", q, k)
                   for q in (1, 2, 3) for k in range(1, 13)]
            ops += [workloads._betti_op(algebras[("m0", 24)], "m0", q, k)
                    for q in (2, 3) for k in range(1, 13)]
        else:
            ops = workloads.build(name, 7, algebras)
            ops = ops[:25] + [op for op in ops[25:] if op.label.startswith("certificate i1=2")]
        for op in ops:
            profile.enable()
            t.active = True
            try:
                op.run()
            except Exception:  # refusals and undefined products are part of the list
                pass
            t.active = False
            profile.disable()
    stats = pstats.Stats(profile).stats
    by_code = {}
    for (filename, line, func), (_cc, nc, *_rest) in stats.items():
        by_code[(filename, line, func)] = by_code.get((filename, line, func), 0) + nc
    out = {}
    for name, original in t.originals.items():
        code = getattr(original, "__wrapped__", original).__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        rec = t.records[name]
        seen = rec.misses if name in tracer.CACHED else rec.calls
        out[name] = (seen, by_code.get(key, 0))
    return out


def test_wrappers_see_every_call():
    proc = subprocess.run([sys.executable, __file__, "profile"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    mismatched = {n: c for n, c in counts.items() if c[0] != c[1]}
    assert not mismatched
    # Dm1 has no caller on these op lists; every other layer must be reached
    assert all(seen > 0 for n, (seen, _) in counts.items() if n != "mzero.Dm1")


def test_deadline_reports_unfinished_ops():
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", "betti-sweep",
           "--seed", "1", "--mode", "plain", "--spawned-at",
           repr(time.clock_gettime(time.CLOCK_MONOTONIC)), "--deadline", "0.5"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["finished"] < report["ops"]
    assert report["errors"] >= report["ops"] - report["finished"]
    assert "deadline" in report["problems"][-1]


def test_benchmark_json_names_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == tracer.layer_names()
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])


if __name__ == "__main__" and sys.argv[1:] == ["profile"]:
    print(json.dumps(_profiled_counts()))
