"""Command-line front end.

    gradedlie betti  --algebra {m0|L1|file} --q A..B --k A..B [--cutoff N]
    gradedlie check  {goncharova|m0dims|identities|gr} [--cutoff N] ...
    gradedlie massey {eval|verify|classify} PAYLOAD --algebra ... [options]

Exit codes: 0 success (including NotDefined / Undecided results), 1 internal
check failure, 2 bad input or insufficient cutoff.  The default cutoff can be
set through the GRADEDLIE_CUTOFF environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import cohomology as coh
from . import massey as ms
from .algebra import associated_graded, load_preset, m0_normal_form, parse_algebra
from .checks import bianchi_suite, d_operator_suite
from .errors import (AlgebraFormatError, CutoffTooSmall, GradedLieError,
                     InternalCheckFailed, InvalidCutoff, MasseyNotDefined, UsageError)
from .forms import render_form


def _int(text, what):
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {text!r}") from None


def _parse_range(text, what):
    """Values of 'A' or 'A..B', nonnegative and with A <= B; '' gives none."""
    if not text:
        return []
    lo, sep, hi = text.partition("..")
    lo = _at_least(_int(lo, what), 0, what)
    hi = _at_least(_int(hi, what), 0, what) if sep else lo
    if lo > hi:
        raise UsageError(f"{what} range {text} is empty")
    return list(range(lo, hi + 1))


def _at_least(value, lowest, what):
    """value unchanged (None included) unless it is below lowest."""
    if value is not None and value < lowest:
        raise UsageError(f"{what} must be at least {lowest}, got {value}")
    return value


def _env_cutoff():
    env = os.environ.get("GRADEDLIE_CUTOFF")
    return _int(env, "GRADEDLIE_CUTOFF") if env else None


def _read_text(path):
    """Contents of a UTF-8 text file; an unreadable file is bad input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path!r} is not UTF-8 text: {exc}") from None


def _load_algebra(source, cutoff):
    if source in ("m0", "L1"):
        return load_preset(source, cutoff)
    if cutoff < 2:
        raise InvalidCutoff(f"cutoff must be >= 2, got {cutoff}")
    g = parse_algebra(_read_text(source))
    if g.cutoff < cutoff:
        raise CutoffTooSmall(cutoff, g.cutoff, "algebra file")
    return g


def _default_cutoff(args, needed):
    if args.cutoff is not None:
        return args.cutoff
    env = _env_cutoff()
    return needed if env is None else env


def cmd_betti(args):
    ks = _parse_range(args.k, "--k")
    qs = _parse_range(args.q, "--q")
    g = _load_algebra(args.algebra, _default_cutoff(args, max([*ks, 2])))
    rows = [(q, k, coh.betti(g, q, k)) for q in qs for k in ks]
    if args.format == "json":
        print(json.dumps({"algebra": args.algebra, "cutoff": g.cutoff,
                          "rows": [{"q": q, "k": k, "dim": d} for q, k, d in rows]},
                         indent=2, sort_keys=True))
    elif args.format == "csv":
        print("q,k,dim")
        for q, k, d in rows:
            print(f"{q},{k},{d}")
    else:
        print(f"{'q':>3} {'k':>4} {'dim':>4}")
        for q, k, d in rows:
            print(f"{q:>3} {k:>4} {d:>4}")
    return 0


def _print_report(report, fmt):
    if fmt == "json":
        print(report.to_json())
    elif fmt == "csv":
        print(report.to_csv(), end="")
    else:
        print(report.to_table())
    return 0 if report.ok else 1


def _identity_report(seed):
    """D-operator and Maurer-Cartan identity suites as a pass/fail report."""
    rows = []
    ok1, detail1 = d_operator_suite(samples=120, max_weight=14, seed=seed)
    rows.append(("d-operators", ok1, detail1))
    ok2, detail2 = bianchi_suite(samples=60, seed=seed)
    rows.append(("maurer-cartan", ok2, detail2))
    return rows


def cmd_check(args):
    fmt = args.format
    qmax = _at_least(args.qmax, 1, "--qmax")
    kmax = _at_least(args.kmax, 1, "--kmax")
    if args.which == "goncharova":
        qmax = 3 if qmax is None else qmax
        kmax = _default_cutoff(args, (3 * qmax * qmax + qmax) // 2) if kmax is None else kmax
        return _print_report(coh.check_goncharova(qmax, kmax), fmt)
    if args.which == "m0dims":
        qmax = 4 if qmax is None else qmax
        kmax = _default_cutoff(args, 20) if kmax is None else kmax
        return _print_report(coh.check_m0_dimensions(qmax, kmax), fmt)
    if args.which == "identities":
        if args.cutoff is not None:
            raise UsageError("check identities takes no --cutoff: its suites fix their algebras")
        rows = _identity_report(args.seed)
        ok = all(r[1] for r in rows)
        if fmt == "json":
            print(json.dumps({"report": "identities", "ok": ok,
                              "rows": [{"suite": n, "ok": o, "detail": d}
                                       for n, o, d in rows]}, indent=2, sort_keys=True))
        else:
            for name, o, detail in rows:
                print(f"{name}: {'pass' if o else 'FAIL'} ({detail})")
        return 0 if ok else 1
    if args.which == "gr":
        cutoff = _at_least(_default_cutoff(args, 12), 3, "--cutoff")
        results = []
        for w in range(3, cutoff + 1):
            L1 = load_preset("L1", w)
            gr = associated_graded(L1)
            witness = m0_normal_form(gr)
            h1 = coh.betti(L1, 1, 1) + coh.betti(L1, 1, 2)
            h1gr = sum(coh.betti(gr, 1, k) for k in range(1, gr.cutoff + 1))
            results.append((w, bool(witness), h1 == 2 and h1gr == 2))
        ok = all(w and h for _, w, h in results)
        if fmt == "json":
            print(json.dumps({"report": "gr", "ok": ok,
                              "rows": [{"cutoff": w, "normal_form": nf, "h1_match": h}
                                       for w, nf, h in results]}, indent=2, sort_keys=True))
        else:
            for w, nf, h in results:
                print(f"cutoff {w}: normal form {'ok' if nf else 'FAIL'}, "
                      f"H1 {'ok' if h else 'FAIL'}")
        return 0 if ok else 1
    raise AlgebraFormatError(0, f"unknown check {args.which!r}")


def cmd_massey(args):
    sub = args.massey_cmd
    if sub == "classify":
        g = _load_algebra(args.algebra, _default_cutoff(args, 8))
        classes = ms.parse_product(g, args.payload)
        pairs = ms.pairs_of_one_classes(classes)
        if pairs is None:
            raise AlgebraFormatError(0, "classification needs classes in span(e1, e2)")
        tag = ms.classify_trivial_ones(pairs)
        print(json.dumps({"status": str(tag), **tag.to_json_dict()},
                         indent=2, sort_keys=True))
        return 0
    if sub == "verify":
        text = _read_text(args.payload)
        g = _load_algebra(args.algebra, _default_cutoff(args, 12))
        matrix = ms.parse_connection(g, text)
        ok, tau = ms.is_formal_connection(matrix)
        out = {"formal_connection": ok, "corner_residual": render_form(tau)}
        if ok and matrix.corner().is_zero():
            system = ms.DefiningSystem(matrix)
            cocycle = ms.related_cocycle(system)
            out["related_cocycle"] = render_form(cocycle)
            out["related_class"] = ms.value_class_of(g, cocycle).to_json_dict()
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0
    # eval
    _at_least(args.samples, 1, "--samples")
    _at_least(args.budget, 0, "--budget")
    cutoff = args.cutoff if args.cutoff is not None else _env_cutoff()
    if cutoff is None and args.algebra in ("m0", "L1"):
        # a preset's generator e<i> has weight i; a probe that holds every
        # generator of the payload gives the product's total weight
        indices = [int(i) for i in re.findall(r"e\s*(\d+)", args.payload)]
        classes = ms.parse_product(load_preset(args.algebra, max([2, *indices])), args.payload)
        cutoff = max(sum(max(c.weights(), default=0) for c in classes), len(classes) + 2)
    g = _load_algebra(args.algebra, 2 if cutoff is None else cutoff)
    classes = ms.parse_product(g, args.payload)
    try:
        result = ms.evaluate_product(g, classes, budget=args.budget,
                                     samples=args.samples, seed=args.seed)
        payload = result.to_json_dict()
    except MasseyNotDefined as exc:
        payload = {"status": "NotDefined", "detail": str(exc)}
    payload["seed"] = args.seed
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="gradedlie",
                                     description="Exact cohomology and Massey "
                                                 "products of N-graded Lie algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p_betti = sub.add_parser("betti", help="dimension table of H^q_k")
    p_betti.add_argument("--algebra", required=True, help="m0, L1 or a file path")
    p_betti.add_argument("--cutoff", type=int)
    p_betti.add_argument("--q", required=True, help="degree or range A..B")
    p_betti.add_argument("--k", required=True, help="weight or range A..B")
    p_betti.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p_betti.set_defaults(func=cmd_betti)

    p_check = sub.add_parser("check", help="verification oracles")
    p_check.add_argument("which", choices=("goncharova", "m0dims", "identities", "gr"))
    p_check.add_argument("--cutoff", type=int)
    p_check.add_argument("--qmax", type=int)
    p_check.add_argument("--kmax", type=int)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p_check.set_defaults(func=cmd_check)

    p_massey = sub.add_parser("massey", help="Massey product evaluation")
    p_massey.add_argument("massey_cmd", choices=("eval", "verify", "classify"))
    p_massey.add_argument("payload", help="product expression 'e2; e1; e2' or matrix file")
    p_massey.add_argument("--algebra", default="m0")
    p_massey.add_argument("--cutoff", type=int)
    p_massey.add_argument("--seed", type=int, default=0)
    p_massey.add_argument("--budget", type=int, default=2000)
    p_massey.add_argument("--samples", type=int, default=100)
    p_massey.set_defaults(func=cmd_massey)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalCheckFailed as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 1
    except GradedLieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
