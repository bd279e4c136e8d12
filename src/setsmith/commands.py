"""The command-line handlers that need the dense oracle, the proof
objects or the super-standard construction: oracle, verify, conjecture,
export-matrix and bench.  setsmith.cli imports this module only when one of
these commands runs, so the block commands start without compiling it, and
each handler imports what it computes with when it runs.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext

from .scheme import in_range, smith_group


def cmd_oracle(args, parser) -> int:
    from .oracle import brute_force_group
    p, coeffs, lam = args.element
    group = brute_force_group(p, coeffs, lam, cap=args.cap)
    structured = None
    agree = None
    if in_range(p.n, p.kc):
        structured = smith_group(p, coeffs, lam).group
        agree = structured == group
    if args.json:
        print(json.dumps({
            "params": p._asdict(),
            "coeffs": list(coeffs), "lambda": lam,
            "oracle": group.to_json_dict(),
            "structured": structured.to_json_dict() if structured else None,
            "agree": agree}))
    else:
        print(f"brute-force group: {group}")
        if structured is None:
            print("structured pipeline skipped: n < 3*kc - 1")
        else:
            print(f"structured group:  {structured}")
            print(f"agreement: {agree}")
    return 0 if agree in (True, None) else 1


def cmd_verify(args, parser) -> int:
    from .oracle import THEOREMS, verify_closed_form
    cf = THEOREMS.get(args.theorem)
    if cf is None:
        parser.error(f"unknown theorem {args.theorem!r}; "
                     f"known: {', '.join(sorted(THEOREMS))}")
    if args.n_from < cf.min_n:
        parser.error(f"{args.theorem} requires n >= {cf.min_n}")
    if args.n_to < args.n_from:
        parser.error("--n-to must be >= --n-from")
    reports = [verify_closed_form(args.theorem, n, cap=args.cap)
               for n in range(args.n_from, args.n_to + 1)]
    ok = True
    for rep in reports:
        ok = ok and rep.all_agree
        if args.json:
            print(json.dumps(rep.to_json_dict()))
        else:
            status = "ok" if rep.all_agree else "MISMATCH"
            notes = []
            if rep.structured is None:
                notes.append("oracle-only")
            if rep.oracle is None:
                notes.append("oracle skipped")
            note = f" ({', '.join(notes)})" if notes else ""
            group = rep.structured if rep.structured is not None else rep.closed_form
            print(f"{args.theorem} n={rep.n}: {status}{note} group {group}")
    if not ok:
        print("closed-form verification failed", file=sys.stderr)
        return 1
    return 0


def cmd_conjecture(args, parser) -> int:
    from .superstandard import check_conjecture
    triples = [(n, i, j)
               for n in range(args.n_min, args.n_max + 1)
               for j in range(0, args.k_max + 1) if in_range(n, j)
               for i in range(0, j + 1)]
    if not triples:
        parser.error("the sweep holds no case: it needs --n-max >= --n-min, "
                     "--k-max >= 0 and n >= 3k - 1 for some n and k in it")
    # the log opens before the first check, so that a path it cannot be
    # written to fails at once, not after the sweep
    with (open(args.log, "w", encoding="utf-8") if args.log
          else nullcontext()) as log:
        reports = [check_conjecture(*t) for t in triples]
        all_hold = True
        for rep in reports:
            all_hold = all_hold and rep.holds
            line = json.dumps(rep.to_json_dict())
            if log:
                log.write(line + "\n")
            if args.json:
                print(line)
            else:
                print(f"n={rep.n} i={rep.i} j={rep.j}: "
                      f"{'holds' if rep.holds else 'FAILS'} "
                      f"(rank {rep.rank}, index {rep.index})")
    # with --json, stdout holds only the records (JSON Lines)
    print(f"checked {len(reports)} cases; "
          f"{'all hold' if all_hold else 'FAILURES found'}",
          file=sys.stderr if args.json else sys.stdout)
    return 0 if all_hold else 1


def cmd_export_matrix(args, parser) -> int:
    from .oracle import scheme_element_matrix
    from .proof import bier_p, e_matrices, w_matrix
    which = args.which
    need = {"P": ("k",), "W": ("i", "j"), "E": ("s",), "Ptilde": ("i", "j")}
    for flag in need.get(which, ()):
        if getattr(args, flag) is None:
            parser.error(f"export-matrix --which {which} requires --{flag}")
    if which == "A":  # main() resolved the element flags
        m = scheme_element_matrix(*args.element)
    elif which == "P":
        m = bier_p(args.n, args.k)
    elif which == "W":
        m = w_matrix(args.n, args.i, args.j)
    elif which == "E":
        m = e_matrices(args.n, args.s)[args.s]
    else:
        from .superstandard import p_tilde
        m = p_tilde(args.n, args.i, args.j)
    text = m.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {m.rows}x{m.cols} matrix to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_bench(args, parser) -> int:
    from .oracle import bench
    p, coeffs, lam = args.element
    report = bench(p, coeffs, lam, repeats=args.repeats, cap=args.cap)
    print(json.dumps(report.to_json_dict()))
    return 0
