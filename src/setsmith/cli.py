"""Command-line frontend: Smith groups, diagonal forms, verification sweeps,
and plain-text matrix import/export.

Exit codes: 0 on success, 1 when a mathematical precondition or internal
invariant is violated (the message says which), 2 for malformed arguments.

The handlers of oracle, verify, conjecture, export-matrix and bench are in
setsmith.commands, which main() imports only when one of them runs, so
the block-reduction commands start without compiling it, the oracle, the
proof objects or the super-standard construction.
"""

from __future__ import annotations

import argparse
import json
import sys

from .exact import ConstructionError, ExactError, IntMatrix, smith_normal_form
from .scheme import (DEFAULT_CAP, SchemeParams, degree, diagonal_form_entries,
                     eigenvalues, ms_matrices, smith_group, unit_coeffs)


def _parse_lambda(args, parser) -> int:
    """The --lambda flag: an integer, or 'degree' (which needs --ell)."""
    if args.lam == "degree":
        if args.ell is None:
            parser.error("--lambda degree requires --ell")
        return degree(args.n, args.k, args.ell)
    try:
        return int(args.lam)
    except ValueError:
        parser.error("--lambda takes an integer or 'degree'")


def _resolve_inputs(args, parser) -> tuple[SchemeParams, tuple[int, ...], int]:
    """Turn --ell/--coeffs/--lambda flags into (params, coeffs, lam), which
    main() stores as args.element for the command."""
    n, k = args.n, args.k
    if args.coeffs is not None and args.ell is not None:
        parser.error("--ell and --coeffs are mutually exclusive")
    if args.coeffs is None and args.ell is None:
        parser.error("one of --ell or --coeffs is required")
    lam = _parse_lambda(args, parser)
    if args.ell is not None:
        p = SchemeParams(n, k, k, args.ell)
        coeffs = unit_coeffs(p)
    else:
        try:
            coeffs = tuple(int(tok) for tok in args.coeffs.split(","))
        except ValueError:
            parser.error("--coeffs takes comma-separated integers")
        if len(coeffs) != k + 1:
            parser.error(f"--coeffs needs {k + 1} entries b0..b{k}")
        p = SchemeParams(n, k, k, k)
    return p, coeffs, lam


def positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _group_json(result) -> dict:
    return {
        "params": result.params._asdict(),
        "coeffs": list(result.coeffs),
        "lambda": result.lam,
        "group": result.group.to_json_dict(),
        "blocks": [{"s": b.s, "multiplicity": b.multiplicity,
                    "delta": list(b.delta), "rank": b.rank}
                   for b in result.blocks],
    }


def _print_blocks(result) -> None:
    for b in result.blocks:
        delta = ", ".join(str(d) for d in b.delta)
        print(f"block s={b.s}: size {b.matrix.rows}x{b.matrix.cols}, "
              f"multiplicity {b.multiplicity}, diagonal form [{delta}]")


def cmd_smith_group(args, parser) -> int:
    p, coeffs, lam = args.element
    result = smith_group(p, coeffs, lam)
    if args.json:
        print(json.dumps(_group_json(result)))
    else:
        print(f"n={p.n} k={p.kr} coeffs={list(coeffs)} lambda={lam}")
        _print_blocks(result)
        print(f"smith group: {result.group}")
    return 0


def cmd_diagonal_form(args, parser) -> int:
    p = SchemeParams(args.n, args.kr, args.kc, args.ell)
    result = smith_group(p)
    entries = diagonal_form_entries(result)
    if args.json:
        out = _group_json(result)
        out["diagonal_entries"] = [{"entry": e, "multiplicity": m}
                                   for e, m in entries if m]
        print(json.dumps(out))
    else:
        print(f"n={p.n} kr={p.kr} kc={p.kc} ell={p.ell}")
        print("diagonal form entries (entry x multiplicity):")
        for e, m in entries:
            if m:
                print(f"  {e} x {m}")
        print(f"smith group: {result.group}")
    return 0


def cmd_ms(args, parser) -> int:
    p, coeffs, lam = args.element
    for m in ms_matrices(p, coeffs, lam):
        print(f"M_{m.s} (multiplicity {m.multiplicity}):")
        print(m.entries.pretty())
    return 0


def cmd_eigenvalues(args, parser) -> int:
    lam = _parse_lambda(args, parser)
    p = SchemeParams(args.n, args.k, args.k, args.ell)
    spec = eigenvalues(p, lam=lam)
    if args.json:
        print(json.dumps([s._asdict() for s in spec]))
    else:
        print(f"spectrum of A - lambda*I for n={args.n} k={args.k} "
              f"ell={args.ell} lambda={lam}")
        for s in spec:
            print(f"  {s.eigenvalue} with multiplicity {s.multiplicity}")
        print(f"total multiplicity: {sum(s.multiplicity for s in spec)}")
    return 0


def cmd_snf(args, parser) -> int:
    with open(args.infile, "r", encoding="utf-8") as fh:
        m = IntMatrix.from_text(fh.read())
    snf = smith_normal_form(m)
    if args.json:
        print(json.dumps({"rows": m.rows, "cols": m.cols,
                          "invariant_factors": list(snf.invariant_factors),
                          "rank": snf.rank}))
    else:
        factors = ",".join(str(d) for d in snf.invariant_factors)
        print(f"{m.rows}x{m.cols} matrix: rank {snf.rank}, "
              f"invariant factors {factors if factors else '(none)'}")
    return 0


def _add_common_element_flags(sp, with_json=True):
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--ell", type=int, default=None)
    sp.add_argument("--coeffs", type=str, default=None,
                    help="comma-separated b0,..,bk")
    sp.add_argument("--lambda", dest="lam", default="0",
                    help="integer shift, or 'degree'")
    if with_json:
        sp.add_argument("--json", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setsmith",
        description="Smith groups and diagonal forms of subset intersection "
                    "matrices, exactly.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("smith-group",
                        help="Smith group via the small-block reduction")
    _add_common_element_flags(sp)
    sp.set_defaults(func=cmd_smith_group)

    sp = sub.add_parser("diagonal-form",
                        help="diagonal form of a (possibly non-square) "
                             "intersection matrix")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--kr", type=int, required=True)
    sp.add_argument("--kc", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_diagonal_form)

    sp = sub.add_parser("ms", help="print the reduced blocks M_s")
    _add_common_element_flags(sp, with_json=False)
    sp.set_defaults(func=cmd_ms)

    sp = sub.add_parser("eigenvalues", help="spectrum with multiplicities")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", default="0",
                    help="integer shift, or 'degree'")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_eigenvalues)

    sp = sub.add_parser("oracle", help="brute-force group and agreement flag")
    _add_common_element_flags(sp)
    sp.add_argument("--cap", type=positive_int, default=DEFAULT_CAP)
    sp.set_defaults(func="cmd_oracle")

    sp = sub.add_parser("verify", help="closed-form verification sweep")
    sp.add_argument("--theorem", required=True)
    sp.add_argument("--n-from", type=int, required=True)
    sp.add_argument("--n-to", type=int, required=True)
    sp.add_argument("--cap", type=positive_int, default=DEFAULT_CAP)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func="cmd_verify")

    sp = sub.add_parser("conjecture",
                        help="sweep the stacked-matrix unimodularity conjecture")
    sp.add_argument("--n-min", type=int, default=1)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--k-max", type=int, required=True)
    sp.add_argument("--log", type=str, default=None,
                    help="write machine-readable JSONL to this file")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func="cmd_conjecture")

    sp = sub.add_parser("export-matrix", help="write a matrix as plain text")
    sp.add_argument("--which", required=True,
                    choices=["A", "P", "W", "E", "Ptilde"])
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--kr", type=int, default=None)
    sp.add_argument("--kc", type=int, default=None)
    sp.add_argument("--ell", type=int, default=None)
    sp.add_argument("--i", type=int, default=None)
    sp.add_argument("--j", type=int, default=None)
    sp.add_argument("--s", type=int, default=None)
    sp.add_argument("--out", type=str, default=None)
    sp.set_defaults(func="cmd_export_matrix")

    sp = sub.add_parser("snf", help="Smith normal form of a plain-text matrix")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_snf)

    sp = sub.add_parser("bench",
                        help="time the block reduction against the dense SNF")
    _add_common_element_flags(sp, with_json=False)
    sp.add_argument("--repeats", type=positive_int, default=1)
    sp.add_argument("--cap", type=positive_int, default=DEFAULT_CAP)
    sp.set_defaults(func="cmd_bench")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = args.func
    if isinstance(handler, str):  # one of setsmith.commands, loaded now
        from . import commands
        handler = getattr(commands, handler)
    try:
        if hasattr(args, "coeffs"):  # the flags of _add_common_element_flags
            args.element = _resolve_inputs(args, parser)
        return handler(args, parser)
    except (ExactError, ConstructionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
