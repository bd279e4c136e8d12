"""Command-line frontend: Smith groups, diagonal forms, verification sweeps,
and plain-text matrix import/export.

Exit codes: 0 on success, 1 when a mathematical precondition or internal
invariant is violated (the message says which), 2 for malformed arguments.

The handlers of oracle, verify, conjecture, export-matrix and bench are in
setsmith.commands, which main() imports only when one of them runs, so
the block-reduction commands start without compiling it, the oracle, the
proof objects or the super-standard construction.  main() builds the
parser of the named command alone, and _resolve_inputs is the one place
where the element flags become (SchemeParams, coeffs, lambda).
"""

from __future__ import annotations

import argparse
import json
import sys

from .exact import ConstructionError, ExactError, IntMatrix, smith_normal_form
from .scheme import (DEFAULT_CAP, SchemeParams, degree, diagonal_form_entries,
                     eigenvalues, ms_matrices, smith_group, unit_coeffs)


def _resolve_inputs(args, parser) -> tuple[SchemeParams, tuple[int, ...], int]:
    """Turn the element flags into (params, coeffs, lam), which main()
    stores as args.element for the command: --n; --k, or both --kr and
    --kc; --ell or --coeffs; --lambda, an integer or 'degree'."""
    if args.k is None and None not in (args.kr, args.kc):
        kr, kc = args.kr, args.kc
    elif args.k is not None and args.kr is None and args.kc is None:
        kr = kc = args.k
    else:
        parser.error("give --k, or both --kr and --kc")
    if (args.ell is None) == (args.coeffs is None):
        parser.error("give one of --ell or --coeffs")
    if args.lam == "degree":
        if args.ell is None or kr != kc:
            parser.error("--lambda degree requires --ell and kr == kc")
        lam = degree(args.n, kr, args.ell)
    else:
        try:
            lam = int(args.lam)
        except ValueError:
            parser.error("--lambda takes an integer or 'degree'")
    if args.ell is not None:
        p = SchemeParams(args.n, kr, kc, args.ell)
        return p, unit_coeffs(p), lam
    p = SchemeParams(args.n, kr, kc, kr)
    try:
        coeffs = tuple(int(tok) for tok in args.coeffs.split(","))
    except ValueError:
        parser.error("--coeffs takes comma-separated integers")
    if len(coeffs) != kr + 1:
        parser.error(f"--coeffs needs {kr + 1} entries b0..b{kr}")
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


def _named(p, coeffs) -> str:
    """How a text header names the matrix: ell=L when it is A_L alone, and
    by its coefficients otherwise."""
    return (f"ell={p.ell}" if coeffs == unit_coeffs(p)
            else f"coeffs={list(coeffs)}")


def cmd_smith_group(args, parser) -> int:
    p, coeffs, lam = args.element
    result = smith_group(p, coeffs, lam)
    if args.json:
        print(json.dumps(_group_json(result)))
    else:
        k = f"k={p.kr}" if p.square else f"kr={p.kr} kc={p.kc}"
        print(f"n={p.n} {k} coeffs={list(coeffs)} lambda={lam}")
        _print_blocks(result)
        print(f"smith group: {result.group}")
    return 0


def cmd_diagonal_form(args, parser) -> int:
    p, coeffs, lam = args.element
    result = smith_group(p, coeffs, lam)
    entries = diagonal_form_entries(result)
    if args.json:
        out = _group_json(result)
        out["diagonal_entries"] = [{"entry": e, "multiplicity": m}
                                   for e, m in entries if m]
        print(json.dumps(out))
    else:
        shift = f" lambda={lam}" if lam else ""
        print(f"n={p.n} kr={p.kr} kc={p.kc} {_named(p, coeffs)}{shift}")
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
    p, coeffs, lam = args.element
    spec: dict[int, int] = {}  # equal ones merged, in order of first appearance
    for e, m in eigenvalues(p, coeffs, lam):
        spec[e] = spec.get(e, 0) + m
    if args.json:
        print(json.dumps([{"eigenvalue": e, "multiplicity": m}
                          for e, m in spec.items()]))
    else:
        print(f"spectrum of A - lambda*I for n={p.n} k={p.kr} "
              f"{_named(p, coeffs)} lambda={lam}")
        for e, m in spec.items():
            print(f"  {e} with multiplicity {m}")
        print(f"total multiplicity: {sum(spec.values())}")
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


# The flags of each command, as (flag, add_argument options) pairs.
_ELEMENT = (("--n", dict(type=int, required=True)),
            ("--k", dict(type=int, help="kr = kc = K, or give --kr and --kc")),
            ("--kr", dict(type=int)), ("--kc", dict(type=int)),
            ("--ell", dict(type=int, help="A_ELL alone, or give --coeffs")),
            ("--coeffs", dict(help="comma-separated b0,..,bkr")),
            ("--lambda", dict(dest="lam", default="0",
                              help="integer shift, or 'degree'")))
_JSON = (("--json", dict(action="store_true")),)
_CAP = (("--cap", dict(type=positive_int, default=DEFAULT_CAP)),)

# command -> (help, handler, flags); a handler named by a string is in
# setsmith.commands
_COMMANDS = {
    "smith-group": ("Smith group via the small-block reduction",
                    cmd_smith_group, _ELEMENT + _JSON),
    "diagonal-form": ("diagonal form of a (possibly non-square) "
                      "intersection matrix", cmd_diagonal_form,
                      _ELEMENT + _JSON),
    "ms": ("print the reduced blocks M_s", cmd_ms, _ELEMENT),
    "eigenvalues": ("spectrum with multiplicities", cmd_eigenvalues,
                    _ELEMENT + _JSON),
    "oracle": ("brute-force group and agreement flag", "cmd_oracle",
               _ELEMENT + _JSON + _CAP),
    "verify": ("closed-form verification sweep", "cmd_verify",
               (("--theorem", dict(required=True)),
                ("--n-from", dict(type=int, required=True)),
                ("--n-to", dict(type=int, required=True))) + _CAP + _JSON),
    "conjecture": ("sweep the stacked-matrix unimodularity conjecture",
                   "cmd_conjecture",
                   (("--n-min", dict(type=int, default=1)),
                    ("--n-max", dict(type=int, required=True)),
                    ("--k-max", dict(type=int, required=True)),
                    ("--log", dict(help="write machine-readable JSONL to "
                                        "this file"))) + _JSON),
    # --which A reads the element flags; the other kinds --k, --i, --j, --s
    "export-matrix": ("write a matrix as plain text", "cmd_export_matrix",
                      (("--which", dict(required=True, choices=[
                          "A", "P", "W", "E", "Ptilde"])),) + _ELEMENT
                      + tuple((flag, dict(type=int))
                              for flag in ("--i", "--j", "--s"))
                      + (("--out", {}),)),
    "snf": ("Smith normal form of a plain-text matrix", cmd_snf,
            (("--in", dict(dest="infile", required=True)),) + _JSON),
    "bench": ("time the block reduction against the dense SNF", "cmd_bench",
              _ELEMENT + (("--repeats", dict(type=positive_int, default=1)),)
              + _CAP),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the one named (all that main()
    needs, and a seventh of the time)."""
    parser = argparse.ArgumentParser(
        prog="setsmith",
        description="Smith groups and diagonal forms of subset intersection "
                    "matrices, exactly.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, handler, flags) in _COMMANDS.items():
        if command in (None, name):
            sp = sub.add_parser(name, help=text)
            for flag, options in flags:
                sp.add_argument(flag, **options)
            sp.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    # exact integers of any size are read and printed: lift the limit on
    # int/str conversion (4300 digits by default) where the interpreter has it
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    # a known command builds its parser alone; anything else (--help, no
    # command, an unknown one) builds them all, so the usage lists them all
    first = next(iter(sys.argv[1:] if argv is None else argv), None)
    parser = build_parser(first if first in _COMMANDS else None)
    args = parser.parse_args(argv)
    handler = args.func
    if isinstance(handler, str):  # one of setsmith.commands, loaded now
        from . import commands
        handler = getattr(commands, handler)
    try:
        # the element commands, and export-matrix --which A
        if hasattr(args, "coeffs") and getattr(args, "which", "A") == "A":
            args.element = _resolve_inputs(args, parser)
        return handler(args, parser)
    except (ExactError, ConstructionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
