import json
import os
import subprocess
import sys
import time
from math import comb, prod
from pathlib import Path

import pytest

from setsmith.cli import build_parser, main
from setsmith.exact import (AbelianGroup, IntMatrix, group_from_diagonal,
                            smith_normal_form)
from setsmith.oracle import brute_force_group
from setsmith.scheme import SchemeParams, smith_group


def _limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_smith_group_published_example(capsys):
    code, out, _ = run(capsys, "smith-group", "--n", "12", "--k", "3",
                       "--coeffs", "0,1,3,0", "--lambda", "0")
    assert code == 0
    want = group_from_diagonal([(3, 2), (14364, 1), (2, 10), (342, 10),
                                (12, 43), (6, 100)])
    assert f"smith group: {want}" in out
    assert "multiplicity 100" in out


def test_smith_group_json_roundtrip(capsys):
    code, out, _ = run(capsys, "smith-group", "--n", "12", "--k", "3",
                       "--ell", "2", "--lambda", "degree", "--json")
    assert code == 0
    payload = json.loads(out)
    g = AbelianGroup.from_json_dict(payload["group"])
    assert g.to_json_dict() == payload["group"]
    assert payload["lambda"] == 27


def test_output_is_deterministic(capsys):
    args = ("smith-group", "--n", "10", "--k", "3", "--ell", "1",
            "--lambda", "2", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_json_refuses_groups_too_large_to_list(capsys):
    # C(2000, 4) vertices: the text output prints runs, while JSON would
    # list about 6.6e11 invariant factors, so it refuses
    args = ("smith-group", "--n", "2000", "--k", "4", "--ell", "3",
            "--lambda", "degree")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert "(Z/7988)^662007830499" in out
    code, out, err = run(capsys, *args, "--json")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "invariant factors" in err


def test_export_refuses_oversized_matrices(capsys):
    # each would have more than DEFAULT_CAP rows or columns; the refusal
    # comes before any subset is enumerated
    cases = [("A", "--n", "1000", "--kr", "3", "--kc", "3", "--ell", "1"),
             ("W", "--n", "1000", "--i", "2", "--j", "3"),
             ("E", "--n", "20", "--s", "5")]
    for which, *flags in cases:
        t0 = time.perf_counter()
        code, out, err = run(capsys, "export-matrix", "--which", which, *flags)
        assert time.perf_counter() - t0 < 1
        assert code == 1 and out == ""
        assert err.startswith("error:") and "above the cap of 3000" in err


def test_export_ptilde_refuses_oversized_matrices(capsys):
    # super-standard subsets are standard, so the C(1000, 3) standard
    # subsets of size <= 3 bound the rows; the refusal comes before any
    # subset is enumerated
    t0 = time.perf_counter()
    code, out, err = run(capsys, "export-matrix", "--which", "Ptilde",
                         "--n", "1000", "--i", "3", "--j", "0")
    assert time.perf_counter() - t0 < 1
    assert code == 1 and out == ""
    assert err.startswith("error:") and "above the cap of 3000" in err
    code, out, err = run(capsys, "export-matrix", "--which", "Ptilde",
                         "--n", "7", "--i", "2", "--j", "2")
    assert code == 0 and out.startswith("14 14\n")


def test_ms_prints_blocks(capsys):
    code, out, _ = run(capsys, "ms", "--n", "12", "--k", "3",
                       "--coeffs", "0,1,3,0", "--lambda", "0")
    assert code == 0
    assert "M_0 (multiplicity 1):" in out
    assert "189  33   3   0" in out
    assert "M_3 (multiplicity 100):" in out


def test_eigenvalues_command(capsys):
    code, out, _ = run(capsys, "eigenvalues", "--n", "12", "--k", "3",
                       "--ell", "2", "--lambda", "degree")
    assert code == 0
    assert "-30 with multiplicity 154" in out
    assert "total multiplicity: 220" in out
    code, out, _ = run(capsys, "eigenvalues", "--n", "12", "--k", "3",
                       "--ell", "2", "--lambda", "degree", "--json")
    assert code == 0
    assert json.loads(out) == [
        {"eigenvalue": e, "multiplicity": m}
        for e, m in [(0, 1), (-12, 11), (-22, 54), (-30, 154)]]


def test_eigenvalues_command_merges_equal_eigenvalues(capsys):
    # blocks 1 and 2 share the eigenvalue 9 (multiplicities 8 and 27)
    argv = ["eigenvalues", "--n", "9", "--k", "3", "--coeffs", "1,0,2,3",
            "--lambda", "2"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[1:] == ["  57 with multiplicity 1",
                                    "  9 with multiplicity 35",
                                    "  -6 with multiplicity 48",
                                    "total multiplicity: 84"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out) == [
        {"eigenvalue": e, "multiplicity": m}
        for e, m in [(57, 1), (9, 35), (-6, 48)]]


def test_diagonal_form_command(capsys):
    code, out, _ = run(capsys, "diagonal-form", "--n", "9", "--kr", "2",
                       "--kc", "3", "--ell", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["group"]["free_rank"] == 48
    assert {"entry": 18, "multiplicity": 1} in payload["diagonal_entries"]
    code, out, _ = run(capsys, "diagonal-form", "--n", "9", "--kr", "2",
                       "--kc", "3", "--ell", "1")
    assert code == 0
    assert "  18 x 1\n" in out and "  2 x 19\n" in out
    assert out.endswith("smith group: (Z/2)^19 + (Z/6)^8 + Z/18 + Z^48\n")


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "8", "--k", "2",
                       "--ell", "1", "--lambda", "degree")
    assert code == 0
    assert "agreement: True" in out
    # the keys a cold start of `oracle --json` is read by
    code, out, _ = run(capsys, "oracle", "--n", "8", "--k", "2",
                       "--ell", "1", "--lambda", "degree", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["oracle"] == payload["structured"]
    assert payload["oracle"]["free_rank"] == 1
    # below n = 3*kc - 1 only the dense arm runs
    code, out, _ = run(capsys, "oracle", "--n", "4", "--k", "2", "--ell", "1")
    assert code == 0
    assert out == ("brute-force group: Z/2 + Z^3\n"
                   "structured pipeline skipped: n < 3*kc - 1\n")
    code, out, _ = run(capsys, "oracle", "--n", "4", "--k", "2", "--ell", "1",
                       "--json")
    payload = json.loads(out)
    assert code == 0 and payload["structured"] is None
    assert payload["agree"] is None


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "kneser_k2_laplacian",
                       "--n-from", "5", "--n-to", "9", "--json")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 5
    assert all(rec["agreement"]["all"] for rec in lines)
    # n = 7 is below the reduction's range for k = 3; n = 8 is in it
    code, out, _ = run(capsys, "verify", "--theorem", "johnson_k3_laplacian",
                       "--n-from", "7", "--n-to", "8")
    assert code == 0
    first, second = out.splitlines()
    assert first.startswith("johnson_k3_laplacian n=7: ok (oracle-only) group")
    assert second.startswith("johnson_k3_laplacian n=8: ok group")
    # the 10 columns at n = 5 are above a cap of 5
    code, out, _ = run(capsys, "verify", "--theorem", "kneser_k2_laplacian",
                       "--n-from", "5", "--n-to", "5", "--cap", "5")
    assert code == 0
    assert out == ("kneser_k2_laplacian n=5: ok (oracle skipped) group "
                   "Z/2 + (Z/10)^3 + Z\n")


def test_verify_command_fails_on_a_mismatch(capsys, monkeypatch):
    from setsmith import oracle
    # a table that drops its last entry disagrees with both other arms
    cf = oracle.THEOREMS["kneser_k2_laplacian"]
    monkeypatch.setitem(oracle.THEOREMS, "kneser_k2_laplacian",
                        cf._replace(table=lambda n: cf.table(n)[:-1]))
    code, out, err = run(capsys, "verify", "--theorem", "kneser_k2_laplacian",
                         "--n-from", "6", "--n-to", "7")
    assert code == 1
    assert out.splitlines()[0].startswith("kneser_k2_laplacian n=6: MISMATCH")
    assert err == "closed-form verification failed\n"


def _digits(count):
    """An integer of count decimal digits, past the default 4300 of
    int/str conversion when count is larger."""
    return 10 ** (count - 1) + 7


def test_integers_past_the_int_str_digit_limit(tmp_path, capsys,
                                               digit_limit):
    # the test itself writes and parses them; main() lifts the limit only
    # while it runs
    digit_limit(0)
    n = str(_digits(4001))
    code, out, _ = run(capsys, "smith-group", "--n", n, "--k", "2",
                       "--ell", "0")
    assert code == 0 and f"n={n} k=2" in out
    # --json refuses it on the count of invariant factors, not on a digit
    code, out, err = run(capsys, "smith-group", "--n", n, "--k", "2",
                         "--ell", "0", "--json")
    assert code == 1 and "invariant factors" in err
    big = _digits(4400)
    code, out, _ = run(capsys, "smith-group", "--n", "10", "--k", "2",
                       f"--coeffs={big},1,0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == [big, 1, 0]
    assert AbelianGroup.from_json_dict(payload["group"]).to_json_dict() \
        == payload["group"]
    path = tmp_path / "big.txt"
    path.write_text(f"2 2\n{big} 0\n0 3\n")
    code, out, _ = run(capsys, "snf", "--in", str(path))
    assert code == 0
    assert out == f"2x2 matrix: rank 2, invariant factors 1,{3 * big}\n"


def test_library_integers_past_the_int_str_digit_limit(capsys, digit_limit):
    # the library prints and reads them under Python's default limit of
    # 4300 digits, through decimal, and leaves the limit as it is
    digit_limit(4300)
    limit = _limit()
    n = "1" + "0" * 4000
    text = str(smith_group(SchemeParams(10 ** 4000, 2, 2, 0)).group)
    big, digits = _digits(5000), "1" + "0" * 4998 + "7"
    if limit is not None:
        with pytest.raises(ValueError):
            str(big)
    m = IntMatrix([[big, -big], [0, 3]])
    assert m.to_text() == f"2 2\n{digits} -{digits}\n0 3\n"
    assert IntMatrix.from_text(m.to_text()) == m
    assert m.pretty().split() == [digits, "-" + digits, "0", "3"]
    assert _limit() == limit
    code, out, _ = run(capsys, "smith-group", "--n", n, "--k", "2",
                       "--ell", "0")
    assert code == 0 and f"smith group: {text}\n" in out
    assert _limit() == limit


@pytest.mark.parametrize("argv, code", [
    (["smith-group", "--n", "1" + "0" * 4000, "--k", "2", "--ell", "0"], 0),
    (["oracle", "--n", "16", "--k", "3", "--ell", "0", "--cap", "100"], 1),
    (["smith-group", "--n", "8", "--k", "9", "--ell", "0"], 1),
    (["smith-group", "--n", "x"], 2),
])
def test_main_restores_the_int_str_digit_limit(capsys, digit_limit, argv,
                                               code):
    # an answer, a refusal, a parameter error and a usage error (exit 2)
    digit_limit(4300)
    limit = _limit()
    try:
        assert main(argv) == code
    except SystemExit as exc:
        assert exc.code == code
    capsys.readouterr()
    assert _limit() == limit


def test_conjecture_command_with_log(tmp_path, capsys):
    log = tmp_path / "conj.jsonl"
    code, out, _ = run(capsys, "conjecture", "--n-min", "5", "--n-max", "7",
                       "--k-max", "2", "--log", str(log))
    assert code == 0
    assert "all hold" in out
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert all(rec["holds"] for rec in records)
    assert {(r["n"], r["i"], r["j"]) for r in records} == {
        (n, i, j) for n in (5, 6, 7) for j in range(3) if 3 * j <= n + 1
        for i in range(j + 1)}
    code, out, err = run(capsys, "conjecture", "--n-min", "5", "--n-max", "7",
                         "--k-max", "2", "--json")
    assert code == 0
    # stdout is JSON Lines; the summary goes to stderr
    assert [json.loads(line) for line in out.splitlines()] == records
    assert err == f"checked {len(records)} cases; all hold\n"


def test_conjecture_log_opens_before_the_sweep(tmp_path, capsys, monkeypatch):
    # a --log path that cannot be written fails before the first check, with
    # an error line and no case on stdout
    import setsmith.superstandard

    def no_check(*args):
        raise AssertionError("a check ran before the log was opened")

    monkeypatch.setattr(setsmith.superstandard, "check_conjecture", no_check)
    code, out, err = run(capsys, "conjecture", "--n-max", "7", "--k-max", "2",
                         "--log", str(tmp_path / "missing" / "conj.jsonl"))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "conj.jsonl" in err


def test_export_and_snf_roundtrip(tmp_path, capsys):
    path = tmp_path / "w.txt"
    code, out, _ = run(capsys, "export-matrix", "--which", "W", "--n", "8",
                       "--i", "1", "--j", "2", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "snf", "--in", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 7
    # diagonal form of the standard-inclusion matrix: one 2, then ones
    assert payload["invariant_factors"] == [1] * 6 + [2]


def test_export_identity_snf_text(tmp_path, capsys):
    path = tmp_path / "id3.txt"
    path.write_text("3 3\n1 0 0\n0 1 0\n0 0 1\n")
    code, out, _ = run(capsys, "snf", "--in", str(path))
    assert code == 0
    assert "invariant factors 1,1,1" in out


def test_export_all_kinds(tmp_path, capsys):
    cases = [
        ("A", ["--n", "6", "--kr", "2", "--kc", "2", "--ell", "0"]),
        ("P", ["--n", "6", "--k", "2"]),
        ("E", ["--n", "9", "--s", "2"]),
        ("Ptilde", ["--n", "9", "--i", "2", "--j", "2"]),
    ]
    for which, flags in cases:
        out_path = tmp_path / f"{which}.txt"
        code, _, _ = run(capsys, "export-matrix", "--which", which,
                         *flags, "--out", str(out_path))
        assert code == 0
        head = out_path.read_text().splitlines()[0]
        assert len(head.split()) == 2


def test_bench_command(capsys):
    code, out, _ = run(capsys, "bench", "--n", "10", "--k", "2", "--ell", "1",
                       "--lambda", "0", "--repeats", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True


ELEMENT_COMMANDS = ("smith-group", "diagonal-form", "ms", "eigenvalues",
                    "oracle", "bench")


def _group_printed(command, out, p):
    """The Smith group that an element command's output states."""
    if command == "ms":  # from the printed blocks and their multiplicities
        diagonal, rank = [], 0
        for part in out.split("M_")[1:]:
            head, *rows = part.strip().splitlines()
            mult = int(head.split("multiplicity ")[1].rstrip("):"))
            snf = smith_normal_form(IntMatrix([[int(t) for t in row.split()]
                                               for row in rows]))
            diagonal += [(d, mult) for d in snf.invariant_factors]
            rank += mult * snf.rank
        return group_from_diagonal(diagonal + [(0, comb(p.n, p.kc) - rank)])
    payload = json.loads(out)
    if command == "oracle":
        assert payload["agree"] is True
        assert payload["structured"] == payload["oracle"]
        return AbelianGroup.from_json_dict(payload["oracle"])
    group = AbelianGroup.from_json_dict(payload["group"])
    if command == "diagonal-form":  # the entries hold the torsion
        entries = [(d["entry"], d["multiplicity"])
                   for d in payload["diagonal_entries"]]
        assert group_from_diagonal(entries).runs == group.runs
    return group


# (flags, params, coeffs, lam): non-square by --ell and by --coeffs, and a
# square --kr/--kc combination with a shift
ELEMENTS = [
    (["--n", "9", "--kr", "2", "--kc", "3", "--ell", "1"],
     SchemeParams(9, 2, 3, 1), (0, 1, 0), 0),
    (["--n", "9", "--kr", "2", "--kc", "3", "--coeffs", "3,-1,2"],
     SchemeParams(9, 2, 3, 2), (3, -1, 2), 0),
    (["--n", "9", "--kr", "3", "--kc", "3", "--coeffs=1,0,2,3",
      "--lambda=2"], SchemeParams(9, 3, 3, 3), (1, 0, 2, 3), 2),
]


@pytest.mark.parametrize("flags,p,coeffs,lam", ELEMENTS)
@pytest.mark.parametrize("command", ELEMENT_COMMANDS)
def test_element_commands_take_one_flag_set(capsys, command, flags, p,
                                            coeffs, lam):
    json_flag = ["--json"] if command in ("smith-group", "diagonal-form",
                                          "eigenvalues", "oracle") else []
    code, out, err = run(capsys, command, *flags, *json_flag)
    want = brute_force_group(p, coeffs, lam)
    if command == "eigenvalues":
        if not p.square:  # the library refuses: a spectrum needs kr == kc
            assert code == 1 and out == "" and "kr == kc" in err
            return
        spec = json.loads(out)
        assert code == 0
        assert sum(s["multiplicity"] for s in spec) == comb(p.n, p.kr)
        # every eigenvalue is nonzero here, so they multiply to the order
        assert want.free_rank == 0
        assert prod(abs(s["eigenvalue"]) ** s["multiplicity"]
                    for s in spec) == want.order()
        return
    assert code == 0, err
    assert _group_printed(command, out, p) == want


def test_element_flags_refused(capsys):
    base = ["--n", "9"]
    exit_2 = [
        ["--k", "3", "--kr", "3", "--ell", "1"],          # --k with --kr
        ["--k", "3", "--kc", "3", "--ell", "1"],          # --k with --kc
        ["--ell", "1"],                                   # no size at all
        ["--kr", "2", "--ell", "1"],                      # --kr alone
        ["--k", "3", "--ell", "1", "--coeffs", "0,1,0,0"],
        ["--k", "3"],                                     # no --ell/--coeffs
        ["--kr", "2", "--kc", "3", "--coeffs", "1,2,3,4"],  # kr+1 = 3
        ["--k", "3", "--coeffs", "0,1,0,0", "--lambda", "degree"],
        ["--kr", "2", "--kc", "3", "--ell", "1", "--lambda", "degree"],
        ["--k", "3", "--ell", "1", "--lambda", "x"],
    ]
    exit_1 = [  # the library's ParameterError
        ["--kr", "2", "--kc", "3", "--ell", "1", "--lambda", "1"],
        ["--kr", "2", "--kc", "3", "--coeffs", "1,2,3", "--lambda", "-1"],
    ]
    for command in ELEMENT_COMMANDS:
        for flags in exit_2:
            with pytest.raises(SystemExit) as err:
                main([command, *base, *flags])
            assert err.value.code == 2, (command, flags)
            capsys.readouterr()
        for flags in exit_1:
            code, out, err = run(capsys, command, *base, *flags)
            assert code == 1 and out == "", (command, flags)
            assert err.startswith("error:") and "square" in err
    code, out, err = run(capsys, "eigenvalues", *base, "--kr", "2", "--kc",
                         "3", "--ell", "1")
    assert code == 1 and err == (
        "error: eigenvalues need square parameters kr == kc\n")


def test_parser_built_for_the_named_command_only(capsys):
    names = ["smith-group", "diagonal-form", "ms", "eigenvalues", "oracle",
             "verify", "conjecture", "export-matrix", "snf", "bench"]
    subparsers = build_parser()._subparsers._group_actions[0].choices
    assert list(subparsers) == names
    one = build_parser("ms")._subparsers._group_actions[0].choices
    assert list(one) == ["ms"]
    # --help, no command and an unknown one list all ten
    for argv, code in (["--help"], 0), ([], 2), (["nope"], 2):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == code
        out = capsys.readouterr()
        assert "{" + ",".join(names) + "}" in out.out + out.err
    with pytest.raises(SystemExit) as err:
        main(["diagonal-form", "--help"])
    assert err.value.code == 0
    usage = capsys.readouterr().out
    assert usage.startswith("usage: setsmith diagonal-form")
    assert [line.split()[0].rstrip(",") for line in usage.splitlines()
            if line.startswith("  -")] == [
        "-h", "--n", "--k", "--kr", "--kc", "--ell", "--coeffs", "--lambda",
        "--json"]


def test_argument_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["smith-group", "--n", "12", "--k", "3"])  # no --ell/--coeffs
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["smith-group", "--n", "12", "--k", "3", "--coeffs", "1,2"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["verify", "--theorem", "nope", "--n-from", "5", "--n-to", "6"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["smith-group", "--n", "12", "--k", "3", "--coeffs", "1,0,0,0",
              "--lambda", "degree"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["eigenvalues", "--n", "12", "--k", "3", "--ell", "2",
              "--lambda", "x"])
    assert err.value.code == 2
    for argv in (["export-matrix", "--which", "W", "--n", "8", "--j", "2"],
                 ["smith-group", "--n", "12", "--k", "3", "--ell", "1",
                  "--coeffs", "0,1,0,0"],
                 ["smith-group", "--n", "12", "--k", "3",
                  "--coeffs", "0,1,x,0"],
                 # an empty conjecture sweep
                 ["conjecture", "--n-min", "5", "--n-max", "4", "--k-max", "1"],
                 ["conjecture", "--n-max", "6", "--k-max", "-1"],
                 # repeats below 1
                 ["bench", "--n", "8", "--k", "2", "--ell", "1", "--repeats",
                  "0"],
                 # a cap below 1
                 ["oracle", "--n", "8", "--k", "2", "--ell", "1", "--cap", "0"],
                 ["verify", "--theorem", "johnson_k2_laplacian", "--n-from",
                  "5", "--n-to", "5", "--cap", "-1"],
                 # below the theorem's min_n 5, and an empty sweep
                 ["verify", "--theorem", "kneser_k2_laplacian", "--n-from",
                  "4", "--n-to", "6"],
                 ["verify", "--theorem", "kneser_k2_laplacian", "--n-from",
                  "7", "--n-to", "6"],
                 ["bench", "--n", "8", "--k", "2", "--ell", "1", "--cap", "0"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
    assert build_parser().parse_args(argv[:-1] + ["1"]).cap == 1


# Runs each step in turn in one fresh interpreter (pytest's own process has
# numpy loaded already) and prints, after each, which of these modules are
# loaded, and every setsmith module that is.
_WATCHED = ("numpy", "setsmith.valence", "dataclasses", "setsmith.oracle",
            "setsmith.proof", "setsmith.commands")
_LOADED_AFTER_EACH = """
import io, json, sys
from contextlib import redirect_stdout
from setsmith.cli import main
loaded = []
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()):
        if argv == ["library"]:
            from setsmith import SchemeParams, smith_group
            smith_group(SchemeParams(10, 3, 3, 1), lam=2).group.to_json_dict()
        elif main(argv):
            sys.exit(f"{argv} failed")
    loaded.append([[m in sys.modules for m in json.loads(sys.argv[2])],
                   sorted(m for m in sys.modules if m.startswith("setsmith"))])
print(json.dumps(loaded))
"""


def test_block_commands_load_neither_numpy_nor_valence(tmp_path):
    # nor dataclasses, whose import (inspect, ast, dis) costs more than a
    # block query, nor the modules that hold what the block reduction never
    # runs: a cold start compiles every module it loads
    path = tmp_path / "m.txt"
    path.write_text("3 3\n2 4 4\n-6 6 12\n10 -4 -16\n")
    steps = [
        ["library"],
        ["smith-group", "--n", "10", "--k", "3", "--coeffs", "5,-7,9,11",
         "--lambda", "3", "--json"],
        ["diagonal-form", "--n", "10", "--kr", "2", "--kc", "3", "--ell", "1"],
        ["diagonal-form", "--n", "10", "--kr", "2", "--kc", "3",
         "--coeffs", "3,-1,2"],
        ["ms", "--n", "12", "--k", "3", "--ell", "2"],
        ["eigenvalues", "--n", "12", "--k", "3", "--ell", "2"],
        ["eigenvalues", "--n", "12", "--k", "3", "--coeffs", "1,0,2,3",
         "--lambda", "2"],
        ["snf", "--in", str(path)],
        # blocks of 21 rows, which the list lane reduces at every size
        ["smith-group", "--n", "59", "--k", "20", "--ell", "19", "--lambda",
         "degree"],
        # the dense oracle loads numpy: the control
        ["oracle", "--n", "8", "--k", "2", "--ell", "1"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _LOADED_AFTER_EACH,
                           json.dumps(steps), json.dumps(_WATCHED)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    block_modules = ["setsmith", "setsmith.cli", "setsmith.exact",
                     "setsmith.scheme", "setsmith.subsets"]
    assert loaded[:-1] == [[[False] * len(_WATCHED), block_modules]] * (
        len(steps) - 1)
    # the oracle's cold start loads numpy, the oracle and the dense commands,
    # and not the proof objects
    assert dict(zip(_WATCHED, loaded[-1][0])) == {
        "numpy": True, "setsmith.valence": True, "dataclasses": False,
        "setsmith.oracle": True, "setsmith.proof": False,
        "setsmith.commands": True}


def test_precondition_violations_exit_1(tmp_path, capsys):
    code, _, err = run(capsys, "smith-group", "--n", "6", "--k", "3",
                       "--ell", "0")
    assert code == 1
    assert "n >= 3*kc - 1" in err
    # every entry to the blocks refuses below the range alike
    refusals = [run(capsys, command, "--n", "4", "--k", "2", "--ell", "1")
                for command in ("smith-group", "ms", "eigenvalues")]
    code, out, err = refusals[0]
    assert code == 1 and out == ""
    assert err.startswith("error:") and "n >= 3*kc - 1" in err
    assert refusals[1:] == refusals[:1] * 2
    code, _, err = run(capsys, "oracle", "--n", "16", "--k", "3", "--ell", "0",
                       "--cap", "100")
    assert code == 1
    assert "cap" in err
    code, _, err = run(capsys, "snf", "--in", "/nonexistent/file.txt")
    assert code == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 2\n3 x\n")
    code, _, err = run(capsys, "snf", "--in", str(bad))
    assert code == 1
    assert err.startswith("error:") and "non-integer" in err
    negative = tmp_path / "negative.txt"
    negative.write_text("0 -3\n")
    code, _, err = run(capsys, "snf", "--in", str(negative))
    assert code == 1
    assert err.startswith("error:")
    for flags in (["--which", "W", "--i", "0", "--j", "0"],
                  ["--which", "E", "--s", "0"]):
        code, _, err = run(capsys, "export-matrix", "--n", "-1", *flags)
        assert code == 1
        assert err.startswith("error:")
