"""Brute-force ground truth and closed-form verification.

The oracle assembles the full intersection-matrix combination entrywise and
takes its Smith normal form directly; it is valid for every parameter
choice (including small n where the block reduction does not apply) and is
what the structured pipeline and the published closed forms are checked
against.  The dense matrices are built here too: the block reduction never
builds one, so only the commands that do load this module.
"""

from __future__ import annotations

import time
from math import comb, gcd
from typing import NamedTuple

import numpy as np

from .exact import (_INT64_CEILING, AbelianGroup, ExactError, IntMatrix,
                    group_from_diagonal, group_from_smith, smith_normal_form)
from .scheme import (DEFAULT_CAP, ParameterError, SchemeParams,
                     SizeCapExceeded, _check_coeffs, _refuse_oversized,
                     degree, in_range, smith_group, unit_coeffs)
from .subsets import enumerate_subsets, mu


# ---------------------------------------------------------------------------
# Dense matrices, built in numpy from the intersection sizes


def _padded(subsets) -> np.ndarray:
    """The subsets as rows of an array, shorter ones padded with 0."""
    width = max(map(len, subsets), default=0)
    return np.array([s + (0,) * (width - len(s)) for s in subsets],
                    dtype=np.intp).reshape(len(subsets), width)


def _meets(rows, cols) -> np.ndarray:
    """|a & b| for every subset a in rows and b in cols, as int16: the rows
    of a 0/1 membership table (element x column) summed over the elements
    of a.  Both are padded with 0 to one size, and row 0 of the table, which
    no element has, stays zero."""
    r, c = _padded(rows), _padded(cols)
    width = r.shape[1]
    top = max((s[-1] for s in (*rows, *cols) if s), default=0)
    member = np.zeros((top + 1, len(cols)), dtype=np.int16)
    member[c, np.arange(len(cols))[:, None]] = 1
    member[0] = 0
    sizes = np.zeros((len(rows), len(cols)), dtype=np.int16)
    for t in range(width):
        sizes += member[r[:, t]]
    return sizes


def _scheme_array(p: SchemeParams, coeffs=None, lam: int = 0,
                  cap: int = DEFAULT_CAP) -> np.ndarray:
    """The dense matrix of sum_l b_l A_{n,kr,kc,l} - lam*I as an array,
    rows kr-subsets and columns kc-subsets in lexicographic order: int64
    when max|b_l| + |lam| < 2**62, so that every entry is below 2**62, and
    otherwise dtype object, holding exact Python ints.  Refuses with
    SizeCapExceeded, before enumerating, a side above cap."""
    coeffs, lam = _check_coeffs(p, coeffs, lam)
    rows = comb(p.n, p.kr)
    _refuse_oversized(f"sum_l b_l A({p.n},{p.kr},{p.kc},l)", rows,
                      comb(p.n, p.kc), cap)
    sizes = _meets(enumerate_subsets(p.n, p.kr), enumerate_subsets(p.n, p.kc))
    wide = max(map(abs, coeffs)) + abs(lam) >= _INT64_CEILING
    a = np.array(coeffs, dtype=object if wide else np.int64)[sizes]
    if lam:
        a[np.arange(rows), np.arange(rows)] -= lam
    return a


def intersection_matrix(p: SchemeParams) -> IntMatrix:
    """0/1 matrix with entry 1 iff |A & B| == ell, rows kr-subsets, cols
    kc-subsets, both in lexicographic order."""
    return scheme_element_matrix(p, unit_coeffs(p))


def scheme_element_matrix(p: SchemeParams, coeffs=None, lam: int = 0) -> IntMatrix:
    """Dense matrix of sum_l b_l A_{n,kr,kc,l} - lam*I."""
    a = _scheme_array(p, coeffs, lam)
    return IntMatrix(a, row_labels=enumerate_subsets(p.n, p.kr),
                     col_labels=enumerate_subsets(p.n, p.kc))


# ---------------------------------------------------------------------------
# The dense Smith group


def brute_force_group(p: SchemeParams, coeffs=None, lam: int = 0,
                      cap: int = DEFAULT_CAP) -> AbelianGroup:
    """Smith group from the dense matrix, no structure exploited.  Refuses
    with SizeCapExceeded a matrix with more than cap rows or columns."""
    a = _scheme_array(p, coeffs, lam, cap)
    return group_from_smith(smith_normal_form(a), a.shape[1])


def _best_ms(fn, repeats: int = 1):
    """Call fn() repeats times; return its last result and the best wall
    time in milliseconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, round(best * 1000, 3)


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ExactError(f"expected {b} to divide {a} exactly")
    return q


# ---------------------------------------------------------------------------
# Closed-form tables, transcribed literally (entry, multiplicity) per n.


def _johnson_k2_laplacian(n: int) -> list[tuple[int, int]]:
    out = [(2 * (n - 1), comb(n, 2) - 2 * n + 1),
           (2 * (n - 1) * n, n - 2),
           (1, n - 2)]
    if n % 2 == 1:
        out += [(1, 1), (4, 1)]
    else:
        out += [(2, 2)]
    out += [(0, 1)]
    return out


def _johnson_k3_laplacian(n: int) -> list[tuple[int, int]]:
    out = [(3 * (n - 2), comb(n, 3) - 2 * comb(n, 2) + n),
           (6 * (n - 2) * (n - 1), comb(n, 2) - 2 * n + 1),
           (1, comb(n, 2) - 2 * n + 2)]
    if n % 2 == 1:
        out += [(6 * (n - 2) * (n - 1) * n, n - 2), (1, 2 * (n - 2))]
    else:
        out += [(_exact_div(3 * (n - 2) * (n - 1) * n, 2), n - 2),
                (2, 2 * (n - 2))]
    if n % 3 == 2:
        out += [(36, 1), (1, 1)]
    else:
        out += [(12, 1), (3, 1)]
    out += [(0, 1)]
    return out


def _johnson_k2_adjacency(n: int) -> list[tuple[int, int]]:
    return [(2, _exact_div((n - 2) * (n - 3), 2)),
            ((n - 2) * (n - 4), 1),
            (2 * (n - 4), n - 2),
            (1, n - 2)]


def _johnson_k3_adjacency(n: int) -> list[tuple[int, int]]:
    x = gcd(3 * (n - 3) * (2 * n - 9),
            (n - 7) * (n - 3) * (2 * n - 9),
            12,
            2 * n * (n - 7),
            3 * (n - 7))
    return [(3 * (n - 7), comb(n, 2) - 2 * n + 1),
            (3 * (2 * n - 9) * (n - 7), n - 2),
            (3, comb(n, 3) - 2 * comb(n, 2) + n + 1),
            (_exact_div(3 * (n - 3) * (n - 7) * (2 * n - 9), x), 1),
            (x, 1),
            (1, comb(n, 2) - 2)]


def _kneser_adjacency(k: int):
    def table(n: int) -> list[tuple[int, int]]:
        return [(comb(n - k - j, k - j), mu(n, j)) for j in range(k + 1)]
    return table


def _kneser_k2_laplacian(n: int) -> list[tuple[int, int]]:
    return [(_exact_div((n - 1) * (n - 4), 2), comb(n, 2) - 2 * n + 1),
            (_exact_div((n - 1) * (n - 3) * (n - 4) * n, 4), n - 2),
            (1, n - 1),
            (_exact_div((n - 3) * (n - 4), 2), 1),
            (0, 1)]


def _kneser_k3_laplacian(n: int) -> list[tuple[int, int]]:
    q = n * n - 10 * n + 27
    x = gcd(_exact_div((n - 4) * (n - 5) * n, 3),
            _exact_div((n * n - 7 * n + 18) * (n - 5), 6),
            _exact_div(q * (n - 2) * (n - 4) * (n - 5) * n, 36))
    y = gcd(n - 5,
            _exact_div(3 * (n - 4) * (n - 5), 2),
            _exact_div((n - 1) * (n - 3) * (n - 5), 3))
    big_x = _exact_div(q * (n - 1) * (n - 2) * (n - 4) * (n - 5) ** 2 * (n - 6) * n, 216)
    big_y = _exact_div(q * (n - 4) * (n - 5) ** 2 * (n - 6), 36)
    return [(_exact_div(q * (n - 2), 6), comb(n, 3) - 2 * comb(n, 2) + n),
            (_exact_div(q * (n - 1) * (n - 2) * (n - 5) * (n - 6), 36),
             comb(n, 2) - 2 * n + 1),
            (1, comb(n, 2) - n),
            (_exact_div(big_x, x), n - 2),
            (x, n - 2),
            (_exact_div(big_y, y), 1),
            (y, 1),
            (0, 1)]


def _nonsquare_231(n: int) -> list[tuple[int, int]]:
    out = [(2, comb(n, 2) - 2 * n + 1),
           (2 * (n - 6), n - 2),
           (1, n - 1)]
    if n % 3 == 0:
        out += [((n - 3) * (n - 6), 1), (6, 1)]
    else:
        out += [(3 * (n - 3) * (n - 6), 1), (2, 1)]
    return out


class ClosedForm(NamedTuple):
    theorem_id: str
    description: str
    min_n: int
    params: "callable"      # n -> SchemeParams
    lam: "callable"         # n -> shift
    table: "callable"       # n -> list[(entry, multiplicity)]


def _johnson_params(k):
    return lambda n: SchemeParams(n, k, k, k - 1)


def _kneser_params(k):
    return lambda n: SchemeParams(n, k, k, 0)


THEOREMS: dict[str, ClosedForm] = {}


def _register(theorem_id, description, min_n, params, lam, table):
    THEOREMS[theorem_id] = ClosedForm(
        theorem_id, description, min_n, params, lam, table)


_register("johnson_k2_laplacian", "Laplacian of the k=2 Johnson graph",
          5, _johnson_params(2), lambda n: degree(n, 2, 1), _johnson_k2_laplacian)
_register("johnson_k3_laplacian", "Laplacian of the k=3 Johnson graph",
          7, _johnson_params(3), lambda n: degree(n, 3, 2), _johnson_k3_laplacian)
_register("johnson_k2_adjacency", "adjacency matrix of the k=2 Johnson graph",
          5, _johnson_params(2), lambda n: 0, _johnson_k2_adjacency)
_register("johnson_k3_adjacency", "adjacency matrix of the k=3 Johnson graph",
          7, _johnson_params(3), lambda n: 0, _johnson_k3_adjacency)
for _k in (1, 2, 3):
    _register(f"kneser_k{_k}_adjacency",
              f"adjacency matrix of the k={_k} Kneser graph",
              3 * _k - 1, _kneser_params(_k), lambda n: 0, _kneser_adjacency(_k))
_register("kneser_k2_laplacian", "Laplacian of the k=2 Kneser graph",
          5, _kneser_params(2), lambda n: degree(n, 2, 0), _kneser_k2_laplacian)
_register("kneser_k3_laplacian", "Laplacian of the k=3 Kneser graph",
          7, _kneser_params(3), lambda n: degree(n, 3, 0), _kneser_k3_laplacian)
_register("nonsquare_231", "intersection matrix on 2-subsets x 3-subsets, ell=1",
          5, lambda n: SchemeParams(n, 2, 3, 1), lambda n: 0, _nonsquare_231)


def closed_form_entries(theorem_id: str, n: int) -> list[tuple[int, int]]:
    cf = THEOREMS.get(theorem_id)
    if cf is None:
        raise ParameterError(
            f"unknown theorem id {theorem_id!r}; known: {', '.join(sorted(THEOREMS))}")
    if n < cf.min_n:
        raise ParameterError(f"{theorem_id} requires n >= {cf.min_n}")
    return cf.table(n)


def closed_form_group(theorem_id: str, n: int) -> AbelianGroup:
    """Published diagonal entries canonicalized as a group.

    The published tables list only the diagonal of the (possibly
    rectangular) form; columns beyond the diagonal add free rank.
    """
    entries = closed_form_entries(theorem_id, n)
    p = THEOREMS[theorem_id].params(n)
    pad = comb(n, p.kc) - comb(n, p.kr)
    return group_from_diagonal(entries + [(0, pad)])


class VerificationReport(NamedTuple):
    theorem_id: str
    n: int
    structured: AbelianGroup | None
    closed_form: AbelianGroup
    oracle: AbelianGroup | None
    structured_vs_closed: bool | None
    structured_vs_oracle: bool | None
    closed_vs_oracle: bool | None
    timings_ms: dict

    @property
    def all_agree(self) -> bool:
        flags = [self.structured_vs_closed, self.structured_vs_oracle,
                 self.closed_vs_oracle]
        present = [f for f in flags if f is not None]
        return bool(present) and all(present)

    def to_json_dict(self) -> dict:
        return {
            "subject": {"theorem": self.theorem_id, "n": self.n,
                        "description": THEOREMS[self.theorem_id].description},
            "structured": self.structured.to_json_dict() if self.structured else None,
            "closed_form": self.closed_form.to_json_dict(),
            "oracle": self.oracle.to_json_dict() if self.oracle else None,
            "agreement": {
                "structured_vs_closed": self.structured_vs_closed,
                "structured_vs_oracle": self.structured_vs_oracle,
                "closed_vs_oracle": self.closed_vs_oracle,
                "all": self.all_agree,
            },
            "timings_ms": self.timings_ms,
        }


def verify_closed_form(theorem_id: str, n: int,
                       cap: int = DEFAULT_CAP) -> VerificationReport:
    """Evaluate a published table at n and compare it against the block
    reduction and (size permitting) the dense oracle.

    Some tables are stated slightly below the n >= 3k-1 range of the block
    reduction; there the structured arm is skipped and the oracle alone
    carries the comparison.
    """
    timings = {}
    closed, timings["closed_form"] = _best_ms(
        lambda: closed_form_group(theorem_id, n))
    cf = THEOREMS[theorem_id]
    p = cf.params(n)
    lam = cf.lam(n)
    structured = None
    if in_range(p.n, p.kc):
        structured, timings["structured"] = _best_ms(
            lambda: smith_group(p, unit_coeffs(p), lam).group)
    oracle_group = None
    if max(comb(p.n, p.kr), comb(p.n, p.kc)) <= cap:
        oracle_group, timings["oracle"] = _best_ms(
            lambda: brute_force_group(p, unit_coeffs(p), lam, cap=cap))
    return VerificationReport(
        theorem_id, n, structured, closed, oracle_group,
        None if structured is None else structured == closed,
        None if structured is None or oracle_group is None
        else structured == oracle_group,
        None if oracle_group is None else closed == oracle_group,
        timings)


class BenchReport(NamedTuple):
    params: SchemeParams
    coeffs: tuple[int, ...]
    lam: int
    repeats: int
    matrix_size: int
    structured_ms: float
    brute_ms: float | None
    agree: bool | None
    group: AbelianGroup

    def to_json_dict(self) -> dict:
        return {
            "params": self.params._asdict(),
            "coeffs": list(self.coeffs),
            "lambda": self.lam,
            "repeats": self.repeats,
            "matrix_size": self.matrix_size,
            "structured_ms": self.structured_ms,
            "brute_force_ms": self.brute_ms,
            "agree": self.agree,
            "group": self.group.to_json_dict(),
        }


def bench(p: SchemeParams, coeffs=None, lam: int = 0, repeats: int = 1,
          cap: int = DEFAULT_CAP) -> BenchReport:
    """Wall-clock comparison of the block reduction against the dense SNF.

    The dense arm is skipped (timing None) when the matrix would exceed
    the cap; the structured arm always runs.
    """
    if repeats < 1:
        raise ParameterError("repeats must be positive")
    if coeffs is None:
        coeffs = unit_coeffs(p)
    result, structured_ms = _best_ms(lambda: smith_group(p, coeffs, lam),
                                     repeats)
    brute_ms = None
    agree = None
    size = comb(p.n, p.kc)
    if max(size, comb(p.n, p.kr)) <= cap:
        brute, brute_ms = _best_ms(
            lambda: brute_force_group(p, coeffs, lam, cap=cap), repeats)
        agree = brute == result.group
    return BenchReport(p, tuple(result.coeffs), lam, repeats, size,
                       structured_ms, brute_ms, agree, result.group)
