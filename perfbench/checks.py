"""Correctness checks made apart from the program.

A query's answer is the JSON form of an abelian group,
{"invariant_factors": [...], "free_rank": r}.  The checks below test it
against facts that do not come from the block reduction:

* the spectrum, from the Eberlein polynomials of the Johnson scheme;
* the group order, prime by prime, against that spectrum: |det| when the
  matrix is nonsingular, and prod_{i>=1} theta_i^{m_i} / C(n,k) (the
  matrix-tree count) when only the all-ones eigenvalue is zero, as for a
  Laplacian;
* the free rank, against the multiplicity of the zero eigenvalue;
* the published closed-form tables, where one applies.

No check multiplies the invariant factors out: valuations are taken over a
coprime base of the numbers involved, so nothing is ever factored and no
product is ever formed.  A base element stands for the primes that always
occur together in those numbers, so equal valuations over the base are
equal valuations at every prime.
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby
from math import comb, gcd


def eberlein(n: int, k: int, d: int, i: int) -> int:
    """Eigenvalue of the distance-d relation of J(n,k) on eigenspace i."""
    return sum((-1) ** j * comb(i, j) * comb(k - i, d - j)
               * comb(n - k - i, d - j) for j in range(d + 1))


def spectrum(n: int, k: int, coeffs, lam: int) -> list[tuple[int, int]]:
    """(eigenvalue, multiplicity) of sum_l b_l A(n,k,k,l) - lam*I, i = 0..k.

    A(n,k,k,l) relates k-subsets meeting in l points, which is distance
    k - l in the Johnson scheme.
    """
    return [(sum(b * eberlein(n, k, k - ell, i) for ell, b in enumerate(coeffs))
             - lam, comb(n, i) - (comb(n, i - 1) if i else 0))
            for i in range(k + 1)]


def coprime_base(values) -> list[int]:
    """Pairwise coprime integers > 1 such that every value is a product of
    powers of them (factor refinement by repeated gcd splitting)."""
    base: list[int] = []
    work = [abs(v) for v in values if abs(v) > 1]
    while work:
        y = work.pop()
        for i, b in enumerate(base):
            g = gcd(b, y)
            if g > 1:
                base.pop(i)
                work.extend(z for z in (b // g, g, y // g) if z > 1)
                break
        else:
            base.append(y)
    return base


def valuation(x: int, b: int) -> int:
    x = abs(x)
    e = 0
    while x % b == 0:
        x //= b
        e += 1
    return e


def runs(factors) -> list[tuple[int, int]]:
    """Distinct invariant factors with their counts, in order."""
    return [(d, sum(1 for _ in grp)) for d, grp in groupby(factors)]


def _exponent_multisets(pairs, base) -> dict[int, Counter]:
    """For each base element b, the multiset {v_b(d)} over (d, count) pairs,
    zero exponents left out."""
    out = {}
    for b in base:
        c = Counter()
        for d, m in pairs:
            e = valuation(d, b)
            if e:
                c[e] += m
        out[b] = c
    return out


def check_group(n: int, k: int, coeffs, lam: int, group: dict,
                table=None) -> list[str]:
    """Problems found with `group` as the Smith group of the scheme element
    sum_l coeffs[l] A(n,k,k,l) - lam*I; an empty list means it passed.

    `table`, when given, is a published diagonal form as (entry,
    multiplicity) pairs for this same matrix.
    """
    problems = []
    factors = group["invariant_factors"]
    free_rank = group["free_rank"]
    pairs = runs(factors)
    if any(d <= 1 for d, _ in pairs):
        problems.append("an invariant factor is not above 1")
        return problems
    if any(b % a for (a, _), (b, _) in zip(pairs, pairs[1:])):
        problems.append("invariant factors are not a divisibility chain")
        return problems

    spec = spectrum(n, k, coeffs, lam)
    zero_mult = sum(m for theta, m in spec if theta == 0)
    if free_rank != zero_mult:
        problems.append(f"free rank {free_rank}, but the zero eigenvalue has "
                        f"multiplicity {zero_mult}")

    # The order follows from the spectrum when the matrix is nonsingular,
    # or when its kernel is exactly the all-ones vector (eigenspace 0 has
    # multiplicity 1): then every row and column sums to zero, and deleting
    # one row and column leaves a nonsingular matrix with the same torsion
    # and determinant prod_{i>=1} theta_i^{m_i} / C(n,k).
    nonzero = [(theta, m) for theta, m in spec if theta != 0]
    divisor = None
    if len(nonzero) == len(spec):
        divisor = 1
    elif spec[0][0] == 0 and len(nonzero) == len(spec) - 1:
        divisor = comb(n, k)
    if divisor is not None:
        base = coprime_base([t for t, _ in nonzero] + [divisor]
                            + [d for d, _ in pairs])
        for b in base:
            want = (sum(m * valuation(t, b) for t, m in nonzero)
                    - valuation(divisor, b))
            have = sum(m * valuation(d, b) for d, m in pairs)
            if want != have:
                problems.append(f"order has valuation {have} at {b}, the "
                                f"spectrum gives {want}")
                break

    if table is not None:
        entries = [(abs(e), m) for e, m in table if m and abs(e) != 1]
        table_free = sum(m for e, m in entries if e == 0)
        entries = [(e, m) for e, m in entries if e != 0]
        if table_free != free_rank:
            problems.append(f"free rank {free_rank}, the published table "
                            f"gives {table_free}")
        base = coprime_base([e for e, _ in entries] + [d for d, _ in pairs])
        if _exponent_multisets(pairs, base) != _exponent_multisets(entries, base):
            problems.append("torsion differs from the published table")
    return problems


def published_table(n: int, k: int, coeffs, lam: int):
    """The closed-form diagonal form of oracle.THEOREMS that applies to this
    matrix, or None."""
    from setsmith.oracle import THEOREMS  # the published tables only

    coeffs = tuple(coeffs)
    for cf in THEOREMS.values():
        if n < cf.min_n:
            continue
        p = cf.params(n)
        if (p.kr, p.kc) != (k, k):
            continue
        unit = tuple(1 if l == p.ell else 0 for l in range(k + 1))
        if unit == coeffs and cf.lam(n) == lam:
            return cf.table(n)
    return None


def check_answer(query, answer: dict) -> list[str]:
    """Check one query's answer: the group (and, for the oracle, that the
    dense group equals the block group)."""
    table = published_table(query.n, query.k, query.coeffs, query.lam)
    if "oracle" in answer:
        problems = []
        if answer["oracle"] != answer["structured"]:
            problems.append("dense group differs from the block group")
        if answer["agree"] is not True:
            problems.append("the program reports disagreement")
        group = answer["oracle"]
    else:
        problems = []
        group = answer
    return problems + check_group(query.n, query.k, query.coeffs, query.lam,
                                  group, table)
