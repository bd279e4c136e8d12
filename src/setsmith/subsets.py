"""Standard and super-standard subsets of {1..n}.

A subset is a plain tuple of strictly increasing integers from {1, ..., n};
the universe n is passed explicitly wherever a predicate depends on it.
With b_1 < b_2 < ... < b_k the sorted elements:

  * standard        means b_i >= 2i for every position i;
  * super-standard  means 2i <= b_i < (n - 2k) + 2i for every position i,
                    where k is the size of the subset.

Every subset of a standard subset is again standard, so the standard
subsets form an order ideal under inclusion.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

Subset = tuple[int, ...]

UNRESTRICTED = "unrestricted"
STANDARD = "standard"
SUPER_STANDARD = "superstandard"

_KINDS = (UNRESTRICTED, STANDARD, SUPER_STANDARD)


def binomial(a: int, b: int) -> int:
    """C(a, b), taken to be 0 whenever b < 0 or a < b."""
    if b < 0 or a < b:
        return 0
    return comb(a, b)


def is_standard(subset: Subset) -> bool:
    return all(b >= 2 * i for i, b in enumerate(subset, start=1))


def is_super_standard(subset: Subset, n: int) -> bool:
    span = n - 2 * len(subset)
    return all(2 * i <= b < span + 2 * i for i, b in enumerate(subset, start=1))


@lru_cache(maxsize=None)
def _subsets_of_size(n: int, k: int, kind: str) -> tuple[Subset, ...]:
    if kind not in _KINDS:
        raise ValueError(f"unknown subset kind {kind!r}")
    if k < 0 or k > n:
        return ()
    if kind != UNRESTRICTED and 2 * k > n:
        return ()  # a standard subset holds 2i at position i or above
    all_k = combinations(range(1, n + 1), k)
    if kind == UNRESTRICTED:
        return tuple(all_k)
    if kind == STANDARD:
        return tuple(s for s in all_k if is_standard(s))
    return tuple(s for s in all_k if is_super_standard(s, n))


def enumerate_subsets(n: int, k: int, kind: str = UNRESTRICTED, *,
                      up_to: bool = False) -> list[Subset]:
    """Subsets of {1..n} of the given kind, size exactly k (or <= k).

    Canonical order: ascending size, then lexicographic on the element
    tuple.  itertools.combinations already yields each size block in
    lexicographic order, so the result is deterministic.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if up_to:
        out: list[Subset] = []
        for size in range(k + 1):
            out.extend(_subsets_of_size(n, size, kind))
        return out
    return list(_subsets_of_size(n, k, kind))


def mu(n: int, s: int) -> int:
    """Number of standard s-subsets of {1..n}.

    Equals C(n,s) - C(n,s-1) for n >= 2s-1 and is 0 below that range
    (the closed formula would go negative there).
    """
    if n < 0 or s < 0:
        raise ValueError("n and s must be nonnegative")
    if n < 2 * s - 1:
        return 0
    return binomial(n, s) - binomial(n, s - 1)


def _require_standard(subset: Subset) -> None:
    if not is_standard(subset):
        raise ValueError(f"subset {subset} is not standard")


def is_boundary(subset: Subset) -> bool:
    """True iff some sorted position i holds the entry 2i.

    Only defined for standard subsets; the empty set is in the interior.
    """
    _require_standard(subset)
    return any(b == 2 * i for i, b in enumerate(subset, start=1))


def phi(subset: Subset) -> Subset:
    """Project a boundary standard subset of {1..n} into {1..n-1}.

    Scanning positions from the first one forward, remove the first entry
    equal to 2i at position i, then shift every remaining entry down by
    one.  The image is standard with one fewer element.
    """
    _require_standard(subset)
    for i, b in enumerate(subset, start=1):
        if b == 2 * i:
            return tuple(x - 1 for x in subset if x != b)
    raise ValueError(f"subset {subset} is not on the boundary")


def phi_inverse(subset: Subset) -> Subset:
    """Inflate a standard subset of {1..n-1} back onto the boundary in {1..n}.

    The last position holding a boundary entry (none counts as position 0)
    dictates where the new entry goes: shift everything up by one and
    insert the forced entry 2(i+1) just after position i.  This inverts
    :func:`phi` on boundary subsets, and phi(phi_inverse(s)) == s always.
    """
    _require_standard(subset)
    pos = 0
    for i, b in enumerate(subset, start=1):
        if b == 2 * i:
            pos = i
    shifted = [x + 1 for x in subset]
    return tuple(shifted[:pos] + [2 * pos + 2] + shifted[pos:])
