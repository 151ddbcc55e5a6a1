"""Descent-set enumeration on S_n: closed formulas next to brute force.

Descent sets follow the package convention of always containing n.  The
Stanley-style entry points (``count_descent_det``) instead take a subset of
{1..n-1} and append n internally; both are exposed so each formula can be
exercised in its native indexing.  The brute force, ``_descent_table``,
reads the permutations' counts off the inverse-descent walk of S_n that
the exact shuffle measures and the Gessel-bijection check also read.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator

from .permutations import (
    MAX_CACHED_N,
    _inverse_descent_indices,
    _mobius_divisors,
    _partition_numbers,
    check_budget,
    check_size,
    descent_composition,
    multinomial,
)


@functools.cache
def _descent_table(n: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Brute force over all of S_n: how many permutations, n-cycles and
    involutions have each descent set, as three tuples of 2^(n-1) entries
    indexed by ``permutations.descent_index``.

    The permutations are counted as a histogram of
    ``permutations._inverse_descent_indices``, the lexicographic walk of S_n
    by Des(pi^{-1}): inversion is a bijection of S_n, so as many permutations
    have each descent set as have it for their inverse.  The n-cycles are
    listed directly as the (n-1)! cyclic orders 0 -> c1 -> ... -> c_{n-1} -> 0,
    and the involutions as the matchings of 0..n-1, so neither filters S_n.
    Each listing holds one image list.

    >>> _descent_table(3)
    ((1, 2, 2, 1), (0, 1, 1, 0), (1, 1, 1, 1))
    """
    check_size(n, cap=MAX_CACHED_N)
    if n == 0:
        return (1,), (0,), (1,)  # the empty arrangement: one class, no cycle, an involution
    counts = [0] * 2 ** (n - 1)
    for index in _inverse_descent_indices(n):
        counts[index] += 1
    return (tuple(counts), tuple(_by_descent_index(n, _ncycles(n))),
            tuple(_by_descent_index(n, _involutions(n))))


def _ncycles(n: int) -> Iterator[list[int]]:
    """The n-cycles of 0..n-1 (n >= 1), written into one image list in turn."""
    images = [0] * n
    for order in itertools.permutations(range(1, n)):
        point = 0
        for after in order:
            images[point] = after
            point = after
        images[point] = 0
        yield images


def _involutions(n: int) -> Iterator[list[int]]:
    """The involutions of 0..n-1, written into one image list in turn: the
    least point not yet matched stays fixed, then swaps with each greater
    one not yet matched."""
    images = list(range(n))

    def match(i: int) -> Iterator[list[int]]:
        while i < n and images[i] < i:  # matched to a point before it
            i += 1
        if i == n:
            yield images
            return
        yield from match(i + 1)
        for j in range(i + 1, n):
            if images[j] == j:
                images[i], images[j] = j, i
                yield from match(i + 1)
                images[i], images[j] = i, j

    return match(0)


def _by_descent_index(n: int, arrangements: Iterable[list[int]]) -> list[int]:
    """How many of the image lists of S_n (n >= 1) in ``arrangements`` have
    each descent index: position i ends at the bit 2^(n-1-i)."""
    table = [0] * 2 ** (n - 1)
    for images in arrangements:
        index = 0
        for i in range(n - 1):
            index = index << 1 | (images[i] > images[i + 1])
        table[index] += 1
    return table


def _validate_descent_set(n: int, deset: Iterable[int]) -> frozenset[int]:
    check_size(n)
    js = frozenset(deset)
    if n not in js:
        raise ValueError(f"descent set must contain n={n}: {sorted(js)}")
    if not all(isinstance(j, int) and 1 <= j <= n for j in js):
        raise ValueError(f"descent set not within 1..{n}: {sorted(js)}")
    return js


def count_descent_subset(parts: Iterable[int]) -> int:
    """Permutations with descent set contained in the partial sums of
    ``parts``: the multinomial coefficient n!/(b1!...ba!)."""
    return multinomial(parts)


# Largest work of the ie routes' grouped sum, in gap entries: each group
# holds a sorted gap tuple of up to |J| entries, copied at every later cut,
# and there are at most 2^(|J|-1) groups (one per subset of the points of J
# passed so far) and at most p(c) with last cut c.  The same budget bounds
# the sum's work and its memory.
MAX_IE_TERMS = 2**18


def _with_part(parts: tuple[int, ...], part: int) -> tuple[int, ...]:
    """The sorted tuple ``parts`` with ``part`` inserted in order."""
    i = bisect_right(parts, part)
    return parts[:i] + (part,) + parts[i:]


def _descent_inclusion_exclusion(
    n: int, deset: Iterable[int], term: Callable[[tuple[int, ...]], int]
) -> int:
    """sum_{K subseteq J, n in K} (-1)^(|J|-|K|) term(C(K)), with C(K) the
    gap composition of K: inverts a count over descent sets inside K into
    a count over descent set exactly J.

    One forward pass over the points of J groups the 2^(|J|-1) sets K by
    their last cut and their sorted gaps so far, and counts the sets in each
    group: cutting at a point inserts its gap, skipping it changes nothing.
    The cut at n then closes each group with one ``term`` call, weighted by
    its count and signed by its number of gaps.  So ``term`` gets the gaps
    sorted, not in the order of K, and must be symmetric in its parts (the
    multinomial and the primitive-necklace count are).  For J = {1..16}
    that is 684 calls instead of 2^15.  Groups that close to the same gaps
    are not merged: that would take a second table as large as the first.
    The sum is refused before it starts above MAX_IE_TERMS gap entries,
    |J| for each group.
    """
    *inner, _ = sorted(_validate_descent_set(n, deset))
    # at most min(2^|inner|, sum of p(c) over the cuts c in {0} + inner)
    # groups: the gaps of one with last cut c are a partition of c.  p is
    # nondecreasing, so past its first value over the budget each p(c) counts
    # as one more than the budget, and a huge cut costs nothing
    size = len(inner) + 1
    groups = 2 ** len(inner)
    if groups * size > MAX_IE_TERMS:
        p = list(itertools.takewhile(MAX_IE_TERMS.__ge__, _partition_numbers()))
        groups = min(groups, sum(p[c] if c < len(p) else MAX_IE_TERMS + 1
                                 for c in [0, *inner]))
    check_budget(f"inclusion-exclusion over 2^{len(inner)} subsets of J, p(c) groups at "
                 f"each cut c (at least {groups}) of up to {size} gaps each "
                 f"(at least {groups * size} in all),", groups * size, MAX_IE_TERMS, "terms")
    # tables[c][gaps]: how many subsets of the points passed so far have
    # last cut c and these sorted gaps; a skipped point leaves them as they are
    tables: dict[int, dict[tuple[int, ...], int]] = {0: {(): 1}}
    for cut in inner:
        made: dict[tuple[int, ...], int] = {}
        for start, table in tables.items():
            gap = cut - start
            for gaps, count in table.items():
                key = _with_part(gaps, gap)
                made[key] = made.get(key, 0) + count
        tables[cut] = made
    total = 0
    for start, table in tables.items():
        for gaps, count in table.items():
            value = count * term(_with_part(gaps, n - start))
            total += -value if (len(inner) - len(gaps)) % 2 else value
    return total


def _binomial_det(n: int, positions: list[int], d: int) -> int:
    """det C((n - j_l)/d, (j_{m+1} - j_l)/d) over j_0 = 0 < positions < j_{k+1} = n.

    Entries below the subdiagonal are C(., negative) = 0 and those on it
    C(., 0) = 1, so the matrix is upper Hessenberg with a unit subdiagonal.
    Expanding its leading m x m minor D_m along the last column gives

        D_m = sum_{l < m} (-1)^(m-1-l) C((n - j_l)/d, (j_m - j_l)/d) D_l,   D_0 = 1,

    O(k^2) products of integers and no division.  The positions must
    increase strictly, so every binomial taken here is within its row.
    """
    pts = [0] + positions + [n]
    minors = [1]
    for m in range(1, len(pts)):
        total = 0
        for l, minor in enumerate(minors):
            term = math.comb((n - pts[l]) // d, (pts[m] - pts[l]) // d) * minor
            total += -term if (m - 1 - l) % 2 else term
        minors.append(total)
    return minors[-1]


def count_descent_exact(n: int, deset: Iterable[int]) -> int:
    """Permutations of S_n with descent set exactly ``deset`` (which must
    contain n), by inclusion-exclusion over subsets:

        sum_{K subseteq J, n in K} (-1)^(|J|-|K|) multinomial(C(K))

    summed with one multinomial per group of sets K that agree on their
    last point below n and, up to order, on their gaps below it (see
    ``_descent_inclusion_exclusion``).

    >>> count_descent_exact(4, {2, 4}), count_descent_exact(4, {1, 2, 3, 4})
    (5, 1)
    """
    return _descent_inclusion_exclusion(n, deset, count_descent_subset)


def count_descent_det(n: int, j_positions: Iterable[int]) -> int:
    """Same count in Stanley's indexing: ``j_positions`` lies in {1..n-1}.

    The count is the determinant of the (k+1) x (k+1) matrix with entries
    C(n - j_l, j_{m+1} - j_l) for j_0 = 0 and j_{k+1} = n, evaluated by the
    unit-Hessenberg recurrence of ``_binomial_det``.  A repeated position
    repeats a row, so the determinant is 0.
    """
    check_size(n)
    js = sorted(j_positions)
    if any(j < 1 or j > n - 1 for j in js):
        raise ValueError(f"positions must lie in 1..{n - 1}: {js}")
    if len(set(js)) < len(js):
        return 0
    return _binomial_det(n, js, 1)


def _primitive_count(parts: tuple[int, ...]) -> int:
    """``necklaces.primitive_count`` of the letter counts ``parts``: each
    term's (n/d)!/prod (r_i/d)! is the multinomial of the parts over d."""
    n = sum(parts)
    if n == 0:
        raise ValueError("all letter counts are zero")
    total = sum(mu * multinomial([r // d for r in parts])
                for d, mu in _mobius_divisors(math.gcd(*parts)))
    if total % n:
        raise ArithmeticError(f"necklace sum {total} for {parts} is not divisible by {n}")
    return total // n


def ncycles_descent_ie(n: int, deset: Iterable[int]) -> int:
    """n-cycles with descent set exactly ``deset``, by inclusion-exclusion
    with the primitive-necklace count in place of the multinomial, one per
    group of sets K, as in ``count_descent_exact``.

    >>> ncycles_descent_ie(3, {1, 3}), ncycles_descent_ie(4, {1, 3, 4})
    (1, 1)
    """
    return _descent_inclusion_exclusion(n, deset, _primitive_count)


def ncycles_descent_det(n: int, deset: Iterable[int]) -> int:
    """n-cycles with descent set exactly ``deset``, by the divisor sum

        (1/n) sum_{d | n} mu(d) (-1)^(|J| - |J_d|) det C((n - j_l)/d, (j_{m+1} - j_l)/d)

    where J is the descent set without n and J_d keeps its multiples of d.
    Raises ArithmeticError if the divisor sum is not divisible by n, which
    would indicate a bug rather than bad input.
    """
    js = _validate_descent_set(n, deset)
    inner = sorted(js - {n})
    total = 0
    for d, mu in _mobius_divisors(n):
        jd = [j for j in inner if j % d == 0]
        total += mu * (-1) ** (len(inner) - len(jd)) * _binomial_det(n, jd, d)
    if total % n:
        raise ArithmeticError(f"divisor sum {total} not divisible by n={n}")
    return total // n


def count_symmetric_matrices(row_sums: Iterable[int]) -> int:
    """Symmetric r x r matrices with non-negative integer entries and the
    given row sums, counted by filling the upper triangle row by row.

    Filling a row leaves the rows below it with smaller row sums and the
    same problem, so ``_symmetric_fill`` keeps the count of each tuple of
    row sums, across calls.  Permuting the rows and columns alike permutes
    the row sums and keeps the count, and a row of sum 0 holds only zeros,
    so a tuple is kept as its nonzero sums in decreasing order, one entry
    for every order (the first row, the largest, leaves the fewest to fill).

    >>> count_symmetric_matrices((1, 1)), count_symmetric_matrices((2, 1, 1))
    (2, 5)
    """
    sums = tuple(row_sums)
    if any(s < 0 for s in sums):
        raise ValueError(f"negative row sum in {sums}")
    return _symmetric_fill(_canonical(sums))


def _canonical(rest) -> tuple[int, ...]:
    return tuple(sorted(filter(None, rest), reverse=True))


@functools.cache
def _symmetric_fill(rest: tuple[int, ...]) -> int:
    """``count_symmetric_matrices`` of canonical row sums: fill the first row."""
    if not rest:
        return 1
    head, tail = rest[0], rest[1:]
    below = list(tail)
    total = 0

    def spread(col: int, left: int):
        nonlocal total
        if col == len(tail):
            total += _symmetric_fill(_canonical(below))  # the diagonal entry takes what is left
            return
        for value in range(min(left, tail[col]) + 1):
            below[col] = tail[col] - value
            spread(col + 1, left - value)
        below[col] = tail[col]

    spread(0, head)
    return total


def involutions_descent_subset(n: int, kset: Iterable[int]) -> int:
    """Involutions of S_n with descent set contained in ``kset`` (which must
    contain n), counted as symmetric matrices with row sums given by the
    gap composition of ``kset``.

    >>> involutions_descent_subset(3, {1, 3}), involutions_descent_subset(4, {1, 2, 3, 4})
    (2, 10)
    """
    ks = _validate_descent_set(n, kset)
    return count_symmetric_matrices(descent_composition(ks, n))
