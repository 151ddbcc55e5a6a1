"""Permutations of {1..n} in one-line form, with exact statistics.

Conventions used throughout the package:

- Positions and card labels are 1-based.  A permutation is stored as the
  tuple ``(pi(1), ..., pi(n))``; read as a deck of cards, ``pi(i)`` is the
  label of the card sitting at position ``i``.
- Every permutation has a descent at position ``n`` by convention, so
  ``descent_set`` always contains ``n``.
- Composition ``(p * q)(i) == p(q(i))``, i.e. ``q`` acts first.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Iterable, Iterator
from functools import lru_cache

# The one cap on n for what lists S_n or is sized like it; no flag raises it.
MAX_CACHED_N = 9


def check_size(n: int = 0, *, k: int = 0, cap: int | None = None) -> None:
    """Refuse a negative deck size n, a negative shuffle count k, or n above
    ``cap``: the one check of these limits in the package.

    >>> check_size(10, cap=MAX_CACHED_N)
    Traceback (most recent call last):
    ...
    ValueError: n=10 above cap 9
    """
    if n < 0:
        raise ValueError("negative deck size")
    if k < 0:
        raise ValueError("negative k")
    if cap is not None and n > cap:
        raise ValueError(f"n={n} above cap {cap}")


class Refused(ValueError):
    """Work over a budget, refused before it starts; raised by ``check_budget`` alone."""


def check_budget(what: str, amount, budget: int, unit: str) -> None:
    """Refuse ``what``, an estimate of ``amount`` ``unit``, above ``budget``:
    the one comparison of an estimate with its budget in the package.

    >>> try:
    ...     check_budget("a sweep of 2^30 cells", 2**30, 2**21, "cells")
    ... except Refused as refused:
    ...     print(refused)
    a sweep of 2^30 cells is above the budget of 2097152 cells
    """
    if amount > budget:
        raise Refused(f"{what} is above the budget of {budget} {unit}")


def check_listing(n: int, base: int, exponent: int, estimate: str) -> None:
    """Refuse base^exponent words of n cards, named ``estimate``, holding more cards
    than S_MAX_CACHED_N (9 * 9!); a huge exponent is clipped at the budget's bits."""
    budget = MAX_CACHED_N * math.factorial(MAX_CACHED_N)
    check_budget(f"{n} cards * {estimate}", n * base ** min(exponent, budget.bit_length()),
                 budget, "listed cards")


def _partition_numbers() -> Iterator[int]:
    """p(0), p(1), ...: the partition numbers, by Euler's pentagonal recurrence

        p(m) = sum_{j >= 1} (-1)^(j+1) (p(m - j(3j-1)/2) + p(m - j(3j+1)/2)).
    """
    parts: list[int] = []
    for m in itertools.count():
        p, j = (0 if m else 1), 1
        while (g := j * (3 * j - 1) // 2) <= m:
            term = parts[m - g] + (parts[m - g - j] if g + j <= m else 0)
            p += term if j % 2 else -term
            j += 1
        parts.append(p)
        yield p


def _mobius_divisors(m: int) -> list[tuple[int, int]]:
    """(d, mu(d)) for the divisors d of m >= 1 with mu(d) != 0, the
    squarefree ones, built prime by prime: the terms of every Moebius sum."""
    terms, p = [(1, 1)], 2
    while m > 1:
        if p * p > m:
            p = m  # what is left is prime
        if m % p == 0:
            terms += [(d * p, -mu) for d, mu in terms]
            while m % p == 0:
                m //= p
        p += 1
    return terms


class Immutable:
    """Base of the value types: set once by object.__setattr__, then frozen."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Permutation(Immutable):
    """An element of S_n, immutable and hashable.

    >>> p = Permutation([2, 3, 1])
    >>> p(1), p(3)
    (2, 1)
    >>> p.inverse()
    Permutation([3, 1, 2])
    >>> p * p.inverse() == Permutation.identity(3)
    True
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a permutation of 1..{len(imgs)}: {imgs!r}")
        object.__setattr__(self, "images", imgs)

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap a tuple already known to be a permutation of 1..n, skipping
        the check in ``__init__``."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "images", images)
        return perm

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        """Build from disjoint cycles; omitted elements are fixed points.

        >>> Permutation.from_cycles(3, [(2, 3)])
        Permutation([1, 3, 2])
        """
        images = list(range(1, n + 1))
        for cycle in cycles:
            cyc = tuple(cycle)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b
        return cls(images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(self.images[j - 1] for j in other.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(inv)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def standard_permutation(word: Iterable) -> Permutation:
    """Rank of each position of ``word`` in (letter, position) order.

    Letters may be any mutually comparable values (0-based pile labels,
    1-based alphabet letters).  Read as a shuffle, this is the inverse
    description: dealing card j to pile word[j] and stacking the piles in
    label order leaves card j at position ``pi(j)``.  The empty word gives
    the empty permutation.

    >>> standard_permutation((1, 0, 1, 0)).images
    (3, 1, 4, 2)
    """
    return Permutation(standard_ranks(tuple(word)))


def standard_ranks(word) -> list[int]:
    """The images of ``standard_permutation(word)`` as an unchecked list.

    ``word`` must support ``len`` and indexing.  The ranks are a bijection
    onto 1..len(word) by construction, so callers that compose several of
    them may validate only the result.

    >>> standard_ranks([1, 0, 1, 0])
    [3, 1, 4, 2]
    """
    # a stable sort by letter alone breaks ties to the left
    order = sorted(range(len(word)), key=word.__getitem__)
    ranks = [0] * len(word)
    for rank, j in enumerate(order, start=1):
        ranks[j] = rank
    return ranks


def descent_set(p: Permutation) -> frozenset[int]:
    """Positions i with p(i) > p(i+1), plus n (always a descent).

    >>> sorted(descent_set(Permutation([2, 1, 3])))
    [1, 3]
    """
    imgs = p.images
    n = len(imgs)
    if n == 0:
        return frozenset()
    des = {i + 1 for i in range(n - 1) if imgs[i] > imgs[i + 1]}
    des.add(n)
    return frozenset(des)


def inversions(p: Permutation) -> int:
    """Number of pairs i < j with p(i) > p(j); invariant under inverse."""
    return count_inversions(p.images)


def count_inversions(seq) -> int:
    """Inversion count of a sequence: each entry counts the smaller entries
    to its right, found by bisection in the sorted list of those seen.

    >>> count_inversions((3, 1, 2))
    2
    """
    seen: list = []
    count = 0
    for x in reversed(seq):
        i = bisect.bisect_left(seen, x)
        count += i
        seen.insert(i, x)
    return count


def cycles(p: Permutation) -> list[tuple[int, ...]]:
    """Disjoint cycles of ``p``, each starting at its smallest element and
    following i -> p(i); cycles ordered by smallest element.

    >>> cycles(Permutation([3, 4, 1, 2, 5]))
    [(1, 3), (2, 4), (5,)]
    """
    seen = [False] * p.n
    out = []
    for start in range(1, p.n + 1):
        if seen[start - 1]:
            continue
        cyc = []
        i = start
        while not seen[i - 1]:
            seen[i - 1] = True
            cyc.append(i)
            i = p(i)
        out.append(tuple(cyc))
    return out


def cycle_type(p: Permutation) -> dict[int, int]:
    """Map cycle length -> number of cycles of that length.

    >>> cycle_type(Permutation([2, 3, 1])) == {3: 1}
    True
    """
    counts: dict[int, int] = {}
    for cyc in cycles(p):
        counts[len(cyc)] = counts.get(len(cyc), 0) + 1
    return counts


def cycle_type_key(counts: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """Canonical hashable form of a cycle type: sorted (length, count) pairs."""
    return tuple(sorted((i, c) for i, c in counts.items() if c))


def symmetric_group(n: int) -> Iterator[Permutation]:
    """Iterate all of S_n (n! elements; S_0 is the single empty permutation)."""
    # itertools.permutations yields permutations of 1..n by construction
    return map(Permutation._unchecked, itertools.permutations(range(1, n + 1)))


@lru_cache(maxsize=8)
def symmetric_group_list(n: int) -> tuple[Permutation, ...]:
    """Cached tuple of S_n, for repeated brute-force passes (n <= MAX_CACHED_N)."""
    check_size(n, cap=MAX_CACHED_N)
    return tuple(symmetric_group(n))


# --- compositions and descent sets -------------------------------------

def partial_sums(parts: Iterable[int]) -> tuple[int, ...]:
    """Running totals of a composition: (b1, b1+b2, ...)."""
    out, total = [], 0
    for b in parts:
        total += b
        out.append(total)
    return tuple(out)


def multinomial(parts: Iterable[int]) -> int:
    """n!/(b1!...ba!) for parts b summing to n, as the product of the
    binomials C(b1+...+bi, bi), so no factorial of n is formed."""
    parts = tuple(parts)
    return math.prod(map(math.comb, partial_sums(parts), parts))


def descent_index(deset: Iterable[int], n: int) -> int:
    """The index of a descent set containing n among the 2^(n-1) of S_n (one
    at n = 0): each position i < n sets the bit 2^(n-1-i), position 1 the high bit."""
    return sum(1 << (n - 1 - i) for i in deset if i < n)


def descent_composition(deset: Iterable[int], n: int) -> tuple[int, ...]:
    """Gap sequence of a descent set containing n.

    >>> descent_composition({2, 8, 12}, 12)
    (2, 6, 4)
    """
    js = sorted(deset)
    if not js or js[-1] != n:
        raise ValueError(f"descent set must contain n={n}: {js}")
    prev, parts = 0, []
    for j in js:
        parts.append(j - prev)
        prev = j
    return tuple(parts)


def weak_compositions(n: int, num_parts: int) -> Iterator[tuple[int, ...]]:
    """All (b1..ba) with bi >= 0 summing to n; zero parts allowed.

    Yielded in lexicographic order, by a loop, so any number of parts works.

    >>> list(weak_compositions(2, 2))
    [(0, 2), (1, 1), (2, 0)]
    """
    if n < 0 or num_parts == 0:
        if n == 0:
            yield ()
        return
    parts = [0] * num_parts
    parts[-1] = n
    last = num_parts - 1 if n else 0  # index of the last nonzero part
    while True:
        yield tuple(parts)
        if last == 0:
            return
        # the last nonzero part gives one unit to its left neighbour and
        # the rest of it to the final part
        rest = parts[last] - 1
        parts[last] = 0
        parts[last - 1] += 1
        parts[-1] = rest
        last = num_parts - 1 if rest else last - 1


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """All compositions of n into positive parts (2^(n-1) of them), in
    lexicographic order, by a loop.

    >>> list(compositions(3))
    [(1, 1, 1), (1, 2), (2, 1), (3,)]
    """
    if n < 0:
        return
    parts = [1] * n
    while True:
        yield tuple(parts)
        if len(parts) < 2:
            return
        # the next one raises the second-to-last part and spreads the rest
        # of the last part as ones
        rest = parts.pop() - 1
        parts[-1] += 1
        parts.extend([1] * rest)


def words_with_content(counts: list[int]) -> Iterator[tuple[int, ...]]:
    """Distinct words with counts[i] copies of letter i (0-based), in
    lexicographic order, by a loop, so any length works: the one generator
    of the words of a content."""
    word = [letter for letter, c in enumerate(counts) for _ in range(c)]
    while True:
        yield tuple(word)
        # next permutation: reverse the longest non-increasing tail, then swap
        # the entry before it with the first tail entry above that entry
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        word[i + 1:] = reversed(word[i + 1:])
        j = bisect.bisect_right(word, word[i], i + 1)
        word[i], word[j] = word[j], word[i]


if __name__ == "__main__":
    import doctest

    doctest.testmod()
