"""Words, standardization, and the Gessel-Reutenauer necklace bijection.

Words are tuples over the ordered alphabet {1..a}.  A necklace is a word up
to cyclic rotation, stored canonically as its lexicographically minimal
rotation; a necklace is primitive when no nontrivial rotation fixes it.
Multisets of necklaces are ``collections.Counter`` instances keyed by
canonical tuples.

Standardizing a word and decomposing the resulting permutation into cycles
turns every word into a multiset of necklaces with the same cycle
structure.  Restricted to words of fixed letter content, the map is a
bijection onto multisets of *primitive* necklaces with that content, which
is what makes the shuffle-measure cycle counting work.
"""

from __future__ import annotations

import bisect
import math
import operator
from collections import Counter
from collections.abc import Iterable

from .permutations import (
    Permutation,
    check_size,
    partial_sums,
    standard_permutation,
    standard_ranks,
)

# Longest necklace enumerate_primitive_necklaces lists.
MAX_NECKLACE_LENGTH = 16

Word = tuple[int, ...]
Necklace = tuple[int, ...]
NecklaceMultiset = Counter  # Counter[Necklace]


def standardize(word: Iterable[int]) -> Permutation:
    """Standard permutation of a nonempty word: lexicographic ranks, ties to
    the left (``permutations.standard_permutation``).

    >>> standardize((2, 2, 1, 1, 2, 3, 3, 3, 2, 3, 2, 2)).images
    (3, 4, 1, 2, 5, 9, 10, 11, 6, 12, 7, 8)
    """
    word = tuple(word)
    if not word:
        raise ValueError("empty word")
    return standard_permutation(word)


def min_rotation(seq: Iterable[int]) -> Necklace:
    """Canonical form of a cyclic word: its lexicographically least rotation."""
    seq = tuple(seq)
    if not seq:
        raise ValueError("empty necklace")
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


def is_primitive(necklace: Iterable[int]) -> bool:
    """True iff no nontrivial rotation fixes the necklace.

    >>> is_primitive((1, 1, 2, 2)), is_primitive((1, 2, 1, 2))
    (True, False)
    """
    seq = tuple(necklace)
    n = len(seq)
    for period in range(1, n):
        if n % period == 0 and seq == seq[period:] + seq[:period]:
            return False
    return True


def necklace_decomposition(word: Iterable[int]) -> NecklaceMultiset:
    """Multiset of necklaces obtained by reading the word's letters around
    each cycle of its standard permutation.

    Cycles are traversed following i -> st(i), and each necklace is stored
    in canonical (minimal-rotation) form.  The multiset of necklace lengths
    always equals the cycle type of ``standardize(word)``.
    """
    word = tuple(word)
    if not word:
        raise ValueError("empty word")
    ranks = standard_ranks(word)
    seen = [False] * len(word)
    out: NecklaceMultiset = Counter()
    for start in range(len(word)):
        if seen[start]:
            continue
        letters_around = []
        j = start
        while not seen[j]:
            seen[j] = True
            letters_around.append(word[j])
            j = ranks[j] - 1
        out[min_rotation(letters_around)] += 1
    return out


def word_from_permutation(perm: Permutation, parts: Iterable[int]) -> Word:
    """The unique word with parts[i-1] copies of letter i standardizing to ``perm``.

    Exists iff the descent set of perm^{-1} is contained in the partial
    sums of ``parts``; the letter at position j is the block of perm(j)
    among those partial sums.

    >>> word_from_permutation(Permutation([2, 3, 1]), (1, 2))
    (2, 2, 1)
    """
    parts = _letter_counts(parts)
    psums = partial_sums(parts)
    n = perm.n
    if n != (psums[-1] if psums else 0):
        raise ValueError(f"parts {parts} do not sum to n={n}")
    # position[v] is where value v sits; v is an inverse descent when v + 1 sits before it
    position = [0] * (n + 1)
    for j, value in enumerate(perm.images):
        position[value] = j
    allowed = set(psums)
    bad = [v for v in range(1, n) if position[v] > position[v + 1] and v not in allowed]
    if bad:
        raise ValueError(
            f"no word with content {parts} standardizes to {perm}: "
            f"inverse descent at {bad}"
        )
    # block[v - 1]: the first block whose partial sum reaches v
    block, i = [], 0
    for v in range(1, n + 1):
        while psums[i] < v:
            i += 1
        block.append(i + 1)
    return tuple(block[value - 1] for value in perm.images)


def ubar_forward(perm: Permutation, parts: Iterable[int]) -> NecklaceMultiset:
    """Necklace multiset of the unique content-``parts`` word standardizing
    to ``perm``.

    Restricted to permutations whose *inverse* descent set lies in the
    partial sums of ``parts`` (the condition under which the word exists),
    this is a cycle-structure preserving bijection onto multisets of
    primitive necklaces with parts[i-1] copies of letter i.
    """
    return necklace_decomposition(word_from_permutation(perm, parts))


# --- primitive necklace counting and enumeration ------------------------

def _letter_counts(parts: Iterable[int]) -> tuple[int, ...]:
    """``parts`` as a tuple of letter counts, refused if one is negative."""
    parts = tuple(parts)
    if parts and min(parts) < 0:
        raise ValueError(f"negative letter count in {parts}")
    return parts


def _mobius(n: int) -> int:
    if n < 1:
        raise ValueError("mobius needs n >= 1")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def primitive_count(parts: Iterable[int]) -> int:
    """Number of primitive necklaces with parts[i-1] copies of letter i.

    Moebius inversion over the common divisors of the letter counts:
    (1/n) sum_{d | gcd} mu(d) * (n/d)! / prod (r_i/d)!.

    >>> primitive_count((2, 2)), primitive_count((1, 1, 1))
    (1, 2)
    """
    parts = _letter_counts(parts)
    n = sum(parts)
    if n == 0:
        raise ValueError("all letter counts are zero")
    factorial = math.factorial
    total = factorial(n) // math.prod(map(factorial, parts))  # the d = 1 term
    g = math.gcd(*parts)
    for d in range(2, g + 1):
        if g % d:
            continue
        mu = _mobius(d)
        if mu:
            total += mu * (factorial(n // d) // math.prod([factorial(r // d) for r in parts]))
    if total % n:
        raise ArithmeticError(f"necklace sum {total} for {parts} is not divisible by {n}")
    return total // n


def _lyndon_walk(parts: tuple[int, ...], every_prefix: bool) -> list[Necklace]:
    """Lyndon words with at most parts[i-1] copies of letter i, in
    lexicographic order: every such word when ``every_prefix``, else only
    those with exactly that content.

    The Fredricksen-Kessler-Maiorana walk over prenecklaces, bounded by the
    letter counts: with p the length of the longest Lyndon prefix of
    word[1..t-1], letter t is at least word[t-p]; p stays on equality and
    becomes t otherwise, and word[1..t] is a Lyndon word exactly when p = t.
    The walk is depth first with letters in increasing order, so words come
    out sorted, each prefix before its extensions.
    """
    counts = [0, *parts]  # copies left of each letter; 0 is no letter
    n, top = sum(parts), len(parts)
    word = [0] * (n + 1)  # the word is word[1..t]; word[0] = 0 is below every letter
    out: list[Necklace] = []

    def walk(t: int, p: int):
        if t > n:
            if p == n and not every_prefix:
                out.append(tuple(word[1:]))
            return
        low = word[t - p]
        for letter in range(low or 1, top + 1):
            if not counts[letter]:
                continue
            counts[letter] -= 1
            word[t] = letter
            if letter == low:
                walk(t + 1, p)
            else:
                if every_prefix:
                    out.append(tuple(word[1:t + 1]))
                walk(t + 1, t)
            counts[letter] += 1

    walk(1, 1)
    return out


def enumerate_primitive_necklaces(parts: Iterable[int]) -> list[Necklace]:
    """All primitive necklaces with the given letter content, canonical and
    sorted; the brute-force counterpart of ``primitive_count``.

    A primitive necklace's least rotation is a Lyndon word, so this lists
    the Lyndon words of the content by the prenecklace walk of
    ``_lyndon_walk``, which never forms a word that is not a prenecklace
    and shares nothing with the Moebius count it checks.  Contents longer
    than MAX_NECKLACE_LENGTH are refused.
    """
    parts = _letter_counts(parts)
    n = sum(parts)
    check_size(n, cap=MAX_NECKLACE_LENGTH)
    if n == 0:
        raise ValueError("all letter counts are zero")
    return _lyndon_walk(parts, every_prefix=False)


def _necklaces_below(parts: tuple[int, ...]) -> list[Necklace]:
    """All primitive necklaces whose content fits inside ``parts``, sorted:
    one prenecklace walk bounded by ``parts`` that keeps every Lyndon prefix.
    Contents longer than MAX_NECKLACE_LENGTH are refused."""
    parts = _letter_counts(parts)
    check_size(sum(parts), cap=MAX_NECKLACE_LENGTH)
    return _lyndon_walk(parts, every_prefix=True)


def enumerate_primitive_multisets(parts: Iterable[int]) -> list[NecklaceMultiset]:
    """All multisets of primitive necklaces with combined letter content
    exactly ``parts``.  Small-scale oracle for the bijection.
    """
    parts = tuple(parts)
    # Sorted canonical necklaces start with their least letter, so the
    # candidates come grouped by least letter.
    candidates = _necklaces_below(parts)

    def content_of(neck: Necklace) -> tuple[int, ...]:
        c = [0] * len(parts)
        for letter in neck:
            c[letter - 1] += 1
        return tuple(c)

    contents = [content_of(neck) for neck in candidates]
    results: list[NecklaceMultiset] = []
    chosen: NecklaceMultiset = Counter()

    def pick(start: int, remaining: tuple[int, ...]):
        # Necklaces are chosen in candidate order, so each multiset is built
        # once, and the least letter still unplaced can only go into a
        # necklace from its own group.  Each call places at least one
        # letter, so the recursion is at most sum(parts) deep.
        least = next((i for i, r in enumerate(remaining, start=1) if r), None)
        if least is None:
            results.append(chosen.copy())
            return
        lo = max(start, bisect.bisect_left(candidates, (least,)))
        hi = bisect.bisect_left(candidates, (least + 1,))
        for idx in range(lo, hi):
            if not all(map(operator.le, contents[idx], remaining)):
                continue
            neck = candidates[idx]
            chosen[neck] += 1
            pick(idx, tuple(map(operator.sub, remaining, contents[idx])))
            chosen[neck] -= 1
            if not chosen[neck]:
                del chosen[neck]

    pick(0, parts)
    return results


def multiset_key(multiset: NecklaceMultiset) -> tuple[tuple[Necklace, int], ...]:
    """Hashable canonical form of a necklace multiset."""
    return tuple(sorted((neck, m) for neck, m in multiset.items() if m))


def length_multiset(multiset: NecklaceMultiset) -> dict[int, int]:
    """Necklace lengths with multiplicity; comparable to a cycle type."""
    out: dict[int, int] = {}
    for neck, m in multiset.items():
        out[len(neck)] = out.get(len(neck), 0) + m
    return out


def letters(necklace: Iterable[int]) -> str:
    """Render small alphabets as letters for display: (1, 2) -> 'ab'."""
    return "".join(chr(ord("a") + x - 1) if 1 <= x <= 26 else f"<{x}>" for x in necklace)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
